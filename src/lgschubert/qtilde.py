"""The Schur-Q-style basis of the ring of symmetric functions in elementary
generators: the memoized basis(lam, m) (pair formula and Pfaffian
recursion, truncated to m variables by filtering), expansion in the basis,
stable structure constants, the power-of-two Pieri rule, and verifiers for
the defining properties of the family.

A basis element qtilde(lam) is attached to every partition lam; for strict
lam these map onto Schubert classes of the Lagrangian Grassmannian.  The
expansion of qtilde(lam) in e-monomials is unitriangular with respect to
dominance (leading monomial e_lam, coefficient 1), which drives the exact
back-substitution in ``expand_in_basis``.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .partitions import (
    Partition,
    enumerate_partitions,
    grow_strips,
    is_partition,
    is_strict,
    pfaffian_terms,
    straighten,
)
from .polyring import EPoly, XPoly, add_into, elementary_xpoly, epoly_to_xpoly, mul_into


class VerificationError(Exception):
    """An identity the engine relies on failed on a concrete witness."""


@cache
def basis(lam: Partition, m: int | None) -> EPoly:
    """Basis element of a partition in m variables, untruncated for m = None.

    Memoized per (lam, m); the result is shared by every caller and must not
    be mutated.  Untruncated, at most two parts (i, j) give
    e_i e_j + 2 * sum_{k=1}^{j} (-1)^k e_{i+k} e_{j-k}, whose monomials are
    pairwise distinct, and longer partitions the Pfaffian expansion along the
    last column.  Truncation e_i -> 0 for i > m is a ring homomorphism, so the
    truncated element drops the monomials of the untruncated one whose top
    part exceeds m.
    """
    if m is not None:
        return EPoly(m, {mono: c for mono, c in basis(lam, None).terms.items()
                         if not mono or mono[0] <= m})
    if len(lam) > 2:
        acc: dict[tuple[int, ...], int] = {}
        for sign, pair, rest in pfaffian_terms(lam):
            mul_into(acc, basis(pair, None).terms, basis(rest, None).terms, sign)
        return EPoly(None, acc)
    i, j = lam + (0,) * (2 - len(lam))
    return EPoly(None, {tuple(p for p in (i + k, j - k) if p): 2 * (-1) ** k if k else 1
                        for k in range(j + 1)})


def qtilde(nu, m: int) -> EPoly:
    """Basis element for an arbitrary index sequence in m variables.

    The sequence is straightened first; a negative entry yields zero, and the
    straightening sign multiplies the result.
    """
    if m < 1:
        raise ValueError("m must be positive")
    sign, lam = straighten(nu)
    if sign == 0:
        return EPoly.zero(m)
    p = basis(lam, m)
    return p if sign == 1 else -p


def expand_in_basis(f: EPoly) -> dict[Partition, int]:
    """Integer coordinates of f in the basis {qtilde(lam)}.

    Works weight by weight: partitions of each weight are peeled in ascending
    lexicographic order, so each subtraction only disturbs lex-higher
    monomials.  Unit pivots and a zero final residual are asserted; a failure
    of either would mean the unitriangularity the basis guarantees is broken.
    """
    coeffs: dict[Partition, int] = {}
    by_weight: dict[int, dict[tuple[int, ...], int]] = {}
    for mono, c in f.terms.items():
        by_weight.setdefault(sum(mono), {})[mono] = c
    for w in sorted(by_weight):
        residual = by_weight[w]
        if w == 0:
            coeffs[()] = residual[()]
            continue
        for lam in reversed(enumerate_partitions(w, min(f.m, w) if f.m is not None else w)):
            c = residual.get(lam)
            if not c:
                continue
            q = basis(lam, f.m)
            if q.terms.get(lam, 0) != 1:
                raise VerificationError(f"non-unit pivot for {lam}")
            # the unit pivot cancels residual[lam] along with the rest
            add_into(residual, q.terms.items(), -c)
            coeffs[lam] = c
        if residual:
            raise VerificationError(f"nonzero residual at weight {w}: {residual}")
    return coeffs


@lru_cache(maxsize=None)
def stable_expansion(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Memoized basis expansion of the untruncated product of two basis
    elements.  The result is shared by every caller and must not be
    mutated; ``structure_constants`` validates its input and copies."""
    return expand_in_basis(basis(lam, None) * basis(mu, None))


def structure_constants(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expansion coefficients of qtilde(lam) * qtilde(mu) in the basis,
    computed with enough variables (|lam| + |mu|) that no basis element is
    truncated; the coefficients are then independent of the variable count."""
    lam, mu = tuple(lam), tuple(mu)
    for p in (lam, mu):
        if not is_partition(p):
            raise ValueError(f"{p} is not a partition")
    return dict(stable_expansion(lam, mu))


def pieri_strict(lam: Partition, k: int) -> dict[Partition, int]:
    """Product of qtilde(lam), lam strict, with the degree-k generator:
    sum over horizontal-strip extensions mu of 2**N(lam, mu) qtilde(mu),
    N counting components of mu/lam that avoid the first column."""
    lam = tuple(lam)
    if not is_partition(lam) or not is_strict(lam):
        raise ValueError(f"{lam} is not a strict partition")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return {s.shape: 1 << s.off_first_column for s in grow_strips(lam, k)}


def f_constant(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The structure constant e(lam, mu; nu) rescaled by
    2**(len(lam) + len(mu) - len(nu)); exact divisibility is asserted."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    e = stable_expansion(lam, mu).get(nu, 0)
    if e == 0:
        return 0
    t = len(lam) + len(mu) - len(nu)
    if t <= 0:
        return e << -t
    if e % (1 << t):
        raise VerificationError(f"2^{t} does not divide e({lam},{mu};{nu}) = {e}")
    return e >> t


@lru_cache(maxsize=None)
def qtilde_x(lam: Partition, gens: int, total: int, shift: int = 0) -> XPoly:
    """X-variable expansion of the basis element built from e_1..e_gens,
    placed on variables x_{shift+1}..x_{shift+gens} among total variables."""
    return epoly_to_xpoly(basis(lam, gens), total_vars=total, shift=shift)


def verify_extension_formula(lam: Partition, m: int) -> bool:
    """Check the one-variable peeling identity: the basis element on
    x_1..x_m equals sum_k x_1^k times the sum of basis elements on
    x_2..x_m over index sequences obtained by decrementing parts of lam
    by at most one, with |lam| - |mu| = k.  Non-partition sequences enter
    through signed straightening."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if m > 6:
        raise ValueError("guarded to m <= 6")
    lhs = qtilde_x(lam, m, m)
    ell = len(lam)
    rhs = XPoly.zero(m)
    for bits in range(1 << ell):
        mu = tuple(lam[i] - ((bits >> i) & 1) for i in range(ell))
        sign, mu_hat = straighten(mu)
        if sign == 0:
            continue
        k = sum(lam) - sum(mu)
        x1k = XPoly(m, {(k,) + (0,) * (m - 1): sign})
        rhs = rhs + x1k * qtilde_x(mu_hat, m - 1, m, 1)
    return lhs == rhs


def _elementary_of_squares(i: int, m: int) -> XPoly:
    base = elementary_xpoly(i, m, m)
    return XPoly(m, {tuple(2 * e for e in mono): c for mono, c in base.terms.items()})


def verify_qtilde_properties(m: int, wmax: int) -> list[dict]:
    """Run the defining-property checks over all partitions of weight <= wmax.

    (a) vanishing when the top part exceeds m; (b) basis expansion
    round-trips; (c) equal-pair elements expand to elementary symmetric
    polynomials of squared variables (x-expansion leg, m <= 8 only);
    (d) multiplying by the top-degree generator prepends a part m;
    (e) equal pairs split off multiplicatively.  Returns failure records,
    empty when every check passes.
    """
    failures: list[dict] = []
    for w in range(1, wmax + 1):
        for lam in enumerate_partitions(w, w):
            if lam[0] > m and qtilde(lam, m):
                failures.append({"check": "a", "lam": lam, "m": m})
    for w in range(wmax + 1):
        for lam in enumerate_partitions(w, m):
            if expand_in_basis(qtilde(lam, m)) != {lam: 1}:
                failures.append({"check": "b", "lam": lam, "m": m})
    if m <= 8:
        for i in range(1, min(m, wmax // 2) + 1):
            got = epoly_to_xpoly(basis((i, i), m))
            if got != _elementary_of_squares(i, m):
                failures.append({"check": "c", "i": i, "m": m})
    for w in range(max(0, wmax - m) + 1):
        for lam in enumerate_partitions(w, m):
            lhs = qtilde((m,) + lam, m)
            rhs = EPoly.gen(m, m) * qtilde(lam, m)
            if lhs != rhs:
                failures.append({"check": "d", "lam": lam, "m": m})
    for i in range(1, m + 1):
        for w in range(max(0, wmax - 2 * i) + 1):
            for lam in enumerate_partitions(w, m):
                merged = tuple(sorted(lam + (i, i), reverse=True))
                lhs = qtilde(merged, m)
                rhs = basis((i, i), m) * qtilde(lam, m)
                if lhs != rhs:
                    failures.append({"check": "e", "lam": lam, "i": i, "m": m})
    return failures


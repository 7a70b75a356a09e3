"""Quantum cohomology of LG(n, 2n) over Z[q], deg q = n + 1.

A quantum class is a finite map (strict partition with parts <= n, q-degree)
-> integer.  Three independent multiplication engines are provided:

* qprod_constants (route C): expand the untruncated product of the two
  basis elements (the stable structure constants).
* qprod_quotient (route A): truncate both basis elements to n + 1 variables,
  multiply, and expand in the basis there.
* qprod_pieri (route B): expand one factor symbolically into special classes
  and q via the two-condition and Pfaffian Giambelli expressions, then fold
  the quantum Pieri rule over the other factor.

Routes C and A share one read-out, ``_read_quantum``: the index
((n+1)^d, nu) with nu in D_n gives q^d sigma_nu / 2^d, and every other index
is dropped.  They still cross-check each other and route B in
``engines-agree``: C forms the product untruncated, A forms it after
truncation, and B shares neither step.  Route B is the default of
``lgschubert product``; A and C cross-validate it, and C serves ``gw`` and
``table``.
"""

from __future__ import annotations

from functools import lru_cache

from .classical import triple_number
from .partitions import (
    Partition,
    dual,
    enumerate_partitions,
    grow_strips,
    in_d,
    is_strict,
    pfaffian_terms,
    prepend,
    rho,
    shrink_strips,
    star,
)
from .polyring import add_into, mul_into
from .qtilde import VerificationError, basis, expand_in_basis, f_constant, stable_expansion

QuantumClass = dict  # map (Partition, d) -> int


def _require_dn(lam: Partition, n: int) -> Partition:
    lam = tuple(lam)
    if not in_d(lam, n):
        raise ValueError(f"{lam} does not index a Schubert class for n={n}")
    return lam


def _read_quantum(expansion: dict[Partition, int], n: int) -> QuantumClass:
    """Quantum product read off a basis expansion: each index ((n+1)^d, nu)
    with nu in D_n contributes its coefficient divided by 2^d in q-degree d,
    and every other index is dropped.  The coefficient must be a nonnegative
    multiple of 2^d; anything else falsifies the theory and raises."""
    out: QuantumClass = {}
    for key, c in expansion.items():
        if key and key[0] > n + 1:
            continue
        d = 0
        while d < len(key) and key[d] == n + 1:
            d += 1
        rest = key[d:]
        if not in_d(rest, n):
            continue
        if c < 0 or c % (1 << d):
            raise VerificationError(
                f"coefficient {c} at {key} is not a nonnegative multiple of 2^{d}"
            )
        out[(rest, d)] = c >> d
    return out


def qprod_constants(lam: Partition, mu: Partition, n: int) -> QuantumClass:
    """Quantum product read off the stable structure constants (route C)."""
    return _read_quantum(stable_expansion(_require_dn(lam, n), _require_dn(mu, n)), n)


def qprod_quotient(lam: Partition, mu: Partition, n: int) -> QuantumClass:
    """Quantum product read off the expansion of the product in n + 1
    variables (route A)."""
    lam, mu = _require_dn(lam, n), _require_dn(mu, n)
    return _read_quantum(expand_in_basis(basis(lam, n + 1) * basis(mu, n + 1)), n)


@lru_cache(maxsize=None)
def pieri_row(lam: Partition, k: int, n: int) -> tuple:
    """Terms ((nu, q-step), e) of sigma_k * sigma_lam, each worth 2**e.

    Classical part (step 0): strict horizontal-strip extensions inside the
    Schubert range, e counting the strip components off the first column.
    Quantum part (step 1): strict sub-partitions a horizontal strip of size
    n + 1 - k below, e being components - 1.  The row is shared by every
    caller and must not be mutated."""
    return tuple(((s.shape, 0), s.off_first_column)
                 for s in grow_strips(lam, k, cap=n) if is_strict(s.shape)) + tuple(
        ((nu, 1), comps - 1) for nu, comps in shrink_strips(lam, n + 1 - k))


def quantum_pieri(x: QuantumClass, k: int, n: int) -> QuantumClass:
    """Multiply a quantum class by the special class of degree k, 0 <= k <= n,
    one memoised ``pieri_row`` per term."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    out: QuantumClass = {}
    for (lam, d), c in x.items():
        add_into(out, (((nu, d + s), c << e) for (nu, s), e in pieri_row(lam, k, n)))
    return out


def _special_mono_mul(x: tuple, y: tuple) -> tuple:
    return tuple(sorted(x[0] + y[0], reverse=True)), x[1] + y[1]


@lru_cache(maxsize=None)
def giambelli_special(mu: Partition, n: int) -> dict:
    """Polynomial in the special classes and q whose quantum evaluation is
    the Schubert class of mu, keyed by (special indices, q-power).  Rows are
    special classes; a two-row class sigma_{i,j} is the basis element of
    (i, j) in n variables plus the q-term (-1)^(n+1-i) q sigma_{i+j-n-1}
    when i + j > n (the quantum two-condition Giambelli formula); longer
    classes come from the Pfaffian expansion over the expressions of their
    pairs, with all products expanded symbolically.  The result is shared by
    every caller and must not be mutated."""
    mu = _require_dn(tuple(mu), n)
    if len(mu) <= 1:
        return {(mu, 0): 1}
    if len(mu) == 2:
        i, j = mu
        terms = {(mono, 0): c for mono, c in basis(mu, n).terms.items()}
        s = i + j - n - 1
        if s >= 0:
            terms[((s,) if s else (), 1)] = (-1) ** (n + 1 - i)
        return terms
    acc: dict = {}
    for sign, pair, rest in pfaffian_terms(mu):
        mul_into(acc, giambelli_special(pair, n), giambelli_special(rest, n), sign,
                 _special_mono_mul)
    return acc


def qprod_pieri(lam: Partition, mu: Partition, n: int) -> QuantumClass:
    """Quantum product via Giambelli and the quantum Pieri rule (route B)."""
    lam, mu = _require_dn(lam, n), _require_dn(mu, n)
    if len(mu) > len(lam):  # the product commutes: expand the shorter factor
        lam, mu = mu, lam
    out: QuantumClass = {}
    for (indices, qp), c in giambelli_special(mu, n).items():
        cls: QuantumClass = {(lam, 0): 1}
        for k in indices:  # stored descending; fold order is fixed
            cls = quantum_pieri(cls, k, n)
        add_into(out, (((nu, d + qp), v) for (nu, d), v in cls.items()), c)
    return out


def gw(lam: Partition, mu: Partition, nu: Partition, d: int, n: int) -> int:
    """Three-point genus-zero invariant of degree d: zero unless the weights
    sum to n(n+1)/2 + d(n+1), else the coefficient of (dual(nu), d) in the
    quantum product of the first two classes."""
    lam, mu, nu = (_require_dn(p, n) for p in (lam, mu, nu))
    if d < 0 or sum(lam) + sum(mu) + sum(nu) != n * (n + 1) // 2 + d * (n + 1):
        return 0
    return qprod_constants(lam, mu, n).get((dual(nu, n), d), 0)


def relation_check(i: int, n: int) -> bool:
    """Check the presentation relation for the i-th special class:
    sigma_i^2 + 2 sum_k (-1)^k sigma_{i+k} sigma_{i-k} = +-sigma_{2i-n-1} q."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= {n}")
    acc: QuantumClass = qprod_constants((i,), (i,), n)
    for k in range(1, n - i + 1):
        if i - k < 0:
            break
        hi = qprod_constants((i + k,), (i - k,), n) if i - k else {((i + k,), 0): 1}
        add_into(acc, hi.items(), 2 * (-1) ** k)
    s = 2 * i - n - 1
    expected: QuantumClass = {}
    if s >= 0:
        expected[((s,) if s else (), 1)] = (-1) ** (n - i)
    return acc == expected


def vanishing_bounds(lam: Partition, mu: Partition, nu: Partition, d: int, n: int) -> bool:
    """Necessary window for a degree-d invariant to be nonzero."""
    ell = len(lam)
    return 0 <= d <= ell and ell + len(mu) - n <= d <= ell + len(mu) + len(nu) - n


def eightfold_check(lam: Partition, mu: Partition, nu: Partition, d: int, n: int) -> bool:
    """Check the two-to-the-power scaling between the degree-d invariant of
    (lam, mu, nu) and the degree-(len(lam)-d) invariant of the starred and
    dualized triple; for d beyond len(lam) the invariant must vanish."""
    lam, mu, nu = (_require_dn(p, n) for p in (lam, mu, nu))
    if d > len(lam):
        return gw(lam, mu, nu, d, n) == 0
    e = len(lam) - d
    lhs = (1 << (n + d)) * gw(lam, mu, nu, d, n)
    rhs = (1 << (len(mu) + len(nu) + e)) * gw(star(lam, n) if lam else (), dual(mu, n), dual(nu, n), e, n)
    return lhs == rhs


def rho_product(lam: Partition, n: int) -> QuantumClass:
    """Product with the point-adjacent class of the full staircase:
    a single term, the starred dual of lam in q-degree len(lam).  The closed
    form is asserted against the structure-constant engine."""
    lam = _require_dn(lam, n)
    expected: QuantumClass = {(star(dual(lam, n), n), len(lam)): 1}
    actual = qprod_constants(lam, rho(n), n)
    if actual != expected:
        raise VerificationError(f"staircase product failed for {lam}, n={n}: {actual}")
    return expected


def line_count_check(lam: Partition, mu: Partition, nu: Partition, n: int) -> bool:
    """Twice a degree-one invariant equals the triple intersection number of
    the same indices one rank up."""
    return 2 * gw(lam, mu, nu, 1, n) == triple_number(lam, mu, nu, n + 1)


def sigma_ij_product_check(i: int, j: int, n: int) -> bool:
    """Check the closed product of two special classes when i + j >= n + 1:
    sigma_{i,j} (absent when i = j) plus 2 sum_k sigma_{i+k, j-k} plus
    sigma_{i+j-n-1} q."""
    if not (1 <= j <= i <= n and i + j >= n + 1):
        raise ValueError("need 1 <= j <= i <= n with i + j >= n + 1")
    expected: QuantumClass = {}
    if i > j:
        expected[((i, j), 0)] = 1
    for k in range(1, n - i + 1):
        idx = (i + k, j - k) if j - k else (i + k,)
        expected[(idx, 0)] = expected.get((idx, 0), 0) + 2
    s = i + j - n - 1
    expected[((s,) if s else (), 1)] = 1
    return qprod_constants((i,), (j,), n) == expected


def _dn_of_weight(w: int, n: int) -> list[Partition]:
    if w < 0:
        return []
    return enumerate_partitions(w, n, strict=True)


def qlr_check(lam: Partition, mu: Partition, n: int) -> bool:
    """Check the closed quantum Littlewood-Richardson expressions for a
    second factor with two or three rows: classical constants in degree 0,
    halved prepended constants in degree 1, and rescaled constants of the
    starred factor in the top degrees."""
    lam, mu = _require_dn(lam, n), _require_dn(mu, n)
    if len(mu) not in (2, 3):
        raise ValueError("second factor must have two or three rows")
    w0 = sum(lam) + sum(mu)
    sc = stable_expansion(lam, mu)
    expected: QuantumClass = {}
    for nu in _dn_of_weight(w0, n):
        c = sc.get(nu, 0)
        if c:
            expected[(nu, 0)] = c
    for nu in _dn_of_weight(w0 - (n + 1), n):
        c = sc.get(prepend(n + 1, 1, nu), 0)
        if c:
            if c % 2:
                raise VerificationError(f"odd degree-1 coefficient {c}")
            expected[(nu, 1)] = c // 2
    mu_star = star(mu, n)
    if len(mu) == 2:
        for nu in _dn_of_weight(w0 - 2 * (n + 1), n):
            c = f_constant(nu, mu_star, lam)
            if c:
                expected[(nu, 2)] = c
    else:
        for nu in _dn_of_weight(w0 - 2 * (n + 1), n):
            c = f_constant(nu, mu_star, prepend(n + 1, 1, lam))
            if c:
                expected[(nu, 2)] = c
        for nu in _dn_of_weight(w0 - 3 * (n + 1), n):
            c = f_constant(nu, mu_star, lam)
            if c:
                expected[(nu, 3)] = c
    return expected == qprod_constants(lam, mu, n)


def fform_check(lam: Partition, mu: Partition, n: int) -> bool:
    """Check the rescaled-constant expressions for quantum structure
    constants: every degree-d coefficient equals the f-constant of
    (nu, mu-star; ((n+1)^e, lam)) with d + e = len(mu), and for a two-row mu
    the degree-one constants match the starred classical identity."""
    lam, mu = _require_dn(lam, n), _require_dn(mu, n)
    if not mu:
        raise ValueError("second factor must be nonempty")
    actual = qprod_constants(lam, mu, n)
    ell_mu = len(mu)
    if any(d > ell_mu for (_, d) in actual):
        return False
    mu_star = star(mu, n)
    for d in range(ell_mu + 1):
        e = ell_mu - d
        w = sum(lam) + sum(mu) - d * (n + 1)
        for nu in _dn_of_weight(w, n):
            if actual.get((nu, d), 0) != f_constant(nu, mu_star, prepend(n + 1, e, lam)):
                return False
    if ell_mu == 2:
        base = stable_expansion(lam, mu)
        w1 = sum(lam) + sum(mu) - (n + 1)
        for nu in _dn_of_weight(w1, n):
            lhs = base.get(prepend(n + 1, 1, nu), 0)
            rhs = stable_expansion(nu, mu_star).get(prepend(n + 1, 1, lam), 0)
            t = len(lam) - len(nu)
            if lhs * (1 << max(0, -t)) != rhs * (1 << max(0, t)):
                return False
    return True


def quantum_to_json(x: QuantumClass) -> dict[str, int]:
    """Serialize as {'3,1|2': c}; the empty partition serializes as ''."""
    items = sorted(x.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return {f"{','.join(map(str, lam))}|{d}": c for (lam, d), c in items}


def quantum_from_json(data: dict[str, int]) -> QuantumClass:
    out: QuantumClass = {}
    for key, c in data.items():
        lam_s, d_s = key.rsplit("|", 1)
        lam = tuple(int(t) for t in lam_s.split(",")) if lam_s else ()
        out[(lam, int(d_s))] = c
    return out

"""The Schur-Q-style basis of the ring of symmetric functions in elementary
generators: the memoized basis(lam, m) (the pair formula, truncated to m
variables inside the formula itself, then at every m, truncated or not,
the one recursion ``expand_rows``, equal-pair split or the Pfaffian sum
``pfaffian_sum``, which the peeled forms of ``symplectic`` follow too),
expansion in the basis, stable structure constants (memoized once
per unordered pair and bound, the ring being commutative; with e_k as one
factor they are the Pieri rule that ``quantum.pieri_row_check`` holds
route B's rows to), and the checks of the defining properties of the
family.
Their one x-variable check reads the basis element through
``polyring.peel``; the peeling identities of the x-expansion are checked
in ``symplectic``.

A basis element qtilde(lam) is attached to every partition lam; for strict
lam these map onto Schubert classes of the Lagrangian Grassmannian.  The
expansion of qtilde(lam) in e-monomials is unitriangular with respect to
dominance (leading monomial e_lam, coefficient 1), which drives the exact
back-substitution in ``expand_in_basis``: one peel, over the partitions
with parts at most the variable count, with pivots from the family it is
given.  Truncation e_i -> 0 (i > m) is a ring homomorphism that sends
every element whose first part is above m to zero and every other one to
its truncation, so the coordinates of a truncated product are those of
the untruncated product at the partitions with first part at most m.
Route C reads its quantum products off such truncated expansions, at
m = n + 1, with its own elements ``_bounded(lam, m)``: the finished
untruncated element less its monomials with a generator above m, the one
place the read-out's bound is applied, for a strict lam and each pair
(i, i); three or more parts with an equal pair are the product of the
bounded elements of the pair and the rest, the split of ``expand_rows``
taken after truncation, so route C builds no untruncated element with an
equal pair past two parts.  Route A truncates inside the recursion that
builds each element, ``basis(lam, n + 1)``, which route C never reads.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Mapping

from .partitions import (
    Partition,
    enumerate_partitions,
    pfaffian_terms,
    require_partition,
    straighten,
)
from .polyring import (
    E_WEIGHT_MASK,
    XPANSION_VAR_LIMIT,
    EPoly,
    add_into,
    e_key_bound,
    elementary_xpoly,
    mul_into,
    pack_e,
    peel,
    unpack_e,
)


class VerificationError(Exception):
    """An identity the engine relies on failed on a concrete witness."""


@cache
def basis(lam: Partition, m: int | None) -> EPoly:
    """Basis element of a partition in m variables, untruncated for m = None.

    Memoized per (lam, m); the result is shared by every caller, its terms
    read-only.  A memo miss checks that lam is a partition.  Untruncated,
    at most two parts (i, j) give
    e_i e_j + 2 * sum_{k=1}^{j} (-1)^k e_{i+k} e_{j-k}, whose monomials are
    pairwise distinct, packed by ``polyring.pack_e``; truncated, the same
    formula stops at k = min(j, m - i), the last monomial with no generator
    above m (none for i > m), as ``quantum._two_row`` stops at n.
    Truncation e_i -> 0 for i > m is a ring homomorphism, so a longer
    partition follows ``expand_rows`` at its own level m, None included,
    and a truncated element asks for no untruncated one.
    """
    lam = require_partition(lam)
    if len(lam) > 2:
        return EPoly(m, expand_rows(basis, lam, m))
    i, j = lam + (0,) * (2 - len(lam))
    top = j if m is None else min(j, m - i)
    return EPoly(m, pack_e({tuple(p for p in (i + k, j - k) if p): 2 * (-1) ** k if k else 1
                            for k in range(top + 1)}))


def pfaffian_sum(c, lam: Partition, *args) -> dict:
    """The alternating sum of c(pair, *args) * c(rest, *args) over
    ``pfaffian_terms(lam)``, as a term map, each product accumulated
    straight into the sum by ``mul_into`` (the shorter factor the outer
    loop).  c returns a polynomial of either model."""
    acc: dict = {}
    for sign, pair, rest in pfaffian_terms(lam):
        a, b = c(pair, *args).terms, c(rest, *args).terms
        if len(a) > len(b):
            a, b = b, a
        mul_into(acc, a, b, sign)
    return acc


def expand_rows(c, lam: Partition, *args) -> Mapping:
    """The term map of the element of lam, three or more parts, from the
    elements c(nu, *args) of shorter partitions: a partition with an equal
    pair (i, i) is the product of the element of the pair and that of the
    rest (the equal-pair property, check (e) of
    ``property_check``), any other the Pfaffian expansion along
    the last column, ``pfaffian_sum``.  The one recursion of ``basis`` on
    e-forms and of ``symplectic`` on peeled forms."""
    split = _equal_pair(lam)
    if split:
        pair, rest = split
        return (c(pair, *args) * c(rest, *args)).terms
    return pfaffian_sum(c, lam, *args)


def _equal_pair(lam: Partition) -> tuple[Partition, Partition] | None:
    """The first adjacent equal pair (i, i) of lam and the rest of lam,
    None for a strict lam: the split of ``expand_rows`` and of route C's
    ``_bounded``."""
    for j in range(len(lam) - 1):
        if lam[j] == lam[j + 1]:
            return lam[j:j + 2], lam[:j] + lam[j + 2:]
    return None


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


def expand_in_basis(f: EPoly, element=None) -> dict[Partition, int]:
    """Integer coordinates of f in the basis {element(lam, f.m)}, keyed by
    partitions: ``basis`` by default, route C's ``_bounded`` for its
    truncated products.

    Works weight by weight, grouping the packed terms of f by their weight
    field: partitions of each weight with parts at most f.m are peeled in
    ascending lexicographic order, so each subtraction only disturbs
    lex-higher monomials, and each partition's pivot monomial e_lam is
    looked up by its packed key from the memo ``_partition_keys``.  The
    pivots are ``element(lam, f.m)``, the family resolved when the peel
    runs.  Unit pivots are asserted, and a zero residual; a failure of
    either would mean the unitriangularity the basis guarantees is broken.
    """
    element = element or basis
    coeffs: dict[Partition, int] = {}
    by_weight: dict[int, dict[int, int]] = {}
    for key, c in f.terms.items():
        by_weight.setdefault(key & E_WEIGHT_MASK, {})[key] = c
    for w in sorted(by_weight):
        residual = by_weight[w]
        if w == 0:
            coeffs[()] = residual[0]
            continue
        for lam, key in _partition_keys(w, w if f.m is None else min(w, f.m)):
            c = residual.get(key)
            if not c:
                continue
            q = element(lam, f.m)
            if q.terms.get(key, 0) != 1:
                raise VerificationError(f"non-unit pivot for {lam}")
            # the unit pivot cancels residual[key] along with the rest
            add_into(residual, q.terms.items(), -c)
            coeffs[lam] = c
        if residual:
            raise VerificationError(f"nonzero residual at weight {w}: {unpack_e(residual)}")
    return coeffs


@cache
def _bounded(lam: Partition, m: int | None) -> EPoly:
    """Route C's element in m variables: the untruncated element
    ``basis(lam, None)`` less its monomials with a generator above m (at or
    above ``e_key_bound(m)``), itself for m = None.  Truncation is a ring
    homomorphism, so this is the truncated element, but filtered from the
    finished one, never read from ``basis(lam, m)``, route A's, so route C
    stays independent of route A.  With m finite, three or more parts with
    an equal pair (i, i) split as ``expand_rows`` splits them, after the
    truncation: _bounded((i, i), m) * _bounded(rest, m), the same terms
    (packed fields add without carry), so no untruncated non-strict element
    of three or more parts is built; a strict lam and each pair (i, i) are
    filtered from the untruncated element, never built at level m, which is
    route A's recursion.  Memoized per (lam, m), its terms read-only."""
    split = _equal_pair(lam) if m is not None and len(lam) > 2 else None
    if split:
        return _bounded(split[0], m) * _bounded(split[1], m)
    q = basis(lam, None)
    if m is None:
        return q
    bound = e_key_bound(m)
    return EPoly(m, {key: c for key, c in q.terms.items() if key < bound})


@cache
def _partition_keys(w: int, cap: int) -> tuple[tuple[Partition, int], ...]:
    """The partitions of w with parts at most cap, in ascending
    lexicographic order, each with the packed key of its e-monomial."""
    lams = enumerate_partitions(w, cap)[::-1]
    return tuple(zip(lams, pack_e(dict.fromkeys(lams, 1))))


def stable_expansion(lam: Partition, mu: Partition,
                     top: int | None = None) -> Mapping[Partition, int]:
    """Memoized basis expansion of the untruncated product of two basis
    elements; with ``top`` given, only its coefficients at partitions with
    first part at most top: the product truncated to top variables, that
    of the two bounded elements ``_bounded(lam, top)``, peeled with the
    bounded elements as pivots (``expand_in_basis``).  EPoly
    multiplication is commutative, so the pair is put in order before the
    memo lookup and (lam, mu) and (mu, lam) share one expansion per top.
    Each factor must be a partition (``require_partition``).  The result
    is shared by every caller, read-only."""
    lam, mu = require_partition(lam), require_partition(mu)
    if mu < lam:
        lam, mu = mu, lam
    return _ordered_expansion(lam, mu, top)


@cache
def _ordered_expansion(lam: Partition, mu: Partition, top: int | None) -> Mapping[Partition, int]:
    return MappingProxyType(expand_in_basis(_bounded(lam, top) * _bounded(mu, top), _bounded))


def f_constant(lam: Partition, mu: Partition, nu: Partition, top: int | None = None) -> int:
    """The structure constant e(lam, mu; nu) rescaled by
    2**(len(lam) + len(mu) - len(nu)); exact divisibility is asserted.
    With ``top`` given, e is read off ``stable_expansion(lam, mu, top)``,
    the product truncated to top variables, so nu must have its first part
    at most top (ValueError otherwise)."""
    lam, mu, nu = (require_partition(p) for p in (lam, mu, nu))
    if top is not None and nu[:1] > (top,):
        raise ValueError(f"{nu} has a part above the bound {top}")
    e = stable_expansion(lam, mu, top).get(nu, 0)
    if e == 0:
        return 0
    t = len(lam) + len(mu) - len(nu)
    if t <= 0:
        return e << -t
    if e % (1 << t):
        raise VerificationError(f"2^{t} does not divide e({lam},{mu};{nu}) = {e}")
    return e >> t


def property_cases(m: int, wmax: int):
    """The cases of the defining-property checks in m variables over
    partitions of weight <= wmax, dicts {"check", "lam" | "i", "m"} (check
    (e) naming both) for ``property_check``, none when wmax < 0:

    (a) lam with top part above m, of weight 1..wmax; (b) lam with parts
    at most m, of weight 0..wmax; (c) the equal pair (i, i), 2i <= wmax,
    for m within the guard XPANSION_VAR_LIMIT only; (d) lam with parts at
    most m and |lam| + m <= wmax, (e) the same with 2i in place of m, each
    lam = () at least.
    """
    for w in range(1, wmax + 1):
        for lam in enumerate_partitions(w, w):
            if lam[0] > m:
                yield {"check": "a", "lam": lam, "m": m}
    for w in range(wmax + 1):
        for lam in enumerate_partitions(w, m):
            yield {"check": "b", "lam": lam, "m": m}
    if m <= XPANSION_VAR_LIMIT:
        for i in range(1, min(m, wmax // 2) + 1):
            yield {"check": "c", "i": i, "m": m}
    # the weights 0..max(0, wmax - m), none when wmax < 0; likewise 2i for m below
    for w in range(wmax + 1)[:max(1, wmax - m + 1)]:
        for lam in enumerate_partitions(w, m):
            yield {"check": "d", "lam": lam, "m": m}
    for i in range(1, m + 1):
        for w in range(wmax + 1)[:max(1, wmax - 2 * i + 1)]:
            for lam in enumerate_partitions(w, m):
                yield {"check": "e", "lam": lam, "i": i, "m": m}


def property_check(check: str, m: int, lam: Partition = (), i: int = 0) -> bool:
    """One defining property of the basis in m variables (the cases of
    ``property_cases``):

    (a) qtilde(lam) vanishes; (b) its basis expansion round-trips;
    (c) the equal-pair element basis((i, i), m) peeled at s = m, which
    leaves no e' and so is its expansion on x_1..x_m, is e_i(x_1, ..., x_m)
    with every exponent doubled; (d) multiplying qtilde(lam) by the
    top-degree generator prepends a part m; (e) the equal pair (i, i)
    splits off qtilde(lam + (i, i)) multiplicatively, the merged element
    taken by one Pfaffian step rather than from basis, which splits it.
    A broken unitriangularity raises VerificationError.
    """
    if check == "a":
        return not qtilde(lam, m)
    if check == "b":
        return expand_in_basis(qtilde(lam, m)) == {lam: 1}
    if check == "c":
        squares = {2 * key: c for key, c in elementary_xpoly(i, m).terms.items()}
        return peel(basis((i, i), m), m).terms == squares
    if check == "d":
        return qtilde((m,) + lam, m) == EPoly.gen(m, m) * qtilde(lam, m)
    merged = tuple(sorted(lam + (i, i), reverse=True))
    return pfaffian_sum(basis, merged, m) == (basis((i, i), m) * qtilde(lam, m)).terms

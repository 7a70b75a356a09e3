"""Quantum cohomology of LG(n, 2n) over Z[q], deg q = n + 1.

A quantum class is a finite map (strict partition with parts <= n, q-degree)
-> integer.  Three independent multiplication engines are provided:

* qprod_constants (route C): expand the untruncated product of the two
  basis elements (the stable structure constants).
* qprod_quotient (route A): truncate both basis elements to n + 1 variables,
  multiply, and expand in the basis there.
* qprod_pieri (route B): expand one factor along its quantum Giambelli
  Pfaffian, each two-row class acting on the other factor by folding the
  quantum Pieri rule over its special classes.  The same recursion,
  ``qmul(x, mu, n)``, multiplies any quantum class x by sigma_mu, and
  ``quantum_pieri`` is ``qmul`` by the special class (k).  With mu the
  factor of fewer rows, ``qprod_pieri`` is ``qmul`` on the class sigma_lam
  when len(lam) + len(mu) <= n; otherwise the paper's symmetry of the
  invariants (``eightfold_check``) reads the product off
  sigma_(mu*) sigma_(dual lam), whose factor dual(lam) has fewer rows than
  either.

Routes C and A share one read-out, ``_read_quantum``: the index
((n+1)^d, nu) with nu in D_n gives q^d sigma_nu / 2^d, and every other index
is dropped.  Route B's Pieri rows read their q-terms the same way, off the
classical Pieri rule for the basis: a strict strip that grows lam to
(n + 1, nu) gives q sigma_nu, at half the weight of its strip.  The three
still cross-check each other in ``engines-agree``: C forms the product
untruncated, A forms it after truncation, and B forms neither, only one
strip walk per Pieri row, its own.  Route B is the default of
``lgschubert product``; A and C cross-validate it, and C serves ``gw`` and
``table``.  ``pieri_row_check`` holds each of route B's Pieri rows to the
product of basis elements, read out as routes A and C read theirs.

The paper's two-row quantum Giambelli formula is written once,
``_two_row(i, j, n)``.  Route B reads it through ``giambelli_special`` for
each pair of its Pfaffian, and at i = j, where sigma_(i,i) = 0, it is the
i-th relation of the presentation: ``relation_check`` sums route C's
products over it, and ``pieri_operator_check`` folds it on one class as
``qmul`` folds a pair, through one helper, ``_fold_terms``.  A wrong term
there fails the relations, the operator identities and ``engines-agree``,
since the products of routes A and C never read it.

Routes C and A each form a product once per unordered pair and rank:
``qprod_constants`` and ``qprod_quotient`` validate both factors and read
one memoised read-out, a read-only mapping, through ``_ordered``, which
orders the pair.  Route C's serves ``gw`` (which validates its three indices
once and reads that memo through ``_gw``, as ``eightfold_check`` does), the
relation and closed-form checks, ``table`` and the classical
ring (its q-degree-0 part, read in ``classical``); route A's serves
``engines-agree``, which reads each pair in both orders.  Route B is not
memoised: for factors of equal length its two orders expand different
factors, and ``engines-agree`` checks both.

Route B runs on subset bitmasks.  A class nu in D_n is a subset of {1..n},
the mask with bit p - 1 set for each part p, and the class (nu, d) is the
int key mask | d << n: q^e adds e << n and the q-degree is key >> n.  One
memoised row per (mask, k, n) holds the Pieri terms (key, 2^e), walked on
the masks themselves: the strict strips capped at column n + 1 are this
module's own walk, which shares no enumerator with ``partitions`` and builds
no shape tuple.  One fold, ``_fold``, applies rows to int-keyed classes, so a
term costs one int addition and one multiplication, and
``pieri_operator_check`` holds the rows to the operator identities of the
presentation through ``_fold`` alone (its relation case through
``_fold_terms``, the fold of a two-row polynomial).  Only this module knows
the layout: ``qmul`` and ``pieri_row`` are its edge, where (partition, d)
classes are encoded (each partition in D_n, each d >= 0) and decoded once
at the end.
The symmetry relabels a decoded product: q^e sigma_eta becomes
q^(len(mu)-e) sigma_dual(eta), scaled by an exact power of two.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Mapping

from .partitions import (
    Partition,
    dual,
    enumerate_partitions,
    in_d,
    pfaffian_terms,
    prepend,
    require_dn,
    rho,
    star,
)
from .polyring import add_into
from .qtilde import VerificationError, basis, expand_in_basis, f_constant, stable_expansion

QuantumClass = dict  # map (Partition, d) -> int


def _read_quantum(expansion: Mapping[Partition, int], n: int) -> QuantumClass:
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


def _ordered(read, lam: Partition, mu: Partition, n: int) -> Mapping:
    """The memoised read-out ``read`` of the pair put in order, so that
    (lam, mu) and (mu, lam) share one entry."""
    return read(lam, mu, n) if lam <= mu else read(mu, lam, n)


def qprod_constants(lam: Partition, mu: Partition, n: int) -> Mapping:
    """Quantum product read off the stable structure constants (route C).

    Memoised per ordered pair and rank, like the stable expansion it reads:
    (lam, mu) and (mu, lam) share one validated result, read-only.  A
    read-out that raises is not memoised and raises again."""
    return _ordered(_constants_read, require_dn(lam, n), require_dn(mu, n), n)


@cache
def _constants_read(lam: Partition, mu: Partition, n: int) -> Mapping:
    return MappingProxyType(_read_quantum(stable_expansion(lam, mu), n))


def qprod_quotient(lam: Partition, mu: Partition, n: int) -> Mapping:
    """Quantum product read off the expansion of the product in n + 1
    variables (route A).

    Memoised like route C, per ordered pair and rank: (lam, mu) and
    (mu, lam) form one product of truncated basis elements and share one
    validated result, read-only.  A read-out that raises is not memoised
    and raises again."""
    return _ordered(_quotient_read, require_dn(lam, n), require_dn(mu, n), n)


@cache
def _quotient_read(lam: Partition, mu: Partition, n: int) -> Mapping:
    return MappingProxyType(
        _read_quantum(expand_in_basis(basis(lam, n + 1) * basis(mu, n + 1)), n))


def _mask_of(lam: Partition) -> int:
    """The subset of {1..n} that lam in D_n is, as a bitmask: bit p - 1 is
    set for each part p."""
    mask = 0
    for p in lam:
        mask |= 1 << (p - 1)
    return mask


def _parts_of(mask: int) -> Partition:
    """The strict partition whose parts are the set bits of mask, each bit
    p - 1 giving the part p, largest first."""
    parts = []
    while mask:
        p = mask.bit_length()
        parts.append(p)
        mask ^= 1 << (p - 1)
    return tuple(parts)


def _class_of(key: int, n: int) -> tuple[Partition, int]:
    """The class (nu, d) of the int key mask(nu) | d << n."""
    return _parts_of(key & ((1 << n) - 1)), key >> n


def _encode(x: QuantumClass, n: int) -> dict[int, int]:
    """x with each class (lam, d) keyed by the int mask(lam) | d << n.
    ValueError unless each lam lies in D_n and each d >= 0: a part above n,
    or a negative d, would alias into another key."""
    out = {}
    for (lam, d), c in x.items():
        if d < 0:
            raise ValueError(f"negative q-degree {d} at {lam}")
        out[_mask_of(require_dn(lam, n)) | d << n] = c
    return out


@cache
def _row(mask: int, k: int, n: int) -> tuple[tuple[int, int], ...]:
    """Terms (mask(nu) | step << n, 2**e) of sigma_k * sigma_lam for the
    class lam of mask, in the order and with the exponents of ``pieri_row``,
    so that a term shifted by q^d is one int addition.  sigma_0 is the unit:
    its row is the class itself, with no strip enumerated.

    One strict walk on masks gives the whole row: the strict shapes
    mu >= lam of |lam| + k boxes with mu/lam a horizontal strip and
    mu_1 <= n + 1, in descending lexicographic order, each built as its
    mask and handed its Pieri weight 2**N, N counting the strip components
    (boxes sharing an edge or a vertex touch) that miss column 1.  The walk
    descends the parts of lam: entry i of mu lies between lam_i and
    min(lam_{i-1}, mu_{i-1} - 1), by interlacing and strictness, and the
    row beyond lam (lam_i = 0) takes what remains.  An entry that grows
    leaves the later ones at most lam_i + lam_{i+1} + ...; one that stays
    at lam_i leaves them the strict chain lam_i - 1, min(lam_{i+1}, .) - 1,
    ..., so every branch ends in a shape.  The weight is counted on the way
    down: a row that gains boxes doubles it unless it touches the row above
    (which gained boxes too, and mu_i = lam_{i-1}), and the row beyond lam
    halves it when it joins the component above, which then meets column 1.

    A shape (n + 1, nu) is the index ((n+1)^1, nu) of the read-out,
    q sigma_nu / 2: its mask is already the key of (nu, 1), as the part
    n + 1 sets bit n, which is q, and its first row opens no component,
    which halves its weight (no strip of k <= n boxes joins that row to
    column 1, so nothing halves it again).  Those shapes lead the walk's
    order and go last here."""
    if not k:
        return ((mask, 1),)
    lam = _parts_of(mask) + (0,)
    last = len(lam) - 1
    below = [0] * (last + 1)  # lam_i + lam_{i+1} + ...
    stay = [0] * (last + 1)  # the most entries i.. hold when entry i stays at lam_i
    for i in range(last - 1, -1, -1):
        low = lam[i]
        below[i] = low + below[i + 1]
        # entry i + 1 is then at most lam_i - 1: it stays when that is lam_{i+1}, else grows
        stay[i] = low + (stay[i + 1] if low - 1 == lam[i + 1] else low - 1 + below[i + 1])
    terms: list[tuple[int, int]] = []

    def walk(i: int, bits: int, remaining: int, top: int, weight: int, touch: int) -> None:
        # touch is lam_{i-1} when row i - 1 gained boxes, else -1
        if i == last:
            terms.append((bits | 1 << remaining - 1 if remaining else bits,
                          weight >> (remaining == touch)))
            return
        low = lam[i]
        hi = remaining - below[i + 1]
        lo = remaining - below[i]
        if lo <= low:
            lo = low + (remaining > stay[i])
        for v in range(top if top < hi else hi, lo - 1, -1):
            if v > low:
                walk(i + 1, bits | 1 << v - 1, remaining - v, low, weight << (v != touch), low)
            else:
                walk(i + 1, bits | 1 << v - 1, remaining - v, low - 1, weight, -1)

    # touch = n + 1 at the top: a first row that reaches column n + 1 doubles nothing
    walk(0, 0, below[0] + k, n + 1, 1, n + 1)
    lead = sum(key >> n for key, _ in terms)
    return tuple(terms[lead:] + terms[:lead])


def _fold(out: dict[int, int], x: dict[int, int], k: int, n: int,
          scale: int = 1, qp: int = 0) -> dict[int, int]:
    """Add scale * q^qp * sigma_k * x into the int-keyed ``out`` in place,
    one ``_row`` per class of the int-keyed x, dropping classes that cancel
    to zero; return out."""
    low, shift = (1 << n) - 1, qp << n
    get = out.get
    for key, c in x.items():
        base = (key & ~low) + shift
        c *= scale
        for nu, m in _row(key & low, k, n):
            nu += base
            v = get(nu, 0) + c * m
            if v:
                out[nu] = v
            else:
                out.pop(nu, None)
    return out


def pieri_row(lam: Partition, k: int, n: int) -> tuple:
    """Terms ((nu, q-step), e) of sigma_k * sigma_lam, each worth 2**e:
    the strict horizontal strips of k boxes grown on lam with first part at
    most n + 1, e counting the strip components off the first column.

    Classical part (step 0, first): the shapes nu inside the Schubert range.
    Quantum part (step 1, after it): each shape (n + 1, nu), read as
    q sigma_nu with e one less, as the read-out of routes A and C reads the
    index (n + 1, nu); equivalently, lam is nu plus a horizontal strip of
    n + 1 - k boxes with e + 1 components.  Both parts come strict out of
    one strip walk, which builds no other shape, each in descending order
    of nu.  The decoded view of the memoised row that route B folds."""
    require_dn((k,) if k else (), n)  # sigma_k is the class (k) of D_n
    (mask,) = _encode({(lam, 0): 1}, n)
    return tuple((_class_of(key, n), m.bit_length() - 1) for key, m in _row(mask, k, n))


def quantum_pieri(x: QuantumClass, k: int, n: int) -> QuantumClass:
    """Multiply a quantum class by the special class of degree k, 0 <= k <= n:
    ``qmul`` by the class (k) of D_n, sigma_0 being the unit ()."""
    return qmul(x, (k,) if k else (), n)


def _two_row(i: int, j: int, n: int) -> dict:
    """The quantum two-condition Giambelli formula for sigma_(i,j),
    n >= i >= j >= 0, as a polynomial in the special classes and q keyed by
    (special indices, q-power), the indices descending with sigma_0 = 1
    dropped: sigma_i sigma_j + 2 sum_{k=1}^{j} (-1)^k sigma_{i+k} sigma_{j-k}
    with sigma_k = 0 for k > n, plus (-1)^(n+1-i) q sigma_{i+j-n-1} when
    i + j > n.  At i = j the class sigma_(i,i) is zero, and the polynomial
    is the i-th relation of the presentation."""
    terms = {(tuple(p for p in (i + k, j - k) if p), 0): 2 * (-1) ** k if k else 1
             for k in range(min(j, n - i) + 1)}
    s = i + j - n - 1
    if s >= 0:
        terms[((s,) if s else (), 1)] = (-1) ** (n + 1 - i)
    return terms


@cache
def giambelli_special(mu: Partition, n: int) -> Mapping:
    """The quantum Giambelli polynomial (``_two_row``) of mu in D_n, of at
    most two rows: its quantum evaluation is the Schubert class of mu.  The
    result is shared by every caller, read-only."""
    mu = require_dn(mu, n)
    if len(mu) > 2:
        raise ValueError(f"{mu} has more than two rows")
    return MappingProxyType(_two_row(*mu + (0,) * (2 - len(mu)), n))


def _fold_terms(out: dict[int, int], x: dict[int, int], terms: Mapping, n: int,
                scale: int = 1) -> dict[int, int]:
    """Add scale * P x into the int-keyed ``out`` in place, for P a
    polynomial in the special classes and q keyed like ``_two_row``: each
    monomial folds the Pieri rule over its indices in their stored order,
    its last step (the identity step k = 0 for the unit) straight into out;
    return out."""
    for (indices, qp), c in terms.items():
        *steps, last = indices or (0,)
        cls = x
        for k in steps:
            cls = _fold({}, cls, k, n)
        _fold(out, cls, last, n, scale * c, qp)
    return out


def qmul(x: QuantumClass, mu: Partition, n: int) -> QuantumClass:
    """x * sigma_mu on route B, for x a quantum class (each partition in
    D_n, each q-degree >= 0): sigma_mu x sums sign * sigma_pair (sigma_rest
    x) over ``pfaffian_terms(mu)`` down to x itself, each pair folding the
    Pieri rule over its ``giambelli_special`` polynomial (``_fold_terms``),
    each rest formed once per call.  x is encoded once and the classes stay
    int-keyed until the product is decoded, zero coefficients dropped."""
    mu = require_dn(mu, n)
    memo: dict[Partition, dict[int, int]] = {(): _encode(x, n)}

    def times_x(part: Partition) -> dict[int, int]:
        if part not in memo:
            memo[part] = out = {}
            for sign, pair, rest in pfaffian_terms(part):
                _fold_terms(out, times_x(rest), giambelli_special(pair, n), n, sign)
        return memo[part]

    return {_class_of(key, n): c for key, c in times_x(mu).items() if c}


def qprod_pieri(lam: Partition, mu: Partition, n: int) -> QuantumClass:
    """Quantum product via the quantum Giambelli Pfaffian and Pieri rule
    (route B), expanding as few rows as the paper's symmetry allows.

    With mu the factor of fewer rows: ``qmul`` of sigma_lam by sigma_mu
    when len(lam) + len(mu) <= n.  Otherwise dual(lam), of
    n - len(lam) < len(mu) rows, is expanded instead.  The symmetry of the
    invariants (``eightfold_check``), 2^(n+d) <a, b, c>_d =
    2^(len(b)+len(c)+e) <a*, dual b, dual c>_e with e = len(a) - d, taken
    with a = mu and b = lam, makes the coefficient of q^d sigma_nu here 2^t
    times that of q^e sigma_eta in sigma_(mu*) sigma_(dual lam), for
    eta = dual(nu), d = len(mu) - e and
    t = len(lam) + len(mu) + len(eta) - n - 2d.  A term there with
    e > len(mu), or a coefficient that 2^-t does not divide when t < 0,
    falsifies the symmetry and raises RuntimeError."""
    lam, mu = require_dn(lam, n), require_dn(mu, n)
    if len(mu) > len(lam):  # the product commutes: expand the shorter factor
        lam, mu = mu, lam
    if len(lam) + len(mu) <= n:
        return qmul({(lam, 0): 1}, mu, n)
    out: QuantumClass = {}
    for (eta, e), c in qmul({(star(mu, n), 0): 1}, dual(lam, n), n).items():
        d = len(mu) - e
        t = len(lam) + len(mu) + len(eta) - n - 2 * d
        if d < 0 or c % (1 << max(-t, 0)):
            raise RuntimeError(f"symmetry fails for {lam} x {mu}, n={n}: the term "
                               f"{c} q^{e} sigma_{eta} gives q-degree {d}, scale 2^{t}")
        out[(dual(eta, n), d)] = c << t if t >= 0 else c >> -t
    return out


def gw(lam: Partition, mu: Partition, nu: Partition, d: int, n: int) -> int:
    """Three-point genus-zero invariant of degree d: zero unless the weights
    sum to n(n+1)/2 + d(n+1), else the coefficient of (dual(nu), d) in the
    quantum product of the first two classes."""
    return _gw(require_dn(lam, n), require_dn(mu, n), dual(nu, n), d, n)


def _gw(lam: Partition, mu: Partition, co: Partition, d: int, n: int) -> int:
    """``gw`` on indices already checked: lam and mu in D_n, and
    co = dual(nu), the index of the product term.  An inadmissible query
    forms no product."""
    # |nu| = n(n+1)/2 - |co|, so the weights fit when |lam| + |mu| = |co| + d(n+1)
    if d < 0 or sum(lam) + sum(mu) != sum(co) + d * (n + 1):
        return 0
    return _ordered(_constants_read, lam, mu, n).get((co, d), 0)


def relation_check(i: int, n: int) -> bool:
    """Check the presentation relation for the i-th special class on route
    C: the two-row Giambelli polynomial of (i, i) (``_two_row``),
    sigma_i^2 + 2 sum_k (-1)^k sigma_{i+k} sigma_{i-k}
    + (-1)^(n+1-i) q sigma_{2i-n-1}, sums to zero, each monomial's
    product of special classes read off ``qprod_constants`` (a single
    class or the unit times the unit)."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= {n}")
    acc: QuantumClass = {}
    for (indices, qp), c in _two_row(i, i, n).items():
        product = qprod_constants(indices[:1], indices[1:], n)
        add_into(acc, (((nu, d + qp), v) for (nu, d), v in product.items()), c)
    return not acc


def pieri_operator_check(lam: Partition, i: int, j: int, n: int) -> bool:
    """Check route B's Pieri operators on the class x = sigma_lam, through
    ``_fold`` alone: for i < j they commute, sigma_i sigma_j x =
    sigma_j sigma_i x; for i = j the presentation relation holds as an
    operator identity, the two-row Giambelli polynomial of (i, i)
    (``_two_row``) folded on x as ``qmul`` folds it (``_fold_terms``)
    vanishes."""
    if not 1 <= i <= j <= n:
        raise ValueError(f"need 1 <= i <= j <= {n}")
    x = _encode({(lam, 0): 1}, n)
    if i < j:
        return _fold({}, _fold({}, x, j, n), i, n) == _fold({}, _fold({}, x, i, n), j, n)
    return not _fold_terms({}, x, _two_row(i, i, n), n)


def pieri_row_check(lam: Partition, k: int, n: int) -> bool:
    """Check route B's Pieri row of sigma_k on sigma_lam against the
    product of basis elements qtilde(lam) e_k, its stable expansion read
    out as routes A and C read theirs (``_read_quantum``): the row's terms,
    each worth 2**e.  At n >= lam_1 + k every strip shape is a step-0
    term, so the row is the uncapped Pieri rule of the basis."""
    return _read_quantum(stable_expansion(lam, (k,) if k else ()), n) == {
        cls: 1 << e for cls, e in pieri_row(lam, k, n)}


def vanishing_bounds(lam: Partition, mu: Partition, nu: Partition, d: int, n: int) -> bool:
    """Necessary window for a degree-d invariant to be nonzero."""
    ell = len(lam)
    return 0 <= d <= ell and ell + len(mu) - n <= d <= ell + len(mu) + len(nu) - n


def eightfold_check(lam: Partition, mu: Partition, nu: Partition, d: int, n: int) -> bool:
    """Check the two-to-the-power scaling between the degree-d invariant of
    (lam, mu, nu) and the degree-(len(lam)-d) invariant of the starred and
    dualized triple; for d beyond len(lam) the invariant must vanish.
    Each index is checked once; the dual of the third index of the starred
    and dualized triple, dual(nu), is nu itself."""
    lam, mu, co = require_dn(lam, n), require_dn(mu, n), dual(nu, n)
    if d > len(lam):
        return _gw(lam, mu, co, d, n) == 0
    e = len(lam) - d
    lhs = (1 << (n + d)) * _gw(lam, mu, co, d, n)
    rhs = (1 << (len(mu) + len(nu) + e)) * _gw(star(lam, n), dual(mu, n), tuple(nu), e, n)
    return lhs == rhs


def rho_product(lam: Partition, n: int) -> QuantumClass:
    """Product with the point-adjacent class of the full staircase:
    a single term, the starred dual of lam in q-degree len(lam).  The closed
    form is asserted against the structure-constant engine."""
    expected: QuantumClass = {(star(dual(lam, n), n), len(lam)): 1}
    actual = qprod_constants(lam, rho(n), n)
    if actual != expected:
        raise VerificationError(f"staircase product failed for {lam}, n={n}: {actual}")
    return expected


def sigma_ij_product_check(i: int, j: int, n: int) -> bool:
    """Check the closed product of two special classes when i + j >= n + 1:
    sigma_{i,j} (absent when i = j) plus 2 sum_k sigma_{i+k, j-k} plus
    sigma_{i+j-n-1} q."""
    if not (1 <= j <= i <= n and i + j >= n + 1):
        raise ValueError("need 1 <= j <= i <= n with i + j >= n + 1")
    expected: QuantumClass = {}
    if i > j:
        expected[((i, j), 0)] = 1
    # k <= n - i and i + j >= n + 1 leave j - k >= 1, each k its own class
    for k in range(1, n - i + 1):
        expected[((i + k, j - k), 0)] = 2
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
    lam, mu = require_dn(lam, n), require_dn(mu, n)
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
    for d in range(2, len(mu) + 1):
        for nu in _dn_of_weight(w0 - d * (n + 1), n):
            c = f_constant(nu, mu_star, prepend(n + 1, len(mu) - d, lam))
            if c:
                expected[(nu, d)] = c
    return expected == qprod_constants(lam, mu, n)


def fform_check(lam: Partition, mu: Partition, n: int) -> bool:
    """Check the rescaled-constant expressions for quantum structure
    constants: every degree-d coefficient equals the f-constant of
    (nu, mu-star; ((n+1)^e, lam)) with d + e = len(mu), and for a two-row mu
    the degree-one constants match the starred classical identity."""
    lam, mu = require_dn(lam, n), require_dn(mu, n)
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


def json_key_class(key: str) -> tuple[Partition, int]:
    """The class (lam, d) of a ``quantum_to_json`` key 'lam|d'."""
    lam, d = key.rsplit("|", 1)
    return tuple(int(t) for t in lam.split(",")) if lam else (), int(d)


def quantum_from_json(data: dict[str, int]) -> QuantumClass:
    return {json_key_class(key): c for key, c in data.items()}

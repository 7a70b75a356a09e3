"""Identities of the x-expansions of the basis elements: the peeling checks
and the divided-difference images with their Pfaffian identities.

The three peeling checks (the one-variable extension formula, the c_prime
expansion and Lemma 2 for c_double_prime) build their right-hand sides with
one kernel, ``_peel_into``: decrement parts of lam by 0, 1 or 2, straighten
(once per lam and decrement counts), and add the basis element on the
remaining variables, on its dominant exponent vectors, into the slice of
the monomial in the peeled ones.  Each left side is read off the dominant
vectors of the basis element on x_1..x_m as s free head exponents plus a
weakly decreasing tail, the divided differences acting on the head alone,
and is compared with those slices slice by slice.  Both sides are symmetric
in the tail by construction, so agreement on dominant tails is equality of
the full term maps.  c_prime applies the sign-change divided difference to
the x-expansion of a basis element; c_double_prime follows with the swap
divided difference and the sign-change one again.  Both families satisfy
alternating Pfaffian-style relations, whose products multiply monomials
packed into one integer each.  Every check is an exact integer equality in
a fixed small number m <= XPANSION_VAR_LIMIT (8) of variables (each m gives
an independent check, since the identities are polynomial in x_1..x_m for
every m).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, lru_cache
from math import comb
from operator import add

from .partitions import Partition, is_partition, is_strict, pfaffian_terms, straighten
from .polyring import (XPoly, add_into, check_var_limit, ddiff0, ddiff1prime, free_heads,
                       mul_into, spread_tails)
from .qtilde import qtilde_dominant


def _heads(lam: Partition, m: int, s: int) -> XPoly:
    """The x-expansion of qtilde(lam) on x_1..x_m on its terms with s free
    head exponents and a weakly decreasing tail."""
    return XPoly(m, free_heads(qtilde_dominant(lam, m), s))


def _c_prime_heads(lam: Partition, m: int) -> XPoly:
    """c_prime(lam) on its terms with a weakly decreasing tail after x_1."""
    return ddiff0(_heads(lam, m, 1))


def _c_double_prime_heads(lam: Partition, m: int) -> XPoly:
    """c_double_prime(lam) on its terms with a weakly decreasing tail after
    x_2."""
    return ddiff0(ddiff1prime(ddiff0(_heads(lam, m, 2))))


@lru_cache(maxsize=None)
def c_prime(lam: Partition, m: int) -> XPoly:
    """First divided difference of the x-expansion of qtilde(lam)."""
    lam = tuple(lam)
    if len(lam) < 1:
        raise ValueError("need a nonempty partition")
    check_var_limit(m)
    return spread_tails(m, _c_prime_heads(lam, m).terms, 1)


@lru_cache(maxsize=None)
def c_double_prime(lam: Partition, m: int) -> XPoly:
    """Triple divided difference of the x-expansion of qtilde(lam)."""
    lam = tuple(lam)
    if len(lam) < 2:
        raise ValueError("need at least two parts")
    check_var_limit(m)
    return spread_tails(m, _c_double_prime_heads(lam, m).terms, 2)


def comb0(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@cache
def _peel_terms(lam: Partition, ones: int, twos: int) -> tuple[tuple[int, Partition], ...]:
    """The sequences lam - delta, delta in {0,1,2}^len(lam) holding exactly
    ``ones`` ones and ``twos`` twos, straightened: pairs (sign, partition),
    the signs of equal partitions summed and those that cancel dropped."""
    out: dict[Partition, int] = {}
    ell = len(lam)
    for two in itertools.combinations(range(ell), twos):
        base = list(lam)
        for i in two:
            base[i] -= 2
        rest = [i for i in range(ell) if i not in two]
        for one in itertools.combinations(rest, ones):
            nu = base.copy()
            for i in one:
                nu[i] -= 1
            sign, nu_hat = straighten(nu)
            if sign:
                add_into(out, ((nu_hat, sign),))
    return tuple((sign, nu) for nu, sign in out.items())


def _peel_into(slices: dict, prefix: tuple[int, ...], lam: Partition, ones: int, twos: int,
               m: int, k: int = 1) -> None:
    """Add into ``slices[prefix]``, for every sequence lam - delta with
    delta in {0,1,2}^len(lam) holding exactly ``ones`` ones and ``twos``
    twos, k * sign times the basis element of the straightened sequence in
    m - s variables, s = len(prefix), on its dominant exponent vectors;
    sequences of sign 0 drop.  ``slices`` maps each peeled exponent vector
    x^prefix on x_1..x_s to a term map on the weakly decreasing exponent
    vectors of x_{s+1}..x_m, the factor that goes with it, and a slice
    whose terms cancel stays behind empty."""
    out = slices.setdefault(prefix, {})
    for sign, nu in _peel_terms(lam, ones, twos):
        add_into(out, qtilde_dominant(nu, m - len(prefix)).items(), k * sign)


def _equals_sliced(f: XPoly, slices: dict, s: int) -> bool:
    """True when f equals the sum of x^prefix times ``slices[prefix]`` over
    prefixes of length s: f is split by its first s exponents and compared
    slice by slice with the slices that do not cancel to zero, which is the
    equality of the two full term maps."""
    lhs: dict[tuple[int, ...], dict] = {}
    for e, c in f.terms.items():
        lhs.setdefault(e[:s], {})[e[s:]] = c
    return lhs == {prefix: terms for prefix, terms in slices.items() if terms}


def verify_extension_formula(lam: Partition, m: int) -> bool:
    """Check the one-variable peeling identity: the basis element on
    x_1..x_m equals sum_k x_1^k times the sum of basis elements on
    x_2..x_m over index sequences obtained by decrementing k parts of lam
    by one.  Non-partition sequences enter through signed straightening.
    Both sides are compared slice by slice, one slice per power of x_1, on
    the weakly decreasing exponent vectors of x_2..x_m."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    check_var_limit(m)
    rhs: dict[tuple[int, ...], dict] = {}
    for k in range(len(lam) + 1):
        _peel_into(rhs, (k,), lam, k, 0, m)
    return _equals_sliced(_heads(lam, m, 1), rhs, 1)


def verify_cprime_expansion(lam: Partition, m: int) -> bool:
    """Check the odd-depth peeling formula for c_prime of a strict partition:
    sum over odd-size subsets S of rows, of x_1^(|S|-1) times the basis
    element on x_2..x_m indexed by lam minus the indicator of S.  Both sides
    are compared slice by slice, one slice per power of x_1, on the weakly
    decreasing exponent vectors of x_2..x_m."""
    lam = tuple(lam)
    if not (is_partition(lam) and is_strict(lam) and lam):
        raise ValueError(f"{lam} must be a nonempty strict partition")
    check_var_limit(m)
    rhs: dict[tuple[int, ...], dict] = {}
    for k in range(1, len(lam) + 1, 2):
        _peel_into(rhs, (k - 1,), lam, k, 0, m)
    return _equals_sliced(_c_prime_heads(lam, m), rhs, 1)


def _packed(f: XPoly, w: int) -> dict[int, int]:
    """The terms of f with each exponent vector packed into one integer,
    exponent i in bits [w * i, w * (i + 1)); adding two packed keys
    multiplies their monomials while every exponent of the product stays
    below 2^w."""
    out = {}
    for mono, c in f.terms.items():
        key = 0
        for e in reversed(mono):
            key = key << w | e
        out[key] = c
    return out


def _pfaffian_sum(c, lam: Partition, m: int) -> dict[int, int]:
    """The alternating sum of c(pair) * c(rest) over the last-column terms
    of lam, its exponent vectors packed as by ``_packed`` in fields of
    sum(lam).bit_length() bits.  Each product is homogeneous of degree at
    most |lam|, so no exponent in it exceeds |lam|, and its monomials
    multiply as packed integers with no field carrying into the next."""
    w = sum(lam).bit_length()
    acc: dict[int, int] = {}
    for sign, pair, rest in pfaffian_terms(lam):
        mul_into(acc, _packed(c(pair, m), w), _packed(c(rest, m), w), sign, add)
    return acc


def verify_pfaffian_identity_prime(lam: Partition, m: int) -> bool:
    """Alternating sum of products of c_prime values over last-column pair
    removals vanishes, for strict lam of length >= 3."""
    lam = tuple(lam)
    if not (is_partition(lam) and is_strict(lam) and len(lam) >= 3):
        raise ValueError(f"{lam} must be strict of length >= 3")
    check_var_limit(m)
    return not _pfaffian_sum(c_prime, lam, m)


def verify_pfaffian_identity_double_prime(lam: Partition, m: int) -> bool:
    """Same alternating vanishing for c_double_prime, for strict lam of even
    length >= 4."""
    lam = tuple(lam)
    ell = len(lam)
    if not (is_partition(lam) and is_strict(lam) and ell >= 4 and ell % 2 == 0):
        raise ValueError(f"{lam} must be strict of even length >= 4")
    check_var_limit(m)
    return not _pfaffian_sum(c_double_prime, lam, m)


def verify_lem2(lam: Partition, m: int) -> bool:
    """Check the closed expansion of c_double_prime for strict lam of even
    length: a sum of two-variable monomial symmetric polynomials
    x_1^r x_2^s + x_1^s x_2^r (one term when r = s) times binomially
    weighted basis elements on x_3..x_m, indexed by sequences obtained by
    decrementing parts of lam by 0, 1, or 2.  Both sides are compared slice
    by slice, one slice per monomial x_1^r x_2^s, on the weakly decreasing
    exponent vectors of x_3..x_m."""
    lam = tuple(lam)
    ell = len(lam)
    if not (is_partition(lam) and is_strict(lam) and ell >= 2 and ell % 2 == 0):
        raise ValueError(f"{lam} must be strict of even positive length")
    check_var_limit(m)
    rhs: dict[tuple[int, ...], dict] = {}
    for r in range(0, ell, 2):
        for s in range(0, r + 1, 2):
            for b in range(0, (r + s + 3) // 2 + 1):
                a = r + s + 3 - 2 * b
                co = comb0(a - 1, s + 1 - b)
                if co:
                    for prefix in {(r, s), (s, r)}:
                        _peel_into(rhs, prefix, lam, a, b, m, co)
    return _equals_sliced(_c_double_prime_heads(lam, m), rhs, 2)


def dawson(p: int, q: int) -> bool:
    """Check the integer-rescaled alternating binomial identity:
    sum_k (-1)^k 2^(p-k) C(p,k) C(2k, k-q) equals (-1)^q C(p, (p+q)/2) when
    p + q is even and 0 otherwise."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    lhs = sum((-1) ** k * (1 << (p - k)) * comb(p, k) * comb0(2 * k, k - q) for k in range(p + 1))
    if (p + q) % 2:
        return lhs == 0
    return lhs == (-1) ** q * comb0(p, (p + q) // 2)


def em_recursion_final(r: int, s: int) -> Fraction:
    """Final coefficient of the rational recursion attached to an even pair
    r >= s >= 0: e_u = 1 and e_m = C(2m, m-u) - (2m/(v+2-m)) e_{m-1} with
    u = (r-s)/2 and v = (r+s)/2; the returned e_{v+1} should vanish."""
    if r < s or r % 2 or s % 2:
        raise ValueError("need even r >= s >= 0")
    u, v = (r - s) // 2, (r + s) // 2
    e = Fraction(1)
    for mm in range(u + 1, v + 2):
        e = comb(2 * mm, mm - u) - Fraction(2 * mm, v + 2 - mm) * e
    return e

"""Divided-difference images of the basis elements and the Pfaffian
identities they satisfy.

c_prime applies the sign-change divided difference to the x-expansion of a
basis element; c_double_prime follows with the swap divided difference and
the sign-change one again.  Both families satisfy alternating Pfaffian-style
relations, verified here as exact polynomial identities in a fixed small
number of variables (each m gives an independent check, since the identities
are polynomial in x_1..x_m for every m).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

from .partitions import Partition, is_partition, is_strict, pfaffian_terms, straighten
from .polyring import XPoly, add_into, ddiff0, ddiff1prime
from .qtilde import qtilde_x

VAR_LIMIT = 6


def _check_m(m: int) -> None:
    if m > VAR_LIMIT:
        raise ValueError(f"guarded to m <= {VAR_LIMIT}, got {m}")


@lru_cache(maxsize=None)
def c_prime(lam: Partition, m: int) -> XPoly:
    """First divided difference of the x-expansion of qtilde(lam)."""
    lam = tuple(lam)
    if len(lam) < 1:
        raise ValueError("need a nonempty partition")
    _check_m(m)
    return ddiff0(qtilde_x(lam, m, m))


@lru_cache(maxsize=None)
def c_double_prime(lam: Partition, m: int) -> XPoly:
    """Triple divided difference of the x-expansion of qtilde(lam)."""
    lam = tuple(lam)
    if len(lam) < 2:
        raise ValueError("need at least two parts")
    _check_m(m)
    return ddiff0(ddiff1prime(ddiff0(qtilde_x(lam, m, m))))


def comb0(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def verify_cprime_expansion(lam: Partition, m: int) -> bool:
    """Check the odd-depth peeling formula for c_prime of a strict partition:
    sum over odd-size subsets S of rows, of x_1^(|S|-1) times the basis
    element on x_2..x_m indexed by lam minus the indicator of S."""
    lam = tuple(lam)
    if not (is_partition(lam) and is_strict(lam) and lam):
        raise ValueError(f"{lam} must be a nonempty strict partition")
    _check_m(m)
    ell = len(lam)
    rhs: dict[tuple[int, ...], int] = {}
    for bits in range(1 << ell):
        k = bin(bits).count("1")
        if k % 2 == 0:
            continue
        mu = tuple(lam[i] - ((bits >> i) & 1) for i in range(ell))
        sign, mu_hat = straighten(mu)
        if sign == 0:
            continue
        # the element lives on x_2..x_m, so its x_1-exponent 0 becomes k - 1
        shifted = qtilde_x(mu_hat, m - 1, m, 1).terms
        add_into(rhs, (((k - 1,) + e[1:], c) for e, c in shifted.items()), sign)
    return c_prime(lam, m).terms == rhs


def verify_pfaffian_identity_prime(lam: Partition, m: int) -> bool:
    """Alternating sum of products of c_prime values over last-column pair
    removals vanishes, for strict lam of length >= 3."""
    lam = tuple(lam)
    ell = len(lam)
    if not (is_partition(lam) and is_strict(lam) and ell >= 3):
        raise ValueError(f"{lam} must be strict of length >= 3")
    _check_m(m)
    acc = XPoly.zero(m)
    for sign, pair, rest in pfaffian_terms(lam):
        acc = acc + (c_prime(pair, m) * c_prime(rest, m)).scale(sign)
    return not acc


def verify_pfaffian_identity_double_prime(lam: Partition, m: int) -> bool:
    """Same alternating vanishing for c_double_prime, for strict lam of even
    length >= 4."""
    lam = tuple(lam)
    ell = len(lam)
    if not (is_partition(lam) and is_strict(lam) and ell >= 4 and ell % 2 == 0):
        raise ValueError(f"{lam} must be strict of even length >= 4")
    _check_m(m)
    acc = XPoly.zero(m)
    for sign, pair, rest in pfaffian_terms(lam):
        acc = acc + (c_double_prime(pair, m) * c_double_prime(rest, m)).scale(sign)
    return not acc


def _monomial_sym2(r: int, s: int, m: int) -> XPoly:
    """Monomial symmetric polynomial in x_1, x_2 alone, inside m variables."""
    zeros = (0,) * (m - 2)
    if r == s:
        return XPoly(m, {(r, s) + zeros: 1})
    return XPoly(m, {(r, s) + zeros: 1, (s, r) + zeros: 1})


def _decrement_patterns(lam: Partition, a: int, b: int):
    """Index sequences lam - delta with delta in {0,1,2}^len(lam), exactly a
    ones and b twos among the deltas."""
    ell = len(lam)
    if a + b > ell:
        return
    for ones in itertools.combinations(range(ell), a):
        rest = [i for i in range(ell) if i not in ones]
        for twos in itertools.combinations(rest, b):
            delta = [0] * ell
            for i in ones:
                delta[i] = 1
            for i in twos:
                delta[i] = 2
            yield tuple(lam[i] - delta[i] for i in range(ell))


def verify_lem2(lam: Partition, m: int) -> bool:
    """Check the closed expansion of c_double_prime for strict lam of even
    length: a sum of two-variable monomial symmetric polynomials times
    binomially weighted basis elements on x_3..x_m, indexed by sequences
    obtained by decrementing parts of lam by 0, 1, or 2."""
    lam = tuple(lam)
    ell = len(lam)
    if not (is_partition(lam) and is_strict(lam) and ell >= 2 and ell % 2 == 0):
        raise ValueError(f"{lam} must be strict of even positive length")
    _check_m(m)
    rhs = XPoly.zero(m)
    for r in range(0, ell, 2):
        for s in range(0, r + 1, 2):
            inner = XPoly.zero(m)
            for b in range(0, (r + s + 3) // 2 + 1):
                a = r + s + 3 - 2 * b
                if a < 0:
                    continue
                co = comb0(a - 1, s + 1 - b)
                if co == 0:
                    continue
                block = XPoly.zero(m)
                for nu in _decrement_patterns(lam, a, b):
                    sign, nu_hat = straighten(nu)
                    if sign == 0:
                        continue
                    block = block + qtilde_x(nu_hat, m - 2, m, 2).scale(sign)
                inner = inner + block.scale(co)
            rhs = rhs + _monomial_sym2(r, s, m) * inner
    return c_double_prime(lam, m) == rhs


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

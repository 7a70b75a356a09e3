"""Identities of the x-expansions of the basis elements: the peeling checks
and the divided-difference images with their Pfaffian identities.

Every side of every check is one polynomial in x_1..x_m in one exact form:
the basis element peeled at s (``polyring.peel``), in x_1..x_s and the
elementary symmetric functions e'_1..e'_{m-s} of x_{s+1}..x_m, which are
algebraically independent, so two sides agree exactly when their term maps
do.  Only elements of at most two rows are peeled from their e-form; a
longer one follows the recursion of ``qtilde.basis`` on peeled forms
(``_peeled``).  c_prime applies the sign-change divided difference to the
basis element peeled at 1; c_double_prime follows with the swap divided
difference and the sign-change one again on the element peeled at 2.  The
three peeling checks (the one-variable extension formula, the c_prime
expansion and Lemma 2 for c_double_prime) build their right-hand sides with
one kernel, ``_peel_into``: decrement parts of lam by 0, 1 or 2, bring the
sequences to partitions with signs, sum the basis elements on the
remaining variables, and add x^prefix times that sum: the elements'
e-forms, each its own peeled form at 0 (``polyring.peel`` at 0 keeps every
key), so nothing is peeled there.  Every term map here is keyed by
``polyring``'s packed monomials, whose layout this module never reads:
``polyring.times_x`` moves the keys of that sum up past the prefix.  When
parts drop by 1 only (the extension and c_prime cases), only equal parts
can invert, so each run of r equal parts with j of them
lowered gives one block with the sign [r, j] at q = -1, and nothing is
straightened; Lemma 2's decrements by 2 straighten every pattern.  The
Pfaffian-style vanishings of c_prime and c_double_prime are alternating
sums of products of their peeled forms.
Every check is an exact integer equality in a fixed small number
m <= XPANSION_VAR_LIMIT (10) of variables (each m gives an independent
check, since the identities are polynomial in x_1..x_m for every m).
``polyring.peel`` raises that limit, so no function here calls the guard:
each check computes its peeled side first and fails on an m over the limit
before it builds a right side.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb
from typing import Iterator

from .partitions import Partition, require_partition, require_strict, straighten
from .polyring import XPoly, add_into, ddiff0, ddiff1prime, peel, times_x
from .qtilde import basis, expand_rows, pfaffian_sum


@cache
def _peeled(lam: Partition, m: int, s: int) -> XPoly:
    """The basis element of lam in m variables peeled at s, memoized per
    (lam, m, s).

    Peeling and truncation are ring homomorphisms, so the peeled form
    follows the recursion of ``qtilde.basis`` on peeled forms: at most two
    rows are ``peel(basis(lam, m), s)``, and a longer partition is
    ``qtilde.expand_rows`` over peeled forms.  No e-form of more than two
    rows is peeled."""
    if len(lam) <= 2:
        return peel(basis(lam, m), s)
    return XPoly(m, expand_rows(_peeled, lam, m, s))


@cache
def c_prime(lam: Partition, m: int) -> XPoly:
    """First divided difference of the basis element of lam in m variables,
    peeled at 1: position 0 is x_1, position j is e'_j."""
    lam = require_partition(lam)
    if len(lam) < 1:
        raise ValueError("need a nonempty partition")
    return ddiff0(_peeled(lam, m, 1))


@cache
def c_double_prime(lam: Partition, m: int) -> XPoly:
    """Triple divided difference of the basis element of lam in m variables,
    peeled at 2: positions 0 and 1 are x_1 and x_2, position j + 1 is
    e'_j."""
    lam = require_partition(lam)
    if len(lam) < 2:
        raise ValueError("need at least two parts")
    return ddiff0(ddiff1prime(ddiff0(_peeled(lam, m, 2))))


def comb0(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _run_weight(r: int, j: int) -> int:
    """The Gaussian binomial [r, j] at q = -1: the signed count of the 0/1
    words of length r with j ones, each word signed by (-1) to the number of
    ones before zeros.  It is 0 for even r and odd j, and C(r//2, j//2)
    otherwise (Stanley, EC1 1.7)."""
    if r % 2 == 0 and j % 2:
        return 0
    return comb(r // 2, j // 2)


def _run_terms(runs: tuple[tuple[int, int], ...], ones: int) -> Iterator[tuple[int, Partition]]:
    """(sign, parts) for lam given by its runs (value, length), one part
    lowered by one in exactly ``ones`` of them: per run the number j of
    lowered parts, the block a^(r-j) (a-1)^j with zeros dropped, and the
    product of the run weights, nonzero ones only."""
    if not runs:
        if not ones:
            yield 1, ()
        return
    (a, r), rest = runs[0], runs[1:]
    for j in range(min(r, ones) + 1):
        w = _run_weight(r, j)
        if w:
            block = (a,) * (r - j) + ((a - 1,) * j if a > 1 else ())
            for sign, tail in _run_terms(rest, ones - j):
                yield w * sign, block + tail


@cache
def _peel_terms(lam: Partition, ones: int, twos: int) -> tuple[tuple[int, Partition], ...]:
    """The sequences lam - delta, delta in {0,1,2}^len(lam) holding exactly
    ``ones`` ones and ``twos`` twos, straightened: pairs (sign, partition),
    the signs of equal partitions summed and those that cancel dropped.

    With no twos, parts drop by at most 1, so only equal parts can invert
    and lam - delta straightens run by run of equal parts: a run of r parts
    equal to a with j of them lowered becomes a^(r-j) (a-1)^j, and its
    C(r, j) patterns sum to the sign ``_run_weight(r, j)``.  Distinct
    counts per run give distinct partitions, and nothing is straightened.
    With twos, every pattern is straightened."""
    if not twos:
        runs = tuple((a, len(tuple(g))) for a, g in itertools.groupby(lam))
        return tuple(_run_terms(runs, ones))
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


def _peel_into(out: dict, prefix: tuple[int, ...], lam: Partition, ones: int, twos: int,
               m: int, k: int = 1) -> None:
    """Add into the term map ``out``, for every sequence lam - delta with
    delta in {0,1,2}^len(lam) holding exactly ``ones`` ones and ``twos``
    twos, k * sign times x^prefix times the basis element of the
    straightened sequence in m - s variables, s = len(prefix): the
    element's e-form, which is its own peeled form at 0, read from
    ``qtilde.basis``.  The signed elements, all in m - s variables, are
    summed on their e-forms first and the sum moved past the prefix once:
    a term map in the layout of an element in m variables peeled at s.
    Sequences of sign 0 drop."""
    tail: dict[int, int] = {}
    for sign, nu in _peel_terms(lam, ones, twos):
        add_into(tail, basis(nu, m - len(prefix)).terms.items(), sign)
    add_into(out, times_x(prefix, tail), k)


def verify_extension_formula(lam: Partition, m: int) -> bool:
    """Check the one-variable peeling identity: the basis element on
    x_1..x_m equals sum_k x_1^k times the sum of basis elements on
    x_2..x_m over index sequences obtained by decrementing k parts of lam
    by one.  Non-partition sequences enter through signed straightening.
    Both sides are compared peeled at 1."""
    lam = require_partition(lam)
    lhs = _peeled(lam, m, 1).terms
    rhs: dict[int, int] = {}
    for k in range(len(lam) + 1):
        _peel_into(rhs, (k,), lam, k, 0, m)
    return lhs == rhs


def verify_cprime_expansion(lam: Partition, m: int) -> bool:
    """Check the odd-depth peeling formula for c_prime of a strict partition:
    sum over odd-size subsets S of rows, of x_1^(|S|-1) times the basis
    element on x_2..x_m indexed by lam minus the indicator of S.  Both sides
    are compared peeled at 1."""
    lam = require_strict(lam)
    if not lam:
        raise ValueError("need a nonempty partition")
    lhs = c_prime(lam, m).terms
    rhs: dict[int, int] = {}
    for k in range(1, len(lam) + 1, 2):
        _peel_into(rhs, (k - 1,), lam, k, 0, m)
    return lhs == rhs


def verify_pfaffian_identity_prime(lam: Partition, m: int) -> bool:
    """Alternating sum of products of c_prime values over last-column pair
    removals vanishes, for strict lam of length >= 3."""
    lam = require_strict(lam)
    if len(lam) < 3:
        raise ValueError(f"{lam} must have length >= 3")
    return not pfaffian_sum(c_prime, lam, m)


def verify_pfaffian_identity_double_prime(lam: Partition, m: int) -> bool:
    """Same alternating vanishing for c_double_prime, for strict lam of even
    length >= 4."""
    lam = require_strict(lam)
    ell = len(lam)
    if ell < 4 or ell % 2:
        raise ValueError(f"{lam} must have even length >= 4")
    return not pfaffian_sum(c_double_prime, lam, m)


def verify_lem2(lam: Partition, m: int) -> bool:
    """Check the closed expansion of c_double_prime for strict lam of even
    length: a sum of two-variable monomial symmetric polynomials
    x_1^r x_2^s + x_1^s x_2^r (one term when r = s) times binomially
    weighted basis elements on x_3..x_m, indexed by sequences obtained by
    decrementing parts of lam by 0, 1, or 2.  Both sides are compared
    peeled at 2."""
    lam = require_strict(lam)
    ell = len(lam)
    if ell < 2 or ell % 2:
        raise ValueError(f"{lam} must have even positive length")
    lhs = c_double_prime(lam, m).terms
    rhs: dict[int, int] = {}
    for r in range(0, ell, 2):
        for s in range(0, r + 1, 2):
            for b in range(0, (r + s + 3) // 2 + 1):
                a = r + s + 3 - 2 * b
                co = comb0(a - 1, s + 1 - b)
                if co:
                    for prefix in {(r, s), (s, r)}:
                        _peel_into(rhs, prefix, lam, a, b, m, co)
    return lhs == rhs


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

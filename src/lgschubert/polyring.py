"""Exact sparse polynomial arithmetic in two models on one monomial layout.

EPoly lives in the free graded ring on generators e_1, e_2, ... (deg e_i = i),
truncated to e_i = 0 for i > m when a variable count m is set; XPoly is an
ordinary integer polynomial in x_1, ..., x_m, or the peeled form of an EPoly
below.  Coefficients are Python ints, so arithmetic is exact at any size.

A monomial of either model is one int, its packed exponent vector (Monagan
and Pearce, CASC 2007), in fields of E_FIELD_BITS = 16 bits; the monomial 1
is 0.  Field 0, the low bits, holds the degree, called the weight.  In an
e-monomial field i (bits 16i to 16i + 15) holds the multiplicity of e_i,
which has degree i.  In an x-monomial field h + 1 holds the exponent at
position h: that of x_{h+1}, of degree 1, or in a peeled form that of one
of the e'_j below, of degree j.  In both models the product of two
monomials is their sum.  A weight that would not fit its field raises
rather than carries; every other field is at most the weight, so none can
overflow first, and the one guard of ``mul_into`` serves both models.
"No generator above m" is one comparison with ``e_key_bound(m)``.  Only
this module reads or writes the fields: other modules convert term maps
through ``pack_e`` and ``unpack_e`` or ``pack_x`` and ``unpack_x``, and
put x^prefix before a peeled form through ``times_x``.

The one passage from e to x is ``peel``: it writes an EPoly in m variables
in x_1, ..., x_s and the elementary symmetric functions e'_1, ..., e'_{m-s}
of x_{s+1}, ..., x_m, through e_i = sum over T in {1..s} of x^T e'_{i-|T|}.
Each of those terms has degree i, so a peeled monomial keeps the weight of
the e-monomial it came from.  The e'_j are algebraically independent, so
this form is exact and expands nothing in the trailing variables; at s = m
it is the full x-expansion.  ``peel`` raises the variable limit
(``check_var_limit``), so every check built on it is bounded there.
"""

from __future__ import annotations

import itertools
from functools import cache
from types import MappingProxyType
from typing import Iterator, Mapping

XPANSION_VAR_LIMIT = 10

E_FIELD_BITS = 16
E_WEIGHT_MASK = (1 << E_FIELD_BITS) - 1


def check_var_limit(m: int) -> None:
    """Reject variable counts above XPANSION_VAR_LIMIT, the bound of every
    check built on the x-form: ``peel`` raises it, and the x-identity
    suites run it before any case."""
    if m > XPANSION_VAR_LIMIT:
        raise ValueError(f"guarded to m <= {XPANSION_VAR_LIMIT}, got {m}")


def _check_weight(w: int) -> None:
    """Reject a monomial weight that does not fit the weight field, the one
    bound of the packed key."""
    if w > E_WEIGHT_MASK:
        raise ValueError(f"e-monomial weight {w} exceeds {E_WEIGHT_MASK}")


def _top_weight(terms) -> int:
    """The largest weight among the keys of a term map, 0 for none."""
    return max(map(E_WEIGHT_MASK.__and__, terms), default=0)


def pack_e(terms: dict) -> dict[int, int]:
    """A term map keyed by e-monomials written as tuples of generator
    indices (positive, in any order), rekeyed by packed e-monomials; terms
    that pack to one key add up, and sums of zero drop."""
    out: dict[int, int] = {}
    for parts, c in terms.items():
        key = _pack(parts)
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def unpack_e(terms) -> dict[tuple[int, ...], int]:
    """A term map keyed by packed e-monomials, rekeyed by the weakly
    decreasing tuples of their generator indices."""
    return {_gens(key): c for key, c in terms.items()}


def _pack(parts) -> int:
    """The packed key of the e-monomial with these generator indices."""
    w = key = 0
    for i in parts:
        if i < 1:
            raise ValueError(f"generator indices must be positive, got {i}")
        w += i
        key += 1 << E_FIELD_BITS * i
    _check_weight(w)
    return key | w


def _gens(key: int) -> tuple[int, ...]:
    """The generator indices of a packed e-monomial, weakly decreasing."""
    parts: list[int] = []
    key >>= E_FIELD_BITS
    i = 1
    while key:
        parts += [i] * (key & E_WEIGHT_MASK)
        key >>= E_FIELD_BITS
        i += 1
    return tuple(reversed(parts))


def e_key_bound(m: int) -> int:
    """The packed e-monomials with no generator above m are those below
    this bound."""
    return 1 << E_FIELD_BITS * (m + 1)


def pack_x(terms: dict, s: int | None = None) -> dict[int, int]:
    """A term map keyed by exponent tuples of one length, rekeyed by packed
    x-monomials: entry h is the exponent at position h, that of x_{h+1}
    for h < s and that of e'_{h-s+1} from s on (every position an x for
    s = None).  Zero coefficients drop."""
    return {_pack_x(exps, s): c for exps, c in terms.items() if c}


def unpack_x(terms, m: int) -> dict[tuple[int, ...], int]:
    """A term map keyed by packed x-monomials in m positions, rekeyed by
    their exponent tuples of length m."""
    return {tuple(key >> E_FIELD_BITS * (h + 1) & E_WEIGHT_MASK for h in range(m)): c
            for key, c in terms.items()}


def _pack_x(exps, s: int | None = None) -> int:
    """The packed key of the x-monomial with these exponents, positions
    from s on being the e'_j as in ``pack_x``."""
    w = key = 0
    for h, e in enumerate(exps):
        if e < 0:
            raise ValueError(f"exponents must be nonnegative, got {e}")
        w += e if s is None or h < s else e * (h - s + 1)
        key += e << E_FIELD_BITS * (h + 1)
    _check_weight(w)
    return key | w


def times_x(prefix: tuple[int, ...], terms) -> Iterator[tuple[int, int]]:
    """The terms of x^prefix times a polynomial on x_{s+1}, x_{s+2}, ...,
    s = len(prefix), given by its term map on its own positions: each key
    moved up s positions, x_1..x_s raised to the prefix."""
    head, shift = _pack_x(prefix), E_FIELD_BITS * len(prefix)
    _check_weight((head & E_WEIGHT_MASK) + _top_weight(terms))
    return ((head + (key >> E_FIELD_BITS << E_FIELD_BITS + shift) + (key & E_WEIGHT_MASK), c)
            for key, c in terms.items())


def add_into(out: dict, items, k: int = 1) -> None:
    """Add k times each (monomial, coefficient) of ``items`` into the term map
    ``out`` in place, dropping monomials whose coefficient cancels to zero."""
    for mono, c in items:
        v = out.get(mono, 0) + k * c
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)


def mul_into(out: dict, a, b, k: int) -> None:
    """Add k * a * b into ``out`` in place, for term maps of either model
    with nonzero coefficients and k != 0: each monomial product is the sum
    of the keys, once the weight of the heaviest product is checked to fit
    its field; ``a`` is the outer loop."""
    _check_weight(_top_weight(a) + _top_weight(b))
    for ma, ca in a.items():
        ca *= k
        for mb, cb in b.items():
            key = ma + mb
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                del out[key]


class _SparsePoly:
    """Arithmetic shared by the two models: a variable count ``m`` and a
    read-only map ``terms`` from packed monomials to nonzero integers.  Each
    subclass defines its own ``__mul__`` on ``_mul``."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms):
        self.m = m
        self.terms = MappingProxyType(terms)

    @classmethod
    def zero(cls, m):
        return cls(m, {})

    @classmethod
    def one(cls, m):
        return cls(m, {0: 1})

    def _check(self, other) -> None:
        if self.m != other.m:
            raise ValueError(f"variable count mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        add_into(out, other.terms.items())
        return type(self)(self.m, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        add_into(out, other.terms.items(), -1)
        return type(self)(self.m, out)

    def __neg__(self):
        return type(self)(self.m, {mono: -c for mono, c in self.terms.items()})

    def scale(self, k: int):
        if k == 0:
            return self.zero(self.m)
        return type(self)(self.m, {mono: k * c for mono, c in self.terms.items()})

    def _mul(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        mul_into(out, a, b, 1)
        return type(self)(self.m, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.m == other.m and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)


class EPoly(_SparsePoly):
    """Sparse integer polynomial in the graded generators e_1, e_2, ...

    ``m`` is the truncation level (e_i = 0 for i > m); ``m = None`` means no
    truncation.  Terms are keyed by packed e-monomials.
    """

    __slots__ = ()

    @staticmethod
    def gen(i: int, m: int | None) -> "EPoly":
        """The generator e_i; zero when i exceeds the truncation level."""
        if i < 0:
            raise ValueError("generator index must be nonnegative")
        if i == 0:
            return EPoly.one(m)
        if m is not None and i > m:
            return EPoly.zero(m)
        return EPoly(m, {_pack((i,)): 1})

    def __mul__(self, other):
        return self._mul(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "EPoly(0)"
        bits = []
        for key in sorted(self.terms, key=lambda k: (k & E_WEIGHT_MASK, _gens(k)), reverse=True):
            c = self.terms[key]
            name = "*".join(f"e{i}" for i in _gens(key)) or "1"
            bits.append(f"{c}*{name}")
        return "EPoly(" + " + ".join(bits) + ")"


class XPoly(_SparsePoly):
    """Sparse integer polynomial in x_1, ..., x_m, keyed by packed
    x-monomials."""

    __slots__ = ()

    def __mul__(self, other):
        return self._mul(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "XPoly(0)"
        bits = []
        for mono, c in sorted(unpack_x(self.terms, self.m).items(), reverse=True):
            name = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(mono) if e) or "1"
            bits.append(f"{c}*{name}")
        return "XPoly(" + " + ".join(bits) + ")"


_X1 = 1 << E_FIELD_BITS  # one unit of field 1, position 0: x_1
_X2 = 1 << 2 * E_FIELD_BITS  # one unit of field 2, position 1


def ddiff0(f: XPoly) -> XPoly:
    """Divided difference (f - f(-x_1)) / (2 x_1).

    The even x_1-powers of f cancel against the substituted copy, the odd
    powers double, and the halving plus the division by x_1 lower each odd
    exponent (field 1) by one with the coefficient intact, and the weight
    with it; exactness is structural.
    """
    return XPoly(f.m, {key - _X1 - 1: c for key, c in f.terms.items() if key >> E_FIELD_BITS & 1})


def ddiff1prime(f: XPoly) -> XPoly:
    """Divided difference (f - f(x_2, x_1, x_3, ...)) / (x_2 - x_1).

    Each monomial x_1^a x_2^b with a != b (fields 1 and 2) contributes the
    exact quotient -sgn(a - b) * sum over c + d = a + b - 1,
    c, d >= min(a, b) of x_1^c x_2^d, one degree lower.
    """
    if f.m < 2:
        raise ValueError("need at least two variables")
    out: dict[int, int] = {}
    for key, c in f.terms.items():
        a, b = key >> E_FIELD_BITS & E_WEIGHT_MASK, key >> 2 * E_FIELD_BITS & E_WEIGHT_MASK
        if a == b:
            continue
        lo, hi, s = (b, a, -c) if a > b else (a, b, c)
        rest = key - a * _X1 - b * _X2 - 1
        add_into(out, ((rest + (lo + t) * _X1 + (hi - 1 - t) * _X2, s) for t in range(hi - lo)))
    return XPoly(f.m, out)


@cache
def elementary_xpoly(i: int, m: int) -> XPoly:
    """e_i(x_1, ..., x_m) as an XPoly in m variables."""
    return XPoly(m, dict.fromkeys((sum(_X1 << E_FIELD_BITS * h for h in combo) | i
                                   for combo in itertools.combinations(range(m), i)), 1))


def peel(p: EPoly, s: int) -> XPoly:
    """An EPoly in m variables as an XPoly in x_1..x_s followed by
    e'_1..e'_{m-s}, the elementary symmetric functions of x_{s+1}..x_m:
    position h < s is x_{h+1}, position s + j - 1 is e'_j.  At s = m no
    e'_j is left, and this is the x-expansion on x_1..x_m.  At s = 0 every
    e_i is e'_i, both in field i, so the peeled form keeps the keys and
    coefficients of p (less the monomials with a generator above m).

    e_i is the sum over subsets T of {1..s} with i - m + s <= |T| <= i of
    x^T e'_{i-|T|}, and the e'_j are algebraically independent, so two
    polynomials are equal exactly when their peeled forms are.  A divided
    difference in x_1..x_s acts on the first s positions alone.  Each
    e-monomial is the direct product of its generators' peeled forms (the
    x-identity checks peel elements of at most two rows, so monomials of at
    most two generators); a monomial holding a generator above m is zero.
    More than XPANSION_VAR_LIMIT variables raise (``check_var_limit``).
    """
    m = p.m
    if m is None or not 0 <= s <= m:
        raise ValueError(f"cannot peel {s} of {m} variables")
    check_var_limit(m)
    steps = _peel_steps(m, s)
    bound = e_key_bound(m)
    out: dict[int, int] = {}
    for key, c in p.terms.items():
        if key >= bound:
            continue  # it holds a generator above m, and e_i = 0 for i > m
        mono = _gens(key)
        acc = {0: c}
        for i in mono[:-1]:
            acc, prev = {}, acc
            mul_into(acc, prev, steps[i], 1)
        if mono:
            mul_into(out, acc, steps[mono[-1]], 1)
        else:
            add_into(out, acc.items())
    return XPoly(m, out)


@cache
def _peel_steps(m: int, s: int) -> Mapping[int, Mapping[int, int]]:
    """For each 1 <= i <= m, e_i peeled at s as a term map: the packed keys
    of its monomials x^T e'_{i-|T|}, each of weight i and coefficient 1.
    Shared by every caller, so the map and each term map are read-only."""
    # t is x^T, |T| = r, of weight r; e'_j, j = i - r, is field s + j, of weight j
    return MappingProxyType({i: MappingProxyType(dict.fromkeys(
        (t + (_X1 << E_FIELD_BITS * (s + i - r - 1) | i - r if i > r else 0)
         for r in range(s + 1) if 0 <= i - r <= m - s for t in elementary_xpoly(r, s).terms), 1))
        for i in range(1, m + 1)})

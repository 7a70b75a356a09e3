"""Exact sparse polynomial arithmetic in two models.

EPoly lives in the free graded ring on generators e_1, e_2, ... (deg e_i = i),
truncated to e_i = 0 for i > m when a variable count m is set; XPoly is an
ordinary integer polynomial in x_1, ..., x_m.  Coefficients are Python ints,
so arithmetic is exact at any size.

An e-monomial is one int, its packed exponent vector (Monagan and Pearce,
CASC 2007), in fields of E_FIELD_BITS = 16 bits: field 0, the low bits,
holds the weight, and field i (bits 16i to 16i + 15) the multiplicity of
e_i; the monomial 1 is 0.  The product of two e-monomials is then their
sum, and "no generator above m" is one comparison with ``e_key_bound(m)``.
A weight that would not fit its field raises rather than carries (every
multiplicity is at most the weight, so no other field can overflow
first).  Only this module reads or writes the fields; other modules
convert term maps through ``pack_e`` and ``unpack_e``.

X-monomials are exponent tuples of fixed length m.  The one passage from
e to x is ``peel``: it writes an EPoly in m variables in x_1, ..., x_s
and the elementary symmetric functions e'_1, ..., e'_{m-s} of
x_{s+1}, ..., x_m, through e_i = sum over T in {1..s} of x^T e'_{i-|T|}.
The e'_j are algebraically independent, so this form is exact and expands
nothing in the trailing variables; at s = m it is the full x-expansion.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import add

XPANSION_VAR_LIMIT = 10

E_FIELD_BITS = 16
E_WEIGHT_MASK = (1 << E_FIELD_BITS) - 1


def check_var_limit(m: int) -> None:
    """Reject variable counts above XPANSION_VAR_LIMIT, the bound of every
    check built on the x-form of ``peel``."""
    if m > XPANSION_VAR_LIMIT:
        raise ValueError(f"guarded to m <= {XPANSION_VAR_LIMIT}, got {m}")


def _check_weight(w: int) -> None:
    """Reject an e-monomial weight that does not fit the weight field, the
    one bound of the packed key."""
    if w > E_WEIGHT_MASK:
        raise ValueError(f"e-monomial weight {w} exceeds {E_WEIGHT_MASK}")


def pack_e(terms: dict) -> dict[int, int]:
    """A term map keyed by e-monomials written as tuples of generator
    indices (positive, in any order), rekeyed by packed e-monomials; terms
    that pack to one key add up, and sums of zero drop."""
    out: dict[int, int] = {}
    for parts, c in terms.items():
        key = _pack(parts)
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def unpack_e(terms: dict[int, int]) -> dict[tuple[int, ...], int]:
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


def x_mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two x-monomials: their exponent vectors added."""
    return tuple(map(add, a, b))


def add_into(out: dict, items, k: int = 1) -> None:
    """Add k times each (monomial, coefficient) of ``items`` into the term map
    ``out`` in place, dropping monomials whose coefficient cancels to zero."""
    for mono, c in items:
        v = out.get(mono, 0) + k * c
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)


def mul_into(out: dict, a: dict, b: dict, k: int, mono_mul=add) -> None:
    """Add k * a * b into ``out`` in place, for term maps with nonzero
    coefficients and k != 0, multiplying monomials with ``mono_mul`` (the
    e-monomial product, integer addition, by default, with the weight of
    the heaviest product checked first); ``a`` is the outer loop."""
    if mono_mul is add and a and b:
        _check_weight(max(map(E_WEIGHT_MASK.__and__, a)) + max(map(E_WEIGHT_MASK.__and__, b)))
    for ma, ca in a.items():
        ca *= k
        for mb, cb in b.items():
            key = mono_mul(ma, mb)
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                del out[key]


class _SparsePoly:
    """Arithmetic shared by the two models: a variable count ``m`` and a map
    ``terms`` from monomials to nonzero integers, never mutated after
    construction.  Each subclass's ``__mul__`` passes its monomial product
    to ``_mul``."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms: dict):
        self.m = m
        self.terms = terms

    @classmethod
    def zero(cls, m):
        return cls(m, {})

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

    def _mul(self, other, mono_mul):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        mul_into(out, a, b, 1, mono_mul)
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
    def one(m: int | None) -> "EPoly":
        return EPoly(m, {0: 1})

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
        return self._mul(other, add)

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
    """Sparse integer polynomial in x_1, ..., x_m, keyed by exponent tuples."""

    __slots__ = ()

    @staticmethod
    def one(m: int) -> "XPoly":
        return XPoly(m, {(0,) * m: 1})

    def __mul__(self, other):
        return self._mul(other, x_mono_mul)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "XPoly(0)"
        bits = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            name = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(mono) if e) or "1"
            bits.append(f"{c}*{name}")
        return "XPoly(" + " + ".join(bits) + ")"


def ddiff0(f: XPoly) -> XPoly:
    """Divided difference (f - f(-x_1)) / (2 x_1).

    The even x_1-powers of f cancel against the substituted copy, the odd
    powers double, and the halving plus the division by x_1 lower each odd
    exponent by one with the coefficient intact; exactness is structural.
    """
    out = {}
    for mono, c in f.terms.items():
        if mono[0] % 2:
            out[(mono[0] - 1,) + mono[1:]] = c
    return XPoly(f.m, out)


def ddiff1prime(f: XPoly) -> XPoly:
    """Divided difference (f - f(x_2, x_1, x_3, ...)) / (x_2 - x_1).

    Each monomial x_1^a x_2^b with a != b contributes the exact quotient
    -sgn(a - b) * sum over c + d = a + b - 1, c, d >= min(a, b) of x_1^c x_2^d.
    """
    if f.m < 2:
        raise ValueError("need at least two variables")
    out: dict[tuple[int, ...], int] = {}
    for mono, c in f.terms.items():
        a, b = mono[0], mono[1]
        if a == b:
            continue
        rest = mono[2:]
        if a > b:
            lo, d, s = b, a - b, -c
        else:
            lo, d, s = a, b - a, c
        top = lo + d - 1
        add_into(out, (((lo + t, top - t) + rest, s) for t in range(d)))
    return XPoly(f.m, out)


@cache
def elementary_xpoly(i: int, m: int) -> XPoly:
    """e_i(x_1, ..., x_m) as an XPoly in m variables."""
    terms = {}
    for combo in itertools.combinations(range(m), i):
        e = [0] * m
        for pos in combo:
            e[pos] = 1
        terms[tuple(e)] = 1
    return XPoly(m, terms)


def peel(p: EPoly, s: int) -> XPoly:
    """An EPoly in m variables as an XPoly in x_1..x_s followed by
    e'_1..e'_{m-s}, the elementary symmetric functions of x_{s+1}..x_m:
    exponent h < s is that of x_{h+1}, exponent s + j - 1 that of e'_j.
    At s = m no e'_j is left, and this is the x-expansion on x_1..x_m.

    e_i is the sum over subsets T of {1..s} with i - m + s <= |T| <= i of
    x^T e'_{i-|T|}, and the e'_j are algebraically independent, so two
    polynomials are equal exactly when their peeled forms are.  A divided
    difference in x_1..x_s acts on the first s exponents alone.  Each
    e-monomial is the direct product of its generators' peeled forms (the
    x-identity checks peel elements of at most two rows, so monomials of at
    most two generators); a monomial holding a generator above m is zero.
    """
    m = p.m
    if m is None or not 0 <= s <= m:
        raise ValueError(f"cannot peel {s} of {m} variables")
    steps = _peel_steps(m, s)
    bound = e_key_bound(m)
    out: dict[tuple[int, ...], int] = {}
    for key, c in p.terms.items():
        if key >= bound:
            continue  # it holds a generator above m, and e_i = 0 for i > m
        mono = _gens(key)
        acc = {(0,) * m: c}
        for i in mono[:-1]:
            acc, prev = {}, acc
            mul_into(acc, prev, steps[i], 1, x_mono_mul)
        if mono:
            mul_into(out, acc, steps[mono[-1]], 1, x_mono_mul)
        else:
            add_into(out, acc.items())
    return XPoly(m, out)


@cache
def _peel_steps(m: int, s: int) -> dict[int, dict[tuple[int, ...], int]]:
    """For each 1 <= i <= m, e_i peeled at s as a term map: the exponent
    vectors of its monomials x^T e'_{i-|T|}, each with coefficient 1."""
    return {i: dict.fromkeys((t + tuple(int(j == i - r) for j in range(1, m - s + 1))
                              for r in range(s + 1) if 0 <= i - r <= m - s
                              for t in elementary_xpoly(r, s).terms), 1)
            for i in range(1, m + 1)}

"""Exact sparse polynomial arithmetic in two models.

EPoly lives in the free graded ring on generators e_1, e_2, ... (deg e_i = i),
truncated to e_i = 0 for i > m when a variable count m is set; XPoly is an
ordinary integer polynomial in x_1, ..., x_m.  Coefficients are Python ints,
so arithmetic is exact at any size.

E-monomials are weakly decreasing tuples of generator indices (the empty
tuple is 1); x-monomials are exponent tuples of fixed length m.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import add

XPANSION_VAR_LIMIT = 8


def _e_mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b, reverse=True))


def _x_mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
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


def mul_into(out: dict, a: dict, b: dict, k: int, mono_mul=_e_mono_mul) -> None:
    """Add k * a * b into ``out`` in place, for term maps with nonzero
    coefficients and k != 0, multiplying monomials with ``mono_mul`` (the
    e-monomial product by default); ``a`` is the outer loop."""
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

    def __init__(self, m, terms: dict[tuple[int, ...], int]):
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
        out: dict[tuple[int, ...], int] = {}
        mul_into(out, a, b, 1, mono_mul)
        return type(self)(self.m, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.m == other.m and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)


class EPoly(_SparsePoly):
    """Sparse integer polynomial in the graded generators e_1, e_2, ...

    ``m`` is the truncation level (e_i = 0 for i > m); ``m = None`` means no
    truncation.
    """

    __slots__ = ()

    @staticmethod
    def one(m: int | None) -> "EPoly":
        return EPoly(m, {(): 1})

    @staticmethod
    def gen(i: int, m: int | None) -> "EPoly":
        """The generator e_i; zero when i exceeds the truncation level."""
        if i < 0:
            raise ValueError("generator index must be nonnegative")
        if i == 0:
            return EPoly.one(m)
        if m is not None and i > m:
            return EPoly.zero(m)
        return EPoly(m, {(i,): 1})

    def __mul__(self, other):
        return self._mul(other, _e_mono_mul)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "EPoly(0)"
        bits = []
        for mono in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[mono]
            name = "*".join(f"e{i}" for i in mono) if mono else "1"
            bits.append(f"{c}*{name}")
        return "EPoly(" + " + ".join(bits) + ")"


class XPoly(_SparsePoly):
    """Sparse integer polynomial in x_1, ..., x_m, keyed by exponent tuples."""

    __slots__ = ()

    @staticmethod
    def one(m: int) -> "XPoly":
        return XPoly(m, {(0,) * m: 1})

    def __mul__(self, other):
        return self._mul(other, _x_mono_mul)

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


def negate_first(f: XPoly) -> XPoly:
    """The substitution x_1 -> -x_1."""
    return XPoly(f.m, {mono: (-c if mono[0] % 2 else c) for mono, c in f.terms.items()})


def swap_vars(f: XPoly, i: int) -> XPoly:
    """The substitution exchanging x_i and x_{i+1} (1-indexed)."""
    if not 1 <= i < f.m:
        raise ValueError(f"cannot swap x_{i}, x_{i + 1} with m={f.m}")
    out = {}
    for mono, c in f.terms.items():
        e = list(mono)
        e[i - 1], e[i] = e[i], e[i - 1]
        out[tuple(e)] = c
    return XPoly(f.m, out)


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


def is_symmetric(f: XPoly) -> bool:
    """True when f is invariant under every adjacent variable swap."""
    return all(swap_vars(f, i).terms == f.terms for i in range(1, f.m))


@cache
def elementary_xpoly(i: int, gens: int, total: int, shift: int = 0) -> XPoly:
    """e_i(x_{shift+1}, ..., x_{shift+gens}) as an XPoly in total variables."""
    if shift + gens > total:
        raise ValueError("shifted variables exceed the total variable count")
    terms = {}
    for combo in itertools.combinations(range(shift, shift + gens), i):
        e = [0] * total
        for pos in combo:
            e[pos] = 1
        terms[tuple(e)] = 1
    return XPoly(total, terms)


def epoly_to_xpoly(p: EPoly, total_vars: int | None = None, shift: int = 0) -> XPoly:
    """Expand an EPoly into x-variables, substituting each e_i by the
    elementary symmetric polynomial in x_{shift+1}, ..., x_{shift+m}.

    Guarded to m <= 8 expansion variables; the result is symmetric in the
    substituted block.
    """
    if p.m is None:
        raise ValueError("expansion requires a finite variable count")
    gens = p.m
    if gens > XPANSION_VAR_LIMIT:
        raise ValueError(f"x-expansion guarded to m <= {XPANSION_VAR_LIMIT}, got {gens}")
    total = total_vars if total_vars is not None else gens + shift
    out: dict[tuple[int, ...], int] = {}
    for mono, c in p.terms.items():
        term = XPoly.one(total)
        for i in mono:
            term = term * elementary_xpoly(i, gens, total, shift)
        add_into(out, term.terms.items(), c)
    return XPoly(total, out)

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from lgschubert.partitions import enumerate_partitions
from lgschubert.polyring import (
    E_WEIGHT_MASK,
    EPoly,
    XPoly,
    add_into,
    check_var_limit,
    ddiff0,
    ddiff1prime,
    e_key_bound,
    elementary_xpoly,
    mul_into,
    pack_e,
    pack_x,
    peel,
    times_x,
    unpack_e,
    unpack_x,
)
from lgschubert.qtilde import basis

M = 3


def X(m: int, terms: dict, s=None) -> XPoly:
    """An XPoly in m variables from a map of exponent tuples of length m,
    positions from s on read as e'_1, e'_2, ... (``pack_x``)."""
    return XPoly(m, pack_x(terms, s))


def exps(f: XPoly) -> dict:
    """The term map of f keyed by exponent tuples of length f.m."""
    return unpack_x(f.terms, f.m)


def negate_first(f: XPoly) -> XPoly:
    """The substitution x_1 -> -x_1."""
    return X(f.m, {mono: (-c if mono[0] % 2 else c) for mono, c in exps(f).items()})


def swap_vars(f: XPoly, i: int, s=None) -> XPoly:
    """The substitution exchanging x_i and x_{i+1} (1-indexed), for f
    peeled at s (both of them x-positions)."""
    if not 1 <= i < (f.m if s is None else s):
        raise ValueError(f"cannot swap x_{i}, x_{i + 1} with m={f.m}, s={s}")
    out = {}
    for mono, c in exps(f).items():
        e = list(mono)
        e[i - 1], e[i] = e[i], e[i - 1]
        out[tuple(e)] = c
    return X(f.m, out, s)


def is_symmetric(f: XPoly) -> bool:
    """True when f is invariant under every adjacent variable swap."""
    return all(swap_vars(f, i).terms == f.terms for i in range(1, f.m))


def xmono(*powers, m=M, c=1):
    return X(m, {tuple(powers) + (0,) * (m - len(powers)): c})


def E(m, terms):
    """An EPoly from a map of generator-index tuples to coefficients."""
    return EPoly(m, pack_e(terms))


def key(parts) -> int:
    """The packed key of one e-monomial."""
    (k,) = pack_e({tuple(parts): 1})
    return k


def epolys(m=3, max_terms=4):
    monos = st.lists(
        st.integers(min_value=1, max_value=m), min_size=0, max_size=3
    ).map(lambda parts: tuple(sorted(parts, reverse=True)))
    return st.dictionaries(monos, st.integers(-5, 5), max_size=max_terms).map(lambda d: E(m, d))


def xpolys(m=3, deg=4, max_terms=5):
    monos = st.tuples(*[st.integers(0, deg) for _ in range(m)])
    return st.dictionaries(monos, st.integers(-5, 5), max_size=max_terms).map(lambda d: X(m, d))


def per_monomial(p: EPoly) -> XPoly:
    """Oracle for the x-expansion: the sum over the e-monomials of p of the
    product of one elementary_xpoly factor per part."""
    out: dict = {}
    for mono, c in unpack_e(p.terms).items():
        add_into(out, x_monomial(mono, p.m).terms.items(), c)
    return XPoly(p.m, out)


@cache
def x_monomial(mono: tuple[int, ...], m: int) -> XPoly:
    """The product of elementary_xpoly(i, m) over the parts i of the
    e-monomial mono, memoised per (mono, m) so that monomials with a common
    tail share its product."""
    return elementary_xpoly(mono[0], m) * x_monomial(mono[1:], m) if mono else XPoly.one(m)


@cache
def basis_x(lam, m: int) -> XPoly:
    """The x-expansion of basis(lam, m) on x_1..x_m by ``per_monomial``,
    memoised per (lam, m); shared by every caller and not to be mutated."""
    return per_monomial(basis(lam, m))


class TestEPolyArithmetic:
    def test_basic_identities(self):
        e1, e2 = EPoly.gen(1, 3), EPoly.gen(2, 3)
        assert e1 * e1 == E(3, {(1, 1): 1})
        assert e2 + e2.scale(-1) == EPoly.zero(3)
        p = e1 * e2 - EPoly.gen(3, 3).scale(2)
        assert p.scale(3) == E(3, {(2, 1): 3, (3,): -6})

    def test_truncation_kills_high_generators(self):
        assert EPoly.gen(3, 2) == EPoly.zero(2)

    def test_var_count_mismatch(self):
        with pytest.raises(ValueError):
            EPoly.gen(1, 2) * EPoly.gen(1, 3)

    def test_cancelled_cross_terms_are_not_stored(self):
        # (e2 + e1)(e2 - e1) = e2^2 - e1^2: the two e2 e1 terms cancel
        e1, e2 = EPoly.gen(1, 3), EPoly.gen(2, 3)
        assert (e2 + e1) * (e2 - e1) == E(3, {(2, 2): 1, (1, 1): -1})

    @given(epolys(), epolys(), epolys())
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


GENERATOR_LISTS = st.lists(st.integers(min_value=1, max_value=12), max_size=8)


class TestPackedKey:
    """An e-monomial is one int: its weight in the low field, the
    multiplicity of e_i in field i."""

    @given(GENERATOR_LISTS, st.integers(-3, 3))
    def test_round_trip(self, parts, c):
        assert unpack_e(pack_e({tuple(parts): c})) == ({tuple(sorted(parts, reverse=True)): c}
                                                      if c else {})
        assert key(parts) & E_WEIGHT_MASK == sum(parts)

    @given(GENERATOR_LISTS, GENERATOR_LISTS)
    def test_product_is_the_multiset_union(self, a, b):
        assert key(a) + key(b) == key(a + b)

    def test_orders_of_one_monomial_add_up(self):
        assert pack_e({(1, 2): 1, (2, 1): 2, (3,): 4}) == {key((2, 1)): 3, key((3,)): 4}
        assert pack_e({(1, 2): 1, (2, 1): -1}) == {}

    def test_one_and_generators(self):
        assert EPoly.one(None).terms == {key(()): 1} == {0: 1}
        for i in (1, 2, 7):
            assert EPoly.gen(i, None).terms == {key((i,)): 1}

    @given(GENERATOR_LISTS, st.integers(min_value=0, max_value=13))
    def test_truncation_is_one_comparison(self, parts, m):
        """A key lies below ``e_key_bound(m)`` exactly when the top part of
        its monomial is at most m."""
        assert (key(parts) < e_key_bound(m)) == (max(parts, default=0) <= m)

    def test_weight_overflow_raises_instead_of_carrying(self):
        """Two EPolys of weight 40,000: the product's weight, 80,000, does
        not fit the weight field, and the multiplication raises rather than
        carry into the multiplicity of e_1.  The same guard bounds packing
        and the generators; weight 65,535 still fits."""
        e = EPoly.gen(40000, None)
        assert unpack_e(e.terms) == {(40000,): 1}
        for lhs, rhs in [(e, e), (e, e + EPoly.one(None)),
                         (E(None, {(1,) * 40000: 1}), E(None, {(20000, 20000): 2}))]:
            with pytest.raises(ValueError, match="^e-monomial weight 80000 exceeds 65535$"):
                lhs * rhs
            with pytest.raises(ValueError, match="exceeds 65535"):
                mul_into({}, lhs.terms, rhs.terms, 1)
        assert unpack_e(pack_e({(65535,): 1})) == {(65535,): 1}
        with pytest.raises(ValueError, match="^e-monomial weight 65536 exceeds 65535$"):
            EPoly.gen(65536, None)
        with pytest.raises(ValueError, match="exceeds 65535"):
            pack_e({(40000, 30000): 1})

    def test_rejects_nonpositive_generators(self):
        for parts in [(0,), (2, -1)]:
            with pytest.raises(ValueError, match="must be positive"):
                pack_e({parts: 1})

    def test_repr(self):
        assert repr(E(3, {(2, 1): 1, (3,): -2, (): 5})) == "EPoly(-2*e3 + 1*e2*e1 + 5*1)"
        assert repr(EPoly.zero(3)) == "EPoly(0)"


EXPONENT_VECTORS = st.integers(0, 6).flatmap(
    lambda m: st.tuples(st.lists(st.integers(0, 40), min_size=m, max_size=m).map(tuple),
                        st.none() | st.integers(0, m)))


class TestPackedXKey:
    """An x-monomial is one int in the layout of an e-monomial: its degree
    in the low field (e'_j counting j), the exponent at position h in field
    h + 1."""

    @given(EXPONENT_VECTORS, st.integers(-3, 3))
    def test_round_trip(self, vec, c):
        powers, s = vec
        packed = pack_x({powers: c}, s)
        assert unpack_x(packed, len(powers)) == ({powers: c} if c else {})
        cut = len(powers) if s is None else s
        degree = sum(powers[:cut]) + sum(j * e for j, e in enumerate(powers[cut:], 1))
        assert all(k & E_WEIGHT_MASK == degree for k in packed)

    @given(EXPONENT_VECTORS, st.data())
    def test_product_is_the_sum_of_keys(self, vec, data):
        a, s = vec
        b = tuple(data.draw(st.lists(st.integers(0, 40), min_size=len(a), max_size=len(a))))
        (ka,), (kb,) = pack_x({a: 1}, s), pack_x({b: 1}, s)
        assert pack_x({tuple(map(sum, zip(a, b))): 1}, s) == {ka + kb: 1}

    def test_prefix_moves_the_tail_up(self):
        """x^prefix times a form peeled at 0 on the other variables is the
        form in all of them peeled at len(prefix)."""
        tail = {(1, 0, 2): 3, (0, 0, 0): -1, (4, 1, 0): 2}
        got = dict(times_x((2, 1), pack_x(tail, 0)))
        assert got == pack_x({(2, 1) + e: c for e, c in tail.items()}, 2)
        assert dict(times_x((), pack_x(tail, 0))) == pack_x(tail, 0)

    def test_weight_overflow_raises_instead_of_carrying(self):
        """Two XPolys of degree 40,000: the product's degree, 80,000, does
        not fit the weight field, and the multiplication raises rather than
        carry into the exponent of x_1, with the message of the e-monomial
        guard.  e'_2^20000 has degree 40,000 from an exponent of 20,000, so
        the guard bounds the degree, not the exponents alone."""
        x = X(2, {(40000, 0): 1})
        tail = X(2, {(0, 20000): 1}, 0)
        for lhs, rhs in [(x, x), (x, x + XPoly.one(2)), (tail, tail), (x, tail)]:
            with pytest.raises(ValueError, match="^e-monomial weight 80000 exceeds 65535$"):
                lhs * rhs
            with pytest.raises(ValueError, match="exceeds 65535"):
                mul_into({}, lhs.terms, rhs.terms, 1)
        with pytest.raises(ValueError, match="exceeds 65535"):
            dict(times_x((40000,), tail.terms))
        assert exps(X(1, {(65535,): 1})) == {(65535,): 1}
        with pytest.raises(ValueError, match="^e-monomial weight 65536 exceeds 65535$"):
            pack_x({(30000, 35536): 1})
        with pytest.raises(ValueError, match="must be nonnegative"):
            pack_x({(1, -1): 1})


class TestXPolyArithmetic:
    def test_cancelled_cross_terms_are_not_stored(self):
        # (x1 + x2)(x1 - x2) = x1^2 - x2^2: the two x1 x2 terms cancel
        p = (xmono(1) + xmono(0, 1)) * (xmono(1) - xmono(0, 1))
        assert exps(p) == {(2, 0, 0): 1, (0, 2, 0): -1}

    def test_var_count_mismatch(self):
        with pytest.raises(ValueError):
            xmono(1, m=2) * xmono(1, m=3)

    @given(xpolys(max_terms=4), xpolys(max_terms=4), xpolys(max_terms=4))
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * XPoly.one(M) == a
        assert 0 not in (a * b).terms.values()


class TestExpansion:
    """``peel`` at s = m, the x-expansion on x_1..x_m, and at every s
    against the per-monomial oracle."""

    def test_elementary(self):
        e1 = peel(EPoly.gen(1, 2), 2)
        assert e1 == xmono(1, m=2) + xmono(0, 1, m=2)
        e2 = peel(EPoly.gen(2, 2), 2)
        assert e2 == xmono(1, 1, m=2)

    def test_power_sum_combination(self):
        # e1^2 - 2 e2 expands to x1^2 + x2^2
        p = E(2, {(1, 1): 1, (2,): -2})
        assert peel(p, 2) == xmono(2, m=2) + xmono(0, 2, m=2)

    def test_guard(self):
        """One guard, ``check_var_limit``, bounds every check built on the
        x-form, with one message."""
        check_var_limit(10)
        with pytest.raises(ValueError, match="^guarded to m <= 10, got 11$"):
            check_var_limit(11)

    def test_peel_raises_the_guard(self):
        """``peel``, the one x-form builder, raises the variable limit
        itself, so no check built on it needs its own call."""
        with pytest.raises(ValueError, match="^guarded to m <= 10, got 11$"):
            peel(basis((1,), 11), 1)
        assert peel(basis((1,), 10), 1) == X(10, {(1,) + (0,) * 9: 1, (0, 1) + (0,) * 8: 1}, 1)

    @given(epolys(m=3, max_terms=3), epolys(m=3, max_terms=3))
    @settings(max_examples=50)
    def test_ring_homomorphism(self, a, b):
        for s in range(a.m + 1):
            assert peel(a * b, s) == peel(a, s) * peel(b, s)
            assert peel(a + b, s) == peel(a, s) + peel(b, s)

    @given(epolys(m=3, max_terms=3))
    @settings(max_examples=50)
    def test_expansion_is_symmetric(self, a):
        assert is_symmetric(peel(a, a.m))

    @pytest.mark.parametrize("gens", [1, 2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=25)
    def test_matches_per_monomial_products(self, gens, data):
        """Peeled at every s and mapped back to x, the polynomial is the sum
        over e-monomials of products of elementary_xpoly factors, one factor
        per part.  Beside the drawn terms every case holds the empty
        monomial, a repeated part and a hand-built term led by e_{gens+1},
        which expands to zero."""
        terms = unpack_e(data.draw(epolys(m=gens, max_terms=6)).terms)
        terms.setdefault((), 3)
        terms.setdefault((gens, gens), -1)
        terms[(gens + 1, 1)] = data.draw(st.sampled_from((-2, 1)))
        p = E(gens, terms)
        want = per_monomial(p)
        for s in range(gens + 1):
            assert unpeel(peel(p, s), s) == want, s

    @pytest.mark.parametrize("terms", [
        {(1,) * 300: 1},
        {(2,) * 130 + (1,) * 140: -3, (1,) * 3: 2, (): 1},
    ])
    def test_exponents_beyond_one_byte(self, terms):
        """Exponents above 255 (e_1^300; e_2^130 e_1^140, on two variables)
        come out exact, with no width or range limit on an exponent."""
        p = E(2, terms)
        got = peel(p, 1)
        assert max(max(mono) for mono in exps(got)) > 255
        assert unpeel(got, 1) == per_monomial(p)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_basis_elements_match_per_monomial(self, m):
        """Every basis element of weight <= 2m in m variables, peeled at
        s = m, the form check (c) of ``qtilde.property_check`` reads."""
        for w in range(2 * m + 1):
            for lam in enumerate_partitions(w, m):
                assert peel(basis(lam, m), m) == basis_x(lam, m), lam

    def test_no_variables(self):
        # m = 0: a constant stays on the empty exponent vector, and every
        # generator expands to zero
        assert peel(E(0, {(): 7}), 0).terms == pack_x({(): 7}) == {0: 7}
        assert peel(E(0, {(): -2, (1,): 5, (2, 1): 1}), 0).terms == pack_x({(): -2})


def unpeel(f: XPoly, s: int) -> XPoly:
    """A polynomial peeled at s mapped back to x_1..x_m: each e'_j replaced
    by e_j(x_{s+1}, ..., x_m)."""
    m = f.m
    tail = [X(m, {(0,) * s + e: 1 for e in exps(elementary_xpoly(j, m - s))})
            for j in range(1, m - s + 1)]
    acc = XPoly.zero(m)
    for mono, c in exps(f).items():
        term = X(m, {mono[:s] + (0,) * (m - s): c})
        for g, b in zip(tail, mono[s:]):
            for _ in range(b):
                term = term * g
        acc = acc + term
    return acc


class TestPeel:
    """An EPoly written in x_1..x_s and the elementary symmetric functions
    e'_j of x_{s+1}..x_m."""

    @pytest.mark.parametrize("m", range(0, 6))
    def test_basis_elements_round_trip(self, m):
        """Every basis element of weight <= 2m, peeled at s <= 2 and mapped
        back to x, is its x-expansion."""
        for w in range(2 * m + 1):
            for lam in enumerate_partitions(w, m):
                want = basis_x(lam, m)
                for s in range(min(m, 2) + 1):
                    assert unpeel(peel(basis(lam, m), s), s) == want, (lam, s)

    def test_examples(self):
        # e_2(x_1, x_2, x_3) = x_1 e'_1 + e'_2, both of degree 2
        assert peel(EPoly.gen(2, 3), 1) == X(3, {(1, 1, 0): 1, (0, 0, 1): 1}, 1)
        # e_3(x_1, x_2, x_3) = x_1 x_2 e'_1, and e_1^2 = (x_1 + x_2 + e'_1)^2
        assert peel(EPoly.gen(3, 3), 2) == X(3, {(1, 1, 1): 1}, 2)
        e1 = xmono(1) + xmono(0, 1) + xmono(0, 0, 1)
        assert peel(E(3, {(1, 1): 1}), 2) == e1 * e1
        # at s = 0 each e-monomial is its own exponent vector of the e'_j
        assert peel(E(3, {(3, 1, 1): 4, (): -1}), 0) == X(3, {(2, 0, 1): 4, (0, 0, 0): -1}, 0)
        # a hand-built term led by e_{m+1} peels to zero
        assert not peel(E(2, {(3, 1): 1}), 1)

    def test_rejects_bad_counts(self):
        for p, s in [(EPoly.gen(1, 2), 3), (EPoly.gen(1, 2), -1), (EPoly.gen(1, None), 0)]:
            with pytest.raises(ValueError, match="cannot peel"):
                peel(p, s)


class TestDividedDifferences:
    def test_ddiff0_examples(self):
        assert ddiff0(xmono(1)) == xmono(0)
        assert ddiff0(xmono(2)) == XPoly.zero(M)
        assert ddiff0(xmono(3)) == xmono(2)

    def test_ddiff0_matches_definition(self):
        f = xmono(3, 1) + xmono(2, 2, c=5)
        num = f - negate_first(f)
        # every surviving term has odd, positive x1 exponent and even coefficient
        assert all(mono[0] % 2 == 1 for mono in exps(num))
        assert all(c % 2 == 0 for c in num.terms.values())
        got = ddiff0(f)
        assert X(M, {(m0[0] + 1,) + m0[1:]: 2 * c for m0, c in exps(got).items()}) == num

    def test_ddiff1prime_examples(self):
        assert ddiff1prime(xmono(1)) == xmono(0, c=-1)
        assert ddiff1prime(xmono(0, 1)) == xmono(0)
        assert ddiff1prime(xmono(1, 1)) == XPoly.zero(M)

    def test_ddiff1prime_exactness(self):
        f = xmono(4, 1) + xmono(2, 3, c=-2) + xmono(1, 1, 2, c=7)
        q = ddiff1prime(f)
        x2_minus_x1 = xmono(0, 1) - xmono(1)
        assert q * x2_minus_x1 == f - swap_vars(f, 1)

    @given(xpolys())
    @settings(max_examples=60)
    def test_nilpotence(self, f):
        assert ddiff0(ddiff0(f)) == XPoly.zero(f.m)
        assert ddiff1prime(ddiff1prime(f)) == XPoly.zero(f.m)

    @given(xpolys(max_terms=3), xpolys(max_terms=3))
    @settings(max_examples=40)
    def test_leibniz(self, f, g):
        lhs = ddiff0(f * g)
        rhs = ddiff0(f) * g + negate_first(f) * ddiff0(g)
        assert lhs == rhs

    @given(xpolys(deg=3, max_terms=3))
    @settings(max_examples=40)
    def test_braid_relation(self, f):
        def d1(h):
            return -ddiff1prime(h)

        lhs = d1(ddiff0(d1(ddiff0(f))))
        rhs = ddiff0(d1(ddiff0(d1(f))))
        assert lhs == rhs


class TestSymmetry:
    def test_examples(self):
        assert is_symmetric(xmono(1, m=2) + xmono(0, 1, m=2))
        assert not is_symmetric(xmono(1, m=2))
        assert is_symmetric(xmono(2, m=2) + xmono(0, 2, m=2))

    def test_elementary_cached_value(self):
        e = elementary_xpoly(2, 3)
        assert len(e.terms) == 3
        assert is_symmetric(e)

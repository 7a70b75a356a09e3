import pytest
from hypothesis import given, settings, strategies as st

from lgschubert.polyring import (
    EPoly,
    XPoly,
    ddiff0,
    ddiff1prime,
    elementary_xpoly,
    epoly_to_xpoly,
    is_symmetric,
    negate_first,
    swap_vars,
)

M = 3


def xmono(*exps, m=M, c=1):
    return XPoly(m, {tuple(exps) + (0,) * (m - len(exps)): c})


def epolys(m=3, max_terms=4):
    monos = st.lists(
        st.integers(min_value=1, max_value=m), min_size=0, max_size=3
    ).map(lambda parts: tuple(sorted(parts, reverse=True)))
    return st.dictionaries(monos, st.integers(-5, 5), max_size=max_terms).map(
        lambda d: EPoly(m, {k: v for k, v in d.items() if v})
    )


def xpolys(m=3, deg=4, max_terms=5):
    monos = st.tuples(*[st.integers(0, deg) for _ in range(m)])
    return st.dictionaries(monos, st.integers(-5, 5), max_size=max_terms).map(
        lambda d: XPoly(m, {k: v for k, v in d.items() if v})
    )


class TestEPolyArithmetic:
    def test_basic_identities(self):
        e1, e2 = EPoly.gen(1, 3), EPoly.gen(2, 3)
        assert e1 * e1 == EPoly(3, {(1, 1): 1})
        assert e2 + e2.scale(-1) == EPoly.zero(3)
        p = e1 * e2 - EPoly.gen(3, 3).scale(2)
        assert p.scale(3) == EPoly(3, {(2, 1): 3, (3,): -6})

    def test_truncation_kills_high_generators(self):
        assert EPoly.gen(3, 2) == EPoly.zero(2)

    def test_var_count_mismatch(self):
        with pytest.raises(ValueError):
            EPoly.gen(1, 2) * EPoly.gen(1, 3)

    def test_cancelled_cross_terms_are_not_stored(self):
        # (e2 + e1)(e2 - e1) = e2^2 - e1^2: the two e2 e1 terms cancel
        e1, e2 = EPoly.gen(1, 3), EPoly.gen(2, 3)
        assert ((e2 + e1) * (e2 - e1)).terms == {(2, 2): 1, (1, 1): -1}

    @given(epolys(), epolys(), epolys())
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


class TestXPolyArithmetic:
    def test_cancelled_cross_terms_are_not_stored(self):
        # (x1 + x2)(x1 - x2) = x1^2 - x2^2: the two x1 x2 terms cancel
        p = (xmono(1) + xmono(0, 1)) * (xmono(1) - xmono(0, 1))
        assert p.terms == {(2, 0, 0): 1, (0, 2, 0): -1}

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
    def test_elementary(self):
        e1 = epoly_to_xpoly(EPoly.gen(1, 2))
        assert e1 == xmono(1, m=2) + xmono(0, 1, m=2)
        e2 = epoly_to_xpoly(EPoly.gen(2, 2))
        assert e2 == xmono(1, 1, m=2)

    def test_power_sum_combination(self):
        # e1^2 - 2 e2 expands to x1^2 + x2^2
        p = EPoly(2, {(1, 1): 1, (2,): -2})
        assert epoly_to_xpoly(p) == xmono(2, m=2) + xmono(0, 2, m=2)

    def test_shifted_block(self):
        # e1 on x2..x3 inside three variables
        p = EPoly.gen(1, 2)
        got = epoly_to_xpoly(p, total_vars=3, shift=1)
        assert got == xmono(0, 1, 0) + xmono(0, 0, 1)

    def test_guard(self):
        with pytest.raises(ValueError):
            epoly_to_xpoly(EPoly.gen(1, 9))

    @given(epolys(m=3, max_terms=3), epolys(m=3, max_terms=3))
    @settings(max_examples=50)
    def test_ring_homomorphism(self, a, b):
        assert epoly_to_xpoly(a * b) == epoly_to_xpoly(a) * epoly_to_xpoly(b)
        assert epoly_to_xpoly(a + b) == epoly_to_xpoly(a) + epoly_to_xpoly(b)

    @given(epolys(m=3, max_terms=3))
    @settings(max_examples=50)
    def test_expansion_is_symmetric(self, a):
        assert is_symmetric(epoly_to_xpoly(a))


class TestDividedDifferences:
    def test_ddiff0_examples(self):
        assert ddiff0(xmono(1)) == xmono(0)
        assert ddiff0(xmono(2)) == XPoly.zero(M)
        assert ddiff0(xmono(3)) == xmono(2)

    def test_ddiff0_matches_definition(self):
        f = xmono(3, 1) + xmono(2, 2, c=5)
        num = f - negate_first(f)
        # every surviving term has odd, positive x1 exponent and even coefficient
        assert all(mono[0] % 2 == 1 for mono in num.terms)
        assert all(c % 2 == 0 for c in num.terms.values())
        got = ddiff0(f)
        assert XPoly(M, {(m0[0] + 1,) + m0[1:]: 2 * c for m0, c in got.terms.items()}) == num

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
        e = elementary_xpoly(2, 3, 3)
        assert len(e.terms) == 3
        assert is_symmetric(e)

import itertools
import re
from fractions import Fraction
from math import comb

import pytest

from lgschubert import qtilde as qtilde_module, suites, symplectic
from lgschubert.partitions import all_strict_upto, enumerate_partitions, pfaffian_terms, straighten
from lgschubert.polyring import EPoly, XPoly, add_into, ddiff0, ddiff1prime, pack_x, peel, unpack_e, unpack_x
from lgschubert.qtilde import basis, qtilde
from lgschubert.symplectic import (
    _peel_into,
    c_double_prime,
    c_prime,
    comb0,
    dawson,
    verify_cprime_expansion,
    verify_extension_formula,
    verify_lem2,
    verify_pfaffian_identity_double_prime,
    verify_pfaffian_identity_prime,
)
from test_polyring import X, basis_x, exps, per_monomial, swap_vars, unpeel


def on_tail(f: XPoly, s: int) -> XPoly:
    """f moved onto x_{s+1}, x_{s+2}, ...: s zero exponents prepended to
    each monomial."""
    return X(f.m + s, {(0,) * s + e: c for e, c in exps(f).items()})


def tail_qtilde(a: int, m: int, s: int) -> XPoly:
    """One-row basis element on x_{s+1}..x_m; zero for a < 0."""
    if a < 0:
        return XPoly.zero(m)
    return on_tail(basis_x((a,) if a else (), m - s), s)


class TestCPrime:
    def test_examples(self):
        assert c_prime((1,), 2) == XPoly.one(2)
        assert c_prime((1, 1), 2) == XPoly.zero(2)
        # two-row value matches its closed form on the tail variables
        m = 3
        got = unpeel(c_prime((2, 1), m), 1)
        q1 = tail_qtilde(1, m, 1)
        q2 = tail_qtilde(2, m, 1)
        assert got == q1 * q1 - q2

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            c_prime((), 3)

    @pytest.mark.parametrize("m", [3, 4])
    def test_two_row_closed_form(self, m):
        # c_prime(a, b) = Q_{a-1}(X') Q_b(X') - Q_a(X') Q_{b-1}(X')
        for a in range(1, m + 1):
            for b in range(0, a):
                got = unpeel(c_prime((a, b) if b else (a,), m), 1)
                want = tail_qtilde(a - 1, m, 1) * tail_qtilde(b, m, 1) - tail_qtilde(
                    a, m, 1
                ) * tail_qtilde(b - 1, m, 1)
                assert got == want

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_kernel_of_ddiff0(self, m):
        for lam in all_strict_upto(m):
            if lam:
                assert ddiff0(c_prime(lam, m)) == XPoly.zero(m)


class TestCDoublePrime:
    def test_examples(self):
        assert c_double_prime((2, 1), 3) == XPoly.one(3)
        assert unpeel(c_double_prime((3, 1), 4), 2) == tail_qtilde(1, 4, 2)

    @pytest.mark.parametrize("m", [4, 5])
    def test_two_row_closed_form(self, m):
        # c_double_prime(a, b) = Q_{a-2}Q_{b-1} - Q_{a-1}Q_{b-2} on x_3...
        for a in range(2, m + 1):
            for b in range(1, a):
                got = unpeel(c_double_prime((a, b), m), 2)
                want = tail_qtilde(a - 2, m, 2) * tail_qtilde(
                    b - 1, m, 2
                ) - tail_qtilde(a - 1, m, 2) * tail_qtilde(b - 2, m, 2)
                assert got == want

    @pytest.mark.parametrize("m", [3, 4])
    def test_lies_in_even_symmetric_subring(self, m):
        """Invariant under x1 -> -x1 and under x1 <-> x2."""
        for lam in all_strict_upto(m):
            if len(lam) < 2:
                continue
            f = c_double_prime(lam, m)
            assert all(e[0] % 2 == 0 for e in exps(f))
            assert swap_vars(f, 1, 2) == f
            assert ddiff0(f) == XPoly.zero(m)
            assert ddiff1prime(f) == XPoly.zero(m)


class TestIdentityVerifiers:
    @pytest.mark.parametrize("lam,m", [((2, 1), 3), ((3, 2, 1), 4), ((1,), 2)])
    def test_cprime_expansion(self, lam, m):
        assert verify_cprime_expansion(lam, m)

    @pytest.mark.parametrize(
        "lam,m", [((3, 2, 1), 3), ((4, 3, 2, 1), 4), ((4, 3, 1), 4)]
    )
    def test_pfaffian_prime(self, lam, m):
        assert verify_pfaffian_identity_prime(lam, m)

    @pytest.mark.parametrize("lam,m", [((4, 3, 2, 1), 4), ((5, 4, 2, 1), 5)])
    def test_pfaffian_double_prime(self, lam, m):
        assert verify_pfaffian_identity_double_prime(lam, m)

    def test_pfaffian_double_prime_rejects_odd_length(self):
        with pytest.raises(ValueError):
            verify_pfaffian_identity_double_prime((5, 4, 3, 2, 1), 5)

    @pytest.mark.parametrize("lam,m", [((2, 1), 3), ((3, 2), 4), ((4, 3, 2, 1), 5)])
    def test_lem2(self, lam, m):
        assert verify_lem2(lam, m)

    @pytest.mark.parametrize("c,lam", [
        (c_prime, (1, 2)), (c_prime, (-1,)), (c_double_prime, (2, 0)),
    ])
    def test_divided_differences_reject_non_partitions(self, c, lam):
        with pytest.raises(ValueError, match=f"^{re.escape(str(lam))} is not a partition$"):
            c(lam, 3)

    @pytest.mark.parametrize("verify", [verify_cprime_expansion, verify_pfaffian_identity_prime,
                                        verify_pfaffian_identity_double_prime, verify_lem2])
    @pytest.mark.parametrize("lam", [(4, 4, 2, 1), (1, 2, 3, 4), (4, 3, 2, 0)])
    def test_strict_checks_reject_non_strict(self, verify, lam):
        with pytest.raises(ValueError, match=f"^{re.escape(str(lam))} is not a strict partition$"):
            verify(lam, 4)

    @pytest.mark.parametrize("verify,lam", [
        (verify_cprime_expansion, ()), (verify_pfaffian_identity_prime, (2, 1)),
        (verify_pfaffian_identity_double_prime, (3, 2, 1)), (verify_lem2, (3, 2, 1)),
    ])
    def test_strict_checks_keep_their_length_rules(self, verify, lam):
        with pytest.raises(ValueError, match="length|nonempty"):
            verify(lam, 4)

    def test_var_limit_guard(self):
        with pytest.raises(ValueError, match="guarded to m <= 10, got 11"):
            c_prime((1,), 11)
        assert c_prime((1,), 10) == XPoly.one(10)


def straightened(lam, ones, twos) -> dict:
    """The map partition -> summed sign of every lam - delta holding exactly
    ``ones`` ones and ``twos`` twos, each pattern straightened afresh, the
    signs that cancel dropped."""
    ell = len(lam)
    acc: dict = {}
    for two in itertools.combinations(range(ell), twos):
        for one in itertools.combinations([i for i in range(ell) if i not in two], ones):
            sign, nu_hat = straighten([p - 2 * (i in two) - (i in one) for i, p in enumerate(lam)])
            if sign:
                add_into(acc, ((nu_hat, sign),))
    return acc


def full_peel(prefix, lam, ones, twos, m, k=1) -> XPoly:
    """Full-map oracle of one peeling step: x^prefix times k * sign times
    the basis element of each straightened lam - delta on x_{s+1}..x_m, as
    one term map on x_1..x_m."""
    s = len(prefix)
    acc: dict = {}
    for nu_hat, sign in straightened(lam, ones, twos).items():
        add_into(acc, ((prefix + e, c) for e, c in exps(basis_x(nu_hat, m - s)).items()), k * sign)
    return X(m, acc)


def full_extension_rhs(lam, m) -> XPoly:
    return sum((full_peel((k,), lam, k, 0, m) for k in range(len(lam) + 1)), XPoly.zero(m))


def full_cprime_rhs(lam, m) -> XPoly:
    return sum((full_peel((k - 1,), lam, k, 0, m) for k in range(1, len(lam) + 1, 2)),
               XPoly.zero(m))


def full_lem2_rhs(lam, m) -> XPoly:
    acc = XPoly.zero(m)
    for r in range(0, len(lam), 2):
        for s in range(0, r + 1, 2):
            for b in range(0, (r + s + 3) // 2 + 1):
                a = r + s + 3 - 2 * b
                co = comb0(a - 1, s + 1 - b)
                for prefix in {(r, s), (s, r)} if co else ():
                    acc = acc + full_peel(prefix, lam, a, b, m, co)
    return acc


def full_c_prime(lam, m) -> XPoly:
    return ddiff0(basis_x(lam, m))


def full_c_double_prime(lam, m) -> XPoly:
    return ddiff0(ddiff1prime(ddiff0(basis_x(lam, m))))


def full_pfaffian_sum(c, lam, m) -> XPoly:
    """The Pfaffian alternating sum on full term maps."""
    acc = XPoly.zero(m)
    for sign, pair, rest in pfaffian_terms(lam):
        acc = acc + (c(pair, m) * c(rest, m)).scale(sign)
    return acc


def strict_cases(lo, m, keep):
    return [(lam, mm) for mm in range(lo, m + 1) for lam in all_strict_upto(mm) if keep(lam)]


class TestFullMapOracle:
    """The checks on peeled forms against the full term maps on x_1..x_m
    that they stand for, on every case of the sweeps at m <= 5: the peeled
    form is exact, so the verdicts agree, and c_prime and c_double_prime
    mapped back to x are the full divided differences."""

    def test_extension(self):
        cases = [(lam, mm) for mm in range(1, 6) for w in range(2 * mm + 1)
                 for lam in enumerate_partitions(w, mm)]
        for lam, m in cases:
            want = basis_x(lam, m) == full_extension_rhs(lam, m)
            assert verify_extension_formula(lam, m) == want, (lam, m)

    def test_cprime_expansion(self):
        for lam, m in strict_cases(1, 5, bool):
            want = full_c_prime(lam, m) == full_cprime_rhs(lam, m)
            assert verify_cprime_expansion(lam, m) == want, (lam, m)
            assert unpeel(c_prime(lam, m), 1) == full_c_prime(lam, m), (lam, m)

    def test_lem2(self):
        for lam, m in strict_cases(2, 5, lambda lam: lam and len(lam) % 2 == 0):
            want = full_c_double_prime(lam, m) == full_lem2_rhs(lam, m)
            assert verify_lem2(lam, m) == want, (lam, m)
            assert unpeel(c_double_prime(lam, m), 2) == full_c_double_prime(lam, m), (lam, m)

    @pytest.mark.parametrize("verify,c,lo,keep", [
        (verify_pfaffian_identity_prime, full_c_prime, 3, lambda lam: len(lam) >= 3),
        (verify_pfaffian_identity_double_prime, full_c_double_prime, 4,
         lambda lam: len(lam) >= 4 and len(lam) % 2 == 0),
    ])
    def test_pfaffian(self, verify, c, lo, keep):
        for lam, m in strict_cases(lo, 5, keep):
            assert verify(lam, m) == (not full_pfaffian_sum(c, lam, m)), (lam, m)

    @pytest.mark.parametrize("c,full,s,lo,keep", [
        (c_prime, full_c_prime, 1, 3, lambda lam: len(lam) >= 3),
        (c_double_prime, full_c_double_prime, 2, 4,
         lambda lam: len(lam) >= 4 and len(lam) % 2 == 0),
    ])
    def test_pfaffian_sum_of_shifted_values(self, c, full, s, lo, keep):
        """With 1 added to every value the alternating sum no longer
        vanishes, and its products of peeled forms map back to the sum of
        products of the full maps."""
        for lam, m in strict_cases(lo, 5, keep):
            got = qtilde_module.pfaffian_sum(lambda nu, m: c(nu, m) + XPoly.one(m), lam, m)
            want = full_pfaffian_sum(lambda nu, m: full(nu, m) + XPoly.one(m), lam, m)
            assert want and unpeel(XPoly(m, got), s) == want, (lam, m)

    def test_non_symmetric_perturbation_needs_the_full_check(self):
        """x_3 added to the left side of the extension check for (2, 1) on
        three variables breaks its symmetry in the tail x_2, x_3.  A peeled
        form maps back to a polynomial symmetric in the tail, so it cannot
        carry that perturbation, and only the full comparison catches it;
        both sides of the check are symmetric in the tail by construction."""
        lam, m = (2, 1), 3
        f = basis_x(lam, m) + X(m, {(0, 0, 1): 1})
        assert swap_vars(f, 2) != f
        lhs = unpeel(symplectic._peeled(lam, m, 1), 1)
        assert lhs == basis_x(lam, m) and swap_vars(lhs, 2) == lhs
        assert f != full_extension_rhs(lam, m)
        assert basis_x(lam, m) == full_extension_rhs(lam, m)


class TestPeelKernel:
    """_peel_into against a brute-force sum over every decrement vector on
    full term maps, and the comparison of the checks."""

    @staticmethod
    def brute(prefix, lam, ones, twos, m, k):
        s = len(prefix)
        mono = X(m, {prefix + (0,) * (m - s): 1})
        acc = XPoly.zero(m)
        for delta in itertools.product((0, 1, 2), repeat=len(lam)):
            if delta.count(1) == ones and delta.count(2) == twos:
                nu = [p - d for p, d in zip(lam, delta)]
                acc = acc + mono * on_tail(per_monomial(qtilde(nu, m - s)), s).scale(k)
        return acc

    @pytest.mark.parametrize("lam", [
        (), (1,), (3,), (2, 1), (1, 1), (2, 2), (3, 1, 1), (4, 2, 1), (2, 2, 1, 1), (4, 3, 2, 1),
    ])
    @pytest.mark.parametrize("prefix,m,k", [((2,), 4, 1), ((1, 3), 4, -3), ((1, 3), 5, 2)])
    def test_matches_brute_force(self, lam, prefix, m, k):
        for ones in range(len(lam) + 2):
            for twos in range(len(lam) + 2 - ones):
                out: dict = {}
                _peel_into(out, prefix, lam, ones, twos, m, k)
                assert all(e[:len(prefix)] == prefix for e in unpack_x(out, m))
                got = unpeel(XPoly(m, out), len(prefix))
                assert got == self.brute(prefix, lam, ones, twos, m, k), (ones, twos)

    def test_cancelled_slice_passes(self):
        # peeling one part of (1, 1) gives (0, 1) and (1, 0), which
        # straighten to -(1) and (1): the terms on x_1 cancel, and the
        # extension check still holds
        rhs: dict = {}
        for k in range(3):
            _peel_into(rhs, (k,), (1, 1), k, 0, 2)
        assert all(e[0] != 1 for e in unpack_x(rhs, 2))
        assert symplectic._peeled((1, 1), 2, 1).terms == rhs
        assert verify_extension_formula((1, 1), 2)

    def test_stray_slice_fails(self):
        rhs: dict = {}
        for k in range(3):
            _peel_into(rhs, (k,), (2, 1), k, 0, 3)
        lhs = symplectic._peeled((2, 1), 3, 1).terms
        assert lhs == rhs
        # a nonzero term on a power of x_1 that the left side lacks
        assert all(e[0] != 5 for e in unpack_x(lhs, 3))
        rhs.update(pack_x({(5, 0, 0): 1}, 1))
        assert lhs != rhs


class TestPeeledRecursion:
    """``_peeled`` follows the recursion of ``qtilde.basis`` on peeled
    forms; the oracle peels the whole e-form of the basis element."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_equals_peeling_the_basis_element(self, m):
        # non-strict partitions too: the extension suite peels them
        for w in range(2 * m + 1):
            for lam in enumerate_partitions(w, m):
                for s in range(min(m, 2) + 1):
                    assert symplectic._peeled(lam, m, s) == peel(basis(lam, m), s), (lam, s)

    def test_suites_peel_no_multi_row_e_form(self, monkeypatch):
        """The five x-identity suites peel no basis element of more than two
        rows: every EPoly that ``peel`` receives has monomials of at most two
        generators, and ``_peeled`` is asked for s = 1 and s = 2 only, since
        at s = 0 the right-hand sides read the e-form from ``basis``, which
        is already the peeled form there.  Longer elements are peeled
        through the recursion of ``basis`` on peeled forms."""
        real_peel, real_peeled = symplectic.peel, symplectic._peeled
        sizes, levels = set(), set()

        def peel_spy(p, s):
            sizes.update(map(len, unpack_e(p.terms)))
            return real_peel(p, s)

        def peeled_spy(lam, m, s):
            levels.add(s)
            return real_peeled(lam, m, s)

        monkeypatch.setattr(symplectic, "peel", peel_spy)
        monkeypatch.setattr(symplectic, "_peeled", peeled_spy)
        for memo in (basis, real_peeled, symplectic.c_prime, symplectic.c_double_prime):
            memo.cache_clear()
        for suite in (suites.suite_extension, suites.suite_cprime_expansion, suites.suite_lem2,
                      suites.suite_pfaffian_prime, suites.suite_pfaffian_double_prime):
            assert suite(6) == []
        assert max(sizes) == 2
        assert levels == {1, 2}
        assert real_peeled.cache_info().misses > 0


class TestRunRule:
    """_peel_terms without twos straightens run by run of equal parts: the
    straighten-every-pattern map is its oracle, and the run weight is the
    signed count of 0/1 words."""

    @pytest.fixture(autouse=True)
    def clear_memos(self):
        symplectic._peel_terms.cache_clear()
        yield
        symplectic._peel_terms.cache_clear()

    def test_matches_straightening_every_pattern(self):
        cases = [(lam, k) for w in range(15) for lam in enumerate_partitions(w, w)
                 for k in range(len(lam) + 1)]
        assert len(cases) == 3055
        for lam, k in cases:
            got = dict((nu, s) for s, nu in symplectic._peel_terms(lam, k, 0))
            assert got == straightened(lam, k, 0), (lam, k)

    def test_run_weight_counts_signed_words(self):
        for r in range(11):
            for j in range(r + 1):
                words = (w for w in itertools.product((0, 1), repeat=r) if sum(w) == j)
                want = sum((-1) ** sum(w[a] > w[b] for a, b in itertools.combinations(range(r), 2))
                           for w in words)
                assert symplectic._run_weight(r, j) == want, (r, j)

    @pytest.mark.parametrize("weight", [
        comb,
        lambda r, j: comb(r // 2, j // 2),
    ], ids=["unsigned", "no-zero-for-even-r-odd-j"])
    def test_wrong_run_weight_fails_extension(self, monkeypatch, weight):
        assert suites.suite_extension(4) == []
        symplectic._peel_terms.cache_clear()
        monkeypatch.setattr(symplectic, "_run_weight", weight)
        assert suites.suite_extension(4)

    def test_extension_and_cprime_never_straighten(self, monkeypatch):
        """Only lem2, with its twos, still straightens; the counter sees its
        calls, so a count of 0 is not vacuous."""
        calls = []

        def counted(seq):
            calls.append(seq)
            return straighten(seq)

        monkeypatch.setattr(symplectic, "straighten", counted)
        symplectic._peeled.cache_clear()
        assert suites.suite_extension(4) == []
        assert suites.suite_cprime_expansion(5) == []
        assert calls == []
        assert suites.suite_lem2(3) == [] and calls


class TestPeelingChecksCanFail:
    """The checks compare raw term maps; one wrong term in one basis element
    read by a peeling check must make it, and its suite, fail, and so must
    one wrong term in one c_prime or c_double_prime value for the Pfaffian
    identities.  Each perturbed element is one that the left side of the
    failing check does not read.  The memos of the peeled forms are emptied
    when an element is perturbed and after each test."""

    MEMOS = (symplectic._peeled, symplectic.c_prime, symplectic.c_double_prime)

    @pytest.fixture(autouse=True)
    def clear_memos_after(self):
        yield
        for memo in self.MEMOS:
            memo.cache_clear()

    def perturb(self, monkeypatch, name, lam):
        """Add e_1 to symplectic.basis at lam, or the constant 1 to the
        value of c_prime or c_double_prime at lam, in every variable
        count."""
        real = getattr(symplectic, name)
        extra = (lambda m: EPoly.gen(1, m)) if name == "basis" else XPoly.one

        def fake(nu, m):
            f = real(nu, m)
            return f + extra(m) if nu == lam else f

        monkeypatch.setattr(symplectic, name, fake)
        for memo in self.MEMOS:
            memo.cache_clear()

    @pytest.mark.parametrize("verify,suite,name", [
        (verify_extension_formula, suites.suite_extension, "extension"),
        (verify_cprime_expansion, suites.suite_cprime_expansion, "cprime-expansion"),
    ])
    def test_one_wrong_term_fails(self, monkeypatch, verify, suite, name):
        # (2, 1) peels to distinct elements, (2,) among them, so the wrong
        # term cannot cancel; the left side reads (2, 1) alone
        assert verify((2, 1), 3) and suite(2) == []
        self.perturb(monkeypatch, "basis", (2,))
        assert not verify((2, 1), 3)
        assert {"suite": name, "lam": (2, 1), "m": 2} in suite(2)

    def test_lem2_wrong_shift_two_term_fails(self, monkeypatch):
        # (2, 1) peels to the empty partition alone, on x_3..x_m, which no
        # left side of lem2 reads
        assert verify_lem2((2, 1), 3) and suites.suite_lem2(3) == []
        self.perturb(monkeypatch, "basis", ())
        assert not verify_lem2((2, 1), 3)
        assert {"suite": "lem2", "lam": (2, 1), "m": 3} in suites.suite_lem2(3)

    @pytest.mark.parametrize("verify,name,lam,pair", [
        (verify_pfaffian_identity_prime, "c_prime", (3, 2, 1), (3,)),
        (verify_pfaffian_identity_double_prime, "c_double_prime", (4, 3, 2, 1), (4, 1)),
    ])
    def test_pfaffian_wrong_term_fails(self, monkeypatch, verify, name, lam, pair):
        # the wrong constant term adds the nonzero value at the rest of the
        # pair's term, and no other term changes
        m = len(lam)
        assert verify(lam, m)
        self.perturb(monkeypatch, name, pair)
        assert not verify(lam, m)


class TestDawson:
    def test_examples(self):
        assert dawson(0, 0)
        assert dawson(2, 0)  # 4 - 8 + 6 = 2 = C(2, 1)
        assert dawson(3, 1)  # -12 + 24 - 15 = -3 = -C(3, 2)

    def test_sweep(self):
        assert all(dawson(p, q) for p in range(13) for q in range(-p - 2, p + 3))

    def test_comb0_guards(self):
        assert comb0(3, -1) == 0
        assert comb0(3, 4) == 0
        assert comb0(-1, 0) == 0
        assert comb0(4, 2) == 6


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


class TestRecursionCoefficients:
    def test_final_coefficient_vanishes(self):
        for r in range(0, 21, 2):
            for s in range(0, r + 1, 2):
                if r + s <= 20:
                    assert em_recursion_final(r, s) == 0

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            em_recursion_final(3, 1)

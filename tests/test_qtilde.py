import random

import pytest

from lgschubert import qtilde as qtilde_module
from lgschubert.partitions import enumerate_partitions, is_strict, pfaffian_terms
from lgschubert.polyring import EPoly, elementary_xpoly, pack_e, peel, unpack_e
from lgschubert.qtilde import (
    basis,
    expand_in_basis,
    f_constant,
    qtilde,
    stable_expansion,
)
from lgschubert.quantum import pieri_row
from lgschubert.suites import suite_qtilde_properties
from lgschubert.symplectic import verify_extension_formula
from test_polyring import X, basis_x, exps, swap_vars


def E(m, **monos):
    """Shorthand: E(3, e21=1, e3=-2) = e2*e1 - 2*e3."""
    terms = {}
    for name, c in monos.items():
        terms[tuple(int(ch) for ch in name[1:])] = c
    return EPoly(m, pack_e(terms))


class TestPairs:
    def test_examples(self):
        assert qtilde((1, 1), 2) == E(2, e11=1, e2=-2)
        assert qtilde((2, 1), 2) == E(2, e21=1)
        assert qtilde((3, 0), 3) == E(3, e3=1)
        assert qtilde((0, 0), 3) == EPoly.one(3)


class TestBasis:
    def test_truncation_filters_the_untruncated_element(self):
        """basis(lam, m) is basis(lam, None) less the monomials whose top
        part exceeds m, and truncating inside the Pfaffian recursion gives
        the same element (truncation is a ring homomorphism)."""
        for w in range(9):
            for lam in enumerate_partitions(w, w):
                full = basis(lam, None)
                for m in range(1, 7):
                    kept = {mono: c for mono, c in unpack_e(full.terms).items()
                            if max(mono, default=0) <= m}
                    assert basis(lam, m) == EPoly(m, pack_e(kept))
                    if len(lam) > 2:
                        acc = EPoly.zero(m)
                        for sign, pair, rest in pfaffian_terms(lam):
                            acc = acc + (basis(pair, m) * basis(rest, m)).scale(sign)
                        assert basis(lam, m) == acc

    def test_repeated_parts_match_the_pfaffian_recursion(self):
        """basis splits an equal pair off a partition with a repeated part;
        the Pfaffian recursion along the last column, which never splits,
        gives the same element for every such partition of weight <= 10.
        Partitions of at most two parts take the pair formula on both
        sides."""
        memo = {}

        def pfaffian(lam):
            if len(lam) <= 2:
                return basis(lam, None)
            if lam not in memo:
                acc = EPoly.zero(None)
                for sign, pair, rest in pfaffian_terms(lam):
                    acc = acc + (pfaffian(pair) * pfaffian(rest)).scale(sign)
                memo[lam] = acc
            return memo[lam]

        checked = 0
        for w in range(11):
            for lam in enumerate_partitions(w, w):
                if not is_strict(lam):
                    assert basis(lam, None) == pfaffian(lam), lam
                    checked += 1
        assert checked == 96


class TestQtilde:
    def test_examples(self):
        assert qtilde((2, 1), 3) == E(3, e21=1, e3=-2)
        assert qtilde((1, 2), 3) == E(3, e21=-1, e3=2)
        assert qtilde((4, 1), 3) == EPoly.zero(3)
        assert qtilde((2, -1), 5) == EPoly.zero(5)

    def test_three_row_pfaffian(self):
        m = 3
        lhs = qtilde((3, 2, 1), m)
        rhs = (
            qtilde((3, 2), m) * EPoly.gen(1, m)
            - qtilde((3, 1), m) * EPoly.gen(2, m)
            + qtilde((3,), m) * qtilde((2, 1), m)
        )
        assert lhs == rhs

    def test_pfaffian_relation_for_arbitrary_sequences(self):
        """The last-column expansion holds for any index sequence, so
        expanding along any column (i.e. after any permutation) agrees."""
        rng = random.Random(7)
        m = 6
        for _ in range(25):
            r = rng.choice((2, 4))
            seq = tuple(rng.randrange(0, 5) for _ in range(r))
            lhs = qtilde(seq, m)
            rhs = EPoly.zero(m)
            for j in range(r - 1):
                rest = seq[:j] + seq[j + 1 : r - 1]
                term = qtilde((seq[j], seq[r - 1]), m) * qtilde(rest, m)
                rhs = rhs + term.scale((-1) ** j)
            assert lhs == rhs

    def test_matching_sum_cross_check(self):
        """Independent oracle: signed sum over perfect matchings of the
        index positions, with pair entries sorted inside each matching."""

        def pairings(idx):
            if not idx:
                yield []
                return
            first = idx[0]
            for t in range(1, len(idx)):
                rest = idx[1:t] + idx[t + 1 :]
                for tail in pairings(rest):
                    yield [(first, idx[t])] + tail

        def perm_sign(perm):
            inv = sum(
                1
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
                if perm[i] > perm[j]
            )
            return -1 if inv % 2 else 1

        rng = random.Random(11)
        for _ in range(10):
            ell = rng.choice((2, 4))
            lam = tuple(
                sorted((rng.randrange(1, 6) for _ in range(ell)), reverse=True)
            )
            m = sum(lam)
            acc = EPoly.zero(m)
            for match in pairings(tuple(range(ell))):
                flat = [p for pair in match for p in pair]
                term = EPoly.one(m)
                for i, j in match:
                    term = term * qtilde((lam[i], lam[j]), m)
                acc = acc + term.scale(perm_sign(flat))
            assert acc == qtilde(lam, m)

    def test_expansions_are_symmetric_polynomials(self):
        for lam in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]:
            f = peel(qtilde(lam, 3), 3)
            assert swap_vars(f, 1) == f == swap_vars(f, 2)


class TestExpandInBasis:
    def test_examples(self):
        assert expand_in_basis(E(2, e11=1)) == {(2,): 2, (1, 1): 1}
        assert expand_in_basis(EPoly.zero(4)) == {}
        for lam in enumerate_partitions(5, 3):
            assert expand_in_basis(qtilde(lam, 3)) == {lam: 1}

    def test_round_trip_mixed_weights(self):
        f = E(3, e21=3, e3=-1, e1=2)
        coeffs = expand_in_basis(f)
        back = EPoly.zero(3)
        for lam, c in coeffs.items():
            back = back + qtilde(lam, 3).scale(c)
        assert back == f


class TestStructureConstants:
    def test_basic(self):
        assert stable_expansion((1,), (1,)) == {(2,): 2, (1, 1): 1}
        assert stable_expansion((3, 1), ()) == {(3, 1): 1}

    def test_known_expansion_coefficients(self):
        sc = stable_expansion((3, 2, 1), (3, 2, 1))
        assert sc[(4, 4, 4)] == 8
        assert sc[(4, 3, 2, 2, 1)] == 4
        assert sc[(4, 2, 2, 2, 2)] == 4
        assert sc[(4, 4, 2, 2)] == -4

    def test_commutativity_and_associativity(self):
        rng = random.Random(3)
        pool = [lam for w in range(6) for lam in enumerate_partitions(w, w)]
        for _ in range(15):
            lam, mu, nu = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ab = stable_expansion(lam, mu)
            # the memo serves both orders from one expansion: compare with
            # the product taken in the other order, unmemoised
            assert ab == expand_in_basis(basis(mu, None) * basis(lam, None))
            # ((lam mu) nu) vs (lam (mu nu)) on a random target key
            targets = set()
            for tau, c in ab.items():
                targets.update(stable_expansion(tau, nu))
            for target in list(targets)[:10]:
                lhs = sum(
                    c * stable_expansion(tau, nu).get(target, 0)
                    for tau, c in ab.items()
                )
                rhs = sum(
                    c * stable_expansion(lam, tau).get(target, 0)
                    for tau, c in stable_expansion(mu, nu).items()
                )
                assert lhs == rhs

    def test_both_orders_share_one_expansion(self):
        """stable_expansion gives the same mapping, in the same key order,
        for (lam, mu) and (mu, lam), each computed from an empty memo; with
        the memo kept, the second order is served the first one's result."""
        memo = qtilde_module._ordered_expansion
        for lam, mu in [((3, 1), (2, 2, 1)), ((4,), (3, 2, 1)), ((1, 1, 1), (2, 1))]:
            memo.cache_clear()
            ab = stable_expansion(lam, mu)
            memo.cache_clear()
            ba = stable_expansion(mu, lam)
            assert list(ab.items()) == list(ba.items())
            assert stable_expansion(lam, mu) is ba

    def test_a_bounded_peel_keeps_the_coefficients_below_its_bound(self):
        """For every ordered pair of partitions, strict or not, with
        |lam| + |mu| <= 12, and every top from 1 to the largest first part
        of the expansion, the expansion with its peel stopped at top is the
        full expansion restricted to partitions with first part <= top."""
        pool = [lam for w in range(13) for lam in enumerate_partitions(w, w)]
        for lam in pool:
            for mu in pool:
                if sum(lam) + sum(mu) > 12:
                    continue
                full = stable_expansion(lam, mu)
                largest = max((nu[0] for nu in full if nu), default=0)
                for top in range(1, largest + 1):
                    assert stable_expansion(lam, mu, top) == {
                        nu: c for nu, c in full.items() if nu[:1] <= (top,)}, (lam, mu, top)
        qtilde_module._ordered_expansion.cache_clear()

    def test_a_bounded_element_is_the_untruncated_one_less_the_generators_above_top(self):
        """For every partition of weight <= 10 and top 1..6, the bounded
        element that route C multiplies and peels with is basis(lam, None)
        less its monomials with a generator above top, itself for
        top = None."""
        for lam in (lam for w in range(11) for lam in enumerate_partitions(w, w)):
            full = basis(lam, None)
            assert qtilde_module._bounded(lam, None) == full
            for top in range(1, 7):
                bounded = qtilde_module._bounded(lam, top)
                assert bounded.m == top
                assert unpack_e(bounded.terms) == {
                    gens: c for gens, c in unpack_e(full.terms).items() if gens[:1] <= (top,)
                }, (lam, top)

    def test_expansion_valid_in_x_model(self):
        """Substitute actual x-variables: the claimed expansion must hold as
        a polynomial identity in Z[x_1..x_m], a representation disjoint from
        the back-substitution that produced it."""
        m = 3
        cases = [((2, 1), (1,)), ((2,), (2,)), ((3, 1), (2,)), ((2, 2), (1, 1))]
        for lam, mu in cases:
            sc = stable_expansion(lam, mu)
            lhs = basis_x(lam, m) * basis_x(mu, m)
            rhs = None
            for nu, c in sc.items():
                term = basis_x(nu, m).scale(c)
                rhs = term if rhs is None else rhs + term
            assert lhs == rhs

    def test_stability_across_variable_counts(self):
        """Expanding the same product with fewer variables agrees on all
        surviving keys."""
        cases = [((2, 1), (2,)), ((3, 1), (2, 2)), ((2, 2), (2, 1, 1))]
        for lam, mu in cases:
            stable = stable_expansion(lam, mu)
            w = sum(lam) + sum(mu)
            for m in range(max(lam[0], mu[0]) + 1, w + 2):
                small = expand_in_basis(qtilde(lam, m) * qtilde(mu, m))
                assert small == {k: v for k, v in stable.items() if k and k[0] <= m or not k}


class TestPieri:
    def test_matches_polynomial_product(self):
        """Route B's Pieri row at n = lam_1 + k, where every strip shape is
        a classical term, is the strict part of qtilde(lam) e_k expanded in
        the basis, each term worth 2**e."""
        for w in range(9):
            for lam in enumerate_partitions(w, w, strict=True):
                for k in range(6):
                    n = (lam[0] if lam else 0) + k or 1
                    rhs = expand_in_basis(basis(lam, None) * EPoly.gen(k, None))
                    assert {mu: 1 << e for (mu, d), e in pieri_row(lam, k, n) if not d} == {
                        mu: c for mu, c in rhs.items() if is_strict(mu)}, (lam, k)


class TestFConstant:
    def test_examples(self):
        assert f_constant((1,), (1,), (2,)) == 1
        assert f_constant((1,), (1,), (1, 1)) == 1
        assert f_constant((2, 1), (), (2, 1)) == 1
        assert f_constant((1,), (1,), (3,)) == 0

    def test_a_bound_at_or_above_the_index_reads_the_same_constant(self):
        """With a bound, the constant is read off the expansion peeled to
        it; an index with a part above the bound, whose coefficient that
        expansion leaves out, is refused rather than read as 0."""
        for top in (3, 4, None):
            assert f_constant((2, 1), (2,), (3, 2), top) == f_constant((2, 1), (2,), (3, 2)) == 1
        with pytest.raises(ValueError, match=r"^\(2,\) has a part above the bound 1$"):
            f_constant((1,), (1,), (2,), 1)

    def test_strict_triples_nonnegative(self):
        strict = [
            lam for w in range(7) for lam in enumerate_partitions(w, w, strict=True)
        ]
        for lam in strict:
            for mu in strict:
                if sum(lam) + sum(mu) > 8:
                    continue
                for nu in enumerate_partitions(sum(lam) + sum(mu), 8, strict=True):
                    assert f_constant(lam, mu, nu) >= 0


def _warmed(bad):
    """The partition nearest bad (its positive parts, sorted), whose
    structure constants the memo then holds: the constants-* cases show
    the guard still comes before the memo lookup."""
    return tuple(sorted((p for p in bad if p > 0), reverse=True))


class TestPartitionGuard:
    """Every public entry point that reads a partition raises the one
    usage error of ``partitions.require_partition`` for a sequence that is
    not one, before packing could fold (1, 2) and (2, 1) together, and
    never the VerificationError that means the theory broke."""

    @pytest.mark.parametrize("bad", [(1, 2), (0,), (2, 0), (-1,)])
    @pytest.mark.parametrize("call", [
        lambda bad: basis(bad, None),
        lambda bad: basis(bad, 3),
        lambda bad: stable_expansion(bad, (1,)),
        lambda bad: stable_expansion((1,), bad),
        lambda bad: (stable_expansion(_warmed(bad), (1,)), stable_expansion(bad, (1,))),
        lambda bad: (stable_expansion((1,), _warmed(bad)), stable_expansion((1,), bad)),
        lambda bad: f_constant(bad, (1,), (1,)),
        lambda bad: f_constant((1,), bad, (1,)),
        lambda bad: f_constant((1,), (1,), bad),
    ], ids=["basis", "basis-m", "stable-lam", "stable-mu", "constants-lam", "constants-mu",
            "f-lam", "f-mu", "f-nu"])
    def test_rejects_non_partitions(self, call, bad):
        with pytest.raises(ValueError, match=" is not a partition$"):
            call(bad)

    def test_reported_cases(self):
        with pytest.raises(ValueError, match=r"^\(1, 2\) is not a partition$"):
            f_constant((1, 2), (1,), (3, 1))
        with pytest.raises(ValueError, match=r"^\(0,\) is not a partition$"):
            f_constant((0,), (1,), (1,))
        assert f_constant((2, 1), (1,), (3, 1)) == f_constant((1,), (2, 1), (3, 1))


class TestVerifiers:
    @pytest.mark.parametrize("m,wmax", [(2, 6), (3, 8)])
    def test_properties_pass(self, m, wmax):
        assert suite_qtilde_properties(m, wmax) == []

    def test_property_e_catches_a_wrong_split(self, monkeypatch):
        """Check (e) expands the merged partition by the Pfaffian, not by
        the equal-pair split inside basis, so a split that adds a stray term
        to every non-strict element of three or more parts fails it.  The
        stray monomial moves one unit of lam from the last part to the
        first: lex-higher than lam, so the unit pivots of check (b) stay.
        A truncated element of three or more parts recurses at its own
        level, so the term is added at every m, only where its top
        generator lam[0] + 1 survives the truncation."""
        real = qtilde_module.basis

        def wrong(lam, m):
            p = real(lam, m)
            if len(lam) > 2 and not is_strict(lam) and (m is None or lam[0] < m):
                bumped = (lam[0] + 1,) + lam[1:-1] + ((lam[-1] - 1,) if lam[-1] > 1 else ())
                return p + EPoly(m, pack_e({bumped: 1}))
            return p

        real.cache_clear()
        monkeypatch.setattr(qtilde_module, "basis", wrong)
        try:
            failures = suite_qtilde_properties(3, 8)
        finally:
            monkeypatch.undo()
            real.cache_clear()
        assert {"suite": "qtilde-properties", "check": "e", "lam": (2, 1, 1, 1), "i": 1,
                "m": 3} in failures

    def test_property_c_single_vector_is_the_full_map(self):
        """Check (c) reads basis((i, i), m) peeled at s = m, which leaves no
        e' and so is the full x-expansion on x_1..x_m: the per-monomial
        oracle, and e_i(x_1^2, ..., x_m^2), built here from the elementary
        oracle."""
        for m in range(1, 6):
            for i in range(1, m + 1):
                squares = X(m, {tuple(2 * e for e in mono): c
                                for mono, c in exps(elementary_xpoly(i, m)).items()})
                assert peel(basis((i, i), m), m) == basis_x((i, i), m) == squares

    def test_property_c_catches_a_wrong_expansion(self, monkeypatch):
        """One wrong term in the peeled form of basis((1, 1), m), as check
        (c) reads it, fails that check alone, once for each m."""
        real = qtilde_module.peel

        def wrong(p, s):
            f = real(p, s)
            return f + X(p.m, {(1,) * p.m: 1}) if p == basis((1, 1), p.m) else f

        monkeypatch.setattr(qtilde_module, "peel", wrong)
        assert suite_qtilde_properties(3, 8) == [
            {"suite": "qtilde-properties", "check": "c", "i": 1, "m": m} for m in (1, 2, 3)]

    def test_property_a_single_case(self):
        assert qtilde((3,), 2) == EPoly.zero(2)

    @pytest.mark.parametrize("lam,m", [((1,), 2), ((2, 1), 3), ((2, 2), 3)])
    def test_extension_formula(self, lam, m):
        assert verify_extension_formula(lam, m)

    def test_f_rescaling_inverts_exactly(self):
        """e(lam, mu; nu) recovers from f by the power-of-two length scaling
        on every support key, strict or not."""
        pool = [lam for w in range(5) for lam in enumerate_partitions(w, w)]
        for lam in pool:
            for mu in pool:
                if sum(lam) + sum(mu) > 6:
                    continue
                sc = stable_expansion(lam, mu)
                for nu, e in sc.items():
                    t = len(lam) + len(mu) - len(nu)
                    assert f_constant(lam, mu, nu) * 2**t == e


def test_nonstrict_keys_factor_through_pairs():
    """A non-strict basis element splits off its repeated part as an
    equal-pair factor (the mechanism behind quotient-by-filtering)."""
    for lam, i, rest in [
        ((2, 2, 1), 2, (1,)),
        ((3, 2, 2), 2, (3,)),
        ((3, 3, 2, 1), 3, (2, 1)),
    ]:
        m = sum(lam)
        assert qtilde(lam, m) == qtilde((i, i), m) * qtilde(rest, m)

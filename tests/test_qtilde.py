import random

import pytest

from lgschubert.partitions import enumerate_partitions, pfaffian_terms
from lgschubert.polyring import EPoly, epoly_to_xpoly, is_symmetric
from lgschubert.qtilde import (
    basis,
    expand_in_basis,
    f_constant,
    pieri_strict,
    qtilde,
    structure_constants,
    verify_extension_formula,
    verify_qtilde_properties,
)


def E(m, **monos):
    """Shorthand: E(3, e21=1, e3=-2) = e2*e1 - 2*e3."""
    terms = {}
    for name, c in monos.items():
        mono = tuple(sorted((int(ch) for ch in name[1:]), reverse=True))
        terms[mono] = c
    return EPoly(m, terms)


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
                    kept = {mono: c for mono, c in full.terms.items() if not mono or mono[0] <= m}
                    assert basis(lam, m) == EPoly(m, kept)
                    if len(lam) > 2:
                        acc = EPoly.zero(m)
                        for sign, pair, rest in pfaffian_terms(lam):
                            acc = acc + (basis(pair, m) * basis(rest, m)).scale(sign)
                        assert basis(lam, m) == acc


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
            assert is_symmetric(epoly_to_xpoly(qtilde(lam, 3)))


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
        assert structure_constants((1,), (1,)) == {(2,): 2, (1, 1): 1}
        assert structure_constants((3, 1), ()) == {(3, 1): 1}

    def test_known_expansion_coefficients(self):
        sc = structure_constants((3, 2, 1), (3, 2, 1))
        assert sc[(4, 4, 4)] == 8
        assert sc[(4, 3, 2, 2, 1)] == 4
        assert sc[(4, 2, 2, 2, 2)] == 4
        assert sc[(4, 4, 2, 2)] == -4

    def test_commutativity_and_associativity(self):
        rng = random.Random(3)
        pool = [lam for w in range(6) for lam in enumerate_partitions(w, w)]
        for _ in range(15):
            lam, mu, nu = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ab = structure_constants(lam, mu)
            assert ab == structure_constants(mu, lam)
            # ((lam mu) nu) vs (lam (mu nu)) on a random target key
            targets = set()
            for tau, c in ab.items():
                targets.update(structure_constants(tau, nu))
            for target in list(targets)[:10]:
                lhs = sum(
                    c * structure_constants(tau, nu).get(target, 0)
                    for tau, c in ab.items()
                )
                rhs = sum(
                    c * structure_constants(lam, tau).get(target, 0)
                    for tau, c in structure_constants(mu, nu).items()
                )
                assert lhs == rhs

    def test_expansion_valid_in_x_model(self):
        """Substitute actual x-variables: the claimed expansion must hold as
        a polynomial identity in Z[x_1..x_m], a representation disjoint from
        the back-substitution that produced it."""
        m = 3
        cases = [((2, 1), (1,)), ((2,), (2,)), ((3, 1), (2,)), ((2, 2), (1, 1))]
        for lam, mu in cases:
            sc = structure_constants(lam, mu)
            lhs = epoly_to_xpoly(qtilde(lam, m)) * epoly_to_xpoly(qtilde(mu, m))
            rhs = None
            for nu, c in sc.items():
                term = epoly_to_xpoly(qtilde(nu, m)).scale(c)
                rhs = term if rhs is None else rhs + term
            assert lhs == rhs

    def test_stability_across_variable_counts(self):
        """Expanding the same product with fewer variables agrees on all
        surviving keys."""
        cases = [((2, 1), (2,)), ((3, 1), (2, 2)), ((2, 2), (2, 1, 1))]
        for lam, mu in cases:
            stable = structure_constants(lam, mu)
            w = sum(lam) + sum(mu)
            for m in range(max(lam[0], mu[0]) + 1, w + 2):
                small = expand_in_basis(qtilde(lam, m) * qtilde(mu, m))
                assert small == {k: v for k, v in stable.items() if k and k[0] <= m or not k}


class TestPieri:
    def test_examples(self):
        # coefficient on (2,2) is 2: its strip sits off the first column
        assert pieri_strict((2, 1), 1) == {(3, 1): 2, (2, 2): 2, (2, 1, 1): 1}
        assert pieri_strict((), 4) == {(4,): 1}
        assert pieri_strict((2, 1), 2)[(2, 2, 1)] == 1

    def test_matches_polynomial_product(self):
        for w in range(9):
            for lam in enumerate_partitions(w, w, strict=True):
                for k in range(6):
                    rhs = expand_in_basis(basis(lam, None) * EPoly.gen(k, None))
                    assert pieri_strict(lam, k) == rhs

    def test_rejects_non_strict(self):
        with pytest.raises(ValueError):
            pieri_strict((2, 2), 1)


class TestFConstant:
    def test_examples(self):
        assert f_constant((1,), (1,), (2,)) == 1
        assert f_constant((1,), (1,), (1, 1)) == 1
        assert f_constant((2, 1), (), (2, 1)) == 1
        assert f_constant((1,), (1,), (3,)) == 0

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


class TestVerifiers:
    @pytest.mark.parametrize("m,wmax", [(2, 6), (3, 8)])
    def test_properties_pass(self, m, wmax):
        assert verify_qtilde_properties(m, wmax) == []

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
                sc = structure_constants(lam, mu)
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

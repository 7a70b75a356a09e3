import itertools

import pytest

from lgschubert import classical, suites
from lgschubert.classical import classical_product, giambelli_check
from lgschubert.partitions import all_strict_upto, dual, in_d, rho
from lgschubert.quantum import gw
from lgschubert.qtilde import stable_expansion
from test_partitions import oracle_strips


def integral(x, n):
    """Coefficient of the point class (the full staircase partition): the
    reference for the degree-0 invariants."""
    return x.get(rho(n), 0)


def class_product(x, y, n):
    """Bilinear extension of classical_product to whole classes: the
    reference for the triple number."""
    out = {}
    for lam, a in x.items():
        for mu, b in y.items():
            for nu, c in classical_product(lam, mu, n).items():
                out[nu] = out.get(nu, 0) + a * b * c
    return out


def reduce_to_lg(expansion, n):
    """Project a basis expansion onto the Schubert basis of LG(n, 2n): an
    oracle for the classical product, which reads the quantum one instead."""
    return {lam: c for lam, c in expansion.items() if in_d(lam, n)}


class TestReduce:
    def test_examples(self):
        assert reduce_to_lg({(2,): 2, (1, 1): 1}, 2) == {(2,): 2}
        assert reduce_to_lg({(3,): 1}, 2) == {}
        assert reduce_to_lg({(2, 2): 5}, 3) == {}


class TestProduct:
    def test_examples(self):
        assert classical_product((1,), (1,), 2) == {(2,): 2}
        assert classical_product((2,), (2,), 3) == {(3, 1): 2}
        assert classical_product((2,), (2, 1), 2) == {}  # beyond top degree

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classical_product((3,), (1,), 2)
        with pytest.raises(ValueError):
            classical_product((2, 2), (1,), 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constants_nonnegative(self, n):
        for lam in all_strict_upto(n):
            for mu in all_strict_upto(n):
                assert all(c > 0 for c in classical_product(lam, mu, n).values())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_row_factor_matches_pieri(self, n):
        for lam in all_strict_upto(n):
            for k in range(1, n + 1):
                via_pieri = reduce_to_lg(dict(oracle_strips(lam, k, None)), n)
                assert classical_product(lam, (k,), n) == via_pieri

    def test_two_row_special_product_low_degree(self):
        # for i > j with i + j <= n: sigma_i sigma_j
        #   = sigma_{i,j} + 2 sum_{k>=1} sigma_{i+k, j-k}
        for n in (3, 4, 5):
            for i in range(1, n + 1):
                for j in range(1, i):
                    if i + j > n:
                        continue
                    want = {(i, j): 1}
                    for k in range(1, j + 1):
                        idx = (i + k, j - k) if j - k else (i + k,)
                        want[idx] = want.get(idx, 0) + 2
                    assert classical_product((i,), (j,), n) == want


class TestIntegral:
    """The Poincare pairing of lam and mu is the degree-0 invariant
    gw(lam, mu, (), 0, n), the integral of their product."""

    def test_examples(self):
        assert gw((2, 1), (), (), 0, 2) == integral({(2, 1): 1}, 2) == 1
        assert gw((2,), (), (), 0, 2) == integral({(2,): 1}, 2) == 0
        assert gw((2,), (1,), (), 0, 2) == integral(classical_product((2,), (1,), 2), 2) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_poincare_duality(self, n):
        dim = n * (n + 1) // 2
        for lam in all_strict_upto(n):
            for mu in all_strict_upto(n):
                if sum(lam) + sum(mu) != dim:
                    continue
                want = 1 if mu == dual(lam, n) else 0
                assert gw(lam, mu, (), 0, n) == want


class TestTriple:
    """The triple intersection number of lam, mu and nu is the degree-0
    invariant gw(lam, mu, nu, 0, n)."""

    def test_examples(self):
        assert gw((1,), (1,), (1,), 0, 2) == 2
        assert gw((2,), (2,), (2,), 0, 3) == 2
        assert gw((2, 1), (2, 1), (2, 1), 0, 2) == 0

    def test_symmetric_in_arguments(self):
        for args in [((2,), (2, 1), (3,)), ((3, 1), (2,), (2, 1))]:
            vals = {gw(*perm, 0, 3) for perm in itertools.permutations(args)}
            assert len(vals) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_the_integral_of_the_triple_product(self, n):
        """The coefficient read by duality is the integral of
        sigma_lam sigma_mu sigma_nu, on every triple of D_n."""
        classes = all_strict_upto(n)
        for lam, mu, nu in itertools.product(classes, repeat=3):
            want = integral(class_product(classical_product(lam, mu, n), {nu: 1}, n), n)
            assert gw(lam, mu, nu, 0, n) == want, (lam, mu, nu)


def test_degree_zero_suites_read_no_classical_product(monkeypatch):
    """The line counts and the duality suite read the classical numbers as
    degree-0 invariants through ``gw``, never through a classical
    product."""
    def no_product(*args):
        raise AssertionError("classical_product called")

    monkeypatch.setattr(classical, "classical_product", no_product)
    assert suites.suite_lines(3) == []
    assert suites.suite_duality(4) == []


class TestGiambelli:
    def test_examples(self):
        assert giambelli_check((3, 2, 1), 3)
        assert giambelli_check((4, 3, 1), 4)
        assert giambelli_check((4, 3, 2, 1), 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive(self, n):
        for lam in all_strict_upto(n):
            if len(lam) >= 3:
                assert giambelli_check(lam, n)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            giambelli_check((2, 1), 3)


def test_structure_constants_of_strict_triples_match_ring():
    """On strict indices the basis constants are the ring constants."""
    n = 3
    for lam in all_strict_upto(n):
        for mu in all_strict_upto(n):
            sc = stable_expansion(lam, mu)
            cp = classical_product(lam, mu, n)
            for nu, c in cp.items():
                assert sc[nu] == c

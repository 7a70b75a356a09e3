import contextlib
import functools
import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from lgschubert import partitions, qtilde, quantum, suites
from lgschubert.cli import main
from lgschubert.classical import classical_product, giambelli_check, line_count_check
from lgschubert.partitions import (
    all_strict_upto,
    dual,
    in_d,
    pfaffian_terms,
    prepend,
    rho,
    star,
)
from lgschubert import polyring, symplectic
from lgschubert.polyring import elementary_xpoly, unpack_e
from lgschubert.qtilde import VerificationError, basis, stable_expansion
from lgschubert.quantum import (
    _read_quantum,
    eightfold_check,
    fform_check,
    giambelli_special,
    gw,
    pieri_operator_check,
    pieri_row,
    qlr_check,
    qmul,
    qprod_constants,
    qprod_pieri,
    qprod_quotient,
    quantum_from_json,
    quantum_pieri,
    quantum_to_json,
    relation_check,
    rho_product,
    sigma_ij_product_check,
    vanishing_bounds,
)
from test_partitions import oracle_strips

ENGINES = (qprod_constants, qprod_quotient, qprod_pieri)


class TestRouteC:
    def test_examples(self):
        assert qprod_constants((3, 2, 1), (3, 2, 1), 3) == {((), 3): 1}
        assert qprod_constants((2,), (2,), 2) == {((1,), 1): 1}
        assert qprod_constants((2,), (3, 1), 3) == {((3, 2, 1), 0): 1, ((2,), 1): 2}

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            qprod_constants((3,), (1,), 2)

    def test_peels_no_pivot_above_the_read_out(self, monkeypatch):
        """Route C stops its back-substitution at first part n + 1: over
        every pair of D_4, from empty memos, ``basis`` is asked for no
        untruncated element with a part above 5, neither as a factor nor
        as a pivot, so the read-out's dropped coefficients are never
        peeled."""
        seen = route_c_basis_requests(monkeypatch, 4)
        assert any(m is None and lam[:1] == (5,) for lam, m in seen)
        assert not [lam for lam, m in seen if m is None and lam[:1] > (5,)]

    def test_reads_no_truncated_element(self, monkeypatch):
        """Route C truncates the finished untruncated elements, never
        reading route A's: over every pair of D_4, from empty memos,
        ``basis`` is asked only for m = None."""
        seen = route_c_basis_requests(monkeypatch, 4)
        assert seen and {m for _, m in seen} == {None}

    def test_builds_no_untruncated_element_with_an_equal_pair(self, monkeypatch):
        """Route C splits an equal pair off after truncation: over every
        pair of D_4, from empty memos, ``basis`` is asked for no untruncated
        element of three or more parts with an equal pair, only for strict
        ones and the pairs (i, i) themselves, each of which it still
        reads."""
        seen = route_c_basis_requests(monkeypatch, 4)
        untruncated = {lam for lam, m in seen if m is None}
        assert not [lam for lam in untruncated if len(lam) > 2 and not partitions.is_strict(lam)]
        assert {(i, i) for i in range(1, 5)} <= untruncated
        assert any(len(lam) > 2 for lam in untruncated)

    def test_a_fault_in_the_untruncated_pair_reaches_its_split_elements(self, capsys):
        """A lex-higher term e_3 e_1 planted only in the untruncated
        basis((2, 2), None) reaches route C's element of (2, 2, 1), which is
        built from the pair's bounded element, and ``engines-agree`` at
        n = 2 exits 1: the pair element still comes from the untruncated
        one, and routes A and B, which read no untruncated element,
        disagree with route C."""
        n = 2
        clear_basis_memos()
        clean = qtilde._bounded((2, 2, 1), n + 1)
        with faulty_basis((2, 2), {(3, 1): 1}, levels={None}):
            assert qtilde._bounded((2, 2, 1), n + 1) != clean
            assert main(["verify", "engines-agree", "--n", str(n)]) == 1
            failures = json.loads(capsys.readouterr().out)["failures"]
            assert len(failures) == 6
            assert {f["suite"] for f in failures} == {"engines-agree"}

    def test_a_fault_in_the_truncated_elements_only_misses_route_c(self, capsys):
        """A lex-higher term e_3 planted only in basis((2, 1), n + 1), the
        element route A truncates inside its recursion, leaves every
        route-C product of D_3 as it was, and route A's disagreement with
        route B makes ``engines-agree`` exit 1."""
        n = 3
        pairs = list(itertools.product(all_strict_upto(n), repeat=2))
        clear_basis_memos()
        before = {pair: dict(qprod_constants(*pair, n)) for pair in pairs}
        with faulty_basis((2, 1), {(3,): 1}, levels={n + 1}):
            assert {pair: dict(qprod_constants(*pair, n)) for pair in pairs} == before
            assert qprod_quotient((2,), (1,), n) != before[(2,), (1,)]
            assert main(["verify", "engines-agree", "--n", str(n)]) == 1
            failures = json.loads(capsys.readouterr().out)["failures"]
            assert {"suite": "engines-agree", "lam": [2], "mu": [1], "n": n} in failures

    def test_a_non_unit_pivot_inside_the_bound_fails(self, capsys):
        """A pivot of 2 at (4, 1), whose first part is n + 1 = 4, the last
        the bounded peel reaches: route C raises, and ``engines-agree`` and
        ``qtilde-properties`` each report it and exit 1."""
        with faulty_basis((4, 1), {(4, 1): 1}):
            with pytest.raises(VerificationError, match=r"^non-unit pivot for \(4, 1\)$"):
                qprod_constants((3, 1), (1,), 3)
            for argv in (["verify", "engines-agree", "--n", "3"],
                         ["verify", "qtilde-properties", "--m", "4", "--wmax", "5"]):
                assert main(argv) == 1, argv
                assert "non-unit pivot for (4, 1)" in capsys.readouterr().out

    def test_a_residual_inside_the_bound_fails(self):
        """A lex-lower term e_(3,2) in the element of (4, 1) breaks the
        unitriangularity the peel relies on; the residual it leaves has no
        part above the bound n + 1 = 4, so the bounded peel still raises."""
        with faulty_basis((4, 1), {(3, 2): 1}):
            with pytest.raises(VerificationError, match=r"^nonzero residual at weight 5: "):
                qprod_constants((3, 1), (1,), 3)

    def test_a_lex_higher_term_inside_the_bound_fails_the_cross_check(self, capsys):
        """A lex-higher term e_3 in the element of (2, 1) keeps the family
        unitriangular, so no peel can see it: the expansion in that family
        is exact, only wrong.  Route B, which reads no basis element,
        disagrees, and ``engines-agree`` exits 1."""
        with faulty_basis((2, 1), {(3,): 1}):
            assert qprod_constants((2,), (1,), 3) == {((3,), 0): 1, ((2, 1), 0): 1}
            assert main(["verify", "engines-agree", "--n", "3"]) == 1
            failures = json.loads(capsys.readouterr().out)["failures"]
            assert {"suite": "engines-agree", "lam": [2], "mu": [1], "n": 3} in failures


def clear_basis_memos():
    """Empty ``basis`` and every memo built on it, so the next product asks
    ``basis`` for each element afresh."""
    basis.cache_clear()
    qtilde._bounded.cache_clear()
    qtilde._ordered_expansion.cache_clear()
    clear_product_memos()


def route_c_basis_requests(monkeypatch, n):
    """The (lam, m) that route C asks ``basis`` for over every pair of
    D_n, every memo built on ``basis`` empty first."""
    seen = set()

    def spy(lam, m):
        seen.add((lam, m))
        return basis(lam, m)

    monkeypatch.setattr(qtilde, "basis", spy)
    monkeypatch.setattr(quantum, "basis", spy)
    clear_basis_memos()
    try:
        for lam, mu in itertools.product(all_strict_upto(n), repeat=2):
            qprod_constants(lam, mu, n)
    finally:
        monkeypatch.undo()
        clear_basis_memos()
    return seen


@contextlib.contextmanager
def faulty_basis(lam, extra, levels=None):
    """Every element basis(lam, m) served with the term map ``extra``,
    keyed by generator tuples, added to it (the terms that fit m), or only
    those with m in ``levels`` when that is given: all memos built on
    ``basis`` are cleared on entry and on exit."""
    def patched(nu, m):
        q = basis(nu, m)
        if nu != lam or levels is not None and m not in levels:
            return q
        fits = {gens: c for gens, c in extra.items() if m is None or gens[0] <= m}
        return q + polyring.EPoly(m, polyring.pack_e(fits))

    clear_basis_memos()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qtilde, "basis", patched)
            mp.setattr(quantum, "basis", patched)
            yield
    finally:
        clear_basis_memos()


def clear_product_memos():
    """Empty the read-out memos: route C's over the stable expansions, which
    also serves ``classical_product``, and route A's over the truncated
    products.  The next read then sees each expansion as it stands."""
    quantum._constants_read.cache_clear()
    quantum._quotient_read.cache_clear()


@contextlib.contextmanager
def poisoned(lam, mu, key, value):
    """The stable expansion of (lam, mu) served with the coefficient at key
    set to value: ``qtilde._ordered_expansion`` is patched to return a
    changed copy of the memoised (read-only) expansion for that pair, and
    the read-out memo is cleared on entry and on exit."""
    pair, memo = tuple(sorted((lam, mu))), qtilde._ordered_expansion

    def patched(a, b, top):
        expansion = memo(a, b, top)
        return {**expansion, key: value} if (a, b) == pair else expansion

    clear_product_memos()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qtilde, "_ordered_expansion", patched)
            yield
    finally:
        clear_product_memos()


class TestReadOutMemos:
    def test_both_orders_share_one_result(self):
        n = 3
        for lam, mu in itertools.product(all_strict_upto(n), repeat=2):
            assert qprod_constants(lam, mu, n) is qprod_constants(mu, lam, n)

    def test_gw_equals_an_independent_read_of_the_expansion(self):
        """Every admissible invariant of D_3 equals its coefficient read
        straight off the stable expansion, past the memoised read-out.
        Every other (lam, mu, nu, d) of D_3 with -1 <= d <= 4 is 0, d = -1
        included where the weights would fit it, and is answered before
        any product is formed."""
        n, nonzero = 3, 0
        cube = list(itertools.product(all_strict_upto(n), repeat=3))
        clear_product_memos()
        admissible = []
        for lam, mu, nu in cube:
            excess = sum(lam) + sum(mu) + sum(nu) - n * (n + 1) // 2
            for d in range(-1, 5):
                if d >= 0 and excess == d * (n + 1):
                    admissible.append((lam, mu, nu, d))
                else:
                    assert gw(lam, mu, nu, d, n) == 0, (lam, mu, nu, d)
        assert quantum._constants_read.cache_info().currsize == 0
        assert any(sum(lam) + sum(mu) + sum(nu) == 2 for lam, mu, nu in cube)  # fits d = -1
        for lam, mu, nu, d in admissible:
            want = stable_expansion(lam, mu).get(prepend(n + 1, d, dual(nu, n)), 0) >> d
            assert gw(lam, mu, nu, d, n) == want
            nonzero += want != 0
        assert nonzero

    def test_suites_leave_every_cached_read_out_intact(self):
        """After the suites that read the memo, every memoised read-out
        still equals a fresh read of its expansion, so no caller mutated
        the result it was handed (relation_check sums the products it
        reads into one fresh map).  Each entry is visited:
        the hits of the comparison count the memo's size."""
        clear_product_memos()
        for run in (suites.suite_relations, suites.suite_eightfold, suites.suite_vanishing,
                    suites.suite_lines, suites.suite_engines_agree, suites.suite_qlr,
                    suites.suite_fform, suites.suite_rho, suites.suite_sigma_ij,
                    suites.suite_duality, suites.suite_giambelli_classical):
            assert run(3) == [], run.__name__
        # lines reads the quantum product one rank up, through the classical one
        memo = quantum._constants_read
        size, hits = memo.cache_info().currsize, memo.cache_info().hits
        assert size
        for n in range(1, 5):
            for lam, mu in itertools.product(all_strict_upto(n), repeat=2):
                if lam <= mu:
                    assert memo(lam, mu, n) == _read_quantum(stable_expansion(lam, mu), n), (lam, mu, n)
        assert memo.cache_info().hits - hits == size

    def test_a_warm_memo_cannot_mask_a_poisoned_constant(self):
        """With the memos warm, one wrong classical coefficient in a stable
        expansion reaches both suites once the read-out is cleared."""
        n, lam, mu = 3, (2,), (2, 1)
        assert suites.suite_engines_agree(n) == [] and suites.suite_eightfold(n) == []
        key = next(nu for nu in stable_expansion(lam, mu) if in_d(nu, n))
        with poisoned(lam, mu, key, stable_expansion(lam, mu)[key] + 1):
            for failures in (suites.suite_engines_agree(n), suites.suite_eightfold(n)):
                assert any(f["n"] == n and {f["lam"], f["mu"]} == {lam, mu} for f in failures)
        assert suites.suite_engines_agree(n) == []

    def test_a_read_out_that_raises_is_not_memoised(self):
        n, lam, mu = 3, (2,), (2, 1)
        key = next(nu for nu in stable_expansion(lam, mu) if in_d(nu, n))
        with poisoned(lam, mu, key, -1):
            for pair in ((lam, mu), (mu, lam), (lam, mu)):
                with pytest.raises(VerificationError):
                    qprod_constants(*pair, n)
            assert quantum._constants_read.cache_info().currsize == 0
        assert qprod_constants(lam, mu, n) == _read_quantum(stable_expansion(lam, mu), n)


class TestReadOnlyMemos:
    """The dict memos and the terms of the memoised polynomials hand one
    object to every caller, so a write into it raises rather than reaching
    the next caller."""

    @pytest.mark.parametrize("result", [
        lambda: stable_expansion((2,), (2, 1)),
        lambda: qprod_constants((2,), (2, 1), 3),
        lambda: qprod_quotient((2,), (2, 1), 3),
        lambda: giambelli_special((3, 2), 3),
        lambda: basis((3, 1), 4).terms,
        lambda: basis((3, 3, 1), None).terms,
        lambda: qtilde._bounded((3, 3, 1), 4).terms,
        lambda: symplectic._peeled((3, 2, 1), 4, 1).terms,
        lambda: symplectic.c_prime((3, 1), 4).terms,
        lambda: symplectic.c_double_prime((3, 1), 4).terms,
        lambda: elementary_xpoly(2, 4).terms,
        lambda: polyring._peel_steps(4, 1),
        lambda: polyring._peel_steps(4, 1)[2],
    ], ids=["_ordered_expansion", "_constants_read", "_quotient_read", "giambelli_special", "basis",
            "basis-rows", "_bounded", "_peeled", "c_prime", "c_double_prime", "elementary_xpoly",
            "_peel_steps", "_peel_steps-term-map"])
    def test_a_write_into_a_memo_result_raises(self, result):
        memo = result()
        key = next(iter(memo))
        # a read-only mapping has no item assignment; CPython reports an int
        # key too large for an index (a packed monomial) as IndexError
        refused = (TypeError, IndexError)
        with pytest.raises(refused):
            memo[key] = 0
        with pytest.raises(refused):
            del memo[key]
        with pytest.raises(TypeError):
            memo["new"] = 1
        assert result() is memo and memo[key]


class TestRouteA:
    def test_examples(self):
        assert qprod_quotient((2,), (2,), 2) == {((1,), 1): 1}
        assert qprod_quotient((2, 1), (2,), 2) == {((2,), 1): 1}
        assert qprod_quotient((1,), (1,), 2) == {((2,), 0): 2}

    def test_truncates_inside_the_recursion(self, monkeypatch):
        """Route A forms its product after truncation: on every pair of
        D_4 it asks ``basis`` for no untruncated element at all, neither of
        three or more parts nor a pair, whose truncation is built from its
        own formula, so it shares none with route C."""
        real = qtilde.basis
        seen = set()

        def spy(lam, m):
            seen.add((lam, m))
            return real(lam, m)

        monkeypatch.setattr(qtilde, "basis", spy)
        monkeypatch.setattr(quantum, "basis", spy)
        real.cache_clear()
        quantum._quotient_read.cache_clear()  # a memoised pair would ask basis nothing
        for lam, mu in itertools.product(all_strict_upto(4), repeat=2):
            qprod_quotient(lam, mu, 4)
        assert any(len(lam) > 2 for lam, _ in seen)
        assert not [lam for lam, m in seen if m is None]

    def test_both_orders_share_one_result(self):
        """Route A forms each product once per unordered pair and rank:
        (lam, mu) and (mu, lam) read one memoised mapping, read-only."""
        n = 3
        for lam, mu in itertools.product(all_strict_upto(n), repeat=2):
            product = qprod_quotient(lam, mu, n)
            assert product is qprod_quotient(mu, lam, n)
            with pytest.raises(TypeError):
                product[((), 0)] = 1

    def test_a_read_out_that_raises_is_not_memoised(self, monkeypatch):
        """A truncated product whose read-out raises leaves no entry in
        route A's memo, in either order, and the pair reads correctly once
        the expansion is sound again."""
        n, lam, mu = 3, (2,), (2, 1)
        real = quantum.expand_in_basis
        expansion = real(basis(lam, n + 1) * basis(mu, n + 1))
        key = next(nu for nu in expansion if in_d(nu, n))
        quantum._quotient_read.cache_clear()
        monkeypatch.setattr(quantum, "expand_in_basis", lambda p: {**real(p), key: -1})
        for pair in ((lam, mu), (mu, lam), (lam, mu)):
            with pytest.raises(VerificationError):
                qprod_quotient(*pair, n)
        assert quantum._quotient_read.cache_info().currsize == 0
        monkeypatch.undo()
        assert qprod_quotient(lam, mu, n) == _read_quantum(expansion, n)


class TestReadQuantum:
    def test_top_parts_become_q(self):
        """At n = 2, (3, 1) is q sigma_1 / 2 and (3, 3) is q^2 / 4; (4,),
        (2, 2) and (3, 2, 2) index no Schubert class and are dropped."""
        expansion = {(2,): 1, (3, 1): 2, (3, 3): 4, (4,): 7, (2, 2): 5, (3, 2, 2): 3}
        assert _read_quantum(expansion, 2) == {((2,), 0): 1, ((1,), 1): 1, ((), 2): 1}

    @pytest.mark.parametrize("expansion", [{(3,): -2}, {(3, 1): 1}, {(3, 3): 2}])
    def test_rejects_negative_or_indivisible(self, expansion):
        with pytest.raises(VerificationError):
            _read_quantum(expansion, 2)


class TestRouteB:
    def test_examples(self):
        assert qprod_pieri((2, 1), (2, 1), 2) == {((), 2): 1}
        assert qprod_pieri((2,), (2, 1), 2) == {((2,), 1): 1}
        assert qprod_pieri((1,), (1,), 2) == {((2,), 0): 2}


class TestQuantumPieri:
    def test_examples(self):
        assert quantum_pieri({((2, 1), 0): 1}, 2, 2) == {((2,), 1): 1}
        assert quantum_pieri({((2,), 0): 1}, 1, 2) == {((2, 1), 0): 1, ((), 1): 1}
        assert quantum_pieri({((3, 1), 0): 1}, 2, 3) == {
            ((3, 2, 1), 0): 1,
            ((2,), 1): 2,
        }

    def test_degree_zero_is_identity(self):
        for n in (2, 3, 4):
            for lam in all_strict_upto(n):
                assert quantum_pieri({(lam, 0): 1}, 0, n) == {(lam, 0): 1}

    def test_linear_over_q_degrees(self):
        x = {((2,), 1): 3, ((1,), 0): -2}
        got = quantum_pieri(x, 1, 2)
        want = {}
        for (lam, d), c in x.items():
            for (nu, dd), v in quantum_pieri({(lam, 0): 1}, 1, 2).items():
                key = (nu, dd + d)
                want[key] = want.get(key, 0) + c * v
        assert got == {k: v for k, v in want.items() if v}

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            quantum_pieri({((1,), 0): 1}, 3, 2)
        with pytest.raises(ValueError):
            pieri_row((1,), 3, 2)

    @pytest.mark.parametrize("cls", [((5,), 0), ((2, 2), 0), ((0,), 0), ((1, 2), 0),
                                     ((2,), -1)])
    def test_rejects_a_class_outside_d_n(self, cls):
        """A part above n would alias into the q-degree of its int key, and
        a repeated, zero or unsorted part or a negative q-degree into
        another class, so each is refused at the edge."""
        with pytest.raises(ValueError):
            quantum_pieri({cls: 1}, 1, 3)
        if cls[1] == 0:
            with pytest.raises(ValueError):
                pieri_row(cls[0], 1, 3)

    def test_mutating_a_result_leaves_the_memo_clean(self):
        x = {((3, 1), 0): 1}
        first = quantum_pieri(x, 2, 3)
        want = dict(first)
        first[((3, 1), 0)] = 99
        first.pop(((2,), 1))
        assert quantum_pieri(x, 2, 3) == want


class TestSubsetKeys:
    """Route B's int keys: a class of D_n is a subset of {1..n}, bit p - 1
    for the part p, and the q-degree sits above bit n."""

    @given(st.integers(1, 16).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(1, n)), st.integers(0, 20))))
    def test_round_trip(self, case):
        n, parts, d = case
        lam = tuple(sorted(parts, reverse=True))
        mask = quantum._mask_of(lam)
        assert mask < 1 << n
        assert quantum._parts_of(mask) == lam
        assert quantum._mask_of(quantum._parts_of(mask)) == mask
        (key,) = quantum._encode({(lam, d): 1}, n)
        assert key >> n == d
        assert quantum._class_of(key, n) == (lam, d)

    def test_every_mask_of_d_n(self):
        n = 6
        assert sorted(map(quantum._mask_of, all_strict_upto(n))) == list(range(1 << n))


def oracle_pieri_rows(n):
    """Every ``pieri_row`` of D_n, built from the union-find strip oracle,
    which enumerates strict shapes only: the strips grown on lam by k boxes
    (cap n) in step 0, and in step 1 each strict nu that lam grows from by
    n + 1 - k boxes, in descending order of nu, with e one less than the
    components of lam/nu.  Those are the N components of its Pieri term
    (lam, 2**N) that miss column 1, and one more when lam is longer than nu,
    since then the strip reaches column 1."""
    classes = all_strict_upto(n)
    grown = {(nu, j): oracle_strips(nu, j, n) for nu in classes for j in range(n + 2)}
    rows = {}
    for lam in classes:
        for k in range(n + 1):
            below = sorted(((nu, w.bit_length() - 2 + (len(lam) > len(nu))) for nu in classes
                            for mu, w in grown[nu, n + 1 - k] if mu == lam), reverse=True)
            rows[lam, k] = (tuple(((mu, 0), w.bit_length() - 1) for mu, w in grown[lam, k])
                            + tuple(((nu, 1), e) for nu, e in below))
    return rows


def plain_walk_rows(n):
    """Every ``pieri_row`` of D_n, read off the strip oracle as the basis
    ring reads its Pieri terms: the strict shapes grown on lam by k boxes
    with first part at most n + 1, in the oracle's order, each shape
    (n + 1, nu) read as q sigma_nu at exponent one less and put after the
    others."""
    rows = {}
    for lam in all_strict_upto(n):
        for k in range(n + 1):
            kept = [(mu, w.bit_length() - 1) for mu, w in oracle_strips(lam, k, n + 1)]
            rows[lam, k] = (tuple(((mu, 0), e) for mu, e in kept if mu[:1] <= (n,))
                            + tuple(((mu[1:], 1), e - 1) for mu, e in kept if mu[:1] == (n + 1,)))
    return rows


class TestPieriRow:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_strip_oracle(self, n):
        """Every row, as the same tuple in the same order (n = 9 runs in
        CI)."""
        for (lam, k), row in oracle_pieri_rows(n).items():
            assert pieri_row(lam, k, n) == row, (lam, k)

    def test_examples(self):
        """sigma_2^2 = q sigma_1 and sigma_1 sigma_21 = q sigma_1 in
        QH*(LG(2, 4)): the strip (3, 1) is the one strict shape capped at
        column 3, and (4,) and (2, 2) are no terms."""
        assert pieri_row((2,), 2, 2) == ((((1,), 1), 0),)
        assert pieri_row((2, 1), 1, 2) == ((((1,), 1), 0),)
        assert pieri_row((), 2, 3) == ((((2,), 0), 0),)
        assert pieri_row((3, 1), 2, 3) == ((((3, 2, 1), 0), 0), (((2,), 1), 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_is_the_plain_walk_kept_strict_and_capped(self, n):
        """Route B walks its strict, capped strips on masks by itself; each
        row is the strict strips with first part at most n + 1, terms and
        order alike.  Its q-terms are read off the top row (n + 1, nu),
        where ``oracle_pieri_rows`` finds them as the nu that lam grows
        from."""
        for (lam, k), row in plain_walk_rows(n).items():
            assert pieri_row(lam, k, n) == row, (lam, k)

    @pytest.mark.parametrize("seeded, failing, first", [
        ("q-terms unhalved", 1353, ((1,), 1, 1)),
        ("one weight doubled", 1, ((2,), 1, 3)),
    ], ids=["q-terms unhalved", "one weight doubled"])
    def test_a_seeded_row_error_fails_the_oracle(self, monkeypatch, seeded, failing, first):
        """Each seeded error in route B's rows fails ``pieri-oracle`` at
        weights <= 12 (1,842 cases), one record per (lam, k, n) naming its
        witness; the true rows stay memoised underneath."""
        row = quantum._row

        def seeded_row(mask, k, n):
            terms = row(mask, k, n)
            if seeded == "q-terms unhalved":
                return tuple((key, m << (key >> n)) for key, m in terms)
            if (mask, k, n) == (0b10, 1, 3):  # sigma_1 sigma_2, its first term
                return ((terms[0][0], 2 * terms[0][1]),) + terms[1:]
            return terms

        monkeypatch.setattr(quantum, "_row", seeded_row)
        records = suites.suite_pieri_oracle(12)
        assert len({(r["lam"], r["k"], r["n"]) for r in records}) == len(records) == failing
        assert all(set(r) == {"suite", "lam", "k", "n"} for r in records)
        assert records[0] == dict(zip(("suite", "lam", "k", "n"), ("pieri-oracle",) + first))


class TestGiambelliSpecial:
    def test_examples(self):
        assert giambelli_special((2, 1), 2) == {((2, 1), 0): 1, ((), 1): -1}
        assert giambelli_special((3,), 5) == {((3,), 0): 1}
        assert giambelli_special((), 4) == {((), 0): 1}

    @pytest.mark.parametrize("mu,n", [((3, 2, 1), 3), ((4, 3, 2, 1), 4), ((5, 3, 1), 5)])
    def test_rejects_three_or_more_rows(self, mu, n):
        with pytest.raises(ValueError, match="more than two rows"):
            giambelli_special(mu, n)

    def test_three_row_uses_pairs(self):
        expr = symbolic_giambelli((3, 2, 1), 3)
        # evaluating on the unit class recovers the Schubert class itself
        out = {}
        for (idxs, qp), c in expr.items():
            cls = {((), 0): 1}
            for k in idxs:
                cls = quantum_pieri(cls, k, 3)
            for (nu, d), v in cls.items():
                key = (nu, d + qp)
                out[key] = out.get(key, 0) + c * v
        assert {k: v for k, v in out.items() if v} == {((3, 2, 1), 0): 1}

    @pytest.mark.parametrize("n", range(1, 16))
    def test_formula_matches_the_basis_element(self, n):
        """The explicit two-row formula against the basis-derived oracle
        of ``symbolic_giambelli``, term for term and in order, on every
        class of at most two rows."""
        classes = [mu for mu in all_strict_upto(n) if len(mu) <= 2]
        assert len(classes) == 1 + n + n * (n - 1) // 2
        for mu in classes:
            assert list(giambelli_special(mu, n).items()) == list(symbolic_giambelli(mu, n).items())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_evaluates_to_class_on_unit(self, n):
        for mu in all_strict_upto(n):
            assert fold_giambelli_of_mu((), mu, n) == {(mu, 0): 1}
            assert qprod_pieri((), mu, n) == {(mu, 0): 1}


@functools.cache
def symbolic_giambelli(mu, n):
    """Test oracle: sigma_mu as one polynomial in the special classes and q,
    keyed by (special indices, q-power).  One row is its own special class;
    two rows are the basis element of (i, j) in n variables plus the q-term
    (-1)^(n+1-i) q sigma_{i+j-n-1} when i + j > n; longer classes multiply
    the expressions of their Pfaffian pairs and rests out symbolically."""
    if len(mu) <= 1:
        return {(mu, 0): 1}
    if len(mu) == 2:
        i, j = mu
        terms = {(mono, 0): c for mono, c in unpack_e(basis(mu, n).terms).items()}
        s = i + j - n - 1
        if s >= 0:
            terms[((s,) if s else (), 1)] = (-1) ** (n + 1 - i)
        return terms
    acc = {}
    for sign, pair, rest in pfaffian_terms(mu):
        for (ia, qa), ca in symbolic_giambelli(pair, n).items():
            for (ib, qb), cb in symbolic_giambelli(rest, n).items():
                key = (tuple(sorted(ia + ib, reverse=True)), qa + qb)
                acc[key] = acc.get(key, 0) + sign * ca * cb
    return {key: c for key, c in acc.items() if c}


def fold_giambelli_of_mu(lam, mu, n):
    """sigma_lam * sigma_mu by folding the Pieri rule over the symbolic
    Giambelli expansion of mu, even when mu is the longer factor."""
    out = {}
    for (idxs, qp), c in symbolic_giambelli(mu, n).items():
        cls = {(lam, 0): 1}
        for k in idxs:
            cls = quantum_pieri(cls, k, n)
        for (nu, d), v in cls.items():
            key = (nu, d + qp)
            out[key] = out.get(key, 0) + c * v
    return {k: v for k, v in out.items() if v}


class TestRouteBShorterFactor:
    def test_longer_mu_folded_either_way(self):
        classes = all_strict_upto(4)
        pairs = [(lam, mu) for lam in classes for mu in classes if len(mu) > len(lam)]
        assert pairs
        for lam, mu in pairs:
            assert qprod_pieri(lam, mu, 4) == fold_giambelli_of_mu(lam, mu, 4)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_staircase_square(self, n):
        """sigma_rho^2 = q^n, by the symmetry and by the recursion over all
        n rows of rho."""
        assert qprod_pieri(rho(n), rho(n), n) == {((), n): 1}
        assert qmul({(rho(n), 0): 1}, rho(n), n) == {((), n): 1}


class TestRouteBSymmetry:
    """``qprod_pieri`` reads sigma_lam sigma_mu, len(mu) <= len(lam), off
    sigma_(mu*) sigma_(dual lam) when len(lam) + len(mu) > n, by the
    paper's symmetry of the Gromov-Witten invariants; the recursion on the
    shorter factor is the reference."""

    @staticmethod
    def direct(lam, mu, n):
        shorter, longer = sorted((lam, mu), key=len)
        return qmul({(longer, 0): 1}, shorter, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_pair_matches_the_recursion(self, n):
        classes = all_strict_upto(n)
        for lam in classes:
            for mu in classes:
                assert qprod_pieri(lam, mu, n) == self.direct(lam, mu, n), (lam, mu)

    def test_seeded_pairs_match_the_recursion(self):
        """200 seeded pairs of D_8, about two in five on the symmetry path."""
        n = 8
        classes = all_strict_upto(n)
        rng = random.Random(8)
        for _ in range(200):
            lam, mu = rng.choice(classes), rng.choice(classes)
            assert qprod_pieri(lam, mu, n) == self.direct(lam, mu, n), (lam, mu)

    @pytest.mark.parametrize("lam, mu, n, factor", [
        ((3, 1), (2,), 3, (2,)),           # 2 + 1 <= 3: the shorter factor
        ((2,), (3, 1), 3, (2,)),
        ((3, 2, 1), (2, 1), 3, ()),        # dual(rho) = ()
        ((4, 3, 1), (4, 2, 1), 4, (2,)),   # dual((4, 3, 1)) = (2,)
        ((5, 4, 2), (3, 2), 5, (3, 2)),    # 3 + 2 <= 5
    ])
    def test_one_expansion_of_the_fewest_rows(self, monkeypatch, lam, mu, n, factor):
        """One ``qmul`` call per product, expanding the factor of fewest rows."""
        seen, qmul_of = [], quantum.qmul
        monkeypatch.setattr(quantum, "qmul", lambda x, f, n: seen.append(f) or qmul_of(x, f, n))
        qprod_pieri(lam, mu, n)
        assert seen == [factor]


class TestRouteBPfaffianRecursion:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_pair_matches_the_symbolic_fold(self, n):
        """The pair-by-pair recursion against the fold over the whole
        symbolic expansion of the factor with fewer rows."""
        classes = all_strict_upto(n)
        for lam in classes:
            for mu in classes:
                shorter, longer = (lam, mu) if len(lam) < len(mu) else (mu, lam)
                assert qprod_pieri(lam, mu, n) == fold_giambelli_of_mu(longer, shorter, n)

    def test_mutating_a_result_leaves_later_products_clean(self):
        first = qprod_pieri((3, 1), (2, 1), 3)
        want = dict(first)
        first.clear()
        assert qprod_pieri((3, 1), (2, 1), 3) == want


class TestEngineAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small(self, n):
        for lam in all_strict_upto(n):
            for mu in all_strict_upto(n):
                c = qprod_constants(lam, mu, n)
                assert qprod_quotient(lam, mu, n) == c
                assert qprod_pieri(lam, mu, n) == c

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_classical_part_is_deformation(self, n):
        """H* is QH* at q = 0.  ``classical_product`` reads route C, so it
        is held against route B, which shares no code with it."""
        for lam in all_strict_upto(n):
            for mu in all_strict_upto(n):
                q0 = {nu: c for (nu, d), c in qprod_pieri(lam, mu, n).items() if d == 0}
                assert q0 == classical_product(lam, mu, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneity_and_positivity(self, n):
        for lam in all_strict_upto(n):
            for mu in all_strict_upto(n):
                w = sum(lam) + sum(mu)
                for (nu, d), c in qprod_constants(lam, mu, n).items():
                    assert sum(nu) + d * (n + 1) == w
                    assert c > 0


class TestGW:
    def test_examples(self):
        assert gw((3, 2, 1), (3, 2, 1), (3, 2, 1), 3, 3) == 1
        assert gw((2,), (2,), (2,), 1, 2) == 1
        assert gw((2, 1), (2, 1), (2, 1), 2, 2) == 1

    def test_degree_mismatch_vanishes(self):
        assert gw((2,), (2,), (2,), 0, 2) == 0
        assert gw((1,), (1,), (1,), 1, 2) == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetric_in_all_arguments(self, n):
        classes = all_strict_upto(n)
        for lam, mu, nu in itertools.product(classes, repeat=3):
            excess = sum(lam) + sum(mu) + sum(nu) - n * (n + 1) // 2
            if excess < 0 or excess % (n + 1):
                continue
            d = excess // (n + 1)
            vals = {gw(*perm, d, n) for perm in itertools.permutations((lam, mu, nu))}
            assert len(vals) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_nonzero_implies_bounds(self, n):
        classes = all_strict_upto(n)
        for lam, mu, nu in itertools.product(classes, repeat=3):
            excess = sum(lam) + sum(mu) + sum(nu) - n * (n + 1) // 2
            if excess < 0 or excess % (n + 1):
                continue
            d = excess // (n + 1)
            if gw(lam, mu, nu, d, n):
                assert vanishing_bounds(lam, mu, nu, d, n)


class TestRelations:
    @pytest.mark.parametrize(
        "i,n", [(2, 2), (1, 2), (2, 3), (1, 1), (3, 3), (4, 6), (1, 6)]
    )
    def test_cases(self, i, n):
        assert relation_check(i, n)


class TestTwoRowFormula:
    @pytest.fixture
    def q_sign_flipped(self, monkeypatch):
        """``_two_row`` with the sign of its q-term flipped, and no
        ``giambelli_special`` memoised from either formula."""
        two_row = quantum._two_row

        def flipped(i, j, n):
            return {key: -c if key[1] else c for key, c in two_row(i, j, n).items()}

        giambelli_special.cache_clear()
        monkeypatch.setattr(quantum, "_two_row", flipped)
        yield
        giambelli_special.cache_clear()

    @pytest.mark.parametrize("run, n, failing", [
        (suites.suite_relations, 6, 12),
        (suites.suite_pieri_operators, 5, 150),
        (suites.suite_engines_agree, 4, 24),
    ], ids=["relations", "pieri-operators", "engines-agree"])
    def test_a_seeded_q_sign_error_fails(self, q_sign_flipped, run, n, failing):
        """Route C's relation check, route B's operator identities and
        route B's products all read the one two-row formula, so a wrong
        q-sign there fails each of them; route C's products do not read
        it, so engines-agree sees the error."""
        assert len(run(n)) == failing


class TestPieriOperators:
    def test_every_class_through_n_7(self):
        assert suites.suite_pieri_operators(7) == []

    def test_rejects_i_above_j(self):
        with pytest.raises(ValueError):
            pieri_operator_check((1,), 2, 1, 3)

    @pytest.mark.parametrize("seeded, failing", [
        ("q-terms unhalved", 96),
        ("one weight doubled", 22),
        ("q-terms dropped", 86),
    ])
    def test_a_seeded_row_error_fails(self, monkeypatch, seeded, failing):
        """Each seeded error in route B's rows fails some of the 480 checks
        at n = 5, one record per (class, i, j); the true rows stay memoised
        underneath."""
        row = quantum._row

        def seeded_row(mask, k, n):
            terms = row(mask, k, n)
            if seeded == "q-terms unhalved":
                return tuple((key, m << (key >> n)) for key, m in terms)
            if seeded == "q-terms dropped":
                return tuple((key, m) for key, m in terms if not key >> n)
            if (mask, k, n) == (0b10, 1, 5):  # sigma_1 sigma_2, its first term
                return ((terms[0][0], 2 * terms[0][1]),) + terms[1:]
            return terms

        monkeypatch.setattr(quantum, "_row", seeded_row)
        records = [r for r in suites.suite_pieri_operators(5) if r["n"] == 5]
        assert len(records) == failing
        assert len({(r["lam"], r["i"], r["j"]) for r in records}) == failing
        assert all(set(r) == {"suite", "lam", "i", "j", "n"} for r in records)


class TestEightfold:
    def test_examples(self):
        # 2^4 * 1 = 2^(2+2+0) * <point class, unit, unit>_0
        assert eightfold_check((2, 1), (2, 1), (2, 1), 2, 2)
        assert eightfold_check((2,), (2,), (2,), 1, 2)

    def test_each_index_is_checked_once(self, monkeypatch):
        """The 927 eightfold cases of D_n, n <= 4, check lam, mu and nu
        once, and star(lam) and dual(mu) once more where the second
        invariant is read, not each invariant's triple again (8,061
        checks when they did)."""
        checks = []
        real = partitions.require_dn

        def counting(lam, n):
            checks.append(n)
            return real(lam, n)

        monkeypatch.setattr(partitions, "require_dn", counting)
        monkeypatch.setattr(quantum, "require_dn", counting)
        assert suites.suite_eightfold(4) == []
        assert len(checks) < 5500

    def test_vanishing_beyond_length(self):
        # d = len(lam) + 1 forces a zero invariant
        assert eightfold_check((2,), (2, 1), (2, 1), 2, 2)
        assert gw((2,), (2, 1), (2, 1), 2, 2) == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_operator_orbit(self, n):
        """Starring any single slot (and dualizing the other two) rescales
        the invariant by the same power-of-two rule; the three operators
        generate the full orbit."""
        classes = all_strict_upto(n)
        for lam, mu, nu in itertools.product(classes, repeat=3):
            excess = sum(lam) + sum(mu) + sum(nu) - n * (n + 1) // 2
            if excess < 0 or excess % (n + 1):
                continue
            d = excess // (n + 1)
            for a, b, c in ((lam, mu, nu), (mu, lam, nu), (nu, mu, lam)):
                if d > len(a):
                    assert gw(a, b, c, d, n) == 0
                    continue
                e = len(a) - d
                lhs = (1 << (n + d)) * gw(a, b, c, d, n)
                starred = star(a, n) if a else ()
                rhs = (1 << (len(b) + len(c) + e)) * gw(
                    starred, dual(b, n), dual(c, n), e, n
                )
                assert lhs == rhs


class TestVanishingPredicate:
    def test_examples(self):
        assert vanishing_bounds((2, 1), (2, 1), (2, 1), 2, 2)
        assert not vanishing_bounds((2, 1), (2, 1), (2, 1), 3, 2)
        # necessary, not sufficient: d = 0 passes the window but the weight
        # condition picks d = 1 for this triple
        assert vanishing_bounds((2,), (2,), (2,), 0, 2)
        assert vanishing_bounds((2,), (2,), (2,), 1, 2)


def cube_triples(n):
    """The triple sweeps' cases by brute force: every triple of the cube
    D_nn^3, nn <= n, whose weights fit a degree-d invariant, in the cube's
    order."""
    for nn in range(1, n + 1):
        for lam, mu, nu in itertools.product(all_strict_upto(nn), repeat=3):
            excess = sum(lam) + sum(mu) + sum(nu) - nn * (nn + 1) // 2
            if excess >= 0 and excess % (nn + 1) == 0:
                yield {"lam": lam, "mu": mu, "nu": nu, "d": excess // (nn + 1), "n": nn}


class TestTripleSweeps:
    """The sweeps over triples take nu from the weights that fit and still
    check the cube filter's cases, the same dicts in the same order, keys
    included: the failure records and the pinned reports follow it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_admissible_triples_are_the_cube_filter(self, n):
        want = [list(case.items()) for case in cube_triples(n)]
        assert [list(case.items()) for case in suites._admissible_triples(n)] == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lines_cases_are_the_cube_filter(self, n, monkeypatch):
        seen = []
        monkeypatch.setattr(suites.classical, "line_count_check",
                            lambda **case: seen.append(list(case.items())) or True)
        assert suites.suite_lines(n) == []
        assert seen == [[(k, v) for k, v in case.items() if k != "d"]
                        for case in cube_triples(n) if case["d"] == 1]


class TestClosedForms:
    def test_rho_products(self):
        assert rho_product((2,), 2) == {((2,), 1): 1}
        assert rho_product(rho(2), 2) == {((), 2): 1}
        assert rho_product((), 2) == {(rho(2), 0): 1}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rho_sweep(self, n):
        for lam in all_strict_upto(n):
            expected = {(star(dual(lam, n), n), len(lam)): 1}
            assert rho_product(lam, n) == expected

    def test_line_counts(self):
        assert line_count_check((2,), (2,), (2,), 2)
        assert line_count_check((2, 1), (2, 1), (2,), 2)
        assert line_count_check((3, 1), (3, 2), (2, 1), 3)

    def test_sigma_ij(self):
        assert sigma_ij_product_check(2, 2, 2)
        assert sigma_ij_product_check(2, 1, 2)
        assert sigma_ij_product_check(3, 2, 3)
        with pytest.raises(ValueError):
            sigma_ij_product_check(1, 1, 3)  # i + j < n + 1


class TestQLRAndFForm:
    @pytest.mark.parametrize(
        "lam,mu,n", [((3, 1), (2, 1), 3), ((2, 1), (2, 1), 2), ((3, 2, 1), (3, 2, 1), 3)]
    )
    def test_qlr_cases(self, lam, mu, n):
        assert qlr_check(lam, mu, n)

    @pytest.mark.parametrize(
        "lam,mu,n", [((2, 1), (2,), 2), ((3, 1), (2, 1), 3), ((3, 2, 1), (3, 1), 3)]
    )
    def test_fform_cases(self, lam, mu, n):
        assert fform_check(lam, mu, n)

    def test_qlr_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            qlr_check((2, 1), (1,), 3)


def _qmul_class(x, mu, n):
    """Bilinear extension of the constants engine to a whole class."""
    out = {}
    for (lam, d), c in x.items():
        for (nu, dd), v in qprod_constants(lam, mu, n).items():
            key = (nu, d + dd)
            w = out.get(key, 0) + c * v
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_quantum_associativity(n):
    classes = all_strict_upto(n)
    for lam, mu, nu in itertools.product(classes, repeat=3):
        lhs = _qmul_class(qprod_constants(lam, mu, n), nu, n)
        rhs = _qmul_class(qprod_constants(mu, nu, n), lam, n)
        assert lhs == rhs


class TestQmul:
    """Route B's ``qmul`` held against identities of the paper that need no
    second engine (associativity, the staircase closed form), so they reach
    ranks that routes A and C do not, and on whole classes against its own
    Pieri rows and route C."""

    def test_associativity_on_seeded_triples(self):
        """(sigma_a sigma_b) sigma_c = (sigma_b sigma_c) sigma_a, the small
        quantum product being associative, on 100 seeded triples of D_7."""
        n = 7
        classes = all_strict_upto(n)
        rng = random.Random(7)
        for _ in range(100):
            a, b, c = (rng.choice(classes) for _ in range(3))
            lhs = qmul(qprod_pieri(a, b, n), c, n)
            assert lhs == qmul(qprod_pieri(b, c, n), a, n), (a, b, c)

    def test_staircase_closed_form(self):
        """sigma_lam sigma_rho = q^len(lam) sigma_star(dual(lam)) on every
        class of D_8, through ``qprod_pieri`` (its symmetry path, as
        dual(rho) = ()) and through the recursion, ``qmul`` by sigma_lam."""
        n = 8
        for lam in all_strict_upto(n):
            expected = {(star(dual(lam, n), n), len(lam)): 1}
            assert qprod_pieri(lam, rho(n), n) == expected, lam
            assert qmul({(rho(n), 0): 1}, lam, n) == expected, lam

    # mixed q-degrees and a zero coefficient
    MIXED = {((4, 1), 0): 3, ((2,), 1): -2, ((3, 2, 1), 2): 1, ((1,), 0): 0}

    def test_qmul_by_a_special_class_is_the_pieri_fold(self):
        """sigma_k is the class (k) of D_n, sigma_0 the unit: on a class of
        D_4, ``qmul`` by it equals ``quantum_pieri`` and the sum of
        ``pieri_row`` terms, and no zero coefficient survives."""
        n, x = 4, self.MIXED
        for k in range(n + 1):
            got = qmul(x, (k,) if k else (), n)
            assert got == quantum_pieri(x, k, n)
            want = {}
            for (lam, d), c in x.items():
                for (nu, step), e in pieri_row(lam, k, n):
                    key = (nu, d + step)
                    want[key] = want.get(key, 0) + c * 2 ** e
            assert got == {key: v for key, v in want.items() if v}

    def test_qmul_is_linear_in_x(self):
        """x * sigma_mu for every mu of D_4 equals the bilinear extension of
        the structure-constant engine over x, its zero coefficient included."""
        n = 4
        for mu in all_strict_upto(n):
            assert qmul(self.MIXED, mu, n) == _qmul_class(self.MIXED, mu, n), mu


def test_quantum_json_round_trip():
    x = {((3, 1), 2): 4, ((), 0): 1, ((2,), 1): -3}
    assert quantum_from_json(quantum_to_json(x)) == x


@pytest.mark.parametrize("bad", [(1, 2), (2, 0), (-1,), (3, 0, 1)])
@pytest.mark.parametrize("call", [
    lambda bad: qprod_pieri(bad, (1,), 3),
    lambda bad: qprod_pieri((1,), bad, 3),
    lambda bad: qprod_constants(bad, (1,), 3),
    lambda bad: qprod_quotient((1,), bad, 3),
    lambda bad: classical_product(bad, (1,), 3),
    lambda bad: gw(bad, (1,), (1,), 0, 3),
    lambda bad: eightfold_check(bad, (1,), (1,), 0, 3),
    lambda bad: eightfold_check((1,), bad, (1,), 0, 3),
    lambda bad: eightfold_check((1,), (1,), bad, 0, 3),
    lambda bad: rho_product(bad, 3),
    lambda bad: dual(bad, 3),
    lambda bad: giambelli_check(bad + (5, 4), 5),
    lambda bad: gw((1,), bad, (1,), 0, 3),
    lambda bad: gw((1,), (1,), bad, 0, 3),
    lambda bad: qprod_quotient(bad, (1,), 3),
], ids=["pieri-lam", "pieri-mu", "constants", "quotient", "classical", "gw", "eightfold",
        "eightfold-mu", "eightfold-nu", "rho", "dual", "giambelli", "gw-mu", "gw-nu",
        "quotient-lam"])
def test_non_partition_indices_are_usage_errors(call, bad):
    """An unsorted index, a zero part or a negative part is no element of
    D_n, whichever entry point it reaches: the one D_n guard raises, where
    the engines would otherwise return an empty product or fail inside."""
    with pytest.raises(ValueError, match="does not index a Schubert class"):
        call(bad)

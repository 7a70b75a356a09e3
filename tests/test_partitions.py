import itertools

import pytest
from hypothesis import given, strategies as st

from lgschubert.partitions import (
    Strip,
    all_strict_upto,
    dual,
    enumerate_partitions,
    grow_strips,
    in_d,
    is_strict,
    partition_from_str,
    partition_to_str,
    pfaffian_terms,
    prepend,
    rho,
    shrink_strips,
    star,
    straighten,
)

compositions = st.lists(st.integers(min_value=0, max_value=6), max_size=6)


class TestStraighten:
    def test_examples(self):
        assert straighten((1, 2)) == (-1, (2, 1))
        assert straighten((2, 2)) == (1, (2, 2))
        assert straighten((3, 0)) == (1, (3,))
        assert straighten((0, 1)) == (-1, (1,))
        assert straighten(()) == (1, ())
        assert straighten((2, -1)) == (0, ())

    @given(compositions, st.data())
    def test_adjacent_swap_flips_sign(self, seq, data):
        if len(seq) < 2:
            return
        i = data.draw(st.integers(0, len(seq) - 2))
        swapped = seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2 :]
        sign, lam = straighten(seq)
        sign2, lam2 = straighten(swapped)
        assert lam == lam2
        if seq[i] == seq[i + 1]:
            assert sign == sign2
        else:
            assert sign == -sign2

    @given(compositions)
    def test_output_is_partition(self, seq):
        sign, lam = straighten(seq)
        assert sign in (-1, 0, 1)
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert all(x > 0 for x in lam)


class TestDualStar:
    def test_dual_examples(self):
        assert dual((2, 1), 2) == ()
        assert dual((1,), 2) == (2,)
        assert dual((3, 1), 3) == (2,)

    def test_star_examples(self):
        assert star((2, 1), 2) == (2, 1)
        assert star((3,), 3) == (1,)
        assert star((3, 1), 3) == (3, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_involutions_and_weights(self, n):
        for lam in all_strict_upto(n):
            d = dual(lam, n)
            assert in_d(d, n)
            assert dual(d, n) == lam
            assert sum(d) == n * (n + 1) // 2 - sum(lam)
            s = star(lam, n)
            assert star(s, n) == lam
            assert len(s) == len(lam)
            assert in_d(s, n)

    def test_rejects_non_dn(self):
        with pytest.raises(ValueError):
            dual((3,), 2)
        with pytest.raises(ValueError):
            star((2, 2), 3)


class TestPrepend:
    def test_examples(self):
        assert prepend(4, 3, ()) == (4, 4, 4)
        assert prepend(4, 1, (2,)) == (4, 2)
        assert prepend(3, 2, (3, 1)) == (3, 3, 3, 1)

    def test_rejects_oversized_tail(self):
        with pytest.raises(ValueError):
            prepend(2, 1, (3,))


class TestPfaffianTerms:
    def test_odd_length_pairs_with_the_padding(self):
        assert list(pfaffian_terms((5,))) == [(1, (5,), ())]
        assert list(pfaffian_terms((3, 2, 1))) == [
            (1, (3,), (2, 1)),
            (-1, (2,), (3, 1)),
            (1, (1,), (3, 2)),
        ]

    def test_even_length_pairs_with_the_last_part(self):
        assert list(pfaffian_terms((4, 3, 2, 1))) == [
            (1, (4, 1), (3, 2)),
            (-1, (3, 1), (4, 2)),
            (1, (2, 1), (4, 3)),
        ]


def oracle_strips(lam, k, cap):
    """Brute-force horizontal-strip oracle: filter every partition of the
    target weight by containment and the one-box-per-column test, then count
    components by explicit pairwise adjacency (union-find)."""
    found = []
    w = sum(lam) + k
    for mu in enumerate_partitions(w, cap if cap is not None else w):
        ell = max(len(mu), len(lam))
        mu_p = mu + (0,) * (ell - len(mu))
        lam_p = lam + (0,) * (ell - len(lam))
        if any(m < l for m, l in zip(mu_p, lam_p)):
            continue
        boxes = [
            (r + 1, c)
            for r in range(ell)
            for c in range(lam_p[r] + 1, mu_p[r] + 1)
        ]
        cols = [c for _, c in boxes]
        if len(cols) != len(set(cols)):
            continue
        parent = list(range(len(boxes)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in itertools.combinations(range(len(boxes)), 2):
            (r1, c1), (r2, c2) = boxes[i], boxes[j]
            if max(abs(r1 - r2), abs(c1 - c2)) <= 1:
                parent[find(i)] = find(j)
        roots = {find(i) for i in range(len(boxes))}
        col1_roots = {find(i) for i, b in enumerate(boxes) if b[1] == 1}
        found.append(Strip(mu, len(roots), len(roots - col1_roots)))
    found.sort(key=lambda s: s.shape, reverse=True)
    return found


class TestGrowStrips:
    def test_examples(self):
        assert grow_strips((2,), 2, 3) == [
            Strip((3, 1), 2, 1),
            Strip((2, 2), 1, 0),
        ]
        assert grow_strips((), 0) == [Strip((), 0, 0)]
        assert grow_strips((2, 1), 1, 3) == [
            Strip((3, 1), 1, 1),
            Strip((2, 2), 1, 1),
            Strip((2, 1, 1), 1, 0),
        ]

    @pytest.mark.parametrize("cap", [None, 3, 5])
    def test_against_oracle(self, cap):
        shapes = [lam for w in range(7) for lam in enumerate_partitions(w, w)]
        for lam in shapes:
            for k in range(9):
                assert grow_strips(lam, k, cap) == oracle_strips(lam, k, cap)

    def test_one_box_per_column(self):
        for lam in [(3, 1), (4, 2, 1)]:
            for k in range(6):
                for s in grow_strips(lam, k):
                    cols = []
                    for r, part in enumerate(s.shape, 1):
                        base = lam[r - 1] if r <= len(lam) else 0
                        cols.extend(range(base + 1, part + 1))
                    assert len(cols) == len(set(cols))
                    assert s.off_first_column <= s.components


class TestShrinkStrips:
    def test_examples(self):
        assert shrink_strips((2,), 1) == [((1,), 1)]
        assert shrink_strips((3, 1), 2) == [((2,), 2)]
        assert shrink_strips((3, 2), 0) == [((3, 2), 0)]

    def test_adjoint_to_grow(self):
        """nu appears below lam iff lam appears above nu, with matching strip."""
        strict = [lam for lam in all_strict_upto(4)]
        for lam in strict:
            for k in range(sum(lam) + 1):
                below = {nu for nu, _ in shrink_strips(lam, k)}
                for nu in strict:
                    if sum(nu) != sum(lam) - k:
                        continue
                    above = {
                        s.shape
                        for s in grow_strips(nu, k, cap=lam[0] if lam else None)
                    }
                    assert (nu in below) == (lam in above)


    def test_components_against_oracle(self):
        """Each (nu, components) equals what the union-find oracle counts on
        the extension of nu by the same strip, and every strict nu below lam
        is listed."""
        for lam in all_strict_upto(5):
            for k in range(sum(lam) + 1):
                want = sorted(
                    ((nu, s.components)
                     for nu in enumerate_partitions(sum(lam) - k, sum(lam) - k, strict=True)
                     for s in oracle_strips(nu, k, lam[0] if lam else None)
                     if s.shape == lam),
                    reverse=True)
                assert shrink_strips(lam, k) == want


class TestEnumerate:
    def test_examples(self):
        assert enumerate_partitions(4, 4, strict=True) == [(4,), (3, 1)]
        assert enumerate_partitions(0, 5) == [()]
        assert enumerate_partitions(3, 2) == [(2, 1), (1, 1, 1)]

    def test_descending_lex_refines_dominance(self):
        for w in range(1, 11):
            parts = enumerate_partitions(w, w)
            assert parts == sorted(parts, reverse=True)
            # lex-descending position respects dominance
            for i, lam in enumerate(parts):
                for mu in parts[i + 1 :]:
                    dominates = all(
                        sum(mu[: k + 1]) <= sum(lam[: k + 1]) for k in range(len(mu))
                    )
                    le_lex = mu <= lam
                    assert le_lex or not dominates

    def test_counts(self):
        assert len(enumerate_partitions(10, 10)) == 42
        assert len(enumerate_partitions(10, 10, strict=True)) == 10
        assert all(is_strict(p) for p in enumerate_partitions(9, 9, strict=True))

    def test_all_strict_upto(self):
        assert len(all_strict_upto(4)) == 16
        assert all(in_d(lam, 4) for lam in all_strict_upto(4))


class TestSerialization:
    def test_round_trip(self):
        for lam in [(), (1,), (3, 1), (4, 4, 2)]:
            assert partition_from_str(partition_to_str(lam)) == lam
        assert partition_from_str("0") == ()
        assert rho(3) == (3, 2, 1)
        with pytest.raises(ValueError):
            partition_from_str("1,2")
        with pytest.raises(ValueError):
            partition_from_str("a,b")

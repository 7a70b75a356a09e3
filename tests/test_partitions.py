import itertools
import re

import pytest
from hypothesis import given, strategies as st

from lgschubert.partitions import (
    all_strict_upto,
    dual,
    enumerate_partitions,
    in_d,
    is_strict,
    partition_from_str,
    partition_to_str,
    pfaffian_terms,
    prepend,
    require_dn,
    rho,
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
        with pytest.raises(ValueError, match=r"^\(3,\) does not index a Schubert class for n=2$"):
            dual((3,), 2)
        with pytest.raises(ValueError, match=r"^\(2, 2\) does not index a Schubert class for n=3$"):
            star((2, 2), 3)

    def test_require_dn(self):
        assert require_dn([3, 1], 3) == (3, 1)
        assert require_dn((), 1) == ()
        for lam in ((4,), (2, 2), [2, 2]):
            message = f"{tuple(lam)} does not index a Schubert class for n=3"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                require_dn(lam, 3)


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
    """Brute-force horizontal-strip oracle: filter every strict partition
    of the target weight with parts <= cap (uncapped for None) by
    containment and the one-box-per-column test, then count components by
    explicit pairwise adjacency (union-find); each strip mu gives the Pieri
    term (mu, 2**N), N counting the components that miss column 1."""
    found = []
    w = sum(lam) + k
    for mu in enumerate_partitions(w, cap if cap is not None else w, strict=True):
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
        found.append((mu, 1 << len(roots - col1_roots)))
    found.sort(reverse=True)
    return found


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

    def test_blanks_around_parts_are_read(self):
        assert partition_from_str(" 3, 2 ,1 ") == (3, 2, 1)

    @pytest.mark.parametrize("text", ["1_0", "+3", "\u0663", "3,+1", "2,1_0", "-1", "3,,1",
                                      "\uff13"])
    def test_only_ascii_digits_are_parts(self, text):
        """A part is ASCII digits: an underscore, a sign or another
        script's digit, each of which ``int`` reads, is malformed."""
        with pytest.raises(ValueError, match=f"^malformed partition {re.escape(repr(text))}$"):
            partition_from_str(text)

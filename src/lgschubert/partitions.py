"""Partition and horizontal-strip combinatorics underlying the Schubert bases.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ().  Unsorted index sequences (possibly containing zeros) are
brought to normal form, with sign, by ``straighten``.

Diagrams use matrix convention: box (r, c) sits in row r, column c, occupying
the unit square [c-1, c] x [r-1, r].  Two boxes of a skew diagram are
connected when they share an edge or a vertex.  The skew diagrams counted
here are horizontal strips, whose components are runs of touching rows read
off the interlacing inequalities, with no flood-fill over boxes.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]


def is_partition(parts: Iterable[int]) -> bool:
    """True for a weakly decreasing sequence of positive integers."""
    t = tuple(parts)
    return all(x > 0 for x in t) and all(t[i] >= t[i + 1] for i in range(len(t) - 1))


def is_strict(lam: Partition) -> bool:
    """True if all parts are distinct."""
    return len(set(lam)) == len(lam)


def in_d(lam: Partition, n: int) -> bool:
    """Membership in D_n, the strict partitions with largest part <= n."""
    return is_strict(lam) and (not lam or lam[0] <= n)


def rho(n: int) -> Partition:
    """The staircase partition (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def straighten(seq: Iterable[int]) -> tuple[int, Partition]:
    """Normalize an index sequence to (sign, partition).

    Swapping two adjacent unequal entries flips the sign, so the sign is
    (-1)**(number of pairs i < j with seq[i] < seq[j]); equal entries commute
    freely.  Zeros participate in the inversion count as ordinary values and
    are stripped after sorting.  Any negative entry returns sign 0, flagging
    the zero element downstream.
    """
    entries = tuple(seq)
    if any(x < 0 for x in entries):
        return 0, ()
    inversions = sum(
        1
        for i in range(len(entries))
        for j in range(i + 1, len(entries))
        if entries[i] < entries[j]
    )
    lam = tuple(x for x in sorted(entries, reverse=True) if x > 0)
    return (-1 if inversions % 2 else 1), lam


def dual(lam: Partition, n: int) -> Partition:
    """The complementary partition rho_n minus lam (Poincare dual index)."""
    if not in_d(lam, n):
        raise ValueError(f"{lam} is not a strict partition with parts <= {n}")
    present = set(lam)
    return tuple(x for x in range(n, 0, -1) if x not in present)


def star(lam: Partition, n: int) -> Partition:
    """The reflected partition (n+1-lam_r, ..., n+1-lam_1)."""
    if not in_d(lam, n):
        raise ValueError(f"{lam} is not a strict partition with parts <= {n}")
    return tuple(n + 1 - x for x in reversed(lam))


def prepend(a: int, d: int, nu: Partition) -> Partition:
    """The partition (a^d, nu): a repeated d times, then the parts of nu."""
    if d < 0 or a <= 0:
        raise ValueError("need a > 0 and d >= 0")
    if nu and nu[0] > a:
        raise ValueError(f"cannot prepend {a} to {nu}")
    return (a,) * d + tuple(nu)


def pfaffian_terms(lam: Partition) -> Iterator[tuple[int, Partition, Partition]]:
    """Terms (sign, pair, rest) of the Pfaffian expansion along the last
    column, for nonempty lam.  lam is padded with a zero part to even length
    r; term j < r - 1 pairs part a = lam_j with the last part b, giving the
    partition pair (a, b), or (a) when b is the padding; rest is lam without
    both (a partition), and the sign alternates starting at +1."""
    seq = lam + (0,) if len(lam) % 2 else lam
    r = len(seq)
    b = seq[-1]
    for j in range(r - 1):
        a = seq[j]
        yield (-1 if j % 2 else 1), ((a, b) if b else (a,)), seq[:j] + seq[j + 1 : r - 1]


class Strip(NamedTuple):
    """A horizontal-strip extension together with its component counts."""

    shape: Partition
    components: int
    off_first_column: int


def _strip_counts(outer: Partition, inner: Partition) -> tuple[int, int]:
    """Components of the horizontal strip outer/inner, and how many of them
    miss column 1.  Row r holds columns inner_r + 1 .. outer_r, and
    interlacing gives outer_{r+1} <= inner_r, so two nonempty rows touch
    exactly when they are adjacent and outer_{r+1} = inner_r; a component
    meets column 1 only through a row whose inner part is 0."""
    inner = inner + (0,) * (len(outer) - len(inner))
    comps = col1 = 0
    for r, (o, i) in enumerate(zip(outer, inner)):
        if o > i:
            if r == 0 or o != inner[r - 1] or outer[r - 1] == inner[r - 1]:
                comps += 1
            if i == 0:
                col1 = 1
    return comps, comps - col1


def grow_strips(lam: Partition, k: int, cap: int | None = None) -> list[Strip]:
    """All partitions mu >= lam with |mu| = |lam| + k and mu/lam a horizontal
    strip (at most one box per column), optionally with mu_1 <= cap.

    Interlacing mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... characterizes the
    horizontal-strip extensions; at most one row beyond lam can gain boxes.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows = len(lam) + 1
    out: list[Strip] = []
    mu = [0] * rows

    def descend(i: int, remaining: int) -> None:
        if i == rows:
            if remaining == 0:
                shape = tuple(x for x in mu if x > 0)
                comps, off = _strip_counts(shape, lam)
                out.append(Strip(shape, comps, off))
            return
        lo = lam[i] if i < len(lam) else 0
        hi = lo + remaining if i == 0 else min(lam[i - 1], lo + remaining)
        if i == 0 and cap is not None:
            hi = min(hi, cap)
        for v in range(lo, hi + 1):
            mu[i] = v
            descend(i + 1, remaining - (v - lo))
        mu[i] = 0

    descend(0, k)
    out.sort(key=lambda s: s.shape, reverse=True)
    return out


def shrink_strips(lam: Partition, k: int) -> list[tuple[Partition, int]]:
    """All strict nu <= lam with |nu| = |lam| - k and lam/nu a horizontal
    strip, each with the number of connected components of lam/nu."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    ell = len(lam)
    out: list[tuple[Partition, int]] = []
    nu = [0] * ell

    def descend(i: int, remaining: int) -> None:
        if remaining < 0:
            return
        if i == ell:
            if remaining == 0:
                shape = tuple(x for x in nu if x > 0)
                if is_strict(shape):
                    comps, _ = _strip_counts(lam, shape)
                    out.append((shape, comps))
            return
        lo = lam[i + 1] if i + 1 < ell else 0
        for v in range(lo, lam[i] + 1):
            nu[i] = v
            descend(i + 1, remaining - (lam[i] - v))
        nu[i] = 0

    descend(0, k)
    out.sort(key=lambda t: t[0], reverse=True)
    return out


@cache
def _enum(weight: int, cap: int, strict: bool) -> tuple[Partition, ...]:
    if weight == 0:
        return ((),)
    out = []
    for first in range(min(cap, weight), 0, -1):
        sub_cap = first - 1 if strict else first
        for rest in _enum(weight - first, min(sub_cap, weight - first), strict):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(weight: int, part_cap: int, strict: bool = False) -> list[Partition]:
    """All partitions of the given weight with parts <= part_cap, in
    descending lexicographic order (which refines dominance)."""
    if weight < 0 or part_cap < 0:
        raise ValueError("weight and part_cap must be nonnegative")
    return list(_enum(weight, min(part_cap, weight), strict))


def all_strict_upto(n: int) -> list[Partition]:
    """Every element of D_n, ordered by weight then descending lex."""
    out: list[Partition] = []
    for w in range(n * (n + 1) // 2 + 1):
        out.extend(_enum(w, min(n, w), True))
    return out


def partition_to_str(lam: Partition) -> str:
    """Comma-separated string form, '' for the empty partition."""
    return ",".join(str(x) for x in lam)


def partition_from_str(text: str) -> Partition:
    """Inverse of partition_to_str; '0' and '' both give the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed partition {text!r}") from exc
    if not is_partition(parts):
        raise ValueError(f"{parts} is not weakly decreasing with positive parts")
    return parts

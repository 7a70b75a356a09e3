"""Partition and horizontal-strip combinatorics underlying the Schubert bases.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ().  Unsorted index sequences (possibly containing zeros) are
brought to normal form, with sign, by ``straighten``.

Diagrams use matrix convention: box (r, c) sits in row r, column c, occupying
the unit square [c-1, c] x [r-1, r].  Two boxes of a skew diagram are
connected when they share an edge or a vertex.  The skew diagrams counted
here are horizontal strips, whose components are runs of touching rows read
off the interlacing inequalities, with no flood-fill over boxes.  One
enumerator, ``grow_strips``, walks the strips added to lam, of every shape
and uncapped, and hands each its Pieri weight, counted while the walk
descends: the classical Pieri rule of the basis, ``qtilde.pieri_strict``.
Route B's quantum Pieri rows (strict shapes capped at column n + 1) come
from a walk of their own on subset masks, in ``quantum``.
"""

from __future__ import annotations

from functools import cache
from operator import ge, gt
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def is_partition(parts: Iterable[int]) -> bool:
    """True for a weakly decreasing sequence of positive integers."""
    t = tuple(parts)
    return (not t or t[-1] > 0) and all(map(ge, t, t[1:]))


def require_partition(parts: Iterable[int]) -> Partition:
    """parts as a tuple, if it is a partition; ValueError otherwise."""
    lam = tuple(parts)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    return lam


def is_strict(lam: Partition) -> bool:
    """True if all parts are distinct."""
    return len(set(lam)) == len(lam)


def require_strict(parts: Iterable[int]) -> Partition:
    """parts as a tuple, if it is a strict partition; ValueError otherwise."""
    lam = tuple(parts)
    if not (is_partition(lam) and is_strict(lam)):
        raise ValueError(f"{lam} is not a strict partition")
    return lam


def in_d(lam: Partition, n: int) -> bool:
    """Membership in D_n, the strict partitions with largest part <= n."""
    return is_strict(lam) and (not lam or lam[0] <= n)


def require_dn(lam: Iterable[int], n: int) -> Partition:
    """lam as a tuple, if it indexes a Schubert class of LG(n, 2n), that is,
    lies in D_n: its parts strictly decrease from at most n to at least 1.
    ValueError otherwise, for unsorted, repeated, zero and negative parts
    alike."""
    lam = tuple(lam)
    if lam and not (lam[0] <= n and lam[-1] > 0 and all(map(gt, lam, lam[1:]))):
        raise ValueError(f"{lam} does not index a Schubert class for n={n}")
    return lam


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
    present = set(require_dn(lam, n))
    return tuple(x for x in range(n, 0, -1) if x not in present)


def star(lam: Partition, n: int) -> Partition:
    """The reflected partition (n+1-lam_r, ..., n+1-lam_1)."""
    return tuple(n + 1 - x for x in reversed(require_dn(lam, n)))


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


def grow_strips(lam: Partition, k: int) -> list[tuple[Partition, int]]:
    """The Pieri terms (mu, 2**N) of lam and k: all partitions mu >= lam
    with |mu| = |lam| + k and mu/lam a horizontal strip (at most one box per
    column), in descending lexicographic order, N counting the components
    of mu/lam that miss column 1.

    Interlacing mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... characterizes the
    horizontal-strip extensions, so mu_i lies between lam_i and lam_{i-1},
    with |mu| above mu_1 and 0 under the one row beyond lam that can gain
    boxes.  Each entry ranges over what leaves the rest of the sum within
    the bounds of the entries after it, whose sum runs from
    lam_{i+1} + lam_{i+2} + ... up to lam_i + lam_{i+1} + ..., so every
    branch ends in a shape.

    Row i of the strip holds columns lam_i + 1 .. mu_i, and interlacing
    gives mu_{i+1} <= lam_i, so a row that gains boxes touches the row
    above exactly when that row gained boxes too and mu_{i+1} = lam_i.  The
    weight is counted on the way down: a row that gains boxes doubles it
    unless it touches the row above.  The row beyond lam is the only one
    that reaches column 1; it opens no component of its own, and it halves
    the weight when it joins the component above, which then meets
    column 1.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = sum(lam) + k
    hi = (total,) + lam
    below = [sum(lam[i:]) for i in range(len(lam) + 1)]
    last = len(lam)
    out: list[tuple[Partition, int]] = []

    def walk(i: int, head: Partition, remaining: int, weight: int, touch: int) -> None:
        # touch is lam_{i-1} when row i - 1 gained boxes, else -1
        if i == last:  # the row beyond lam takes what remains
            out.append((head + (remaining,), weight >> (remaining == touch))
                       if remaining else (head, weight))
            return
        low = lam[i]
        for v in range(min(hi[i], remaining - below[i + 1]), max(low, remaining - below[i]) - 1,
                       -1):
            grows = v > low
            walk(i + 1, head + (v,), remaining - v, weight << (grows and v != touch),
                 low if grows else -1)

    walk(0, (), total, 1, -1)
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
    return require_partition(parts)

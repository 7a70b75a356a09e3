"""Partition combinatorics underlying the Schubert bases.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ().  Unsorted index sequences (possibly containing zeros) are
brought to normal form, with sign, by ``straighten``.  No horizontal strip
is enumerated here: the one strip walk, route B's quantum Pieri rows, runs
on subset masks in ``quantum``.
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

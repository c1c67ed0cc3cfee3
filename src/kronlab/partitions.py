"""Partitions, Young diagrams, tableaux and Kostka numbers.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing positive integers; the
  empty tuple is the unique partition of 0.
* Partitions of n are enumerated in reverse-lexicographic order, e.g.
  (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
* A tableau is a tuple of row tuples.
* The bit encoding of a diagram with n boxes reads the boxes row-wise;
  bit i (of n-1, most significant first) is 1 iff a row ends after box i.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial
from typing import Iterator

from .errors import BoundExceededError, InputError

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]

# largest n whose p(n) partitions are enumerated; on a 2-core host
# `dims 45` (p = 89134) took 5.3 s and 193 MB peak RSS, `dims 50` 12.2 s
# and 420 MB, `dims 60` 76 s
PARTITION_DEGREE_LIMIT = 45
# largest (shapes inside lam) x (rows of lam) that `kostka` counts: it
# holds each shape inside lam at most once per level and copies its rows.
# On a 2-core host the slowest admitted cases measured, (545,545),
# (40,30,20,10) and (299000) against 1^n, took 1.5-1.9 s; the refused
# staircase (10,9,...,1) against 1^55 took 2.5-2.8 s
KOSTKA_WORK_LIMIT = 300_000


def check_partition(parts) -> Partition:
    """Validate and canonicalize a partition given as any integer iterable.
    Valid input costs one sort; only invalid input is scanned for the
    first fault."""
    lam = tuple(map(int, parts))
    if lam and (lam[-1] < 1 or sorted(lam, reverse=True) != [*lam]):
        for i, p in enumerate(lam):
            if p < 1:
                raise InputError(f"partition parts must be positive, got {lam}")
            if i + 1 < len(lam) and lam[i + 1] > p:
                raise InputError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def check_triple(lam, mu, nu) -> tuple[Partition, Partition, Partition]:
    """Validate a Kronecker triple: three partitions of one size."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if not sum(lam) == sum(mu) == sum(nu):
        raise InputError(f"sizes differ: {sum(lam)}, {sum(mu)}, {sum(nu)}")
    return lam, mu, nu


def check_plethysm(d: int, m: int, lam) -> Partition:
    """Validate plethysm inputs: positive d and m, and lam a partition of md."""
    lam = check_partition(lam)
    if d < 1 or m < 1:
        raise InputError("d and m must be positive")
    if sum(lam) != m * d:
        raise InputError(f"|lam| = {sum(lam)} but md = {m * d}")
    return lam


def transpose(lam: Partition) -> Partition:
    """Transpose partition: column lengths of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n as a list, in iter_partitions order."""
    return list(iter_partitions(n))


def iter_partitions(n: int) -> Iterator[Partition]:
    """The partitions of n in reverse-lexicographic order, one at a time,
    for n <= PARTITION_DEGREE_LIMIT (checked at the call)."""
    if n < 0:
        raise InputError("n must be nonnegative")
    if n > PARTITION_DEGREE_LIMIT:
        raise BoundExceededError(f"partitions of {n}: n exceeds {PARTITION_DEGREE_LIMIT}")
    return _partitions_bounded(n, n)


def _partitions_bounded(n: int, largest: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            yield (first,) + rest


def hook_lengths(lam: Partition) -> tuple[tuple[int, ...], ...]:
    lamt = transpose(lam)
    return tuple(
        tuple(lam[i] - (j + 1) + lamt[j] - (i + 1) + 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


def hook_dimension(lam: Partition) -> int:
    """Number of standard tableaux of shape lam (hook length formula), for
    lam any integer iterable; memoised by lam as a tuple of ints."""
    return _hook_dimension(tuple(map(int, lam)))


@lru_cache(maxsize=None)
def _hook_dimension(lam: Partition) -> int:
    n = sum(lam)
    prod = 1
    for row in hook_lengths(lam):
        for h in row:
            prod *= h
    q, r = divmod(factorial(n), prod)
    if r:
        raise AssertionError(f"hook product does not divide n! for {lam}")
    return q


def encode_diagram(lam: Partition) -> str:
    """Encode a diagram with n boxes as n-1 bits ('1' = row break after box i)."""
    n = sum(lam)
    if n < 1:
        raise InputError("diagram encoding needs at least one box")
    breaks = set()
    total = 0
    for p in lam[:-1]:
        total += p
        breaks.add(total)
    return "".join("1" if i in breaks else "0" for i in range(1, n))


def row_word(tab: Tableau) -> tuple[int, ...]:
    return tuple(x for row in tab for x in row)


@lru_cache(maxsize=None)
def enumerate_syt(lam: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of shape lam, sorted by row-reading word."""
    lam = check_partition(lam)
    n = sum(lam)
    results: list[Tableau] = []

    def build(shape: list[int], value: int, rows: list[list[int]]):
        if value > n:
            results.append(tuple(tuple(r) for r in rows))
            return
        for r in range(len(lam)):
            # next free cell in row r is (r, shape[r]); needs room and
            # a strictly longer (already filled) row above
            if shape[r] < lam[r] and (r == 0 or shape[r - 1] > shape[r]):
                shape[r] += 1
                rows[r].append(value)
                build(shape, value + 1, rows)
                rows[r].pop()
                shape[r] -= 1

    build([0] * len(lam), 1, [[] for _ in lam])
    results.sort(key=row_word)
    if len(results) != hook_dimension(lam):
        raise AssertionError(f"SYT count for {lam} disagrees with hook formula")
    return tuple(results)


def shapes_inside(lam: Partition, cap: int) -> int:
    """Number of partitions nu with nu_i <= lam_i in every row, counted row
    by row from the top, or cap + 1 once it passes cap.  Adding a row never
    lowers the count, so the early stop is exact."""
    if not lam:
        return 1
    if lam[0] >= cap:
        return cap + 1
    ways = [1] * (lam[0] + 1)  # ways[v]: choices of the rows so far ending in a row of v cells
    for row in lam[1:]:
        ways = [min(w, cap + 1) for w in accumulate(reversed(ways))][::-1][: row + 1]
        if sum(ways) > cap:
            return cap + 1
    return sum(ways)


def _horizontal_strips(shape: Partition, size: int) -> Iterator[Partition]:
    """The shapes nu with shape / nu a horizontal strip of `size` cells:
    only the last row of each block of equal rows can shrink, and only
    down to the next block's length, so the recursion is as deep as the
    number of distinct parts."""
    ends = [i for i in range(len(shape)) if i + 1 == len(shape) or shape[i + 1] < shape[i]]
    slack = [shape[i] - (shape[i + 1] if i + 1 < len(shape) else 0) for i in ends]
    room = list(accumulate(reversed(slack)))[::-1] + [0]  # cells blocks j.. can give up

    def cuts(j: int, left: int) -> Iterator[tuple[int, ...]]:
        if j == len(ends):
            if not left:
                yield ()
            return
        for r in range(max(0, left - room[j + 1]), min(slack[j], left) + 1):
            for rest in cuts(j + 1, left - r):
                yield (r,) + rest

    for cut in cuts(0, size):
        nu = list(shape)
        for i, r in zip(ends, cut):
            nu[i] -= r
        yield tuple(p for p in nu if p)


def kostka(lam: Partition, mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu, for lam
    whose shapes inside it, times its row count, are at most
    KOSTKA_WORK_LIMIT; larger lam is refused before counting.

    By Pieri's rule the cells holding the largest entry form a horizontal
    strip, so K(lam, mu) counts the chains from lam down to the empty shape
    that remove horizontal strips of mu[-1], mu[-2], ... cells.  The chains
    are counted level by level, one count per shape reached; zero parts
    remove nothing and are dropped.
    """
    lam = check_partition(lam)
    if sum(lam) != sum(mu):
        raise InputError(f"|shape| = {sum(lam)} but |content| = {sum(mu)}")
    if any(part < 0 for part in mu):
        raise InputError(f"content {mu} has a negative part")
    cap = KOSTKA_WORK_LIMIT // max(1, len(lam))
    if shapes_inside(lam, cap) > cap:
        raise BoundExceededError(
            f"kostka: more than {cap} shapes inside a shape of {len(lam)} rows"
        )
    level = {lam: 1}
    for part in reversed([part for part in mu if part]):
        below: dict[Partition, int] = {}
        for shape, ways in level.items():
            for nu in _horizontal_strips(shape, part):
                below[nu] = below.get(nu, 0) + ways
        level = below
    return level.get((), 0)

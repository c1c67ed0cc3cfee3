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

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

from .errors import BoundExceededError, InputError

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]

# largest n whose p(n) partitions are enumerated; on a 2-core host
# `dims 45` (p = 89134) took 5.3 s and 193 MB peak RSS, `dims 50` 12.2 s
# and 420 MB, `dims 60` 76 s
PARTITION_DEGREE_LIMIT = 45


def check_partition(parts) -> Partition:
    """Validate and canonicalize a partition given as any integer iterable."""
    lam = tuple(int(p) for p in parts)
    for i, p in enumerate(lam):
        if p < 1:
            raise InputError(f"partition parts must be positive, got {lam}")
        if i + 1 < len(lam) and lam[i + 1] > p:
            raise InputError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def transpose(lam: Partition) -> Partition:
    """Transpose partition: column lengths of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, for
    n <= PARTITION_DEGREE_LIMIT."""
    if n < 0:
        raise InputError("n must be nonnegative")
    if n > PARTITION_DEGREE_LIMIT:
        raise BoundExceededError(f"partitions of {n}: n exceeds {PARTITION_DEGREE_LIMIT}")
    return list(_partitions_bounded(n, n))


def _partitions_bounded(n: int, largest: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def hook_lengths(lam: Partition) -> tuple[tuple[int, ...], ...]:
    lamt = transpose(lam)
    return tuple(
        tuple(lam[i] - (j + 1) + lamt[j] - (i + 1) + 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


def hook_dimension(lam: Partition) -> int:
    """Number of standard tableaux of shape lam (hook length formula)."""
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


def decode_diagram(bits: str) -> Partition:
    """Inverse of encode_diagram; rejects strings that are not a partition."""
    if any(c not in "01" for c in bits):
        raise InputError(f"diagram encoding must be 0/1 characters, got {bits!r}")
    n = len(bits) + 1
    rows = []
    prev = 0
    for i, c in enumerate(bits, start=1):
        if c == "1":
            rows.append(i - prev)
            prev = i
    rows.append(n - prev)
    lam = tuple(rows)
    if any(lam[i + 1] > lam[i] for i in range(len(lam) - 1)):
        raise InputError(f"bits {bits!r} decode to non-monotone rows {lam}")
    return lam


def shape_of(tab: Tableau) -> Partition:
    return tuple(len(row) for row in tab)


def is_semistandard(tab: Tableau) -> bool:
    """Rows weakly increase left to right, columns strictly increase downward."""
    for row in tab:
        if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(1, len(tab)):
        if len(tab[i]) > len(tab[i - 1]):
            return False
        if any(tab[i][j] <= tab[i - 1][j] for j in range(len(tab[i]))):
            return False
    return True


def is_standard(tab: Tableau) -> bool:
    n = sum(len(row) for row in tab)
    entries = sorted(x for row in tab for x in row)
    return entries == list(range(1, n + 1)) and is_semistandard(tab)


def content(tab: Tableau) -> tuple[int, ...]:
    """Occurrence counts of 1, 2, ..., max entry."""
    counts: dict[int, int] = {}
    for row in tab:
        for x in row:
            counts[x] = counts.get(x, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(i, 0) for i in range(1, max(counts) + 1))


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


def kostka(lam: Partition, mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    By Pieri's rule the cells holding the largest entry form a horizontal
    strip, so K(lam, mu) sums K(nu, mu without its last part) over the
    shapes nu with lam[i+1] <= nu[i] <= lam[i] and mu[-1] fewer cells,
    memoised by (shape, parts left).
    """
    lam = check_partition(lam)
    if sum(lam) != sum(mu):
        raise InputError(f"|shape| = {sum(lam)} but |content| = {sum(mu)}")
    if any(part < 0 for part in mu):
        raise InputError(f"content {mu} has a negative part")
    memo: dict[tuple[Partition, int], int] = {}

    def strips(shape: Partition, left: int) -> Iterator[Partition]:
        # the rows below row 0 can give up at most shape[1] cells
        if not shape:
            yield ()
            return
        below = shape[1] if len(shape) > 1 else 0
        for r in range(max(0, left - below), min(shape[0] - below, left) + 1):
            for rest in strips(shape[1:], left - r):
                yield (shape[0] - r,) + rest if shape[0] > r else rest

    def count(shape: Partition, parts: int) -> int:
        if parts == 0:
            return 1
        if (shape, parts) not in memo:
            memo[shape, parts] = sum(count(nu, parts - 1) for nu in strips(shape, mu[parts - 1]))
        return memo[shape, parts]

    return count(lam, len(mu))


def contains(mu: Partition, lam: Partition) -> bool:
    """mu fits inside lam as a diagram."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def is_horizontal_strip(mu: Partition, lam: Partition) -> bool:
    """True iff mu is contained in lam and lam \\ mu has at most one box per column."""
    if not contains(mu, lam):
        return False
    lamt, mut = transpose(lam), transpose(mu)
    return all(lamt[i] - (mut[i] if i < len(mut) else 0) <= 1 for i in range(len(lamt)))


def schur_dim_gl(lam: Partition, num_vars: int) -> int:
    """Dimension of the irreducible GL_N representation of type lam,
    N = num_vars, via the content/hook product.  Zero when the diagram
    has more rows than N."""
    if num_vars < 1:
        raise InputError("num_vars must be positive")
    if len(lam) > num_vars:
        return 0
    hooks = hook_lengths(lam)
    value = Fraction(1)
    for i in range(len(lam)):
        for j in range(lam[i]):
            value *= Fraction(num_vars + j - i, hooks[i][j])
    if value.denominator != 1:
        raise AssertionError(f"content/hook product not integral for {lam}, N={num_vars}")
    return int(value)

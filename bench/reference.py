"""Reference values the benchmark checks kronlab against.

Nothing here imports kronlab: partitions are enumerated, dimensions come
from the hook-length formula, and the small Kronecker coefficients come
from textbook character tables of S_3 and S_4, so a wrong answer from
kronlab cannot also be the expected one.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in reverse-lexicographic order, largest part first."""
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest), 0, -1):
        out += [(first,) + rest for rest in partitions(n - first, first)]
    return out


def hook_dim(lam: tuple[int, ...]) -> int:
    """Dimension of the irreducible S_n module of shape lam."""
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    hooks = prod(lam[i] - j + cols[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


# classes as (cycle type, size); rows are characters on those classes
_TABLES = {
    3: (
        [((1, 1, 1), 1), ((2, 1), 3), ((3,), 2)],
        {(3,): (1, 1, 1), (2, 1): (2, 0, -1), (1, 1, 1): (1, -1, 1)},
    ),
    4: (
        [((1, 1, 1, 1), 1), ((2, 1, 1), 6), ((2, 2), 3), ((3, 1), 8), ((4,), 6)],
        {
            (4,): (1, 1, 1, 1, 1),
            (3, 1): (3, 1, -1, 0, -1),
            (2, 2): (2, 0, 2, -1, 0),
            (2, 1, 1): (3, -1, -1, 0, 1),
            (1, 1, 1, 1): (1, -1, 1, 1, -1),
        },
    ),
}


def _check_tables() -> None:
    for n, (classes, rows) in _TABLES.items():
        for lam, row in rows.items():
            if row[0] != hook_dim(lam):
                raise AssertionError(f"reference table S_{n}: wrong degree for {lam}")
            for mu, other in rows.items():
                s = sum(size * a * b for (_, size), a, b in zip(classes, row, other))
                if s != (factorial(n) if lam == mu else 0):
                    raise AssertionError(f"reference table S_{n}: rows {lam}, {mu}")


_check_tables()


def kron_small(lam, mu, nu) -> int:
    """Kronecker coefficient for n = 3 or 4 from the reference tables."""
    classes, rows = _TABLES[sum(lam)]
    total = sum(
        size * a * b * c
        for (_, size), a, b, c in zip(classes, rows[tuple(lam)], rows[tuple(mu)], rows[tuple(nu)])
    )
    value = Fraction(total, factorial(sum(lam)))
    if value.denominator != 1:
        raise AssertionError("reference Kronecker coefficient is not an integer")
    return int(value)


def pleth_dim_total(d: int, m: int) -> int:
    """sum_lam a_lam(d, m) d_lam = (md)! / (m!^d d!), the number of
    set partitions of md points into d blocks of size m."""
    return factorial(m * d) // (factorial(m) ** d * factorial(d))

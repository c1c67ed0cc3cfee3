"""Semistandard tableaux by direct enumeration: the reference that
`partitions.kostka`, a Pieri-rule recursion that lists no tableau, is
checked against."""

from kronlab.errors import InputError
from kronlab.partitions import Tableau, check_partition, transpose


def shape_of(tab):
    """Row lengths of a tableau."""
    return tuple(len(row) for row in tab)


def is_semistandard(tab) -> bool:
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


def is_standard(tab) -> bool:
    n = sum(len(row) for row in tab)
    entries = sorted(x for row in tab for x in row)
    return entries == list(range(1, n + 1)) and is_semistandard(tab)


def content(tab) -> tuple[int, ...]:
    """Occurrence counts of 1, 2, ..., max entry."""
    counts: dict[int, int] = {}
    for row in tab:
        for x in row:
            counts[x] = counts.get(x, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(i, 0) for i in range(1, max(counts) + 1))


def enumerate_ssyt(lam, mu):
    """Semistandard tableaux of shape lam and content mu.

    Cells are filled column by column; a value is only placed while its
    content budget lasts, which prunes most dead branches early.
    """
    lam = check_partition(lam)
    if sum(lam) != sum(mu):
        raise InputError(f"|shape| = {sum(lam)} but |content| = {sum(mu)}")
    lamt = transpose(lam)
    cells = [(i, j) for j in range(len(lamt)) for i in range(lamt[j])]
    budget = list(mu)
    grid = [[0] * p for p in lam]
    out: list[Tableau] = []

    def fill(pos: int):
        if pos == len(cells):
            out.append(tuple(tuple(r) for r in grid))
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])  # weak increase along the row
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)  # strict increase down the column
        for v in range(lo, len(mu) + 1):
            if budget[v - 1] == 0:
                continue
            budget[v - 1] -= 1
            grid[i][j] = v
            fill(pos + 1)
            grid[i][j] = 0
            budget[v - 1] += 1

    fill(0)
    return out

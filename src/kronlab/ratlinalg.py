"""Exact elimination on integer rows.

A matrix is a list of rows of Python ints; callers with rational entries
scale each row to integers first.  Nothing ever rounds.  The one
elimination, echelon, keeps each row primitive, which keeps the entries
of controlled size, and rref_kernel reads a kernel basis off its result.
"""

from __future__ import annotations

from math import gcd, lcm


def echelon(rows: list[list[int]]) -> list[int]:
    """In-place integer Gauss-Jordan elimination; returns the pivot columns.

    Afterwards rows[i], for i < len(pivots), is nonzero at pivots[i] and
    zero at every other pivot column, and all later rows are zero.  Every
    row is kept primitive (divided by the gcd of its entries), so rows[i]
    divided by rows[i][pivots[i]] is row i of the reduced row-echelon
    form.  A row with a zero in the pivot column is never touched.  Zero
    rows, given or cleared by a pivot, move past `height` and are not read again.
    """
    rows.sort(key=lambda row: not any(row))  # stable: zero rows last
    height = sum(map(any, rows))
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == height:
            break
        p = next((i for i in range(r, height) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        a = prow[c]
        cleared = set()
        for i in range(height):
            b = rows[i][c]
            if b and i != r:
                g = gcd(a, b)
                fa, fb = a // g, b // g
                row = [fa * x - fb * y for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
                if not g:
                    cleared.add(i)
        if cleared:
            # live rows keep their order: swapping the last one into each gap
            # changed later pivots and cost (4,1,1)^3 9 % more row operations
            live = [i for i in range(r + 1, height) if i not in cleared]
            rows[r + 1 : height] = [rows[i] for i in [*live, *cleared]]
            height = r + 1 + len(live)
        pivots.append(c)
    return pivots


def rref_kernel(rows: list[list[int]], pivots: list[int], cols: int) -> tuple[list[dict[int, int]], int]:
    """Right-kernel basis read off echelon's rows and pivots, one vector per
    free column, over one common denominator (the lcm of the pivot
    entries).  Each vector is a sparse {column: numerator} dict: its free
    column, then the pivot columns where it is nonzero."""
    den = lcm(1, *(row[pc] for row, pc in zip(rows, pivots)))
    basis = [
        {fc: den} | {pc: -row[fc] * (den // row[pc]) for row, pc in zip(rows, pivots) if row[fc]}
        for fc in sorted(set(range(cols)).difference(pivots))
    ]
    return basis, den

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
    form.  A row with a zero in the pivot column is never touched.
    """
    height = len(rows)
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
        for i in range(height):
            b = rows[i][c]
            if b and i != r:
                g = gcd(a, b)
                fa, fb = a // g, b // g
                row = [fa * x - fb * y for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return pivots


def rref_kernel(rows: list[list[int]], pivots: list[int], cols: int) -> tuple[list[list[int]], int]:
    """Right-kernel basis read off echelon's rows and pivots, one vector per
    free column, as integer vectors over one common denominator (the lcm
    of the pivot entries)."""
    den = lcm(1, *(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for fc in sorted(set(range(cols)).difference(pivots)):
        vec = [0] * cols
        vec[fc] = den
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * (den // row[pc])
        basis.append(vec)
    return basis, den

"""Small exact rational matrix toolkit.

Matrices are lists of lists of Fractions (or ints, which mix freely).
Everything here is exact; nothing ever rounds.  The one elimination,
echelon, works on integer rows (clear denominators first) and keeps each
row primitive, which keeps the entries of controlled size.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]


def identity_matrix(d: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zero_matrix(rows, cols)
    for i in range(rows):
        ai = a[i]
        row = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        row[j] += x * bk[j]
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(ra == rb for ra, rb in zip(a, b))


def mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[0] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            x = a[i][j]
            if not x:
                continue
            for k in range(rb):
                target = out[i * rb + k]
                brow = b[k]
                for l in range(cb):
                    if brow[l]:
                        target[j * cb + l] = x * brow[l]
    return out


def clear_denominators(a: Matrix) -> tuple[list[list[int]], int]:
    """Integer matrix den * a and the least common denominator den."""
    den = 1
    for row in a:
        for x in row:
            den = lcm(den, Fraction(x).denominator)
    return [[int(Fraction(x) * den) for x in row] for row in a], den


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

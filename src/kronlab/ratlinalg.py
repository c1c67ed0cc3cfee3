"""Small exact rational matrix toolkit.

Matrices are lists of lists of Fractions (or ints, which mix freely).
Everything here is exact; nothing ever rounds.  Rank uses fraction-free
(Bareiss) elimination after clearing denominators, which keeps integer
entries of controlled size.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(ra == rb for ra, rb in zip(a, b))


def mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = zero_matrix(ra * rb, ca * cb)
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


def clear_denominators(a: Matrix) -> list[list[int]]:
    den = 1
    for row in a:
        for x in row:
            den = lcm(den, Fraction(x).denominator)
    return [[int(Fraction(x) * den) for x in row] for row in a]


def rank(a: Matrix) -> int:
    """Exact rank via fraction-free (Bareiss) elimination."""
    m = clear_denominators(a)
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and the list of pivot columns."""
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column of the RREF."""
    return rref_kernel(*rref(a), len(a[0]) if a else 0)


def rref_kernel(reduced: Matrix, pivots: list[int], cols: int) -> list[list[Fraction]]:
    """Right-kernel basis read off an RREF and its pivot columns."""
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis

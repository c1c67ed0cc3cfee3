"""The Fraction reduced row-echelon form: the reference the integer
elimination in ratlinalg is checked against.  It shares no code with it.
clear_denominators turns a Fraction matrix into the integer rows that
ratlinalg takes."""

from fractions import Fraction
from math import lcm


def clear_denominators(a):
    """Integer matrix den * a and the least common denominator den."""
    den = lcm(1, *(Fraction(x).denominator for row in a for x in row))
    return [[int(Fraction(x) * den) for x in row] for row in a], den


def rref(a):
    """Reduced row-echelon form and the list of pivot columns."""
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
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


def kernel(reduced, pivots, cols):
    """Right-kernel basis read off an RREF, one vector per free column."""
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis

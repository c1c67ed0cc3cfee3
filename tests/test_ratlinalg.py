from fractions import Fraction

from rref_reference import clear_denominators, kernel, rref

from kronlab.ratlinalg import echelon, rref_kernel


def F(x, y=1):
    return Fraction(x, y)


def rank(m):
    return len(echelon(clear_denominators(m)[0]))


def kernel_basis(m):
    """rref_kernel's sparse vectors as {column: Fraction} dicts."""
    rows = clear_denominators(m)[0]
    vectors, den = rref_kernel(rows, echelon(rows), len(m[0]))
    return [{j: F(x, den) for j, x in vec.items()} for vec in vectors]


class TestRank:
    def test_full_and_deficient(self):
        assert rank([[F(int(i == j)) for j in range(4)] for i in range(4)]) == 4
        assert rank([[F(0)] * 5 for _ in range(3)]) == 0
        # rank-1 outer product
        outer = [[F(i * j) for j in range(1, 5)] for i in range(1, 4)]
        assert rank(outer) == 1

    def test_rational_entries(self):
        m = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]
        assert rank(m) == 1
        m2 = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
        assert rank(m2) == 2

    def test_rank_matches_rref_pivots(self):
        import random

        rng = random.Random(11)
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            _, pivots = rref(m)
            assert rank(m) == len(pivots)


class TestKernel:
    def test_kernel_dimension(self):
        m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
        basis = kernel_basis(m)
        assert len(basis) == 2
        for vec in basis:
            out = [sum(row[j] * x for j, x in vec.items()) for row in m]
            assert all(x == 0 for x in out)
        reduced, pivots = rref(m)
        dense = [[vec.get(j, F(0)) for j in range(3)] for vec in basis]
        assert dense == kernel(reduced, pivots, 3)

    def test_projector_image_plus_kernel(self):
        half = F(1, 2)
        proj = [[half, half], [half, half]]
        assert rank(proj) == 1
        assert len(kernel_basis(proj)) == 1
        square = [[sum(x * proj[k][j] for k, x in enumerate(row)) for j in range(2)] for row in proj]
        assert square == proj

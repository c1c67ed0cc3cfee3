import tracemalloc
from fractions import Fraction

import pytest

from kronlab import specht
from kronlab.characters import character_table
from kronlab.errors import BoundExceededError, ConsistencyError, InputError
from kronlab.partitions import enumerate_partitions, hook_dimension, kostka
from kronlab.permutations import (
    all_perms,
    block_permutations,
    compose,
    cycle_type,
    full_group,
    wreath_product,
    young_subgroup,
)
from kronlab.specht import (
    DEFAULT_DIM_BOUND,
    build_seminormal,
    check_coxeter,
    class_trace,
    invariant_dim,
)


def dense_matrix(rep, pi):
    """Dense matrix of pi: bubble-sort pi into a word, then apply the word
    to each basis row vector."""
    # sort pi to the identity by right-multiplying adjacent swaps:
    # pi * s_{a1} * ... * s_{am} = id  =>  pi = s_{am} * ... * s_{a1}
    word, q = [], list(pi)
    for _ in q:
        for i in range(len(q) - 1):
            if q[i] > q[i + 1]:
                q[i], q[i + 1] = q[i + 1], q[i]
                word.append(i)
    rows = [rep.apply({t: Fraction(1)}, reversed(word)) for t in range(rep.dim)]
    return [[row.get(s, 0) for s in range(rep.dim)] for row in rows]


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


class TestSeminormalForm:
    def test_one_dimensional_rows(self):
        for n in (2, 3, 4, 5):
            triv = build_seminormal((n,))
            sign = build_seminormal((1,) * n)
            for rows in triv.generators:
                assert rows == [{0: 1}]
            for rows in sign.generators:
                assert rows == [{0: -1}]

    def test_generators_of_3_2(self):
        # every entry of s_1..s_4 for (3, 2), so a change of convention or
        # of anchor fails: 1x1 entries +-1, and 2x2 blocks with axial
        # distance -2 (s_2 at [[1,2,4],[3,5]]) and -3 (s_3 at [[1,2,3],[4,5]])
        rep = build_seminormal((3, 2))
        assert rep.basis == (
            ((1, 2, 3), (4, 5)),
            ((1, 2, 4), (3, 5)),
            ((1, 2, 5), (3, 4)),
            ((1, 3, 4), (2, 5)),
            ((1, 3, 5), (2, 4)),
        )
        F = Fraction
        assert rep.generators == [
            [{0: 1}, {1: 1}, {2: 1}, {3: -1}, {4: -1}],
            [{0: 1}, {1: F(-1, 2), 3: F(3, 4)}, {2: F(-1, 2), 4: F(3, 4)}, {1: 1, 3: F(1, 2)}, {2: 1, 4: F(1, 2)}],
            [{0: F(-1, 3), 1: F(8, 9)}, {0: 1, 1: F(1, 3)}, {2: 1}, {3: 1}, {4: -1}],
            [{0: 1}, {1: F(-1, 2), 2: F(3, 4)}, {1: 1, 2: F(1, 2)}, {3: F(-1, 2), 4: F(3, 4)}, {3: 1, 4: F(1, 2)}],
        ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_coxeter_relations(self, n):
        for lam in enumerate_partitions(n):
            check_coxeter(build_seminormal(lam))

    def test_identity_matrix(self):
        rep = build_seminormal((2, 1))
        assert dense_matrix(rep, (1, 2, 3)) == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_traces_match_characters(self, n):
        table = character_table(n)
        for lam in enumerate_partitions(n):
            rep = build_seminormal(lam)
            for rho in table.classes:
                assert class_trace(rep, rho) == table.chi(lam, rho), (lam, rho)

    def test_traces_match_characters_n6(self):
        table = character_table(6)
        for lam in enumerate_partitions(6):
            rep = build_seminormal(lam)
            for rho in table.classes:
                assert class_trace(rep, rho) == table.chi(lam, rho), (lam, rho)

    def test_traces_class_constant(self):
        for n in (3, 4):
            for lam in enumerate_partitions(n):
                rep = build_seminormal(lam)
                by_class = {}
                for pi in all_perms(n):
                    by_class.setdefault(cycle_type(pi), set()).add(trace(dense_matrix(rep, pi)))
                assert all(len(vals) == 1 for vals in by_class.values())

    def test_specific_trace(self):
        rep = build_seminormal((2, 1))
        assert class_trace(rep, (3,)) == -1

    def test_homomorphism_property(self):
        rep = build_seminormal((3, 1))
        elems = all_perms(4)
        for a in elems[::5]:
            ma = dense_matrix(rep, a)
            for b in elems[::7]:
                mb = dense_matrix(rep, b)
                product = [
                    [sum(x * mb[k][j] for k, x in enumerate(row)) for j in range(rep.dim)]
                    for row in ma
                ]
                assert dense_matrix(rep, compose(a, b)) == product


class TestInvariantDimensions:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_young_invariants_are_kostka_numbers(self, n):
        for lam in enumerate_partitions(n):
            rep = build_seminormal(lam)
            for mu in enumerate_partitions(n):
                assert invariant_dim([rep], young_subgroup(mu)) == kostka(lam, mu), (lam, mu)

    def test_self_young_invariant_is_one(self):
        for n in (3, 4, 5):
            for lam in enumerate_partitions(n):
                rep = build_seminormal(lam)
                assert invariant_dim([rep], young_subgroup(lam)) == 1

    def test_full_group_invariants(self):
        # only the trivial representation has an invariant vector
        for n in (3, 4):
            for lam in enumerate_partitions(n):
                rep = build_seminormal(lam)
                expected = 1 if lam == (n,) else 0
                assert invariant_dim([rep], full_group(n)) == expected

    def test_tensor_square_invariants_count_self_pairings(self):
        # dim of invariants in [lam] x [mu] under the diagonal action is
        # [lam == mu] (self-duality of Specht modules)
        n = 4
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                reps = [build_seminormal(lam), build_seminormal(mu)]
                assert invariant_dim(reps, full_group(n)) == (1 if lam == mu else 0)

    def test_mutated_generator_is_caught(self):
        # a doubled block entry breaks s^2 = 1: the group it generates is not S_n
        rep = build_seminormal((2, 1))
        rep.generators[0][0][0] *= 2
        with pytest.raises(ConsistencyError):
            invariant_dim([rep, build_seminormal((2, 1))], full_group(3))

    def test_repeated_shape_checked_and_traced_once(self, monkeypatch):
        # (2,1) given twice is Coxeter-checked and traced once per class,
        # so two representations of one shape must have equal generators
        calls = []

        def counted(rep, rho):
            calls.append(rep.shape)
            return class_trace(rep, rho)

        monkeypatch.setattr(specht, "class_trace", counted)
        rep = build_seminormal((2, 1))
        assert invariant_dim([rep, build_seminormal((2, 1)), build_seminormal((3,))], full_group(3)) == 1
        assert sorted(calls) == [(2, 1)] * 3 + [(3,)] * 3
        other = build_seminormal((2, 1))
        other.generators[0][0][0] *= 2
        with pytest.raises(ConsistencyError, match="different generators"):
            invariant_dim([other, rep], full_group(3))

    def test_braid_breaking_mutation_is_caught(self):
        # negating the 1x1 entry of s_1 at tableau 0 of (2,1) makes s_1 = -I:
        # s_1^2 = 1 still holds, but s_1 s_2 s_1 = s_2 != -I = s_2 s_1 s_2
        rep = build_seminormal((2, 1))
        assert rep.generators[0] == [{0: 1}, {1: -1}]
        rep.generators[0][0][0] = -rep.generators[0][0][0]
        with pytest.raises(ConsistencyError, match="braid"):
            check_coxeter(rep)

    @pytest.mark.parametrize("g", [wreath_product(2, 2), block_permutations(2, 2)], ids=lambda g: g.label())
    def test_non_young_subgroup_refused(self, g):
        rep = build_seminormal((2, 2))
        with pytest.raises(InputError, match="not a Young subgroup"):
            invariant_dim([rep], g)

    def test_dimension_bound_checked_before_allocation(self):
        # 35^3 = 42875 > DEFAULT_DIM_BOUND: refused before any constraint row
        rep = build_seminormal((3, 2, 1, 1))
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceededError):
                invariant_dim([rep, rep, rep], full_group(7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.dim**3 > DEFAULT_DIM_BOUND
        assert peak < 1 << 20

    def test_dimension_column_of_table(self):
        for n in (2, 3, 4, 5, 6):
            for lam in enumerate_partitions(n):
                assert len(build_seminormal(lam).basis) == hook_dimension(lam)

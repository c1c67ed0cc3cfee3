import random
from collections import Counter
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import contains, from_cycles

from kronlab.errors import InputError
from kronlab.partitions import enumerate_partitions
from kronlab.permutations import (
    all_perms,
    block_permutations,
    centralizer_order,
    class_census,
    class_indices,
    class_size,
    compose,
    cycle_type,
    cycle_type_census,
    decode_permutation,
    encode_permutation,
    enumerate_subgroup,
    SubgroupDescriptor,
    full_group,
    identity,
    inverse,
    perm_array,
    perm_ranks,
    wreath_embed,
    wreath_product,
    young_subgroup,
)


class TestComposition:
    def test_transposition_involution(self):
        t = from_cycles(2, [(1, 2)])
        assert compose(t, t) == identity(2)

    def test_cycle_inverse(self):
        assert inverse(from_cycles(3, [(1, 2, 3)])) == from_cycles(3, [(1, 3, 2)])

    def test_convention(self):
        # (1 2) after (2 3): x=1 -> 1 -> 2, x=2 -> 3 -> 3, x=3 -> 2 -> 1
        got = compose(from_cycles(3, [(1, 2)]), from_cycles(3, [(2, 3)]))
        assert got == (2, 3, 1)
        assert cycle_type(got) == (3,)

    def test_group_axioms_small(self):
        for n in (2, 3, 4):
            elems = all_perms(n)
            for a in elems:
                assert compose(a, inverse(a)) == identity(n)
                assert compose(identity(n), a) == a

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            compose((1, 2), (1, 2, 3))


class TestCycleTypes:
    def test_examples(self):
        assert cycle_type(identity(4)) == (1, 1, 1, 1)
        assert cycle_type(from_cycles(4, [(1, 2), (3, 4)])) == (2, 2)
        assert cycle_type(from_cycles(5, [(1, 3, 2)])) == (3, 1, 1)

    def test_conjugacy_invariance(self):
        # exhaustive through n = 5; sampled at n = 6
        for n in range(2, 6):
            elems = all_perms(n)
            for pi in elems:
                t = cycle_type(pi)
                for sigma in elems:
                    assert cycle_type(compose(sigma, compose(pi, inverse(sigma)))) == t
        elems = all_perms(6)
        for pi in elems[::13]:
            t = cycle_type(pi)
            for sigma in elems[::17]:
                assert cycle_type(compose(sigma, compose(pi, inverse(sigma)))) == t

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 7):
            total = sum(class_size(rho) for rho in enumerate_partitions(n))
            assert total == factorial(n)

    def test_class_size_by_enumeration(self):
        for n in range(2, 6):
            census = Counter(cycle_type(p) for p in all_perms(n))
            for rho, count in census.items():
                assert class_size(rho) == count
                assert centralizer_order(rho) * count == factorial(n)

    def test_examples_from_s4(self):
        assert class_size((2, 1, 1)) == 6
        assert class_size((3, 1)) == 8
        assert class_size((1, 1, 1, 1)) == 1
        assert centralizer_order((1, 1, 1, 1)) == 24


class TestYoungSubgroups:
    def test_klein_four_example(self):
        got = set(enumerate_subgroup(young_subgroup((2, 2))))
        assert got == {(1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)}

    def test_full_row_is_whole_group(self):
        for n in (1, 2, 3, 4):
            assert set(enumerate_subgroup(young_subgroup((n,)))) == set(all_perms(n))

    def test_orders_and_membership(self):
        for n in range(2, 7):
            for mu in enumerate_partitions(n):
                g = young_subgroup(mu)
                elems = enumerate_subgroup(g)
                assert len(elems) == g.order()
                assert len(set(elems)) == g.order()
                assert all(contains(g, e) for e in elems)

    def test_blocks_fixed(self):
        g = young_subgroup((2, 1))
        assert not contains(g, (3, 2, 1))
        assert contains(g, (2, 1, 3))


class TestWreathProducts:
    def test_embed_block_swap(self):
        assert wreath_embed((2, 1), 2) == (3, 4, 1, 2)
        assert wreath_embed(identity(3), 2) == identity(6)
        assert wreath_embed((2, 3, 1), 2) == (3, 4, 5, 6, 1, 2)

    def test_embed_is_homomorphism(self):
        for m in (1, 2, 3):
            for d in (2, 3):
                for a in all_perms(d):
                    for b in all_perms(d):
                        assert wreath_embed(compose(a, b), m) == compose(
                            wreath_embed(a, m), wreath_embed(b, m)
                        )

    def test_embed_normalizes_base_young_subgroup(self):
        m, d = 2, 3
        base = set(enumerate_subgroup(young_subgroup((m,) * d)))
        for s in all_perms(d):
            phi = wreath_embed(s, m)
            conj = {compose(phi, compose(y, inverse(phi))) for y in base}
            assert conj == base

    def test_census_2_2(self):
        census = cycle_type_census(wreath_product(2, 2))
        assert census == {(1, 1, 1, 1): 1, (2, 1, 1): 2, (2, 2): 3, (4,): 2}

    @pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4)])
    def test_orders_membership_closure(self, m, d):
        g = wreath_product(m, d)
        elems = enumerate_subgroup(g)
        assert len(elems) == factorial(m) ** d * factorial(d) == len(set(elems))
        assert all(contains(g, e) for e in elems)
        elem_set = set(elems)
        sample = elems[:: max(1, len(elems) // 40)]
        for a in sample:
            assert inverse(a) in elem_set
            for b in sample:
                assert compose(a, b) in elem_set

    @pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (2, 4), (4, 2)])
    def test_generated_by_base_and_blocks(self, m, d):
        gens = list(enumerate_subgroup(young_subgroup((m,) * d))) + list(
            enumerate_subgroup(block_permutations(m, d))
        )
        seen = {identity(m * d)}
        frontier = [identity(m * d)]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = compose(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        assert seen == set(enumerate_subgroup(wreath_product(m, d)))

    def test_block_permutations_are_exactly_the_image(self):
        g = block_permutations(2, 3)
        elems = enumerate_subgroup(g)
        assert set(elems) == {wreath_embed(s, 2) for s in all_perms(3)}
        assert contains(g, wreath_embed((2, 1, 3), 2))
        assert not contains(g, from_cycles(6, [(1, 2)]))


class TestFixedPointIdentity:
    def test_left_right_translation_fixed_points(self):
        # #{sigma : l sigma tau^-1 = sigma} is the centralizer order when
        # l and tau are conjugate, else 0
        for n in range(2, 6):
            elems = all_perms(n)
            step = max(1, len(elems) // 24)
            for l in elems[::step]:
                for tau in elems[::step]:
                    count = sum(
                        1 for s in elems if compose(l, compose(s, inverse(tau))) == s
                    )
                    if cycle_type(l) == cycle_type(tau):
                        assert count == centralizer_order(cycle_type(tau))
                    else:
                        assert count == 0


class TestPermutationEncoding:
    def test_examples(self):
        assert encode_permutation((1, 2)) == "1001"
        assert encode_permutation((2, 1)) == "0110"
        assert encode_permutation((2, 3, 1)) == "010001100"

    def test_round_trip(self):
        for n in range(1, 5):
            for pi in all_perms(n):
                assert decode_permutation(encode_permutation(pi)) == pi

    def test_decode_rejects_bad_matrices(self):
        with pytest.raises(InputError):
            decode_permutation("11" + "00")  # row not one-hot? actually "1100"
        with pytest.raises(InputError):
            decode_permutation("100100001")  # two ones in one column
        with pytest.raises(InputError):
            decode_permutation("10010")  # not a square length


class TestFullGroup:
    def test_enumeration(self):
        g = full_group(4)
        assert len(enumerate_subgroup(g)) == 24 == g.order()
        assert all_perms(3)[0] == identity(3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_one_block_young_subgroup(self, n):
        assert full_group(n) == young_subgroup((n,))
        assert enumerate_subgroup(full_group(n)) == tuple(all_perms(n))


class TestSubgroupDescriptor:
    @pytest.mark.parametrize("kind, shape", [("young", ()), ("wreath", (2, 1)), ("block_perms", (3, 1, 1))])
    def test_bad_blocks_refused_at_construction(self, kind, shape):
        with pytest.raises(InputError):
            SubgroupDescriptor(kind, shape)

    @pytest.mark.parametrize("make", [wreath_product, block_permutations])
    @pytest.mark.parametrize("m, d", [(0, 2), (2, 0), (-1, 2), (2, -1)])
    def test_constructors_refuse_empty_blocks(self, make, m, d):
        with pytest.raises(InputError):
            make(m, d)

    def test_sizes_read_off_the_blocks(self):
        cases = (
            (young_subgroup([3, 2, 1]), (3, 2, 1), 6, 3, 3, 12),
            (wreath_product(3, 2), (3, 3), 6, 3, 2, 72),
            (block_permutations(3, 2), (3, 3), 6, 3, 2, 2),
        )
        for g, shape, degree, m, d, order in cases:
            assert (g.shape, g.degree, g.m, g.d, g.order()) == (shape, degree, m, d, order)

    @pytest.mark.parametrize(
        "g",
        [
            young_subgroup((3, 2, 1)),
            young_subgroup((2, 2, 1, 1)),
            wreath_product(2, 3),
            wreath_product(3, 2),
            block_permutations(2, 3),
            block_permutations(1, 5),
        ],
        ids=lambda g: g.label(),
    )
    def test_membership_matches_enumeration(self, g):
        assert {pi for pi in all_perms(g.degree) if contains(g, pi)} == set(enumerate_subgroup(g))


class TestPermArrays:
    """The numpy helpers against all_perms and cycle_type, for every n <= 7."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_ranks_and_classes(self, n):
        perms = all_perms(n)
        arr = perm_array(n)
        assert arr.dtype == np.uint8
        assert [tuple(int(x) + 1 for x in row) for row in arr] == perms
        classes = enumerate_partitions(n)
        order = list(range(len(perms)))
        random.Random(n).shuffle(order)  # not only in all_perms order
        shuffled = arr[order]
        assert perm_ranks(shuffled).tolist() == order
        assert [classes[c] for c in class_indices(shuffled)] == [cycle_type(perms[i]) for i in order]

    def test_ranks_of_products_on_a_leading_axis(self):
        arr = perm_array(4)
        products = arr[:, arr]  # products[i, j] = a_i o a_j
        perms = all_perms(4)
        assert perm_ranks(products).tolist() == [
            [perms.index(compose(a, b)) for b in perms] for a in perms
        ]


class TestClassCensus:
    """Closed-form censuses against enumeration."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_and_young_subgroups(self, n):
        for mu in enumerate_partitions(n):
            g = young_subgroup(mu)
            assert class_census(g) == cycle_type_census(g)
        assert class_census(full_group(n)) == cycle_type_census(full_group(n))

    @given(m=st.integers(1, 8), d=st.integers(1, 8))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_wreath_and_block_permutations(self, m, d):
        assume(factorial(m) ** d * factorial(d) <= 10**5)
        for g in (wreath_product(m, d), block_permutations(m, d)):
            census = class_census(g)
            assert census == cycle_type_census(g)
            assert sum(census.values()) == g.order()

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            SubgroupDescriptor("cyclic", (3,))

from math import comb, factorial

import numpy as np
import pytest
from helpers import decode_diagram, diagram_contains, is_horizontal_strip, reference_check_partition, schur_dim_gl
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ssyt_reference import content, enumerate_ssyt, is_semistandard, is_standard, shape_of

from kronlab.errors import BoundExceededError, InputError
from kronlab.partitions import (
    KOSTKA_WORK_LIMIT,
    check_partition,
    encode_diagram,
    enumerate_partitions,
    enumerate_syt,
    hook_dimension,
    kostka,
    row_word,
    shapes_inside,
    transpose,
)


class TestTranspose:
    def test_examples(self):
        assert transpose((5, 3)) == (2, 2, 2, 1, 1)
        assert transpose((3, 1)) == (2, 1, 1)
        for n in range(1, 8):
            assert transpose((n,)) == (1,) * n

    def test_involution_and_size(self):
        for n in range(9):
            for lam in enumerate_partitions(n):
                assert transpose(transpose(lam)) == lam
                assert sum(transpose(lam)) == n


class TestEnumeration:
    def test_reverse_lexicographic_order(self):
        assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_empty_partition(self):
        assert enumerate_partitions(0) == [()]

    def test_counts(self):
        known = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}
        for n, p in known.items():
            parts = enumerate_partitions(n)
            assert len(parts) == p
            assert len(set(parts)) == p
            assert all(sum(lam) == n for lam in parts)

    def test_validation(self):
        with pytest.raises(InputError):
            check_partition((1, 2))
        with pytest.raises(InputError):
            check_partition((2, 0))


def _outcome(check, parts):
    """check(parts), or the message of the InputError it raises."""
    try:
        return check(parts)
    except InputError as exc:
        return f"InputError: {exc}"


class TestCheckPartition:
    """check_partition takes one sorted comparison on valid input and
    scans only invalid input; the reference is the plain loop over the
    parts, so every result and every message, including which fault is
    named first, must match it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(parts=st.lists(st.integers(-3, 6), max_size=7))
    @example(parts=[])
    @example(parts=[0])
    @example(parts=[3, 3, 1])
    def test_matches_the_reference_loop(self, parts):
        expected = _outcome(reference_check_partition, parts)
        for given_as in (parts, tuple(parts), np.array(parts, dtype=np.int64), iter(parts)):
            assert _outcome(check_partition, given_as) == expected

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((2, 0, 1), "partition parts must be positive, got (2, 0, 1)"),
            ((1, 2, 0), "partition parts must be weakly decreasing, got (1, 2, 0)"),
            ((3, -1, 2), "partition parts must be positive, got (3, -1, 2)"),
            ((0, 2), "partition parts must be positive, got (0, 2)"),
            ((2, 1, 3, 0), "partition parts must be weakly decreasing, got (2, 1, 3, 0)"),
            ((3, 3, -2), "partition parts must be positive, got (3, 3, -2)"),
        ],
    )
    def test_mixed_faults_name_the_first(self, parts, message):
        with pytest.raises(InputError) as exc:
            check_partition(parts)
        assert str(exc.value) == message
        assert _outcome(reference_check_partition, parts) == f"InputError: {message}"

    def test_canonical_ints(self):
        lam = check_partition([np.int64(3), True, 1.0])
        assert lam == (3, 1, 1) and all(type(p) is int for p in lam)


class TestDiagramEncoding:
    def test_examples(self):
        assert encode_diagram((5, 3)) == "0000100"
        assert encode_diagram((4,)) == "000"
        assert encode_diagram((1, 1, 1)) == "11"

    def test_round_trip(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert decode_diagram(encode_diagram(lam)) == lam

    def test_decode_rejects_non_partitions(self):
        # "10" would be rows (1, 2), which is not weakly decreasing
        with pytest.raises(InputError):
            decode_diagram("10")
        with pytest.raises(InputError):
            decode_diagram("0x1")

    def test_single_box(self):
        assert encode_diagram((1,)) == ""
        assert decode_diagram("") == (1,)


class TestHookDimension:
    def test_examples(self):
        assert hook_dimension((2, 1)) == 2
        assert hook_dimension((2, 2)) == 2
        for n in range(1, 9):
            assert hook_dimension((n,)) == 1
            assert hook_dimension((1,) * n) == 1

    def test_regular_representation(self):
        for n in range(1, 9):
            assert sum(hook_dimension(lam) ** 2 for lam in enumerate_partitions(n)) == factorial(n)

    def test_transpose_symmetry(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert hook_dimension(lam) == hook_dimension(transpose(lam))


class TestStandardTableaux:
    def test_counts_match_hooks(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                tabs = enumerate_syt(lam)
                assert len(tabs) == hook_dimension(lam)
                assert all(shape_of(t) == lam for t in tabs)
                assert all(is_standard(t) for t in tabs)

    def test_row_word_order(self):
        for lam in [(2, 1), (3, 2), (2, 2, 1)]:
            words = [row_word(t) for t in enumerate_syt(lam)]
            assert words == sorted(words)

    def test_small_cases(self):
        assert len(enumerate_syt((1, 1))) == 1
        assert enumerate_syt((2, 1)) == (((1, 2), (3,)), ((1, 3), (2,)))


class TestKostka:
    def test_known_value(self):
        assert kostka((3, 1), (2, 1, 1)) == 2

    def test_diagonal_is_one(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert kostka(lam, lam) == 1

    def test_all_ones_content_gives_dimension(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                assert kostka(lam, (1,) * n) == hook_dimension(lam)

    def test_ssyt_are_semistandard_with_content(self):
        for tab in enumerate_ssyt((3, 1), (2, 1, 1)):
            assert is_semistandard(tab)
            assert content(tab) == (2, 1, 1)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            kostka((2, 1), (2, 2))
        with pytest.raises(InputError):
            kostka((2, 1), (4, -1))

    def test_content_order_does_not_matter(self):
        # K(lam, mu) is symmetric in the order of mu's parts, zeros included
        assert kostka((3, 2), (1, 2, 0, 2)) == kostka((3, 2), (2, 2, 1)) == len(enumerate_ssyt((3, 2), (1, 2, 0, 2)))


    def test_shapes_inside_by_listing(self):
        for n in range(8):
            for lam in enumerate_partitions(n):
                listed = sum(diagram_contains(nu, lam) for m in range(n + 1) for nu in enumerate_partitions(m))
                assert shapes_inside(lam, 10**6) == listed
                assert shapes_inside(lam, 3) == min(listed, 4)
        assert shapes_inside(tuple(range(10, 0, -1)), 10**6) == 58786  # a Catalan number

    def test_work_bound(self):
        # shapes inside lam times its rows: a column of 547 cells (548
        # shapes) passes, one of 548 cells does not
        assert 548 * 547 <= KOSTKA_WORK_LIMIT < 549 * 548
        assert kostka((1,) * 547, (1,) * 547) == 1
        with pytest.raises(BoundExceededError):
            kostka((1,) * 548, (1,) * 548)
        with pytest.raises(BoundExceededError):
            kostka(tuple(range(10, 0, -1)), (1,) * 55)
        assert kostka(tuple(range(9, 0, -1)), (1,) * 45) == hook_dimension(tuple(range(9, 0, -1)))

    def test_long_rows_and_columns_count_without_deep_recursion(self):
        assert kostka((5000,), (1,) * 5000) == 1
        assert kostka((150, 100), (1,) * 250) == hook_dimension((150, 100))
        assert kostka((1,) * 500, (1,) * 500) == 1


def _kostka_by_strip_peeling(lam, mu, _memo={}):
    """Independent oracle: peel content parts from last to first, each
    removal a horizontal strip (the iterated invariant-restriction view)."""
    key = (lam, mu)
    if key in _memo:
        return _memo[key]
    if not mu:
        return 1 if not lam else 0
    last = mu[-1]
    total = 0
    target = sum(lam) - last
    for nu in enumerate_partitions(target):
        if is_horizontal_strip(nu, lam):
            total += _kostka_by_strip_peeling(nu, mu[:-1])
    _memo[key] = total
    return total


class TestHorizontalStrips:
    def test_examples(self):
        assert is_horizontal_strip((3,), (5, 3)) is True
        assert is_horizontal_strip((2, 2), (2, 2)) is True
        assert is_horizontal_strip((1,), (1, 1, 1)) is False

    def test_pieri_peeling_matches_kostka(self):
        # kostka peels strips too, so both are checked against the
        # tableaux listed one by one
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    count = len(enumerate_ssyt(lam, mu))
                    assert _kostka_by_strip_peeling(lam, mu) == kostka(lam, mu) == count, (lam, mu)


def _count_ssyt_bounded(lam, bound):
    """Brute force: semistandard fillings with entries at most bound."""
    from itertools import product

    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    count = 0
    for values in product(range(1, bound + 1), repeat=len(cells)):
        grid = {}
        ok = True
        for (i, j), v in zip(cells, values):
            if j > 0 and v < grid[(i, j - 1)]:
                ok = False
                break
            if i > 0 and v <= grid[(i - 1, j)]:
                ok = False
                break
            grid[(i, j)] = v
        if ok:
            count += 1
    return count


class TestSchurDimension:
    def test_examples(self):
        assert schur_dim_gl((1,), 7) == 7
        assert schur_dim_gl((2,), 2) == 3
        assert schur_dim_gl((2, 2), 4) == 20

    def test_too_many_rows(self):
        assert schur_dim_gl((1, 1, 1), 2) == 0

    def test_against_brute_force_tableau_count(self):
        for lam, bound in [((2, 1), 2), ((2, 1), 3), ((2, 2), 3), ((3, 1), 2), ((2, 2), 4)]:
            assert schur_dim_gl(lam, bound) == _count_ssyt_bounded(lam, bound)

    def test_full_symmetric_and_exterior_powers(self):
        for m in range(1, 5):
            for big_n in range(1, 5):
                assert schur_dim_gl((m,), big_n) == comb(big_n + m - 1, m)
                expected = comb(big_n, m)
                assert schur_dim_gl((1,) * m, big_n) == expected

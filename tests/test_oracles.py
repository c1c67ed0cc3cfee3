from itertools import combinations_with_replacement
from itertools import permutations as iter_permutations
from math import comb

import pytest
from helpers import schur_dim_gl

from kronlab import oracles
from kronlab.characters import CharacterTable, character_table
from kronlab.errors import BoundExceededError, InputError
from kronlab.oracles import (
    CoefficientResult,
    kron_char,
    kron_invariant_def,
    pleth_wreath,
    scaled_kron,
)
from kronlab.partitions import (
    enumerate_partitions,
    hook_dimension,
    transpose,
)


class TestKroneckerCharacterOracle:
    def test_trivial_triple(self):
        for n in range(1, 7):
            assert kron_char((n,), (n,), (n,)).value == 1

    def test_trivial_third_factor_is_orthogonality(self):
        for n in (2, 3, 4, 5):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    expected = 1 if lam == mu else 0
                    assert kron_char(lam, mu, (n,)).value == expected

    def test_standard_small_values(self):
        assert kron_char((2, 1), (2, 1), (2, 1)).value == 1
        assert kron_char((2, 1), (3,), (1, 1, 1)).value == 0
        assert kron_char((2, 1), (2, 1), (3,)).value == 1

    def test_rows_come_from_the_table_served_on_each_call(self, monkeypatch):
        # the rows of (3,1) and (2,2) swapped at n = 4 move 8 of the 35
        # unordered triples; a memo keyed by n would keep the true values
        triples = list(combinations_with_replacement(enumerate_partitions(4), 3))
        true = {t: kron_char(*t).value for t in triples}
        table = character_table(4)
        rows = {**table.rows, (3, 1): table.row((2, 2)), (2, 2): table.row((3, 1))}
        swapped = CharacterTable(4, table.classes, table.class_sizes, rows)
        monkeypatch.setattr(oracles, "character_table", lambda n: swapped)
        changed = [t for t in triples if kron_char(*t).value != true[t]]
        assert len(triples) == 35 and len(changed) == 8
        assert all({(3, 1), (2, 2)} & set(t) for t in changed)
        monkeypatch.undo()
        assert {t: kron_char(*t).value for t in triples} == true

    def test_symmetric_under_argument_permutations(self):
        for n in (3, 4, 5):
            parts = enumerate_partitions(n)
            for lam in parts:
                for mu in parts:
                    for nu in parts:
                        base = kron_char(lam, mu, nu).value
                        for order in iter_permutations((lam, mu, nu)):
                            assert kron_char(*order).value == base

    def test_transpose_invariance(self):
        for n in (2, 3, 4, 5, 6):
            parts = enumerate_partitions(n)
            for lam in parts:
                for mu in parts:
                    for nu in parts:
                        assert (
                            kron_char(lam, mu, nu).value
                            == kron_char(transpose(lam), transpose(mu), nu).value
                        )

    def test_tensor_product_fully_decomposes(self):
        for n in range(2, 8):
            parts = enumerate_partitions(n)
            for lam in parts:
                for mu in parts:
                    total = sum(
                        kron_char(lam, mu, nu).value * hook_dimension(nu) for nu in parts
                    )
                    assert total == hook_dimension(lam) * hook_dimension(mu)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            kron_char((2, 1), (2, 1), (4,))


class TestScaledKron:
    def test_examples(self):
        assert scaled_kron((3,), (3,), (3,)) == 1
        assert scaled_kron((2, 1), (2, 1), (2, 1)) == 8
        assert scaled_kron((2, 1), (2, 1), (3,)) == 4


class TestPlethysmOracle:
    def test_single_symmetric_power(self):
        for m in (1, 2, 3, 4):
            for lam in enumerate_partitions(m):
                expected = 1 if lam == (m,) else 0
                assert pleth_wreath(1, m, lam).value == expected

    def test_2_2_values(self):
        values = {lam: pleth_wreath(2, 2, lam).value for lam in enumerate_partitions(4)}
        assert values == {
            (4,): 1,
            (3, 1): 0,
            (2, 2): 1,
            (2, 1, 1): 0,
            (1, 1, 1, 1): 0,
        }

    def test_trivial_shape_always_one(self):
        for d, m in [(2, 2), (2, 3), (3, 2)]:
            assert pleth_wreath(d, m, (m * d,)).value == 1

    def test_sign_shape_vanishes_for_2_2(self):
        assert pleth_wreath(2, 2, (1, 1, 1, 1)).value == 0

    @pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3),
                                     (3, 2), (2, 3), (4, 1), (2, 4), (4, 2), (8, 1)])
    def test_dimension_identity(self, d, m):
        # sum over shapes of a_lam(d, m) * s_lam(1^N) must equal
        # dim Sym^d(Sym^m C^N), with N = md
        big_n = m * d
        total = sum(
            pleth_wreath(d, m, lam).value * schur_dim_gl(lam, big_n)
            for lam in enumerate_partitions(m * d)
        )
        expected = comb(comb(big_n + m - 1, m) + d - 1, d)
        assert total == expected

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            pleth_wreath(2, 2, (3, 2))

    def test_bound_before_enumeration(self):
        # 12! elements would be enumerated; refused at once instead
        import time

        start = time.perf_counter()
        with pytest.raises(BoundExceededError):
            pleth_wreath(1, 12, (12,))
        assert time.perf_counter() - start < 1.0


class TestInvariantDefinition:
    def test_small_triples(self):
        assert kron_invariant_def((1, 1), (1, 1), (2,)).value == 1
        assert kron_invariant_def((2, 1), (2, 1), (2, 1)).value == 1
        assert kron_invariant_def((2, 2), (2, 2), (2, 2)).value == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_character_oracle_exhaustively(self, n):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    assert (
                        kron_invariant_def(lam, mu, nu).value
                        == kron_char(lam, mu, nu).value
                    )

    def test_agrees_at_n4_sample(self):
        triples = [
            ((3, 1), (3, 1), (2, 2)),
            ((2, 2), (3, 1), (3, 1)),
            ((2, 1, 1), (2, 1, 1), (2, 2)),
            ((3, 1), (2, 1, 1), (1, 1, 1, 1)),
        ]
        for lam, mu, nu in triples:
            assert kron_invariant_def(lam, mu, nu).value == kron_char(lam, mu, nu).value

    def test_hook_triple_at_n10(self):
        # D = 9^3 is in bound at n = 10; the trace check must not enumerate
        # the 10! elements of S_10
        triple = ((9, 1),) * 3
        assert kron_invariant_def(*triple).value == kron_char(*triple).value


class TestResultSerialization:
    def test_result_roundtrip_values(self):
        res = pleth_wreath(2, 2, (2, 2))
        assert isinstance(res, CoefficientResult)
        assert res.value == 1 and res.method == "wreath"

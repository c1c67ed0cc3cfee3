import json
import tempfile
import tracemalloc
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import from_cycles

from kronlab.characters import (
    TABLE_DEGREE_LIMIT,
    CharacterTable,
    cache_settings,
    character_table,
    content_power_sums,
    mn_character,
)
from kronlab.errors import BoundExceededError, ConsistencyError, InputError
from kronlab.partitions import enumerate_partitions, hook_dimension, kostka, transpose
from kronlab.permutations import (
    all_perms,
    centralizer_order,
    class_size,
    cycle_type,
)


def computed_table(n):
    """The table of S_n computed afresh, with the disk cache off."""
    with cache_settings(use_cache=False):
        return character_table(n)


def table_in(cache_dir, n):
    """The table of S_n through the disk cache in cache_dir."""
    with cache_settings(cache_dir):
        return character_table(n)


def sign_of_type(rho):
    """Sign of a permutation of cycle type rho."""
    return -1 if (sum(rho) - len(rho)) % 2 else 1


def class_representative(rho):
    cycles = []
    start = 1
    for part in rho:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return from_cycles(sum(rho), cycles)


class TestMurnaghanNakayama:
    def test_trivial_and_sign_rows(self):
        for n in range(1, 8):
            for rho in enumerate_partitions(n):
                assert mn_character((n,), rho) == 1
                assert mn_character((1,) * n, rho) == sign_of_type(rho)

    def test_s3_values(self):
        assert [mn_character((2, 1), rho) for rho in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]

    def test_dimension_column(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert mn_character(lam, (1,) * n) == hook_dimension(lam)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            mn_character((2, 1), (2, 2))


def _tabloids(n, mu):
    """Ordered set partitions of {1..n} with block sizes mu (the coset
    space of the Young subgroup)."""
    out = []
    for perm in permutations(range(1, n + 1)):
        blocks = []
        start = 0
        canonical = True
        for size in mu:
            block = perm[start : start + size]
            if list(block) != sorted(block):
                canonical = False
                break
            blocks.append(frozenset(block))
            start += size
        if canonical:
            out.append(tuple(blocks))
    return out


def _permutation_character(n, mu, rho):
    """Number of tabloids of shape mu fixed by a permutation of type rho."""
    pi = class_representative(rho)
    count = 0
    for tab in _tabloids(n, mu):
        if all(frozenset(pi[x - 1] for x in block) == block for block in tab):
            count += 1
    return count


class TestIndependentOracle:
    """The permutation characters on tabloids decompose through the Kostka
    matrix, which is unitriangular in the reverse-lexicographic order, so
    the irreducible characters can be solved for without any border-strip
    machinery.  Entirely independent of the MN recursion."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_table(self, n):
        parts = enumerate_partitions(n)
        perm_chars = {
            mu: {rho: _permutation_character(n, mu, rho) for rho in parts} for mu in parts
        }
        solved = {}
        for lam in parts:  # reverse-lex refines dominance downward
            row = {}
            for rho in parts:
                value = perm_chars[lam][rho]
                for earlier in parts:
                    if earlier == lam:
                        break
                    value -= kostka(earlier, lam) * solved[earlier][rho]
                row[rho] = value
            solved[lam] = row
        for lam in parts:
            for rho in parts:
                assert solved[lam][rho] == mn_character(lam, rho), (lam, rho)


class TestTableProperties:
    def test_orthogonality(self):
        for n in range(1, 7):
            computed_table(n).check_orthogonality()

    def test_transpose_twist(self):
        for n in range(1, 8):
            table = computed_table(n)
            for lam in table.partitions:
                for rho in table.classes:
                    assert table.chi(transpose(lam), rho) == sign_of_type(rho) * table.chi(
                        lam, rho
                    )

    def test_regular_representation_column(self):
        for n in range(2, 6):
            table = computed_table(n)
            for rho in table.classes:
                total = sum(
                    table.dimension(lam) * table.chi(lam, rho) for lam in table.partitions
                )
                assert total == (factorial(n) if rho == (1,) * n else 0)

    def test_class_order_is_reverse_lexicographic(self):
        table = computed_table(3)
        assert table.classes == ((3,), (2, 1), (1, 1, 1))
        assert table.row((2, 1)) == (-1, 0, 2)

    def test_traces_by_direct_class_sums(self):
        # column orthogonality implies sum over a class of chi^2 weights;
        # spot-check chi against explicit permutation sums instead
        for n in (3, 4):
            table = computed_table(n)
            for rho in table.classes:
                members = [p for p in all_perms(n) if cycle_type(p) == rho]
                assert len(members) == class_size(rho)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        t1 = table_in(tmp_path, 5)
        assert (tmp_path / "chartable-n5.json").exists()
        t2 = table_in(tmp_path, 5)
        assert t1.values == t2.values

    def test_corrupt_cache_recomputed(self, tmp_path):
        path = tmp_path / "chartable-n4.json"
        path.write_text("{not json")
        table = table_in(tmp_path, 4)
        table.check_orthogonality()
        # file was overwritten with a valid table
        reloaded = CharacterTable.from_json(json.loads(path.read_text()))
        assert reloaded.values == table.values

    def test_tampered_values_detected(self, tmp_path):
        table_in(tmp_path, 4)
        path = tmp_path / "chartable-n4.json"
        data = json.loads(path.read_text())
        data["rows"][1]["values"][0] += 1
        path.write_text(json.dumps(data))
        table = table_in(tmp_path, 4)
        table.check_orthogonality()
        # the bad file was replaced by a valid one
        healed = CharacterTable.from_json(json.loads(path.read_text()))
        assert healed.values == table.values
        assert healed.values != CharacterTable.from_json(data).values

    @pytest.mark.parametrize("entry", [10**30, -(2**63), 2**62, 5])
    def test_oversized_entry_recomputed(self, tmp_path, entry):
        # 10**30 does not fit int64, -2**63 has no int64 absolute value,
        # and every one of these exceeds isqrt(z) = 2 at the 6-cycle
        table_in(tmp_path, 6)
        path = tmp_path / "chartable-n6.json"
        good = path.read_bytes()
        data = json.loads(good)
        data["rows"][1]["values"][0] = entry
        path.write_text(json.dumps(data))
        with pytest.raises(ConsistencyError):
            CharacterTable.from_json(data).check_orthogonality()
        table = table_in(tmp_path, 6)
        assert table.chi((5, 1), (6,)) == -1
        assert path.read_bytes() == good

    def test_orthogonality_verdicts(self):
        table = computed_table(7)
        table.check_orthogonality()
        swapped = dict(table.values)
        a, b = ((6, 1), (7,)), ((6, 1), (6, 1))  # -1 and 0, both within isqrt(z)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        with pytest.raises(ConsistencyError):
            CharacterTable(7, table.partitions, table.classes, table.class_sizes, swapped).check_orthogonality()
        sizes = (table.class_sizes[0] + 1,) + table.class_sizes[1:]
        with pytest.raises(ConsistencyError):
            CharacterTable(7, table.partitions, table.classes, sizes, table.values).check_orthogonality()

    def test_no_cache_mode(self, tmp_path):
        with cache_settings(tmp_path, use_cache=False):
            character_table(4)
        assert not (tmp_path / "chartable-n4.json").exists()

    def test_env_var_controls_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KRONLAB_CACHE", str(tmp_path / "envcache"))
        character_table(3)
        assert (tmp_path / "envcache" / "chartable-n3.json").exists()

    def test_write_leaves_only_the_table(self, tmp_path):
        table_in(tmp_path, 4)
        assert [f.name for f in tmp_path.iterdir()] == ["chartable-n4.json"]

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("kronlab.characters.os.replace", refuse)
        table_in(tmp_path, 4).check_orthogonality()
        assert list(tmp_path.iterdir()) == []

    def test_conjugate_relabelled_rows_in_order_recomputed(self, tmp_path):
        # conjugate labels with the rows sorted back into enumeration
        # order: orthogonality, the row order and every dimension still
        # hold; the transposition column does not
        table_in(tmp_path, 7)
        path = tmp_path / "chartable-n7.json"
        good = path.read_bytes()
        data = json.loads(good)
        order = {lam: i for i, lam in enumerate(enumerate_partitions(7))}
        for row in data["rows"]:
            row["partition"] = list(transpose(tuple(row["partition"])))
        data["rows"].sort(key=lambda row: order[tuple(row["partition"])])
        CharacterTable.from_json(data).check_orthogonality()
        path.write_text(json.dumps(data))
        table = table_in(tmp_path, 7)
        assert table.chi((3, 2, 2), (2, 1, 1, 1, 1, 1)) == -1
        assert path.read_bytes() == good

    @pytest.mark.parametrize(
        "n, a, b, column",
        [(12, (7, 1, 1, 1, 1, 1), (4, 4, 4), "3-cycle"), (15, (6, 3, 2, 2, 2), (5, 5, 2, 1, 1, 1), "4-cycle")],
    )
    def test_row_swaps_refused_by_the_cycle_columns(self, n, a, b, column):
        # the two rows share the identity and transposition columns (and at
        # n = 15 the 3-cycle column too), and swapping them keeps both
        # orthogonality relations
        table = computed_table(n)
        values = dict(table.values)
        for rho in table.classes:
            values[a, rho], values[b, rho] = table.chi(b, rho), table.chi(a, rho)
        swapped = CharacterTable(n, table.partitions, table.classes, table.class_sizes, values)
        swapped.check_orthogonality()
        with pytest.raises(ConsistencyError, match=column):
            swapped.check_labels()

    def test_power_sums_separate_the_rows(self):
        # check_labels is complete against row permutations because the
        # dimension and the content power sums p_1, p_2, p_3 tell every
        # row apart, for every degree a table is built for
        for n in range(1, TABLE_DEGREE_LIMIT + 1):
            parts = enumerate_partitions(n)
            keys = {(hook_dimension(lam),) + content_power_sums(lam) for lam in parts}
            assert len(keys) == len(parts), n

    def test_degree_bound_before_computing(self, tmp_path):
        tracemalloc.start()
        try:
            for use_cache in (True, False):
                with cache_settings(tmp_path, use_cache), pytest.raises(BoundExceededError):
                    character_table(TABLE_DEGREE_LIMIT + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert list(tmp_path.iterdir()) == []


JSON_VALUES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.0, 10**400]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)


def _value_slots(doc):
    """(container, key) for every value of a parsed cache file."""
    slots = [(doc, "n")]
    slots += [(c, key) for c in doc["classes"] for key in ("type", "size")]
    slots += [(r, "partition") for r in doc["rows"]]
    slots += [(r["values"], j) for r in doc["rows"] for j in range(len(r["values"]))]
    return slots


@given(data=st.data(), n=st.integers(1, 7))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_damaged_cache_file_yields_the_computed_table(data, n):
    # random byte edits, truncations, JSON value edits and row swaps of a
    # valid file: the table read back equals the computed one, and the
    # file left behind re-validates
    reference = computed_table(n)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"chartable-n{n}.json"
        table_in(d, n)
        good = path.read_bytes()
        kind = data.draw(st.sampled_from(["bytes", "truncate", "value", "swap"]))
        if kind == "bytes":
            raw = bytearray(good)
            edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
            for pos, byte in data.draw(st.lists(edits, min_size=1, max_size=4)):
                raw[pos] = byte
            damaged = bytes(raw)
        elif kind == "truncate":
            damaged = good[: data.draw(st.integers(0, len(good) - 1))]
        elif kind == "value":
            doc = json.loads(good)
            container, key = data.draw(st.sampled_from(_value_slots(doc)))
            container[key] = data.draw(JSON_VALUES)
            damaged = json.dumps(doc).encode()
        else:  # two rows' values swapped: orthogonality still holds
            doc = json.loads(good)
            i, j = (data.draw(st.integers(0, len(doc["rows"]) - 1)) for _ in range(2))
            a, b = doc["rows"][i], doc["rows"][j]
            a["values"], b["values"] = b["values"], a["values"]
            damaged = json.dumps(doc).encode()
        path.write_bytes(damaged)
        table = table_in(d, n)
        left = CharacterTable.from_json(json.loads(path.read_bytes()))
    for t in (table, left):
        assert (t.n, t.partitions, t.classes, t.class_sizes) == (
            n, reference.partitions, reference.classes, reference.class_sizes
        )
        assert t.values == reference.values
    left.check_labels()
    left.check_orthogonality()


class TestMemo:
    """A cache file is parsed and checked only when its bytes are new to
    the process; unchanged bytes are answered from memory."""

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []
        original = CharacterTable.from_json

        def counting(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(CharacterTable, "from_json", staticmethod(counting))
        return calls

    def test_unchanged_file_loaded_at_most_once(self, tmp_path, loads):
        tables = [table_in(tmp_path, 5) for _ in range(10)]
        assert len(loads) <= 1
        assert all(t.values == tables[0].values for t in tables)

    def test_same_length_tamper_rechecked_and_healed(self, tmp_path, loads):
        table = table_in(tmp_path, 4)
        path = tmp_path / "chartable-n4.json"
        good = path.read_bytes()
        # the first row is the trivial character, all ones
        bad = good.replace(b'"values": [1', b'"values": [2', 1)
        assert bad != good and len(bad) == len(good)
        path.write_bytes(bad)
        healed = table_in(tmp_path, 4)
        assert len(loads) == 1
        healed.check_orthogonality()
        assert healed.values == table.values
        assert path.read_bytes() == good

    def test_deleted_file_written_again(self, tmp_path, loads):
        table_in(tmp_path, 4)
        path = tmp_path / "chartable-n4.json"
        path.unlink()
        table_in(tmp_path, 4).check_orthogonality()
        assert path.exists()
        assert CharacterTable.from_json(json.loads(path.read_text())).n == 4


class TestCentralizerConsistency:
    def test_sum_of_squares_column(self):
        for n in range(2, 7):
            table = computed_table(n)
            for rho in table.classes:
                total = sum(table.chi(lam, rho) ** 2 for lam in table.partitions)
                assert total == centralizer_order(rho)

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import kronlab
from kronlab.cli import (
    EXIT_BOUND,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    parse_partition,
    parse_permutation,
)
from kronlab.partitions import PARTITION_DEGREE_LIMIT, hook_dimension, transpose
from kronlab.specht import SPECHT_FACTOR_DIM_LIMIT


def run_cli(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestParsing:
    def test_partition(self):
        assert parse_partition("5,3") == (5, 3)
        assert parse_partition("4") == (4,)
        with pytest.raises(Exception):
            parse_partition("3,5")
        with pytest.raises(Exception):
            parse_partition("a,b")

    def test_permutation(self):
        assert parse_permutation("[2,1,3]") == (2, 1, 3)
        assert parse_permutation("2,1,3") == (2, 1, 3)
        with pytest.raises(Exception):
            parse_permutation("[1,1]")


class TestKronCommand:
    def test_all_methods_agree(self):
        code, out = run_cli(["kron", "2,1", "2,1", "2,1", "--all-methods", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["values"] == {"char": 1, "dense": 1, "collapsed": 1, "specht": 1}
        assert doc["agree"] is True

    def test_simple_values(self):
        code, out = run_cli(["kron", "3", "3", "3", "--format", "json"])
        assert code == EXIT_OK and json.loads(out)["values"]["char"] == 1
        code, out = run_cli(["kron", "2,1", "3", "1,1,1", "--format", "json"])
        assert code == EXIT_OK and json.loads(out)["values"]["char"] == 0

    def test_size_mismatch_is_usage_error(self):
        code, _ = run_cli(["kron", "2,1", "2,1", "2,2", "--format", "json"])
        assert code == EXIT_USAGE

    def test_bound_exceeded(self):
        code, _ = run_cli(["kron", "4,1", "4,1", "4,1", "--method", "dense", "--format", "json"])
        assert code == EXIT_BOUND

    def test_collapsed_degree_bound(self, tmp_path):
        code, out = run_cli(
            ["kron", "5,5", "5,5", "5,5", "--method", "collapsed", "--cache-dir", str(tmp_path), "--format", "json"]
        )
        assert (code, out) == (EXIT_BOUND, "")
        assert list(tmp_path.iterdir()) == []

    def test_all_methods_skips_out_of_bound_backends(self):
        # at n = 5 the dense backend is out of bounds; the applicable
        # backends still run and must agree
        code, out = run_cli(["kron", "3,1,1", "3,1,1", "3,1,1", "--all-methods", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert "dense" in doc["skipped"]
        assert doc["values"]["char"] == doc["values"]["collapsed"]
        assert doc["agree"] is True

    def test_specht_bound(self):
        # d(3,2,1,1) = 35 at n=7, so the tensor dimension 35^3 > 5000
        code, _ = run_cli(
            ["kron", "3,2,1,1", "3,2,1,1", "3,2,1,1", "--method", "specht", "--format", "json"]
        )
        assert code == EXIT_BOUND

    def test_relabelled_cache_file_recomputed(self, tmp_path):
        # every row of the n = 7 table relabelled with its conjugate still
        # passes orthogonality and every dimension; char and collapsed
        # then agreed on 1
        assert run_cli(["chartable", "7", "--cache-dir", str(tmp_path), "--format", "json"])[0] == EXIT_OK
        path = tmp_path / "chartable-n7.json"
        data = json.loads(path.read_text())
        for row in data["rows"]:
            row["partition"] = list(transpose(tuple(row["partition"])))
        path.write_text(json.dumps(data))
        code, out = run_cli(
            ["kron", "3,2,2", "3,2,2", "3,2,2", "--all-methods", "--cache-dir", str(tmp_path), "--format", "json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["values"] == {"char": 2, "collapsed": 2}
        assert doc["agree"] is True


    def test_row_swapped_cache_file_recomputed(self, tmp_path):
        # (7,1^5) and (4,4,4) share the identity and transposition columns,
        # and the swapped file keeps both orthogonality relations; read as
        # valid, it made this print 1
        assert run_cli(["chartable", "12", "--cache-dir", str(tmp_path), "--format", "json"])[0] == EXIT_OK
        path = tmp_path / "chartable-n12.json"
        good = path.read_bytes()
        data = json.loads(good)
        rows = {tuple(row["partition"]): row for row in data["rows"]}
        a, b = rows[(7, 1, 1, 1, 1, 1)], rows[(4, 4, 4)]
        a["values"], b["values"] = b["values"], a["values"]
        path.write_text(json.dumps(data))
        code, out = run_cli(["kron", "7,1,1,1,1,1", "6,6", "6,6", "--cache-dir", str(tmp_path), "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["values"] == {"char": 0}
        assert path.read_bytes() == good


class TestPlethCommand:
    def test_all_methods(self):
        code, out = run_cli(["pleth", "2", "2", "4", "--all-methods", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["values"] == {"wreath": 1, "dense": 1, "collapsed": 1}

    def test_values(self):
        code, out = run_cli(["pleth", "2", "2", "3,1", "--format", "json"])
        assert json.loads(out)["values"]["wreath"] == 0
        code, out = run_cli(["pleth", "1", "4", "4", "--format", "json"])
        assert json.loads(out)["values"]["wreath"] == 1

    def test_size_mismatch(self):
        code, _ = run_cli(["pleth", "2", "2", "5", "--format", "json"])
        assert code == EXIT_USAGE

    def test_wreath_bound_exceeded(self):
        code, _ = run_cli(["pleth", "1", "12", "12", "--format", "json"])
        assert code == EXIT_BOUND


class TestScaledKron:
    def test_gap_visible(self):
        code, out = run_cli(["scaledkron", "2,1", "2,1", "2,1", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["truncated_trace"] == 8 and doc["scaled_oracle"] == 8


class TestVerifyCommand:
    def test_kron_all_n2(self):
        code, out = run_cli(["verify", "kron-all", "2", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] == 8 and doc["failed"] == 0

    def test_kron_all_n3(self):
        code, out = run_cli(["verify", "kron-all", "3", "--format", "json"])
        doc = json.loads(out)
        assert code == EXIT_OK and doc["passed"] == 27

    def test_pleth_all(self):
        code, out = run_cli(["verify", "pleth-all", "2", "2", "--format", "json"])
        doc = json.loads(out)
        assert code == EXIT_OK and doc["passed"] == 5

    def test_algebra(self):
        code, out = run_cli(["verify", "algebra", "2", "--format", "json"])
        doc = json.loads(out)
        assert code == EXIT_OK and doc["failed"] == 0

    def test_protocol(self):
        code, out = run_cli(
            ["verify", "protocol", "2", "--seed", "3", "--shots", "100", "--format", "json"]
        )
        doc = json.loads(out)
        assert code == EXIT_OK and doc["failed"] == 0

    @pytest.mark.parametrize(
        "suite",
        [["kron-all", "10"], ["kron-all", "16"], ["protocol", "16"], ["pleth-all", "7", "1"],
         ["kron-all", "45"], ["algebra", "45"], ["protocol", "45"], ["pleth-all", "5", "9"]],
    )  # fmt: skip
    def test_sweep_refused_before_any_table(self, suite, tmp_path):
        # each case runs its bounded route before its oracle, and every case
        # shares the first case's bound: a sweep beyond the bound computes
        # and caches no character table (S_16's alone takes over a second)
        # and lists no partitions (p(45) = 89,134 took about 0.6 s)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out = run_cli(["verify", *suite, "--cache-dir", str(tmp_path), "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_BOUND, "")
        assert list(tmp_path.iterdir()) == []
        assert time.perf_counter() - start < 0.5
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv",
        [["verify", "algebra", "0"], ["verify", "kron-all", "0"], ["verify", "protocol", "0"],
         ["kron", "", "", "", "--method", "dense"], ["scaledkron", "", "", ""]],
    )  # fmt: skip
    def test_degree_zero_is_a_usage_error(self, argv):
        code, out = run_cli(argv + ["--format", "json", "--no-cache"])
        assert (code, out) == (EXIT_USAGE, "")


class TestTables:
    def test_chartable_json(self):
        code, out = run_cli(["chartable", "3", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 3
        rows = {tuple(r["partition"]): r["values"] for r in doc["rows"]}
        assert rows[(2, 1)] == [-1, 0, 2]

    def test_dims(self):
        code, out = run_cli(["dims", "4", "--format", "json"])
        doc = json.loads(out)
        assert doc["sum_of_squares"] == 24 == doc["factorial"]
        assert len(doc["rows"]) == 5

    def test_kostka(self):
        code, out = run_cli(["kostka", "3,1", "2,1,1", "--format", "json"])
        assert json.loads(out)["value"] == 2

    def test_kostka_counts_without_listing_tableaux(self):
        # 140,229,804 tableaux: listing them one by one ran past 20 s
        start = time.perf_counter()
        code, out = run_cli(["kostka", "6,6,6,6", ",".join(["1"] * 24), "--format", "json"])
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_OK and json.loads(out)["value"] == 140229804

    def test_kostka_refused_above_the_work_bound(self):
        # the staircase (10,9,...,1) has 58,786 shapes inside it: counting
        # against 1^55 took about 3 s, and twelve rows would take minutes
        stair = ",".join(map(str, range(10, 0, -1)))
        tracemalloc.start()
        try:
            code, out = run_cli(["kostka", stair, ",".join(["1"] * 55), "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_BOUND and out == ""
        assert peak < 1 << 20

    def test_encode_diagram(self):
        code, out = run_cli(["encode", "diagram", "5,3", "--format", "json"])
        assert json.loads(out)["bits"] == "0000100"

    def test_encode_perm(self):
        code, out = run_cli(["encode", "perm", "[2,1,3]", "--format", "json"])
        assert json.loads(out)["bits"] == "010100001"

    def test_chartable_degree_bound(self):
        code, _ = run_cli(["chartable", "30", "--format", "json"])
        assert code == EXIT_BOUND


class TestOutputContracts:
    def test_json_deterministic(self):
        args = ["kron", "2,1", "2,1", "2,1", "--all-methods", "--format", "json"]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1 == out2

    def test_protocol_seeded_deterministic(self):
        args = ["verify", "protocol", "2", "--seed", "7", "--shots", "64", "--format", "json"]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1 == out2

    def test_json_round_trips(self):
        for args in (
            ["kron", "2,1", "2,1", "2,1", "--format", "json"],
            ["pleth", "2", "2", "2,2", "--format", "json"],
            ["dims", "3", "--format", "json"],
        ):
            _, out = run_cli(args)
            doc = json.loads(out)
            assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_tsv_has_fixed_header(self):
        _, out = run_cli(["verify", "kron-all", "2", "--format", "tsv"])
        header = out.splitlines()[0]
        assert header == "lam\tmu\tnu\toracle\tpipeline\tstatus"

    def test_pretty_format(self):
        _, out = run_cli(["kostka", "3,1", "2,1,1", "--format", "pretty"])
        assert "kostka=2" in out

    def test_usage_exit_code(self):
        code = main(["kron", "2,1"])  # missing arguments
        assert code == EXIT_USAGE

    def test_cache_dir_flag(self, tmp_path):
        code, _ = run_cli(
            ["chartable", "4", "--cache-dir", str(tmp_path), "--format", "json"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "chartable-n4.json").exists()

    def test_no_cache_flag_reaches_every_command(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KRONLAB_CACHE", str(tmp_path))
        code, _ = run_cli(["kron", "2,1", "2,1", "2,1", "--no-cache", "--format", "json"])
        assert code == EXIT_OK
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_flag_is_scoped_to_the_command(self, tmp_path, monkeypatch):
        env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("KRONLAB_CACHE", str(env_dir))
        code, _ = run_cli(
            ["kron", "2,1", "2,1", "2,1", "--cache-dir", str(flag_dir), "--format", "json"]
        )
        assert code == EXIT_OK
        assert os.environ["KRONLAB_CACHE"] == str(env_dir)
        assert (flag_dir / "chartable-n3.json").exists()
        assert not env_dir.exists()

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "kronlab"


def test_import_loads_no_scipy():
    # numpy is the one numerical dependency; a fresh interpreter importing
    # kronlab must not pull in scipy
    code = "import sys, kronlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(kronlab.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# exit-code property: refused invocations of every command


def _text(parts):
    return ",".join(map(str, parts))


@st.composite
def partition_of(draw, n):
    """A partition of n, drawn as a sorted random composition."""
    parts, left = [], n
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


@st.composite
def malformed_partition(draw):
    parts = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)), reverse=True)
    kind = draw(st.sampled_from(["increasing", "nonpositive", "token"]))
    if kind == "increasing":
        return _text(parts + [parts[-1] + draw(st.integers(1, 3))])
    i = draw(st.integers(0, len(parts) - 1))
    parts[i] = draw(st.integers(-3, 0)) if kind == "nonpositive" else draw(st.sampled_from(["x", "1.5", "2a"]))
    return _text(parts)


@st.composite
def malformed_permutation(draw):
    images = draw(st.permutations(range(1, draw(st.integers(2, 6)) + 1)))
    kind = draw(st.sampled_from(["repeat", "shift", "token"]))
    if kind == "repeat":
        images[0] = images[1]
    elif kind == "shift":
        images = [x + 1 for x in images]
    else:
        images[0] = draw(st.sampled_from(["x", "0.5", "[]"]))
    return "[" + _text(images) + "]"


@st.composite
def refused_invocation(draw):
    """(argv, documented exit code) for an invocation that must be refused:
    2 for malformed or mismatched input, 3 for a size beyond a bound."""
    kind = draw(st.sampled_from(
        ["malformed", "permutation", "mismatch", "kron", "specht", "pleth", "scaledkron", "verify", "shots", "sizes"]
    ))  # fmt: skip
    kron_flags = st.sampled_from([["--all-methods"], ["--method", "char"], ["--method", "dense"],
                                  ["--method", "collapsed"], ["--method", "specht"]])  # fmt: skip
    if kind == "malformed":
        bad = draw(malformed_partition())
        good = _text(draw(partition_of(3)))
        argv = draw(st.sampled_from([
            ["kron", bad, good, good], ["kron", good, good, bad, "--all-methods"], ["pleth", "1", "3", bad],
            ["scaledkron", good, bad, good], ["kostka", bad, good], ["encode", "diagram", bad],
        ]))  # fmt: skip
        return argv, EXIT_USAGE
    if kind == "permutation":
        return ["encode", "perm", draw(malformed_permutation())], EXIT_USAGE
    if kind == "mismatch":
        n = draw(st.integers(1, 5))
        a, b = draw(partition_of(n)), draw(partition_of(n + draw(st.integers(1, 2))))
        argv = draw(st.sampled_from([
            ["kron", _text(a), _text(a), _text(b)] + draw(kron_flags), ["scaledkron", _text(b), _text(a), _text(a)],
            ["kostka", _text(a), _text(b)], ["pleth", "2", str(n), _text(a)],
        ]))  # fmt: skip
        return argv, EXIT_USAGE
    if kind == "kron":  # beyond every backend's degree bound
        n = draw(st.integers(23, 60))
        shapes = [_text(draw(partition_of(n))) for _ in range(3)]
        return ["kron", *shapes] + draw(kron_flags), EXIT_BOUND
    if kind == "specht":  # in the degree bound, but a factor too large to build
        n = draw(st.integers(8, 22))
        shapes = [draw(partition_of(n)) for _ in range(3)]
        assume(max(hook_dimension(s) for s in shapes) > SPECHT_FACTOR_DIM_LIMIT)
        flags = ["--all-methods"] if n > 16 else ["--method", "specht"]
        return ["kron", *map(_text, shapes)] + flags, EXIT_BOUND
    if kind == "pleth":  # the wreath product too large to enumerate
        d, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        assume(factorial(m) ** d * factorial(d) > factorial(9) and d * m >= 10)
        flags = draw(st.sampled_from([["--all-methods"], ["--method", "wreath"], ["--method", "collapsed"]]))
        return ["pleth", str(d), str(m), _text(draw(partition_of(d * m)))] + flags, EXIT_BOUND
    if kind == "scaledkron":
        method = draw(st.sampled_from(["dense", "collapsed"]))
        n = draw(st.integers(5 if method == "dense" else 10, 30))
        return ["scaledkron", *(_text(draw(partition_of(n))) for _ in range(3)), "--method", method], EXIT_BOUND
    if kind == "shots":  # a negative shot count is an input error, not a failed check
        return ["verify", "protocol", "2", "--shots", str(draw(st.integers(-1000, -1)))], EXIT_USAGE
    if kind == "verify":
        return draw(st.sampled_from([
            ["verify", "kron-all", str(draw(st.integers(17, 200)))],
            ["verify", "algebra", str(draw(st.integers(5, 200)))],
            ["verify", "protocol", str(draw(st.integers(4, 200)))],
            ["verify", "pleth-all", "2", str(draw(st.integers(6, 100)))],
        ])), EXIT_BOUND  # fmt: skip
    return draw(st.sampled_from([
        (["chartable", str(draw(st.integers(17, 10**6)))], EXIT_BOUND),
        (["dims", str(draw(st.integers(PARTITION_DEGREE_LIMIT + 1, 10**6)))], EXIT_BOUND),
        (["kostka", *[",".join(map(str, range(draw(st.integers(10, 30)), 0, -1)))] * 2], EXIT_BOUND),
        (["chartable", str(draw(st.integers(-5, 0)))], EXIT_USAGE),
        (["dims", str(draw(st.integers(-5, -1)))], EXIT_USAGE),
    ]))  # fmt: skip


@given(case=refused_invocation())
@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])
def test_refused_invocations_exit_with_documented_code(case):
    argv, expected = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "json", "--no-cache"])
    assert code == expected, (argv, err.getvalue())
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert ("resource bound:" if expected == EXIT_BOUND else "error:") in err.getvalue()

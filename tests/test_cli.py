import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
from kronlab.partitions import transpose


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

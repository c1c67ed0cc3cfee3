"""Golden CLI outputs: stdout and exit code, byte for byte.

Each case runs one invocation in-process with ``--no-cache`` in json, tsv
and pretty format and compares a transcript of the three runs with the
file of the same name under ``tests/golden/``.  Stderr is not compared:
only stdout and exit codes are part of the output contract.

To record the files again after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from kronlab.cli import main

GOLDEN = Path(__file__).with_name("golden")
FORMATS = ("json", "tsv", "pretty")

CASES = {
    "kron-n3-all": ["kron", "2,1", "2,1", "2,1", "--all-methods"],
    "kron-n4-all": ["kron", "3,1", "2,2", "2,1,1", "--all-methods"],
    "kron-n5-all-skips-dense": ["kron", "3,2", "3,2", "2,2,1", "--all-methods"],
    "kron-char": ["kron", "2,1", "2,1", "1,1,1", "--method", "char"],
    "kron-dense": ["kron", "2,1", "2,1", "2,1", "--method", "dense"],
    "kron-collapsed": ["kron", "2,1", "3", "2,1", "--method", "collapsed"],
    "kron-specht": ["kron", "2,1", "2,1", "3", "--method", "specht"],
    "kron-default": ["kron", "3", "3", "3"],
    "pleth-2-3-all": ["pleth", "2", "3", "4,2", "--all-methods"],
    "pleth-2-2": ["pleth", "2", "2", "4"],
    "pleth-dense": ["pleth", "2", "2", "2,2", "--method", "dense"],
    "pleth-collapsed": ["pleth", "2", "2", "3,1", "--method", "collapsed"],
    "scaledkron-dense": ["scaledkron", "2,1", "2,1", "2,1", "--method", "dense"],
    "scaledkron-collapsed": ["scaledkron", "2,1", "2,1", "3", "--method", "collapsed"],
    "verify-kron-all-2": ["verify", "kron-all", "2"],
    "verify-kron-all-3": ["verify", "kron-all", "3"],
    "verify-pleth-all-2-3": ["verify", "pleth-all", "2", "3"],
    "verify-algebra-2": ["verify", "algebra", "2"],
    "verify-algebra-3": ["verify", "algebra", "3"],
    "verify-protocol-2": ["verify", "protocol", "2", "--seed", "1", "--shots", "50"],
    "verify-protocol-3": ["verify", "protocol", "3", "--seed", "1", "--shots", "100"],
    "chartable-5": ["chartable", "5"],
    "dims-4": ["dims", "4"],
    "kostka": ["kostka", "3,2,1", "2,2,1,1"],
    "encode-diagram": ["encode", "diagram", "3,1"],
    "encode-perm": ["encode", "perm", "[2,3,1]"],
    # refusals: exit 2 for bad input, 3 for a size bound; stdout stays empty
    "refuse-argparse": ["kron", "2,1", "2,1"],
    "refuse-unknown-method": ["kron", "2,1", "2,1", "2,1", "--method", "bogus"],
    "refuse-malformed": ["kron", "2,a", "2,1", "2,1"],
    "refuse-mismatch": ["kron", "2,1", "2,1", "2,2"],
    "refuse-kostka-mismatch": ["kostka", "3,1", "2,1"],
    "refuse-encode-perm": ["encode", "perm", "[1,1]"],
    "refuse-kron-dense": ["kron", "4,1", "4,1", "4,1", "--method", "dense"],
    "refuse-kron-collapsed": ["kron", "5,5", "5,5", "5,5", "--method", "collapsed"],
    "refuse-kron-specht": ["kron", "3,2,1,1", "3,2,1,1", "3,2,1,1", "--method", "specht"],
    "refuse-kron-all-methods": ["kron", "23", "23", "23", "--all-methods"],
    "refuse-pleth-wreath": ["pleth", "2", "6", "12"],
    "refuse-scaledkron-dense": ["scaledkron", "3,2", "3,2", "3,2"],
    "refuse-scaledkron-collapsed": ["scaledkron", "5,5", "5,5", "5,5", "--method", "collapsed"],
    "refuse-verify-kron-all": ["verify", "kron-all", "17"],
    "refuse-verify-pleth-all": ["verify", "pleth-all", "2", "6"],
    "refuse-verify-pleth-all-dense": ["verify", "pleth-all", "7", "1"],
    "refuse-verify-kron-all-collapsed": ["verify", "kron-all", "10"],
    "refuse-verify-kron-all-empty": ["verify", "kron-all", "0"],
    "refuse-verify-pleth-all-empty": ["verify", "pleth-all", "0", "3"],
    "refuse-verify-algebra": ["verify", "algebra", "5"],
    "refuse-verify-protocol": ["verify", "protocol", "4"],
    "refuse-verify-protocol-empty": ["verify", "protocol", "0"],
    "refuse-chartable": ["chartable", "17"],
    "refuse-dims": ["dims", "46"],
    "refuse-dims-negative": ["dims", "-1"],
    "refuse-kostka-bound": ["kostka", "10,9,8,7,6,5,4,3,2,1", "10,9,8,7,6,5,4,3,2,1"],
}


def transcript(argv) -> str:
    """One block per format: the command line, the exit code, then stdout."""
    blocks = []
    for fmt in FORMATS:
        full = argv + ["--format", fmt, "--no-cache"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(full)
        blocks.append(f"$ kronlab {' '.join(full)}\nexit {code}\n{out.getvalue()}")
    return "".join(blocks)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    assert transcript(CASES[name]) == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(transcript(argv))

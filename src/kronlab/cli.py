"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 resource bound exceeded.

Partitions are written as comma-separated parts ("5,3"); permutations as
one-line image lists ("[2,1,3]").  Output format: --format pretty (the
default on a terminal), json (the default when piped), or tsv.  JSON
output is deterministic: identical inputs and flags give byte-identical
bytes, so timings are never included.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import characters
from .errors import BoundExceededError, InputError, KronlabError
from .oracles import kron_char, kron_invariant_def, pleth_wreath, scaled_kron
from .partitions import (
    check_partition,
    encode_diagram,
    enumerate_partitions,
    hook_dimension,
    iter_partitions,
    kostka,
    partition_text,
)
from .permutations import check_perm, encode_permutation
from .projectors import (
    DENSE_DIM_LIMIT,
    check_projector_algebra,
    kron_pipeline,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
    pleth_pipeline,
    truncated_kron_pipeline,
)
from .protocol import run_verifier, sample_witness, witness_spaces

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def parse_partition(text: str):
    try:
        parts = tuple(int(x) for x in text.strip().strip("()").split(",") if x.strip() != "")
    except ValueError as exc:
        raise InputError(f"cannot parse partition {text!r}") from exc
    return check_partition(parts)


def parse_permutation(text: str):
    body = text.strip().strip("[]")
    try:
        images = tuple(int(x) for x in body.split(",") if x.strip() != "")
    except ValueError as exc:
        raise InputError(f"cannot parse permutation {text!r}") from exc
    return check_perm(images)


def _emit(payload: dict, rows: list[dict], fmt: str, out) -> None:
    """payload: one json document; rows: tabular view for tsv/pretty."""
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    if fmt == "tsv":
        if rows:
            cols = list(rows[0].keys())
            out.write("\t".join(cols) + "\n")
            for row in rows:
                out.write("\t".join(str(row[c]) for c in cols) + "\n")
        return
    # pretty
    for row in rows:
        out.write("  ".join(f"{k}={v}" for k, v in row.items()) + "\n")


def _resolve_format(args) -> str:
    if args.format != "auto":
        return args.format
    return "pretty" if sys.stdout.isatty() else "json"


# Each command's routes, in --all-methods order; the first is the default.
# Every entry looks its functions up at call time, so wrappers installed on
# the module (bench/tracer.py) see the calls.
KRON_ROUTES = {
    "char": lambda lam, mu, nu: kron_char(lam, mu, nu).value,
    "dense": lambda *shapes: pipeline_trace_dense(kron_pipeline(*shapes)),
    "collapsed": lambda *shapes: pipeline_trace_collapsed(kron_pipeline(*shapes)),
    "specht": lambda lam, mu, nu: kron_invariant_def(lam, mu, nu).value,
}
PLETH_ROUTES = {
    "wreath": lambda d, m, lam: pleth_wreath(d, m, lam).value,
    "dense": lambda *dml: pipeline_trace_dense(pleth_pipeline(*dml)),
    "collapsed": lambda *dml: pipeline_trace_collapsed(pleth_pipeline(*dml)),
}
TRACES = {
    "dense": lambda p: pipeline_trace_dense(p),
    "collapsed": lambda p: pipeline_trace_collapsed(p),
}


def _status(ok: bool) -> str:
    return "ok" if ok else "MISMATCH"


def cmd_coefficient(args, out) -> int:
    """kron and pleth: one route, or under --all-methods every route of the
    command's table, where a route whose size bound is exceeded is reported
    as skipped instead of aborting the command, unless every route is
    refused."""
    given = {name: getattr(args, name) for name in args.inputs}
    inputs = {name: parse_partition(v) if isinstance(v, str) else v for name, v in given.items()}
    values: dict[str, int] = {}
    refusals: dict[str, str] = {}
    for m in args.routes if args.all_methods else [args.method]:
        try:
            values[m] = args.routes[m](*inputs.values())
        except BoundExceededError as exc:
            if not args.all_methods:
                raise
            refusals[m] = str(exc)
    if not values:
        raise BoundExceededError("; ".join(f"{m}: {why}" for m, why in refusals.items()))
    agree = len(set(values.values())) == 1
    payload = {
        "command": args.command,
        "inputs": {name: list(v) if isinstance(v, tuple) else v for name, v in inputs.items()},
        "values": values,
        "skipped": list(refusals),
        "agree": agree,
    }
    rows = [{"method": m, "value": v, **given} for m, v in values.items()]
    _emit(payload, rows, _resolve_format(args), out)
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_scaledkron(args, out) -> int:
    lam, mu, nu = map(parse_partition, (args.lam, args.mu, args.nu))
    truncated = TRACES[args.method](truncated_kron_pipeline(lam, mu, nu))
    expected = scaled_kron(lam, mu, nu)
    payload = {
        "command": "scaledkron",
        "inputs": {"lam": list(lam), "mu": list(mu), "nu": list(nu)},
        "truncated_trace": truncated,
        "scaled_oracle": expected,
        "agree": truncated == expected,
    }
    rows = [
        {
            "lam": args.lam,
            "mu": args.mu,
            "nu": args.nu,
            "truncated_trace": truncated,
            "scaled_oracle": expected,
            "status": _status(truncated == expected),
        }
    ]
    _emit(payload, rows, _resolve_format(args), out)
    return EXIT_OK if truncated == expected else EXIT_MISMATCH


# Verify suites: one row per case, its "status" "ok" when the case passed.
# Each row runs its bounded route first, so a sweep beyond a size bound is
# refused on its first case, before any table or partition list is built.


def _compared(row: dict, expected: int, got: int) -> dict:
    return {**row, "oracle": expected, "pipeline": got, "status": _status(got == expected)}


def _triples(n: int):
    """Every triple of partitions of n in itertools.product order.  The
    first, (n) three times, comes before the partitions are listed, so a
    sweep refused on its first row lists none; the rest come from one list."""
    parts = iter_partitions(n)
    first = next(parts)
    yield first, first, first
    rest = itertools.product([first, *parts], repeat=3)
    next(rest)
    yield from rest


def _kron_all_rows(args):
    for lam, mu, nu in _triples(args.n):
        p = kron_pipeline(lam, mu, nu)
        got = TRACES["dense" if p.dim <= DENSE_DIM_LIMIT else "collapsed"](p)
        row = {"lam": partition_text(lam), "mu": partition_text(mu), "nu": partition_text(nu)}
        yield _compared(row, kron_char(lam, mu, nu).value, got)


def _pleth_all_rows(args):
    d, m = args.d, args.m
    for lam in iter_partitions(d * m):
        got = pipeline_trace_dense(pleth_pipeline(d, m, lam))
        yield _compared({"d": d, "m": m, "lam": partition_text(lam)}, pleth_wreath(d, m, lam).value, got)


def _algebra_rows(args):
    for shapes in _triples(args.n):
        report = check_projector_algebra(kron_pipeline(*shapes))
        status = "ok" if report.ok else "; ".join(report.failures)
        yield {"pipeline": report.pipeline_label, "mode": report.mode, "status": status}


def _protocol_rows(args):
    seed = args.seed
    for shapes in _triples(args.n):
        p = kron_pipeline(*shapes)
        ws = witness_spaces(p)
        expected = kron_char(*shapes).value
        ok = ws.dim_accept == expected
        detail = f"dimA={ws.dim_accept}"
        if ws.dim_accept:
            w = sample_witness(ws, "accept", seed)
            pa = run_verifier(p, w, "single_shot")
            ok = ok and pa == 1
            detail += f" p_accept={pa}"
            mc = run_verifier(p, w, "monte_carlo", seed=seed, shots=args.shots)
            ok = ok and mc.accepts == mc.shots
        if ws.dim_reject:
            w = sample_witness(ws, "reject", seed + 1)
            pr = run_verifier(p, w, "single_shot")
            ok = ok and pr == 0
            detail += f" p_reject={pr}"
        yield {"pipeline": p.label, "oracle": expected, "detail": detail, "status": _status(ok)}


def cmd_verify(args, out) -> int:
    rows = list(args.suite_rows(args))
    failures = sum(row["status"] != "ok" for row in rows)
    passed = len(rows) - failures
    payload = {
        "command": "verify",
        "suite": args.suite,
        "cases": rows,
        "passed": passed,
        "failed": failures,
    }
    fmt = _resolve_format(args)
    _emit(payload, rows, fmt, out)
    if fmt == "pretty":
        out.write(f"{passed}/{len(rows)} pass\n")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def cmd_chartable(args, out) -> int:
    table = characters.character_table(args.n)
    payload = table.to_json()
    labels = [partition_text(rho) for rho in table.classes]
    rows = [{"partition": partition_text(lam), **dict(zip(labels, row))} for lam, row in table.rows.items()]
    _emit(payload, rows, _resolve_format(args), out)
    return EXIT_OK


def cmd_dims(args, out) -> int:
    parts = enumerate_partitions(args.n)
    rows = [{"partition": partition_text(lam), "dimension": hook_dimension(lam)} for lam in parts]
    total = sum(r["dimension"] ** 2 for r in rows)
    payload = {
        "command": "dims",
        "n": args.n,
        "rows": rows,
        "sum_of_squares": total,
        "factorial": math.factorial(args.n),
    }
    _emit(payload, rows, _resolve_format(args), out)
    if _resolve_format(args) == "pretty":
        out.write(f"sum of squares = {total} (n! = {math.factorial(args.n)})\n")
    return EXIT_OK


def cmd_kostka(args, out) -> int:
    lam, mu = parse_partition(args.lam), parse_partition(args.mu)
    value = kostka(lam, mu)
    payload = {
        "command": "kostka",
        "inputs": {"lam": list(lam), "mu": list(mu)},
        "value": value,
    }
    _emit(payload, [{"lam": args.lam, "mu": args.mu, "kostka": value}], _resolve_format(args), out)
    return EXIT_OK


def cmd_encode(args, out) -> int:
    if args.what == "diagram":
        lam = parse_partition(args.value)
        bits = encode_diagram(lam)
        payload = {"command": "encode", "what": "diagram", "input": list(lam), "bits": bits}
        rows = [{"diagram": args.value, "bits": bits}]
    else:
        pi = parse_permutation(args.value)
        bits = encode_permutation(pi)
        payload = {"command": "encode", "what": "perm", "input": list(pi), "bits": bits}
        rows = [{"perm": args.value, "bits": bits}]
    _emit(payload, rows, _resolve_format(args), out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["auto", "pretty", "json", "tsv"],
        default="auto",
        help="output format (default: pretty on a TTY, json otherwise)",
    )
    common.add_argument("--cache-dir", default=None, help="character table cache directory")
    common.add_argument(
        "--no-cache", action="store_true", help="do not read or write the disk cache"
    )
    parser = argparse.ArgumentParser(
        prog="kronlab",
        description="Kronecker and plethysm coefficients: classical oracles "
        "and exact commuting-projector pipeline simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, routes, inputs, help_text in (
        ("kron", KRON_ROUTES, {"lam": str, "mu": str, "nu": str}, "Kronecker coefficient k(lam, mu, nu)"),
        ("pleth", PLETH_ROUTES, {"d": int, "m": int, "lam": str}, "plethysm coefficient a_lam(d, m)"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, kind in inputs.items():
            p.add_argument(arg, type=kind)
        p.add_argument("--method", choices=list(routes), default=next(iter(routes)))
        p.add_argument("--all-methods", action="store_true")
        p.set_defaults(func=cmd_coefficient, routes=routes, inputs=tuple(inputs))

    p = sub.add_parser(
        "scaledkron",
        parents=[common],
        help="trace of the truncated pipeline vs d(lam)d(mu)d(nu)k(lam,mu,nu)",
    )
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--method", choices=list(TRACES), default=next(iter(TRACES)))
    p.set_defaults(func=cmd_scaledkron)

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    vsub = p.add_subparsers(dest="suite", required=True)
    for name, suite_rows, degrees, help_text in (
        ("kron-all", _kron_all_rows, ["n"], "all Kronecker triples at degree n"),
        ("pleth-all", _pleth_all_rows, ["d", "m"], "all plethysm shapes for (d, m)"),
        ("algebra", _algebra_rows, ["n"], "idempotence/symmetry/commutation at degree n"),
        ("protocol", _protocol_rows, ["n"], "witness spaces and verifier runs at degree n"),
    ):
        v = vsub.add_parser(name, parents=[common], help=help_text)
        for arg in degrees:
            v.add_argument(arg, type=int)
        v.set_defaults(func=cmd_verify, suite_rows=suite_rows)
    # v is the last suite's parser: only protocol samples and shoots
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--shots", type=int, default=1000)

    p = sub.add_parser("chartable", parents=[common], help="character table of S_n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("dims", parents=[common], help="irreducible dimensions at degree n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("kostka", parents=[common], help="Kostka number K(lam, mu)")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("encode", parents=[common], help="bit encodings of diagrams and permutations")
    p.add_argument("what", choices=["diagram", "perm"])
    p.add_argument("value")
    p.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with characters.cache_settings(args.cache_dir or None, use_cache=not args.no_cache):
            return args.func(args, sys.stdout)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundExceededError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except KronlabError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

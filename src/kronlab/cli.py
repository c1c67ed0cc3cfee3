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
    kostka,
)
from .permutations import check_perm, encode_permutation
from .projectors import (
    DENSE_DIM_LIMIT,
    check_projector_algebra,
    kron_pipeline,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
    pleth_pipeline,
    truncated_kron_trace,
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


def _run_kron_method(method: str, lam, mu, nu) -> int:
    if method == "char":
        return kron_char(lam, mu, nu).value
    if method == "dense":
        return pipeline_trace_dense(kron_pipeline(lam, mu, nu))
    if method == "collapsed":
        return pipeline_trace_collapsed(kron_pipeline(lam, mu, nu))
    if method == "specht":
        return kron_invariant_def(lam, mu, nu).value
    raise InputError(f"unknown method {method!r}")


def _run_pleth_method(method: str, d: int, m: int, lam) -> int:
    if method == "wreath":
        return pleth_wreath(d, m, lam).value
    if method == "dense":
        return pipeline_trace_dense(pleth_pipeline(d, m, lam))
    if method == "collapsed":
        return pipeline_trace_collapsed(pleth_pipeline(d, m, lam))
    raise InputError(f"unknown method {method!r}")


def _collect_methods(methods, runner, all_methods: bool) -> tuple[dict, list[str]]:
    """Run each backend; under --all-methods a backend whose size bound is
    exceeded is reported as skipped instead of aborting the command, unless
    every backend is refused."""
    values: dict[str, int] = {}
    refusals: dict[str, str] = {}
    for m in methods:
        if all_methods:
            try:
                values[m] = runner(m)
            except BoundExceededError as exc:
                refusals[m] = str(exc)
        else:
            values[m] = runner(m)
    if not values:
        raise BoundExceededError("; ".join(f"{m}: {why}" for m, why in refusals.items()))
    return values, list(refusals)


def cmd_kron(args, out) -> int:
    lam, mu, nu = map(parse_partition, (args.lam, args.mu, args.nu))
    methods = ["char", "dense", "collapsed", "specht"] if args.all_methods else [args.method]
    values, skipped = _collect_methods(
        methods, lambda m: _run_kron_method(m, lam, mu, nu), args.all_methods
    )
    agree = len(set(values.values())) == 1
    payload = {
        "command": "kron",
        "inputs": {"lam": list(lam), "mu": list(mu), "nu": list(nu)},
        "values": values,
        "skipped": skipped,
        "agree": agree,
    }
    rows = [
        {"method": m, "value": v, "lam": args.lam, "mu": args.mu, "nu": args.nu}
        for m, v in values.items()
    ]
    _emit(payload, rows, _resolve_format(args), out)
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_pleth(args, out) -> int:
    lam = parse_partition(args.lam)
    methods = ["wreath", "dense", "collapsed"] if args.all_methods else [args.method]
    values, skipped = _collect_methods(
        methods, lambda m: _run_pleth_method(m, args.d, args.m, lam), args.all_methods
    )
    agree = len(set(values.values())) == 1
    payload = {
        "command": "pleth",
        "inputs": {"d": args.d, "m": args.m, "lam": list(lam)},
        "values": values,
        "skipped": skipped,
        "agree": agree,
    }
    rows = [
        {"method": m, "value": v, "d": args.d, "m": args.m, "lam": args.lam}
        for m, v in values.items()
    ]
    _emit(payload, rows, _resolve_format(args), out)
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_scaledkron(args, out) -> int:
    lam, mu, nu = map(parse_partition, (args.lam, args.mu, args.nu))
    truncated = truncated_kron_trace(lam, mu, nu, method=args.method)
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
            "status": "ok" if truncated == expected else "MISMATCH",
        }
    ]
    _emit(payload, rows, _resolve_format(args), out)
    return EXIT_OK if truncated == expected else EXIT_MISMATCH


def cmd_verify(args, out) -> int:
    sub = args.suite
    rows: list[dict] = []
    failures = 0
    if sub == "kron-all":
        n = args.n
        parts = enumerate_partitions(n)
        use_dense = math.factorial(n) ** 3 <= DENSE_DIM_LIMIT
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    expected = kron_char(lam, mu, nu).value
                    p = kron_pipeline(lam, mu, nu)
                    got = pipeline_trace_dense(p) if use_dense else pipeline_trace_collapsed(p)
                    ok = got == expected
                    failures += not ok
                    rows.append(
                        {
                            "lam": ",".join(map(str, lam)),
                            "mu": ",".join(map(str, mu)),
                            "nu": ",".join(map(str, nu)),
                            "oracle": expected,
                            "pipeline": got,
                            "status": "ok" if ok else "MISMATCH",
                        }
                    )
    elif sub == "pleth-all":
        d, m = args.d, args.m
        for lam in enumerate_partitions(d * m):
            expected = pleth_wreath(d, m, lam).value
            got = pipeline_trace_dense(pleth_pipeline(d, m, lam))
            ok = got == expected
            failures += not ok
            rows.append(
                {
                    "d": d,
                    "m": m,
                    "lam": ",".join(map(str, lam)),
                    "oracle": expected,
                    "pipeline": got,
                    "status": "ok" if ok else "MISMATCH",
                }
            )
    elif sub == "algebra":
        n = args.n
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    report = check_projector_algebra(kron_pipeline(lam, mu, nu))
                    ok = report.ok
                    failures += not ok
                    rows.append(
                        {
                            "pipeline": report.pipeline_label,
                            "mode": report.mode,
                            "status": "ok" if ok else "; ".join(report.failures),
                        }
                    )
    elif sub == "protocol":
        n = args.n
        rng_seed = args.seed
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    p = kron_pipeline(lam, mu, nu)
                    expected = kron_char(lam, mu, nu).value
                    ws = witness_spaces(p)
                    ok = ws.dim_accept == expected
                    detail = f"dimA={ws.dim_accept}"
                    if ws.dim_accept:
                        w = sample_witness(ws, "accept", rng_seed)
                        pa = run_verifier(p, w, "single_shot")
                        ok = ok and pa == 1
                        detail += f" p_accept={pa}"
                        mc = run_verifier(p, w, "monte_carlo", seed=rng_seed, shots=args.shots)
                        ok = ok and mc.accepts == mc.shots
                    if ws.dim_reject:
                        w = sample_witness(ws, "reject", rng_seed + 1)
                        pr = run_verifier(p, w, "single_shot")
                        ok = ok and pr == 0
                        detail += f" p_reject={pr}"
                    failures += not ok
                    rows.append(
                        {
                            "pipeline": p.label,
                            "oracle": expected,
                            "detail": detail,
                            "status": "ok" if ok else "MISMATCH",
                        }
                    )
    else:
        raise InputError(f"unknown verify suite {sub!r}")
    passed = len(rows) - failures
    payload = {
        "command": "verify",
        "suite": sub,
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
    rows = []
    for lam in table.partitions:
        row = {"partition": ",".join(map(str, lam))}
        for rho, value in zip(table.classes, table.row(lam)):
            row[",".join(map(str, rho))] = value
        rows.append(row)
    _emit(payload, rows, _resolve_format(args), out)
    return EXIT_OK


def cmd_dims(args, out) -> int:
    parts = enumerate_partitions(args.n)
    rows = [
        {"partition": ",".join(map(str, lam)), "dimension": hook_dimension(lam)}
        for lam in parts
    ]
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
    if sum(lam) != sum(mu):
        raise InputError(f"|lam| = {sum(lam)} but |mu| = {sum(mu)}")
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

    p = sub.add_parser("kron", parents=[common], help="Kronecker coefficient k(lam, mu, nu)")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--method", choices=["char", "dense", "collapsed", "specht"], default="char")
    p.add_argument("--all-methods", action="store_true")
    p.set_defaults(func=cmd_kron)

    p = sub.add_parser("pleth", parents=[common], help="plethysm coefficient a_lam(d, m)")
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    p.add_argument("lam")
    p.add_argument("--method", choices=["wreath", "dense", "collapsed"], default="wreath")
    p.add_argument("--all-methods", action="store_true")
    p.set_defaults(func=cmd_pleth)

    p = sub.add_parser(
        "scaledkron",
        parents=[common],
        help="trace of the truncated pipeline vs d(lam)d(mu)d(nu)k(lam,mu,nu)",
    )
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--method", choices=["dense", "collapsed"], default="dense")
    p.set_defaults(func=cmd_scaledkron)

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    vsub = p.add_subparsers(dest="suite", required=True)
    v = vsub.add_parser("kron-all", parents=[common], help="all Kronecker triples at degree n")
    v.add_argument("n", type=int)
    v.set_defaults(func=cmd_verify)
    v = vsub.add_parser("pleth-all", parents=[common], help="all plethysm shapes for (d, m)")
    v.add_argument("d", type=int)
    v.add_argument("m", type=int)
    v.set_defaults(func=cmd_verify)
    v = vsub.add_parser("algebra", parents=[common], help="idempotence/symmetry/commutation at degree n")
    v.add_argument("n", type=int)
    v.set_defaults(func=cmd_verify)
    v = vsub.add_parser("protocol", parents=[common], help="witness spaces and verifier runs at degree n")
    v.add_argument("n", type=int)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--shots", type=int, default=1000)
    v.set_defaults(func=cmd_verify)

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

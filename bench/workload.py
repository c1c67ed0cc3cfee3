"""One workload, run in its own process by run.py.

    python3 bench/workload.py --workload NAME --seed N --seconds T \
        --later K --trace 0|1 --result FILE --spans FILE --tmp DIR

The first pass runs on empty caches; later passes repeat the same case
list until T seconds have gone by and at least K later passes are done.
Only calls into kronlab are timed; the checks run outside the timed
region and use only `reference`.  The result is written to the
--result file as JSON; with --trace 1 the spans go to the --spans file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
MC_SHOTS = 100
ALL_KRON = ("char", "dense", "collapsed", "specht")
VERIFIER_N4_TRIPLE = ((3, 1), (3, 1), (2, 2))


class Pass:
    """Time spent in kronlab, operations attempted and failed, and failed
    checks for one pass over a case list."""

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def time(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += perf_counter() - start

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def op(self, label: str, body) -> bool:
        """Run one operation; it fails if it raises or returns False."""
        self.attempted += 1
        try:
            ok = body() is not False
        except Exception as exc:  # an operation that raises is counted, not fatal
            print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        self.failed += not ok
        return ok


def _fmt(lam) -> str:
    return ",".join(map(str, lam))


# ---------------------------------------------------------------------------
# in-process workloads: each returns the function that runs one pass


def collapsed_n8(kl, rng):
    parts = ref.partitions(8)
    pairs = rng.sample([(a, b) for a in parts for b in parts], 2)

    def run(p: Pass) -> None:
        for lam, mu in pairs:
            k = {}
            for nu in parts:
                def body(nu=nu):
                    by_char = p.time(kl.kron_char, lam, mu, nu).value
                    pipe = p.time(kl.kron_pipeline, lam, mu, nu)
                    collapsed = p.time(kl.pipeline_trace_collapsed, pipe)
                    p.check(by_char == collapsed, f"k{(lam, mu, nu)}: char {by_char} != collapsed {collapsed}")
                    k[nu] = collapsed

                p.op(f"kron {lam} {mu} {nu}", body)
            if len(k) == len(parts):
                total = sum(k[nu] * ref.hook_dim(nu) for nu in parts)
                p.check(total == ref.hook_dim(lam) * ref.hook_dim(mu), f"dimension identity fails at {lam}, {mu}")
        for d, m in ((2, 4), (4, 2)):
            _pleth_sweep(kl, p, d, m, parts, methods=("wreath", "collapsed"))

    return run


def _pleth_sweep(kl, p: Pass, d: int, m: int, parts, methods) -> None:
    a = {}
    for lam in parts:
        def body(lam=lam):
            values = []
            for method in methods:
                if method == "wreath":
                    values.append(p.time(kl.pleth_wreath, d, m, lam).value)
                else:
                    pipe = p.time(kl.pleth_pipeline, d, m, lam)
                    trace = kl.pipeline_trace_collapsed if method == "collapsed" else kl.pipeline_trace_dense
                    values.append(p.time(trace, pipe))
            p.check(len(set(values)) == 1, f"a_{lam}({d},{m}): routes disagree {values}")
            a[lam] = values[0]

        p.op(f"pleth {d} {m} {lam}", body)
    if len(a) == len(parts):
        total = sum(a[lam] * ref.hook_dim(lam) for lam in parts)
        p.check(total == ref.pleth_dim_total(d, m), f"plethysm dimension identity fails at ({d},{m})")
        p.check(a[(m * d,)] == 1, f"trivial plethysm coefficient at ({d},{m}) is {a[(m * d,)]}")


def dense_n4(kl, rng):
    parts4 = ref.partitions(4)
    lam, mu = rng.choice([(a, b) for a in parts4 for b in parts4])
    parts3 = ref.partitions(3)
    triples3 = list(itertools.product(parts3, repeat=3))

    def run(p: Pass) -> None:
        k = {}
        for nu in parts4:
            def body(nu=nu):
                dense = p.time(kl.pipeline_trace_dense, p.time(kl.kron_pipeline, lam, mu, nu))
                truncated = p.time(kl.truncated_kron_trace, lam, mu, nu)
                expected = ref.kron_small(lam, mu, nu)
                p.check(dense == expected, f"k{(lam, mu, nu)}: dense {dense} != {expected}")
                dims = ref.hook_dim(lam) * ref.hook_dim(mu) * ref.hook_dim(nu)
                p.check(truncated == dims * dense, f"truncated trace {truncated} != {dims} * {dense}")
                k[nu] = dense

            p.op(f"dense {lam} {mu} {nu}", body)
        if len(k) == len(parts4):
            total = sum(k[nu] * ref.hook_dim(nu) for nu in parts4)
            p.check(total == ref.hook_dim(lam) * ref.hook_dim(mu), f"dimension identity fails at {lam}, {mu}")
        _pleth_sweep(kl, p, 2, 3, ref.partitions(6), methods=("dense",))
        for t in triples3:
            def body(t=t):
                report = p.time(kl.check_projector_algebra, p.time(kl.kron_pipeline, *t))
                p.check(report.ok and not report.failures, f"projector algebra fails for {t}: {report.failures}")

            p.op(f"algebra {t}", body)

    return run


def verifier(kl, rng):
    triples = list(itertools.combinations_with_replacement(ref.partitions(3), 3))
    seeds = {t: [rng.randrange(1 << 30) for _ in range(3)] for t in triples}
    n4_seed = rng.randrange(1 << 30)

    def exact_branches(p: Pass, pipe, w, p_accept, t):
        branches = p.time(kl.run_verifier, pipe, w, "exact")
        p.check(sum(b.probability for b in branches) == 1, f"branch probabilities of {t} do not sum to 1")
        p.check(all(b.p_accept == p_accept for b in branches), f"exact acceptance of {t} is not {p_accept}")
        single = p.time(kl.run_verifier, pipe, w, "single_shot")
        p.check(single == p_accept, f"single-shot acceptance of {t} is {single}, not {p_accept}")

    def run(p: Pass) -> None:
        for t in triples:
            s_accept, s_mc, s_reject = seeds[t]
            k = ref.kron_small(*t)
            pipe = p.time(kl.kron_pipeline, *t)
            ws = []

            def spaces():
                ws.append(p.time(kl.witness_spaces, pipe))
                p.check(ws[0].dim_accept == k, f"dim A of {t} is {ws[0].dim_accept}, not {k}")
                p.check(ws[0].dim_accept + ws[0].dim_reject == 6**3, f"dim A + dim R of {t} is not 216")

            def accept():
                w = p.time(kl.sample_witness, ws[0], "accept", s_accept)
                exact_branches(p, pipe, w, 1, t)
                mc = p.time(kl.run_verifier, pipe, w, "monte_carlo", seed=s_mc, shots=MC_SHOTS)
                p.check(mc.accepts == MC_SHOTS, f"Monte Carlo accepted {mc.accepts}/{MC_SHOTS} for {t}")

            def reject():
                w = p.time(kl.sample_witness, ws[0], "reject", s_reject)
                exact_branches(p, pipe, w, 0, t)

            # the witness operations need the spaces; without them they fail too
            ok = p.op(f"witness spaces {t}", spaces)
            if k:
                p.op(f"accepting witness {t}", accept if ok else lambda: False)
            p.op(f"rejecting witness {t}", reject if ok else lambda: False)

        def n4():
            pipe = p.time(kl.kron_pipeline, *VERIFIER_N4_TRIPLE)
            w = p.time(kl.sample_accepting_witness, pipe, n4_seed)
            pa = p.time(kl.acceptance_probability, pipe, w)
            p.check(pa == 1, f"acceptance of the n = 4 witness is {pa}")

        p.op(f"accepting witness {VERIFIER_N4_TRIPLE}", n4)

    return run


# ---------------------------------------------------------------------------
# cli-cold: every command is its own kronlab process


class CliCold:
    def __init__(self, rng, tmp: Path, spans_file: Path | None):
        parts4, parts3 = ref.partitions(4), ref.partitions(3)
        kron4 = rng.choice(list(itertools.product(parts4, repeat=3)))
        scaled3 = rng.choice(list(itertools.product(parts3, repeat=3)))
        self.tmp = tmp
        self.spans_file = spans_file
        self.peak_rss_mb = 0.0
        self.traces: list[dict] = []
        self.unattributed_s = 0.0
        self.commands = [
            (["kron", *map(_fmt, kron4), "--all-methods"], self._kron(ref.kron_small(*kron4), ALL_KRON, [])),
            (["kron", "3,2", "3,2", "2,2,1", "--all-methods"], self._kron(None, ALL_KRON, ["dense"])),
            (["pleth", "2", "3", "4,2", "--all-methods"], self._pleth),
            (["scaledkron", *map(_fmt, scaled3)], self._scaled(scaled3)),
            (["verify", "kron-all", "3"], self._verify),
            (["chartable", "12"], self._chartable),
            (["kron", "2,1", "2,1", "2,1", "--no-cache"], self._kron(1, {"char"}, [])),
        ]

    # -- output checks --------------------------------------------------

    @staticmethod
    def _kron(expected, methods, skipped):
        def check(p, out):
            triple = tuple(out["inputs"].values())
            p.check(out["agree"] is True, f"kron {triple}: routes disagree {out['values']}")
            p.check(out["skipped"] == skipped, f"kron {triple} skipped {out['skipped']}, expected {skipped}")
            p.check(set(out["values"]) == set(methods) - set(skipped), f"kron {triple} ran {sorted(out['values'])}")
            if expected is not None:
                p.check(set(out["values"].values()) == {expected}, f"kron values {out['values']} != {expected}")

        return check

    @staticmethod
    def _pleth(p, out):
        p.check(out["agree"] is True and out["skipped"] == [], f"pleth: {out}")
        p.check(set(out["values"]) == {"wreath", "dense", "collapsed"}, f"pleth ran {sorted(out['values'])}")

    @staticmethod
    def _scaled(triple):
        def check(p, out):
            dims = ref.hook_dim(triple[0]) * ref.hook_dim(triple[1]) * ref.hook_dim(triple[2])
            expected = dims * ref.kron_small(*triple)
            p.check(out["agree"] is True, f"scaledkron {triple}: {out}")
            p.check(out["truncated_trace"] == expected, f"scaledkron {triple}: trace != {expected}")

        return check

    @staticmethod
    def _verify(p, out):
        p.check(out["failed"] == 0 and out["passed"] == 27, f"verify kron-all 3: {out['passed']} passed, {out['failed']} failed")

    @staticmethod
    def _chartable(p, out):
        parts = ref.partitions(12)
        identity = [i for i, c in enumerate(out["classes"]) if c["type"] == [1] * 12]
        p.check(len(identity) == 1, "chartable 12 has no identity class")
        got = {tuple(r["partition"]): r["values"][identity[0]] for r in out["rows"]} if identity else {}
        p.check(got == {lam: ref.hook_dim(lam) for lam in parts}, "chartable 12 identity column != hook dimensions")

    # -- running --------------------------------------------------------

    def _spawn(self, args: list[str], cwd: Path, env: dict) -> tuple[int, str, float]:
        result_file = None
        env = dict(env)
        if self.spans_file is not None:
            result_file = self.tmp / "cli-trace.json"
            argv = [sys.executable, str(BENCH_DIR / "cli_runner.py"), str(result_file), str(self.spans_file), *args]
        else:
            argv = [sys.executable, "-m", "kronlab.cli", *args]
        with open(self.tmp / "cli-stderr.txt", "w+") as err:
            start = perf_counter()
            env["KRONBENCH_SPAWN_T"] = repr(start)
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            if proc.returncode:
                print(f"kronlab {' '.join(args)} exited {proc.returncode}: {err.read()}", file=sys.stderr)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if result_file is not None and result_file.exists():
            trace = json.loads(result_file.read_text())
            result_file.unlink()
            self.traces.append(trace)
            self.unattributed_s += wall - sum(trace["self_s"].values())
        return proc.returncode, out.decode(), wall

    def run(self, p: Pass) -> None:
        env = dict(os.environ)
        cwd = Path(os.getcwd())
        for args, check in self.commands:
            no_cache = "--no-cache" in args
            run_cwd, run_env = cwd, env
            if no_cache:
                # an empty working directory and no cache variable: the
                # default ./.kronlab-cache must stay absent
                run_cwd = Path(tempfile.mkdtemp(prefix="nocache-", dir=self.tmp))
                run_env = {k: v for k, v in env.items() if k != "KRONLAB_CACHE"}

            def body(args=args, check=check, run_cwd=run_cwd, run_env=run_env, no_cache=no_cache):
                code, out, wall = self._spawn([*args, "--format", "json"], run_cwd, run_env)
                p.seconds += wall
                if code != 0:
                    return False
                check(p, json.loads(out))
                if no_cache:
                    written = sorted(str(f.relative_to(run_cwd)) for f in run_cwd.rglob("*") if f.is_file())
                    if written:
                        print(f"kronlab {' '.join(args)} wrote {written}", file=sys.stderr)
                        return False
                return True

            p.op("kronlab " + " ".join(args), body)


# ---------------------------------------------------------------------------


IN_PROCESS = {"collapsed-n8": collapsed_n8, "dense-n4": dense_n4, "verifier": verifier}
WORKLOADS = [*IN_PROCESS, "cli-cold"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--later", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    tracer = None
    cli = None
    if args.workload == "cli-cold":
        cli = CliCold(rng, Path(args.tmp), Path(args.spans) if args.trace else None)
        run_pass = cli.run
    else:
        import kronlab

        if not Path(kronlab.__file__).resolve().is_relative_to(SRC_DIR.resolve()):
            print(f"kronlab was imported from {kronlab.__file__}, not from {SRC_DIR}", file=sys.stderr)
            return 2
        run_pass = IN_PROCESS[args.workload](kronlab, rng)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()

    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) < 1 + args.later or perf_counter() - start < args.seconds:
        p = Pass()
        run_pass(p)
        passes.append(p)

    errors = [e for p in passes for e in p.errors]
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "passes": [p.seconds for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "correct": not errors,
        "peak_rss_mb": cli.peak_rss_mb if cli else None,
        "trace": None,
    }
    if tracer is not None:
        trace = tracer.result()
        trace["unattributed_s"] = sum(result["passes"]) - sum(trace["self_s"].values())
        tracer.write_spans(args.spans)
        result["trace"] = trace
    elif cli is not None and args.trace:
        from tracer import merge

        trace = merge(cli.traces)
        trace["unattributed_s"] = cli.unattributed_s
        result["trace"] = trace
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""kronlab benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

--trace 0 prints the end-to-end metrics (setup_s, first_pass_s, pass_s,
peak_rss_mb); --trace 1 prints the per-layer metrics of a traced run and
its overhead against an untraced run of the same passes.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

kronlab is imported from ./src of the checkout (no install needed).
Every kronlab process runs single-threaded, with a fresh empty
character-table cache directory under bench/out/, never ./.kronlab-cache.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from tracer import COUNTERS, LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("collapsed-n8", "dense-n4", "verifier", "cli-cold")
SETUP_REPEATS = 3
# later passes at least, untraced: collapsed-n8 passes last about 3 s, so
# three of them span about as long as one later pass of the other workloads
MIN_LATER = {"collapsed-n8": 3}
DEADLINE_S = 170  # a run must end within 180 s

# per-layer metrics in the order BENCHMARK.json lists them
LAYER_METRICS = [f"{layer}_s" for layer in LAYERS] + COUNTERS + ["trace.overhead_s", "trace.unattributed_s"]


def child_env(cache: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", KRONLAB_CACHE=str(cache))
    for var in ("OMP", "OPENBLAS", "MKL", "NUMEXPR"):
        env[f"{var}_NUM_THREADS"] = "1"
    return env


class Deadline:
    """Kills a child, and the processes it started, if it would make the
    run overrun its time limit.  Children run in their own session."""

    def __init__(self, start: float):
        self.start = start

    def wait4(self, proc: subprocess.Popen):
        left = max(1.0, DEADLINE_S - (perf_counter() - self.start))
        timer = threading.Timer(left, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage


def measure_setup(workload: str, tmp: Path, deadline: Deadline) -> float:
    """Median over fresh processes of the time from spawn until `import
    kronlab` returns; for cli-cold, the wall time of `kronlab dims 1`."""
    env = child_env(tmp / "setup-cache")
    times = []
    for _ in range(SETUP_REPEATS):
        if workload == "cli-cold":
            argv = [sys.executable, "-m", "kronlab.cli", "dims", "1", "--format", "json"]
        else:
            argv = [sys.executable, "-c", "import kronlab, time; print(repr(time.perf_counter()))"]
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.PIPE, start_new_session=True)
        out = proc.stdout.read()
        proc.stdout.close()
        code, _ = deadline.wait4(proc)
        end = perf_counter()
        if code != 0:
            raise RuntimeError(f"set-up command {argv[1:]} exited {code}")
        times.append(end - start if workload == "cli-cold" else float(out) - start)
    return statistics.median(times)


def run_workload(args, tmp: Path, deadline: Deadline, *, seconds: float, later: int, traced: bool) -> dict:
    """One workload child with its own empty cache and working directory."""
    work = Path(tempfile.mkdtemp(prefix="child-", dir=tmp))
    (work / "cwd").mkdir()
    result = work / "result.json"
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if traced:
        spans.unlink(missing_ok=True)
    argv = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--later", str(later), "--trace", str(int(traced)),
        "--result", str(result), "--spans", str(spans), "--tmp", str(work),
    ]  # fmt: skip
    proc = subprocess.Popen(
        argv, cwd=work / "cwd", env=child_env(work / "cache"), stdout=sys.stderr, start_new_session=True
    )
    code, usage = deadline.wait4(proc)
    if code != 0 or not result.exists():
        raise RuntimeError(f"workload {args.workload} exited {code}")
    out = json.loads(result.read_text())
    if out["peak_rss_mb"] is None:
        out["peak_rss_mb"] = usage.ru_maxrss / 1024
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = Deadline(perf_counter())
    if not (ROOT / "src" / "kronlab" / "__init__.py").is_file():
        print(f"error: no kronlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if args.trace:
            # the same passes, untraced then traced; end-to-end metrics never
            # come from a traced run
            base = run_workload(args, tmp, deadline, seconds=0, later=1, traced=False)
            traced = run_workload(args, tmp, deadline, seconds=0, later=1, traced=True)
            runs = [base, traced]
            trace = traced["trace"]
            values = {f"{layer}_s": trace["self_s"][layer] for layer in LAYERS}
            values.update(trace["counts"])
            values["trace.overhead_s"] = sum(traced["passes"]) - sum(base["passes"])
            values["trace.unattributed_s"] = trace["unattributed_s"]
            metrics = {name: metric(values[name], layer_unit(name)) for name in LAYER_METRICS}
        else:
            setup = measure_setup(args.workload, tmp, deadline)
            later = MIN_LATER.get(args.workload, 1)
            run = run_workload(args, tmp, deadline, seconds=args.seconds, later=later, traced=False)
            runs = [run]
            metrics = {
                "setup_s": metric(setup, "s"),
                "first_pass_s": metric(run["passes"][0], "s"),
                "pass_s": metric(statistics.median(run["passes"][1:]), "s"),
                "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
            }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

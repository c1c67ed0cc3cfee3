"""Runs the benchmark on several seeds and reports the spread of each
end-to-end metric: median, first and third quartile, and the quartile
distance as a share of the median.

    python3 bench/steadiness.py [--seeds 1-10] [--workloads a,b] [--seconds T]

Runs go one at a time.  Per-run results, with each run's wall time, are
appended to bench/out/steadiness.jsonl; the table goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = BENCH_DIR / "out" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]  # fmt: skip
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            shares.add((result["failed"] / result["attempted"]))
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall, **result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: failed share {sorted(shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(
                f"  {name:13s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                f"spread {spread:6.3f}  (bound {bounds[name]}, n={len(vals)})"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

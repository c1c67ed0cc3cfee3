"""Runs one kronlab command with the layer tracer installed.

    python3 bench/cli_runner.py RESULT_FILE SPANS_FILE ARGS...

The process start time comes from KRONBENCH_SPAWN_T (a perf_counter
reading taken by the parent just before the spawn; the clock is
system-wide), so `cli.import` covers interpreter start-up and
`import kronlab`.  Self times and counts go to RESULT_FILE as JSON and
the spans are appended to SPANS_FILE.
"""

import json
import os
import sys
from time import perf_counter

import kronlab.cli

imported = perf_counter()

from tracer import Tracer  # noqa: E402  (imported after the timed import)


def main() -> int:
    result_file, spans_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.add_span("cli.import", float(os.environ["KRONBENCH_SPAWN_T"]), imported)
    tracer.install()
    code = kronlab.cli.main(argv)
    sys.stdout.flush()
    with open(result_file, "w") as fh:
        json.dump(tracer.result(), fh)
    tracer.write_spans(spans_file, mode="a")
    return code


if __name__ == "__main__":
    sys.exit(main())

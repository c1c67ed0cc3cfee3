"""Per-layer tracing of kronlab, installed from outside its code.

`install()` wraps public functions of kronlab's modules from outside.
Each wrapper records a span (layer, start, end, parent) in memory and
adds its self time, the span minus its child spans, to the layer's
total.  A function bound into another module by `from .x import y` is
replaced in every kronlab module that holds it, so calls between
modules are seen as well as calls from the benchmark.

Leaf helpers that run millions of times (compose, cycle_type,
check_partition, hook_dimension) are not wrapped: a wrapper there would
cost more than the work, and their time stays in their caller's layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (module, function) -> layer whose self time the call adds to
SPANS = {
    ("kronlab.characters", "character_table"): "characters.table",
    ("kronlab.permutations", "enumerate_subgroup"): "permutations.enumerate",
    ("kronlab.permutations", "all_perms"): "permutations.enumerate",
    ("kronlab.permutations", "cycle_type_census"): "permutations.enumerate",
    ("kronlab.projectors", "kron_pipeline"): "projectors.build",
    ("kronlab.projectors", "truncated_kron_pipeline"): "projectors.build",
    ("kronlab.projectors", "pleth_pipeline"): "projectors.build",
    ("kronlab.projectors", "perm_index"): "projectors.perm_index",
    ("kronlab.projectors", "pipeline_trace_dense"): "projectors.dense",
    ("kronlab.projectors", "truncated_kron_trace"): "projectors.dense",
    ("kronlab.projectors", "pipeline_trace_collapsed"): "projectors.collapsed",
    ("kronlab.projectors", "check_projector_algebra"): "projectors.algebra",
    ("kronlab.projectors", "apply_pipeline"): "projectors.statevector",
    ("kronlab.projectors", "apply_isotypic"): "projectors.statevector",
    ("kronlab.projectors", "apply_invariant_average"): "projectors.statevector",
    ("kronlab.oracles", "kron_char"): "oracles.char",
    ("kronlab.oracles", "scaled_kron"): "oracles.char",
    ("kronlab.oracles", "pleth_wreath"): "oracles.wreath",
    ("kronlab.oracles", "kron_invariant_def"): "oracles.specht",
    ("kronlab.specht", "build_seminormal"): "specht.build",
    ("kronlab.specht", "invariant_dim"): "specht.invariant_dim",
    ("kronlab.ratlinalg", "rank"): "ratlinalg.rank",
    ("kronlab.ratlinalg", "rref"): "ratlinalg.rank",
    ("kronlab.ratlinalg", "kernel_basis"): "ratlinalg.rank",
    ("kronlab.ratlinalg", "mat_mul"): "ratlinalg.products",
    ("kronlab.ratlinalg", "mat_kron"): "ratlinalg.products",
    ("kronlab.protocol", "witness_spaces"): "protocol.witness_spaces",
    ("kronlab.protocol", "run_verifier"): "protocol.verifier",
    ("kronlab.protocol", "acceptance_probability"): "protocol.verifier",
    ("kronlab.protocol", "weak_fourier_sample"): "protocol.verifier",
    ("kronlab.protocol", "gpe_accept_probability"): "protocol.verifier",
    ("kronlab.protocol", "sample_witness"): "protocol.witness_sample",
    ("kronlab.protocol", "sample_accepting_witness"): "protocol.witness_sample",
    ("kronlab.protocol", "sample_rejecting_witness"): "protocol.witness_sample",
    ("kronlab.cli", "main"): "cli.main",
}

# (module, function) -> counter incremented once per call; each is also in SPANS
CALL_COUNTS = {
    ("kronlab.characters", "character_table"): "characters.table_calls",
    ("kronlab.permutations", "enumerate_subgroup"): "permutations.enumerate_calls",
    ("kronlab.permutations", "all_perms"): "permutations.enumerate_calls",
    ("kronlab.permutations", "cycle_type_census"): "permutations.enumerate_calls",
    ("kronlab.projectors", "pipeline_trace_dense"): "projectors.dense_calls",
}

LAYERS = sorted(set(SPANS.values()) | {"cli.import"})
COUNTERS = sorted(
    set(CALL_COUNTS.values())
    | {"characters.disk_loads", "characters.computed", "projectors.statevector_terms"}
)

_STATEVECTOR = "projectors.statevector"


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTERS}
        self.spans: list[tuple[str, float, float, int]] = []  # layer, start, end, parent
        self._stack: list[list] = []  # [layer, start, child seconds, span id]
        self._computed_base = 0
        self.missing: list[str] = []

    # -- spans ----------------------------------------------------------

    def add_span(self, layer: str, start: float, end: float) -> None:
        """Record a span measured elsewhere, such as process start up to
        the end of `import kronlab`, as a top-level span."""
        self.spans.append((layer, start, end, -1))
        self.self_s[layer] += end - start

    def _wrap(self, fn, layer, counter):
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        counts = self.counts
        statevector = layer == _STATEVECTOR

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            outer_sv = statevector and not any(f[0] == _STATEVECTOR for f in stack)
            span_id = len(spans)
            spans.append(None)
            frame = [layer, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_s[layer] += duration - frame[2]
                parent = stack[-1][3] if stack else -1
                if stack:
                    stack[-1][2] += duration
                spans[span_id] = (layer, frame[1], end, parent)
            if outer_sv:
                state = next(a for a in args if hasattr(a, "amps"))
                counts["projectors.statevector_terms"] += len(state.amps) + len(result.amps)
            return result

        return wrapper

    def _count_only(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions in every loaded kronlab module."""
        import kronlab.cli  # noqa: F401  (loads every module that binds a traced name)

        modules = [m for name, m in sys.modules.items() if name == "kronlab" or name.startswith("kronlab.")]
        for (modname, attr), layer in sorted(SPANS.items()):
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(original, layer, CALL_COUNTS.get((modname, attr)))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)
        characters = sys.modules["kronlab.characters"]
        table_cls = getattr(characters, "CharacterTable", None)
        if table_cls is not None and hasattr(table_cls, "from_json"):
            # a disk load is a table rebuilt from its JSON file
            table_cls.from_json = staticmethod(
                self._count_only(table_cls.from_json, "characters.disk_loads")
            )
        else:
            self.missing.append("kronlab.characters.CharacterTable.from_json")
        if not hasattr(getattr(characters, "_compute_table", None), "cache_info"):
            self.missing.append("kronlab.characters._compute_table.cache_info")
        self._computed_base = self._tables_computed()
        if self.missing:
            print("trace: not found, left unwrapped: " + ", ".join(self.missing), file=sys.stderr)

    @staticmethod
    def _tables_computed() -> int:
        """Character tables computed from scratch so far: misses of the
        memo in front of the Murnaghan-Nakayama table build."""
        compute = getattr(sys.modules["kronlab.characters"], "_compute_table", None)
        info = getattr(compute, "cache_info", None)
        return info().misses if info is not None else 0

    # -- results --------------------------------------------------------

    def result(self) -> dict:
        counts = dict(self.counts)
        counts["characters.computed"] = self._tables_computed() - self._computed_base
        return {"self_s": dict(self.self_s), "counts": counts, "spans": len(self.spans)}

    def write_spans(self, path, mode: str = "w") -> None:
        """One JSON line per span; `parent` indexes this process's spans."""
        pid = os.getpid()
        with open(path, mode) as fh:
            for layer, start, end, parent in self.spans:
                span = {"pid": pid, "layer": layer, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(span) + "\n")


def merge(results: list[dict]) -> dict:
    """Sum the self times and counts of several traced processes."""
    out = {"self_s": {layer: 0.0 for layer in LAYERS}, "counts": {c: 0 for c in COUNTERS}, "spans": 0}
    for r in results:
        for k, v in r["self_s"].items():
            out["self_s"][k] += v
        for k, v in r["counts"].items():
            out["counts"][k] += v
        out["spans"] += r["spans"]
    return out

"""What each route reads.  Each route runs once under sys.setprofile, and
the kronlab functions it enters are recorded.  Routes that cross-check
one another must not share the code whose correctness they check; these
assertions keep that design rule from being only prose."""

import random
import sys
from collections import Counter

import pytest
from helpers import basis_state

from kronlab import protocol
from kronlab.oracles import kron_char, kron_invariant_def, pleth_wreath
from kronlab.permutations import class_census, cycle_type_census, full_group, young_subgroup
from kronlab.projectors import (
    _centraliser,
    _factor_contraction,
    _left_census,
    _member_vector,
    _shifted_class_counts,
    _stage_kernel,
    StateVector,
    _trace_orbits,
    apply_pipeline,
    kron_pipeline,
    perm_index,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
    pleth_pipeline,
    truncated_kron_pipeline,
)
from kronlab.protocol import run_verifier, sample_witness, witness_spaces
from kronlab.ratlinalg import rref_kernel

TRIPLE = ((2, 1), (2, 1), (2, 1))


def calls(fn, *args) -> Counter[tuple[str, str]]:
    """How often fn(*args) enters each kronlab function, by (module, name);
    a method's name is prefixed with the class of its self."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("kronlab."):
                name = frame.f_code.co_name
                if frame.f_code.co_varnames[:1] == ("self",):
                    name = f"{type(frame.f_locals['self']).__name__}.{name}"
                seen[module.removeprefix("kronlab."), name] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


def reached(fn, *args) -> set[tuple[str, str]]:
    """(module, function) of every kronlab function fn(*args) enters."""
    return {(module, name.rpartition(".")[2]) for module, name in calls(fn, *args)}


@pytest.fixture(autouse=True)
def cold_route_caches():
    """Memoised steps are entered only when they compute; clear them so
    each route reaches everything it would read on a first call."""
    for cached in (
        _left_census,
        _factor_contraction,
        _shifted_class_counts,
        _stage_kernel,
        _centraliser,
        _trace_orbits,
        _member_vector,
        perm_index,
        cycle_type_census,
    ):
        cached.cache_clear()


@pytest.mark.parametrize("pipeline", [kron_pipeline(*TRIPLE), pleth_pipeline(2, 2, (2, 2))])
def test_collapsed_counts_groups_by_closed_forms(pipeline):
    seen = reached(pipeline_trace_collapsed, pipeline)
    assert ("permutations", "class_census") in seen
    assert ("permutations", "enumerate_subgroup") not in seen
    assert ("permutations", "cycle_type_census") not in seen
    assert ("characters", "character_table") in seen


@pytest.mark.parametrize("pipeline", [kron_pipeline(*TRIPLE), pleth_pipeline(2, 2, (2, 2))])
def test_warm_collapsed_reads_no_table(pipeline):
    # the memoised factor contractions read the table once; a warm call
    # keys them by class and enters nothing in characters
    pipeline_trace_collapsed(pipeline)
    seen = reached(pipeline_trace_collapsed, pipeline)
    assert not {name for module, name in seen if module == "characters"}


@pytest.mark.parametrize("oracle, args", [(kron_char, TRIPLE), (pleth_wreath, (2, 2, (2, 2)))], ids=["kron_char", "pleth_wreath"])
def test_character_oracles_read_the_table_on_every_call(oracle, args):
    # a file rewritten between two calls is seen by the next one
    seen = calls(lambda: [oracle(*args) for _ in range(3)])
    assert seen["characters", "character_table"] == 3


def test_warm_kron_row_validates_each_partition_once():
    # one `verify kron-all` row at n = 8 with its memos warm: the pipeline
    # and the oracle each check the triple once (13 checks when every
    # stage and group validated its shape again), and the class sum reads
    # three table rows, not 3 p(n) values one lookup at a time
    triple = ((4, 2, 1, 1), (3, 3, 2), (5, 2, 1))

    def row():
        kron_char(*triple)
        pipeline_trace_collapsed(kron_pipeline(*triple))

    row()
    seen = calls(row)
    assert seen["partitions", "check_partition"] <= 6
    assert seen["characters", "CharacterTable.chi"] == 0
    assert seen["characters", "character_table"] == 1


@pytest.mark.parametrize("group", [full_group(8), young_subgroup((4, 3, 1))], ids=lambda g: g.label())
def test_closed_form_census_enumerates_nothing(group):
    seen = reached(class_census, group)
    assert ("permutations", "enumerate_subgroup") not in seen
    assert ("permutations", "all_perms") not in seen


def test_wreath_oracle_enumerates():
    seen = reached(pleth_wreath, 2, 2, (2, 2))
    assert {("permutations", "cycle_type_census"), ("permutations", "enumerate_subgroup")} <= seen
    assert ("permutations", "class_census") not in seen


def test_specht_route_reads_no_characters():
    seen = reached(kron_invariant_def, *TRIPLE)
    assert not {name for module, name in seen if module == "characters"}
    assert ("ratlinalg", "echelon") in seen
    assert ("permutations", "enumerate_subgroup") not in seen


def test_state_vectors_and_dense_trace_share_the_batch_engine():
    p = kron_pipeline(*TRIPLE)
    state = basis_state(3, ((1, 2, 3), (2, 1, 3), (3, 1, 2)))
    assert ("projectors", "apply_stages") in reached(apply_pipeline, p, state)
    assert ("projectors", "apply_stages") in reached(pipeline_trace_dense, p)


def test_sequential_verifier_runs_one_batch():
    # every outcome of every stage is read off one evaluator's limb batch;
    # no post-measurement state goes back into the sparse format
    p = kron_pipeline(*TRIPLE)
    ws = witness_spaces(p)
    w = sample_witness(ws, "accept", 1).plus(sample_witness(ws, "reject", 2))
    seen = calls(run_verifier, p, w, "exact")
    assert seen["projectors", "BatchEvaluator.__init__"] == 1
    assert seen["projectors", "StateVector.__post_init__"] == 0


@pytest.mark.parametrize("seed", [0, 7])
def test_rejecting_witness_builds_no_basis(seed):
    # a witness of either side is summed from the echelon rows: the one
    # StateVector made is the one returned, and every call still runs the
    # evaluator and the span check
    p = kron_pipeline(*TRIPLE)
    seen = calls(lambda: [sample_witness(witness_spaces(p), which, seed) for which in ("accept", "reject")])
    assert seen["projectors", "StateVector.__post_init__"] == 2
    assert seen["projectors", "BatchEvaluator.apply"] == 2
    assert seen["protocol", "_image_rows"] == 2


def test_rejecting_basis_is_rref_kernel_read_on_first_use():
    p = kron_pipeline(*TRIPLE)
    ws = witness_spaces(p)
    assert "rejecting_basis" not in vars(ws) and "accepting_basis" not in vars(ws)
    kernel, den = rref_kernel(ws.rows, ws.pivots, p.dim)
    assert ws.rejecting_basis == [StateVector(p.n, p.k, vec, den) for vec in kernel]
    assert ws.rejecting_basis is ws.rejecting_basis
    assert ws.dim_reject == len(ws.rejecting_basis) == p.dim - ws.dim_accept


def test_certain_monte_carlo_seeds_no_generator(monkeypatch):
    # an accepting witness passes every stage with probability 1, so no
    # shot needs a draw; a witness with a fractional stage draws per shot
    p = kron_pipeline(*TRIPLE)
    ws = witness_spaces(p)
    made, real = [], random.Random
    monkeypatch.setattr(protocol.random, "Random", lambda seed: made.append(seed) or real(seed))
    accept = sample_witness(ws, "accept", 1)
    mixed = accept.plus(sample_witness(ws, "reject", 2))
    made.clear()
    run = run_verifier(p, accept, "monte_carlo", seed=3, shots=50)
    assert (run.accepts, made) == (50, [])
    run_verifier(p, mixed, "monte_carlo", seed=3, shots=50)
    assert len(made) == 50


def test_single_shot_reads_no_spine():
    # single-shot applies the composed operator; it must stay a second
    # route beside the sequential verifier, not a reading of its spine
    p = kron_pipeline(*TRIPLE)
    ws = witness_spaces(p)
    w = sample_witness(ws, "accept", 1).plus(sample_witness(ws, "reject", 2))
    seen = calls(run_verifier, p, w, "single_shot")
    assert seen["protocol", "_branch_distribution"] == 0
    assert seen["projectors", "BatchEvaluator.apply"] == 1


@pytest.mark.parametrize(
    "pipeline",
    [kron_pipeline(*TRIPLE), truncated_kron_pipeline(*TRIPLE), pleth_pipeline(2, 2, (2, 2))],
    ids=["kron", "truncated", "pleth"],
)
def test_dense_borrows_nothing_from_collapsed(pipeline):
    # dense simulates the stages in order; the class counts, factor
    # contractions and censuses are the collapsed route's own
    seen = reached(pipeline_trace_dense, pipeline)
    for name in ("_shifted_class_counts", "_factor_contraction", "_left_census"):
        assert ("projectors", name) not in seen
    assert ("permutations", "class_census") not in seen


def test_dense_finds_the_wreath_symmetry_from_member_vectors():
    # the plethysm's block Young and block-permutation averages compose to
    # the S_2 wr S_2 average; the dense trace finds that symmetry from the
    # stages' member vectors, not from the collapsed route's template table
    seen = reached(pipeline_trace_dense, pleth_pipeline(2, 2, (2, 2)))
    assert {("projectors", "_centraliser"), ("projectors", "_member_vector")} <= seen
    for module, name in (
        ("permutations", "wreath_product"),
        ("permutations", "class_census"),
        ("projectors", "_left_census"),
    ):
        assert (module, name) not in seen


def test_shared_reads():
    # char, dense and collapsed read one character table; dense and
    # collapsed classify permutations with one vectorised helper
    char = reached(kron_char, *TRIPLE)
    dense = reached(pipeline_trace_dense, kron_pipeline(*TRIPLE))
    collapsed = reached(pipeline_trace_collapsed, kron_pipeline(*TRIPLE))
    for seen in (char, dense, collapsed):
        assert ("characters", "character_table") in seen
    assert ("permutations", "class_indices") in dense & collapsed
    assert ("permutations", "enumerate_subgroup") not in char
    assert ("permutations", "class_census") not in char | dense
    assert ("ratlinalg", "echelon") in reached(witness_spaces, kron_pipeline(*TRIPLE))

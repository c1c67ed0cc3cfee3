"""What each route reads.  Each route runs once under sys.setprofile, and
the kronlab functions it enters are recorded.  Routes that cross-check
one another must not share the code whose correctness they check; these
assertions keep that design rule from being only prose."""

import sys

import pytest
from helpers import basis_state

from kronlab.oracles import kron_char, kron_invariant_def, pleth_wreath
from kronlab.permutations import cycle_type_census
from kronlab.projectors import (
    _centraliser,
    _factor_contraction,
    _left_census,
    _member_vector,
    _shifted_class_counts,
    _stage_kernel_cached,
    _trace_orbits,
    apply_pipeline,
    kron_pipeline,
    perm_index,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
    pleth_pipeline,
    truncated_kron_pipeline,
)
from kronlab.protocol import witness_spaces

TRIPLE = ((2, 1), (2, 1), (2, 1))


def reached(fn, *args) -> set[tuple[str, str]]:
    """(module, function) of every kronlab function fn(*args) enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("kronlab."):
                seen.add((module.removeprefix("kronlab."), frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


@pytest.fixture(autouse=True)
def cold_route_caches():
    """Memoised steps are entered only when they compute; clear them so
    each route reaches everything it would read on a first call."""
    for cached in (
        _left_census,
        _factor_contraction,
        _shifted_class_counts,
        _stage_kernel_cached,
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


def test_wreath_oracle_enumerates():
    seen = reached(pleth_wreath, 2, 2, (2, 2))
    assert ("permutations", "cycle_type_census") in seen
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

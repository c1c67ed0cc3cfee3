"""kronlab: exact Kronecker and plethysm coefficients, two independent ways.

Classical character-theoretic oracles on one side; on the other, an
exact simulation of the commuting-projector measurement pipelines whose
image dimensions equal the same coefficients, together with the
accept/reject verifier semantics built on top of them.
"""

__version__ = "0.1.0"

from .errors import BoundExceededError, ConsistencyError, InputError, KronlabError
from .partitions import (
    decode_diagram,
    encode_diagram,
    enumerate_partitions,
    enumerate_syt,
    hook_dimension,
    is_horizontal_strip,
    kostka,
    schur_dim_gl,
    transpose,
)
from .permutations import (
    block_permutations,
    class_size,
    centralizer_order,
    compose,
    cycle_type,
    decode_permutation,
    encode_permutation,
    enumerate_subgroup,
    full_group,
    inverse,
    wreath_embed,
    wreath_product,
    young_subgroup,
)
from .characters import CharacterTable, character_table, mn_character
from .specht import SpechtRep, build_seminormal, invariant_dim
from .oracles import (
    CoefficientResult,
    kron_char,
    kron_invariant_def,
    pleth_wreath,
    scaled_kron,
)
from .projectors import (
    DiagonalAverage,
    InvariantAverage,
    Isotypic,
    Pipeline,
    StateVector,
    apply_pipeline,
    check_projector_algebra,
    kron_pipeline,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
    pleth_pipeline,
    truncated_kron_trace,
)
from .protocol import (
    VerifierOutcome,
    WitnessSpaces,
    acceptance_probability,
    run_verifier,
    sample_accepting_witness,
    sample_rejecting_witness,
    sample_witness,
    witness_spaces,
)

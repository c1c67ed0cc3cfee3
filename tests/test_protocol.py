import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from groupsum_reference import reference_pipeline, state_of
from helpers import apply_isotypic, basis_state
from rref_reference import kernel, rref
from verifier_reference import gpe_accept_probability, reference_branch_distribution, weak_fourier_sample

from kronlab import projectors, protocol
from kronlab.errors import BoundExceededError, ConsistencyError, InputError
from kronlab.oracles import kron_char, pleth_wreath
from kronlab.partitions import enumerate_partitions
from kronlab.permutations import all_perms, full_group, identity, young_subgroup
from kronlab.projectors import (
    DiagonalAverage,
    InvariantAverage,
    Isotypic,
    Pipeline,
    StateVector,
    _FactorKernel,
    _OrbitKernel,
    apply_pipeline,
    kron_pipeline,
    pleth_pipeline,
)
from kronlab.protocol import (
    MonteCarloRun,
    _image_rows,
    acceptance_probability,
    run_verifier,
    sample_accepting_witness,
    sample_rejecting_witness,
    sample_witness,
    witness_spaces,
)
from kronlab.ratlinalg import echelon


class TestWeakFourierSampling:
    def test_identity_state_distribution(self):
        sv = basis_state(3, (identity(3),))
        probs = {lam: p for lam, p, _ in weak_fourier_sample(sv, 0)}
        assert probs == {
            (3,): Fraction(1, 6),
            (2, 1): Fraction(4, 6),
            (1, 1, 1): Fraction(1, 6),
        }

    def test_uniform_state_is_invariant(self):
        amps = {(p,): Fraction(1) for p in all_perms(3)}
        probs = {lam: p for lam, p, _ in weak_fourier_sample(state_of(3, 1, amps), 0)}
        assert probs[(3,)] == 1

    def test_already_isotypic_state(self):
        sv = apply_isotypic(basis_state(3, (identity(3),)), 0, (2, 1))
        probs = {lam: p for lam, p, _ in weak_fourier_sample(sv, 0)}
        assert probs[(2, 1)] == 1

    def test_zero_state_rejected(self):
        with pytest.raises(InputError):
            weak_fourier_sample(StateVector.zero(3, 1), 0)


class TestGeneralizedPhaseEstimation:
    def test_identity_basis_state(self):
        sv = basis_state(3, (identity(3),))
        stage = InvariantAverage(0, "L", full_group(3))
        p, accept, reject = gpe_accept_probability(sv, stage)
        assert p == Fraction(1, 6)
        assert accept.plus(reject).amps == sv.amps

    def test_invariant_state_accepts_surely(self):
        amps = {(p,): Fraction(1) for p in all_perms(3)}
        stage = InvariantAverage(0, "L", full_group(3))
        p, _, reject = gpe_accept_probability(state_of(3, 1, amps), stage)
        assert p == 1 and reject.is_zero()

    def test_complement_state_rejects_surely(self):
        sv = state_of(
            3,
            1,
            {(identity(3),): Fraction(1), ((2, 1, 3),): Fraction(-1)},
        )
        stage = InvariantAverage(0, "L", full_group(3))
        p, accept, _ = gpe_accept_probability(sv, stage)
        assert p == 0 and accept.is_zero()

    def test_average_of_another_degree_refused(self):
        # an S_2 average on an S_3 state gave acceptance probability 1/2
        stage = InvariantAverage(0, "L", young_subgroup((2,)))
        with pytest.raises(InputError):
            gpe_accept_probability(StateVector(3, 1, {0: 1}), stage)


# witness spaces of rank 4, 9, 6 and 4; every Kronecker coefficient at n <= 3
# is at most 1
RANK_ABOVE_ONE = [
    Pipeline(3, 1, (Isotypic(0, (2, 1)),), "iso (2,1)"),
    Pipeline(4, 1, (Isotypic(0, (3, 1)),), "iso (3,1)"),
    Pipeline(4, 1, (Isotypic(0, (3, 1)), InvariantAverage(0, "R", young_subgroup((2, 1, 1)))), "iso (3,1), R avg"),
    Pipeline(3, 2, (Isotypic(0, (2, 1)), Isotypic(1, (2, 1)), DiagonalAverage()), "iso (2,1)^2, diag avg"),
]


class TestWitnessSpaces:
    def test_dimensions_match_oracle_n3(self):
        parts = enumerate_partitions(3)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    p = kron_pipeline(lam, mu, nu)
                    ws = witness_spaces(p)
                    assert ws.dim_accept == kron_char(lam, mu, nu).value
                    assert ws.dim_accept + ws.dim_reject == 216

    def test_bases_sparse_and_orthogonal_n3(self):
        # a kernel vector is its free column plus at most one entry per
        # pivot; im(E) is orthogonal to ker(E) since E is symmetric
        for triple in itertools.product(enumerate_partitions(3), repeat=3):
            ws = witness_spaces(kron_pipeline(*triple))
            assert all(len(w.nums) <= ws.dim_accept + 1 for w in ws.rejecting_basis)
            for v in ws.accepting_basis:
                assert all(v.inner(w) == 0 for w in ws.rejecting_basis)

    def test_basis_vectors_are_exact_eigenvectors(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        for v in ws.accepting_basis:
            assert apply_pipeline(p, v).amps == v.amps
        for w in ws.rejecting_basis[:20]:
            assert apply_pipeline(p, w).is_zero()

    @pytest.mark.parametrize(
        "p",
        [kron_pipeline(*t) for t in itertools.product(enumerate_partitions(2), repeat=3)]
        + [kron_pipeline((2, 1), (2, 1), (2, 1)), *RANK_ABOVE_ONE],
        ids=[f"triple{i}" for i in range(9)] + ["iso-3", "iso-4", "iso-4-young", "two-factor-3"],
    )
    def test_bases_match_reference_rref(self, p):
        # the operator from the group-sum reference, reduced by the Fraction RREF
        keys = list(itertools.product(all_perms(p.n), repeat=p.k))  # flat basis order
        columns = [reference_pipeline(p, {key: Fraction(1)}) for key in keys]
        reduced, pivots = rref([[col.get(key, 0) for key in keys] for col in columns])

        def states(vectors):
            return [{key: x for key, x in zip(keys, vec) if x} for vec in vectors]

        ws = witness_spaces(p)
        assert [v.amps for v in ws.accepting_basis] == states(reduced[: len(pivots)])
        assert [v.amps for v in ws.rejecting_basis] == states(kernel(reduced, pivots, p.dim))

    def test_empty_accepting_space(self):
        p = kron_pipeline((2, 1), (3,), (3,))
        ws = witness_spaces(p)
        assert ws.dim_accept == 0
        with pytest.raises(InputError):
            sample_witness(ws, "accept", seed=0)

    def test_pleth_spaces(self):
        for lam in enumerate_partitions(4):
            p = pleth_pipeline(2, 2, lam)
            ws = witness_spaces(p)
            assert ws.dim_accept == pleth_wreath(2, 2, lam).value
            assert ws.dim_accept + ws.dim_reject == 24

    def test_bound(self):
        p = kron_pipeline((2, 1, 1), (2, 1, 1), (2, 1, 1))
        with pytest.raises(BoundExceededError):
            witness_spaces(p)  # 13824 > default dense reduction limit


class TestWitnessSpaceDrift:
    """witness_spaces reduces an edited copy of the operator's integer
    array; every edit below leaves the rank unequal to trace / den, or the
    trace non-integral, and must be refused."""

    P = RANK_ABOVE_ONE[0]  # dim 6, den 6, rank 4; rows 0-3 are independent
    BIG = 2**40 + 1  # BIG * BIG overflows int64

    def _drift(self, monkeypatch, change):
        exact = projectors._exact_int_array

        def drifted(x):
            columns = exact(x)
            change(columns)
            return columns

        monkeypatch.setattr(projectors, "_exact_int_array", drifted)

    def test_extra_row_after_the_first_r(self, monkeypatch):
        # the scan holds rank 4 after rows 0-3 and never reduces row 5
        def change(c):
            assert len(echelon(c[:4].tolist())) == 4
            c[5, 0] += 6  # off the diagonal: the trace stays 4 * den
            assert len(echelon(c.tolist())) == 5

        self._drift(monkeypatch, change)
        with pytest.raises(ConsistencyError, match="rank > trace 4"):
            witness_spaces(self.P)

    def test_rank_below_trace(self, monkeypatch):
        def change(c):
            c[0, 0] = c.trace()
            c[1:] = 0
            assert len(echelon(c.tolist())) == 1

        self._drift(monkeypatch, change)
        with pytest.raises(ConsistencyError, match="rank 1 < trace 4"):
            witness_spaces(self.P)

    def test_non_integral_trace(self, monkeypatch):
        def change(c):
            c[0, 0] += 1

        self._drift(monkeypatch, change)
        with pytest.raises(ConsistencyError, match="not integral"):
            witness_spaces(self.P)

    def test_extra_row_with_large_entries(self, monkeypatch):
        # a held row and the extra row carry BIG, so the span test's
        # products need Python ints
        def change(c):
            c[0, 1] += self.BIG
            c[5, 0] += self.BIG
            assert len(echelon(c.tolist())) > 4

        self._drift(monkeypatch, change)
        with pytest.raises(ConsistencyError, match="rank > trace 4"):
            witness_spaces(self.P)

    def test_large_entries_in_the_span(self):
        inside = np.array([[self.BIG, 1], [2 * self.BIG, 2]])
        rows, pivots = _image_rows(inside, 1)
        assert rows == [[self.BIG, 1]] and pivots == [0]
        # row 1 misses the span of row 0 by 2**64, which int64 would wrap to 0
        with pytest.raises(ConsistencyError, match="rank > trace 1"):
            _image_rows(np.array([[2**32, 1], [0, 2**32]]), 1)
        # here each of the four products 2**62 fits in int64 but their sum does not
        held = np.hstack([np.eye(4, dtype=np.int64), np.full((4, 1), 2**31)])
        with pytest.raises(ConsistencyError, match="rank > trace 4"):
            _image_rows(np.vstack([held, [2**31] * 4 + [0]]), 4)


class TestVerifierRuns:
    def _spaces(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        return p, witness_spaces(p)

    def test_perfect_completeness(self):
        p, ws = self._spaces()
        for seed in range(6):
            w = sample_witness(ws, "accept", seed)
            assert acceptance_probability(p, w) == 1
            branches = run_verifier(p, w, "exact")
            accept = [b for b in branches if b.verdict == "accept"]
            assert len(accept) == 1 and accept[0].probability == 1

    def test_perfect_soundness(self):
        p, ws = self._spaces()
        for seed in range(6):
            w = sample_witness(ws, "reject", seed)
            assert acceptance_probability(p, w) == 0
            branches = run_verifier(p, w, "exact")
            assert all(b.verdict == "reject" for b in branches)

    def test_branch_probabilities_sum_to_one(self):
        p, ws = self._spaces()
        for seed in range(4):
            w = sample_witness(ws, "reject", seed).plus(sample_witness(ws, "accept", seed))
            branches = run_verifier(p, w, "exact")
            assert sum((b.probability for b in branches), Fraction(0)) == 1

    def test_mixture_probability(self):
        p, ws = self._spaces()
        a = sample_witness(ws, "accept", 1)
        r = sample_witness(ws, "reject", 2)
        mix = a.plus(r)
        expected = a.norm_sq() / (a.norm_sq() + r.norm_sq())
        assert acceptance_probability(p, mix) == expected

    def test_sequential_equals_single_shot(self):
        p, ws = self._spaces()
        for seed in range(5):
            w = sample_witness(ws, "accept", seed).plus(sample_witness(ws, "reject", seed + 50))
            branches = run_verifier(p, w, "exact")
            total = sum(
                (b.probability for b in branches if b.verdict == "accept"), Fraction(0)
            )
            assert total == run_verifier(p, w, "single_shot")

    def test_acceptance_invariant_under_stage_reordering(self):
        import random as rnd

        p, ws = self._spaces()
        w = sample_witness(ws, "accept", 3).plus(sample_witness(ws, "reject", 4))
        base = acceptance_probability(p, w)
        rng = rnd.Random(0)
        for _ in range(4):
            order = list(p.stages)
            rng.shuffle(order)
            shuffled = Pipeline(p.n, p.k, tuple(order), p.label + "-shuffled")
            assert acceptance_probability(shuffled, w) == base

    def test_zero_witness_rejected(self):
        p, _ = self._spaces()
        with pytest.raises(InputError):
            run_verifier(p, StateVector.zero(3, 3), "exact")

    def test_unknown_mode_refused_before_any_branch(self, monkeypatch):
        # the mode was checked only after the whole exact branch
        # distribution had been computed
        def refuse(*args):
            raise AssertionError("the branch distribution was computed")

        monkeypatch.setattr(protocol, "_branch_distribution", refuse)
        p, ws = self._spaces()
        with pytest.raises(InputError, match="unknown mode 'exakt'"):
            run_verifier(p, sample_witness(ws, "accept", 0), "exakt")

    @pytest.mark.parametrize("mode", ["exact", "single_shot", "monte_carlo"])
    def test_witness_of_another_degree_refused(self, mode):
        # exact and monte_carlo gave two reject branches and accepts=0
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        with pytest.raises(InputError, match=r"acts on \(n, k\) = \(3, 3\), not \(2, 3\)"):
            run_verifier(p, StateVector(2, 3, {0: 1}), mode)

    @pytest.mark.parametrize("index", [-1, 216])
    def test_basis_index_outside_the_space_refused(self, index):
        # numpy would wrap -1 to the last flat index
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        with pytest.raises(InputError, match=r"outside range\(216\)"):
            run_verifier(p, StateVector(3, 3, {index: 1}), "exact")


def _assert_matches_reference(p, w):
    """exact and monte_carlo equal the per-stage StateVector verifier."""
    branches, spine, p_accept = reference_branch_distribution(p, w)
    assert repr(run_verifier(p, w, "exact")) == repr(branches)
    mc = run_verifier(p, w, "monte_carlo", seed=5, shots=40)
    assert mc == protocol._monte_carlo(spine, p_accept, 5, 40)


class TestAgainstReference:
    @pytest.mark.parametrize("triple", list(itertools.product(enumerate_partitions(3), repeat=3)), ids=str)
    def test_every_n3_triple(self, triple):
        p = kron_pipeline(*triple)
        ws = witness_spaces(p)
        r = sample_witness(ws, "reject", 2)
        witnesses = [r]
        if ws.accepting_basis:
            a = sample_witness(ws, "accept", 1)
            witnesses += [a, a.plus(r)]
        for w in witnesses:
            _assert_matches_reference(p, w)

    @pytest.mark.parametrize("lam", enumerate_partitions(6), ids=str)
    def test_plethysm_with_large_numerators(self, lam):
        # below 2^24 one limb holds them, but squared norms overflow int64;
        # near 2^70 they take three limbs
        p = pleth_pipeline(2, 3, lam)
        rng = random.Random(len(lam))
        for bits in (24, 70):
            nums = {c: rng.randint(-(1 << bits), 1 << bits) for c in rng.sample(range(p.dim), 24)}
            _assert_matches_reference(p, StateVector(6, 1, nums, 7))

    def test_limbs_narrow_enough_for_every_outcome(self):
        # limbs sized for the target (6,) alone, whose kernel has l1 norm 720,
        # could reach 2^43; a witness of such entries signed like the (5,1)
        # element (l1 norm 2650) would take that outcome's image past 2^53
        p = Pipeline(6, 1, (Isotypic(0, (6,)),), "isotypic(6)")
        signs = np.sign(projectors._stage_kernel(6, Isotypic(0, (5, 1)), 1).values).tolist()
        w = StateVector(6, 1, {g: (s or 1) * ((1 << 43) - 1) for g, s in enumerate(signs)})
        _assert_matches_reference(p, w)

    def test_cut_short_witness(self):
        # its target outcome at factor 0 has probability 0
        w = apply_isotypic(basis_state(3, (identity(3),) * 3), 0, (3,))
        _assert_matches_reference(kron_pipeline((2, 1), (2, 1), (2, 1)), w)

    def test_sampled_n4_witness(self):
        p = kron_pipeline((3, 1), (3, 1), (2, 2))
        w = sample_accepting_witness(p, 1)
        _assert_matches_reference(p, w)
        _assert_matches_reference(p, w.plus(StateVector(4, 3, {0: (1 << 70) + 1, p.dim - 1: -3})))


class TestVerifierDrift:
    """exact mode refuses a drifted outcome kernel or batch."""

    P = kron_pipeline((2, 1), (2, 1), (2, 1))

    @pytest.mark.parametrize("shape", enumerate_partitions(3), ids=str)
    def test_outcome_kernel_off_by_one(self, monkeypatch, shape):
        stage_kernel = protocol._stage_kernel

        def off_by_one(n, stage, k):
            kern = stage_kernel(n, stage, k)
            if stage != Isotypic(0, shape):
                return kern
            values = kern.values.astype(np.int64)
            values[0] += 1
            return _FactorKernel(kern.space, kern.factor, kern.side, values, kern.den)

        monkeypatch.setattr(protocol, "_stage_kernel", off_by_one)
        with pytest.raises(ConsistencyError, match="isotypic outcome probabilities sum to"):
            run_verifier(self.P, basis_state(3, (identity(3),) * 3), "exact")

    def test_non_integer_batch(self, monkeypatch):
        # the diagonal average's image is off the integers by 1/2
        w = sample_witness(witness_spaces(self.P), "accept", 0)
        apply = _OrbitKernel.apply
        monkeypatch.setattr(_OrbitKernel, "apply", lambda self, x, k, nf: apply(self, x, k, nf) + 0.5)
        with pytest.raises(ConsistencyError, match="drifted off the integers"):
            run_verifier(self.P, w, "exact")


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "witness, p_accept, accepts",
        [
            ("accept", Fraction(1), [300, 300, 300]),
            ("reject", Fraction(0), [0, 0, 0]),
            ("cut short", Fraction(0), [0, 0, 0]),
            ("mixed", Fraction(10800, 39089), [83, 85, 77]),
        ],
    )
    def test_accept_counts_pinned(self, witness, p_accept, accepts):
        # the per-shot seeds fix every draw, so the counts at seeds 0, 1, 2
        # are fixed too; "cut short" lies in another isotypic component of
        # factor 0, so its spine ends at the first stage
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        acc, rej = sample_witness(ws, "accept", 1), sample_witness(ws, "reject", 2)
        w = {
            "accept": acc,
            "reject": rej,
            "cut short": apply_isotypic(basis_state(3, (identity(3),) * 3), 0, (3,)),
            "mixed": acc.plus(rej),
        }[witness]
        runs = [run_verifier(p, w, "monte_carlo", seed=s, shots=300) for s in (0, 1, 2)]
        assert [r.p_accept_exact for r in runs] == [p_accept] * 3
        assert [r.accepts for r in runs] == accepts

    def test_accepting_witness_always_accepts(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        w = sample_witness(ws, "accept", 0)
        mc = run_verifier(p, w, "monte_carlo", seed=5, shots=500)
        assert isinstance(mc, MonteCarloRun)
        assert mc.accepts == 500

    def test_rejecting_witness_never_accepts(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        w = sample_witness(ws, "reject", 0)
        mc = run_verifier(p, w, "monte_carlo", seed=5, shots=500)
        assert mc.accepts == 0

    def test_frequency_within_four_sigma(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        mix = sample_witness(ws, "accept", 1).plus(sample_witness(ws, "reject", 2))
        mc = run_verifier(p, mix, "monte_carlo", seed=11, shots=10_000)
        p_exact = float(mc.p_accept_exact)
        sigma = math.sqrt(p_exact * (1 - p_exact) / mc.shots)
        assert abs(mc.accepts / mc.shots - p_exact) <= 4 * sigma

    def test_seed_reproducibility(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        mix = sample_witness(ws, "accept", 1).plus(sample_witness(ws, "reject", 2))
        a = run_verifier(p, mix, "monte_carlo", seed=3, shots=400)
        b = run_verifier(p, mix, "monte_carlo", seed=3, shots=400)
        c = run_verifier(p, mix, "monte_carlo", seed=4, shots=400)
        assert a.accepts == b.accepts
        assert (a.accepts, a.seed) != (c.accepts, c.seed) or a.accepts != c.accepts


class TestSampling:
    def test_sample_witness_deterministic(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        assert sample_witness(ws, "accept", 9).amps == sample_witness(ws, "accept", 9).amps

    def test_unique_ray_up_to_scale(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        assert ws.dim_accept == 1
        v = ws.accepting_basis[0]
        w = sample_witness(ws, "accept", 123)
        # proportional: w = c v for the single-ray space
        ratios = {w.amps[k] / v.amps[k] for k in v.amps}
        assert len(ratios) == 1

    def test_direct_samplers_on_large_pipeline(self):
        p = kron_pipeline((2, 1, 1), (2, 1, 1), (2, 1, 1))
        aw = sample_accepting_witness(p, seed=1)
        rw = sample_rejecting_witness(p, seed=2)
        assert acceptance_probability(p, aw) == 1
        assert acceptance_probability(p, rw) == 0

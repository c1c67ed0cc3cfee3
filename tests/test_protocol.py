import itertools
import math
from fractions import Fraction

import pytest
from groupsum_reference import reference_pipeline, state_of
from helpers import basis_state
from rref_reference import kernel, rref

from kronlab.errors import BoundExceededError, InputError
from kronlab.oracles import kron_char, pleth_wreath
from kronlab.partitions import enumerate_partitions
from kronlab.permutations import all_perms, full_group, identity
from kronlab.projectors import (
    InvariantAverage,
    Pipeline,
    StateVector,
    apply_isotypic,
    apply_pipeline,
    kron_pipeline,
    pleth_pipeline,
)
from kronlab.protocol import (
    MonteCarloRun,
    acceptance_probability,
    gpe_accept_probability,
    run_verifier,
    sample_accepting_witness,
    sample_rejecting_witness,
    sample_witness,
    weak_fourier_sample,
    witness_spaces,
)


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
        from kronlab.projectors import apply_isotypic

        sv = apply_isotypic(basis_state(3, (identity(3),)), 0, (2, 1))
        probs = {lam: p for lam, p, _ in weak_fourier_sample(sv, 0)}
        assert probs[(2, 1)] == 1

    def test_zero_state_rejected(self):
        with pytest.raises(InputError):
            weak_fourier_sample(StateVector.zero(3, 1), 0)


class TestGeneralizedPhaseEstimation:
    def test_identity_basis_state(self):
        sv = basis_state(3, (identity(3),))
        stage = InvariantAverage(full_group(3), ((0, "L"),))
        p, accept, reject = gpe_accept_probability(sv, stage)
        assert p == Fraction(1, 6)
        assert accept.plus(reject).amps == sv.amps

    def test_invariant_state_accepts_surely(self):
        amps = {(p,): Fraction(1) for p in all_perms(3)}
        stage = InvariantAverage(full_group(3), ((0, "L"),))
        p, _, reject = gpe_accept_probability(state_of(3, 1, amps), stage)
        assert p == 1 and reject.is_zero()

    def test_complement_state_rejects_surely(self):
        sv = state_of(
            3,
            1,
            {(identity(3),): Fraction(1), ((2, 1, 3),): Fraction(-1)},
        )
        stage = InvariantAverage(full_group(3), ((0, "L"),))
        p, accept, _ = gpe_accept_probability(sv, stage)
        assert p == 0 and accept.is_zero()


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

    def test_basis_vectors_are_exact_eigenvectors(self):
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ws = witness_spaces(p)
        for v in ws.accepting_basis:
            assert apply_pipeline(p, v).amps == v.amps
        for w in ws.rejecting_basis[:20]:
            assert apply_pipeline(p, w).is_zero()

    @pytest.mark.parametrize(
        "triple",
        list(itertools.product(enumerate_partitions(2), repeat=3)) + [((2, 1),) * 3],
    )
    def test_bases_match_reference_rref(self, triple):
        # the operator from the group-sum reference, reduced by the Fraction RREF
        p = kron_pipeline(*triple)
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

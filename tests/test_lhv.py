import math

import numpy as np
import pytest

import fockopt as fo
from fockopt.bell import ALICE_RAILS, BOB_RAILS
from fockopt.errors import DegenerateAmplitude, InvalidCircuit, InvalidParameter, ShapeMismatch
from fockopt.lhv import _chi_square_p
from helpers import random_alpha, random_unitary

SQ2 = math.sqrt(2.0)


def readout_circuit(base):
    return base.extended([fo.Detector(m) for m in base.output_modes])


class TestSampleEpistemic:
    def test_degenerate_all_in_one_mode(self):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 2)
        rng = fo.shot_generator(1, 0)
        ontic = fo.sample_epistemic(spec, rng)
        assert tuple(ontic.counts) == (2, 0)
        assert abs(abs(ontic.amplitudes[0]) - 1.0) < 1e-12

    def test_balanced_multinomial(self):
        spec = fo.EpistemicSpec(np.array([1 / SQ2, 1 / SQ2]), 2)
        hits = 0
        shots = 20000
        for shot in range(shots):
            ontic = fo.sample_epistemic(spec, fo.shot_generator(2, shot))
            if tuple(ontic.counts) == (1, 1):
                hits += 1
        sigma = math.sqrt(shots * 0.5 * 0.5)
        assert abs(hits - 0.5 * shots) < 3 * sigma

    def test_count_means(self, rng):
        alpha = random_alpha(rng, 3)
        n = 4
        spec = fo.EpistemicSpec(alpha, n)
        shots = 20000
        totals = np.zeros(3)
        for shot in range(shots):
            totals += fo.sample_epistemic(spec, fo.shot_generator(3, shot)).counts
        for i in range(3):
            p = abs(alpha[i]) ** 2
            sigma = math.sqrt(shots * n * p * (1 - p) + 1e-12)
            assert abs(totals[i] - shots * n * p) < 3 * sigma + 1.0


class TestGates:
    def test_empty_pair_rotates_amplitudes_only(self, rng):
        v = random_unitary(rng, 2)
        ontic = fo.OnticState(np.array([1 / SQ2, 1 / SQ2, 0j]), np.array([0, 0, 3]))
        out = fo.lhv_beam_splitter(ontic, (0, 1), v, fo.shot_generator(4, 0))
        assert tuple(out.counts) == (0, 0, 3)
        np.testing.assert_allclose(
            out.amplitudes[:2], np.array([1 / SQ2, 1 / SQ2]) @ v, atol=1e-12
        )

    def test_balanced_split_binomial_mean(self):
        hits = []
        ontic = fo.OnticState(np.array([1.0 + 0j, 0j]), np.array([4, 0]))
        for shot in range(20000):
            out = fo.lhv_beam_splitter(
                ontic, (0, 1), fo.hadamard(), fo.shot_generator(5, shot)
            )
            assert out.counts.sum() == 4
            hits.append(out.counts[0])
        mean = np.mean(hits)
        sigma = math.sqrt(4 * 0.25 / len(hits))
        assert abs(mean - 2.0) < 3 * sigma

    def test_hadamard_from_reference_start(self):
        ontic = fo.OnticState(np.array([1.0 + 0j, 0j]), np.array([3, 0]))
        out = fo.lhv_beam_splitter(ontic, (0, 1), fo.hadamard(), fo.shot_generator(6, 0))
        np.testing.assert_allclose(np.abs(out.amplitudes), [1 / SQ2, 1 / SQ2], atol=1e-12)

    def test_phase_shifter_deterministic(self):
        ontic = fo.OnticState(np.array([1 / SQ2, 1 / SQ2]), np.array([1, 1]))
        out = fo.lhv_phase_shifter(ontic, 0, math.pi)
        assert abs(out.amplitudes[0] + 1 / SQ2) < 1e-12
        assert tuple(out.counts) == (1, 1)

    def test_detect_reads_count(self):
        ontic = fo.OnticState(np.array([1.0 + 0j, 0j]), np.array([2, 0]))
        assert fo.lhv_detect(ontic, 0) == 2
        assert fo.lhv_detect(ontic, 1) == 0

    def test_degenerate_amplitudes_fail_loudly(self):
        ontic = fo.OnticState(np.array([0j, 0j, 1.0 + 0j]), np.array([1, 0, 0]))
        with pytest.raises(DegenerateAmplitude):
            fo.lhv_beam_splitter(ontic, (0, 1), np.eye(2), fo.shot_generator(7, 0))


class TestRunExperiment:
    def test_hadamard_binomial_frequencies(self):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 2)
        circuit = readout_circuit(fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())]))
        run = fo.run_lhv_experiment(spec, circuit, 40000, seed=8)
        freq = run.frequencies()
        for occ, expected in (((2, 0), 0.25), ((1, 1), 0.5), ((0, 2), 0.25)):
            sigma = math.sqrt(expected * (1 - expected) / run.accepted)
            assert abs(freq[occ] - expected) < 3.5 * sigma

    def test_empty_circuit_is_multinomial(self, rng):
        alpha = random_alpha(rng, 3)
        spec = fo.EpistemicSpec(alpha, 2)
        circuit = readout_circuit(fo.Circuit(3))
        run = fo.run_lhv_experiment(spec, circuit, 30000, seed=9)
        dist = fo.detection_distribution(spec.quantum_state())
        for occ, p in dist.items():
            sigma = math.sqrt(p * (1 - p) / run.accepted) + 1e-9
            assert abs(run.frequencies().get(occ, 0.0) - p) < 4 * sigma

    def test_random_mesh_matches_quantum(self, rng):
        alpha = random_alpha(rng, 4)
        spec = fo.EpistemicSpec(alpha, 3)
        circuit = readout_circuit(fo.reck_decompose(random_unitary(rng, 4)))
        report = fo.compare_lhv_quantum(spec, circuit, shots=50000, seed=10)
        assert report.tv_distance < report.tv_bound
        assert report.passed

    def test_mode_count_mismatch(self, rng):
        spec = fo.EpistemicSpec(random_alpha(rng, 3), 2)
        with pytest.raises(ShapeMismatch):
            fo.run_lhv_experiment(spec, fo.Circuit(2), 10)


class TestInvariants:
    def test_particle_conservation_and_alpha_track(self, rng):
        alpha = random_alpha(rng, 4)
        u = random_unitary(rng, 4)
        spec = fo.EpistemicSpec(alpha, 3)
        mesh = fo.reck_decompose(u)
        target = fo.transform_alpha(alpha, fo.circuit_to_unitary(mesh))
        for shot in range(20):
            readings, ontic = fo.run_shot(spec, mesh, fo.shot_generator(11, shot))
            assert ontic.n_particles == 3
            assert abs(np.linalg.norm(ontic.amplitudes) - 1.0) < 1e-9
            assert fo.phase_distance(ontic.amplitudes, target) < 1e-9

    def test_same_seed_bit_identical(self, rng):
        spec = fo.EpistemicSpec(random_alpha(rng, 2), 2)
        circuit = readout_circuit(fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())]))
        r1 = fo.run_lhv_experiment(spec, circuit, 2000, seed=12)
        r2 = fo.run_lhv_experiment(spec, circuit, 2000, seed=12)
        assert r1.counts == r2.counts

    def test_shot_order_irrelevant(self, rng):
        # per-shot streams: accumulating in reverse gives the same tallies
        spec = fo.EpistemicSpec(random_alpha(rng, 2), 2)
        circuit = readout_circuit(fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())]))
        forward = fo.run_lhv_experiment(spec, circuit, 500, seed=13)
        tallies = {}
        for shot in reversed(range(500)):
            readings, _ = fo.run_shot(spec, circuit, fo.shot_generator(13, shot))
            key = tuple(readings[m] for m in circuit.readout_modes)
            tallies[key] = tallies.get(key, 0) + 1
        assert tallies == forward.counts


class TestComparison:
    def test_identity_circuit_exact(self):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 2)
        circuit = readout_circuit(fo.Circuit(2))
        report = fo.compare_lhv_quantum(spec, circuit, shots=2000, seed=14)
        assert report.tv_distance == 0.0
        assert report.chi2_p_value == 1.0
        assert report.passed

    def test_heralded_rejection_matches_quantum_rate(self, rng):
        alpha = random_alpha(rng, 2)
        spec = fo.EpistemicSpec(alpha, 3)
        circuit = fo.Circuit(
            2, [fo.BeamSplitter((0, 1), fo.hadamard()), fo.Detector(1, 1), fo.Detector(0)]
        )
        report = fo.compare_lhv_quantum(spec, circuit, shots=30000, seed=15)
        sigma = math.sqrt(report.quantum_herald * (1 - report.quantum_herald) / report.shots)
        assert abs(report.lhv_herald - report.quantum_herald) < 4 * sigma
        assert report.passed

    def test_ys_postselection_agreement(self, rng):
        # splitter stage plus one-particle-per-pair post-selection on a
        # reducible state: hidden-variable statistics stay quantum
        u1, u2 = random_alpha(rng, 2)
        spec = fo.EpistemicSpec(np.array([u1, u2, 0, 0]), 2)
        circuit = readout_circuit(fo.yurke_stoler_circuit())
        report = fo.compare_lhv_quantum(
            spec,
            circuit,
            shots=30000,
            seed=16,
            postselect=[(ALICE_RAILS, 1), (BOB_RAILS, 1)],
        )
        assert report.passed
        assert report.tv_distance < report.tv_bound

    @pytest.mark.parametrize("shots", [0, -3])
    def test_no_shots_rejected(self, rng, shots):
        spec = fo.EpistemicSpec(random_alpha(rng, 2), 2)
        with pytest.raises(InvalidParameter):
            fo.compare_lhv_quantum(spec, readout_circuit(fo.Circuit(2)), shots=shots)

    def test_no_accepted_shot_is_no_pass(self, rng):
        # a herald above the particle number rejects every shot on both sides
        spec = fo.EpistemicSpec(random_alpha(rng, 2), 2)
        circuit = fo.Circuit(2, [fo.Detector(1, 3), fo.Detector(0)])
        report = fo.compare_lhv_quantum(spec, circuit, shots=200, seed=18)
        assert report.accepted == 0
        assert not report.passed

    def test_tv_bound_at_most_one(self):
        # N=8 M=6 read out on every mode: 1287 outcomes over 20 000 shots
        report = fo.ComparisonReport(
            rows=[], tv_distance=0.1, chi2_p_value=0.5, n_outcomes=1287,
            shots=20000, accepted=20000, quantum_herald=1.0, lhv_herald=1.0, seed=0,
        )
        assert report.tv_bound == 1.0

    def test_report_formats(self, rng):
        spec = fo.EpistemicSpec(random_alpha(rng, 2), 2)
        circuit = readout_circuit(fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())]))
        report = fo.compare_lhv_quantum(spec, circuit, shots=1000, seed=17)
        table = report.to_table()
        assert "chi_square_p" in table and "outcome" in table
        csv = report.to_csv()
        assert csv.splitlines()[0] == "outcome,quantum_prob,lhv_freq,stderr,z_score"
        payload = report.to_json_dict()
        assert set(payload) >= {"tv_distance", "chi_square_p", "rows", "passed"}


class TestChiSquareHelper:
    def test_impossible_outcome_fails(self):
        assert _chi_square_p({(1,): 5}, {(0,): 1.0}, 5) == 0.0

    def test_degenerate_single_cell_passes(self):
        assert _chi_square_p({(0,): 100}, {(0,): 1.0}, 100) == 1.0

    def test_reasonable_p_for_fair_coin(self, rng):
        counts = {(0,): 5050, (1,): 4950}
        p = _chi_square_p(counts, {(0,): 0.5, (1,): 0.5}, 10000)
        assert 0.05 < p < 1.0

    def test_p_value_matches_scipy_stats(self, rng):
        from scipy import stats

        for _ in range(50):
            k = int(rng.integers(2, 9))
            # every cell expects at least 12 counts, so none is pooled
            probs = 1.0 + rng.random(k)
            probs /= probs.sum()
            total = int(rng.integers(200, 5000))
            counts = rng.multinomial(total, probs)
            p = _chi_square_p(
                {(i,): int(c) for i, c in enumerate(counts)},
                {(i,): float(q) for i, q in enumerate(probs)},
                total,
            )
            assert abs(p - stats.chisquare(counts, probs * total).pvalue) < 1e-12

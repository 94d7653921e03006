import math

import numpy as np
import pytest

import fockopt as fo
from fockopt.bell import ALICE_RAILS, BOB_RAILS
from fockopt.errors import DegenerateAmplitude, InvalidCircuit, InvalidParameter, ShapeMismatch
from fockopt.lhv import BLOCK, CODE_LIMIT, _chi2_sf, _chi_square_p, _row_codes, _run_block, _splits
from fockopt.tolerances import NORM_TOL
from helpers import (
    circuit_unitary,
    detection_distribution,
    lhv_count_law,
    oracle_lhv_counts,
    random_alpha,
    random_unitary,
)

SQ2 = math.sqrt(2.0)


def readout_circuit(base):
    return base.extended([fo.Detector(m) for m in base.output_modes])


class TestSampleEpistemic:
    def test_degenerate_all_in_one_mode(self):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 2)
        run = fo.run_lhv_experiment(spec, readout_circuit(fo.Circuit(2)), 1, seed=1)
        assert run.counts == {(2, 0): 1}

    def test_balanced_multinomial(self):
        spec = fo.EpistemicSpec(np.array([1 / SQ2, 1 / SQ2]), 2)
        shots = 20000
        run = fo.run_lhv_experiment(spec, readout_circuit(fo.Circuit(2)), shots, seed=2)
        hits = run.counts.get((1, 1), 0)
        sigma = math.sqrt(shots * 0.5 * 0.5)
        assert abs(hits - 0.5 * shots) < 3 * sigma

    def test_count_means(self, rng):
        alpha = random_alpha(rng, 3)
        n = 4
        spec = fo.EpistemicSpec(alpha, n)
        shots = 20000
        run = fo.run_lhv_experiment(spec, readout_circuit(fo.Circuit(3)), shots, seed=3)
        totals = sum(hits * np.array(occ) for occ, hits in run.counts.items())
        for i in range(3):
            p = abs(alpha[i]) ** 2
            sigma = math.sqrt(shots * n * p * (1 - p) + 1e-12)
            assert abs(totals[i] - shots * n * p) < 3 * sigma + 1.0


def hadamard_circuit():
    return readout_circuit(fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())]))


class TestGates:
    def test_empty_pair_rotates_amplitudes_only(self, rng):
        # the pair (0, 1) has weight 0: alpha is rotated, the counts are not
        # re-dealt, and its split record is not a 0/0
        v = random_unitary(rng, 2)
        spec = fo.EpistemicSpec(np.array([0, 0, 1.0]), 3)
        circuit = readout_circuit(fo.Circuit(3, [fo.BeamSplitter((0, 1), v)]))
        assert _splits(spec.alpha, circuit) == [(0, 1, None)]
        run = fo.run_lhv_experiment(spec, circuit, 1, seed=4)
        assert run.counts == {(0, 0, 3): 1}

    def test_balanced_split_binomial_mean(self):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 4)
        run = fo.run_lhv_experiment(spec, hadamard_circuit(), 20000, seed=5)
        assert all(sum(occ) == 4 for occ in run.counts)
        mean = sum(occ[0] * hits for occ, hits in run.counts.items()) / run.accepted
        sigma = math.sqrt(4 * 0.25 / run.accepted)
        assert abs(mean - 2.0) < 3 * sigma

    def test_hadamard_from_reference_start(self):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 4)
        [(s, t, p)] = _splits(spec.alpha, hadamard_circuit())
        assert (s, t) == (0, 1)
        assert abs(p - 0.5) < 1e-12

    def test_phase_shifter_deterministic(self):
        # the phase turns alpha = (1, 1)/sqrt2 into (-1, 1)/sqrt2, which the
        # Hadamard sends wholly to mode 1; without it, wholly to mode 0
        spec = fo.EpistemicSpec(np.array([1 / SQ2, 1 / SQ2]), 2)
        h = fo.BeamSplitter((0, 1), fo.hadamard())
        shifted = readout_circuit(fo.Circuit(2, [fo.PhaseShifter(0, math.pi), h]))
        assert fo.run_lhv_experiment(spec, shifted, 1000, seed=6).counts == {(0, 2): 1000}
        plain = readout_circuit(fo.Circuit(2, [h]))
        assert fo.run_lhv_experiment(spec, plain, 1000, seed=6).counts == {(2, 0): 1000}

    def test_detect_reads_count(self):
        # readout keys follow detector order, not mode order
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 2)
        circuit = fo.Circuit(2, [fo.Detector(1), fo.Detector(0)])
        run = fo.run_lhv_experiment(spec, circuit, 10, seed=7)
        assert run.counts == {(0, 2): 10}

    def test_degenerate_amplitudes_fail_loudly(self):
        # a consistent start never puts particles on an empty pair, so the
        # guard is reached here through a split record that contradicts alpha
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 1)
        with pytest.raises(DegenerateAmplitude):
            _run_block(spec, fo.Circuit(2), [(0, 1, None)], 7, 0, 1)


class TestRunExperiment:
    def test_hadamard_binomial_frequencies(self):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 2)
        circuit = readout_circuit(fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())]))
        run = fo.run_lhv_experiment(spec, circuit, 40000, seed=8)
        freq = {k: v / run.accepted for k, v in run.counts.items()}
        for occ, expected in (((2, 0), 0.25), ((1, 1), 0.5), ((0, 2), 0.25)):
            sigma = math.sqrt(expected * (1 - expected) / run.accepted)
            assert abs(freq[occ] - expected) < 3.5 * sigma

    def test_empty_circuit_is_multinomial(self, rng):
        alpha = random_alpha(rng, 3)
        spec = fo.EpistemicSpec(alpha, 2)
        circuit = readout_circuit(fo.Circuit(3))
        run = fo.run_lhv_experiment(spec, circuit, 30000, seed=9)
        dist = detection_distribution(spec.quantum_state())
        for occ, p in dist.items():
            sigma = math.sqrt(p * (1 - p) / run.accepted) + 1e-9
            assert abs(run.counts.get(occ, 0) / run.accepted - p) < 4 * sigma

    def test_random_mesh_matches_quantum(self, rng):
        alpha = random_alpha(rng, 4)
        spec = fo.EpistemicSpec(alpha, 3)
        circuit = readout_circuit(fo.reck_decompose(random_unitary(rng, 4)))
        report = fo.compare_lhv_quantum(spec, circuit, shots=50000, seed=10)
        assert report.tv_distance < report.tv_bound
        assert report.passed

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, bad):
        with pytest.raises(ShapeMismatch):
            fo.EpistemicSpec(np.array([bad, 1.0]), 2)

    @pytest.mark.parametrize("alpha", [[[1.0, 0.0]], 1.0, []])
    def test_alpha_must_be_a_vector(self, alpha):
        # a 1 x 2 matrix used to pass as a one-mode spec
        with pytest.raises(ShapeMismatch):
            fo.EpistemicSpec(alpha, 1)

    @pytest.mark.parametrize("alpha", [["a", 1], [[1, 0], [0]], [object(), 1], {"a": 1}])
    def test_non_numeric_alpha_rejected(self, alpha):
        # numpy's conversion raises a bare ValueError or TypeError for these
        with pytest.raises(InvalidParameter):
            fo.EpistemicSpec(alpha, 1)

    def test_norm_tolerance_boundary(self):
        inside = np.array([1.0 + 0.5 * NORM_TOL, 0.0])
        assert fo.EpistemicSpec(inside, 2).n_modes == 2
        with pytest.raises(ShapeMismatch):
            fo.EpistemicSpec(np.array([1.0 + 2.0 * NORM_TOL, 0.0]), 2)

    @pytest.mark.parametrize("n", [2.7, True])
    def test_non_integral_particle_number_rejected(self, n):
        # truncating 2.7 would silently give N = 2
        with pytest.raises(InvalidParameter):
            fo.EpistemicSpec(np.array([1.0, 0.0]), n)

    def test_negative_particle_number_rejected(self):
        with pytest.raises(InvalidParameter):
            fo.EpistemicSpec(np.array([1.0, 0.0]), -1)

    @pytest.mark.parametrize("shots", [0, -5])
    def test_experiment_without_shots_rejected(self, shots):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 2)
        with pytest.raises(InvalidParameter):
            fo.run_lhv_experiment(spec, readout_circuit(fo.Circuit(2)), shots)

    @pytest.mark.parametrize("shots, seed", [(10.5, 1), ("10", 1), (10, 1.5), (10, "1"), (10, None)])
    def test_non_integral_shots_or_seed_rejected(self, shots, seed):
        spec = fo.EpistemicSpec(np.array([1.0, 0.0]), 2)
        circuit = readout_circuit(fo.Circuit(2))
        with pytest.raises(InvalidParameter):
            fo.run_lhv_experiment(spec, circuit, shots, seed)
        with pytest.raises(InvalidParameter):
            fo.compare_lhv_quantum(spec, circuit, shots, seed)

    def test_integral_float_shots_and_seed_accepted(self):
        spec = fo.EpistemicSpec(np.array([1 / SQ2, 1 / SQ2]), 2.0)
        circuit = readout_circuit(fo.Circuit(2))
        run = fo.run_lhv_experiment(spec, circuit, 100.0, seed=np.int64(5))
        assert run.counts == fo.run_lhv_experiment(spec, circuit, 100, seed=5).counts
        assert fo.compare_lhv_quantum(spec, circuit, 100, seed=5.0).seed == 5

    def test_mode_count_mismatch(self, rng):
        spec = fo.EpistemicSpec(random_alpha(rng, 3), 2)
        with pytest.raises(ShapeMismatch):
            fo.run_lhv_experiment(spec, fo.Circuit(2), 10)
        # a narrower spec runs as the zero-padded one, vacuum on the extra
        # mode: the same tallies under the same seed, and the same report
        circuit = fo.Circuit(
            4,
            [fo.BeamSplitter((2, 3), fo.hadamard()), fo.BeamSplitter((0, 3), fo.hadamard()),
             fo.Detector(3, 1), fo.Detector(0), fo.Detector(1), fo.Detector(2)],
        )
        padded = fo.EpistemicSpec(np.append(spec.alpha, 0.0), 2)
        narrow = fo.run_lhv_experiment(spec, circuit, 500, seed=21)
        assert narrow == fo.run_lhv_experiment(padded, circuit, 500, seed=21)
        assert 0 < narrow.accepted < 500
        report = fo.compare_lhv_quantum(spec, circuit, 500, seed=21)
        assert report == fo.compare_lhv_quantum(padded, circuit, 500, seed=21)


class TestInvariants:
    def test_particle_conservation_and_alpha_track(self, rng):
        alpha = random_alpha(rng, 4)
        spec = fo.EpistemicSpec(alpha, 3)
        mesh = fo.reck_decompose(random_unitary(rng, 4))
        run = fo.run_lhv_experiment(spec, readout_circuit(mesh), 20, seed=11)
        assert run.accepted == 20
        assert all(sum(occ) == 3 for occ in run.counts)
        # each split comes from alpha carried through the gates before it
        splits = iter(_splits(alpha, mesh))
        for i, el in enumerate(mesh.elements):
            if isinstance(el, fo.BeamSplitter):
                prefix = fo.Circuit(4, mesh.elements[: i + 1])
                beta = alpha @ circuit_unitary(prefix)
                s, t, p = next(splits)
                ws, wt = abs(beta[s]) ** 2, abs(beta[t]) ** 2
                assert (s, t) == el.modes and abs(p - ws / (ws + wt)) < 1e-9
        assert next(splits, None) is None

    def test_same_seed_bit_identical(self, rng):
        spec = fo.EpistemicSpec(random_alpha(rng, 2), 2)
        circuit = readout_circuit(fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())]))
        r1 = fo.run_lhv_experiment(spec, circuit, 2000, seed=12)
        r2 = fo.run_lhv_experiment(spec, circuit, 2000, seed=12)
        assert r1.counts == r2.counts

    def test_shot_order_irrelevant(self, rng):
        # per-block streams: tallying the blocks in reverse gives the same run
        spec = fo.EpistemicSpec(random_alpha(rng, 2), 2)
        circuit = readout_circuit(fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())]))
        shots = 5 * BLOCK // 2
        forward = fo.run_lhv_experiment(spec, circuit, shots, seed=13)
        splits = _splits(spec.alpha, circuit)
        tallies = {}
        accepted = 0
        for block in reversed(range(3)):
            size = min(BLOCK, shots - block * BLOCK)
            tally, hits = _run_block(spec, circuit, splits, 13, block, size)
            accepted += hits
            for outcome, hit in tally.items():
                tallies[outcome] = tallies.get(outcome, 0) + hit
        assert accepted == forward.accepted == shots
        assert tallies == forward.counts


def assert_tally_matches_oracle(spec, circuit, shots, seed):
    run = fo.run_lhv_experiment(spec, circuit, shots, seed=seed)
    counts, accepted = oracle_lhv_counts(spec, circuit, shots, seed)
    # key order too: lexicographic within a block, first seen across blocks
    assert list(run.counts.items()) == list(counts.items())
    assert run.accepted == accepted
    return run


class TestTally:
    def test_counts_equal_row_sort_oracle(self, rng):
        shots = 2 * BLOCK + 17
        for case in range(24):
            m = int(rng.integers(1, 7))
            n = int(rng.choice([0, 1, 3, 7]))
            mesh = fo.reck_decompose(random_unitary(rng, m))
            order = rng.permutation(m).tolist()
            heralded = order[: int(rng.integers(0, m + 1))]
            counts = [int(rng.integers(0, 2)) for _ in heralded]
            if heralded and case % 3 == 0:
                # a herald above the particle number never fires
                counts[0] = n + 1
            detectors = [fo.Detector(j, c) for j, c in zip(heralded, counts)]
            # readouts listed out of mode order; none at all gives key ()
            detectors += [fo.Detector(j) for j in order if j not in heralded]
            circuit = mesh.extended(detectors)
            spec = fo.EpistemicSpec(random_alpha(rng, m), n)
            run = assert_tally_matches_oracle(spec, circuit, shots, int(rng.integers(2**63)))
            if not circuit.readout_modes and run.accepted:
                assert run.counts == {(): run.accepted}
            if heralded and case % 3 == 0:
                assert run.counts == {} and run.accepted == 0

    def test_wide_counts_do_not_overflow(self, rng):
        # 3001**6 > 2**63: a plain base-(N+1) code would wrap without an error
        assert 3001**6 > CODE_LIMIT
        circuit = readout_circuit(fo.reck_decompose(random_unitary(rng, 6)))
        spec = fo.EpistemicSpec(random_alpha(rng, 6), 3000)
        run = assert_tally_matches_oracle(spec, circuit, 200, 31)
        assert len(run.counts) == 200

    def test_rank_steps(self, rng):
        # counts near 2**38 on four modes rank the partial code at every fold
        # after the first; near 2**58 on three modes a column is so wide that
        # it is folded in by its own rank as well
        shots = 300
        for m, n in ((4, 2**40), (3, 2**60)):
            circuit = readout_circuit(fo.reck_decompose(random_unitary(rng, m)))
            spec = fo.EpistemicSpec(random_alpha(rng, m), n)
            run = assert_tally_matches_oracle(spec, circuit, shots, 32)
            bases = [max(column) + 1 for column in zip(*run.counts)]
            assert math.prod(bases) > CODE_LIMIT
            if m == 3:
                assert max(bases[1:]) * shots > CODE_LIMIT

    def test_codes_order_rows_lexicographically(self, rng):
        top = np.iinfo(np.int64).max
        for width, high in ((1, 5), (4, 3), (7, 3001), (3, 2**40), (5, top)):
            rows = rng.integers(0, high, size=(500, width), endpoint=True)
            rows[rng.integers(500, size=100)] = rows[rng.integers(500, size=100)]
            codes = _row_codes(rows)
            order = np.lexsort(rows.T[::-1])
            # sorted rows give non-decreasing codes, equal exactly when the rows are
            same_row = np.all(rows[order][1:] == rows[order][:-1], axis=1)
            steps = np.diff(codes[order])
            assert np.all(steps[same_row] == 0) and np.all(steps[~same_row] > 0)


class TestExactLaw:
    def test_count_law_equals_quantum(self, rng):
        # the paper's locality claim, exactly: the engine's count law is the
        # quantum readout law of every reducible state through any mesh, and
        # at every step of it (each gate prefix, read out on all modes)
        worst = 0.0
        for case in range(40):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            alpha = random_alpha(rng, m)
            gates = []
            if case % 4 == 0 and m >= 3:
                # a gate on a pair of zero weight, whose split record is None
                alpha[:2] = 0.0
                alpha /= np.linalg.norm(alpha)
                gates.append(fo.BeamSplitter((0, 1), random_unitary(rng, 2)))
            s, t = sorted(rng.choice(m, size=2, replace=False).tolist())
            gates += list(fo.reck_decompose(random_unitary(rng, m)).elements)
            gates += [
                fo.PhaseShifter(int(rng.integers(m)), float(rng.uniform(0, 2 * math.pi))),
                fo.Swap((s, t)),
                fo.BeamSplitter((t, s), random_unitary(rng, 2)),
            ]
            heralded = rng.choice(m, size=int(rng.integers(0, m)), replace=False).tolist()
            detectors = [fo.Detector(j, int(rng.integers(0, 2))) for j in heralded]
            detectors += [fo.Detector(j) for j in range(m) if j not in heralded]
            readout = [fo.Detector(j) for j in range(m)]
            circuits = [fo.Circuit(m, gates + detectors)]
            circuits += [fo.Circuit(m, gates[:k] + readout) for k in range(len(gates) + 1)]
            spec = fo.EpistemicSpec(alpha, n)
            for circuit in circuits:
                law, p_herald = lhv_count_law(spec, circuit)
                quantum = fo.detector_statistics(spec.quantum_state(), circuit)
                # both laws are normalized, so the total-variation distance
                # bounds the gap of every single outcome
                tv = 0.5 * sum(
                    abs(law.get(outcome, 0.0) - quantum.distribution.get(outcome, 0.0))
                    for outcome in set(law) | set(quantum.distribution)
                )
                worst = max(worst, abs(p_herald - quantum.herald_probability), tv)
        assert worst < 1e-12


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

    @pytest.mark.parametrize(
        "groups, error",
        [
            ([((0, 2), 1)], ShapeMismatch),  # mode 0 is heralded, not read out
            ([((5,), 1)], ShapeMismatch),  # no such mode
            ([((1, 2), 1.5)], InvalidParameter),
            ([((1, 2), -1)], InvalidParameter),
            ([((1, 1), 2)], InvalidParameter),
            ([((1, 2.5), 1)], InvalidParameter),
            ([((1,), True)], InvalidParameter),
            ([(1, 1)], ShapeMismatch),  # not a (modes, total) pair
            ([((1, 2),)], ShapeMismatch),
            (5, ShapeMismatch),
        ],
    )
    def test_bad_postselection_rejected(self, rng, groups, error):
        spec = fo.EpistemicSpec(random_alpha(rng, 3), 2)
        circuit = fo.Circuit(3, [fo.Detector(0, 0), fo.Detector(1), fo.Detector(2)])
        with pytest.raises(error):
            fo.compare_lhv_quantum(spec, circuit, shots=200, seed=19, postselect=groups)

    def test_postselection_accepts_integral_numbers(self, rng):
        spec = fo.EpistemicSpec(random_alpha(rng, 3), 2)
        circuit = fo.Circuit(3, [fo.Detector(0, 0), fo.Detector(1), fo.Detector(2)])
        plain = fo.compare_lhv_quantum(spec, circuit, 500, seed=19, postselect=[((1, 2), 2)])
        loose = fo.compare_lhv_quantum(
            spec, circuit, 500, seed=19, postselect=[((np.int64(1), 2.0), 2.0)]
        )
        assert plain.to_json_dict() == loose.to_json_dict()
        assert plain.accepted > 0

    @pytest.mark.parametrize("shots", [0, -3])
    def test_no_shots_rejected(self, rng, shots):
        spec = fo.EpistemicSpec(random_alpha(rng, 2), 2)
        with pytest.raises(InvalidParameter):
            fo.compare_lhv_quantum(spec, readout_circuit(fo.Circuit(2)), shots=shots)

    def test_mode_count_mismatch(self, rng):
        spec = fo.EpistemicSpec(random_alpha(rng, 3), 2)
        with pytest.raises(ShapeMismatch, match="spec has 3 modes, circuit 2"):
            fo.compare_lhv_quantum(spec, readout_circuit(fo.Circuit(2)), shots=10)

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

    @pytest.mark.parametrize("dof", [*range(1, 81), 99, 100, 245, 714, 1500, 2000])
    def test_closed_form_tail_matches_chdtrc(self, rng, dof):
        from scipy.special import chdtrc

        # the bulk and both tails: dof + k standard deviations, random draws
        # out to the far right tail, and the edge values of the domain
        stats = [dof + k * math.sqrt(2.0 * dof) for k in range(7)]
        stats += list(rng.uniform(0.0, 4.0 * dof + 200.0, size=20))
        stats += [0.0, 1e-300, 1e6, math.inf]
        for stat in stats:
            p, ref = _chi2_sf(dof, stat), float(chdtrc(dof, stat))
            assert abs(p - ref) <= 1e-12, (dof, stat, p, ref)
            if ref > 1e-300:
                assert abs(p - ref) <= 1e-10 * ref, (dof, stat, p, ref)

    def test_closed_form_tail_edges(self):
        assert _chi2_sf(1, 0.0) == 1.0
        assert _chi2_sf(4, math.inf) == 0.0
        # a NaN statistic fails the test rather than passing it
        assert _chi2_sf(3, math.nan) == 0.0

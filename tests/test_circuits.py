import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockopt as fo
from fockopt.errors import (
    InvalidCircuit,
    InvalidParameter,
    NotUnitary,
    ShapeMismatch,
    ZeroOutcome,
)
from fockopt.tolerances import HERALD_CUTOFF
from helpers import (
    assert_states_close,
    circuit_unitary,
    fidelity,
    oracle_detector_statistics,
    oracle_gates,
    oracle_run_circuit,
    random_state,
    random_unitary,
    superpose,
    two_mode_stages,
)

ROOT = Path(__file__).resolve().parents[1]

SQ2 = math.sqrt(2.0)


class TestRunCircuit:
    def test_single_beam_splitter_hom(self):
        circuit = fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())])
        out, prob = fo.run_circuit(fo.make_number_state((1, 1)), circuit)
        assert prob == 1.0
        assert abs(out.amplitude((2, 0)) - 1 / SQ2) < 1e-12
        assert abs(out.amplitude((0, 2)) + 1 / SQ2) < 1e-12

    def test_empty_circuit(self, rng):
        s = random_state(rng, 2, 3)
        out, prob = fo.run_circuit(s, fo.Circuit(3))
        assert prob == 1.0
        assert_states_close(out, s)

    def test_fermion_event_ready_herald(self, rng):
        # conditioning on the exact counts of every companion mode leaves the
        # event-ready pair state with the squared coefficient as probability
        s = random_state(rng, 3, 4, fo.FERMION)
        target = next(occ for occ in sorted(s.occupations()) if occ[0] and occ[1])
        circuit = fo.Circuit(4, [fo.Detector(2, target[2]), fo.Detector(3, target[3])])
        out, prob = fo.run_circuit(s, circuit)
        assert abs(prob - abs(s.amplitude(target)) ** 2) < 1e-12
        assert abs(abs(out.amplitude((1, 1))) - 1.0) < 1e-12

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(InvalidParameter):
            fo.PhaseShifter(0, phi)

    def test_gate_on_detected_mode_rejected(self):
        with pytest.raises(InvalidCircuit):
            fo.Circuit(2, [fo.Detector(0, 0), fo.PhaseShifter(0, 0.3)])

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: fo.BeamSplitter((0, 1), np.eye(3)), ShapeMismatch),
            (lambda: fo.BeamSplitter((0, 1), np.ones((1, 1))), ShapeMismatch),
            (lambda: fo.Detector(1, -1), InvalidParameter),
            (lambda: fo.Circuit(0), InvalidCircuit),
            (lambda: fo.Circuit(2, [fo.Swap((0, 2))]), InvalidCircuit),
            (lambda: fo.Circuit(2, [fo.PhaseShifter(-1, 0.3)]), InvalidCircuit),
            (lambda: fo.Circuit(2, [fo.Detector(2, 0)]), InvalidCircuit),
        ],
        ids=[
            "splitter-3x3",
            "splitter-1x1",
            "negative-herald",
            "no-modes",
            "swap-out-of-range",
            "phase-negative-mode",
            "detector-out-of-range",
        ],
    )
    def test_invalid_element_or_circuit_rejected(self, build, error):
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize("run", [fo.run_circuit, fo.detector_statistics])
    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_state_of_other_mode_count_rejected(self, run, n_modes):
        # a wider state is refused; a narrower one runs as its embedding,
        # vacuum on the circuit's extra modes, bit for bit
        state = fo.make_number_state((1, 1))
        if n_modes < state.n_modes:
            with pytest.raises(ShapeMismatch, match=f"state has 2 modes, circuit {n_modes}"):
                run(state, fo.Circuit(n_modes))
            return
        readout = [fo.Detector(2)] if run is fo.detector_statistics else []
        circuit = fo.Circuit(n_modes, [fo.BeamSplitter((1, 2)), fo.Detector(0, 1), *readout])
        narrow, embedded = run(state, circuit), run(fo.embed(state, n_modes, (0, 1)), circuit)
        if run is fo.run_circuit:
            narrow, embedded = (narrow[0].items(), narrow[1]), (embedded[0].items(), embedded[1])
        assert narrow == embedded

    def test_unheralded_detector_rejected_by_run(self):
        circuit = fo.Circuit(2, [fo.Detector(0)])
        with pytest.raises(InvalidCircuit):
            fo.run_circuit(fo.make_number_state((1, 1)), circuit)

    def test_zero_outcome_propagates(self):
        circuit = fo.Circuit(2, [fo.Detector(1, 2)])
        with pytest.raises(ZeroOutcome):
            fo.run_circuit(fo.make_number_state((1, 1)), circuit)

    def test_deferred_detection_equals_unitary_then_herald(self, rng):
        s = random_state(rng, 3, 4)
        u = random_unitary(rng, 4)
        mesh = fo.reck_decompose(u)
        circuit = mesh.extended([fo.Detector(3, 1)])
        out_a, p_a = fo.run_circuit(s, circuit)
        out_b, p_b = fo.herald(fo.apply_mode_unitary(s, u), {3: 1})
        assert abs(p_a - p_b) < 1e-10
        assert abs(fidelity(out_a, out_b) - 1.0) < 1e-10

    def test_disjoint_gates_commute(self, rng):
        s = random_state(rng, 2, 4)
        bs1 = fo.BeamSplitter((0, 1), random_unitary(rng, 2))
        bs2 = fo.BeamSplitter((2, 3), random_unitary(rng, 2))
        out_a, _ = fo.run_circuit(s, fo.Circuit(4, [bs1, bs2]))
        out_b, _ = fo.run_circuit(s, fo.Circuit(4, [bs2, bs1]))
        assert abs(fidelity(out_a, out_b) - 1.0) < 1e-10

    def test_herald_outcomes_complete(self, rng):
        s = random_state(rng, 2, 3)
        u = random_unitary(rng, 3)
        total = 0.0
        for k0 in range(3):
            for k2 in range(3 - k0):
                circuit = fo.reck_decompose(u).extended(
                    [fo.Detector(0, k0), fo.Detector(2, k2)]
                )
                try:
                    _, p = fo.run_circuit(s, circuit)
                except ZeroOutcome:
                    p = 0.0
                total += p
        assert abs(total - 1.0) < 1e-10


def statistics_case(rng, statistics, kind):
    """A random state and a random mesh with detectors for one kind of
    readout: ``plain`` (readouts and undetected modes, no herald), ``mixed``
    (heralds of 0..N+1 too), ``never`` (one herald that cannot fire) or
    ``embedded`` (a mixed case whose state went through ``embed``)."""
    m = int(rng.integers(2, 7))
    n = int(rng.integers(0, 4))
    if statistics is fo.FERMION:
        n = min(n, m)
    if kind == "embedded":
        k = int(rng.integers(1, m + 1))
        n = min(n, k) if statistics is fo.FERMION else n
        positions = sorted(int(p) for p in rng.choice(m, k, replace=False))
        state = fo.embed(random_state(rng, n, k, statistics), m, positions)
    else:
        state = random_state(rng, n, m, statistics)
    detectors = []
    for j in range(m):
        r = rng.random()
        if kind in ("mixed", "embedded") and r < 0.3:
            detectors.append(fo.Detector(j, int(rng.integers(0, n + 2))))
        elif r < 0.7:
            detectors.append(fo.Detector(j))
    if kind == "never":
        detectors = [d for d in detectors if d.mode != 0]
        detectors.append(fo.Detector(0, 2 if statistics is fo.FERMION and n >= 2 else n + 1))
    return state, fo.reck_decompose(random_unitary(rng, m)).extended(detectors)


class TestDetectorStatisticsMatchesTermLoop:
    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    @pytest.mark.parametrize("kind", ["plain", "mixed", "never", "embedded"])
    def test_random_states(self, rng, statistics, kind):
        fired = 0
        for _ in range(40):
            state, circuit = statistics_case(rng, statistics, kind)
            dist, p_herald = oracle_detector_statistics(state, circuit)
            result = fo.detector_statistics(state, circuit)
            assert set(result.distribution) == set(dist)
            for key, p in dist.items():
                assert abs(result.distribution[key] - p) < 1e-12
            assert abs(result.herald_probability - p_herald) < 1e-12
            assert result.readout_modes == circuit.readout_modes
            fired += p_herald > 0.0
        if kind == "plain":
            assert fired == 40
        elif kind == "never":
            assert fired == 0
        else:
            assert 0 < fired < 40


def sparse_case(rng, statistics, readouts):
    """A random state with vacuum on some modes and a random circuit whose
    gates touch only a few modes.  The state ends at a random mode past its
    last occupied one, so the circuit is often wider than the state and runs
    it with vacuum on the rest.  Every mode gets, at random, a herald, a
    readout (with ``readouts``) or nothing, so heralds fall on touched and
    untouched modes, often between the two modes of a gate, and readouts
    fall on idle vacuum modes.  A herald count is mostly that of one term of
    the state, so many heralds fire; the rest are drawn from 0..N+1."""
    fermionic = statistics is fo.FERMION
    m = int(rng.integers(3, 8))
    k = int(rng.integers(1, m + 1))
    n = int(rng.integers(0, 5))
    if fermionic:
        n = min(n, k)
    positions = sorted(int(p) for p in rng.choice(m, k, replace=False))
    width = int(rng.integers(positions[-1] + 1, m + 1))
    state = fo.embed(random_state(rng, n, k, statistics), width, positions)
    elements = []
    for _ in range(int(rng.integers(0, 4))):
        s, t = (int(x) for x in rng.choice(m, 2, replace=False))
        if rng.random() < 0.2:
            elements.append(fo.PhaseShifter(s, float(rng.uniform(0, 2 * math.pi))))
        elif rng.random() < 0.2:
            elements.append(fo.Swap((s, t)))
        else:
            elements.append(fo.BeamSplitter((s, t), random_unitary(rng, 2)))
    terms = state.items()
    reference = terms[int(rng.integers(len(terms)))][0] + (0,) * (m - width)
    for j in rng.permutation(m).tolist():
        r = rng.random()
        if r < 0.45:
            count = reference[j] if rng.random() < 0.8 else int(rng.integers(0, n + 2))
            elements.append(fo.Detector(j, count))
        elif readouts and r < 0.8:
            elements.append(fo.Detector(j))
    return state, fo.Circuit(m, elements)


def outcome(run, *args):
    """``run(*args)``, or the type of the fockopt error it raised."""
    try:
        return run(*args)
    except fo.FockoptError as exc:
        return type(exc)


def assert_same_state(a, b, atol=1e-12):
    """Amplitude by amplitude, phases included; dust below ``atol`` may be
    missing on either side."""
    assert (a.statistics, a.n_modes, a.n_particles) == (b.statistics, b.n_modes, b.n_particles)
    amps_a, amps_b = dict(a.items()), dict(b.items())
    for occ in set(amps_a) | set(amps_b):
        assert abs(amps_a.get(occ, 0j) - amps_b.get(occ, 0j)) < atol, occ


def assert_same_distribution(a, b, atol=1e-12):
    for key in set(a) | set(b):
        assert abs(a.get(key, 0.0) - b.get(key, 0.0)) < atol, key


def touched_modes(circuit):
    return {
        m
        for el in circuit.elements
        if not isinstance(el, fo.Detector)
        for m in fo.circuits.element_modes(el)
    }


def late_below_early_sign(circuit):
    """True when the fermion reordering sign of heralding untouched modes
    first is -1 for ``circuit``."""
    touched = touched_modes(circuit)
    heralds = circuit.heralds
    return sum(
        heralds[e] * heralds[l]
        for e in heralds if e not in touched
        for l in heralds if l in touched and l < e
    ) % 2 == 1


class TestReachedModesMatchFullRegister:
    """``run_circuit`` and ``detector_statistics`` herald untouched modes
    before the gates and leave idle vacuum modes out of the kernel; the
    full-register oracles of ``helpers`` evolve every mode and herald once."""

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_run_circuit(self, statistics):
        rng = np.random.default_rng(7 if statistics is fo.BOSON else 8)
        fired = early_fired = flipped = narrow = 0
        for _ in range(400):
            state, circuit = sparse_case(rng, statistics, readouts=False)
            expected = outcome(oracle_run_circuit, state, circuit)
            got = outcome(fo.run_circuit, state, circuit)
            if isinstance(expected, type):
                assert got is expected
                continue
            assert not isinstance(got, type), got
            assert abs(got[1] - expected[1]) < 1e-12
            assert_same_state(got[0], expected[0])
            fired += 1
            touched = touched_modes(circuit)
            early_fired += any(m not in touched for m in circuit.heralds)
            flipped += late_below_early_sign(circuit)
            narrow += state.n_modes < circuit.n_modes
        assert fired > 100 and early_fired > 50 and narrow > 50
        if statistics is fo.FERMION:
            assert flipped > 0

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_detector_statistics(self, statistics):
        rng = np.random.default_rng(9 if statistics is fo.BOSON else 10)
        fired = idle_readouts = 0
        for _ in range(400):
            state, circuit = sparse_case(rng, statistics, readouts=True)
            dist, p_herald = oracle_detector_statistics(state, circuit)
            result = fo.detector_statistics(state, circuit)
            assert abs(result.herald_probability - p_herald) < 1e-12
            assert_same_distribution(result.distribution, dist)
            assert result.readout_modes == circuit.readout_modes
            fired += p_herald > 0.0
            occupied = set(np.flatnonzero(state._occ.any(axis=0)).tolist())
            idle_readouts += p_herald > 0.0 and any(
                m not in occupied for m in circuit.readout_modes
            )
        assert fired > 100 and idle_readouts > 20

    def test_fermion_late_herald_below_early_one(self, rng):
        # mode 0 is heralded after the gate, mode 2 before it, both with an
        # odd count: one joint herald orders them 0, 2, the plan 2, 0
        state = random_state(rng, 3, 5, fo.FERMION)
        circuit = fo.Circuit(
            5,
            [
                fo.BeamSplitter((0, 3), random_unitary(rng, 2)),
                fo.Detector(0, 1),
                fo.Detector(2, 1),
            ],
        )
        assert late_below_early_sign(circuit)
        out, prob = fo.run_circuit(state, circuit)
        expected, expected_prob = oracle_run_circuit(state, circuit)
        assert prob > HERALD_CUTOFF
        assert abs(prob - expected_prob) < 1e-12
        assert_same_state(out, expected)

    def test_idle_vacuum_modes_read_zero_and_return_as_vacuum(self, rng):
        state = fo.embed(random_state(rng, 3, 2), 6, (1, 4))
        gates = [fo.BeamSplitter((1, 4), random_unitary(rng, 2))]
        readout = fo.Circuit(6, gates + [fo.Detector(0), fo.Detector(1), fo.Detector(5, 0)])
        result = fo.detector_statistics(state, readout)
        dist, p_herald = oracle_detector_statistics(state, readout)
        assert abs(result.herald_probability - p_herald) < 1e-12
        assert_same_distribution(result.distribution, dist)
        assert all(key[0] == 0 for key in result.distribution)
        heralded = fo.Circuit(6, gates + [fo.Detector(1, 2)])
        out, prob = fo.run_circuit(state, heralded)
        expected, expected_prob = oracle_run_circuit(state, heralded)
        assert out.n_modes == 5 and abs(prob - expected_prob) < 1e-12
        assert_same_state(out, expected)

    def test_statistics_keep_a_herald_below_the_cutoff(self):
        # the untouched mode 2 holds the particle with probability 1e-16
        eps = 1e-8
        state = superpose(
            [(1.0, fo.make_number_state((1, 1, 0))), (eps, fo.make_number_state((1, 0, 1)))]
        )
        circuit = fo.Circuit(
            3, [fo.BeamSplitter((0, 1)), fo.Detector(0), fo.Detector(1), fo.Detector(2, 1)]
        )
        result = fo.detector_statistics(state, circuit)
        dist, p_herald = oracle_detector_statistics(state, circuit)
        assert 0.0 < p_herald < HERALD_CUTOFF
        assert abs(result.herald_probability / p_herald - 1.0) < 1e-12
        assert set(result.distribution) == set(dist) == {(1, 0), (0, 1)}
        assert_same_distribution(result.distribution, dist)
        heralded = fo.Circuit(3, [fo.BeamSplitter((0, 1)), fo.Detector(2, 1)])
        with pytest.raises(ZeroOutcome):
            fo.run_circuit(state, heralded)
        with pytest.raises(ZeroOutcome):
            oracle_run_circuit(state, heralded)

    @pytest.mark.parametrize("p_early, fires", [(1e-8, False), (1e-6, True)])
    def test_cutoff_applies_to_the_joint_probability(self, p_early, fires):
        # both heralds pass the cutoff alone; their product is 1e-15 or 1e-13
        state = superpose(
            [
                (math.sqrt(p_early), fo.make_number_state((1, 0, 0))),
                (math.sqrt(1 - p_early), fo.make_number_state((0, 0, 1))),
            ]
        )
        theta = math.asin(math.sqrt(1e-7))
        c, s = math.cos(theta), math.sin(theta)
        circuit = fo.Circuit(
            3,
            [fo.BeamSplitter((0, 1), [[c, s], [-s, c]]), fo.Detector(2, 0), fo.Detector(1, 1)],
        )
        if not fires:
            with pytest.raises(ZeroOutcome):
                fo.run_circuit(state, circuit)
            with pytest.raises(ZeroOutcome):
                oracle_run_circuit(state, circuit)
            return
        out, prob = fo.run_circuit(state, circuit)
        expected, expected_prob = oracle_run_circuit(state, circuit)
        assert abs(prob / expected_prob - 1.0) < 1e-9
        assert_same_state(out, expected)

    def test_every_mode_detected_leaves_no_state(self):
        circuit = fo.Circuit(2, [fo.BeamSplitter((0, 1)), fo.Detector(0, 1), fo.Detector(1, 1)])
        with pytest.raises(ShapeMismatch):
            fo.run_circuit(fo.make_number_state((1, 1)), circuit)

    def test_wide_sparse_register_stays_small(self):
        # |6,6,0,...,0> on 16 modes: the full sector has C(27, 12) = 17.4
        # million states, more than the 1.5 GB address space allows
        script = (
            "import resource\n"
            "limit = 1_500_000_000\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    limit = min(limit, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
            "import fockopt as fo\n"
            "state = fo.make_number_state((6, 6) + (0,) * 14)\n"
            "circuit = fo.Circuit(16, [fo.BeamSplitter((0, 1))])\n"
            "out, prob = fo.run_circuit(state, circuit)\n"
            "assert prob == 1.0 and out.n_modes == 16 and out.n_particles == 12\n"
            "assert sorted(o[:2] for o in out.occupations()) == [(k, 12 - k) for k in range(0, 13, 2)]\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert run.returncode == 0, run.stderr


class TestCircuitToUnitary:
    def test_phase_shifter(self):
        circuit = fo.Circuit(2, [fo.PhaseShifter(0, 0.7)])
        np.testing.assert_allclose(
            circuit_unitary(circuit),
            np.diag([np.exp(0.7j), 1.0]),
            atol=1e-12,
        )

    def test_hadamard_bs(self):
        circuit = fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())])
        np.testing.assert_allclose(circuit_unitary(circuit), fo.hadamard(), atol=1e-12)

    def test_hadamard_is_one_read_only_array(self):
        h = fo.hadamard()
        assert fo.hadamard() is h and not h.flags.writeable
        np.testing.assert_allclose(h * math.sqrt(2.0), [[1, 1], [1, -1]], rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError):
            h[0, 0] = 0.0

    def test_swap(self):
        circuit = fo.Circuit(3, [fo.Swap((0, 2))])
        u = circuit_unitary(circuit)
        np.testing.assert_allclose(u @ u, np.eye(3), atol=1e-12)
        assert u[0, 2] == 1.0 and u[2, 0] == 1.0

    def test_matches_state_evolution(self, rng):
        s = random_state(rng, 2, 3)
        elements = [
            fo.BeamSplitter((0, 1), random_unitary(rng, 2)),
            fo.PhaseShifter(2, 1.1),
            fo.Swap((1, 2)),
            fo.BeamSplitter((0, 2), random_unitary(rng, 2)),
        ]
        circuit = fo.Circuit(3, elements)
        out, _ = fo.run_circuit(s, circuit)
        direct = fo.apply_mode_unitary(s, circuit_unitary(circuit))
        assert abs(fidelity(out, direct) - 1.0) < 1e-10


class TestReckDecompose:
    def test_identity_is_empty(self):
        assert fo.reck_decompose(np.eye(3)).elements == ()

    def test_two_by_two(self, rng):
        u = random_unitary(rng, 2)
        circuit = fo.reck_decompose(u)
        n_bs = sum(isinstance(e, fo.BeamSplitter) for e in circuit.elements)
        assert n_bs == 1
        np.testing.assert_allclose(circuit_unitary(circuit), u, atol=1e-9)

    def test_random_four_mode(self, rng):
        u = random_unitary(rng, 4)
        circuit = fo.reck_decompose(u)
        n_bs = sum(isinstance(e, fo.BeamSplitter) for e in circuit.elements)
        n_ps = sum(isinstance(e, fo.PhaseShifter) for e in circuit.elements)
        assert n_bs <= 6 and n_ps <= 4
        assert np.max(np.abs(circuit_unitary(circuit) - u)) < 1e-9

    def test_round_trip_sizes(self, rng):
        for m in (2, 3, 4, 5):
            u = random_unitary(rng, m)
            circuit = fo.reck_decompose(u)
            assert np.max(np.abs(circuit_unitary(circuit) - u)) < 1e-9

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            fo.reck_decompose(np.ones((3, 3)))

    def test_mesh_matrices_are_read_only(self, rng):
        for el in fo.reck_decompose(random_unitary(rng, 4)).elements:
            if isinstance(el, fo.BeamSplitter):
                assert not el.matrix.flags.writeable

    def test_public_splitter_still_checked(self):
        with pytest.raises(NotUnitary):
            fo.BeamSplitter((0, 1), [[1, 1], [0, 1]])

    def test_preparation_splitters_check_their_modes(self):
        phi = fo.make_number_state((1, 1))
        with pytest.raises(InvalidCircuit):
            list(fo.two_mode_preparations(phi.n_particles, (0, 1), (0, 3)))


class TestStandardCircuits:
    def test_filter_zero_is_passthrough(self, rng):
        s = random_state(rng, 2, 2)
        circuit = two_mode_stages(s)[0]
        out, prob = fo.run_circuit(fo.embed(s, 4, (0, 1)), circuit)
        assert abs(prob - 0.25) < 1e-12
        assert_states_close(out, s)

    def test_erasure_on_balanced_noon(self):
        noon = superpose(
            [(1, fo.make_number_state((3, 0))), (1, fo.make_number_state((0, 3)))]
        )
        out, prob = fo.run_circuit(fo.embed(noon, 4, (0, 1)), two_mode_stages(noon)[-1])
        assert prob > 0
        assert abs(abs(out.amplitude((2, 0))) - abs(out.amplitude((0, 2)))) < 1e-12
        assert abs(out.amplitude((1, 1))) < 1e-12

    def test_ys_circuit_structure(self):
        circuit = fo.yurke_stoler_circuit()
        assert circuit.n_modes == 4
        assert circuit.heralds == {}
        assert circuit.output_modes == (0, 1, 2, 3)

    def test_ys_circuit_is_one_immutable_object(self):
        circuit = fo.yurke_stoler_circuit()
        assert fo.yurke_stoler_circuit() is circuit
        with pytest.raises(AttributeError):
            circuit.elements = ()
        splitters = [el for el in circuit.elements if isinstance(el, fo.BeamSplitter)]
        for el in splitters:
            assert not el.matrix.flags.writeable
            np.testing.assert_array_equal(el.matrix, fo.hadamard())


class TestDetectorViews:
    def test_views_match_element_scan(self, rng):
        # the views computed once when a circuit is built equal a scan of its
        # elements on every access
        for _ in range(60):
            m = int(rng.integers(1, 7))
            elements = list(fo.reck_decompose(random_unitary(rng, m)).elements)
            for j in rng.permutation(m)[: int(rng.integers(0, m + 1))].tolist():
                herald = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
                elements.append(fo.Detector(j, herald))
            circuit = fo.Circuit(m, elements)
            detectors = tuple(el for el in circuit.elements if isinstance(el, fo.Detector))
            assert circuit.heralds == {d.mode: d.herald for d in detectors if d.herald is not None}
            assert circuit.readout_modes == tuple(d.mode for d in detectors if d.herald is None)
            detected = {d.mode for d in detectors}
            assert circuit.output_modes == tuple(j for j in range(m) if j not in detected)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_compiled_gates_match_the_elements(self, m, seed):
        # the gates compiled once, when the circuit is built, equal the
        # gates read off the elements' public fields
        circuit = random_circuit(np.random.default_rng(seed), m)
        compiled, expected = circuit._gates, oracle_gates(circuit)
        assert type(compiled) is tuple and len(compiled) == len(expected)
        for (modes, value), (want_modes, want) in zip(compiled, expected):
            assert modes == want_modes
            np.testing.assert_array_equal(value, want)

    def test_heralds_are_a_fresh_dict(self):
        circuit = fo.Circuit(3, [fo.Detector(2, 1), fo.Detector(0)])
        circuit.heralds[1] = 0
        circuit.heralds.pop(2)
        assert circuit.heralds == {2: 1}
        assert circuit.heralds is not circuit.heralds
        with pytest.raises(AttributeError):
            circuit.readout_modes = (1,)


class TestElementIntegers:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: fo.Detector(0, 1.7),
            lambda: fo.Detector(0, True),
            lambda: fo.Detector(0.5),
            lambda: fo.Detector("0"),
            lambda: fo.BeamSplitter((0.5, 1.2)),
            lambda: fo.BeamSplitter((0, True)),
            lambda: fo.Swap((0, 1.5)),
            lambda: fo.PhaseShifter(1.2, 0.3),
            lambda: fo.Circuit(2.7, []),
            lambda: fo.Circuit(True, []),
            lambda: fo.Circuit(math.nan, []),
        ],
    )
    def test_non_integral_values_rejected(self, build):
        # each of these used to be truncated to a valid element
        with pytest.raises(InvalidParameter):
            build()

    @pytest.mark.parametrize("element", [None, 3, (0, 1), "bs"])
    def test_non_elements_rejected(self, element):
        with pytest.raises(InvalidCircuit, match="not a circuit element"):
            fo.Circuit(2, [fo.Swap((0, 1)), element])

    def test_integral_numbers_accepted(self):
        circuit = fo.Circuit(
            np.int64(3),
            [
                fo.BeamSplitter((np.int32(0), 1.0)),
                fo.PhaseShifter(np.uint8(1), 0.3),
                fo.Swap((2.0, np.int64(1))),
                fo.Detector(np.int64(2), 1.0),
            ],
        )
        assert circuit.n_modes == 3 and type(circuit.n_modes) is int
        assert [fo.circuits.element_modes(el) for el in circuit.elements] == [
            (0, 1),
            (1,),
            (2, 1),
            (2,),
        ]
        assert circuit.heralds == {2: 1} and type(circuit.heralds[2]) is int


def random_circuit(rng, m):
    """Splitters, phases and swaps on random modes, then detectors, heralded
    or not, on a random subset of the modes."""
    elements = []
    for _ in range(int(rng.integers(0, 8))):
        kind = rng.integers(3) if m > 1 else 1
        if kind == 1:
            elements.append(fo.PhaseShifter(int(rng.integers(m)), rng.uniform(-10, 10)))
            continue
        pair = tuple(int(j) for j in rng.choice(m, 2, replace=False))
        if kind == 0:
            elements.append(fo.BeamSplitter(pair, random_unitary(rng, 2)))
        else:
            elements.append(fo.Swap(pair))
    for j in rng.permutation(m)[: int(rng.integers(0, m + 1))].tolist():
        elements.append(fo.Detector(j, int(rng.integers(0, 4)) if rng.random() < 0.5 else None))
    return fo.Circuit(m, elements)


def element_fields(element):
    """The fields of a circuit element, with a splitter's matrix as a tuple."""
    fields = dict(vars(element))
    if isinstance(element, fo.BeamSplitter):
        fields["matrix"] = tuple(element.matrix.ravel().tolist())
    return type(element), fields


class TestCircuitFiles:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_dict_round_trip(self, m, seed):
        # through JSON text, as a file holds it: the same elements, bit for bit
        circuit = random_circuit(np.random.default_rng(seed), m)
        back = fo.circuit_from_dict(json.loads(json.dumps(fo.circuit_to_dict(circuit))))
        assert back.n_modes == m
        assert [element_fields(el) for el in back.elements] == [
            element_fields(el) for el in circuit.elements
        ]

    def test_round_trip(self, rng, tmp_path):
        circuit = fo.Circuit(
            4,
            [
                fo.BeamSplitter((0, 2), random_unitary(rng, 2)),
                fo.PhaseShifter(1, 2.2),
                fo.Swap((1, 3)),
                fo.Detector(3, 1),
                fo.Detector(1),
            ],
        )
        path = tmp_path / "circuit.json"
        fo.save_circuit(circuit, path)
        loaded = fo.load_circuit(path)
        assert loaded.n_modes == 4
        assert loaded.heralds == {3: 1}
        assert loaded.readout_modes == (1,)
        np.testing.assert_allclose(
            loaded.elements[0].matrix, circuit.elements[0].matrix, atol=1e-15
        )

    def test_one_based_indices_in_file(self, tmp_path):
        circuit = fo.Circuit(2, [fo.PhaseShifter(0, 1.0), fo.Detector(1, 0)])
        data = fo.circuit_to_dict(circuit)
        assert data["elements"][0]["mode"] == 1
        assert data["elements"][1]["mode"] == 2
        assert data["outputs"] == [1]

    def test_output_mismatch_rejected(self):
        data = {
            "modes": 2,
            "elements": [{"type": "detect", "mode": 2, "herald": 0}],
            "outputs": [2],
        }
        with pytest.raises(fo.InvalidFile):
            fo.circuit_from_dict(data)

    def test_embedding_matches_elements(self, rng):
        bs = fo.BeamSplitter((1, 3), random_unitary(rng, 2))
        u = circuit_unitary(fo.Circuit(5, [bs]))
        assert u[1, 1] == bs.matrix[0, 0] and u[1, 3] == bs.matrix[0, 1]
        assert u[0, 0] == 1.0 and u[2, 2] == 1.0

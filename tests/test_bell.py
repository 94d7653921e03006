import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockopt as fo
from fockopt import bell
from fockopt.bell import ALICE_RAILS, BOB_RAILS
from fockopt.errors import (
    FockoptError,
    InvalidParameter,
    NotUnitary,
    ShapeMismatch,
    ZeroOutcome,
)
from fockopt.tolerances import HERALD_CUTOFF, SETTINGS_CHECK_TOL, VIOLATION_MARGIN
from helpers import (
    correlation_matrix,
    fidelity,
    is_product,
    oracle_replay_witness,
    oracle_splitter_stage,
    random_alpha,
    random_state,
    random_unitary,
    stage_test,
    state_with_empty_modes,
    superpose,
    two_mode_stages,
)

SQ2 = math.sqrt(2.0)
CHSH_TSIRELSON = 2.0 * SQ2


def two_mode_state(beta, statistics=fo.BOSON):
    """State with coefficients beta_n on a1^n a2^(N-n)/sqrt(n!(N-n)!)."""
    n = len(beta) - 1
    amps = {(k, n - k): b for k, b in enumerate(beta) if b != 0}
    return fo.FockState(statistics, 2, amps)


def bloch_vector(basis):
    """Bloch vector of the first outcome state of a measurement basis."""
    plus = basis[:, 0]
    sx = 2 * (plus[0].conjugate() * plus[1]).real
    sy = 2 * (plus[0].conjugate() * plus[1]).imag
    sz = abs(plus[0]) ** 2 - abs(plus[1]) ** 2
    return np.array([sx, sy, sz])


def filtered_test(phi, s):
    """Filter stage ``s`` through the splitter stage and the CHSH optimum."""
    return stage_test(phi, two_mode_stages(phi)[s])


def erasure_stage(phi):
    stages = two_mode_stages(phi)
    # N-1 filter stages, then the erasure stage
    assert len(stages) == phi.n_particles
    return stages[-1]


def filter_heralded_oracle(beta, n, s):
    """Expected event-ready amplitudes after the (s, N-s-2) filter herald,
    from the binomial expansion, left unnormalized."""
    a2 = (
        beta[s + 2]
        * (s + 2)
        * (s + 1)
        / 2
        / math.sqrt(math.factorial(s + 2) * math.factorial(n - s - 2))
    )
    b11 = (
        beta[s + 1]
        * (s + 1)
        * (n - s - 1)
        / math.sqrt(math.factorial(s + 1) * math.factorial(n - s - 1))
    )
    c2 = (
        beta[s]
        * (n - s)
        * (n - s - 1)
        / 2
        / math.sqrt(math.factorial(s) * math.factorial(n - s))
    )
    return {(2, 0): a2 * SQ2, (1, 1): b11, (0, 2): c2 * SQ2}


class TestYurkeStolerPostselect:
    def test_boson_pair(self):
        chi, prob = fo.yurke_stoler_postselect(fo.make_number_state((1, 1)))
        assert abs(prob - 0.5) < 1e-12
        np.testing.assert_allclose(
            chi.amplitudes, [0, 1 / SQ2, 1 / SQ2, 0], atol=1e-12
        )

    def test_fermion_pair_singlet(self):
        chi, prob = fo.yurke_stoler_postselect(fo.make_number_state((1, 1), fo.FERMION))
        assert abs(prob - 0.5) < 1e-12
        np.testing.assert_allclose(
            chi.amplitudes, [0, 1 / SQ2, -1 / SQ2, 0], atol=1e-12
        )

    def test_single_mode_input_gives_product(self):
        phi = two_mode_state([0.5, 1 / SQ2, 0.5])
        chi, prob = fo.yurke_stoler_postselect(phi)
        assert abs(prob - 0.5) < 1e-12
        assert is_product(chi)

    def test_general_amplitude_map(self, rng):
        # chi = (alpha/sqrt2, beta/2, beta/2, gamma/sqrt2), renormalized
        alpha, beta, gamma = random_alpha(rng, 3)
        phi = two_mode_state([gamma, beta, alpha])
        chi, prob = fo.yurke_stoler_postselect(phi)
        assert abs(prob - 0.5) < 1e-12
        expected = np.array([alpha / SQ2, beta / 2, beta / 2, gamma / SQ2]) * SQ2
        np.testing.assert_allclose(chi.amplitudes, expected, atol=1e-10)

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_success_probability_exactly_half(self, rng, statistics):
        for _ in range(20):
            phi = random_state(rng, 2, 2, statistics)
            _, prob = fo.yurke_stoler_postselect(phi)
            assert abs(prob - 0.5) < 1e-10

    def test_wrong_shape(self):
        with pytest.raises(ShapeMismatch):
            fo.yurke_stoler_postselect(fo.make_number_state((1, 1, 0)))
        with pytest.raises(ShapeMismatch):
            fo.yurke_stoler_postselect(fo.make_number_state((1, 0)))


class TestProductCondition:
    def test_triplet_entangled(self):
        chi = fo.TwoQubitState([0, 1 / SQ2, 1 / SQ2, 0])
        assert not is_product(chi)

    def test_basis_product(self):
        chi = fo.TwoQubitState([1, 0, 0, 0])
        assert is_product(chi)
        with pytest.raises(AttributeError, match="immutable"):
            chi.amplitudes = np.zeros(4)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(InvalidParameter):
            fo.TwoQubitState([1, 1, 0, 0])

    def test_non_finite_amplitudes_rejected(self):
        # a NaN norm passes a plain "deviation > tol" check
        with pytest.raises(InvalidParameter):
            fo.TwoQubitState([math.nan, 0, 0, 0])

    @pytest.mark.parametrize("amplitudes", [[1, 0, 0], [1, 0, 0, 0, 0], [[1, 0], [0, 0]]])
    def test_other_than_four_amplitudes_rejected(self, amplitudes):
        with pytest.raises(ShapeMismatch):
            fo.TwoQubitState(amplitudes)

    def test_single_mode_relation(self, rng):
        # beta^2 = 2*alpha*gamma makes the post-selected state factorize
        u1, u2 = random_alpha(rng, 2)
        alpha, beta, gamma = u1**2, SQ2 * u1 * u2, u2**2
        chi, _ = fo.yurke_stoler_postselect(two_mode_state([gamma, beta, alpha]))
        assert is_product(chi)


class TestChshMax:
    @staticmethod
    def random_states(rng, count):
        for _ in range(count):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            yield fo.TwoQubitState(v / np.linalg.norm(v))

    def test_correlation_oracle_hand_values(self):
        # the singlet is anti-correlated along every axis; |uu> only along z
        singlet = fo.TwoQubitState([0, 1 / SQ2, -1 / SQ2, 0])
        np.testing.assert_allclose(correlation_matrix(singlet), -np.eye(3), atol=1e-15)
        product = fo.TwoQubitState([1, 0, 0, 0])
        np.testing.assert_allclose(correlation_matrix(product), np.diag([0, 0, 1]), atol=1e-15)

    def test_singlet(self):
        res = fo.chsh_max(fo.TwoQubitState([0, 1 / SQ2, -1 / SQ2, 0]))
        assert abs(res.chsh - CHSH_TSIRELSON) < 1e-9
        assert res.violated

    def test_triplet(self):
        res = fo.chsh_max(fo.TwoQubitState([0, 1 / SQ2, 1 / SQ2, 0]))
        assert abs(res.chsh - CHSH_TSIRELSON) < 1e-9

    def test_product(self):
        res = fo.chsh_max(fo.TwoQubitState([1, 0, 0, 0]))
        assert abs(res.chsh - 2.0) < 1e-9
        assert not res.violated

    def test_unbalanced_pair_hand_value(self):
        chi = fo.TwoQubitState([0.8, 0, 0, 0.6])
        res = fo.chsh_max(chi)
        assert abs(res.chsh - 2.0 * math.sqrt(1.0 + 0.96**2)) < 1e-9

    def test_pure_states_reach_the_local_bound(self, rng):
        # T of a pure state has singular values {1, sin 2t, sin 2t}, so CHSH >= 2
        # and T never vanishes
        states = [
            [1, 0, 0, 0],
            [0, 0, 0, 1j],
            [1 / SQ2, 0, 0, 1 / SQ2],
            [1 / SQ2, 0, 0, -1 / SQ2],
            [0, 1 / SQ2, 1 / SQ2, 0],
            [0, 1 / SQ2, -1 / SQ2, 0],
        ]
        for _ in range(200):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            states.append(psi)
            states.append(np.kron(random_alpha(rng, 2), random_alpha(rng, 2)))
            states.append(psi * (rng.random(4) < 0.5) + np.eye(4)[rng.integers(4)])
        for psi in states:
            psi = np.asarray(psi, dtype=complex)
            res = fo.chsh_max(fo.TwoQubitState(psi / np.linalg.norm(psi)))
            assert res.chsh >= 2.0 - 1e-9

    def test_settings_self_check_raises_fockopt_error(self, monkeypatch):
        monkeypatch.setattr(bell, "_chsh", lambda probs: 0.0)
        with pytest.raises(InvalidParameter, match="settings reproduce"):
            fo.chsh_max(fo.TwoQubitState([0, 1 / SQ2, -1 / SQ2, 0]))

    def test_settings_reproduce_value(self, rng):
        # <psi| A x B |psi> with the observable A = basis diag(1, -1) basis^dag
        # of each returned basis, by np.kron
        for chi in [*self.degenerate_states(), *self.random_states(rng, 50)]:
            res = fo.chsh_max(chi)
            a1, a2, b1, b2 = (
                basis @ np.diag([1, -1]) @ basis.conj().T
                for basis in res.settings_a + res.settings_b
            )
            psi = chi.amplitudes
            e = [[np.vdot(psi, np.kron(a, b) @ psi).real for b in (b1, b2)] for a in (a1, a2)]
            direct = e[0][0] + e[0][1] + e[1][0] - e[1][1]
            assert abs(direct - res.chsh) < 1e-12

    def test_settings_are_continuous_in_the_state(self, rng):
        # away from l0 = l1 the Schmidt frame is unique, so float dust in the
        # amplitudes must not rotate the settings
        for chi in self.random_states(rng, 200):
            dust = 1e-15 * (rng.normal(size=4) + 1j * rng.normal(size=4))
            near = fo.TwoQubitState(chi.amplitudes + dust)
            res, res_near = fo.chsh_max(chi), fo.chsh_max(near)
            for basis, basis_near in zip(
                res.settings_a + res.settings_b, res_near.settings_a + res_near.settings_b
            ):
                assert np.abs(basis - basis_near).max() < 1e-9

    @staticmethod
    def degenerate_states():
        """Two-qubit states with equal or zero Schmidt coefficients:
        products, the four Bell states, |uu> and a phase-rotated Bell
        state."""
        yield fo.TwoQubitState([1, 0, 0, 0])
        yield fo.TwoQubitState(np.kron([0.6, 0.8j], [1 / SQ2, -1 / SQ2]))
        yield fo.TwoQubitState(np.kron([1, 0], [0.28, 0.96]))
        yield fo.TwoQubitState([0, 1 / SQ2, -1 / SQ2, 0])
        yield fo.TwoQubitState([0, 1 / SQ2, 1 / SQ2, 0])
        yield fo.TwoQubitState([1 / SQ2, 0, 0, 1 / SQ2])
        yield fo.TwoQubitState([1 / SQ2, 0, 0, -1 / SQ2])
        yield fo.TwoQubitState([0, 1 / SQ2, np.exp(0.7j) / SQ2, 0])

    def test_value_matches_eigenvalue_oracle(self, rng):
        # Horodecki: 2*sqrt(l1 + l2) from the top eigenvalues of T^T T
        for chi in [*self.degenerate_states(), *self.random_states(rng, 200)]:
            t = correlation_matrix(chi)
            lam = np.linalg.eigvalsh(t.T @ t)
            expected = 2.0 * math.sqrt(max(lam[2] + lam[1], 0.0))
            assert abs(fo.chsh_max(chi).chsh - expected) < 1e-14

    def test_rank_one_settings_are_unit_bases(self, rng):
        # a product state has rank-1 T: the second singular direction is
        # fixed by nothing but orthogonality, and must still be a unit vector
        products = [chi for chi in self.degenerate_states() if is_product(chi)]
        for _ in range(20):
            products.append(fo.TwoQubitState(np.kron(random_alpha(rng, 2), random_alpha(rng, 2))))
        for chi in products:
            assert np.linalg.matrix_rank(correlation_matrix(chi), tol=1e-9) == 1
            res = fo.chsh_max(chi)
            for basis in res.settings_a + res.settings_b:
                assert basis.shape == (2, 2)
                assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) < 1e-12
                assert abs(np.linalg.norm(bloch_vector(basis)) - 1.0) < 1e-12

    def test_bounds_random(self, rng):
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            res = fo.chsh_max(fo.TwoQubitState(v / np.linalg.norm(v)))
            assert 0.0 <= res.chsh <= CHSH_TSIRELSON + 1e-9

    def test_gisin_equivalence(self, rng):
        # entanglement and violation coincide for two-qubit pure states
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            chi = fo.TwoQubitState(v / np.linalg.norm(v))
            res = fo.chsh_max(chi)
            assert is_product(chi) == (res.chsh <= 2.0 + 1e-9)
        for _ in range(5):
            q1 = random_alpha(rng, 2)
            q2 = random_alpha(rng, 2)
            chi = fo.TwoQubitState(np.kron(q1, q2))
            assert is_product(chi)
            assert fo.chsh_max(chi).chsh <= 2.0 + 1e-9


class TestDualRailMeasurement:
    def test_statistics_match_born_rule(self, rng):
        # the measurement stage of replay_witness: one splitter carrying the
        # conjugated basis maps its first outcome onto the pair's first rail
        for _ in range(10):
            basis = random_unitary(rng, 2)
            q = random_alpha(rng, 2)
            qubit = fo.FockState(fo.BOSON, 2, {(1, 0): q[0], (0, 1): q[1]})
            circuit = fo.Circuit(
                2, [fo.BeamSplitter((0, 1), basis.conj()), fo.Detector(0), fo.Detector(1)]
            )
            stats = fo.detector_statistics(qubit, circuit)
            p_plus = abs(np.vdot(basis[:, 0], q)) ** 2
            assert abs(stats.distribution.get((1, 0), 0.0) - p_plus) < 1e-9
            assert abs(stats.distribution.get((0, 1), 0.0) - (1 - p_plus)) < 1e-9


class TestRunFilteredYS:
    def test_binomial_state_not_violating(self, rng):
        phi = fo.single_mode_state(random_alpha(rng, 2), 3)
        for s in (0, 1):
            res = filtered_test(phi, s)
            assert not res.violated
            assert abs(res.chsh - 2.0) < 1e-6

    def test_21_state(self):
        phi = fo.make_number_state((2, 1))
        res1 = filtered_test(phi, 1)
        assert abs(res1.chsh - CHSH_TSIRELSON) < 1e-9
        res0 = filtered_test(phi, 0)
        assert abs(res0.chsh - 2.0) < 1e-9

    def test_success_probability_is_herald_times_postselection(self):
        phi = fo.make_number_state((2, 1))
        circuit = two_mode_stages(phi)[1]
        _, p_herald = fo.run_circuit(fo.embed(phi, 4, (0, 1)), circuit)
        res = stage_test(phi, circuit)
        assert abs(res.success_probability - 0.5 * p_herald) < 1e-12

    def test_noon3_filter_blind(self):
        noon = two_mode_state([1 / SQ2, 0, 0, 1 / SQ2])
        res = filtered_test(noon, 0)
        assert abs(res.chsh - 2.0) < 1e-9

    def test_heralded_state_matches_binomial_expansion(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            beta = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            beta /= np.linalg.norm(beta)
            phi = two_mode_state(beta)
            for s in range(n - 1):
                expected = filter_heralded_oracle(beta, n, s)
                norm = math.sqrt(sum(abs(a) ** 2 for a in expected.values()))
                circuit = two_mode_stages(phi)[s]
                try:
                    prepared, _ = fo.run_circuit(fo.embed(phi, 4, (0, 1)), circuit)
                except ZeroOutcome:
                    assert norm < 1e-7
                    continue
                reference = fo.FockState(
                    fo.BOSON, 2, {k: v / norm for k, v in expected.items()}
                )
                assert abs(fidelity(prepared, reference) - 1.0) < 1e-9


class TestRunErasureYS:
    def test_balanced_noon3(self):
        noon = two_mode_state([1 / SQ2, 0, 0, 1 / SQ2])
        res = stage_test(noon, erasure_stage(noon))
        assert abs(res.chsh - CHSH_TSIRELSON) < 1e-9

    def test_all_in_one_mode_stays_local(self):
        phi = fo.make_number_state((0, 3))
        res = stage_test(phi, erasure_stage(phi))
        assert abs(res.chsh - 2.0) < 1e-9

    def test_unbalanced_noon4_hand_value(self):
        noon = two_mode_state([0.6, 0, 0, 0, 0.8])
        res = stage_test(noon, erasure_stage(noon))
        assert abs(res.chsh - 2.0 * math.sqrt(1.0 + 0.96**2)) < 1e-9
        assert res.violated

    def test_heralded_state_is_pair_combination(self, rng):
        # event-ready amplitudes carry (b_N, b_0) on (a1^2, a2^2) regardless
        # of phases; checked by direct expansion through the circuit
        for _ in range(5):
            n = int(rng.integers(2, 6))
            b0, bn = random_alpha(rng, 2)
            beta = [b0] + [0.0] * (n - 1) + [bn]
            phi = two_mode_state(beta)
            prepared, _ = fo.run_circuit(fo.embed(phi, 4, (0, 1)), erasure_stage(phi))
            reference = fo.FockState(
                fo.BOSON, 2, {(2, 0): bn * SQ2, (0, 2): b0 * SQ2}, normalized=False
            ).normalized()
            assert abs(fidelity(prepared, reference) - 1.0) < 1e-9

    def test_filters_then_one_erasure_stage(self, rng):
        # every two-mode state, with or without middle coefficients, gets the
        # N-1 filter stages and then exactly one erasure stage
        states = [two_mode_state([0.5, 0.5, 0.5, 0.5]), two_mode_state([0.6, 0, 0, 0, 0.8])]
        states += [random_state(rng, n, 2) for n in range(2, 7)]
        for phi in states:
            n = phi.n_particles
            stages = [circuit.elements for circuit in two_mode_stages(phi)]
            assert len(stages) == n
            for s, elements in enumerate(stages[:-1]):
                assert elements[2:] == (fo.Detector(2, s), fo.Detector(3, n - 2 - s))
            *_, erase, det_a, det_b = stages[-1]
            assert erase.modes == (2, 3)
            np.testing.assert_array_equal(erase.matrix, fo.hadamard())
            assert (det_a, det_b) == (fo.Detector(2, n - 2), fo.Detector(3, 0))
            assert len(stages[-1]) == 5

    def test_find_witness_runs_the_same_stage(self):
        noon = two_mode_state([0.6, 0, 0, 0, 0.8])
        wit = fo.find_witness(noon)
        assert repr(wit.circuit) == repr(erasure_stage(noon))
        # the stage maps and the circuit run round differently in the last bit
        chsh = stage_test(noon, erasure_stage(noon)).chsh
        assert abs(wit.result.chsh - chsh) <= 4 * math.ulp(chsh)


class TestFindWitness:
    def test_fermion_pair(self):
        state = fo.make_number_state((1, 1), fo.FERMION)
        wit = fo.find_witness(state)
        assert abs(wit.result.chsh - CHSH_TSIRELSON) < 1e-9
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-6

    def test_fermion_many_modes(self, rng):
        state = random_state(rng, 3, 5, fo.FERMION)
        wit = fo.find_witness(state)
        assert abs(wit.result.chsh - CHSH_TSIRELSON) < 1e-9
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-6

    def test_bell_state(self):
        bell = superpose(
            [(1, fo.make_number_state((1, 0, 1, 0))), (1, fo.make_number_state((0, 1, 0, 1)))]
        )
        wit = fo.find_witness(bell)
        assert wit is not None and wit.result.chsh > 2.0 + 1e-6
        assert abs(fo.replay_witness(bell, wit) - wit.result.chsh) < 1e-6

    def test_occupied_pair_state(self):
        state = fo.make_number_state((2, 2))
        wit = fo.find_witness(state)
        assert wit is not None and wit.result.chsh > 2.0 + 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_balanced_noon(self, n):
        noon = superpose(
            [
                (1, fo.make_number_state((n,) + (0,))),
                (1, fo.make_number_state((0,) + (n,))),
            ]
        )
        wit = fo.find_witness(noon)
        assert abs(wit.result.chsh - CHSH_TSIRELSON) < 1e-6
        assert abs(fo.replay_witness(noon, wit) - wit.result.chsh) < 1e-6

    def test_single_mode_states_have_no_witness(self, rng):
        state = fo.single_mode_state(random_alpha(rng, 4), 3)
        assert fo.find_witness(state) is None

    @pytest.mark.parametrize(
        "state",
        [
            fo.make_number_state((80, 0)),
            fo.single_mode_state(random_alpha(np.random.default_rng(6), 4), 6),
        ],
        ids=["N80-in-one-mode", "random-M4-N6"],
    )
    def test_single_mode_states_run_no_candidate(self, monkeypatch, state):
        # the classifier's verdict alone answers: no herald prefix and no
        # candidate runs.  A fermion candidate is a herald, a boson stage its
        # stage map, and every candidate is post-selected.
        def refuse(*args):
            raise AssertionError("the search ran for a single-mode state")

        for name in ("herald", "run_circuit", "_stage_maps", "_postselect"):
            monkeypatch.setattr(bell, name, refuse)
        assert fo.find_witness(state) is None

    def test_noon_image_found_by_erasure(self):
        # the image of a N00N state (N = 8) under a random 4-mode unitary:
        # only the erasure stage, no longer reserved for exact NOON states,
        # sees its violation
        rng = np.random.default_rng(293)
        u = random_unitary(rng, 4)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        state = superpose(
            [(1, fo.single_mode_state(u[0], 8)), (phase, fo.single_mode_state(u[1], 8))]
        )
        wit = fo.find_witness(state)
        assert wit is not None and wit.result.violated
        *_, erase, _, _ = wit.circuit.elements
        assert isinstance(erase, fo.BeamSplitter) and erase.modes == (4, 5)
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-9

    def test_joint_herald_below_cutoff_is_no_witness(self):
        # after the zero-count herald on the third mode (p = 2e-14) the
        # branch is |1,1>, whose first stage violates maximally; each herald
        # fires on its own branch, but jointly they fire with 5e-15: the
        # whole circuit never fires, so replay could not run it
        state = fo.FockState(
            fo.BOSON, 3, {(0, 0, 2): math.sqrt(1 - 2e-14), (1, 1, 0): math.sqrt(2e-14)}
        )
        branch, p_zero = fo.herald(state, {2: 0})
        stage = two_mode_stages(branch)[0]
        _, p_stage = fo.run_circuit(fo.embed(branch, 4, (0, 1)), stage)
        assert min(p_zero, p_stage) >= HERALD_CUTOFF > p_zero * p_stage
        assert abs(stage_test(branch, stage).chsh - CHSH_TSIRELSON) < 1e-9
        assert fo.find_witness(state) is None

    def test_fermion_herald_below_cutoff_is_skipped(self):
        # the first term's companion herald, {0: 0, 1: 0}, fires with 1e-16:
        # the search skips it and heralds the second term's companions
        terms = {(0, 0, 1, 1): 1e-8, (1, 1, 0, 0): 1.0}
        state = fo.FockState(fo.FERMION, 4, terms, normalized=False).normalized()
        with pytest.raises(ZeroOutcome):
            fo.herald(state, {0: 0, 1: 0})
        wit = fo.find_witness(state)
        assert wit.circuit.heralds == {2: 0, 3: 0}
        assert abs(wit.result.chsh - CHSH_TSIRELSON) < 1e-9
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-9

    def test_many_particles_need_no_sector_evolution(self, monkeypatch):
        # N = 40 on two modes: the stage maps find the first filter's witness
        # with the sector kernel refused; the stage evolution they replace
        # gave the same circuit with these CHSH and probability
        def refuse(*args):
            raise AssertionError("the search evolved a sector")

        state = random_state(np.random.default_rng(5), 40, 2)
        # the splitter map is built through the kernel once, on first use
        bell._splitter_map(fo.BOSON)
        with monkeypatch.context() as patch:
            patch.setattr(fo.states, "_evolve_terms", refuse)
            patch.setattr(fo.states, "_evolve_vector", refuse)
            wit = fo.find_witness(state)
        first = next(fo.two_mode_preparations(40, (0, 1), (2, 3)))
        assert repr(wit.circuit) == repr(fo.Circuit(4, first))
        assert abs(wit.result.chsh - 2.0466473393768783) <= 1e-12
        p = 7.295340102813264e-12
        assert abs(wit.result.success_probability - p) <= 1e-12 * p
        # replay runs the whole circuit through the kernel
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-9

    @pytest.mark.parametrize(
        "alpha, n, other, weight, p",
        [
            ([0.6, 0.8], 2, (0, 1, 1), 1.0, 0.0225),
            ([0.6, 0.8j], 3, (1, 1, 1), 0.7, 0.01894228187919462),
        ],
    )
    def test_single_mode_zero_branch_is_rotated(self, alpha, n, other, weight, p):
        # heralding mode 2 empty leaves the single-mode branch of alpha, so
        # the search rotates that mode onto mode 1 before the per-count
        # heralds on it: the witness starts with the rotation, which takes
        # the branch to |0, N>
        state = superpose(
            [(1, fo.single_mode_state(alpha + [0], n)), (weight, fo.make_number_state(other))]
        )
        wit = fo.find_witness(state)
        rot = wit.circuit.elements[0]
        assert isinstance(rot, fo.BeamSplitter) and rot.modes == (0, 1)
        branch = fo.states.evolve(fo.single_mode_state(alpha, n), [((0, 1), rot.matrix)])
        assert abs(abs(branch.amplitude((0, n))) - 1.0) < 1e-12
        assert abs(wit.result.chsh - CHSH_TSIRELSON) < 1e-12
        assert abs(wit.result.success_probability - p) < 1e-12 * p
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-12

    def test_heralds_that_never_fire_are_skipped(self, monkeypatch):
        # the top-level herald of mode 1 at count 0 leaves |1, 1, 2> on modes
        # 0, 2 and 3.  There the rest herald {2: 0} never fires, so the branch
        # has no verdict, and the per-count herald {1: 0} never fires either
        # and is skipped before {1: 1} gives the witness
        state = fo.FockState(fo.BOSON, 4, {(0, 4, 0, 0): 0.8, (1, 0, 1, 2): 0.6})
        raised = []

        def counting(phi, required):
            try:
                return fo.herald(phi, required)
            except ZeroOutcome:
                raised.append((phi.n_modes, dict(required)))
                raise

        monkeypatch.setattr(bell, "herald", counting)
        wit = fo.find_witness(state)
        assert raised == [(3, {2: 0}), (3, {1: 0})]
        assert abs(wit.result.chsh - CHSH_TSIRELSON) < 1e-12
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-9

    def test_single_particle_no_witness(self, rng):
        assert fo.find_witness(random_state(rng, 1, 3)) is None

    def test_vacuum_mode_then_noon_needs_fallback(self):
        # no particles in mode 1, entanglement hidden on modes (2,3)
        state = superpose(
            [(1, fo.make_number_state((0, 2, 0))), (1, fo.make_number_state((0, 0, 2)))]
        )
        wit = fo.find_witness(state)
        assert wit is not None
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-6

    def test_agreement_with_classifier(self, rng):
        for _ in range(15):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                state = random_state(rng, n, m)
            else:
                state = fo.single_mode_state(random_alpha(rng, m), n)
            single = fo.is_single_mode_type(state).single_mode
            wit = fo.find_witness(state)
            assert (wit is None) == single

    def test_deterministic(self, rng):
        state = random_state(rng, 3, 3)
        w1 = fo.find_witness(state)
        w2 = fo.find_witness(state)
        assert repr(w1.circuit) == repr(w2.circuit)
        assert w1.result.chsh == w2.result.chsh

    @pytest.mark.parametrize("field", ["chsh", "success_probability"])
    @pytest.mark.parametrize("value", ["inf", "2.5", True, "nan", math.inf, math.nan, None, [2.5]])
    def test_file_numbers_checked(self, rng, field, value):
        data = fo.witness_to_dict(fo.find_witness(random_state(rng, 2, 3)))
        data[field] = value
        with pytest.raises(fo.InvalidFile):
            fo.witness_from_dict(data)

    def test_serialization_round_trip(self, rng):
        state = random_state(rng, 2, 3)
        wit = fo.find_witness(state)
        assert wit is not None
        data = fo.witness_to_dict(wit)
        back = fo.witness_from_dict(data)
        assert abs(fo.replay_witness(state, back) - wit.result.chsh) < 1e-6
        assert data["parties"] == {
            "alice": [m + 1 for m in ALICE_RAILS],
            "bob": [m + 1 for m in BOB_RAILS],
        }


def relabeled(element, modes):
    """``element`` with each mode j moved to ``modes[j]``."""
    if isinstance(element, fo.Detector):
        return fo.Detector(modes[element.mode], element.herald)
    return fo.BeamSplitter(tuple(modes[j] for j in element.modes), element.matrix)


def same_element(a, b):
    """Equal elements, splitter matrices within 1e-12."""
    if isinstance(a, fo.BeamSplitter):
        return (
            isinstance(b, fo.BeamSplitter)
            and a.modes == b.modes
            and np.abs(a.matrix - b.matrix).max() <= 1e-12
        )
    return a == b


class TestEmptyModes:
    """A mode that no term occupies heralds 0 with probability 1, so the
    boson search heralds all such modes in one step and goes on with the
    occupied modes alone."""

    def test_witness_is_the_reduced_states(self):
        # the witness of the state with its empty modes dropped, behind one
        # zero-count detector per empty mode and moved onto the original
        # modes and ancillas
        rng = np.random.default_rng(2606)
        found = 0
        for _ in range(40):
            state, reduced, positions = state_with_empty_modes(rng)
            wit, expected = fo.find_witness(state), fo.find_witness(reduced)
            assert (wit is None) == (expected is None)
            if wit is None:
                continue
            found += 1
            for field in ("chsh", "success_probability"):
                value = getattr(expected.result, field)
                assert abs(getattr(wit.result, field) - value) <= 4 * math.ulp(value)
            m = state.n_modes
            empty = sorted(set(range(m)) - set(positions))
            modes = positions + [m, m + 1]
            want = [fo.Detector(j, 0) for j in empty]
            want += [relabeled(el, modes) for el in expected.circuit.elements]
            assert wit.circuit.n_modes == m + 2
            assert len(wit.circuit.elements) == len(want)
            assert all(map(same_element, wit.circuit.elements, want))
            assert abs(fo.replay_witness(state, wit) - wit.result.chsh) <= 1e-9
        assert found >= 30

    def test_empty_modes_cost_one_herald(self, monkeypatch):
        # N = 8 on modes 3 and 5 of 6: the search's one herald drops the four
        # empty modes, and the two-mode stages classify nothing
        calls = dict.fromkeys(("is_single_mode_type", "herald"), 0)
        for name in calls:

            def counted(*args, _name=name, _original=getattr(bell, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(bell, name, counted)
        state = fo.embed(random_state(np.random.default_rng(8), 8, 2), 6, (3, 5))
        assert fo.find_witness(state) is not None
        assert calls["is_single_mode_type"] <= 2
        assert calls["herald"] <= 1


# settings per party (Alice, Bob) other than two each
SETTING_COUNTS = [(1, 1), (0, 0), (3, 3), (1, 2), (2, 3)]


def with_settings(experiment, settings_a, settings_b):
    result = replace(experiment.result, settings_a=settings_a, settings_b=settings_b)
    return replace(experiment, result=result)


class TestReplaySettings:
    """Replay and the witness reader accept exactly two unitary 2x2 settings
    per party."""

    @pytest.fixture
    def witness(self, rng):
        state = random_state(rng, 2, 3)
        return state, fo.find_witness(state)

    @pytest.mark.parametrize("counts", SETTING_COUNTS)
    def test_reader_rejects_setting_counts(self, witness, counts):
        data = fo.witness_to_dict(witness[1])
        for party, k in zip(("party_A", "party_B"), counts):
            data["settings"][party] = (data["settings"][party] * 2)[:k]
        with pytest.raises(fo.InvalidFile):
            fo.witness_from_dict(data)

    @pytest.mark.parametrize("entry", [[5.0, 0.0], [0.0, 0.0]])
    def test_reader_rejects_non_unitary_settings(self, witness, entry):
        data = fo.witness_to_dict(witness[1])
        data["settings"]["party_B"][1][0][0] = entry
        with pytest.raises(fo.InvalidFile):
            fo.witness_from_dict(data)

    @pytest.mark.parametrize("counts", SETTING_COUNTS)
    def test_replay_rejects_setting_counts(self, witness, counts):
        state, wit = witness
        res = wit.result
        bad = with_settings(
            wit, (res.settings_a * 2)[: counts[0]], (res.settings_b * 2)[: counts[1]]
        )
        with pytest.raises(ShapeMismatch):
            fo.replay_witness(state, bad)

    def test_replay_rejects_wrongly_shaped_settings(self, witness):
        state, wit = witness
        bad = with_settings(wit, (np.eye(3), np.eye(2)), wit.result.settings_b)
        with pytest.raises(ShapeMismatch):
            fo.replay_witness(state, bad)

    @pytest.mark.parametrize("entry", ["x", None, [1.0, 0.0], {}])
    def test_replay_rejects_non_numeric_settings(self, witness, entry):
        state, wit = witness
        first = wit.result.settings_a[0].tolist()
        first[0][0] = entry
        bad = with_settings(wit, (first, wit.result.settings_a[1]), wit.result.settings_b)
        with pytest.raises(FockoptError):
            fo.replay_witness(state, bad)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, 2.0])
    def test_replay_rejects_non_unitary_settings(self, witness, entry):
        state, wit = witness
        last = wit.result.settings_b[1].copy()
        last[1, 1] = entry
        bad = with_settings(wit, wit.result.settings_a, (wit.result.settings_b[0], last))
        with pytest.raises(NotUnitary):
            fo.replay_witness(state, bad)


class TestReplay:
    """Replay runs all four setting pairs in one switched stage: the compiled
    switch's gates and the four setting gates, through the kernel."""

    def test_matches_one_run_per_setting_pair(self):
        # random states and unitarily rotated ones (the image of a number
        # state, of a N00N state), bosons and fermions
        rng = np.random.default_rng(23)
        states = []
        for statistics, shapes in (
            (fo.BOSON, [(2, 2), (2, 3), (3, 3), (4, 2), (3, 4)]),
            (fo.FERMION, [(2, 2), (2, 3), (2, 4), (3, 4)]),
        ):
            for n, m in shapes:
                states.append(random_state(rng, n, m, statistics))
                occ = np.bincount(np.arange(n) % m, minlength=m)
                number = fo.make_number_state(occ.tolist(), statistics)
                states.append(fo.apply_mode_unitary(number, random_unitary(rng, m)))
        u = random_unitary(rng, 3)
        noon = superpose([(1, fo.single_mode_state(u[0], 4)), (1j, fo.single_mode_state(u[1], 4))])
        for state in states + [noon]:
            wit = fo.find_witness(state)
            assert wit is not None
            replayed = fo.replay_witness(state, wit)
            assert abs(replayed - oracle_replay_witness(state, wit)) <= 1e-12
            assert abs(replayed - wit.result.chsh) <= SETTINGS_CHECK_TOL

    def test_single_mode_states_stay_local(self):
        # the paper's local half: a single-mode state stays (b^dag)^N under
        # passive optics and heralds, so one particle per party leaves a
        # product state, and no witness circuit violates on it.  A herald
        # that never fires may skip a replay, never most of them.
        rng = np.random.default_rng(2404)
        replays = 0
        for i in range(60):
            n, m = (int(k) for k in rng.integers(2, 5, size=2))
            if i % 2:
                state = random_state(rng, n, m)
            else:
                a, b = (fo.single_mode_state(random_alpha(rng, m), n) for _ in range(2))
                state = superpose([(1, a), (0.3, b)])
            wit = fo.find_witness(state)
            if wit is None:
                continue
            for _ in range(3):
                local = fo.single_mode_state(random_alpha(rng, m), n)
                try:
                    chsh = fo.replay_witness(local, wit)
                except ZeroOutcome:
                    continue
                assert chsh <= 2.0 + VIOLATION_MARGIN
                replays += 1
        assert replays >= 150

    def test_rejects_a_state_the_circuit_does_not_fit(self, monkeypatch):
        # the witness of a three-particle state heralds one particle; on four
        # particles it leaves three on its output modes, and replay stops
        # before the switched stage: it neither reads the switch table nor
        # runs a setting gate
        def refuse(*args):
            raise AssertionError("replay ran the switched stage")

        wit = fo.find_witness(fo.FockState(fo.BOSON, 3, {(2, 1, 0): 0.6, (0, 1, 2): 0.8}))
        other = fo.FockState(fo.BOSON, 3, {(3, 1, 0): 0.6, (0, 1, 3): 0.8})
        monkeypatch.setattr(bell, "_evolve_vector", refuse)
        monkeypatch.setattr(bell, "_switched", refuse)
        with pytest.raises(ShapeMismatch):
            fo.replay_witness(other, wit)

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION], ids=["boson", "fermion"])
    def test_switch_table_matches_evolve(self, statistics):
        # column r is the compiled switch run by evolve on basis state r of
        # the pair sector placed on modes (0, 1)
        fermionic = statistics is fo.FERMION
        transfer, _ = bell._switched(statistics)
        pairs = fo.states._sector(2, 2, fermionic)[0].tolist()
        assert transfer.shape == (len(fo.states._sector(8, 2, fermionic)[0]), len(pairs))
        for column, occ in zip(transfer.T, pairs):
            placed = fo.embed(fo.make_number_state(occ, statistics), 8, (0, 1))
            out = fo.states.evolve(placed, bell._SWITCH._gates)
            expected = np.zeros(len(column), dtype=complex)
            expected[fo.states._ranks(8, 2, fermionic, out._occ)] = out._amp
            assert np.abs(column - expected).max() <= 1e-15

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION], ids=["boson", "fermion"])
    def test_settings_step_matches_evolve(self, statistics):
        # the second step of replay: the switch table, the four setting gates
        # on the dense vector and the patterns read at their ranks, against
        # evolve over the switch's gates and the settings, read through
        # _PATTERNS
        rng = np.random.default_rng(31)
        fermionic = statistics is fo.FERMION
        transfer, patterns = bell._switched(statistics)
        stations = bell._STATIONS[0] + bell._STATIONS[1]
        for _ in range(50):
            pair = random_state(rng, 2, 2, statistics)
            settings = tuple(zip(stations, (random_unitary(rng, 2) for _ in range(4))))
            vec = np.zeros(transfer.shape[1], dtype=complex)
            vec[fo.states._ranks(2, 2, fermionic, pair._occ)] = pair._amp
            out = fo.states._evolve_vector(fermionic, 8, 2, transfer @ vec, settings)
            placed = fo.embed(pair, 8, (0, 1))
            amps = dict(fo.states.evolve(placed, bell._SWITCH._gates + settings).items())
            expected = np.array([amps.get(k, 0j) for k in bell._PATTERNS])
            assert np.abs(out.take(patterns) - expected).max() <= 1e-14

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION], ids=["boson", "fermion"])
    def test_switch_table_is_built_once_and_read_only(self, statistics):
        first = bell._switched(statistics)
        again = bell._switched(statistics)
        assert all(a is b for a, b in zip(first, again))
        assert not any(a.flags.writeable for a in first)


@st.composite
def small_states(draw):
    """A small boson or fermion state: random, or of single-mode type."""
    fermion = draw(st.booleans())
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, m if fermion else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    statistics = fo.FERMION if fermion else fo.BOSON
    if draw(st.booleans()) and (n == 1 or not fermion):
        single = fo.single_mode_state(random_alpha(rng, m), n)
        # one particle has the same amplitudes under either statistics
        return fo.FockState(statistics, m, dict(single.items())) if fermion else single
    return random_state(rng, n, m, statistics)


class TestWitnessProperties:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(state=small_states())
    def test_verdict_gates_and_witness_replays(self, state):
        wit = fo.find_witness(state)
        if fo.is_single_mode_type(state).single_mode:
            assert wit is None
            return
        if wit is None:
            return
        assert wit.result.chsh > 2.0 + VIOLATION_MARGIN
        assert 0.0 < wit.result.success_probability <= 1.0
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-9


@st.composite
def witness_states(draw):
    """A random boson state with M and N in 2..5, or a fermion state with
    2 <= N <= M <= 5, placed on M of its own M to M + 2 modes: the others
    stay empty."""
    fermion = draw(st.booleans())
    m = draw(st.integers(2, 5))
    n = draw(st.integers(2, m if fermion else 5))
    extra = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(rng, n, m, fo.FERMION if fermion else fo.BOSON)
    positions = sorted(rng.choice(m + extra, m, replace=False).tolist())
    return fo.embed(state, m + extra, positions)


class TestWitnessMatchesItsCircuit:
    # the search tests each stage on the branch it heralded; the whole
    # witness circuit, run once on the padded state, must agree with it

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(state=witness_states())
    def test_replay_and_herald_probability(self, state):
        wit = fo.find_witness(state)
        if wit is None:
            return
        assert abs(fo.replay_witness(state, wit) - wit.result.chsh) < 1e-12
        padded = fo.embed(state, wit.circuit.n_modes, range(state.n_modes))
        _, p_herald = fo.run_circuit(padded, wit.circuit)
        assert abs(wit.result.success_probability - 0.5 * p_herald) <= 1e-12 * p_herald

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(state=witness_states())
    def test_dict_round_trip_replays(self, state):
        # through JSON text, as the witness file holds it
        wit = fo.find_witness(state)
        if wit is None:
            return
        back = fo.witness_from_dict(json.loads(json.dumps(fo.witness_to_dict(wit))))
        assert repr(back.circuit) == repr(wit.circuit)
        assert abs(fo.replay_witness(state, back) - wit.result.chsh) < 1e-12


@st.composite
def two_particle_states(draw):
    """Two particles on two modes: a fermion pair with a random phase, or a
    boson state on a random nonempty subset of |2,0>, |1,1>, |0,2>."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return fo.FockState(fo.FERMION, 2, {(1, 1): np.exp(2j * math.pi * rng.random())})
    support = draw(st.sets(st.sampled_from([(2, 0), (1, 1), (0, 2)]), min_size=1))
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    terms = dict(zip(sorted(support), amps))
    return fo.FockState(fo.BOSON, 2, terms, normalized=False).normalized()


class TestShortcutsMatchTheCircuits:
    """The splitter stage's constant map and the two-mode stage maps against
    the circuit runs they replace."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(phi=two_particle_states())
    def test_splitter_map(self, phi):
        chi, prob = fo.yurke_stoler_postselect(phi)
        amps, p_circuit = oracle_splitter_stage(phi)
        assert np.abs(chi.amplitudes - amps).max() <= 1e-14
        assert abs(prob - p_circuit) <= 1e-14

    def test_stage_maps(self):
        # every stage circuit of two_mode_preparations for N = 2..12; with
        # ``top`` mode 1 holds at most one particle, so the filters s < N-3,
        # the first ones, never fire
        rng = np.random.default_rng(17)
        for n, top in itertools.product(range(2, 13), (False, True)):
            beta = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            if top:
                beta[: n - 1] = 0.0
            phi = two_mode_state(beta / np.linalg.norm(beta))
            expected = []
            for circuit in two_mode_stages(phi):
                try:
                    expected.append((circuit, stage_test(phi, circuit)))
                except ZeroOutcome:
                    continue
            found = list(bell._boson_candidates(phi, [0, 1], (), 2))
            assert len(found) == len(expected) >= 1
            if top and n >= 4:
                assert len(found) < n
            for (circuit, res), (pair, p_herald, elements) in zip(expected, found):
                assert repr(fo.Circuit(4, elements)) == repr(circuit)
                chi, p_ys = bell._postselect(fo.BOSON, pair)
                assert abs(fo.chsh_max(chi).chsh - res.chsh) <= 1e-12
                p = res.success_probability
                assert abs(p_herald * p_ys - p) <= 1e-12 * p
        # one array per N, which no caller can change
        maps = bell._stage_maps(7)
        assert bell._stage_maps(7) is maps and not maps.flags.writeable

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockopt as fo
from fockopt.errors import InvalidParameter, ShapeMismatch
from helpers import (
    boson_occupations,
    detection_distribution,
    fidelity,
    multinomial,
    oracle_single_mode,
    phase_distance,
    random_alpha,
    random_state,
    random_unitary,
    run_limited,
    superpose,
)

SQ2 = math.sqrt(2.0)


class TestSingleModeState:
    def test_all_in_one_mode(self):
        s = fo.single_mode_state((1, 0), 3)
        assert abs(s.amplitude((3, 0)) - 1.0) < 1e-12

    def test_hadamard_image_of_20(self):
        s = fo.single_mode_state((1 / SQ2, 1 / SQ2), 2)
        assert abs(s.amplitude((2, 0)) - 0.5) < 1e-12
        assert abs(s.amplitude((1, 1)) - 1 / SQ2) < 1e-12
        assert abs(s.amplitude((0, 2)) - 0.5) < 1e-12

    def test_single_particle_superposition(self):
        s = fo.single_mode_state((1 / SQ2, 1j / SQ2), 1)
        assert abs(s.amplitude((1, 0)) - 1 / SQ2) < 1e-12
        assert abs(s.amplitude((0, 1)) - 1j / SQ2) < 1e-12

    def test_zero_particles_is_vacuum(self):
        s = fo.single_mode_state((0.6, 0.8j), 0)
        assert dict(s.items()) == {(0, 0): 1.0}

    @pytest.mark.parametrize("alpha", [[[1, 0], [0, 1]], 1.0, [], [0, 0]])
    def test_alpha_must_be_a_nonzero_vector(self, alpha):
        with pytest.raises(ShapeMismatch):
            fo.single_mode_state(alpha, 2)

    @pytest.mark.parametrize("alpha", [["a", 1], [[1, 2], [3]], [object(), 1], {"a": 1}])
    def test_non_numeric_alpha_rejected(self, alpha):
        # numpy's conversion raises a bare ValueError or TypeError for these
        with pytest.raises(InvalidParameter):
            fo.single_mode_state(alpha, 2)

    def test_huge_alpha_is_a_direction(self):
        # the norm of [1e200, 1e200] overflows unless alpha is scaled first
        huge = fo.single_mode_state([1e200, 1e200], 2)
        assert huge.items() == fo.single_mode_state([1, 1], 2).items()
        # |1.5e308 (1 + i)| itself is beyond the float range
        huge = dict(fo.single_mode_state([1.5e308 + 1.5e308j, 1.5e308], 2).items())
        unit = dict(fo.single_mode_state([1 + 1j, 1], 2).items())
        assert huge.keys() == unit.keys()
        assert max(abs(huge[occ] - amp) for occ, amp in unit.items()) < 1e-15

    @pytest.mark.parametrize("alpha", [[math.nan, 1], [math.inf, 1]])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidParameter):
            fo.single_mode_state(alpha, 2)

    def test_negative_particle_number_rejected(self):
        with pytest.raises(InvalidParameter):
            fo.single_mode_state((1.0, 0.0), -1)

    @pytest.mark.parametrize("n", [2.7, True, "2"])
    def test_non_integral_particle_number_rejected(self, n):
        # truncating 2.7 would silently give N = 2
        with pytest.raises(InvalidParameter):
            fo.single_mode_state((1.0, 1.0), n)

    def test_matches_evolved_reference(self, rng):
        # same state via explicit evolution of |N,0,...,0>
        u = random_unitary(rng, 4)
        evolved = fo.apply_mode_unitary(fo.make_number_state((3, 0, 0, 0)), u)
        direct = fo.single_mode_state(u[0], 3)
        assert abs(fidelity(evolved, direct) - 1.0) < 1e-10


def alpha_of(state):
    """The classifier's amplitude vector of a single-mode-type state."""
    verdict = fo.is_single_mode_type(state)
    assert verdict.single_mode
    return verdict.alpha


class TestExtractAlpha:
    def test_pure_mode(self):
        alpha = alpha_of(fo.make_number_state((3, 0, 0)))
        assert phase_distance(alpha, np.array([1.0, 0, 0])) < 1e-12

    def test_noon_rejected(self):
        noon = superpose(
            [(1, fo.make_number_state((2, 0))), (1, fo.make_number_state((0, 2)))]
        )
        verdict = fo.is_single_mode_type(noon)
        assert not verdict.single_mode and verdict.alpha is None

    def test_bell_state_rejected(self):
        bell = superpose(
            [(1, fo.make_number_state((1, 0, 1, 0))), (1, fo.make_number_state((0, 1, 0, 1)))]
        )
        verdict = fo.is_single_mode_type(bell)
        assert not verdict.single_mode and verdict.alpha is None

    def test_hadamard_image_inverted_by_hand(self):
        s = fo.single_mode_state((1 / SQ2, 1 / SQ2), 2)
        alpha = alpha_of(s)
        assert phase_distance(alpha, np.array([1 / SQ2, 1 / SQ2])) < 1e-9

    def test_round_trip_random(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 6))
            alpha = random_alpha(rng, m)
            recovered = alpha_of(fo.single_mode_state(alpha, n))
            assert phase_distance(alpha, recovered) < 1e-9

    def test_zero_entry_support(self, rng):
        # vanishing amplitude entries must come out exactly zero
        alpha = np.array([0.6, 0.0, 0.8j])
        recovered = alpha_of(fo.single_mode_state(alpha, 3))
        assert abs(recovered[1]) == 0.0
        assert phase_distance(alpha, recovered) < 1e-9

    def test_vacuum_has_no_alpha(self):
        vac = fo.FockState(fo.BOSON, 3, {(0, 0, 0): 1.0})
        verdict = fo.is_single_mode_type(vac)
        assert verdict.single_mode and verdict.alpha is None


class TestIsSingleModeType:
    def test_many_bosons_in_one_mode(self):
        # the rank table holds O(M N) entries: 20000 bosons in one of three
        # modes classify in a child under run_limited's address-space limit,
        # where a table of O(M N^2) entries would take 3 GiB
        script = (
            "import fockopt as fo\n"
            "state = fo.make_number_state(json.loads(sys.argv[1]))\n"
            "verdict = fo.is_single_mode_type(state)\n"
            "print(json.dumps([verdict.single_mode, abs(verdict.alpha).tolist()]))\n"
        )
        assert run_limited(script, [20000, 0, 0]) == [True, [1.0, 0.0, 0.0]]

    def test_fermion_pair_false(self):
        verdict = fo.is_single_mode_type(fo.make_number_state((1, 1), fo.FERMION))
        assert not verdict.single_mode

    def test_boson_pair_false(self):
        verdict = fo.is_single_mode_type(fo.make_number_state((1, 1)))
        assert not verdict.single_mode
        assert verdict.violation is not None

    def test_single_particle_always_true(self, rng):
        for statistics in (fo.BOSON, fo.FERMION):
            s = random_state(rng, 1, 4, statistics)
            assert fo.is_single_mode_type(s).single_mode

    def test_diagnostic_residual_reported(self, rng):
        s = random_state(rng, 2, 2)
        verdict = fo.is_single_mode_type(s)
        if not verdict.single_mode:
            assert verdict.residual > 0

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(m=st.integers(2, 4), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_class_invariant_under_unitaries(self, m, n, seed):
        # passive optics neither creates nor removes single-mode type: the
        # member's alpha follows as alpha @ U, and an outsider stays outside
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, m)
        alpha = random_alpha(rng, m)
        image = fo.is_single_mode_type(fo.apply_mode_unitary(fo.single_mode_state(alpha, n), u))
        assert image.single_mode
        assert phase_distance(image.alpha, alpha @ u) < 1e-9
        outsider = random_state(rng, n, m)
        assert not fo.is_single_mode_type(outsider).single_mode
        assert not fo.is_single_mode_type(fo.apply_mode_unitary(outsider, u)).single_mode

    def test_uniqueness_of_representation(self, rng):
        for _ in range(10):
            m, n = 3, 3
            a = random_alpha(rng, m)
            b = random_alpha(rng, m)
            if phase_distance(a, b) < 1e-6:
                continue
            fid = fidelity(fo.single_mode_state(a, n), fo.single_mode_state(b, n))
            assert fid < 1.0 - 1e-9

    @pytest.mark.parametrize("small", [0.005, 0.01])
    def test_tiny_support_entry(self, small):
        # the pure coefficient of the middle mode falls below the threshold
        # while its one-particle coefficient does not
        alpha = np.array([1.0, small, 0.5])
        alpha /= np.linalg.norm(alpha)
        verdict = fo.is_single_mode_type(fo.single_mode_state(alpha, 4))
        assert verdict.single_mode
        assert phase_distance(verdict.alpha, alpha) < 1e-9

    def test_random_alpha_sweep_n8_m5(self):
        rng = np.random.default_rng(20240818)
        for _ in range(60):
            alpha = random_alpha(rng, 5)
            verdict = fo.is_single_mode_type(fo.single_mode_state(alpha, 8))
            assert verdict.single_mode, verdict.violation
            assert phase_distance(verdict.alpha, alpha) < 1e-9

    @pytest.mark.parametrize("tol", [0.0, -1e-8, 1.0, 2.0, math.nan, math.inf])
    def test_tolerance_must_lie_in_unit_interval(self, tol):
        with pytest.raises(InvalidParameter):
            fo.is_single_mode_type(fo.make_number_state((2, 0)), tol=tol)

    def test_multinomial_detection_statistics(self, rng):
        m, n = 3, 4
        alpha = random_alpha(rng, m)
        dist = detection_distribution(fo.single_mode_state(alpha, n))
        probs = np.abs(alpha) ** 2
        for occ in boson_occupations(n, m):
            expected = multinomial(n, occ)
            for p, k in zip(probs, occ):
                expected *= p**k
            assert abs(dist.get(occ, 0.0) - expected) < 1e-10


def classifier_cases(rng, m, n):
    """A random boson state, a single-mode state, the near-single-mode states
    |a>^N + eps |b>^N for eps in {1e-2, 1e-6}, the random and the single-mode
    state between two vacuum modes, the latter also with float dust on every
    mode, and a random fermion state."""
    a, b = random_alpha(rng, m), random_alpha(rng, m)
    single = fo.single_mode_state(a, n)
    yield random_state(rng, n, m)
    yield single
    for eps in (1e-2, 1e-6):
        yield superpose([(1.0, single), (eps, fo.single_mode_state(b, n))])
    yield fo.embed(random_state(rng, n, m), m + 2, range(1, m + 1))
    wide = fo.embed(single, m + 2, range(1, m + 1))
    yield wide
    yield superpose([(1.0, wide), (1e-10, random_state(rng, n, m + 2))])
    yield random_state(rng, min(n, m), m, fo.FERMION)


def classifier_matches_oracle(state):
    """Compare ``is_single_mode_type`` with the term loop; return the verdict."""
    got = fo.is_single_mode_type(state)
    ref = oracle_single_mode(state)
    assert got.single_mode == ref.single_mode
    assert got.violation == ref.violation
    if ref.alpha is None:
        assert got.alpha is None
    else:
        assert phase_distance(got.alpha, ref.alpha) < 1e-9
    if math.isinf(ref.residual):
        assert math.isinf(got.residual)
    else:
        assert abs(got.residual - ref.residual) < 1e-12
    return got.single_mode


class TestClassifierMatchesTermLoop:
    def test_random_and_near_single_mode_states(self, rng):
        verdicts = [
            classifier_matches_oracle(state)
            for _ in range(20)
            for state in classifier_cases(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
        ]
        # both verdicts are exercised
        assert 20 <= sum(verdicts) <= len(verdicts) - 20

    @pytest.mark.parametrize("small", [0.005, 0.01])
    def test_tiny_support_entry(self, small):
        alpha = np.array([1.0, small, 0.5])
        assert classifier_matches_oracle(fo.single_mode_state(alpha, 4))

    def test_pair_and_vacuum(self):
        assert not classifier_matches_oracle(fo.make_number_state((1, 1)))
        assert classifier_matches_oracle(fo.make_number_state((0, 0, 0)))

    def test_sparse_noon_of_many_modes(self, monkeypatch):
        # 12 particles on 2 of 16 modes: only the 13 states of the support's
        # sector are built, not the C(27, 12) states of the register, and
        # only that sector's rank table
        built = []
        sector = fo.classify._sector
        monkeypatch.setattr(fo.classify, "_sector", lambda *key: built.append(key) or sector(*key))
        tables = []
        table = fo.states._rank_table
        monkeypatch.setattr(fo.states, "_rank_table", lambda *key: tables.append(key) or table(*key))
        rest = (0,) * 14
        noon = fo.FockState(fo.BOSON, 16, {(12, 0) + rest: 1, (0, 12) + rest: 1}, False)
        assert not classifier_matches_oracle(noon.normalized())
        assert fo.is_single_mode_type(noon.normalized()).violation == (0, 12) + rest
        assert built == [(2, 12, False)] * 2
        assert tables and set(tables) == {(2, 12, False)}

    def test_support_inside_a_larger_register(self, rng):
        # a random and a single-mode state on a random strict subset of the
        # modes, bare and with float dust on terms that reach every mode
        verdicts = []
        for _ in range(20):
            m = int(rng.integers(3, 8))
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, m))
            positions = sorted(rng.choice(m, k, replace=False).tolist())
            for inner in (random_state(rng, n, k), fo.single_mode_state(random_alpha(rng, k), n)):
                wide = fo.embed(inner, m, positions)
                verdicts.append(classifier_matches_oracle(wide))
                dusty = superpose([(1.0, wide), (1e-10, random_state(rng, n, m))])
                verdicts.append(classifier_matches_oracle(dusty))
        assert 20 <= sum(verdicts) <= len(verdicts) - 20

    def test_single_mode_state_with_a_zero_entry(self, rng):
        # the zero entry's mode carries no term, so it is off the support
        for _ in range(20):
            m = int(rng.integers(2, 7))
            alpha = random_alpha(rng, m)
            alpha[rng.integers(m)] = 0.0
            alpha /= np.linalg.norm(alpha)
            state = fo.single_mode_state(alpha, int(rng.integers(1, 6)))
            assert classifier_matches_oracle(state)
            assert phase_distance(fo.is_single_mode_type(state).alpha, alpha) < 1e-9

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_one_particle(self, rng, statistics):
        # every one-particle state is a_alpha^dag |0>
        for m in range(1, 7):
            state = random_state(rng, 1, m, statistics)
            assert classifier_matches_oracle(state)
            assert classifier_matches_oracle(fo.embed(state, m + 2, range(1, m + 1)))

    def test_sparse_single_mode_state_of_many_modes(self):
        a, b = 0.6, 0.8j
        rest = (0,) * 14
        terms = {
            (k, 12 - k) + rest: math.sqrt(math.comb(12, k)) * a**k * b ** (12 - k)
            for k in range(13)
        }
        state = fo.FockState(fo.BOSON, 16, terms)
        assert classifier_matches_oracle(state)
        alpha = fo.is_single_mode_type(state).alpha
        assert phase_distance(alpha, [a, b] + [0] * 14) < 1e-9

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(m=st.integers(2, 5), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_property(self, m, n, seed):
        for state in classifier_cases(np.random.default_rng(seed), m, n):
            classifier_matches_oracle(state)


class TestTransformAlpha:
    """The classifier's alpha of U|alpha, N> is alpha @ U, up to phase."""

    def test_hadamard_row_action(self):
        out = alpha_of(fo.apply_mode_unitary(fo.make_number_state((1, 0)), fo.hadamard()))
        assert phase_distance(out, np.array([1 / SQ2, 1 / SQ2])) < 1e-12

    def test_identity(self, rng):
        # one particle fixes alpha with its phase: the amplitudes are alpha
        alpha = random_alpha(rng, 3)
        evolved = fo.apply_mode_unitary(fo.single_mode_state(alpha, 1), np.eye(3))
        np.testing.assert_allclose(alpha_of(evolved), alpha)

    def test_norm_preserved(self, rng):
        alpha = random_alpha(rng, 4)
        u = random_unitary(rng, 4)
        out = alpha_of(fo.apply_mode_unitary(fo.single_mode_state(alpha, 3), u))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_equivariance_with_extraction(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 5))
            alpha = random_alpha(rng, m)
            u = random_unitary(rng, m)
            evolved = fo.apply_mode_unitary(fo.single_mode_state(alpha, n), u)
            assert phase_distance(alpha_of(evolved), alpha @ u) < 1e-9

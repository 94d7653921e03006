import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import fockopt as fo
from fockopt.errors import (
    InvalidFile,
    InvalidOccupation,
    InvalidParameter,
    NotUnitary,
    ShapeMismatch,
    ZeroOutcome,
    ZeroState,
)
from fockopt.tolerances import RECK_TOL
from helpers import (
    assert_states_close,
    circuit_unitary,
    detection_distribution,
    embedded_gate,
    fidelity,
    multinomial,
    oracle_amplitude,
    oracle_evolve,
    oracle_herald,
    oracle_pair_blocks,
    oracle_rank,
    oracle_reck_gates,
    random_state,
    random_unitary,
    sector_occupations,
    superpose,
)

SQ2 = math.sqrt(2.0)

_PAIR = fo.make_number_state((1, 1))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: superpose([("x", _PAIR)]), id="superpose-text"),
        pytest.param(lambda: fo.TwoQubitState(["a", 0, 0, 0]), id="two-qubit-text"),
        pytest.param(lambda: fo.TwoQubitState(["1", 0, 0, 0]), id="two-qubit-numeric-text"),
        pytest.param(lambda: fo.apply_mode_unitary(_PAIR, "abc"), id="unitary-text"),
        pytest.param(lambda: fo.apply_mode_unitary(_PAIR, [[1, 0], [0]]), id="unitary-ragged"),
        pytest.param(lambda: fo.BeamSplitter((0, 1), [[1, "a"], [0, 1]]), id="splitter-text"),
        pytest.param(lambda: fo.BeamSplitter((0, 1), [[1, None], [0, 1]]), id="splitter-none"),
        pytest.param(lambda: fo.TwoQubitState([1, None, 0, 0]), id="two-qubit-none"),
        pytest.param(lambda: fo.EpistemicSpec([1, None], 2), id="epistemic-none"),
        pytest.param(lambda: fo.reck_decompose("abc"), id="reck-text"),
        pytest.param(lambda: fo.PhaseShifter(0, "x"), id="phase-text"),
        pytest.param(lambda: fo.PhaseShifter(0, "1.5"), id="phase-numeric-text"),
        pytest.param(lambda: fo.PhaseShifter(0, None), id="phase-none"),
        pytest.param(lambda: fo.PhaseShifter(0, 1j), id="phase-complex"),
        pytest.param(lambda: fo.PhaseShifter(0, np.complex128(1j)), id="phase-numpy-complex"),
        pytest.param(lambda: fo.FockState("boson", 2, {(1, 1): "a"}), id="amplitude-text"),
        pytest.param(lambda: fo.FockState("anyon", 2, {(1, 1): 1}), id="statistics-anyon"),
        pytest.param(lambda: fo.is_single_mode_type(_PAIR, tol="x"), id="tolerance-text"),
        pytest.param(lambda: fo.PhaseShifter(0, True), id="phase-bool"),
        pytest.param(lambda: fo.FockState("boson", 1, {(1,): True}), id="amplitude-bool"),
        pytest.param(
            lambda: fo.FockState("boson", 1, {(1,): np.True_}), id="amplitude-numpy-bool"
        ),
        pytest.param(
            lambda: fo.BeamSplitter((0, 1), [[True, False], [False, True]]), id="splitter-bool"
        ),
        pytest.param(lambda: fo.EpistemicSpec([True], 1), id="epistemic-bool"),
        pytest.param(lambda: fo.single_mode_state([True, False], 2), id="single-mode-bool"),
    ],
)
def test_wrongly_typed_numbers_raise_invalid_parameter(call):
    # numpy and the builtins raise a bare ValueError or TypeError here, parse
    # text, drop an imaginary part, or read a bool as 0 or 1
    with pytest.raises(InvalidParameter):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: fo.PhaseShifter(0, 10**5000), id="phase"),
        pytest.param(lambda: fo.is_single_mode_type(_PAIR, tol=10**5000), id="tolerance"),
    ],
)
def test_huge_integers_raise_invalid_parameter(call):
    # Python prints no int past 4300 digits, so the error text cannot quote
    # its repr: it names the type and the digit count instead
    with pytest.raises(InvalidParameter, match="got an int of 5001 digits$"):
        call()


def test_boolean_array_is_named_in_the_error():
    with pytest.raises(InvalidParameter, match="got booleans"):
        fo.single_mode_state([True, False], 2)


class TestFockState:
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("amp", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_amplitude_rejected(self, amp, normalized):
        with pytest.raises(InvalidParameter):
            fo.FockState(fo.BOSON, 2, {(1, 0): amp, (0, 1): 1.0}, normalized=normalized)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(InvalidParameter):
            fo.FockState(fo.BOSON, 2, {(1, 0): 2.0})

    def test_occupation_beyond_machine_integer_rejected(self):
        # occupations are stored as machine integers
        with pytest.raises(InvalidOccupation):
            fo.FockState(fo.BOSON, 2, {(2**63, 0): 1.0})

    @pytest.mark.parametrize("occ", [(1.9, 0.2), (True, 1), ("1", 1), (1 + 0j, 1)])
    def test_non_integral_occupation_rejected(self, occ):
        # int() would truncate these; the constructor refuses them instead
        with pytest.raises(InvalidParameter):
            fo.FockState(fo.BOSON, 2, {occ: 1.0})

    @pytest.mark.parametrize("n_modes", [2.5, True, "2"])
    def test_non_integral_mode_count_rejected(self, n_modes):
        with pytest.raises(InvalidParameter):
            fo.FockState(fo.BOSON, n_modes, {(1, 1): 1.0})

    @pytest.mark.parametrize(
        "n_modes, terms, error",
        [(0, {}, ShapeMismatch), (2, {(2, -1): 1.0}, InvalidOccupation)],
        ids=["no-modes", "negative-occupation"],
    )
    def test_invalid_shape_or_occupation_rejected(self, n_modes, terms, error):
        with pytest.raises(error):
            fo.FockState(fo.BOSON, n_modes, terms)

    def test_numerically_zero_state_does_not_normalize(self):
        tiny = fo.FockState(fo.BOSON, 2, {(1, 0): 1e-13}, normalized=False)
        with pytest.raises(ZeroState):
            tiny.normalized()

    def test_integral_numbers_accepted(self):
        s = fo.FockState(fo.BOSON, np.int64(2), {(np.int32(1), 1.0): 1.0})
        assert s.n_modes == 2 and type(s.n_modes) is int
        assert s.items() == [((1, 1), 1 + 0j)]
        assert fo.make_number_state(np.array([2, 0])).occupations() == {(2, 0)}

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_read_api_matches_input(self, rng, statistics):
        basis = sector_occupations(2, 4, statistics)
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        amps[: len(basis) // 2] = 0.0
        terms = {occ: a for occ, a in zip(basis, amps / np.linalg.norm(amps)) if a}
        s = fo.FockState(statistics, 4, terms)
        assert len(s.items()) == len(terms)
        assert dict(s.items()) == terms
        assert s.occupations() == set(terms)
        for occ in basis:
            assert s.amplitude(occ) == terms.get(occ, 0j)
        # an occupation of another length names no basis state
        assert s.amplitude(basis[0] + (0,)) == 0j
        assert s.amplitude(basis[0][1:]) == 0j

    def test_terms_are_read_only(self, rng):
        s = random_state(rng, 2, 3, fo.FERMION)
        heralded, _ = fo.herald(s, {0: 1})
        wide = fo.embed(s, 5, (0, 2, 4))
        for state in (s, heralded, wide):
            for terms in (state._occ, state._amp):
                with pytest.raises(ValueError, match="read-only"):
                    terms[0] = 0
            with pytest.raises(AttributeError, match="immutable"):
                state.n_modes = 1


class TestMakeNumberState:
    def test_boson_basis_state(self):
        s = fo.make_number_state((2, 0))
        assert s.amplitude((2, 0)) == 1.0
        assert s.n_particles == 2 and s.n_modes == 2
        assert repr(s) == "FockState(boson, N=2, M=2, {(2, 0): 1+0j})"

    def test_fermion_basis_state(self):
        s = fo.make_number_state((1, 1), fo.FERMION)
        assert s.amplitude((1, 1)) == 1.0

    def test_pauli_exclusion(self):
        with pytest.raises(InvalidOccupation):
            fo.make_number_state((2, 0), fo.FERMION)


class TestSuperpose:
    def test_noon(self):
        noon = superpose(
            [(1 / SQ2, fo.make_number_state((2, 0))), (1 / SQ2, fo.make_number_state((0, 2)))]
        )
        assert abs(noon.amplitude((2, 0)) - 1 / SQ2) < 1e-12
        assert abs(noon.amplitude((0, 2)) - 1 / SQ2) < 1e-12

    def test_identity(self):
        s = fo.make_number_state((1, 1))
        assert_states_close(superpose([(1.0, s)]), s)

    def test_cancellation(self):
        s = fo.make_number_state((2, 0))
        with pytest.raises(ZeroState):
            superpose([(1.0, s), (-1.0, s)])

    def test_mixed_sectors_rejected(self):
        with pytest.raises(ShapeMismatch):
            superpose(
                [(1.0, fo.make_number_state((2, 0))), (1.0, fo.make_number_state((1, 0)))]
            )
        with pytest.raises(ShapeMismatch):
            superpose(
                [(1.0, fo.make_number_state((1, 0))), (1.0, fo.make_number_state((1, 0, 0)))]
            )


class TestApplyModeUnitary:
    def test_hadamard_on_20(self):
        out = fo.apply_mode_unitary(fo.make_number_state((2, 0)), fo.hadamard())
        assert abs(out.amplitude((2, 0)) - 0.5) < 1e-12
        assert abs(out.amplitude((1, 1)) - 1 / SQ2) < 1e-12
        assert abs(out.amplitude((0, 2)) - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [21, 30, 100])
    def test_hadamard_on_many_bosons(self, n):
        # past N = 20, k!(N-k)! no longer fits a machine integer
        out = fo.apply_mode_unitary(fo.make_number_state((n, 0)), fo.hadamard())
        for k in range(n + 1):
            expected = math.sqrt(math.comb(n, k)) / 2 ** (n / 2)
            assert abs(out.amplitude((k, n - k)) - expected) < 1e-12

    def test_factorials_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameter):
            fo.apply_mode_unitary(fo.make_number_state((171, 0)), fo.hadamard())
        with pytest.raises(InvalidParameter):
            fo.single_mode_state([1, 1], 1100)

    def test_sector_too_large_to_list_rejected(self):
        # the bound admits N = 8 on M = 16; past it, past a rank table of as
        # many entries, or past the float range at the most even occupation,
        # a sector is refused before listing, and before its size is a huge
        # int: C(2^40 + 65535, 65535) has about 500 000 digits
        assert math.comb(23, 8) * 16 <= fo.states.MAX_SECTOR
        for key, why in [
            ((16, 9, False), "span over"),
            ((64, 32, True), "span over"),
            ((65536, 2**40, False), "span over"),
            ((4096, 4096, True), "rank table"),
            ((8192, 0, False), "rank table"),
            ((3, 3000, False), "float range"),
            ((171, 171, True), "float range"),
        ]:
            start = time.perf_counter()
            with pytest.raises(InvalidParameter, match=why):
                fo.states._sector(*key)
            assert time.perf_counter() - start < 0.05, key

    @pytest.mark.parametrize("fermionic", [False, True])
    def test_sector_multinomials_match_the_factorial_oracle(self, fermionic):
        for m in range(1, 7):
            for n in range(m + 1 if fermionic else 9):
                occupations, weights = fo.states._sector(m, n, fermionic)
                expected = [math.sqrt(multinomial(n, occ)) for occ in occupations.tolist()]
                assert weights.tolist() == expected, (m, n)

    def test_identity(self, rng):
        s = random_state(rng, 3, 3)
        assert_states_close(fo.apply_mode_unitary(s, np.eye(3)), s)

    def test_hong_ou_mandel(self):
        # (a1+a2)(a1-a2)/2 = (a1^2 - a2^2)/2 by hand
        out = fo.apply_mode_unitary(fo.make_number_state((1, 1)), fo.hadamard())
        assert abs(out.amplitude((2, 0)) - 1 / SQ2) < 1e-12
        assert abs(out.amplitude((0, 2)) + 1 / SQ2) < 1e-12
        assert abs(out.amplitude((1, 1))) < 1e-12

    def test_fermion_antibunching(self):
        out = fo.apply_mode_unitary(fo.make_number_state((1, 1), fo.FERMION), fo.hadamard())
        assert abs(out.amplitude((1, 1)) + 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fo.apply_mode_unitary(fo.make_number_state((1, 1)), np.eye(3))
        # require_unitary accepts a stack of unitaries; a mode unitary is one
        stack = np.stack([np.eye(2)] * 2)
        with pytest.raises(ShapeMismatch):
            fo.apply_mode_unitary(fo.make_number_state((1, 1)), stack)
        with pytest.raises(ShapeMismatch):
            fo.reck_decompose(stack)

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            fo.apply_mode_unitary(fo.make_number_state((1, 1)), np.array([[1, 1], [0, 1.0]]))

    def test_non_finite_matrix_rejected(self):
        # NaN slips past a deviation test, since nan > tol is False
        with pytest.raises(NotUnitary):
            fo.apply_mode_unitary(fo.make_number_state((1, 1)), np.array([[np.nan, 0], [0, 1.0]]))

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_norm_preserved_random(self, rng, statistics):
        for _ in range(10):
            m = rng.integers(2, 5)
            n = rng.integers(1, min(5, m + 1) if statistics is fo.FERMION else 5)
            s = random_state(rng, int(n), int(m), statistics)
            out = fo.apply_mode_unitary(s, random_unitary(rng, int(m)))
            assert abs(out.norm - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_composition_is_left_to_right_product(self, rng, statistics):
        # substituting a_i -> sum U_ij a_j twice composes as U @ V
        m = 3
        s = random_state(rng, 2, m, statistics)
        u = random_unitary(rng, m)
        v = random_unitary(rng, m)
        seq = fo.apply_mode_unitary(fo.apply_mode_unitary(s, u), v)
        once = fo.apply_mode_unitary(s, u @ v)
        for occ in seq.occupations() | once.occupations():
            assert abs(seq.amplitude(occ) - once.amplitude(occ)) < 1e-9

    def test_particle_number_conserved(self, rng):
        s = random_state(rng, 4, 3)
        out = fo.apply_mode_unitary(s, random_unitary(rng, 3))
        assert all(sum(occ) == 4 for occ in out.occupations())

    def test_fermion_determinant_oracle(self, rng):
        for m in (2, 3, 4):
            u = random_unitary(rng, m)
            filled = fo.make_number_state((1,) * m, fo.FERMION)
            out = fo.apply_mode_unitary(filled, u)
            assert abs(out.amplitude((1,) * m) - np.linalg.det(u)) < 1e-9

    def test_boson_permanent_oracle(self, rng):
        for m in (2, 3, 4):
            u = random_unitary(rng, m)
            occ_in = (1, 1) + (0,) * (m - 2)
            out = fo.apply_mode_unitary(fo.make_number_state(occ_in), u)
            for occ_out in sector_occupations(2, m, fo.BOSON):
                expected = oracle_amplitude(u, occ_in, occ_out, fo.BOSON)
                assert abs(out.amplitude(occ_out) - expected) < 1e-9

    def test_sign_convention_invisible_in_observables(self, rng):
        # relabeling modes by a permutation permutes the detection statistics
        # and nothing else, despite the ordering-dependent fermion signs
        s = random_state(rng, 3, 4, fo.FERMION)
        perm = [2, 0, 3, 1]
        p = np.zeros((4, 4))
        for i, j in enumerate(perm):
            p[i, j] = 1.0
        out = fo.apply_mode_unitary(s, p)
        dist = detection_distribution(s)
        dist_p = detection_distribution(out)
        for occ, prob in dist.items():
            relabeled = [0] * 4
            for i, j in enumerate(perm):
                relabeled[j] = occ[i]
            assert abs(dist_p[tuple(relabeled)] - prob) < 1e-12


def random_gates(rng, m, count):
    """Beam splitters, swaps and phase shifters; pairs in either order and
    not necessarily adjacent."""
    gates = []
    for _ in range(count):
        kind = int(rng.integers(3))
        if m == 1 or kind == 2:
            gates.append(fo.PhaseShifter(int(rng.integers(m)), float(rng.uniform(0, 7))))
            continue
        s, t = (int(x) for x in rng.choice(m, 2, replace=False))
        if kind == 0:
            gates.append(fo.BeamSplitter((s, t), random_unitary(rng, 2)))
        else:
            gates.append(fo.Swap((s, t)))
    return gates


def gates_unitary(gates, m):
    u = np.eye(m, dtype=complex)
    for gate in gates:
        u = u @ embedded_gate(gate, m)
    return u


def assert_matches_oracle(out, state, u, atol=1e-10):
    expected = oracle_evolve(state, u)
    assert set(out.occupations()) <= set(expected)
    for occ, amp in expected.items():
        assert abs(out.amplitude(occ) - amp) < atol


def run_gates(state, gates):
    out, prob = fo.run_circuit(state, fo.Circuit(state.n_modes, gates))
    assert prob == 1.0
    return out


STATS = [fo.BOSON, fo.FERMION]


class TestSectorKernel:
    """Gate-by-gate and dense-U evolution against the permanent/determinant oracle."""

    @pytest.mark.parametrize("statistics", STATS)
    # (2, 6) and (3, 6) reach both fermion parities of the n = 1 block and
    # the determinant block on reversed pairs; (2, 8) is replay's register
    @pytest.mark.parametrize(
        "n,m", [(1, 2), (2, 3), (3, 3), (2, 5), (3, 4), (2, 6), (3, 6), (2, 8)]
    )
    def test_gate_lists_match_oracle(self, rng, statistics, n, m):
        s = random_state(rng, n, m, statistics)
        gates = random_gates(rng, m, 10)
        assert_matches_oracle(run_gates(s, gates), s, gates_unitary(gates, m))

    @pytest.mark.parametrize("statistics", STATS)
    @pytest.mark.parametrize("n,m", [(2, 4), (3, 5), (4, 4)])
    def test_dense_unitary_matches_oracle(self, rng, statistics, n, m):
        s = random_state(rng, n, m, statistics)
        u = random_unitary(rng, m)
        assert_matches_oracle(fo.apply_mode_unitary(s, u), s, u)

    @pytest.mark.parametrize("statistics", STATS)
    def test_reversed_far_pairs_and_swap(self, rng, statistics):
        # modes 1 and 2 sit between the pair, so the fermion sign depends on
        # their occupation
        s = random_state(rng, 2, 4, statistics)
        gates = [fo.BeamSplitter((3, 0), random_unitary(rng, 2)), fo.Swap((2, 0)), fo.Swap((0, 3))]
        assert_matches_oracle(run_gates(s, gates), s, gates_unitary(gates, 4))

    @pytest.mark.parametrize("statistics", STATS)
    def test_vacuum_is_invariant(self, rng, statistics):
        vacuum = fo.make_number_state((0, 0, 0), statistics)
        assert fo.apply_mode_unitary(vacuum, random_unitary(rng, 3)).amplitude((0, 0, 0)) == 1.0
        assert run_gates(vacuum, random_gates(rng, 3, 6)).amplitude((0, 0, 0)) == 1.0

    def test_single_mode_takes_the_phase(self):
        s = fo.make_number_state((3,))
        out = fo.apply_mode_unitary(s, np.array([[np.exp(0.4j)]]))
        assert abs(out.amplitude((3,)) - np.exp(1.2j)) < 1e-12
        assert abs(run_gates(s, [fo.PhaseShifter(0, 0.4)]).amplitude((3,)) - np.exp(1.2j)) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_full_fermion_sector_is_determinant(self, rng, m):
        filled = fo.make_number_state((1,) * m, fo.FERMION)
        gates = random_gates(rng, m, 12)
        out = run_gates(filled, gates)
        assert abs(out.amplitude((1,) * m) - np.linalg.det(gates_unitary(gates, m))) < 1e-10

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        statistics=st.sampled_from(STATS),
        m=st.integers(1, 4),
        n=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_composition_matches_oracle(self, statistics, m, n, seed):
        # U then V equals U @ V, and both match the oracle
        if statistics is fo.FERMION:
            n = min(n, m)
        rng = np.random.default_rng(seed)
        s = random_state(rng, n, m, statistics)
        u, v = random_unitary(rng, m), random_unitary(rng, m)
        seq = fo.apply_mode_unitary(fo.apply_mode_unitary(s, u), v)
        assert_matches_oracle(seq, s, u @ v)
        assert_matches_oracle(fo.apply_mode_unitary(s, u @ v), s, u @ v)

    @pytest.mark.parametrize("fermionic", [False, True])
    def test_pair_blocks_match_sector_walk(self, fermionic):
        for m in range(2, 7):
            for n in range(m + 1 if fermionic else 5):
                for s, t in itertools.combinations(range(m), 2):
                    blocks = {
                        (k, odd): idx
                        for k, odd, idx in fo.states._pair_blocks(m, n, fermionic, s, t)
                    }
                    walk = {
                        (k, odd): idx for k, odd, idx in oracle_pair_blocks(m, n, fermionic, s, t)
                    }
                    assert blocks.keys() == walk.keys()
                    for key, idx in blocks.items():
                        assert set(map(tuple, idx.tolist())) == set(map(tuple, walk[key].tolist()))


def kernel_block(g, n):
    """The kernel's block of the two-mode gate ``g`` on ``n`` bosons: row j
    is the image of |j, n - j>, read off that evolved basis state."""
    block = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        occ, amp = fo.states._evolve_terms(
            False, 2, n, np.array([[j, n - j]]), np.ones(1, dtype=complex), [((0, 1), g)]
        )
        block[j, occ[:, 0]] = amp
    return block


class TestTwoParticleBlocks:
    """Boson gates on N <= 2 read their blocks off the gate, not the cache."""

    def test_blocks_match_symmetric_powers(self, rng):
        phase = np.diag(np.exp([0.3j, -1.1j]))
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        gates = [random_unitary(rng, 2) for _ in range(200)] + [fo.hadamard(), swap, phase]
        for g in gates + [g[::-1, ::-1] for g in gates]:
            powers = fo.states._symmetric_powers(np.ascontiguousarray(g).tobytes(), 2)
            for n in (1, 2):
                np.testing.assert_allclose(kernel_block(g, n), powers[n].T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("statistics", STATS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_replay_needs_no_cache_on_two_particles(self, monkeypatch, rng, statistics, n):
        # replay's switched stage holds two particles; a boson witness of
        # N >= 3 prepares its pair on the N-particle sector, which keeps the
        # cache, and fermions never use it
        state = random_state(rng, n, 4, statistics)
        wit = fo.find_witness(state)
        expected = fo.replay_witness(state, wit)
        cached = fo.states._symmetric_powers
        larger = []

        def refuse_small(g_bytes, n_max):
            if n_max <= 2:
                raise AssertionError("a two-particle gate reached the block cache")
            larger.append(n_max)
            return cached(g_bytes, n_max)

        monkeypatch.setattr(fo.states, "_symmetric_powers", refuse_small)
        assert fo.replay_witness(state, wit) == expected
        assert bool(larger) == (statistics is fo.BOSON and n > 2)

    def test_mesh_needs_no_cache_on_two_particles(self, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("a two-particle gate reached the block cache")

        state = random_state(rng, 2, 5)
        u = random_unitary(rng, 5)
        monkeypatch.setattr(fo.states, "_symmetric_powers", refuse)
        out, prob = fo.run_circuit(state, fo.reck_decompose(u))
        assert prob == 1.0
        assert_matches_oracle(out, state, u)


class TestRanks:
    """``states._ranks`` against the listed basis and a counting oracle."""

    @pytest.mark.parametrize("fermionic", [False, True])
    def test_every_small_sector_in_listed_order(self, fermionic):
        for m in range(1, 8):
            for n in range(m + 1 if fermionic else 9):
                basis = fo.states._sector(m, n, fermionic)[0]
                ranks = fo.states._ranks(m, n, fermionic, basis)
                np.testing.assert_array_equal(ranks, np.arange(len(basis)))

    @pytest.mark.parametrize("fermionic, m", [(False, 16), (True, 40)])
    def test_sectors_too_large_to_list(self, rng, fermionic, m):
        # 12 particles: seeded random rows, and the first and last basis states
        n = 12
        size = math.comb(m, n) if fermionic else math.comb(n + m - 1, n)
        if fermionic:
            rows = np.zeros((200, m), dtype=np.intp)
            for row in rows:
                row[rng.choice(m, n, replace=False)] = 1
        else:
            rows = rng.multinomial(n, np.full(m, 1.0 / m), size=200).astype(np.intp)
        first = [1] * n + [0] * (m - n) if fermionic else [n] + [0] * (m - 1)
        rows = np.vstack([rows, first, first[::-1]])
        ranks = fo.states._ranks(m, n, fermionic, rows).tolist()
        assert ranks == [oracle_rank(row, fermionic) for row in rows.tolist()]
        assert ranks[-2:] == [0, size - 1]


class TestReckGates:
    """``reck_gates`` against the plain Givens loop of ``oracle_reck_gates``."""

    @staticmethod
    def assert_matches_oracle(u):
        gates = fo.states.reck_gates(u)
        expected = oracle_reck_gates(u)
        assert [modes for modes, _ in gates] == [modes for modes, _ in expected]
        for (_, g), (_, h) in zip(gates, expected):
            assert np.max(np.abs(np.asarray(g) - np.asarray(h))) < 1e-13
        assert np.max(np.abs(circuit_unitary(fo.reck_decompose(u)) - u)) < 1e-12
        return gates

    def test_random(self, rng):
        for m in range(1, 17):
            for _ in range(2):
                self.assert_matches_oracle(random_unitary(rng, m))

    @pytest.mark.parametrize(
        "u",
        [
            np.eye(4),
            np.eye(5)[::-1],
            np.roll(np.eye(6), 1, axis=0) * np.exp(0.3j),
            block_diag(1j, fo.hadamard(), np.eye(3)[[2, 0, 1]]),
            block_diag(fo.hadamard(), fo.hadamard(), fo.hadamard()),
            np.kron(fo.hadamard(), fo.hadamard()),
        ],
        ids=["identity", "reversal", "cycle", "blocks", "hadamard-sum", "hadamard-kron"],
    )
    def test_structured(self, u):
        self.assert_matches_oracle(u)

    def test_mixed_blocks(self, rng):
        u = block_diag(random_unitary(rng, 2), random_unitary(rng, 3), random_unitary(rng, 1))
        self.assert_matches_oracle(u)

    @pytest.mark.parametrize("scale,rotations", [(0.5, 0), (2.0, 1)])
    def test_entry_at_the_tolerance(self, scale, rotations):
        # a rotation on modes (2, 3) whose column entry sits at scale * RECK_TOL:
        # below the tolerance it is left out, above it is kept
        sin = scale * RECK_TOL
        cos = math.sqrt(1.0 - sin * sin)
        gates = self.assert_matches_oracle(block_diag(np.eye(2), [[cos, -sin], [sin, cos]]))
        assert sum(len(modes) == 2 for modes, _ in gates) == rotations


class TestDetectionDistribution:
    def test_basis_state(self):
        assert detection_distribution(fo.make_number_state((1, 1))) == {(1, 1): 1.0}

    def test_hadamard_binomial(self):
        out = fo.apply_mode_unitary(fo.make_number_state((2, 0)), fo.hadamard())
        dist = detection_distribution(out)
        assert abs(dist[(2, 0)] - 0.25) < 1e-12
        assert abs(dist[(1, 1)] - 0.5) < 1e-12
        assert abs(dist[(0, 2)] - 0.25) < 1e-12

    def test_hom_distribution(self):
        out = fo.apply_mode_unitary(fo.make_number_state((1, 1)), fo.hadamard())
        dist = detection_distribution(out)
        assert abs(dist[(2, 0)] - 0.5) < 1e-12
        assert abs(dist[(0, 2)] - 0.5) < 1e-12
        assert (1, 1) not in dist

    def test_probabilities_sum_to_one(self, rng):
        s = random_state(rng, 3, 4)
        assert abs(sum(detection_distribution(s).values()) - 1.0) < 1e-10


class TestHerald:
    def test_noon_herald(self):
        noon = superpose(
            [(1, fo.make_number_state((2, 0))), (1, fo.make_number_state((0, 2)))]
        )
        out, prob = fo.herald(noon, {1: 0})
        assert abs(prob - 0.5) < 1e-12
        assert abs(out.amplitude((2,))) - 1.0 < 1e-12

    def test_deterministic_herald(self):
        out, prob = fo.herald(fo.make_number_state((1, 1)), {1: 1})
        assert abs(prob - 1.0) < 1e-12
        assert abs(out.amplitude((1,)) - 1.0) < 1e-12

    def test_impossible_herald(self):
        with pytest.raises(ZeroOutcome):
            fo.herald(fo.make_number_state((1, 1)), {1: 2})

    def test_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            fo.herald(fo.make_number_state((1, 1)), {5: 0})

    @pytest.mark.parametrize("count", [-1, 3, 2**63, 10**19])
    def test_count_that_never_fires(self, count):
        with pytest.raises(ZeroOutcome):
            fo.herald(fo.make_number_state((1, 1)), {1: count})

    def test_sparse_state_of_many_modes(self, monkeypatch):
        # 12 particles on 2 of 16 modes: the 16-mode sector has C(27, 12)
        # states, the herald must only touch the two terms
        built = []
        sector = fo.states._sector
        monkeypatch.setattr(fo.states, "_sector", lambda *key: built.append(key) or sector(*key))
        noon = fo.FockState(fo.BOSON, 16, {(12,) + (0,) * 15: 1, (0, 12) + (0,) * 14: 1j}, False)
        out, prob = fo.herald(noon.normalized(), {1: 0})
        assert abs(prob - 0.5) < 1e-12
        assert abs(out.amplitude((12,) + (0,) * 14) - 1.0) < 1e-12
        assert out.n_modes == 15
        assert built == []

    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_conditional_distribution(self, rng, statistics):
        s = random_state(rng, 3, 4, statistics)
        dist = detection_distribution(s)
        out, prob = fo.herald(s, {1: 1, 3: 0})
        conditional = detection_distribution(out)
        for occ, p in dist.items():
            if occ[1] == 1 and occ[3] == 0:
                key = (occ[0], occ[2])
                assert abs(conditional[key] - p / prob) < 1e-10

    def test_fermion_herald_interferes_correctly(self, rng):
        # heralding first, then evolving the survivors must match evolving
        # first (on modes the detector never touches) and heralding last;
        # this pins the reordering sign of the reduced amplitudes
        s = random_state(rng, 2, 3, fo.FERMION)
        u2 = random_unitary(rng, 2)
        heralded, p1 = fo.herald(s, {1: 1})
        route_a = fo.apply_mode_unitary(heralded, u2)
        full = np.eye(3, dtype=complex)
        full[np.ix_([0, 2], [0, 2])] = u2
        evolved = fo.apply_mode_unitary(s, full)
        route_b, p2 = fo.herald(evolved, {1: 1})
        assert abs(p1 - p2) < 1e-12
        for occ in route_a.occupations() | route_b.occupations():
            assert abs(route_a.amplitude(occ) - route_b.amplitude(occ)) < 1e-10

    @pytest.mark.parametrize("counts", [{1.5: 1}, {1: 0.5}, {True: 1}, {1: "1"}])
    def test_non_integral_mode_or_count_rejected(self, counts):
        # truncating {1.5: 1} would silently herald mode 1
        with pytest.raises(InvalidParameter):
            fo.herald(fo.make_number_state((1, 1, 0)), counts)

    def test_integral_float_and_numpy_keys_accepted(self):
        out, prob = fo.herald(fo.make_number_state((1, 1, 0)), {1.0: 1, np.int64(2): 0})
        assert abs(prob - 1.0) < 1e-12
        assert dict(out.items()) == {(1,): 1.0}

    def test_herald_probabilities_complete(self, rng):
        s = random_state(rng, 3, 3)
        total = 0.0
        for k in range(4):
            try:
                _, p = fo.herald(s, {2: k})
            except ZeroOutcome:
                p = 0.0
            total += p
        assert abs(total - 1.0) < 1e-10


def herald_case(rng, statistics):
    """A random state, dense or with most terms dropped, and random counts on
    a random set of measured modes; counts run up to N + 1, so a good share
    of the cases never fire."""
    m = int(rng.integers(2, 7))
    n = int(rng.integers(0, 5))
    if statistics is fo.FERMION:
        n = min(n, m)
    basis = sector_occupations(n, m, statistics)
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    if rng.random() < 0.5:
        amps[rng.permutation(len(basis))[max(1, len(basis) // 3) :]] = 0.0
    state = fo.FockState(statistics, m, dict(zip(basis, amps / np.linalg.norm(amps))))
    measured = [int(j) for j in rng.choice(m, int(rng.integers(1, m)), replace=False)]
    return state, {j: int(rng.integers(0, n + 2)) for j in measured}


def herald_matches_oracle(state, counts):
    """Compare ``herald`` with the term loop; True when the herald fired."""
    try:
        amps, p_ref = oracle_herald(state, counts)
    except ZeroOutcome:
        with pytest.raises(ZeroOutcome):
            fo.herald(state, counts)
        return False
    out, prob = fo.herald(state, counts)
    assert abs(prob - p_ref) < 1e-12
    assert out.n_modes == state.n_modes - len(counts)
    assert out.statistics is state.statistics
    for occ in set(amps) | set(out.occupations()):
        assert abs(out.amplitude(occ) - amps.get(occ, 0j)) < 1e-12
    return True


class TestHeraldMatchesTermLoop:
    @pytest.mark.parametrize("statistics", [fo.BOSON, fo.FERMION])
    def test_random_states_and_counts(self, rng, statistics):
        fired = [herald_matches_oracle(*herald_case(rng, statistics)) for _ in range(200)]
        # both outcomes are exercised
        assert 20 <= sum(fired) <= 180

    def test_fermion_signs_on_every_measured_set(self, rng):
        s = random_state(rng, 3, 6, fo.FERMION)
        for k in range(1, 6):
            for measured in itertools.combinations(range(6), k):
                for occ in sorted(s.occupations()):
                    counts = {j: occ[j] for j in measured}
                    assert herald_matches_oracle(s, counts)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(statistics=st.sampled_from([fo.BOSON, fo.FERMION]), seed=st.integers(0, 2**32 - 1))
    def test_property(self, statistics, seed):
        herald_matches_oracle(*herald_case(np.random.default_rng(seed), statistics))


class TestEmbedAndOverlap:
    def test_embed_roundtrip(self, rng):
        s = random_state(rng, 2, 2)
        wide = fo.embed(s, 4, (0, 2))
        back, prob = fo.herald(wide, {1: 0, 3: 0})
        assert abs(prob - 1.0) < 1e-12
        assert_states_close(back, s)

    @pytest.mark.parametrize("n_modes, positions", [(3, [0, 1.7]), (3.5, [0, 1]), ("3", [0, 1])])
    def test_non_integral_embedding_rejected(self, n_modes, positions):
        # truncating [0, 1.7] would silently place mode 1 at 1
        with pytest.raises(InvalidParameter):
            fo.embed(fo.make_number_state((1, 0)), n_modes, positions)

    @pytest.mark.parametrize(
        "positions",
        [[0], [0, 1, 2], [1, 0], [1, 1], [-1, 1], [0, 3]],
        ids=["too-few", "too-many", "decreasing", "repeated", "negative", "past-the-end"],
    )
    def test_bad_positions_rejected(self, positions):
        with pytest.raises(ShapeMismatch):
            fo.embed(fo.make_number_state((1, 0)), 3, positions)

    @pytest.mark.parametrize("n_modes", [10**12, 10**300], ids=["1e12", "1e300"])
    def test_register_wider_than_the_bound_rejected(self, n_modes):
        # numpy raised MemoryError or a bare ValueError for the register
        with pytest.raises(ShapeMismatch, match="at most 65536 modes"):
            fo.embed(fo.make_number_state((1, 0)), n_modes, [0, 1])

    def test_integral_float_embedding_accepted(self):
        wide = fo.embed(fo.make_number_state((1, 0)), 3.0, [0.0, np.int64(2)])
        assert wide.n_modes == 3
        assert dict(wide.items()) == {(1, 0, 0): 1.0}

    def test_fidelity_phase_insensitive(self, rng):
        s = random_state(rng, 2, 3)
        rotated = fo.FockState(
            s.statistics, 3, {occ: 1j * amp for occ, amp in s.items()}
        )
        assert abs(fidelity(s, rotated) - 1.0) < 1e-12


class TestStateFiles:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        statistics=st.sampled_from(STATS),
        m=st.integers(1, 5),
        n=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dict_round_trip(self, statistics, m, n, seed):
        # through JSON text, as a file holds it: the same terms, amplitudes
        # up to the reader's renormalization
        if statistics is fo.FERMION:
            n = min(n, m)
        rng = np.random.default_rng(seed)
        terms = dict(random_state(rng, n, m, statistics).items())
        # a sparse state: drop about half of the terms, keeping at least one
        keep = [occ for occ in terms if rng.random() < 0.5] or [next(iter(terms))]
        state = fo.FockState(statistics, m, {occ: terms[occ] for occ in keep}, normalized=False)
        state = state.normalized()
        back = fo.state_from_dict(json.loads(json.dumps(fo.state_to_dict(state))))
        assert back.statistics is statistics and back.n_modes == m and back.n_particles == n
        before, after = dict(state.items()), dict(back.items())
        assert after.keys() == before.keys()
        assert max(abs(after[occ] - amp) for occ, amp in before.items()) < 1e-15

    def test_round_trip(self, rng, tmp_path):
        s = random_state(rng, 3, 3, fo.FERMION)
        path = tmp_path / "state.json"
        fo.save_state(s, path)
        loaded = fo.load_state(path)
        assert loaded.statistics is fo.FERMION
        for occ in s.occupations():
            assert abs(loaded.amplitude(occ) - s.amplitude(occ)) < 1e-12

    def test_normalizes_with_warning(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "statistics": "boson",
                    "modes": 2,
                    "terms": [{"occ": [1, 0], "re": 2.0, "im": 0.0}],
                }
            )
        )
        with pytest.warns(UserWarning, match="renormalizing"):
            s = fo.load_state(path)
        assert abs(s.amplitude((1, 0)) - 1.0) < 1e-12

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"statistics": "boson",\n  "modes": }')
        with pytest.raises(InvalidFile) as err:
            fo.load_state(path)
        assert err.value.line == 2

    def test_bad_occupation_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "statistics": "fermion",
                    "modes": 2,
                    "terms": [{"occ": [2, 0], "re": 1.0, "im": 0.0}],
                }
            )
        )
        with pytest.raises(InvalidFile):
            fo.load_state(path)

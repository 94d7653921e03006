"""Bell tests on post-selected dual-rail qubits and the witness search.

The splitter stage of :func:`fockopt.circuits.yurke_stoler_circuit` turns a
two-particle two-mode state into a pair of dual-rail qubits once runs with one
particle per rail pair are kept.  Stage and post-selection together are one
constant linear map on the state's coefficients, 4x3 for bosons and 4x1 for
fermions, built once from the circuit on the sector's basis states.  The
two-qubit state is pure, so its CHSH optimum is read off its Schmidt form
l0|a0 b0> + l1|a1 b1>: the value is 2 sqrt(1 + (2 l0 l1)^2) (Gisin), reached by
the settings of the Horodecki criterion in the Schmidt frame.

The classifier decides which states have no witness: those reducible to a
single mode.  For every other state :func:`find_witness` assembles an
explicit violating experiment.  Herald prefixes reduce the state to two
modes, and :func:`two_mode_preparations` supplies the final stage: the
heralded two-mode filters, then the quantum-erasure filter.  Each herald is
simulated once, on the branch the earlier heralds left.  On a two-mode branch
c_k |k, N-k> every stage is linear and fixes the ancilla counts, so it too is
a constant map, of binomial weights.  Filter s keeps c_k for k = s, s+1, s+2,
on |k-s, s+2-k>, with weight sqrt(C(k, s) C(N-k, N-2-s) / 2^N): each live
mode splits binomially onto its ancilla.  The erasure stage is the sum over s
of sqrt(C(N-2, s) / 2^(N-2)) times filter s.  Every weight is positive,
because the real Hadamard feeds the kept terms only through its +1/sqrt(2)
entries.  A fermion state needs no stage: heralding the companions of an
occupied pair leaves |1,1>.  Every candidate of either statistics is one
triple ``(pair, p, elements)``: the heralded two-particle two-mode state as
its unit-norm sector vector in rank order, the joint herald probability, and
the circuit elements.  The search post-selects each pair through the
splitter map and builds a circuit for the witness it returns alone.

:func:`replay_witness` re-runs a finished experiment through circuits and the
kernel alone, none of the maps above: the preparation, then all four setting
pairs in one switched circuit on 8 modes, where balanced beam splitters copy
each party's rail pair onto a second station (Alice's (0, 2) onto (4, 5),
Bob's (3, 1) onto (6, 7)) and setting a sits on station a, as in a Bell test
with passive basis choice.  Each correlator is normalized by its own readout
patterns, so the weight 1/4 of a pair of stations cancels.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import (
    BeamSplitter,
    Circuit,
    Detector,
    _matrix_from_json,
    _matrix_to_json,
    circuit_from_dict,
    circuit_to_dict,
    detector_statistics,
    hadamard,
    run_circuit,
    yurke_stoler_circuit,
)
from .classify import is_single_mode_type
from .errors import (
    InvalidFile,
    InvalidParameter,
    NotUnitary,
    ShapeMismatch,
    ZeroOutcome,
)
from .states import (
    FERMION,
    SECTOR_CACHE,
    _complex_array,
    _file_number,
    _ranks,
    _read_only,
    _sector,
    embed,
    evolve,
    herald,
    make_number_state,
)
from .tolerances import HERALD_CUTOFF, NORM_TOL, SETTINGS_CHECK_TOL, VIOLATION_MARGIN

ALICE_RAILS = (0, 2)
BOB_RAILS = (3, 1)

# occupations of the four kept patterns (uu, ud, du, dd) on the (in1, in2,
# rail1, rail2) register: Alice's qubit is (in1, rail1), Bob's is (rail2,
# in2), with "up" meaning a particle in the first mode of the pair
_KEPT = [tuple(np.bincount((a, b), minlength=4).tolist()) for a in ALICE_RAILS for b in BOB_RAILS]


class TwoQubitState:
    """Amplitudes on the basis (uu, ud, du, dd)."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = _complex_array(amplitudes, "two-qubit amplitudes")
        if amps.shape != (4,):
            raise ShapeMismatch("two-qubit state needs exactly four amplitudes")
        # written so that a NaN norm fails it too
        if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:
            raise InvalidParameter("two-qubit amplitudes must be finite and normalized")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("TwoQubitState is immutable")


@dataclass
class BellTestResult:
    """CHSH value with the optimal settings that achieve it.

    Settings are 2x2 projective bases (columns = outcome states in the
    dual-rail computational basis).  ``success_probability`` is the chance
    of an accepted post-selected run in the experiment that produced the
    tested two-qubit state.
    """

    chsh: float
    settings_a: tuple
    settings_b: tuple
    success_probability: float

    @property
    def violated(self):
        return self.chsh > 2.0 + VIOLATION_MARGIN


@functools.cache
def _splitter_map(statistics):
    """The splitter stage with its post-selection as one matrix: column r
    holds the kept amplitudes (uu, ud, du, dd) that
    :func:`~fockopt.circuits.yurke_stoler_circuit` leaves from basis state r
    of the two-particle two-mode sector, in the sector's rank order."""
    columns = []
    for occ in _sector(2, 2, statistics is FERMION)[0].tolist():
        embedded = embed(make_number_state(occ, statistics), 4, (0, 1))
        four, _ = run_circuit(embedded, yurke_stoler_circuit())
        columns.append([four.amplitude(kept) for kept in _KEPT])
    return _read_only(np.array(columns).T)


def _postselect(statistics, pair):
    """The splitter stage as :func:`_splitter_map` on ``pair``, the sector
    vector of a two-particle two-mode state in rank order: the shared
    two-qubit state and the post-selection probability."""
    amps = _splitter_map(statistics) @ pair
    prob = float(np.vdot(amps, amps).real)
    return TwoQubitState(amps / math.sqrt(prob)), prob


def yurke_stoler_postselect(phi):
    """Split a two-particle two-mode state into dual-rail qubits and keep
    runs with one particle on each side.

    The stage is linear, so it is the constant map :func:`_splitter_map` on
    the state's coefficients.  Returns the shared two-qubit state and the
    post-selection probability, which equals 1/2 for every normalized input
    of either statistics.
    """
    if phi.n_particles != 2 or phi.n_modes != 2:
        raise ShapeMismatch("the splitter stage expects two particles in two modes")
    fermionic = phi.statistics is FERMION
    pair = np.zeros(len(_sector(2, 2, fermionic)[0]), dtype=complex)
    pair[_ranks(2, 2, fermionic, phi._occ)] = phi._amp
    return _postselect(phi.statistics, pair)


def _chsh(probs):
    """CHSH from ``probs[a, b, i, j]``, the weight of outcomes (i, j) under
    Alice's setting a and Bob's setting b; each correlator is
    (p00 - p01 - p10 + p11) / (their sum)."""
    (e11, e12), (e21, e22) = (
        (probs[..., 0, 0] - probs[..., 0, 1] - probs[..., 1, 0] + probs[..., 1, 1])
        / probs.sum(axis=(2, 3))
    ).tolist()
    return e11 + e12 + e21 - e22


def chsh_max(chi):
    """Exact CHSH maximum over projective settings, from the Schmidt form.

    The SVD of the amplitude matrix psi (rows Alice, columns Bob) is the
    Schmidt form l0|a0 b0> + l1|a1 b1>.  With s = 2*l0*l1 the maximum is
    2*sqrt(1 + s^2) >= 2 (Gisin, PLA 154, 201 (1991)).  The settings are those
    of the Horodecki criterion (PLA 200, 340 (1995)) in the Schmidt frame,
    where the correlation matrix is diag(s, -s, 1): Alice measures z and x,
    Bob cos(theta)*z +- sin(theta)*x with tan(theta) = s.  They are
    continuous in the state except at l0 = l1, where the Schmidt frame is
    any rotation that float dust picks.  The value is re-verified against
    the outcome probabilities |A^dag psi B*|^2 of the four setting pairs.
    """
    psi = chi.amplitudes.reshape(2, 2)
    u, (l0, l1), vh = np.linalg.svd(psi)
    s = 2.0 * l0.item() * l1.item()
    value = 2.0 * math.sqrt(1.0 + s * s)
    half = 0.5 * math.atan(s)
    c, t = math.cos(half), math.sin(half)
    # the columns of u and of vh.T are the Schmidt vectors; each basis below
    # is an eigenbasis in that frame, its +1 outcome first
    alice = np.stack((u, u @ hadamard()))
    bob = vh.T @ np.array([[[c, -t], [t, c]], [[c, t], [-t, c]]])
    amps = alice.conj().transpose(0, 2, 1)[:, None] @ psi @ bob.conj()
    direct = _chsh(np.abs(amps) ** 2)
    if abs(direct - value) > SETTINGS_CHECK_TOL:
        raise InvalidParameter(
            f"settings reproduce {direct!r} instead of the criterion value {value!r}"
        )
    return BellTestResult(
        chsh=value, settings_a=tuple(alice), settings_b=tuple(bob), success_probability=1.0
    )


# ---------------------------------------------------------------------------
# two-mode many-particle filters
# ---------------------------------------------------------------------------

def two_mode_preparations(n, live, ancillas):
    """Event-ready stages that leave two of ``n`` particles on ``live``.

    Every stage splits the two ``live`` modes onto the two empty ``ancillas``
    with Hadamards and heralds N-2 particles there.  Filter stage ``s`` (for
    s = 0..N-2, in this order) heralds ``s`` on the first ancilla and N-2-s on
    the second.  One erasure stage follows, for NOON-like states above all,
    which every filter misses: a Hadamard across the ancillas before heralding
    (N-2, 0) erases which-mode information (for N = 2 it repeats filter 0).
    Stages are tuples of circuit elements, to be appended to a herald prefix.
    """
    a, b = ancillas
    h = hadamard()
    split = (BeamSplitter._trusted((live[0], a), h), BeamSplitter._trusted((live[1], b), h))
    for s in range(n - 1):
        yield split + (Detector(a, s), Detector(b, n - 2 - s))
    yield split + (BeamSplitter._trusted((a, b), h), Detector(a, n - 2), Detector(b, 0))


@functools.lru_cache(maxsize=SECTOR_CACHE)
def _stage_maps(n):
    """The N stages of :func:`two_mode_preparations` as one read-only
    (N, 3, N+1) array of the binomial weights in the module docstring: stage
    s takes the coefficients c_k of a two-mode boson branch to its heralded
    amplitudes on |2,0>, |1,1>, |0,2>, the sector's rank order."""
    maps = np.zeros((n, 3, n + 1))
    for s in range(n - 1):
        for k in range(s, s + 3):
            maps[s, s + 2 - k, k] = math.sqrt(math.comb(k, s) * math.comb(n - k, n - 2 - s) / 2**n)
    erase = [math.sqrt(math.comb(n - 2, s) / 2 ** (n - 2)) for s in range(n - 1)]
    maps[n - 1] = np.tensordot(erase, maps[: n - 1], axes=1)
    return _read_only(maps)


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------

@dataclass
class WitnessExperiment:
    """A replayable experiment certifying non-local behaviour.

    ``circuit`` is the event-ready preparation: fed with the input state (and
    vacuum on any extra modes) it heralds a two-particle state on its two
    output modes.  That state enters the standard splitter stage, and the
    stored settings achieve ``result.chsh``.  Alice holds the dual-rail
    modes ``ALICE_RAILS`` of the splitter-stage register and Bob holds
    ``BOB_RAILS``.
    """

    circuit: Circuit
    result: BellTestResult

    @property
    def heralds(self):
        return self.circuit.heralds


def _boson_candidates(phi, live, prefix, total_modes):
    """Candidates for a NOT-SINGLE-MODE boson state, so N >= 2, on
    ``len(live)`` >= 2 modes; every branch passed on is NOT-SINGLE-MODE too.

    The elements of a candidate form a circuit on ``total_modes + 2`` modes.
    Each herald runs once, on the branch the earlier ones left, and its
    probability is multiplied in on the way up.  At two modes all N stages
    are one contraction of the branch's coefficients with
    :func:`_stage_maps`; a stage below ``HERALD_CUTOFF`` is skipped.

    Enumeration order: ancilla filters with ascending ``s``, then erasure, at
    two modes; otherwise the zero-count herald on all but the first two
    modes, the per-count heralds on mode 1 after rotating the surviving
    two-mode component away from it, and finally the empty-mode reduction.
    """
    n = phi.n_particles
    if len(live) == 2:
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[phi._occ[:, 0]] = phi._amp
        stages = _stage_maps(n) @ coeffs
        probs = (np.abs(stages) ** 2).sum(axis=1)
        placed = two_mode_preparations(n, live, (total_modes, total_modes + 1))
        for elements, amps, p in zip(placed, stages, probs.tolist()):
            if p >= HERALD_CUTOFF:
                yield amps / math.sqrt(p), p, prefix + elements
        return
    rest_local = list(range(2, len(live)))
    try:
        chi, p_zero = herald(phi, {i: 0 for i in rest_local})
        verdict = is_single_mode_type(chi)
    except ZeroOutcome:
        verdict = None
    rotated = phi
    if verdict is not None:
        if not verdict.single_mode:
            zeros = tuple(Detector(live[i], 0) for i in rest_local)
            for pair, p, elements in _boson_candidates(chi, live[:2], prefix + zeros, total_modes):
                yield pair, p_zero * p, elements
            return
        u1, u2 = verdict.alpha
        rot = np.array([[u2.conjugate(), -u1.conjugate()], [u1, u2]]).conj().T
        splitter = BeamSplitter((live[0], live[1]), rot)
        rotated = evolve(phi, [((0, 1), splitter.matrix)])
        prefix += (splitter,)
    # per-count heralds on mode 1; once all reduce to a single mode, the
    # rotated state is forced off mode 1 entirely, so the last step drops it
    for j, k in [(1, k) for k in range(n)] + [(0, 0)]:
        try:
            branch, p_branch = herald(rotated, {j: k})
        except ZeroOutcome:
            continue
        if not is_single_mode_type(branch).single_mode:
            rest = live[:j] + live[j + 1 :]
            for pair, p, elements in _boson_candidates(
                branch, rest, prefix + (Detector(live[j], k),), total_modes
            ):
                yield pair, p_branch * p, elements


def _fermion_candidates(phi):
    """Herald every companion mode of the first occupied pair of a term; the
    elements form a circuit on ``phi.n_modes`` modes."""
    for occ in sorted(phi.occupations()):
        live = [j for j, c in enumerate(occ) if c][:2]
        companions = {j: c for j, c in enumerate(occ) if j not in live}
        try:
            two, p = herald(phi, companions)
        except ZeroOutcome:
            continue
        yield two._amp, p, tuple(Detector(j, c) for j, c in companions.items())


def find_witness(state):
    """Search the constructive experiment family for a CHSH violation.

    A state of single-mode type has no witness: the classifier's verdict
    returns None before any candidate runs.  Otherwise candidates are tried
    in a fixed order, so the result is deterministic; None means that none
    violates by more than ``VIOLATION_MARGIN``.  No prefix is simulated
    twice: each herald runs on the branch the earlier ones left, and the
    stages of a two-mode boson branch evolve nothing.  Each candidate's pair
    then costs the splitter stage as its constant map and one CHSH optimum;
    the circuit is built for the witness alone.  A joint herald probability
    below ``HERALD_CUTOFF`` skips the candidate, as its whole circuit never
    fires even when every conditional herald does.
    """
    if is_single_mode_type(state).single_mode:
        return None
    m = state.n_modes
    if state.statistics is FERMION:
        candidates, n_modes = _fermion_candidates(state), m
    else:
        # every boson candidate ends in a two-mode stage on the ancillas (m, m+1)
        candidates, n_modes = _boson_candidates(state, list(range(m)), (), m), m + 2
    for pair, prob, elements in candidates:
        if prob < HERALD_CUTOFF:
            continue
        chi, p_ys = _postselect(state.statistics, pair)
        result = chsh_max(chi)
        if result.violated:
            return WitnessExperiment(
                Circuit(n_modes, elements), replace(result, success_probability=prob * p_ys)
            )
    return None


def witness_to_dict(experiment):
    """Serialize prep circuit, rail assignment, settings, and CHSH value."""
    res = experiment.result
    return {
        "circuit": circuit_to_dict(experiment.circuit),
        "parties": {
            "alice": [m + 1 for m in ALICE_RAILS],
            "bob": [m + 1 for m in BOB_RAILS],
        },
        "settings": {
            "party_A": [_matrix_to_json(b) for b in res.settings_a],
            "party_B": [_matrix_to_json(b) for b in res.settings_b],
        },
        "chsh": res.chsh,
        "success_probability": res.success_probability,
    }


def witness_from_dict(data):
    """Inverse of :func:`witness_to_dict`; InvalidFile unless each party has
    exactly two unitary 2x2 settings."""
    try:
        circuit = circuit_from_dict(data["circuit"])
        settings_a = tuple(_matrix_from_json(b) for b in data["settings"]["party_A"])
        settings_b = tuple(_matrix_from_json(b) for b in data["settings"]["party_B"])
        chsh = _file_number(data["chsh"])
        prob = _file_number(data["success_probability"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidFile(f"malformed witness description: {exc}") from exc
    result = BellTestResult(
        chsh=chsh, settings_a=settings_a, settings_b=settings_b, success_probability=prob
    )
    try:
        _settings(result)
    except (InvalidParameter, NotUnitary, ShapeMismatch) as exc:
        raise InvalidFile(f"invalid witness settings: {exc}") from exc
    return WitnessExperiment(circuit=circuit, result=result)


def _settings(result):
    """The settings of ``result``, Alice's two then Bob's two, as one checked
    (4, 2, 2) array: ShapeMismatch for any other shape, InvalidParameter for
    a non-numeric entry, NotUnitary for a non-finite or non-unitary one."""
    parties = [
        [_complex_array(b, "a setting") for b in party]
        for party in (result.settings_a, result.settings_b)
    ]
    shapes = [[m.shape for m in party] for party in parties]
    if shapes != [[(2, 2), (2, 2)]] * 2:
        raise ShapeMismatch(f"expected two 2x2 settings per party, got shapes {shapes}")
    bases = np.stack(parties[0] + parties[1])
    if not np.isfinite(bases).all():
        raise NotUnitary("a setting has non-finite entries")
    dev = np.abs(bases.conj().transpose(0, 2, 1) @ bases - np.eye(2)).max()
    if dev > NORM_TOL:
        raise NotUnitary(f"a setting deviates from unitarity by {dev:.3e}")
    return bases


# replay's stations: each party's rail pair and the pair it is copied onto;
# its fixed elements are the splitter stage and the balanced beam splitters
# that copy each rail onto its second station
_STATIONS = ((ALICE_RAILS, (4, 5)), (BOB_RAILS, (6, 7)))
_SWITCH = yurke_stoler_circuit().elements + tuple(
    BeamSplitter._trusted((rail, copy), hadamard())
    for first, second in _STATIONS
    for rail, copy in zip(first, second)
)
_READOUT = tuple(Detector(m) for m in range(8))
# replay's readout pattern of outcome (i, j) under settings (a, b), in that
# index order: Alice's particle on rail i of her station a, Bob's on rail j of
# his station b
_PATTERNS = [
    tuple(np.bincount((alice[i], bob[j]), minlength=8).tolist())
    for alice in _STATIONS[0]
    for bob in _STATIONS[1]
    for i in range(2)
    for j in range(2)
]


def replay_witness(state, experiment):
    """Re-run a witness through circuits alone and return the CHSH value.

    The settings are checked once (shape and unitarity) and the preparation
    circuit runs on the state once; ShapeMismatch unless it leaves two
    particles on two modes.  All four setting pairs then run in one switched
    circuit on 8 modes, as a Bell test with passive basis choice does: the
    pair enters modes (0, 1), the splitter stage follows, and one balanced
    beam splitter per rail copies each party's rail pair onto a second
    station, Alice's (0, 2) onto (4, 5) and Bob's (3, 1) onto (6, 7).
    Setting a is a beam splitter on Alice's station a carrying the conjugated
    basis matrix, setting b likewise on Bob's station b; after it a particle
    on the pair's first rail means the basis's first outcome.  One readout of
    the 8 modes gives correlator (a, b) from the patterns with Alice's
    particle in station a and Bob's in station b.  Those patterns carry the
    stations' weight 1/4, which cancels: :func:`_chsh`, the rule ``chsh_max``
    checks its value with, divides each correlator by the sum of its patterns.
    """
    bases = _settings(experiment.result).conj()
    circuit = experiment.circuit
    prepared, _ = run_circuit(embed(state, circuit.n_modes, range(state.n_modes)), circuit)
    if prepared.n_particles != 2 or prepared.n_modes != 2:
        raise ShapeMismatch(
            f"the witness circuit leaves {prepared.n_particles} particles on "
            f"{prepared.n_modes} modes, not two on two"
        )
    settings = tuple(
        BeamSplitter._trusted(rails, basis)
        for rails, basis in zip(_STATIONS[0] + _STATIONS[1], bases)
    )
    switched = Circuit(8, _SWITCH + settings + _READOUT)
    dist = detector_statistics(embed(prepared, 8, (0, 1)), switched).distribution
    return _chsh(np.reshape([dist.get(k, 0.0) for k in _PATTERNS], (2, 2, 2, 2)))

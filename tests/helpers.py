"""Shared test utilities: random sampling and brute-force oracles."""

import cmath
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import fockopt as fo
from fockopt.errors import ShapeMismatch, ZeroState
from fockopt.lhv import BLOCK, _splits
from fockopt.states import _number
from fockopt.tolerances import HERALD_CUTOFF, RECK_TOL


SOURCE = Path(__file__).resolve().parents[1] / "src"
# the address space of a child run by run_limited: a build that grows past it
# fails in the child and not in the test process
CHILD_MEMORY = 1_500_000_000


def run_limited(script, payload):
    """Run ``script`` in a child Python under ``CHILD_MEMORY`` of address
    space, with ``payload`` as JSON in ``sys.argv[1]``; return what it prints,
    read as JSON.  The child imports ``fockopt`` from this checkout."""
    preamble = (
        "import json, resource, sys\n"
        f"limit = {CHILD_MEMORY}\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    limit = min(limit, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
    )
    path = os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", preamble + script, json.dumps(payload)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def random_unitary(rng, m):
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def random_alpha(rng, m):
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    return v / np.linalg.norm(v)


def boson_occupations(n, m):
    """All occupation tuples of n bosons over m modes."""
    if m == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n + 1) for rest in boson_occupations(n - k, m - 1)]


def fermion_occupations(n, m):
    """All occupation tuples of n fermions over m modes."""
    out = []
    for occupied in itertools.combinations(range(m), n):
        occ = [0] * m
        for j in occupied:
            occ[j] = 1
        out.append(tuple(occ))
    return out


def multinomial(total, occ):
    out = math.factorial(total)
    for n in occ:
        out //= math.factorial(n)
    return out


def sector_occupations(n, m, statistics):
    if statistics is fo.FERMION:
        return fermion_occupations(n, m)
    return boson_occupations(n, m)


def _sector_size(n, m, fermionic):
    """Basis states of n particles on m modes, zero modes included."""
    if fermionic:
        return math.comb(m, n)
    return math.comb(n + m - 1, n) if m else int(n == 0)


def oracle_rank(occ, fermionic):
    """Rank of ``occ`` in its sector by counting its predecessors: for each
    mode j and each count p above occ[j] that fits there, the basis states
    that agree with ``occ`` before j and hold p particles in j, one smaller
    sector over the modes after j."""
    rank = 0
    left = sum(occ)
    for j, o in enumerate(occ):
        top = min(left, 1) if fermionic else left
        for p in range(o + 1, top + 1):
            rank += _sector_size(left - p, len(occ) - j - 1, fermionic)
        left -= o
    return rank


def random_state(rng, n, m, statistics=fo.BOSON):
    basis = sector_occupations(n, m, statistics)
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    amps /= np.linalg.norm(amps)
    return fo.FockState(statistics, m, dict(zip(basis, amps)))


def superpose(terms):
    """Amplitude-wise combination ``sum_k c_k |psi_k>``, renormalized.

    All terms must share statistics, particle number and mode count.
    Raises ZeroState when the combination cancels below norm ``ZERO_NORM``.
    """
    terms = list(terms)
    if not terms:
        raise ZeroState("empty superposition")
    _, first = terms[0]
    amps = {}
    for coeff, state in terms:
        if (
            state.statistics is not first.statistics
            or state.n_modes != first.n_modes
            or state.n_particles != first.n_particles
        ):
            raise ShapeMismatch("superposition terms must share statistics, N and M")
        for occ, amp in state.items():
            amps[occ] = amps.get(occ, 0j) + _number(coeff, "coefficient") * amp
    return fo.FockState(first.statistics, first.n_modes, amps, normalized=False).normalized()


def state_with_empty_modes(rng):
    """A boson state with N in 2..5 on M in 3..6 modes, some of them empty:
    ``(state, reduced, positions)``, where ``reduced`` is a random state or
    a superposition of two single-mode states on 2..M-1 modes, every one
    occupied, and ``state`` is it placed on the modes ``positions``."""
    m = int(rng.integers(3, 7))
    n = int(rng.integers(2, 6))
    k = int(rng.integers(2, m))
    if rng.random() < 0.5:
        reduced = random_state(rng, n, k)
    else:
        a, b = (fo.single_mode_state(random_alpha(rng, k), n) for _ in range(2))
        reduced = superpose([(1, a), (complex(*rng.normal(size=2)), b)])
    positions = sorted(rng.choice(m, k, replace=False).tolist())
    return fo.embed(reduced, m, positions), reduced, positions


def two_mode_stages(phi):
    """The witness search's two-mode stages for ``phi`` as circuits on modes
    (0, 1) with ancillas (2, 3): filters s = 0..N-2, then the erasure stage."""
    stages = fo.two_mode_preparations(phi.n_particles, (0, 1), (2, 3))
    return [fo.Circuit(4, stage) for stage in stages]


def stage_test(phi, circuit):
    """One two-mode stage as the witness search tests it: ``circuit`` on
    ``phi`` with vacuum ancillas, the splitter stage and the CHSH optimum.

    ``success_probability`` is the herald probability times the splitter
    stage's post-selection probability; ZeroOutcome when the heralds never
    fire.
    """
    prepared, p_herald = fo.run_circuit(fo.embed(phi, 4, (0, 1)), circuit)
    chi, p_ys = fo.yurke_stoler_postselect(prepared)
    return replace(fo.chsh_max(chi), success_probability=p_herald * p_ys)


def oracle_splitter_stage(phi):
    """``yurke_stoler_postselect`` through ``yurke_stoler_circuit()``: ``phi``
    on the inputs with empty rails, the four kept patterns (uu, ud, du, dd)
    read off the circuit's output and renormalized.  Returns ``(two-qubit
    amplitudes, post-selection probability)``."""
    four, _ = fo.run_circuit(fo.embed(phi, 4, (0, 1)), fo.yurke_stoler_circuit())
    kept = [
        tuple(np.bincount((a, b), minlength=4).tolist())
        for a in fo.bell.ALICE_RAILS
        for b in fo.bell.BOB_RAILS
    ]
    amps = np.array([four.amplitude(occ) for occ in kept])
    prob = float(np.vdot(amps, amps).real)
    return amps / math.sqrt(prob), prob


def oracle_replay_witness(state, experiment):
    """``replay_witness`` with one run per setting pair: the preparation
    circuit on ``state``, the splitter stage on four modes, then for each
    pair (a, b) a beam splitter with the conjugated basis on each party's
    rail pair and a readout of the four modes.  Correlator (a, b) is read
    off the four patterns with one particle per rail pair."""
    circuit = experiment.circuit
    prepared, _ = fo.run_circuit(fo.embed(state, circuit.n_modes, range(state.n_modes)), circuit)
    split, _ = fo.run_circuit(fo.embed(prepared, 4, (0, 1)), fo.yurke_stoler_circuit())
    alice, bob = fo.bell.ALICE_RAILS, fo.bell.BOB_RAILS
    readout = [fo.Detector(m) for m in range(4)]
    correlators = []
    for basis_a in experiment.result.settings_a:
        for basis_b in experiment.result.settings_b:
            settings = [
                fo.BeamSplitter(alice, np.conj(basis_a)),
                fo.BeamSplitter(bob, np.conj(basis_b)),
            ]
            dist = fo.detector_statistics(split, fo.Circuit(4, settings + readout)).distribution
            p = [
                [dist.get(tuple(np.bincount((a, b), minlength=4).tolist()), 0.0) for b in bob]
                for a in alice
            ]
            correlators.append((p[0][0] - p[0][1] - p[1][0] + p[1][1]) / sum(map(sum, p)))
    e11, e12, e21, e22 = correlators
    return e11 + e12 + e21 - e22


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def oracle_amplitude(u, occ_in, occ_out, statistics):
    """Transition amplitude <occ_out| U |occ_in> by permutation expansion.

    Bosons: permanent of the row/column-repeated matrix over sqrt of the
    occupation factorials; fermions: determinant of the occupied submatrix
    with rows and columns in increasing mode order.
    """
    rows = [i for i, n in enumerate(occ_in) for _ in range(n)]
    cols = [j for j, n in enumerate(occ_out) for _ in range(n)]
    if len(rows) != len(cols):
        return 0j
    total = 0j
    for perm in itertools.permutations(range(len(rows))):
        term = 1.0 + 0j
        for k, p in enumerate(perm):
            term *= u[rows[k], cols[p]]
        if statistics is fo.FERMION:
            term *= _perm_sign(perm)
        total += term
    norm = 1.0
    for n in occ_in:
        norm *= math.factorial(n)
    for n in occ_out:
        norm *= math.factorial(n)
    return total / math.sqrt(norm)


def oracle_evolve(state, u):
    """``state`` under mode unitary ``u``, amplitude by amplitude from the
    oracle; returns the output amplitudes as an occupation map."""
    return {
        occ_out: sum(
            amp * oracle_amplitude(u, occ_in, occ_out, state.statistics)
            for occ_in, amp in state.items()
        )
        for occ_out in sector_occupations(state.n_particles, state.n_modes, state.statistics)
    }


def oracle_reck_gates(u):
    """``states.reck_gates`` as a plain Givens loop on numpy values: each
    rotation is a 2x2 array applied to both rows across every column."""
    m = u.shape[0]
    a = np.array(u, dtype=complex)
    gates = []
    for col in range(m - 1):
        for row in range(m - 1, col, -1):
            x = a[row - 1, col]
            y = a[row, col]
            if abs(y) <= RECK_TOL:
                continue
            norm = math.hypot(abs(x), abs(y))
            r = np.array(
                [[x.conjugate() / norm, y.conjugate() / norm], [-y / norm, x / norm]]
            )
            a[row - 1 : row + 1, :] = r @ a[row - 1 : row + 1, :]
            gates.append(((row - 1, row), r.conj().T))
    for mode in range(m):
        phi = cmath.phase(a[mode, mode])
        if abs(phi) > RECK_TOL:
            gates.append(((mode,), phi))
    return gates


def embedded_gate(element, m):
    """The M x M matrix of one gate, built entry by entry."""
    u = np.eye(m, dtype=complex)
    if isinstance(element, fo.PhaseShifter):
        u[element.mode, element.mode] = np.exp(1j * element.phi)
        return u
    g = element.matrix if isinstance(element, fo.BeamSplitter) else np.array([[0, 1], [1, 0]])
    for a, row in enumerate(element.modes):
        for b, col in enumerate(element.modes):
            u[row, col] = g[a, b]
    return u


def circuit_unitary(circuit):
    """The mode unitary of a circuit's gates: the left-to-right product of
    their ``embedded_gate`` matrices, first element first.  Detectors are
    skipped."""
    u = np.eye(circuit.n_modes, dtype=complex)
    for el in circuit.elements:
        if not isinstance(el, fo.Detector):
            u = u @ embedded_gate(el, circuit.n_modes)
    return u


def fidelity(a, b):
    """Phase-insensitive overlap |<a|b>| of two states on the same sector."""
    assert (a.statistics, a.n_modes, a.n_particles) == (b.statistics, b.n_modes, b.n_particles)
    amps = dict(b.items())
    return abs(sum(amp.conjugate() * amps.get(occ, 0j) for occ, amp in a.items()))


def phase_distance(a, b):
    """Distance between unit vectors modulo a global phase: the norm of the
    phase-aligned difference, which keeps full precision near 0."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.vdot(a, b)
    phase = overlap.conjugate() / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(a - phase * b))


def lhv_count_law(spec, circuit):
    """Exact law of the LHV engine's readout, as a Markov chain over count
    vectors: a multinomial start on |alpha|^2, one binomial re-deal per
    ``lhv._splits`` record, then the heralds as conditioning.

    Returns ``(distribution over readout tuples, herald probability)`` in the
    form of ``detector_statistics``.
    """
    n = spec.n_particles
    weights = np.abs(spec.alpha) ** 2
    law = {}
    for occ in boson_occupations(n, spec.n_modes):
        p = float(math.factorial(n))
        for c, w in zip(occ, weights):
            p *= w**c / math.factorial(c)
        law[occ] = p
    for s, t, split in _splits(spec.alpha, circuit):
        if split is None:
            # a pair of zero weight holds no particles: nothing to re-deal
            continue
        dealt = {}
        for occ, q in law.items():
            k = occ[s] + occ[t]
            for ks in range(k + 1):
                out = list(occ)
                out[s], out[t] = ks, k - ks
                out = tuple(out)
                weight = math.comb(k, ks) * split**ks * (1 - split) ** (k - ks)
                dealt[out] = dealt.get(out, 0.0) + q * weight
        law = dealt
    heralds = circuit.heralds
    dist = {}
    for occ, q in law.items():
        if all(occ[m] == c for m, c in heralds.items()):
            key = tuple(occ[m] for m in circuit.readout_modes)
            dist[key] = dist.get(key, 0.0) + q
    p_herald = sum(dist.values())
    if p_herald <= 0.0:
        return {}, 0.0
    return {k: v / p_herald for k, v in dist.items()}, p_herald


def oracle_lhv_counts(spec, circuit, shots, seed):
    """``run_lhv_experiment`` with each block tallied by sorting its readout
    rows, ``np.unique(..., axis=0)``: the same Philox draws per block, then
    the blocks merged in order.  Returns ``(counts, accepted)``."""
    splits = _splits(spec.alpha, circuit)
    probs = np.abs(spec.alpha) ** 2
    heralds = circuit.heralds
    counts = {}
    accepted = 0
    for block, start in enumerate(range(0, shots, BLOCK)):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        occ = rng.multinomial(
            spec.n_particles, probs / probs.sum(), size=min(BLOCK, shots - start)
        )
        for s, t, p in splits:
            k = occ[:, s] + occ[:, t]
            if p is not None:
                occ[:, s] = rng.binomial(k, p)
                occ[:, t] = k - occ[:, s]
        fired = np.all(occ[:, list(heralds)] == list(heralds.values()), axis=1)
        rows, hits = np.unique(
            occ[fired][:, list(circuit.readout_modes)], axis=0, return_counts=True
        )
        for row, hit in zip(map(tuple, rows.tolist()), hits.tolist()):
            counts[row] = counts.get(row, 0) + hit
        accepted += int(fired.sum())
    return counts, accepted


def oracle_gates(circuit):
    """The kernel gates of ``circuit``, read off the public fields of its
    elements: independent of the gates the circuit compiles."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    gates = []
    for el in circuit.elements:
        if isinstance(el, fo.BeamSplitter):
            gates.append((el.modes, el.matrix))
        elif isinstance(el, fo.Swap):
            gates.append((el.modes, swap))
        elif isinstance(el, fo.PhaseShifter):
            gates.append(((el.mode,), el.phi))
    return gates


def _full_register(state, circuit):
    """Every gate of ``circuit`` on the whole sector of ``state``, a narrower
    state first embedded by ``fo.embed`` with vacuum on the extra modes."""
    if state.n_modes > circuit.n_modes:
        raise fo.ShapeMismatch(f"state has {state.n_modes} modes, circuit {circuit.n_modes}")
    if state.n_modes < circuit.n_modes:
        state = fo.embed(state, circuit.n_modes, range(state.n_modes))
    return fo.states.evolve(state, oracle_gates(circuit))


def oracle_run_circuit(state, circuit):
    """``run_circuit`` on the full register: every gate on the whole sector,
    then the heralds as one joint ``herald``."""
    evolved = _full_register(state, circuit)
    heralds = circuit.heralds
    if not heralds:
        return evolved, 1.0
    return fo.herald(evolved, heralds)


def oracle_detector_statistics(state, circuit):
    """``detector_statistics`` on the full register, term by term over the
    evolved state: the heralds filter the terms and the readout counts key the
    tally.  Returns ``(distribution, herald probability)``."""
    evolved = _full_register(state, circuit)
    heralds = circuit.heralds
    dist = {}
    p_herald = 0.0
    for occ, amp in evolved.items():
        if any(occ[m] != c for m, c in heralds.items()):
            continue
        p = abs(amp) ** 2
        p_herald += p
        key = tuple(occ[m] for m in circuit.readout_modes)
        dist[key] = dist.get(key, 0.0) + p
    if p_herald <= 0.0:
        return {}, 0.0
    return {k: v / p_herald for k, v in dist.items()}, p_herald


def detection_distribution(state):
    """Probability of each occupation pattern under number-resolving detection."""
    return {occ: abs(amp) ** 2 for occ, amp in state.items()}


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def correlation_matrix(chi):
    """3x3 matrix T[i, j] = <psi| sigma_i x sigma_j |psi> of a two-qubit
    state, by np.kron: the oracle of the Horodecki criterion."""
    psi = chi.amplitudes
    return np.array([[np.vdot(psi, np.kron(si, sj) @ psi).real for sj in PAULI] for si in PAULI])


def is_product(chi, tol=1e-9):
    """True iff the two-qubit state factorizes: its 2x2 amplitude matrix is singular."""
    return abs(np.linalg.det(chi.amplitudes.reshape(2, 2))) < tol


def assert_states_close(a, b, atol=1e-9):
    """Phase-insensitive state comparison."""
    assert a.n_modes == b.n_modes and a.n_particles == b.n_particles
    assert abs(fidelity(a, b) - 1.0) < atol


def _herald_sign(occ, measured, unmeasured):
    # permutation sign for pulling the measured creation operators to the
    # front of the increasing-order string (fermions only)
    swaps = 0
    for m in measured:
        if occ[m]:
            swaps += occ[m] * sum(occ[j] for j in unmeasured if j < m)
    return -1.0 if swaps % 2 else 1.0


def oracle_herald(state, required):
    """``herald`` term by term: keep the matching terms, drop the measured
    modes, renormalize and apply the fermion reordering sign.  Returns
    ``(amplitudes on the remaining modes, probability)`` and raises
    ZeroOutcome like ``herald``."""
    measured = sorted(required)
    unmeasured = [i for i in range(state.n_modes) if i not in required]
    kept = [
        (occ, amp)
        for occ, amp in state.items()
        if all(occ[m] == required[m] for m in measured)
    ]
    prob = sum(abs(amp) ** 2 for _, amp in kept)
    if prob < HERALD_CUTOFF:
        raise fo.ZeroOutcome(f"herald {required} fires with probability {prob:.3e}")
    scale = 1.0 / math.sqrt(prob)
    amps = {}
    for occ, amp in kept:
        if state.statistics is fo.FERMION:
            amp = amp * _herald_sign(occ, measured, unmeasured)
        amps[tuple(occ[i] for i in unmeasured)] = amp * scale
    return amps, prob


def _try_alpha(state, support, alpha, atol):
    """Check every coefficient on ``support`` against the product form, in
    ascending lexicographic order; worst deviation and first miss."""
    n = state.n_particles
    m = state.n_modes
    worst = 0.0
    violation = None
    for occ_s in boson_occupations(n, len(support)):
        occ = [0] * m
        for j, k in zip(support, occ_s):
            occ[j] = k
        occ = tuple(occ)
        predicted = math.sqrt(multinomial(n, occ))
        for j, k in zip(support, occ_s):
            if k:
                predicted *= alpha[j] ** k
        dev = abs(state.amplitude(occ) - predicted)
        if dev > worst:
            worst = dev
        if violation is None and dev >= atol:
            violation = occ
    return worst, violation


def oracle_single_mode(state, tol=1e-8):
    """``is_single_mode_type`` term by term, trying each of the N roots of
    the reference coefficient in turn; returns a ``Classification``."""
    n = state.n_particles
    m = state.n_modes
    if n == 0:
        return fo.Classification(True, None, 0.0, None)
    if state.statistics is fo.FERMION and n >= 2:
        return fo.Classification(False, None, math.inf, min(state.occupations()))
    peak = max(abs(a) for _, a in state.items())
    atol = tol * peak
    significant = sorted(occ for occ, amp in state.items() if abs(amp) >= atol)
    support = [j for j in range(m) if any(occ[j] for occ in significant)]
    tops = [state.amplitude(tuple(n if i == j else 0 for i in range(m))) for j in range(m)]
    ref = max(support, key=lambda j: abs(tops[j]))
    top = tops[ref]
    if abs(top) < atol:
        return fo.Classification(False, None, math.inf, significant[0])
    magnitude = abs(top) ** (1.0 / n)
    base_phase = cmath.phase(top)
    best = (math.inf, None)
    for k in range(n):
        u_ref = magnitude * cmath.exp(1j * (base_phase + 2.0 * math.pi * k) / n)
        alpha = np.zeros(m, dtype=complex)
        alpha[ref] = u_ref
        denom = math.sqrt(n) * u_ref ** (n - 1)
        for j in support:
            if j == ref:
                continue
            occ = [0] * m
            occ[ref] = n - 1
            occ[j] = 1
            alpha[j] = state.amplitude(tuple(occ)) / denom
        worst, violation = _try_alpha(state, support, alpha, atol)
        if worst < atol:
            return fo.Classification(True, alpha / np.linalg.norm(alpha), worst / peak, None)
        if worst < best[0]:
            best = (worst, violation)
    return fo.Classification(False, None, best[0] / peak, best[1])


def oracle_pair_blocks(n_modes, n_particles, fermionic, s, t):
    """``states._pair_blocks`` by a walk over the sector: each rank joins the
    row of its (n, odd, other-mode occupation) key at column n_s - lo."""
    occupations = fo.states._sector(n_modes, n_particles, fermionic)[0]
    cap = 1 if fermionic else n_particles
    groups = {}
    for r, occ in enumerate(map(tuple, occupations.tolist())):
        n = occ[s] + occ[t]
        if n == 0:
            continue
        odd = fermionic and sum(occ[s + 1 : t]) % 2 == 1
        lo = max(0, n - cap)
        rest = occ[:s] + occ[s + 1 : t] + occ[t + 1 :]
        row = groups.setdefault((n, odd), {}).setdefault(rest, [0] * (min(n, cap) - lo + 1))
        row[occ[s] - lo] = r
    return tuple(
        (n, odd, np.array(list(rows.values()), dtype=np.intp))
        for (n, odd), rows in groups.items()
    )

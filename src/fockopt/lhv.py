"""Local hidden-variable Monte Carlo for states reducible to a single mode.

Each mode carries an ontic pair (complex amplitude, particle count).  Beam
splitters rotate the two local amplitudes and re-deal the local particles
binomially on the rotated weights; phase shifters act on the amplitude alone;
detectors read the count.  Runs are reproducible shot by shot: shot ``i`` of
seed ``s`` draws from its own counter-based stream keyed by ``(s, i)``, so
tallies are independent of execution order.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    BeamSplitter,
    Detector,
    PhaseShifter,
    Swap,
    detector_statistics,
)
from .classify import single_mode_state
from .errors import DegenerateAmplitude, InvalidParameter, ShapeMismatch

DEFAULT_SEED = 20240901


@dataclass
class OnticState:
    """Hidden-variable configuration: per-mode amplitude and particle count."""

    amplitudes: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def n_particles(self):
        return int(self.counts.sum())


@dataclass(frozen=True)
class EpistemicSpec:
    """Preparation ensemble of a single-mode-type state.

    Amplitudes are drawn as the reference vector times a uniform global
    phase (statistically inert but sampled anyway), counts multinomially on
    the squared moduli.
    """

    alpha: np.ndarray
    n_particles: int

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=complex)
        if abs(np.linalg.norm(alpha) - 1.0) > 1e-9:
            raise ShapeMismatch("epistemic amplitude vector must be normalized")
        alpha = alpha.copy()
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n_particles", int(self.n_particles))

    @property
    def n_modes(self):
        return self.alpha.shape[0]

    def quantum_state(self):
        return single_mode_state(self.alpha, self.n_particles)


def shot_generator(seed, shot):
    """Independent counter-based stream for one shot."""
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, int(shot)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_epistemic(spec, rng):
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    probs = np.abs(spec.alpha) ** 2
    probs = probs / probs.sum()
    counts = rng.multinomial(spec.n_particles, probs)
    return OnticState(phase * spec.alpha.copy(), counts.astype(np.int64))


def lhv_beam_splitter(state, modes, v, rng):
    """Rotate the pair amplitudes by ``v`` and re-deal the pair's particles."""
    s, t = modes
    if s == t:
        raise ShapeMismatch("beam splitter needs two distinct modes")
    amps = state.amplitudes.copy()
    counts = state.counts.copy()
    pair = np.array([amps[s], amps[t]]) @ np.asarray(v, dtype=complex)
    amps[s], amps[t] = pair[0], pair[1]
    k = int(counts[s] + counts[t])
    ws = abs(pair[0]) ** 2
    wt = abs(pair[1]) ** 2
    if k > 0:
        if ws + wt < 1e-30:
            raise DegenerateAmplitude(
                "both rotated amplitudes vanish while particles are present"
            )
        p = min(1.0, max(0.0, ws / (ws + wt)))
        ks = int(rng.binomial(k, p))
        counts[s], counts[t] = ks, k - ks
    return OnticState(amps, counts)


def lhv_phase_shifter(state, mode, phi):
    amps = state.amplitudes.copy()
    amps[mode] = amps[mode] * np.exp(1j * phi)
    return OnticState(amps, state.counts.copy())


def lhv_detect(state, mode):
    """Number revealed by the detector in ``mode``."""
    return int(state.counts[mode])


def _compile_elements(circuit):
    """Flatten the circuit into scalar gate records for the shot loop."""
    ops = []
    for el in circuit.elements:
        if isinstance(el, BeamSplitter):
            v = el.matrix
            ops.append(
                (
                    "bs",
                    el.modes[0],
                    el.modes[1],
                    complex(v[0, 0]),
                    complex(v[0, 1]),
                    complex(v[1, 0]),
                    complex(v[1, 1]),
                )
            )
        elif isinstance(el, Swap):
            ops.append(("bs", el.modes[0], el.modes[1], 0j, 1 + 0j, 1 + 0j, 0j))
        elif isinstance(el, PhaseShifter):
            ops.append(("ps", el.mode, complex(np.exp(1j * el.phi))))
        else:
            ops.append(("det", el.mode))
    return ops


def _run_shot_compiled(alpha, n, ops, probs, rng):
    # scalar arithmetic throughout; draw order matches the gate-level API.
    # Norm conservation is tracked incrementally (gates only touch two
    # amplitudes), so the per-gate asserts stay O(1).
    phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    counts = rng.multinomial(n, probs).tolist()
    amps = [phase * a for a in alpha]
    norm2 = 1.0
    readings = {}
    for op in ops:
        kind = op[0]
        if kind == "bs":
            _, s, t, v00, v01, v10, v11 = op
            a_s, a_t = amps[s], amps[t]
            b_s = a_s * v00 + a_t * v10
            b_t = a_s * v01 + a_t * v11
            amps[s], amps[t] = b_s, b_t
            ws = b_s.real * b_s.real + b_s.imag * b_s.imag
            wt = b_t.real * b_t.real + b_t.imag * b_t.imag
            norm2 += (ws + wt) - (
                a_s.real * a_s.real
                + a_s.imag * a_s.imag
                + a_t.real * a_t.real
                + a_t.imag * a_t.imag
            )
            assert abs(norm2 - 1.0) < 1e-9
            k = counts[s] + counts[t]
            if k > 0:
                if ws + wt < 1e-30:
                    raise DegenerateAmplitude(
                        "both rotated amplitudes vanish while particles are present"
                    )
                ks = int(rng.binomial(k, min(1.0, max(0.0, ws / (ws + wt)))))
                counts[s], counts[t] = ks, k - ks
                assert counts[s] + counts[t] == k
        elif kind == "ps":
            amps[op[1]] = amps[op[1]] * op[2]
        else:
            readings[op[1]] = counts[op[1]]
    return readings, amps, counts


def run_shot(spec, circuit, rng):
    """One trajectory; returns (detector readings by mode, final ontic state).

    Conservation of the particle total and of the amplitude norm is asserted
    after every beam splitter.
    """
    if spec.n_modes != circuit.n_modes:
        raise ShapeMismatch(
            f"spec has {spec.n_modes} modes, circuit {circuit.n_modes}"
        )
    probs = np.abs(spec.alpha) ** 2
    probs = probs / probs.sum()
    alpha = [complex(a) for a in spec.alpha]
    readings, amps, counts = _run_shot_compiled(
        alpha, spec.n_particles, _compile_elements(circuit), probs, rng
    )
    return readings, OnticState(np.array(amps), np.array(counts, dtype=np.int64))


@dataclass
class LhvRunResult:
    """Tallies of readout-detector outcomes over accepted shots."""

    counts: dict
    shots: int
    accepted: int
    readout_modes: tuple

    @property
    def herald_rate(self):
        return self.accepted / self.shots if self.shots else 0.0

    def frequencies(self):
        if not self.accepted:
            return {}
        return {k: v / self.accepted for k, v in self.counts.items()}


def run_lhv_experiment(spec, circuit, shots, seed=DEFAULT_SEED):
    """Run independent trajectories and tally readout-detector outcomes.

    Shots whose heralded detectors miss their required count are rejected
    (and counted, so the acceptance rate can be compared with the quantum
    herald probability).  Outcome keys follow ``circuit.readout_modes``.
    """
    if spec.n_modes != circuit.n_modes:
        raise ShapeMismatch(
            f"spec has {spec.n_modes} modes, circuit {circuit.n_modes}"
        )
    heralds = tuple(circuit.heralds.items())
    readout = circuit.readout_modes
    ops = _compile_elements(circuit)
    probs = np.abs(spec.alpha) ** 2
    probs = probs / probs.sum()
    alpha = [complex(a) for a in spec.alpha]
    n = spec.n_particles
    counts = {}
    accepted = 0
    # one Philox instance re-keyed per shot; state reset reproduces a fresh
    # (seed, shot)-keyed stream bit-exactly without per-shot entropy overhead
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    zeros4 = np.zeros(4, dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": zeros4, "key": key},
        "buffer": zeros4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for shot in range(int(shots)):
        key[1] = shot
        bitgen.state = fresh
        readings, _, _ = _run_shot_compiled(alpha, n, ops, probs, rng)
        if any(readings[m] != c for m, c in heralds):
            continue
        accepted += 1
        out = tuple(readings[m] for m in readout)
        counts[out] = counts.get(out, 0) + 1
    return LhvRunResult(counts, int(shots), accepted, readout)


# ---------------------------------------------------------------------------
# quantum vs hidden-variable comparison
# ---------------------------------------------------------------------------

@dataclass
class OutcomeRow:
    outcome: tuple
    quantum_prob: float
    lhv_freq: float
    stderr: float
    z_score: float


@dataclass
class ComparisonReport:
    """Divergence report between exact quantum and empirical LHV statistics."""

    rows: list
    tv_distance: float
    chi2_p_value: float
    n_outcomes: int
    shots: int
    accepted: int
    quantum_herald: float
    lhv_herald: float
    seed: int

    @property
    def passed(self):
        # with no accepted shot there is nothing to test, which is no pass
        return self.accepted > 0 and self.chi2_p_value > 0.001

    @property
    def tv_bound(self):
        # a TV distance never exceeds 1, so neither does a bound on it
        return min(1.0, 4.0 * math.sqrt(self.n_outcomes / max(1, self.accepted)))

    def to_table(self):
        lines = [
            f"shots={self.shots} accepted={self.accepted} seed={self.seed}",
            f"quantum_herald={self.quantum_herald:.12g} lhv_herald={self.lhv_herald:.12g}",
            f"tv_distance={self.tv_distance:.12g} (bound {self.tv_bound:.12g})",
            f"chi_square_p={self.chi2_p_value:.12g} -> {'PASS' if self.passed else 'FAIL'}",
            f"{'outcome':<20}{'quantum_prob':>16}{'lhv_freq':>16}{'stderr':>12}{'z_score':>10}",
        ]
        for row in self.rows:
            label = ",".join(str(c) for c in row.outcome)
            lines.append(
                f"{label:<20}{row.quantum_prob:>16.12g}{row.lhv_freq:>16.12g}"
                f"{row.stderr:>12.3g}{row.z_score:>10.2f}"
            )
        return "\n".join(lines)

    def to_csv(self):
        lines = ["outcome,quantum_prob,lhv_freq,stderr,z_score"]
        for row in self.rows:
            label = " ".join(str(c) for c in row.outcome)
            lines.append(
                f"{label},{row.quantum_prob!r},{row.lhv_freq!r},"
                f"{row.stderr!r},{row.z_score!r}"
            )
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "shots": self.shots,
            "accepted": self.accepted,
            "seed": self.seed,
            "quantum_herald": self.quantum_herald,
            "lhv_herald": self.lhv_herald,
            "tv_distance": self.tv_distance,
            "tv_bound": self.tv_bound,
            "chi_square_p": self.chi2_p_value,
            "passed": self.passed,
            "rows": [
                {
                    "outcome": list(r.outcome),
                    "quantum_prob": r.quantum_prob,
                    "lhv_freq": r.lhv_freq,
                    "stderr": r.stderr,
                    "z_score": r.z_score,
                }
                for r in self.rows
            ],
        }


def _chi_square_p(observed, expected_probs, total):
    """Chi-square p against exact cell probabilities, pooling thin cells.

    Cells with expected count below 5 are merged; an observed outcome of
    exactly zero quantum probability is an immediate failure.
    """
    impossible = sum(
        observed.get(k, 0) for k in observed if expected_probs.get(k, 0.0) <= 0.0
    )
    if impossible:
        return 0.0
    pooled_obs = []
    pooled_exp = []
    rare_obs = 0
    rare_exp = 0.0
    for key, p in expected_probs.items():
        exp = p * total
        obs = observed.get(key, 0)
        if exp < 5.0:
            rare_obs += obs
            rare_exp += exp
        else:
            pooled_obs.append(obs)
            pooled_exp.append(exp)
    if rare_exp > 0.0:
        pooled_obs.append(rare_obs)
        pooled_exp.append(rare_exp)
    if len(pooled_obs) < 2:
        return 1.0
    # scipy.special loads far faster than scipy.stats, which every CLI call
    # would otherwise pay for this one p-value
    from scipy.special import chdtrc

    obs = np.asarray(pooled_obs, dtype=float)
    exp = np.asarray(pooled_exp, dtype=float)
    exp = exp * (obs.sum() / exp.sum())
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(chdtrc(len(obs) - 1, stat))


def _condition(dist, readout_modes, groups):
    """Restrict a readout distribution to outcomes matching group-sum rules."""
    index = {m: i for i, m in enumerate(readout_modes)}
    kept = {}
    for outcome, p in dist.items():
        ok = True
        for modes, required in groups:
            if sum(outcome[index[m]] for m in modes) != required:
                ok = False
                break
        if ok:
            kept[outcome] = p
    total = sum(kept.values())
    return ({k: v / total for k, v in kept.items()}, total)


def compare_lhv_quantum(spec, circuit, shots, seed=DEFAULT_SEED, postselect=None):
    """Exact quantum vs empirical LHV readout statistics for one circuit.

    ``postselect`` optionally lists ``(modes, required_total)`` pairs applied
    to the readout counts of both sides (quantum by conditioning, LHV by
    rejection), covering post-selection rules that are not per-mode heralds.
    """
    if shots < 1:
        raise InvalidParameter(f"a comparison needs at least one shot, got {shots}")
    if spec.n_modes != circuit.n_modes:
        raise ShapeMismatch(
            f"spec has {spec.n_modes} modes, circuit {circuit.n_modes}"
        )
    qstats = detector_statistics(spec.quantum_state(), circuit)
    qdist = qstats.distribution
    run = run_lhv_experiment(spec, circuit, shots, seed)
    lhv_counts = dict(run.counts)
    accepted = run.accepted
    if postselect:
        qdist, _ = _condition(qdist, qstats.readout_modes, postselect)
        index = {m: i for i, m in enumerate(run.readout_modes)}
        lhv_counts = {
            k: v
            for k, v in lhv_counts.items()
            if all(
                sum(k[index[m]] for m in modes) == req for modes, req in postselect
            )
        }
        accepted = sum(lhv_counts.values())
    freqs = {k: v / accepted for k, v in lhv_counts.items()} if accepted else {}
    outcomes = sorted(set(qdist) | set(freqs))
    rows = []
    tv = 0.0
    for outcome in outcomes:
        q = qdist.get(outcome, 0.0)
        fr = freqs.get(outcome, 0.0)
        tv += abs(q - fr)
        err = math.sqrt(fr * (1.0 - fr) / accepted) if accepted else 0.0
        z = (fr - q) / err if err > 0 else 0.0
        rows.append(OutcomeRow(outcome, q, fr, err, z))
    p_value = _chi_square_p(lhv_counts, qdist, accepted)
    return ComparisonReport(
        rows=rows,
        tv_distance=0.5 * tv,
        chi2_p_value=p_value,
        n_outcomes=len(qdist),
        shots=run.shots,
        accepted=accepted,
        quantum_herald=qstats.herald_probability,
        lhv_herald=run.herald_rate,
        seed=int(seed),
    )

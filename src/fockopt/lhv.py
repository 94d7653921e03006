"""Local hidden-variable Monte Carlo for states reducible to a single mode.

The ontic state of a shot is a particle count per mode.  The preparation
draws the counts of |alpha>^N multinomially on the weights |alpha_j|^2.  A
two-mode gate on (s, t) re-deals the pair's particles binomially: each one
leaves on s with probability p = w_s / (w_s + w_t), where w are the weights
of alpha carried through the circuit up to that gate.  Detectors read the
counts.  A multinomial re-dealt this way stays multinomial on the rotated
weights, so the count law equals the quantum detection law at every step.

Alpha evolves deterministically up to a global phase that no statistic sees,
so every split probability p is fixed by the circuit: :func:`_splits`
computes them once, and phase shifters enter only through them.  Shots run
in blocks of ``BLOCK``.  Block b of seed s draws from its own counter-based
Philox stream keyed (s, b) (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11): one multinomial for the block's starts, then one
vectorized binomial per gate.  A tally therefore depends on the seed, the
shot count and ``BLOCK`` alone, not on the order in which blocks run;
``BLOCK`` is part of that contract, and changing it changes every tally.

A block is tallied without sorting rows.  Each accepted readout row becomes
one int64 code (:func:`_row_codes`): the columns are folded in, most
significant first, each in base (column maximum + 1), so the codes sort the
way the rows sort lexicographically.  Before a fold could pass
``CODE_LIMIT`` the partial code is replaced by its rank among the block's
rows, which keeps the order and is below the row count; a column too wide
even for that is folded in by its own rank.  The codes are therefore exact
for any particle number and readout width.  One 1-D ``np.unique`` counts
them, and each outcome's row is read back at its first index, so nothing is
decoded: a block's outcomes come out in lexicographic order, and a run's in
the order they are first seen across blocks.
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import detector_statistics
from .classify import single_mode_state
from .errors import DegenerateAmplitude, InvalidParameter, ShapeMismatch
from .states import _complex_array, _integer, _read_only
from .tolerances import EMPTY_PAIR, NORM_TOL

DEFAULT_SEED = 20240901
# shots per random stream; part of the reproducibility contract (see above)
BLOCK = 4096
# a partial row code is ranked before a fold could take it past this
CODE_LIMIT = 2**62


@dataclass(frozen=True)
class EpistemicSpec:
    """Preparation ensemble of a single-mode-type state.

    Counts are drawn multinomially on the squared moduli of ``alpha``; its
    global phase is statistically inert and is not drawn.
    """

    alpha: np.ndarray
    n_particles: int

    def __post_init__(self):
        alpha = _complex_array(self.alpha, "alpha")
        # written so that a NaN norm fails it too; an empty vector has norm 0
        if alpha.ndim != 1 or not abs(np.linalg.norm(alpha) - 1.0) <= NORM_TOL:
            raise ShapeMismatch(
                "epistemic amplitude vector must be a finite, normalized 1-D vector"
            )
        object.__setattr__(self, "alpha", _read_only(alpha.copy()))
        n = _integer(self.n_particles, "particle number", least=0)
        object.__setattr__(self, "n_particles", n)

    @property
    def n_modes(self):
        return self.alpha.shape[0]

    def quantum_state(self):
        return single_mode_state(self.alpha, self.n_particles)


def _splits(alpha, circuit):
    """``(s, t, p)`` for each two-mode gate of ``circuit``, in order.

    ``alpha`` is carried once through every gate; ``p`` is the probability
    that a particle of the pair leaves on mode ``s``, or None for a pair of
    weight below ``EMPTY_PAIR``, which no particle can reach.
    """
    amps = np.array(alpha, dtype=complex)
    splits = []
    for modes, value in circuit._gates:
        if len(modes) == 1:
            amps[modes[0]] *= cmath.exp(1j * value)
            continue
        s, t = modes
        amps[[s, t]] = amps[[s, t]] @ value
        ws, wt = abs(amps[s]) ** 2, abs(amps[t]) ** 2
        splits.append((s, t, ws / (ws + wt) if ws + wt >= EMPTY_PAIR else None))
    return splits


def _row_codes(rows):
    """One int64 code per row of the non-negative integer array ``rows``,
    ordered as the rows sort lexicographically (see the module docstring)."""
    codes = np.zeros(len(rows), dtype=np.int64)
    span = 1  # every code lies in [0, span)
    for col in rows.T:
        base = int(col.max(initial=0)) + 1
        if span * base > CODE_LIMIT:
            # a rank is below the row count and keeps the order of the codes
            codes = np.unique(codes, return_inverse=True)[1]
            span = len(rows)
            if span * base > CODE_LIMIT:
                # a column too wide even for that is folded in by its own rank
                col = np.unique(col, return_inverse=True)[1]
                base = len(rows)
        codes = codes * base + col
        span *= base
    return codes


def _run_block(spec, circuit, splits, seed, block, size):
    """Readout tallies and accepted count of ``size`` shots of block ``block``."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    probs = np.abs(spec.alpha) ** 2
    counts = rng.multinomial(spec.n_particles, probs / probs.sum(), size=size)
    for s, t, p in splits:
        k = counts[:, s] + counts[:, t]
        if p is None:
            if k.any():
                raise DegenerateAmplitude(
                    "both rotated amplitudes vanish while particles are present"
                )
            continue
        counts[:, s] = rng.binomial(k, p)
        counts[:, t] = k - counts[:, s]
    heralds = circuit.heralds
    accepted = np.all(counts[:, list(heralds)] == list(heralds.values()), axis=1)
    readout = counts[accepted][:, list(circuit.readout_modes)]
    _, first, hits = np.unique(_row_codes(readout), return_index=True, return_counts=True)
    return dict(zip(map(tuple, readout[first].tolist()), hits.tolist())), int(accepted.sum())


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


def run_lhv_experiment(spec, circuit, shots, seed=DEFAULT_SEED):
    """Run ``shots`` independent shots and tally readout-detector outcomes.

    Shots run in blocks of ``BLOCK``, block b drawing from the Philox stream
    keyed ``(seed, b)`` (see the module docstring), so a tally is fixed by
    ``(seed, shots, BLOCK)``.  Shots whose heralded detectors miss their
    required count are rejected (and counted, so the acceptance rate can be
    compared with the quantum herald probability).  Outcome keys follow
    ``circuit.readout_modes``.  ``shots`` must be at least 1.

    A spec narrower than the circuit occupies its first modes, vacuum on the
    rest: alpha is zero-padded once, so the tallies are those of the padded
    spec.  ShapeMismatch for a spec wider than the circuit.
    """
    if spec.n_modes > circuit.n_modes:
        raise ShapeMismatch(
            f"spec has {spec.n_modes} modes, circuit {circuit.n_modes}"
        )
    shots = _integer(shots, "shot count", least=1)
    seed = _integer(seed, "seed")
    spec = replace(spec, alpha=np.append(spec.alpha, np.zeros(circuit.n_modes - spec.n_modes)))
    splits = _splits(spec.alpha, circuit)
    counts = {}
    accepted = 0
    for block, start in enumerate(range(0, shots, BLOCK)):
        tally, hits = _run_block(
            spec, circuit, splits, seed, block, min(BLOCK, shots - start)
        )
        accepted += hits
        for outcome, hit in tally.items():
            counts[outcome] = counts.get(outcome, 0) + hit
    return LhvRunResult(counts, shots, accepted, circuit.readout_modes)


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


def _chi2_sf(dof, stat):
    """Upper tail P(X >= stat) of a chi-square law with integer ``dof`` >= 1.

    In closed form (Abramowitz & Stegun 26.4.4-5), with y = stat/2: a
    Poisson sum of dof/2 terms, plus erfc(sqrt y) and half-integer powers of
    y for odd dof.  Each term is one exp of a log, since exp(-y) alone
    underflows to 0 once y > 708, where the tail can still be about 1/2.
    """
    if stat <= 0.0:
        return 1.0
    if not stat < math.inf:
        # +inf, and NaN, which must not pass as a p-value of 1
        return 0.0
    y = 0.5 * stat
    log_y = math.log(y)
    h = 0.5 * (dof % 2)
    terms = [
        math.exp((i + h) * log_y - y - math.lgamma(i + h + 1.0)) for i in range(dof // 2)
    ]
    if h:
        terms.append(math.erfc(math.sqrt(y)))
    return min(1.0, math.fsum(terms))


def _chi_square_p(observed, expected_probs, total):
    """Chi-square p against exact cell probabilities, pooling thin cells.

    Cells with expected count below 5 are merged; an observed outcome of
    exactly zero quantum probability is an immediate failure.  The p-value
    is the closed-form tail :func:`_chi2_sf` on ``len(cells) - 1`` degrees of
    freedom.
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
    obs = np.asarray(pooled_obs, dtype=float)
    exp = np.asarray(pooled_exp, dtype=float)
    exp = exp * (obs.sum() / exp.sum())
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return _chi2_sf(len(obs) - 1, stat)


def _postselection(readout_modes, groups):
    """Predicate on readout outcomes: each ``(modes, required)`` group of
    distinct readout modes holds exactly ``required`` >= 0 particles in total.

    The groups are checked here, before any shot runs: a mode must be an
    integer that is read out, and appear once in its group.
    """
    try:
        groups = [(list(modes), required) for modes, required in groups]
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(
            f"post-selection must list (modes, total) pairs, got {groups!r}"
        ) from exc
    index = {m: i for i, m in enumerate(readout_modes)}
    rules = []
    for modes, required in groups:
        modes = [_integer(m, "post-selected mode") for m in modes]
        if len(set(modes)) < len(modes):
            raise InvalidParameter(f"post-selection group {modes} repeats a mode")
        missing = [m for m in modes if m not in index]
        if missing:
            raise ShapeMismatch(f"post-selected modes {missing} are not read out")
        required = _integer(required, "post-selected total", least=0)
        rules.append(([index[m] for m in modes], required))
    return lambda outcome: all(
        sum(outcome[i] for i in cols) == required for cols, required in rules
    )


def compare_lhv_quantum(spec, circuit, shots, seed=DEFAULT_SEED, postselect=None):
    """Exact quantum vs empirical LHV readout statistics for one circuit.

    ``postselect`` optionally lists ``(modes, required_total)`` pairs applied
    to the readout counts of both sides (quantum by conditioning, LHV by
    rejection), covering post-selection rules that are not per-mode heralds.
    The pairs are checked before any shot runs (see :func:`_postselection`).
    """
    seed = _integer(seed, "seed")
    keep = _postselection(circuit.readout_modes, postselect) if postselect else None
    # the run checks the shot count and the widths before any shot
    run = run_lhv_experiment(spec, circuit, shots, seed)
    qstats = detector_statistics(spec.quantum_state(), circuit)
    qdist = qstats.distribution
    lhv_counts = run.counts
    accepted = run.accepted
    if keep:
        qdist = {k: p for k, p in qdist.items() if keep(k)}
        total = sum(qdist.values())
        qdist = {k: p / total for k, p in qdist.items()}
        lhv_counts = {k: v for k, v in lhv_counts.items() if keep(k)}
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
        seed=seed,
    )

"""Sparse Fock states of identical particles and their linear-optical evolution.

States live in the fixed-N sector of the occupation-number representation and
are stored as sparse maps from occupation tuples to complex amplitudes.  Mode
transformations act by substituting creation operators, so both boson and
fermion statistics are handled by the same expansion with normal ordering.
"""

import json
import math
import warnings
from enum import Enum

import numpy as np

from .errors import (
    InvalidFile,
    InvalidOccupation,
    NotUnitary,
    ShapeMismatch,
    ZeroOutcome,
    ZeroState,
)

NORM_TOL = 1e-10
UNITARY_TOL = 1e-10
HERALD_CUTOFF = 1e-14
# amplitudes below this fraction of the largest one are dropped as float dust
PRUNE_REL = 1e-14


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


BOSON = Statistics.BOSON
FERMION = Statistics.FERMION


def _occ_factorial(occ):
    out = 1
    for n in occ:
        out *= math.factorial(n)
    return out


def _validate_occupation(occ, n_modes, statistics):
    if len(occ) != n_modes:
        raise ShapeMismatch(f"occupation {occ} does not have {n_modes} entries")
    for n in occ:
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise InvalidOccupation(f"occupation numbers must be integers >= 0, got {occ}")
        if statistics is FERMION and n > 1:
            raise InvalidOccupation(f"fermion occupation above 1 in {occ}")


class FockState:
    """Definite-N state over M modes with sparse complex amplitudes.

    Fermion amplitudes refer to creation operators applied in increasing mode
    order; all observable quantities are independent of that convention.
    Instances are immutable; every operation returns a new state.
    """

    __slots__ = ("statistics", "n_modes", "n_particles", "_amps")

    def __init__(self, statistics, n_modes, amplitudes, normalized=True):
        if not isinstance(statistics, Statistics):
            statistics = Statistics(statistics)
        if n_modes < 1:
            raise ShapeMismatch("a state needs at least one mode")
        amps = {}
        n_particles = None
        for occ, amp in amplitudes.items():
            occ = tuple(int(n) for n in occ)
            _validate_occupation(occ, n_modes, statistics)
            total = sum(occ)
            if n_particles is None:
                n_particles = total
            elif total != n_particles:
                raise ShapeMismatch(
                    f"mixed particle numbers {n_particles} and {total} in one state"
                )
            amp = complex(amp)
            if amp != 0:
                amps[occ] = amps.get(occ, 0j) + amp
        if not amps:
            raise ZeroState("state has no nonzero amplitude")
        peak = max(abs(a) for a in amps.values())
        amps = {occ: a for occ, a in amps.items() if abs(a) > PRUNE_REL * peak}
        object.__setattr__(self, "statistics", statistics)
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "n_particles", n_particles)
        object.__setattr__(self, "_amps", amps)
        if normalized and abs(self.norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"state norm {self.norm!r} deviates from 1 beyond {NORM_TOL}"
            )

    def __setattr__(self, name, value):
        raise AttributeError("FockState is immutable")

    @property
    def norm(self):
        return math.sqrt(sum(abs(a) ** 2 for a in self._amps.values()))

    def amplitude(self, occ):
        return self._amps.get(tuple(occ), 0j)

    def items(self):
        return self._amps.items()

    def occupations(self):
        return self._amps.keys()

    def normalized(self):
        """Return the unit-norm version of this state."""
        n = self.norm
        if n < 1e-12:
            raise ZeroState("cannot normalize a numerically zero state")
        return FockState(
            self.statistics,
            self.n_modes,
            {occ: a / n for occ, a in self._amps.items()},
        )

    def __repr__(self):
        terms = ", ".join(
            f"{occ}: {amp:.4g}" for occ, amp in sorted(self._amps.items())
        )
        return (
            f"FockState({self.statistics.value}, N={self.n_particles}, "
            f"M={self.n_modes}, {{{terms}}})"
        )


def make_number_state(counts, statistics=BOSON):
    """Basis state with the given occupation numbers and amplitude one."""
    counts = tuple(int(n) for n in counts)
    return FockState(statistics, len(counts), {counts: 1.0})


def superpose(terms):
    """Amplitude-wise combination ``sum_k c_k |psi_k>``, renormalized.

    All terms must share statistics, particle number and mode count.
    Raises ZeroState when the combination cancels below norm 1e-12.
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
            amps[occ] = amps.get(occ, 0j) + complex(coeff) * amp
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm < 1e-12:
        raise ZeroState("superposition cancelled to the zero vector")
    return FockState(
        first.statistics, first.n_modes, {o: a / norm for o, a in amps.items()}
    )


def require_unitary(u, tol=UNITARY_TOL):
    """Validate ``u`` as a square unitary matrix; return it as complex ndarray."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NotUnitary("matrix has non-finite entries")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > tol:
        raise NotUnitary(f"matrix deviates from unitarity by {dev:.3e}")
    return u


def apply_mode_unitary(state, u):
    """Evolve ``state`` under the mode transformation a_i^† -> sum_j U_ij a_j^†.

    Bosons expand by plain polynomial multiplication; fermions pick up
    normal-ordering signs and respect exclusion.  Applying U then V equals a
    single application of the matrix product U @ V.
    """
    u = require_unitary(u)
    m = state.n_modes
    if u.shape[0] != m:
        raise ShapeMismatch(f"unitary is {u.shape[0]}x{u.shape[0]}, state has {m} modes")
    fermionic = state.statistics is FERMION
    rows = [[(j, u[i, j]) for j in range(m) if u[i, j] != 0] for i in range(m)]
    out = {}
    for occ, amp in state.items():
        poly = {(0,) * m: amp / math.sqrt(_occ_factorial(occ))}
        for i, n_i in enumerate(occ):
            row = rows[i]
            for _ in range(n_i):
                nxt = {}
                for mono, coeff in poly.items():
                    for j, uij in row:
                        if fermionic:
                            if mono[j]:
                                continue
                            sign = -1.0 if sum(mono[j + 1 :]) % 2 else 1.0
                            key = mono[:j] + (1,) + mono[j + 1 :]
                            nxt[key] = nxt.get(key, 0j) + sign * coeff * uij
                        else:
                            key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                            nxt[key] = nxt.get(key, 0j) + coeff * uij
                poly = nxt
        for mono, coeff in poly.items():
            out[mono] = out.get(mono, 0j) + coeff * math.sqrt(_occ_factorial(mono))
    return FockState(state.statistics, m, out)


def detection_distribution(state):
    """Probability of each occupation pattern under number-resolving detection."""
    return {occ: abs(amp) ** 2 for occ, amp in state.items()}


def _herald_sign(occ, measured, unmeasured):
    # permutation sign for pulling the measured creation operators to the
    # front of the increasing-order string (fermions only)
    swaps = 0
    for m in measured:
        if occ[m]:
            swaps += occ[m] * sum(occ[j] for j in unmeasured if j < m)
    return -1.0 if swaps % 2 else 1.0


def herald(state, measured_modes, required_counts):
    """Condition on exact detector counts in ``measured_modes``.

    Returns ``(state on the remaining modes, success probability)``; the
    remaining modes keep their relative order.  Raises ZeroOutcome when the
    projected component has probability below 1e-14.
    """
    measured = sorted(set(int(m) for m in measured_modes))
    required = {int(k): int(v) for k, v in required_counts.items()}
    if set(required) != set(measured):
        raise ShapeMismatch("required_counts must cover exactly the measured modes")
    for m in measured:
        if not 0 <= m < state.n_modes:
            raise ShapeMismatch(f"measured mode {m} out of range")
    if len(measured) >= state.n_modes:
        raise ShapeMismatch("heralding away every mode leaves no state")
    unmeasured = [i for i in range(state.n_modes) if i not in required]
    kept = [
        (occ, amp)
        for occ, amp in state.items()
        if all(occ[m] == required[m] for m in measured)
    ]
    prob = sum(abs(amp) ** 2 for _, amp in kept)
    if prob < HERALD_CUTOFF:
        raise ZeroOutcome(f"herald {required} fires with probability {prob:.3e}")
    scale = 1.0 / math.sqrt(prob)
    fermionic = state.statistics is FERMION
    amps = {}
    for occ, amp in kept:
        if fermionic:
            amp = amp * _herald_sign(occ, measured, unmeasured)
        amps[tuple(occ[i] for i in unmeasured)] = amp * scale
    return FockState(state.statistics, len(unmeasured), amps), prob


def embed(state, n_modes, positions):
    """Place ``state`` into a larger register, vacuum in the new modes.

    ``positions`` maps each existing mode to its new index and must be
    strictly increasing so fermion ordering is preserved.
    """
    positions = [int(p) for p in positions]
    if len(positions) != state.n_modes:
        raise ShapeMismatch("one position per existing mode required")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ShapeMismatch("positions must be strictly increasing")
    if positions and (positions[0] < 0 or positions[-1] >= n_modes):
        raise ShapeMismatch("positions out of range")
    amps = {}
    for occ, amp in state.items():
        full = [0] * n_modes
        for p, n in zip(positions, occ):
            full[p] = n
        amps[tuple(full)] = amp
    return FockState(state.statistics, n_modes, amps)


def inner(a, b):
    """Inner product <a|b> of two states on the same sector."""
    if (
        a.statistics is not b.statistics
        or a.n_modes != b.n_modes
        or a.n_particles != b.n_particles
    ):
        raise ShapeMismatch("inner product needs matching statistics, N and M")
    return sum(amp.conjugate() * b.amplitude(occ) for occ, amp in a.items())


def fidelity(a, b):
    """Phase-insensitive overlap |<a|b>|."""
    return abs(inner(a, b))


# ---------------------------------------------------------------------------
# state files: {"statistics": "boson"|"fermion", "modes": M,
#               "terms": [{"occ": [n1..nM], "re": x, "im": y}, ...]}
# ---------------------------------------------------------------------------

def state_to_dict(state):
    terms = [
        {"occ": list(occ), "re": amp.real, "im": amp.imag}
        for occ, amp in sorted(state.items())
    ]
    return {
        "statistics": state.statistics.value,
        "modes": state.n_modes,
        "terms": terms,
    }


def _file_number(value):
    """A finite JSON number; bools are rejected (``true`` is not 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _file_count(value):
    value = _file_number(value)
    if value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def state_from_dict(data):
    try:
        statistics = Statistics(data["statistics"])
        n_modes = _file_count(data["modes"])
        amps = {}
        for term in data["terms"]:
            occ = tuple(_file_count(n) for n in term["occ"])
            amps[occ] = amps.get(occ, 0j) + complex(
                _file_number(term["re"]), _file_number(term.get("im", 0.0))
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidFile(f"malformed state description: {exc}") from exc
    try:
        raw = FockState(statistics, n_modes, amps, normalized=False)
    except (InvalidOccupation, ShapeMismatch, ZeroState) as exc:
        raise InvalidFile(f"invalid state content: {exc}") from exc
    if abs(raw.norm - 1.0) > 1e-6:
        warnings.warn(
            f"state file norm {raw.norm:.9g} deviates from 1; renormalizing",
            stacklevel=2,
        )
    return raw.normalized()


def load_state(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidFile(
            f"JSON parse error: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    return state_from_dict(data)


def save_state(state, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh, indent=1)
        fh.write("\n")

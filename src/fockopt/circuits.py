"""Elementary optical gates, circuits with heralding, and mesh decomposition.

A circuit is an ordered list of elements; the first element acts first.  Mode
indices are 0-based in memory and 1-based in the JSON file format.  Detectors
terminate their mode: no later element may touch it.  A circuit is compiled
when it is built: the loop that checks its elements also collects its heralds
and its kernel gates, and no executor converts elements again.

Execution runs the herald plan of :mod:`fockopt.states` (the "Herald" bullet
of its docstring), the same plan as :func:`~fockopt.states.herald`: it
heralds early where it can, drops idle modes and evolves only what the output
depends on.  Both :func:`run_circuit` and :func:`detector_statistics` run it,
and both read its terms on every unheralded mode: the plan itself brings the
modes it left out back as vacuum.  A circuit is a passive experiment fed the
state plus vacuum on its extra modes, so a state narrower than the circuit
runs as it is, on the circuit's first modes; :func:`_execute` refuses only a
state wider than the circuit.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidCircuit,
    InvalidFile,
    ShapeMismatch,
)
from .states import (
    MAX_MODES,
    FockState,
    _decoding,
    _fired,
    _integer,
    _number,
    _plan,
    _read_json,
    _read_only,
    _write_json,
    reck_gates,
    require_unitary,
)

_SWAP_MATRIX = _read_only(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def hadamard():
    """The real 2x2 Hadamard; note it is its own inverse."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _check_pair(modes):
    s, t = (_integer(modes[0], "mode"), _integer(modes[1], "mode"))
    if s == t:
        raise InvalidCircuit("two-mode element needs distinct modes")
    return s, t


@dataclass(frozen=True, eq=False)
class BeamSplitter:
    """Two-mode gate with an arbitrary 2x2 unitary; row/column order = modes."""

    modes: tuple
    matrix: np.ndarray = field(default_factory=hadamard)

    def __post_init__(self):
        object.__setattr__(self, "modes", _check_pair(self.modes))
        m = require_unitary(self.matrix)
        if m.shape != (2, 2):
            raise ShapeMismatch("beam splitter matrix must be 2x2")
        object.__setattr__(self, "matrix", _read_only(m.copy()))

    @classmethod
    def _trusted(cls, modes, matrix):
        """Splitter with a 2x2 matrix that is unitary by construction; the
        modes are checked, the matrix is neither checked nor copied."""
        bs = object.__new__(cls)
        object.__setattr__(bs, "modes", _check_pair(modes))
        object.__setattr__(bs, "matrix", _read_only(matrix))
        return bs


@dataclass(frozen=True)
class PhaseShifter:
    mode: int
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "mode", _integer(self.mode, "mode"))
        object.__setattr__(self, "phi", _number(self.phi, "phase", float) % (2.0 * math.pi))


@dataclass(frozen=True)
class Swap:
    modes: tuple

    def __post_init__(self):
        object.__setattr__(self, "modes", _check_pair(self.modes))


@dataclass(frozen=True)
class Detector:
    """Number-resolving detector; ``herald`` fixes the accepted count.

    With ``herald=None`` the detector is a readout: its counts form the
    experiment's outcome instead of post-selecting.
    """

    mode: int
    herald: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode", _integer(self.mode, "mode"))
        if self.herald is not None:
            object.__setattr__(self, "herald", _integer(self.herald, "herald count", least=0))


def element_modes(element):
    if isinstance(element, (BeamSplitter, Swap)):
        return element.modes
    return (element.mode,)


class Circuit:
    """Ordered optical elements on a fixed number of modes.

    The views are computed once, in the one loop that checks the elements:
    ``readout_modes`` holds the modes of the unheralded detectors in element
    order and ``output_modes`` the undetected modes, ascending.  The private
    ``_heralds`` maps each heralded mode to its count, and ``_gates`` holds
    the kernel gates of the other elements in element order, in the form
    :func:`~fockopt.states.evolve` takes: the circuit is compiled once and
    every run reads it.
    """

    __slots__ = ("n_modes", "elements", "readout_modes", "output_modes", "_heralds", "_gates")

    def __init__(self, n_modes, elements=()):
        n_modes = _integer(n_modes, "mode count")
        if not 1 <= n_modes <= MAX_MODES:
            raise InvalidCircuit(f"a circuit needs 1 to {MAX_MODES} modes, got {n_modes}")
        elements = tuple(elements)
        readout = []
        detected = set()
        heralds = {}
        gates = []
        for el in elements:
            if not isinstance(el, (BeamSplitter, PhaseShifter, Swap, Detector)):
                raise InvalidCircuit(f"not a circuit element: {el!r}")
            for m in element_modes(el):
                if not 0 <= m < n_modes:
                    raise InvalidCircuit(f"mode {m} out of range for {n_modes} modes")
                if m in detected:
                    raise InvalidCircuit(f"mode {m} is already terminated by a detector")
            if isinstance(el, Detector):
                detected.add(el.mode)
                if el.herald is None:
                    readout.append(el.mode)
                else:
                    heralds[el.mode] = el.herald
            elif isinstance(el, PhaseShifter):
                gates.append(((el.mode,), el.phi))
            else:
                gates.append((el.modes, _SWAP_MATRIX if isinstance(el, Swap) else el.matrix))
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "readout_modes", tuple(readout))
        object.__setattr__(
            self, "output_modes", tuple(m for m in range(n_modes) if m not in detected)
        )
        object.__setattr__(self, "_heralds", heralds)
        object.__setattr__(self, "_gates", tuple(gates))

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    @property
    def heralds(self):
        """Map detector mode -> required count, heralded detectors only; a
        fresh dict on every access, so a caller cannot change the circuit."""
        return dict(self._heralds)

    def extended(self, extra_elements):
        """New circuit with ``extra_elements`` appended."""
        return Circuit(self.n_modes, self.elements + tuple(extra_elements))

    def __repr__(self):
        return f"Circuit(n_modes={self.n_modes}, elements={list(self.elements)})"


def _execute(state, circuit):
    """The herald plan of ``circuit`` on ``state``: ``states._plan`` of its
    compiled gates and heralds in the circuit's register, vacuum on the modes
    past the state's.  ShapeMismatch for a state wider than the circuit."""
    if state.n_modes > circuit.n_modes:
        raise ShapeMismatch(
            f"state has {state.n_modes} modes, circuit {circuit.n_modes}"
        )
    return _plan(state, circuit._gates, circuit._heralds, circuit.n_modes)


def run_circuit(state, circuit):
    """Execute the circuit and return ``(state on output modes, probability)``.

    A state narrower than the circuit occupies its first modes, vacuum on the
    rest; ShapeMismatch for a wider one.  Every detector must carry a herald
    count.  The probability is that of the joint herald; ZeroOutcome is raised
    when it is below ``HERALD_CUTOFF``.  Without heralds it is exactly 1.
    """
    if circuit.readout_modes:
        raise InvalidCircuit(
            "run_circuit needs heralded detectors; use detector_statistics "
            "for readout detectors"
        )
    if not circuit.output_modes:
        raise ShapeMismatch("heralding away every mode leaves no state")
    reached = _execute(state, circuit)
    if circuit._heralds:
        return _fired(state, circuit._heralds, reached)
    # nothing is measured: no renormalization, and p is 1 exactly
    return FockState._trusted(state.statistics, circuit.n_modes, state.n_particles, *reached), 1.0


@dataclass
class ReadoutStatistics:
    """Joint counts on readout detectors, conditioned on heralds."""

    distribution: dict
    herald_probability: float
    readout_modes: tuple


def detector_statistics(state, circuit):
    """Distribution of readout-detector counts, conditioned on the heralds.

    A state narrower than the circuit occupies its first modes, vacuum on the
    rest; ShapeMismatch for a wider one.  Modes without any detector are
    traced out.  Outcome keys are count tuples ordered like
    ``circuit.readout_modes``.  The heralds apply no cutoff: any probability
    above 0 gives a distribution.
    """
    readout = circuit.readout_modes
    reached = _execute(state, circuit)
    if reached is None:
        return ReadoutStatistics({}, 0.0, readout)
    occ, amp = reached
    # a readout's column among the unheralded modes
    heralded = sorted(circuit._heralds)
    columns = [m - bisect.bisect(heralded, m) for m in readout]
    # few terms per state: a dict tally beats np.unique's fixed cost per call
    dist = {}
    p_herald = 0.0
    keys = occ.take(columns, axis=1).tolist()
    for key, a in zip(map(tuple, keys), amp.tolist()):
        p = abs(a) ** 2
        p_herald += p
        dist[key] = dist.get(key, 0.0) + p
    if p_herald <= 0.0:
        return ReadoutStatistics({}, 0.0, readout)
    return ReadoutStatistics({k: v / p_herald for k, v in dist.items()}, p_herald, readout)


def reck_decompose(u):
    """Factor a mode unitary into a triangular mesh of two-mode gates.

    Produces at most M(M-1)/2 beam splitters on adjacent mode pairs plus up
    to M phase shifters; their embedded matrices, multiplied left to right,
    recover ``u``.
    """
    u = require_unitary(u)
    if u.ndim != 2:
        raise ShapeMismatch(f"expected a square matrix, got shape {u.shape}")
    return Circuit(
        u.shape[0],
        [
            PhaseShifter(modes[0], value)
            if len(modes) == 1
            else BeamSplitter._trusted(modes, value)
            for modes, value in reck_gates(u)
        ],
    )


# ---------------------------------------------------------------------------
# published interferometer topologies
#
# Mode layout convention: the two signal modes come first, ancilla rails are
# appended after them.  The splitter stage lives here; the heralded filter and
# erasure stages that feed it are built per particle number by
# ``fockopt.bell.two_mode_preparations``.
# ---------------------------------------------------------------------------

_YURKE_STOLER = Circuit(
    4, [BeamSplitter((0, 2), hadamard()), BeamSplitter((1, 3), hadamard()), Swap((2, 3))]
)


def yurke_stoler_circuit():
    """Two-qubit splitter stage: modes (0,1) = inputs, (2,3) = empty rails.

    Each input mode is split onto its empty rail by a Hadamard beam splitter
    (the real Hadamard equals its inverse, so both splitters are identical),
    then the two new rails are exchanged.  Post-selection on one particle per
    rail pair is performed by the Bell-test layer, not by this circuit.
    Every call returns the same immutable circuit.
    """
    return _YURKE_STOLER


# ---------------------------------------------------------------------------
# circuit files (1-based mode indices):
# {"modes": M, "elements": [{"type": "bs", "modes": [s,t], "matrix": [[..]]},
#  {"type": "ps", "mode": s, "phi": x}, {"type": "swap", "modes": [s,t]},
#  {"type": "detect", "mode": s, "herald": k}], "outputs": [...]}
# Matrix entries are [re, im] pairs.
# ---------------------------------------------------------------------------

def _matrix_to_json(m):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows):
    """Inverse of ``_matrix_to_json``; every part must be a finite number."""
    parts = [[[_number(x, "matrix entry", float) for x in z] for z in row] for row in rows]
    return np.array([[complex(re, im) for re, im in row] for row in parts], dtype=complex)


def circuit_to_dict(circuit):
    elements = []
    for el in circuit.elements:
        if isinstance(el, BeamSplitter):
            s, t = el.modes
            elements.append(
                {"type": "bs", "modes": [s + 1, t + 1], "matrix": _matrix_to_json(el.matrix)}
            )
        elif isinstance(el, PhaseShifter):
            elements.append({"type": "ps", "mode": el.mode + 1, "phi": el.phi})
        elif isinstance(el, Swap):
            s, t = el.modes
            elements.append({"type": "swap", "modes": [s + 1, t + 1]})
        else:
            entry = {"type": "detect", "mode": el.mode + 1}
            if el.herald is not None:
                entry["herald"] = el.herald
            elements.append(entry)
    return {
        "modes": circuit.n_modes,
        "elements": elements,
        "outputs": [m + 1 for m in circuit.output_modes],
    }


def circuit_from_dict(data):
    with _decoding("circuit description"):
        elements = []
        for entry in data["elements"]:
            kind = entry["type"]
            if kind == "bs":
                s, t = (_integer(x, "mode") - 1 for x in entry["modes"])
                elements.append(BeamSplitter((s, t), _matrix_from_json(entry["matrix"])))
            elif kind == "ps":
                elements.append(PhaseShifter(_integer(entry["mode"], "mode") - 1, entry["phi"]))
            elif kind == "swap":
                s, t = (_integer(x, "mode") - 1 for x in entry["modes"])
                elements.append(Swap((s, t)))
            elif kind == "detect":
                mode = _integer(entry["mode"], "mode") - 1
                elements.append(Detector(mode, entry.get("herald")))
            else:
                raise InvalidFile(f"unknown element type {kind!r}")
        circuit = Circuit(data["modes"], elements)
        declared = data.get("outputs")
        actual = [m + 1 for m in circuit.output_modes]
        if declared is not None and sorted(_integer(x, "output") for x in declared) != actual:
            raise InvalidFile(
                f"declared outputs {declared} disagree with undetected modes {actual}"
            )
    return circuit


def load_circuit(path):
    return circuit_from_dict(_read_json(path))


def save_circuit(circuit, path):
    _write_json(circuit_to_dict(circuit), path)

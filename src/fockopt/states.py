"""Fock states of identical particles and their linear-optical evolution.

A state lives in the fixed-N sector of the occupation-number representation.
:class:`FockState` holds only its terms, as arrays, since a state can be
sparse in a sector too large to list.  Evolution runs on one dense complex
vector over the whole sector instead, one gate at a time (the strong
simulation of SLOS, Heurtel et al., arXiv:2206.10549):

* **Rank indexing.**  The basis of the N-particle, M-mode sector is listed
  once per (M, N, statistics) and cached.  Basis states are ranked by the
  lexicographic order of their occupied modes, one entry per particle: the
  modes with repetition (bosons) or the sorted distinct modes (fermions).
  That is the descending lexicographic order of the occupation tuples.
  Amplitude r of the vector belongs to basis state r.  A rank is arithmetic,
  not a lookup (:func:`_ranks`): over the modes, it sums the basis states
  that agree with the row on the modes before and hold more particles in
  this one, counts read from a cached table of binomials (Knuth, TAOCP 4A,
  7.2.1.3).  Terms of any number are ranked in one gather and one sum.
* **Block action.**  A two-mode gate g on modes (s, t) keeps n = n_s + n_t and
  the occupations of all other modes.  Basis states that share both form one
  block, and the gate acts on it as one small matrix on |n_s, n_t>.  For
  bosons this is the n-th symmetric power of the 2x2 matrix g.  The index
  sets of the blocks are cached per (M, N, statistics, s, t).  With N <= 2
  the blocks are read off g's four entries: the n = 1 block is the
  transposed gate, shared with the fermions, and the n = 2 block is the 3x3
  Sym^2 g, products of two entries with sqrt(2) factors.  Only sectors of
  N >= 3 look their blocks up in the per-gate cache of symmetric powers.
* **Fermion sign rule.**  Fermion amplitudes refer to creation operators
  applied in increasing mode order.  A particle moved between s and t passes
  the occupied modes strictly between them, so the n = 1 block takes the
  sign (-1)^(occupied modes strictly between s and t) on its off-diagonal
  entries.  With both modes occupied the block is the number det(g).  A gate
  reads g's four entries once; each (n, parity) block occurs once per gate,
  so each is built once, and the n = 2 block is an in-place scale by det(g).
* **Phase shifter.**  A diagonal multiply by exp(i phi n_mode).
* **Dense U.**  :func:`apply_mode_unitary` factors U with Reck's triangular
  Givens loop (:func:`reck_gates`) into at most M(M-1)/2 gates on adjacent
  modes and M phases, and runs those through the kernel.  The loop reads each
  pivot pair as two Python numbers and rotates only the columns from the
  pivot's on, so a rotation costs one small matrix product.
* **Herald.**  A row mask on the state's own terms, not on the sector, so
  its cost follows the number of terms; dropping the measured columns leaves
  the smaller state's occupations.  The fermion sign of pulling the measured
  creation operators to the front is the parity of the unmeasured particles
  below each measured one.
"""

import cmath
import functools
import itertools
import json
import math
import warnings
from enum import Enum

import numpy as np

from .errors import (
    InvalidFile,
    InvalidOccupation,
    InvalidParameter,
    NotUnitary,
    ShapeMismatch,
    ZeroOutcome,
    ZeroState,
)
from .tolerances import FILE_NORM_TOL, HERALD_CUTOFF, NORM_TOL, PRUNE_REL, RECK_TOL, ZERO_NORM

# cached sectors, two-mode index sets and the symmetric powers of N >= 3 boson
# gates; a fixed bound keeps memory flat when many shapes pass through
SECTOR_CACHE = 64
PAIR_CACHE = 512


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


BOSON = Statistics.BOSON
FERMION = Statistics.FERMION


class FockState:
    """Definite-N state over M modes: a read-only (terms, modes) array of
    distinct occupations ``_occ`` and their amplitudes ``_amp``.

    Fermion amplitudes refer to creation operators applied in increasing mode
    order; all observable quantities are independent of that convention.
    Instances are immutable; every operation returns a new state.
    """

    __slots__ = ("statistics", "n_modes", "n_particles", "_occ", "_amp")

    def __init__(self, statistics, n_modes, amplitudes, normalized=True):
        statistics = _statistics(statistics)
        n_modes = _integer(n_modes, "mode count")
        if n_modes < 1:
            raise ShapeMismatch("a state needs at least one mode")
        amps = {}
        n_particles = None
        fermionic = statistics is FERMION
        for occ, amp in amplitudes.items():
            occ = tuple(_integer(k, "occupation number") for k in occ)
            if len(occ) != n_modes:
                raise ShapeMismatch(f"occupation {occ} does not have {n_modes} entries")
            if min(occ) < 0:
                raise InvalidOccupation(f"occupation numbers must be integers >= 0, got {occ}")
            if fermionic and max(occ) > 1:
                raise InvalidOccupation(f"fermion occupation above 1 in {occ}")
            total = sum(occ)
            if n_particles is None:
                n_particles = total
            elif total != n_particles:
                raise ShapeMismatch(
                    f"mixed particle numbers {n_particles} and {total} in one state"
                )
            amp = _number(amp, "amplitude")
            if not cmath.isfinite(amp):
                raise InvalidParameter(f"amplitude of {occ} is not finite: {amp!r}")
            if amp != 0:
                amps[occ] = amps.get(occ, 0j) + amp
        try:
            occ = np.array(list(amps), dtype=np.intp)
        except OverflowError as exc:
            raise InvalidOccupation("occupation numbers exceed a machine integer") from exc
        amp = np.fromiter(amps.values(), complex, len(amps))
        mag = np.abs(amp)
        keep = mag > PRUNE_REL * mag.max(initial=0.0)
        self._store(statistics, n_modes, n_particles, occ[keep], amp[keep], normalized)

    @classmethod
    def _trusted(cls, statistics, n_modes, n_particles, occ, amp):
        """State from valid, pruned term arrays.  The occupations are not
        rechecked; ``_store`` still checks that a term is left and that the
        norm is 1 within ``NORM_TOL``."""
        state = object.__new__(cls)
        state._store(statistics, n_modes, n_particles, occ, amp, True)
        return state

    @classmethod
    def _from_vector(cls, statistics, n_modes, n_particles, vec):
        """State from a sector vector in rank order (see the module docstring)."""
        terms = _sector_terms(n_modes, n_particles, statistics is FERMION, vec)
        return cls._trusted(statistics, n_modes, n_particles, *terms)

    def _store(self, statistics, n_modes, n_particles, occ, amp, normalized):
        if not len(amp):
            raise ZeroState("state has no nonzero amplitude")
        object.__setattr__(self, "statistics", statistics)
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "n_particles", n_particles)
        object.__setattr__(self, "_occ", _read_only(occ))
        object.__setattr__(self, "_amp", _read_only(amp))
        if normalized and abs(self.norm - 1.0) > NORM_TOL:
            raise InvalidParameter(
                f"state norm {self.norm!r} deviates from 1 beyond {NORM_TOL}"
            )

    def __setattr__(self, name, value):
        raise AttributeError("FockState is immutable")

    @property
    def norm(self):
        # hypot scales internally, so huge amplitudes do not overflow
        return math.hypot(*map(abs, self._amp.tolist()))

    def amplitude(self, occ):
        occ = tuple(occ)
        if len(occ) != self.n_modes:
            return 0j
        hit = np.flatnonzero((self._occ == occ).all(axis=1))
        return self._amp[hit[0]].item() if hit.size else 0j

    def items(self):
        """The terms as a list of ``(occupation tuple, amplitude)`` pairs."""
        return list(zip(map(tuple, self._occ.tolist()), self._amp.tolist()))

    def occupations(self):
        """The occupation tuples of the terms, as a set."""
        return set(map(tuple, self._occ.tolist()))

    def normalized(self):
        """Return the unit-norm version of this state."""
        n = self.norm
        if n < ZERO_NORM:
            raise ZeroState("cannot normalize a numerically zero state")
        # rescaling keeps every term distinct and above the pruning floor
        return FockState._trusted(
            self.statistics, self.n_modes, self.n_particles, self._occ, self._amp / n
        )

    def __repr__(self):
        terms = ", ".join(f"{occ}: {amp:.4g}" for occ, amp in sorted(self.items()))
        return (
            f"FockState({self.statistics.value}, N={self.n_particles}, "
            f"M={self.n_modes}, {{{terms}}})"
        )


def make_number_state(counts, statistics=BOSON):
    """Basis state with the given occupation numbers and amplitude one."""
    counts = tuple(counts)
    return FockState(statistics, len(counts), {counts: 1.0})


def _integer(value, what):
    """``value`` as an int: ints, numpy integers and integral floats pass;
    anything else, bools included, is InvalidParameter rather than truncated."""
    if type(value) is int:
        return value
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter(f"{what} must be an integer, got {value!r}") from exc
    if isinstance(value, (bool, np.bool_)) or k != value:
        raise InvalidParameter(f"{what} must be an integer, got {value!r}")
    return k


def _statistics(value):
    """``value`` as a Statistics member: InvalidParameter for anything else,
    where the Enum raises a bare ValueError."""
    try:
        return Statistics(value)
    except ValueError as exc:
        raise InvalidParameter(f"statistics must be boson or fermion: {exc}") from exc


def _number(value, what, kind=complex):
    """``value`` as a Python ``kind``, complex or float.  InvalidParameter
    for text, which the builtin would parse; for a complex value where a
    float is asked, whose imaginary part numpy would drop; and where the
    builtin raises."""
    wrong = (str, bytes) if kind is complex else (str, bytes, complex, np.complexfloating)
    if not isinstance(value, wrong):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidParameter(f"{what} must be a number of type {kind.__name__}, got {value!r}")


def _complex_array(values, what):
    """``values`` as a complex array: InvalidParameter for text, which numpy
    would parse, for None, which numpy casts to nan, and where numpy raises a
    bare error, for an entry that is not a number or for ragged nesting."""
    try:
        a = np.asarray(values)
        if a.dtype.kind == "O" and any(x is None for x in a.flat):
            raise InvalidParameter(f"{what} must be an array of numbers, got None in {values!r}")
        if a.dtype.kind not in "SU":
            return a.astype(complex, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"{what} must be an array of numbers: {exc}") from exc
    raise InvalidParameter(f"{what} must be an array of numbers, got text {values!r}")


def require_unitary(u):
    """Validate ``u`` as a square unitary matrix; return it as complex ndarray."""
    u = _complex_array(u, "a unitary")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NotUnitary("matrix has non-finite entries")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > NORM_TOL:
        raise NotUnitary(f"matrix deviates from unitarity by {dev:.3e}")
    return u


# ---------------------------------------------------------------------------
# the sector kernel (see the module docstring)
# ---------------------------------------------------------------------------

def _read_only(a):
    # cached arrays are shared by every caller
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=SECTOR_CACHE)
def _sector(n_modes, n_particles, fermionic):
    """One sector's occupation array in rank order and
    sqrt(N! / prod_j n_j!) per basis state.  :func:`_ranks` finds a row's
    rank by arithmetic, so no rank map is kept."""
    if fermionic:
        picks = itertools.combinations(range(n_modes), n_particles)
    else:
        picks = itertools.combinations_with_replacement(range(n_modes), n_particles)
    basis = []
    for pick in picks:
        occ = [0] * n_modes
        for j in pick:
            occ[j] += 1
        basis.append(occ)
    occupations = np.array(basis, dtype=np.intp).reshape(len(basis), n_modes)
    top = math.factorial(n_particles)
    multinomials = _floats(top // math.prod(map(math.factorial, occ)) for occ in basis)
    return _read_only(occupations), _read_only(np.sqrt(multinomials))


@functools.lru_cache(maxsize=SECTOR_CACHE)
def _rank_table(n_modes, n_particles, fermionic):
    """The table of :func:`_ranks`, flattened, and the matrix that maps a row
    to its entries' indices in it.

    Entry (j, c, o) counts the basis states that agree with a row on the
    modes before j, which hold c particles, and hold more than o particles in
    mode j; the rank order puts exactly those first.  With R = N - c
    particles left and k = M - j - 1 modes after j, the hockey-stick identity
    sums them to C(R - o - 1 + k, k) for bosons (R > o) and to C(k, R - 1)
    for fermions (o = 0, R >= 1).  Both are read from one table
    P[y, x] = C(x + y, y), whose row y is the running sum of row y - 1, in
    O(M N^2) for the whole table.  P is cut to the entries a row of the
    sector can reach, each at most the sector size, so int64 holds them for
    any sector that can be listed.

    Entry (j, c, o) sits at j * stride + width * c + o, where width = N + 1
    for bosons and 2 for fermions.  Every row sums to N, so with a stride
    divisible by N the mode offset j * stride is (j * stride / N) * sum_i o_i,
    and one matrix product gives all indices.
    """
    m, n = n_modes, n_particles
    width = 2 if fermionic else n + 1
    j, c, o = np.ogrid[:m, : n + 1, :width]
    if fermionic:
        # C(k, R - 1) = P[R - 1, k - R + 1]; a reachable row has c <= j
        x, y, live = m - n - j + c, n - c - 1, o == 0
        shape = (max(n, 1), max(m - n + 1, 1))
    else:
        x, y, live = n - c - o - 1, m - j - 1, True
        shape = (m, max(n, 1))
    live = live & (x >= 0) & (y >= 0) & (x < shape[1])
    pascal = np.ones(shape, dtype=np.int64)
    for row in range(1, shape[0]):
        np.cumsum(pascal[row - 1], out=pascal[row])
    # per mode, (N + 1) * width entries padded to a multiple of N (N = 0: of 1)
    per = -(-(n + 1) * width // max(n, 1))
    table = np.zeros((m, per * max(n, 1)), dtype=np.int64)
    table[:, : (n + 1) * width] = np.where(
        live, pascal[y.clip(0, shape[0] - 1), x.clip(0, shape[1] - 1)], 0
    ).reshape(m, -1)
    # entry (i, j): each particle in mode i adds width to a later mode j's
    # index, 1 to its own, and per * j to every mode's, N of them j * stride
    index = np.triu(np.full((m, m), width), 1) + np.eye(m, dtype=np.intp)
    index += np.arange(m) * per
    return _read_only(table.ravel()), _read_only(index)


def _ranks(n_modes, n_particles, fermionic, occ):
    """The rank of each row of ``occ`` in the sector's basis: the sum over
    modes j of entry (j, c_j, o_j) of :func:`_rank_table`, where o_j is the
    row's count in mode j and c_j its count in the modes before j.

    Rows are trusted to belong to the sector.
    """
    table, index = _rank_table(n_modes, n_particles, fermionic)
    return np.add.reduce(table.take(occ.dot(index)), axis=1)


def _floats(exact):
    """Exact integers, each rounded once to float; InvalidParameter when one
    exceeds the float range."""
    try:
        return [float(k) for k in exact]
    except OverflowError as exc:
        raise InvalidParameter(
            f"too many particles: a factorial term exceeds the float range ({exc})"
        ) from exc


@functools.lru_cache(maxsize=PAIR_CACHE)
def _pair_blocks(n_modes, n_particles, fermionic, s, t):
    """Index sets of a two-mode gate's blocks on modes s < t.

    Returns ``(n, odd, idx)`` for each n = n_s + n_t > 0 and, for fermions,
    each parity ``odd`` of the occupied modes strictly between s and t.  Row
    r of ``idx`` holds the ranks of one occupation of the other modes, ordered
    by n_s ascending; rows come in descending order of that occupation, the
    order in which they first appear in rank order.  Each row holds every n_s
    from max(0, n - cap) to min(n, cap), so one sort lays the blocks out.
    """
    occupations = _sector(n_modes, n_particles, fermionic)[0]
    ranks = np.flatnonzero(occupations[:, s] + occupations[:, t])
    occ = occupations[ranks]
    n = occ[:, s] + occ[:, t]
    odd = occ[:, s + 1 : t].sum(axis=1) % 2 if fermionic else np.zeros_like(n)
    rest = np.delete(occ, (s, t), axis=1)
    # by n, odd, then the other modes descending, then n_s (last key first)
    order = np.lexsort((occ[:, s], *(-rest[:, ::-1]).T, odd, n))
    ranks, n, odd = ranks[order], n[order], odd[order]
    _, starts = np.unique(2 * n + odd, return_index=True)
    cap = 1 if fermionic else n_particles
    out = []
    for start, idx in zip(starts.tolist(), np.split(ranks, starts[1:])):
        k = int(n[start])
        width = min(k, cap) - max(0, k - cap) + 1
        out.append((k, bool(odd[start]), _read_only(idx.reshape(-1, width))))
    return tuple(out)


@functools.lru_cache(maxsize=SECTOR_CACHE)
def _number_scale(n):
    f = np.sqrt(_floats(math.factorial(k) * math.factorial(n - k) for k in range(n + 1)))
    return _read_only(f[:, None] / f[None, :])


@functools.lru_cache(maxsize=PAIR_CACHE)
def _symmetric_powers(g_bytes, n_max):
    """Boson blocks of the gate with bytes ``g_bytes``: its action on
    |k, n-k>, n = 0..n_max.

    Column k of the n-th matrix holds the coefficients of
    (g01 + g00 x)^k (g11 + g10 x)^(n-k) in powers of x, rescaled from
    monomials to normalized number states.  The kernel asks for them in
    sectors of N >= 3 only; there the same gates recur across calls
    (Hadamards, the splitter stage, a mesh run again), so the blocks are kept
    per gate.  Two-particle sectors, replay's settings among them, read their
    blocks off the gate and never fill the cache.
    """
    g = np.frombuffer(g_bytes, dtype=complex).reshape(2, 2)
    c = np.ones((1, 1), dtype=complex)
    out = [c]
    for n in range(1, n_max + 1):
        nxt = np.zeros((n + 1, n + 1), dtype=complex)
        nxt[:-1, :-1] = g[1, 1] * c
        nxt[1:, :-1] += g[1, 0] * c
        nxt[:-1, -1] = g[0, 1] * c[:, -1]
        nxt[1:, -1] += g[0, 0] * c[:, -1]
        c = nxt
        out.append(_read_only(c * _number_scale(n)))
    return tuple(out)


def _sector_terms(n_modes, n_particles, fermionic, vec):
    """The significant entries of a sector vector in rank order, as
    ``(occupations, amplitudes)``: entries below ``PRUNE_REL`` of the largest
    one are float dust and dropped."""
    mag = np.abs(vec)
    keep = mag > PRUNE_REL * mag.max()
    return _sector(n_modes, n_particles, fermionic)[0].compress(keep, axis=0), vec[keep]


def _evolve_terms(fermionic, m, n, occ, amp, gates):
    """The sector kernel: the terms ``(occ, amp)`` of ``n`` particles on
    ``m`` modes after ``gates``.

    The terms are scattered into the dense sector vector, each gate acts on
    it block by block, and the significant entries come back as
    :func:`_sector_terms`.  The amplitudes need not have unit norm; the
    kernel is linear.  Without gates the terms come back unchanged.
    """
    if not gates:
        return occ, amp
    sector = _sector(m, n, fermionic)[0]
    vec = np.zeros(len(sector), dtype=complex)
    vec[_ranks(m, n, fermionic, occ)] = amp
    for modes, value in gates:
        if len(modes) == 1:
            # N + 1 distinct phases, gathered by each state's occupation
            vec *= np.exp(1j * value * np.arange(n + 1))[sector[:, modes[0]]]
            continue
        (s, t), g = modes, value
        if s > t:
            s, t, g = t, s, g[::-1, ::-1]
        blocks = _pair_blocks(m, n, fermionic, s, t)
        if not fermionic and n > 2:
            powers = _symmetric_powers(np.asarray(g, dtype=complex).tobytes(), n)
            for k, _, idx in blocks:
                vec[idx] = vec[idx] @ powers[k].T
            continue
        # one block per (n, parity), read off g's four entries: the transposed
        # n = 1 blocks, and for a pair det g (fermions) or Sym^2 g (bosons)
        (g00, g01), (g10, g11) = g.tolist()
        for k, odd, idx in blocks:
            if k == 1:
                b = [[g11, -g10], [-g01, g00]] if odd else [[g11, g10], [g01, g00]]
                vec[idx] = vec[idx] @ np.array(b)
            elif fermionic:
                vec[idx] *= g00 * g11 - g01 * g10
            else:
                r = math.sqrt(2.0)
                vec[idx] = vec[idx] @ np.array([
                    [g11 * g11, g10 * g11 * r, g10 * g10],
                    [g01 * g11 * r, g00 * g11 + g01 * g10, g00 * g10 * r],
                    [g01 * g01, g00 * g01 * r, g00 * g00],
                ])
    return _sector_terms(m, n, fermionic, vec)


def evolve(state, gates):
    """Run ``gates`` on ``state`` through the sector kernel, first gate first.

    A gate is ``((s, t), g)`` for a 2x2 unitary ``g`` acting as
    a_s^† -> g00 a_s^† + g01 a_t^†, a_t^† -> g10 a_s^† + g11 a_t^†, or
    ``((mode,), phi)`` for a phase shift.  Gates are trusted: their
    unitarity and mode ranges are checked where they are built.
    """
    if not gates:
        return state
    m, n = state.n_modes, state.n_particles
    terms = _evolve_terms(state.statistics is FERMION, m, n, state._occ, state._amp, gates)
    return FockState._trusted(state.statistics, m, n, *terms)


def reck_gates(u):
    """Factor unitary ``u`` into a triangular mesh (Reck et al.).

    Returns kernel gates in the form :func:`evolve` takes: at most M(M-1)/2
    two-mode gates on adjacent modes, then up to M phases.  Composed left to
    right, their embedded matrices give ``u``.

    Column by column, bottom row up, a Givens rotation r on rows (row-1, row)
    zeroes the entry below the pivot x = a[row-1, col], y = a[row, col]; its
    inverse r^dag is the gate.  A y within ``RECK_TOL`` of 0 needs none.  The
    columns left of col are already zero in those rows and are never read
    again, so r acts on the columns from col on.  The diagonal left over
    gives the phases.
    """
    m = u.shape[0]
    a = np.array(u, dtype=complex)
    gates = []
    for col in range(m - 1):
        for row in range(m - 1, col, -1):
            x, y = a[row - 1 : row + 1, col].tolist()
            if abs(y) <= RECK_TOL:
                continue
            norm = math.hypot(abs(x), abs(y))
            x, y = x / norm, y / norm
            r = np.array([[x.conjugate(), y.conjugate()], [-y, x]])
            pair = a[row - 1 : row + 1, col:]
            pair[...] = r @ pair
            gates.append(((row - 1, row), r.conj().T))
    for mode, d in enumerate(a.diagonal().tolist()):
        phi = cmath.phase(d)
        if abs(phi) > RECK_TOL:
            gates.append(((mode,), phi))
    return gates


def apply_mode_unitary(state, u):
    """Evolve ``state`` under the mode transformation a_i^† -> sum_j U_ij a_j^†.

    U is checked by :func:`require_unitary`, factored by Reck's Givens loop
    (:func:`reck_gates`) into two-mode gates and phases, and run through the
    sector kernel (:func:`evolve`), which applies each gate block by block.
    The fermion sign rule of the module docstring makes both statistics exact.
    Applying U then V equals a single application of the matrix product U @ V.
    """
    u = require_unitary(u)
    m = state.n_modes
    if u.shape[0] != m:
        raise ShapeMismatch(f"unitary is {u.shape[0]}x{u.shape[0]}, state has {m} modes")
    return evolve(state, reck_gates(u))


def _project(occ, amp, measured, counts, fermionic):
    """The terms ``(occ, amp)`` with ``counts`` on the ``measured`` modes
    (ascending), as ``(occupations of the other modes, amplitudes)``.

    A fermion amplitude takes the sign of pulling the measured creation
    operators to the front (see the module docstring).  There is no cutoff
    and no renormalization; the callers decide both.
    """
    if not measured:
        return occ, amp
    counts = np.array(counts, dtype=np.intp)
    # take and compress: a fancy index costs several times more on the few
    # terms a state has
    hit = (occ.take(measured, axis=1) == counts).all(axis=1)
    occ, amp = occ.compress(hit, axis=0), amp[hit]
    if fermionic:
        # unmeasured particles below each measured mode, counted per row
        below = np.cumsum(occ, axis=1)[:, measured] - np.cumsum(occ[:, measured], axis=1)
        amp[(below @ counts) % 2 == 1] *= -1.0
    return occ.take([j for j in range(occ.shape[1]) if j not in measured], axis=1), amp


def herald(state, required_counts):
    """Condition on exact detector counts: ``required_counts`` maps each
    measured mode to its count.

    Returns ``(state on the remaining modes, success probability)``; the
    remaining modes keep their relative order.  Raises ZeroOutcome when the
    projected component has probability below ``HERALD_CUTOFF``.  The
    projection is a row mask on the state's terms (see the module docstring).
    """
    required = {
        _integer(k, "measured mode"): _integer(v, "herald count")
        for k, v in required_counts.items()
    }
    measured = sorted(required)
    for m in measured:
        if not 0 <= m < state.n_modes:
            raise ShapeMismatch(f"measured mode {m} out of range")
    if len(measured) >= state.n_modes:
        raise ShapeMismatch("heralding away every mode leaves no state")
    n = state.n_particles
    if not all(0 <= required[m] <= n for m in measured):
        # never fires; the counts are compared as machine integers below
        raise ZeroOutcome(f"herald {required} cannot fire on {n} particles")
    counts = [required[m] for m in measured]
    rest, kept = _project(
        state._occ, state._amp, measured, counts, state.statistics is FERMION
    )
    prob = float(np.vdot(kept, kept).real)
    if prob < HERALD_CUTOFF:
        raise ZeroOutcome(f"herald {required} fires with probability {prob:.3e}")
    # the kept terms are a rescaled subset of pruned ones, so none is dust
    kept = kept / math.sqrt(prob)
    remaining = state.n_modes - len(measured)
    return FockState._trusted(state.statistics, remaining, n - sum(counts), rest, kept), prob


def embed(state, n_modes, positions):
    """Place ``state`` into a larger register, vacuum in the new modes.

    ``positions`` maps each existing mode to its new index and must be
    strictly increasing so fermion ordering is preserved.
    """
    n_modes = _integer(n_modes, "mode count")
    positions = [_integer(p, "position") for p in positions]
    if len(positions) != state.n_modes:
        raise ShapeMismatch("one position per existing mode required")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ShapeMismatch("positions must be strictly increasing")
    if positions and (positions[0] < 0 or positions[-1] >= n_modes):
        raise ShapeMismatch("positions out of range")
    occ = np.zeros((len(state._occ), n_modes), dtype=np.intp)
    occ[:, positions] = state._occ
    return FockState._trusted(state.statistics, n_modes, state.n_particles, occ, state._amp)


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
    return _integer(_file_number(value), "count")


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
    except (KeyError, TypeError, ValueError, OverflowError, InvalidParameter) as exc:
        raise InvalidFile(f"malformed state description: {exc}") from exc
    try:
        raw = FockState(statistics, n_modes, amps, normalized=False)
    except (InvalidOccupation, ShapeMismatch, ZeroState) as exc:
        raise InvalidFile(f"invalid state content: {exc}") from exc
    if abs(raw.norm - 1.0) > FILE_NORM_TOL:
        warnings.warn(
            f"state file norm {raw.norm:.9g} deviates from 1; renormalizing",
            stacklevel=2,
        )
    return raw.normalized()


def _read_json(path):
    """The JSON document in ``path``; a parse error is ``InvalidFile`` with
    its line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidFile(
            f"JSON parse error: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc


def load_state(path):
    return state_from_dict(_read_json(path))


def _write_json(payload, path):
    """Write ``payload`` to ``path`` as JSON indented by one, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def save_state(state, path):
    _write_json(state_to_dict(state), path)

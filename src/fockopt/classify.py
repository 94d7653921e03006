"""Classification of states reducible to a single mode.

A boson state that is obtained by passive linear optics from all N particles
in one mode has coefficients of the product form
``sqrt(multinomial(N, n)) * prod_i alpha_i ** n_i`` for a unit vector alpha,
which is unique up to a global phase.  This module extracts that vector,
decides membership, and generates such states.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NotSingleMode, PauliForbidden, ShapeMismatch
from .states import BOSON, FERMION, FockState, require_unitary

DEFAULT_TOL = 1e-8


def compositions(total, parts):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def multinomial(total, occ):
    out = math.factorial(total)
    for n in occ:
        out //= math.factorial(n)
    return out


def single_mode_state(alpha, n_particles, statistics=BOSON):
    """Product-form state for amplitude vector ``alpha`` and N particles.

    Only bosons admit N >= 2 here; a fermion request raises PauliForbidden.
    ``alpha`` is normalized internally.
    """
    alpha = np.asarray(alpha, dtype=complex)
    n = int(n_particles)
    if statistics is FERMION and n >= 2:
        raise PauliForbidden("no multi-particle fermion state fits in one mode")
    norm = np.linalg.norm(alpha)
    if norm < 1e-12:
        raise ShapeMismatch("alpha vector must be nonzero")
    alpha = alpha / norm
    m = alpha.shape[0]
    if n == 0:
        return FockState(statistics, m, {(0,) * m: 1.0})
    amps = {}
    for occ in compositions(n, m):
        coeff = math.sqrt(multinomial(n, occ))
        for a, k in zip(alpha, occ):
            if k:
                coeff *= a**k
        if coeff != 0:
            amps[occ] = coeff
    return FockState(statistics, m, amps)


@dataclass
class Classification:
    """Outcome of the single-mode test.

    ``alpha`` is None for non-members and for the vacuum (where it is
    undefined); ``residual`` is the worst coefficient mismatch relative to the
    largest amplitude; ``violation`` is the first occupation whose coefficient
    broke the product form.
    """

    single_mode: bool
    alpha: np.ndarray | None
    residual: float
    violation: tuple | None

    def __bool__(self):
        return self.single_mode


def _unit_vector_occ(m, j, value):
    occ = [0] * m
    occ[j] = value
    return tuple(occ)


def _try_alpha(state, support, alpha, atol):
    """Check every coefficient against the product form; worst deviation."""
    n = state.n_particles
    m = state.n_modes
    worst = 0.0
    violation = None
    for occ_s in compositions(n, len(support)):
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


def is_single_mode_type(state, tol=DEFAULT_TOL):
    """Decide reducibility to one mode; returns a Classification.

    The test follows the coefficient structure directly: the support is the
    set of modes occupied by some coefficient of at least ``tol`` relative to
    the largest amplitude; the reference root of the largest pure N-particle
    coefficient on that support fixes the remaining entries through the
    one-particle coefficients (all N root choices differ by a global phase
    only, so each is verified in turn); finally every coefficient is compared
    to the product form within ``tol`` relative to the largest amplitude.
    A support mode with a tiny entry keeps a pure coefficient far below the
    threshold while its one-particle coefficient is not, which is why the
    support is not read off the pure coefficients.
    """
    # relative to the largest amplitude: at 1 or above even that one is dropped
    if not 0.0 < tol < 1.0:
        raise InvalidParameter(f"tolerance must lie strictly between 0 and 1, got {tol!r}")
    n = state.n_particles
    m = state.n_modes
    if n == 0:
        return Classification(True, None, 0.0, None)
    if state.statistics is FERMION and n >= 2:
        first = min(state.occupations())
        return Classification(False, None, math.inf, first)
    peak = max(abs(a) for _, a in state.items())
    atol = tol * peak
    significant = sorted(occ for occ, amp in state.items() if abs(amp) >= atol)
    support = [j for j in range(m) if any(occ[j] for occ in significant)]
    tops = [state.amplitude(_unit_vector_occ(m, j, n)) for j in range(m)]
    ref = max(support, key=lambda j: abs(tops[j]))
    top = tops[ref]
    if abs(top) < atol:
        # no pure coefficient reaches the threshold, as for the pair state
        # |1,1>; the product form is not fitted from a root of float dust
        return Classification(False, None, math.inf, significant[0])
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
            alpha = alpha / np.linalg.norm(alpha)
            return Classification(True, alpha, worst / peak, None)
        if worst < best[0]:
            best = (worst, violation)
    return Classification(False, None, best[0] / peak, best[1])


def extract_alpha(state, tol=DEFAULT_TOL):
    """Amplitude vector of a single-mode-type state, unique up to phase.

    Raises NotSingleMode when the coefficients do not fit the product form
    (the exception carries the Classification), and ValueError for the
    vacuum, where the vector is undefined.
    """
    result = is_single_mode_type(state, tol)
    if not result.single_mode:
        raise NotSingleMode(result)
    if result.alpha is None:
        raise ValueError("the vacuum has no amplitude-vector representation")
    return result.alpha


def transform_alpha(alpha, u):
    """Row-vector action of a mode unitary: alpha -> alpha @ U."""
    alpha = np.asarray(alpha, dtype=complex)
    u = require_unitary(u)
    if alpha.shape != (u.shape[0],):
        raise ShapeMismatch(
            f"alpha has {alpha.shape[0]} entries, unitary is {u.shape[0]}x{u.shape[1]}"
        )
    return alpha @ u


def phase_distance(a, b):
    """Distance between unit vectors modulo a global phase.

    Computed as the norm of the phase-aligned difference rather than via
    2 - 2|<a,b>|, which loses half the floating-point precision.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.vdot(a, b)
    phase = overlap.conjugate() / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.linalg.norm(a - phase * b))

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

from .errors import InvalidParameter, PauliForbidden, ShapeMismatch
from .states import (
    BOSON,
    FERMION,
    FockState,
    _complex_array,
    _integer,
    _number,
    _sector,
    _statistics,
)
from .tolerances import DEFAULT_TOL


def _product_form(alpha, occ, sqrt_multinomial):
    """sqrt(multinomial(N, n)) * prod_j alpha_j ** n_j for each row n of ``occ``."""
    return sqrt_multinomial * np.prod(alpha**occ, axis=1)


def single_mode_state(alpha, n_particles, statistics=BOSON):
    """Product-form state for amplitude vector ``alpha`` and N particles.

    Only bosons admit N >= 2 here; a fermion request raises PauliForbidden.
    ``alpha`` is normalized internally and must be finite.
    """
    alpha = _complex_array(alpha, "alpha")
    statistics = _statistics(statistics)
    n = _integer(n_particles, "particle number")
    if n < 0:
        raise InvalidParameter(f"particle number must be >= 0, got {n}")
    if statistics is FERMION and n >= 2:
        raise PauliForbidden("no multi-particle fermion state fits in one mode")
    if not np.isfinite(alpha).all():
        raise InvalidParameter("alpha must be finite")
    # divided by its largest real or imaginary part first, so that neither
    # |alpha_i| nor the norm can overflow
    peak = np.abs([alpha.real, alpha.imag]).max(initial=0.0)
    if alpha.ndim != 1 or not peak:
        raise ShapeMismatch(f"alpha must be a nonzero 1-D vector, got shape {alpha.shape}")
    alpha = alpha / peak
    alpha = alpha / np.linalg.norm(alpha)
    m = alpha.shape[0]
    _, occ, sqrt_multinomial = _sector(m, n, statistics is FERMION)
    amps = _product_form(alpha, occ, sqrt_multinomial)
    return FockState._from_vector(statistics, m, n, amps)


@dataclass
class Classification:
    """Outcome of the single-mode test.

    ``alpha`` is None for non-members and for the vacuum (where it is
    undefined); ``residual`` is the worst coefficient mismatch relative to the
    largest amplitude; ``violation`` is the lexicographically smallest
    occupation whose coefficient breaks the product form.
    """

    single_mode: bool
    alpha: np.ndarray | None
    residual: float
    violation: tuple | None


def is_single_mode_type(state, tol=DEFAULT_TOL):
    """Decide reducibility to one mode; returns a Classification.

    The test follows the coefficient structure directly.  The support is the
    set of modes occupied by some coefficient of at least ``tol`` relative to
    the largest amplitude; the test runs on the N-particle sector of those
    modes alone.  The N-th root of the largest pure N-particle coefficient on
    the support fixes its entry of alpha, and the one-particle coefficients
    fix the others.  The N roots differ by a factor w with w^N = 1, which scales
    alpha by w and every N-particle product by w^N = 1, so one root serves
    for all.  Finally every coefficient on the support is compared to the
    product form within ``tol`` relative to the largest amplitude, in one
    array expression; ``violation`` is the lexicographically smallest
    occupation that misses it.  A support mode with a tiny entry keeps a
    pure coefficient far below the threshold while its one-particle
    coefficient is not, which is why the support is not read off the pure
    coefficients.
    """
    # relative to the largest amplitude: at 1 or above even that one is dropped
    tol = _number(tol, "tolerance", float)
    if not 0.0 < tol < 1.0:
        raise InvalidParameter(f"tolerance must lie strictly between 0 and 1, got {tol!r}")
    n = state.n_particles
    m = state.n_modes
    if n == 0:
        return Classification(True, None, 0.0, None)
    if state.statistics is FERMION and n >= 2:
        first = min(state.occupations())
        return Classification(False, None, math.inf, first)
    occ, amps = state._occ, state._amp
    mag = np.abs(amps)
    peak = float(mag.max())
    atol = tol * peak
    on_support = occ[mag >= atol].any(axis=0)
    support = np.flatnonzero(on_support)
    # the sector of the support modes; terms off the support are not compared
    rank, sub, sqrt_multinomial = _sector(len(support), n, state.statistics is FERMION)
    inside = ~occ[:, ~on_support].any(axis=1)
    vec = np.zeros(len(sub), dtype=complex)
    vec[[rank[o] for o in map(tuple, occ[inside][:, support].tolist())]] = amps[inside]

    def occupation(row):
        full = np.zeros(m, dtype=np.intp)
        full[support] = sub[row]
        return tuple(full.tolist())

    # row of all N particles in support mode j, for each j
    tops = vec[sub.argmax(axis=0)]
    ref = int(np.argmax(np.abs(tops)))
    top = tops[ref]
    if abs(top) < atol:
        # no pure coefficient reaches the threshold, as for the pair state
        # |1,1>; the product form is not fitted from a root of float dust
        smallest = np.flatnonzero(np.abs(vec) >= atol)[-1]
        return Classification(False, None, math.inf, occupation(smallest))
    u_ref = abs(top) ** (1.0 / n) * cmath.exp(1j * cmath.phase(top) / n)
    alpha = np.zeros(len(support), dtype=complex)
    alpha[ref] = u_ref
    denom = math.sqrt(n) * u_ref ** (n - 1)
    # rows with N-1 particles in the reference mode hold one particle in each
    # other support mode, in ascending mode order (rank order, fixed column)
    alpha[np.arange(len(support)) != ref] = vec[sub[:, ref] == n - 1] / denom
    dev = np.abs(vec - _product_form(alpha, sub, sqrt_multinomial))
    worst = float(dev.max())
    if worst < atol:
        full = np.zeros(m, dtype=complex)
        full[support] = alpha / np.linalg.norm(alpha)
        return Classification(True, full, worst / peak, None)
    # rank order is descending lexicographic: the last miss is the smallest
    return Classification(False, None, worst / peak, occupation(np.flatnonzero(dev >= atol)[-1]))


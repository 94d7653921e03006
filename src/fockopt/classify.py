"""Classification of states reducible to a single mode.

A boson state that is obtained by passive linear optics from all N particles
in one mode has coefficients of the product form
``sqrt(multinomial(N, n)) * prod_i alpha_i ** n_i`` for a unit vector alpha,
which is unique up to a global phase.  This module extracts that vector,
decides membership, and generates such states.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, ShapeMismatch
from .states import (
    BOSON,
    FERMION,
    SECTOR_CACHE,
    FockState,
    _complex_array,
    _integer,
    _number,
    _ranks,
    _read_only,
    _sector,
    _vector,
)
from .tolerances import DEFAULT_TOL


def _product_form(alpha, occ, sqrt_multinomial):
    """sqrt(multinomial(N, n)) * prod_j alpha_j ** n_j for each row n of ``occ``."""
    return sqrt_multinomial * np.multiply.reduce(alpha**occ, axis=1)


@functools.lru_cache(maxsize=SECTOR_CACHE)
def _fit_rows(n_modes, n_particles, fermionic):
    """The ranks that fit alpha in a sector: entry (r, j) of the second array
    is the rank of the row with N - 1 particles in mode r and one in mode j,
    so its diagonal, the first array, holds the rows of all N particles in
    one mode."""
    eye = np.eye(n_modes, dtype=np.intp)
    rows = ((n_particles - 1) * eye[:, None] + eye[None, :]).reshape(-1, n_modes)
    fit = _ranks(n_modes, n_particles, fermionic, rows).reshape(n_modes, n_modes)
    return _read_only(fit.diagonal().copy()), _read_only(fit)


def single_mode_state(alpha, n_particles):
    """Product-form boson state for amplitude vector ``alpha`` and N particles.

    ``alpha`` is normalized internally and must be finite.
    """
    alpha = _complex_array(alpha, "alpha")
    n = _integer(n_particles, "particle number", least=0)
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
    occ, sqrt_multinomial = _sector(m, n, False)
    amps = _product_form(alpha, occ, sqrt_multinomial)
    return FockState._from_vector(BOSON, m, n, amps)


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
    fermionic = state.statistics is FERMION
    mag = np.abs(amps)
    peak = float(np.maximum.reduce(mag))
    atol = tol * peak
    on_support = np.logical_or.reduce(occ.compress(mag >= atol, axis=0))
    support = on_support.nonzero()[0]
    size = len(support)
    # the sector of the support modes; terms off the support are not compared
    sub, sqrt_multinomial = _sector(size, n, fermionic)
    if size < m:
        inside = ~np.logical_or.reduce(occ.compress(~on_support, axis=1), axis=1)
        occ, amps = occ.compress(inside, axis=0).take(support, axis=1), amps.compress(inside)
    vec = _vector(fermionic, size, n, occ, amps)

    def occupation(row):
        full = np.zeros(m, dtype=np.intp)
        full[support] = sub[row]
        return tuple(full.tolist())

    pure, fit = _fit_rows(size, n, fermionic)
    tops = vec.take(pure)
    ref = int(np.abs(tops).argmax())
    top = tops.item(ref)
    if abs(top) < atol:
        # no pure coefficient reaches the threshold, as for the pair state
        # |1,1>; the product form is not fitted from a root of float dust
        smallest = (np.abs(vec) >= atol).nonzero()[0][-1]
        return Classification(False, None, math.inf, occupation(smallest))
    u_ref = abs(top) ** (1.0 / n) * cmath.exp(1j * cmath.phase(top) / n)
    denom = math.sqrt(n) * u_ref ** (n - 1)
    # the rows with N-1 particles in the reference mode fix the other entries
    alpha = vec.take(fit[ref]) / denom
    alpha[ref] = u_ref
    dev = np.abs(vec - _product_form(alpha, sub, sqrt_multinomial))
    worst = float(np.maximum.reduce(dev))
    if worst < atol:
        full = np.zeros(m, dtype=complex)
        full[support] = alpha / np.linalg.norm(alpha)
        return Classification(True, full, worst / peak, None)
    # rank order is descending lexicographic: the last miss is the smallest
    return Classification(False, None, worst / peak, occupation((dev >= atol).nonzero()[0][-1]))

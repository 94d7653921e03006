"""Reference computations made apart from ``fockopt``.

Nothing here imports the package under test.  Transition amplitudes come from
permanents (bosons) and determinants (fermions), single-mode states from the
product formula, detection laws from the multinomial, CHSH from the two-qubit
correlation matrix, and the chi-square tail from ``scipy.special``.

Conventions match the package's documented ones: a mode unitary acts as
a_i^dag -> sum_j U_ij a_j^dag, a circuit's first element acts first (so the
overall matrix is the left-to-right product of its gates), and a fermion
occupation stands for creation operators in increasing mode order.
"""

import itertools
import math

import numpy as np
from scipy import special

ROOT2 = math.sqrt(2.0)
CHSH_TSIRELSON = 2.0 * ROOT2
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / ROOT2
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# ---------------------------------------------------------------------------
# sectors and single-mode states
# ---------------------------------------------------------------------------

def boson_sector(n, m):
    """All occupations of ``n`` bosons over ``m`` modes, lexicographic."""
    if m == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n + 1) for rest in boson_sector(n - k, m - 1)]


def fermion_sector(n, m):
    out = []
    for occupied in itertools.combinations(range(m), n):
        occ = [0] * m
        for j in occupied:
            occ[j] = 1
        out.append(tuple(occ))
    return out


def sector(n, m, fermion):
    return fermion_sector(n, m) if fermion else boson_sector(n, m)


def multinomial(n, occ):
    out = math.factorial(n)
    for k in occ:
        out //= math.factorial(k)
    return out


def single_mode_terms(alpha, n):
    """Product formula sqrt(multinomial(N, occ)) * prod alpha_j ** occ_j."""
    alpha = np.asarray(alpha, dtype=complex)
    alpha = alpha / np.linalg.norm(alpha)
    terms = {}
    for occ in boson_sector(n, alpha.shape[0]):
        coeff = complex(math.sqrt(multinomial(n, occ)))
        for a, k in zip(alpha, occ):
            if k:
                coeff *= a**k
        terms[occ] = coeff
    return terms


def phase_distance(a, b):
    """min over theta of |a - exp(i theta) b| for vectors of equal norm."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def state_distance(a, b):
    """Largest amplitude difference between two term maps, phase included."""
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0j) - b.get(k, 0j)) for k in keys), default=0.0)


# ---------------------------------------------------------------------------
# transition amplitudes
# ---------------------------------------------------------------------------

_GLYNN = {}


def permanent(a):
    """Glynn's formula with all 2^(n-1) sign vectors at once."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    signs = _GLYNN.get(n)
    if signs is None:
        rows = list(itertools.product((1.0, -1.0), repeat=n - 1))
        signs = np.array([(1.0,) + r for r in rows])
        _GLYNN[n] = signs
    weights = np.prod(signs, axis=1)
    return complex(np.sum(weights * np.prod(signs @ a, axis=1)) / 2 ** (n - 1))


def _mode_list(occ):
    return [j for j, k in enumerate(occ) for _ in range(k)]


def transition_amplitude(u, occ_in, occ_out, fermion):
    """<occ_out| U |occ_in> for the creation-operator substitution by ``u``."""
    rows = _mode_list(occ_in)
    cols = _mode_list(occ_out)
    if len(rows) != len(cols):
        return 0j
    sub = u[np.ix_(rows, cols)]
    if fermion:
        return complex(np.linalg.det(sub)) if rows else 1.0 + 0j
    norm = 1.0
    for k in occ_in:
        norm *= math.factorial(k)
    for k in occ_out:
        norm *= math.factorial(k)
    return permanent(sub) / math.sqrt(norm)


def evolved_amplitude(terms, u, occ_out, fermion):
    """Amplitude of ``occ_out`` after evolving the superposition ``terms``."""
    return sum(c * transition_amplitude(u, occ, occ_out, fermion) for occ, c in terms.items())


def evolve_terms(terms, u, fermion):
    """Full output state of a (small) superposition under ``u``."""
    first = next(iter(terms))
    outs = sector(sum(first), len(first), fermion)
    return {o: evolved_amplitude(terms, u, o, fermion) for o in outs}


# ---------------------------------------------------------------------------
# gates and circuits (JSON files use 1-based modes, matrices as [re, im])
# ---------------------------------------------------------------------------

def gate_matrix(kind, modes, m, matrix=None, phi=0.0):
    u = np.eye(m, dtype=complex)
    if kind == "bs":
        s, t = modes
        u[np.ix_((s, t), (s, t))] = matrix
    elif kind == "swap":
        s, t = modes
        u[s, s] = u[t, t] = 0.0
        u[s, t] = u[t, s] = 1.0
    elif kind == "ps":
        u[modes[0], modes[0]] = np.exp(1j * phi)
    else:
        raise ValueError(f"no matrix for element {kind!r}")
    return u


def matrix_from_json(rows):
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)


def matrix_to_json(u):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(u)]


def parse_circuit(data):
    """Circuit dict -> (modes, overall gate unitary, heralds, readout modes)."""
    m = int(data["modes"])
    u = np.eye(m, dtype=complex)
    heralds = {}
    readout = []
    for el in data["elements"]:
        kind = el["type"]
        if kind == "detect":
            mode = int(el["mode"]) - 1
            if el.get("herald") is None:
                readout.append(mode)
            else:
                heralds[mode] = int(el["herald"])
            continue
        if kind == "ps":
            g = gate_matrix("ps", (int(el["mode"]) - 1,), m, phi=float(el["phi"]))
        else:
            modes = tuple(int(x) - 1 for x in el["modes"])
            matrix = matrix_from_json(el["matrix"]) if kind == "bs" else None
            g = gate_matrix(kind, modes, m, matrix)
        u = u @ g
    return m, u, heralds, tuple(readout)


def random_unitary(rng, m):
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def random_vector(rng, m):
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# heralding and detection laws
# ---------------------------------------------------------------------------

def herald_terms(terms, heralds, fermion):
    """Project on detector counts; returns (probability, normalized rest).

    The fermion sign is that of moving the measured creation operators to
    the front of the increasing-order string.
    """
    m = len(next(iter(terms)))
    kept_modes = [j for j in range(m) if j not in heralds]
    out = {}
    prob = 0.0
    for occ, amp in terms.items():
        if any(occ[j] != c for j, c in heralds.items()):
            continue
        prob += abs(amp) ** 2
        if fermion:
            swaps = sum(occ[h] * sum(occ[j] for j in kept_modes if j < h) for h in heralds)
            amp = -amp if swaps % 2 else amp
        out[tuple(occ[j] for j in kept_modes)] = amp
    if prob <= 0.0:
        return 0.0, {}
    scale = 1.0 / math.sqrt(prob)
    return prob, {k: a * scale for k, a in out.items()}


def readout_law(probs, heralds, readout):
    """Readout-count distribution conditioned on heralds; untouched modes traced out."""
    law = {}
    total = 0.0
    for occ, p in probs.items():
        if any(occ[j] != c for j, c in heralds.items()):
            continue
        total += p
        key = tuple(occ[j] for j in readout)
        law[key] = law.get(key, 0.0) + p
    if total <= 0.0:
        return 0.0, {}
    return total, {k: v / total for k, v in law.items()}


def count_law(beta, n):
    """multinomial(N, |beta|^2): detection law of a single-mode state."""
    w = np.abs(np.asarray(beta, dtype=complex)) ** 2
    w = w / w.sum()
    law = {}
    for occ in boson_sector(n, w.shape[0]):
        p = float(multinomial(n, occ))
        for x, k in zip(w, occ):
            if k:
                p *= x**k
        law[occ] = p
    return law


def postselect_law(law, readout, groups):
    """Condition a readout law on ``(modes, total)`` group-sum rules."""
    index = {mode: i for i, mode in enumerate(readout)}
    kept = {
        k: p
        for k, p in law.items()
        if all(sum(k[index[mode]] for mode in modes) == req for modes, req in groups)
    }
    total = sum(kept.values())
    return total, {k: p / total for k, p in kept.items()}


def chi_square_p(counts, probs):
    """Pearson chi-square tail probability of tallies against exact cells.

    Cells expected below five counts are pooled into one; an observed outcome
    of probability zero gives p = 0.
    """
    total = sum(counts.values())
    if total <= 0:
        return 0.0
    if any(probs.get(k, 0.0) <= 0.0 for k in counts):
        return 0.0
    obs, exp = [], []
    rare_obs, rare_exp = 0, 0.0
    for key, p in probs.items():
        e = p * total
        if e < 5.0:
            rare_obs += counts.get(key, 0)
            rare_exp += e
        else:
            obs.append(counts.get(key, 0))
            exp.append(e)
    if rare_exp > 0.0:
        obs.append(rare_obs)
        exp.append(rare_exp)
    if len(obs) < 2:
        return 1.0
    obs = np.asarray(obs, dtype=float)
    exp = np.asarray(exp, dtype=float)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(special.chdtrc(len(obs) - 1, stat))


# ---------------------------------------------------------------------------
# Yurke-Stoler stage and CHSH
# ---------------------------------------------------------------------------

# register (in1, in2, rail1, rail2) = modes (0, 1, 2, 3); Alice holds (0, 2),
# Bob holds (3, 1), and "up" is a particle in the first mode of a pair
ALICE = (0, 2)
BOB = (3, 1)


def ys_unitary():
    u = gate_matrix("bs", (0, 2), 4, HADAMARD)
    u = u @ gate_matrix("bs", (1, 3), 4, HADAMARD)
    return u @ gate_matrix("swap", (2, 3), 4)


def ys_two_qubit(terms, fermion):
    """Two-qubit amplitudes (uu, ud, du, dd) and the post-selection probability."""
    four = {occ + (0, 0): c for occ, c in terms.items()}
    u = ys_unitary()
    amps = []
    for a in ALICE:
        for b in BOB:
            occ = [0, 0, 0, 0]
            occ[a] += 1
            occ[b] += 1
            amps.append(evolved_amplitude(four, u, tuple(occ), fermion))
    amps = np.array(amps)
    prob = float(np.sum(np.abs(amps) ** 2))
    return amps / math.sqrt(prob), prob


def correlation_matrix(psi):
    t = np.empty((3, 3))
    for i, si in enumerate(PAULI):
        for j, sj in enumerate(PAULI):
            t[i, j] = float(np.real(np.vdot(psi, np.kron(si, sj) @ psi)))
    return t


def chsh_value(psi):
    """2 sqrt(l1 + l2) for the top eigenvalues of T^T T."""
    t = correlation_matrix(psi)
    w = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return 2.0 * math.sqrt(max(w[0], 0.0) + max(w[1], 0.0))


# ---------------------------------------------------------------------------
# self-tests of the references on hand values
# ---------------------------------------------------------------------------

def self_test():
    """Return a list of failures of the references on known values."""
    problems = []
    out = evolve_terms({(1, 1): 1.0}, HADAMARD, fermion=False)
    if abs(out[(1, 1)]) > 1e-12 or abs(abs(out[(2, 0)]) ** 2 - 0.5) > 1e-12:
        problems.append(f"Hong-Ou-Mandel dip missing: {out}")
    out = evolve_terms({(1, 1): 1.0}, HADAMARD, fermion=True)
    if abs(abs(out[(1, 1)]) - 1.0) > 1e-12:
        problems.append(f"fermion antibunching missing: {out}")
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / ROOT2
    if abs(chsh_value(singlet) - CHSH_TSIRELSON) > 1e-12:
        problems.append("singlet does not reach 2 sqrt 2")
    if abs(chsh_value(np.array([1.0, 0.0, 0.0, 0.0])) - 2.0) > 1e-12:
        problems.append("product state CHSH is not 2")
    law = count_law([1.0, 1.0], 2)
    if abs(law[(1, 1)] - 0.5) > 1e-15 or abs(sum(law.values()) - 1.0) > 1e-15:
        problems.append(f"binomial count law wrong: {law}")
    return problems

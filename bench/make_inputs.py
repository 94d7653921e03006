"""Write the committed input files of the ``cli`` workload.

Run from the repository root with ``python3 bench/make_inputs.py``.  The
files are built with the benchmark's own reference code and a fixed seed, so
rerunning it reproduces them byte for byte.  ``meta.json`` keeps the amplitude
vectors the single-mode states were built from, for the checks.
"""

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

SEED = 2404_17339
OUT = Path(__file__).resolve().parent / "inputs"


def state_json(terms, statistics):
    m = len(next(iter(terms)))
    return {
        "statistics": statistics,
        "modes": m,
        "terms": [
            {"occ": list(occ), "re": float(a.real), "im": float(a.imag)}
            for occ, a in sorted(terms.items())
        ],
    }


def random_gates(rng, m, count):
    """Random two-mode gates on random pairs, then one phase per mode."""
    elements = []
    for _ in range(count):
        s, t = sorted(int(x) for x in rng.choice(m, 2, replace=False))
        elements.append(
            {"type": "bs", "modes": [s + 1, t + 1], "matrix": ref.matrix_to_json(ref.random_unitary(rng, 2))}
        )
    for mode in range(m):
        elements.append({"type": "ps", "mode": mode + 1, "phi": float(rng.uniform(0, 2 * math.pi))})
    return elements


def write(name, payload):
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main():
    rng = np.random.default_rng(SEED)
    OUT.mkdir(exist_ok=True)
    alpha = ref.random_vector(rng, 3)
    write("single.json", state_json(ref.single_mode_terms(alpha, 3), "boson"))
    # a genuine single-mode state whose middle coefficient alpha_2 ** 4 falls
    # under the classifier's support threshold while alpha_2 itself does not
    faulty = np.array([1.0, 0.005, 0.5]) / np.linalg.norm([1.0, 0.005, 0.5])
    write("faulty_single.json", state_json(ref.single_mode_terms(faulty, 4), "boson"))
    basis = ref.boson_sector(3, 3)
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    write("generic.json", state_json(dict(zip(basis, amps / np.linalg.norm(amps))), "boson"))
    pair = rng.normal(size=3) + 1j * rng.normal(size=3)
    write("pair.json", state_json(dict(zip(ref.boson_sector(2, 2), pair / np.linalg.norm(pair))), "boson"))
    write(
        "herald_circuit.json",
        {"modes": 3, "elements": random_gates(rng, 3, 4) + [{"type": "detect", "mode": 3, "herald": 1}]},
    )
    write(
        "readout_circuit.json",
        {"modes": 3, "elements": random_gates(rng, 3, 4) + [{"type": "detect", "mode": j} for j in (1, 2, 3)]},
    )
    write("unitary.json", {"matrix": ref.matrix_to_json(ref.random_unitary(rng, 4))})
    write(
        "meta.json",
        {"single_alpha": ref.matrix_to_json([alpha])[0], "faulty_alpha": ref.matrix_to_json([faulty])[0]},
    )


if __name__ == "__main__":
    main()

"""Witnesses of a seeded population of boson states with empty modes.

Record the witness of each state, from the ``fockopt`` on the import path::

    PYTHONPATH=src python tests/empty_mode_sweep.py record OUT.json

Compare two records, for instance of two commits::

    python tests/empty_mode_sweep.py compare OLD.json NEW.json

The states are those of ``helpers.state_with_empty_modes`` drawn from
``default_rng(SEED)``.  A record holds per state whether it has a witness,
and of the witness its circuit, CHSH value, success probability and replay
gap.  The comparison prints the states that gained or lost a witness, the
witnesses whose circuit changed, the first hits that changed (CHSH or
probability by more than 1e-12 relative, beyond rounding) with the range and
median of their merit ratio p v^2 new/old, where v is CHSH - 2, and the
largest replay gap of either record.  It exits 1 if a state lost its
witness or a witness replays more than 1e-9 off.
"""

import json
import sys

import numpy as np

SEED = 2604
COUNT = 300


def record():
    import fockopt as fo
    from helpers import state_with_empty_modes

    rng = np.random.default_rng(SEED)
    rows = []
    for _ in range(COUNT):
        state, _, _ = state_with_empty_modes(rng)
        wit = fo.find_witness(state)
        if wit is None:
            rows.append(None)
            continue
        res = wit.result
        rows.append(
            {
                "circuit": repr(wit.circuit),
                "chsh": res.chsh,
                "p": res.success_probability,
                "replay_gap": abs(fo.replay_witness(state, wit) - res.chsh),
            }
        )
    return rows


def _close(a, b):
    return abs(a - b) <= 1e-12 * abs(b)


def _merit(row):
    return row["p"] * (row["chsh"] - 2.0) ** 2


def compare(old, new):
    lost = [i for i, (a, b) in enumerate(zip(old, new)) if a and not b]
    gained = [i for i, (a, b) in enumerate(zip(old, new)) if b and not a]
    both = [i for i, (a, b) in enumerate(zip(old, new)) if a and b]
    circuits = [i for i in both if old[i]["circuit"] != new[i]["circuit"]]
    changed = [
        i
        for i in both
        if not (_close(new[i]["chsh"], old[i]["chsh"]) and _close(new[i]["p"], old[i]["p"]))
    ]
    gap = max((row["replay_gap"] for row in old + new if row), default=0.0)
    print(f"states: {len(new)}; with a witness: {sum(map(bool, old))} -> {sum(map(bool, new))}")
    print(f"lost: {lost}; gained: {gained}")
    print(f"circuits changed: {len(circuits)}; first hits changed: {len(changed)}")
    if changed:
        ratios = [_merit(new[i]) / _merit(old[i]) for i in changed]
        print(
            f"merit ratio new/old: min {min(ratios):.3g}, median {np.median(ratios):.3g}, "
            f"max {max(ratios):.3g}"
        )
    print(f"largest replay gap: {gap:.3g}")
    return 1 if lost or gap > 1e-9 else 0


def main(argv):
    if argv[:1] == ["record"] and len(argv) == 2:
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(record(), fh)
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        records = []
        for path in argv[1:]:
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        return compare(*records)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

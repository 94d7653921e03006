"""Command-line interface.

Exit codes are a stable contract: 0 for success (violation found, test
passed, classification positive), 10 for a negative result, 11 when the
input state fails a by-construction precondition (no hidden-variable model
exists for it), and 2 for malformed input: an unreadable file, or a file
that is malformed in any way, be it not JSON, not UTF-8, nested too deep,
missing a field, holding a number past the float range, or describing a
circuit wider than ``circuits.MAX_MODES`` modes.
"""

import argparse
import json
import sys

import numpy as np

from .bell import (
    chsh_max,
    find_witness,
    witness_to_dict,
    yurke_stoler_postselect,
)
from .circuits import (
    _matrix_from_json,
    _matrix_to_json,
    circuit_to_dict,
    detector_statistics,
    load_circuit,
    reck_decompose,
    run_circuit,
    save_circuit,
)
from .classify import is_single_mode_type
from .errors import FockoptError, InvalidParameter, ZeroOutcome
from .lhv import DEFAULT_SEED, EpistemicSpec, compare_lhv_quantum
from .states import (
    _decoding,
    _read_json,
    _write_json,
    load_state,
    save_state,
    state_to_dict,
)
from .tolerances import DEFAULT_TOL, HERALD_CUTOFF

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 10
EXIT_PRECONDITION = 11


def _fmt(value):
    return f"{value:.12g}"


def _print_json(payload):
    print(json.dumps(payload, indent=1))


def _load_unitary(path):
    data = _read_json(path)
    with _decoding("unitary description"):
        return _matrix_from_json(data["matrix"])


def _cmd_classify(args):
    state = load_state(args.state)
    verdict = is_single_mode_type(state, tol=args.tol)
    if args.format == "json":
        payload = {
            "single_mode": verdict.single_mode,
            "alpha": None
            if verdict.alpha is None
            else [[a.real, a.imag] for a in verdict.alpha],
            "residual": verdict.residual if verdict.residual != float("inf") else None,
            "violation": list(verdict.violation) if verdict.violation else None,
        }
        _print_json(payload)
    elif verdict.single_mode:
        print("SINGLE-MODE-TYPE")
        if verdict.alpha is None:
            print("alpha: undefined (vacuum)")
        else:
            entries = ", ".join(
                f"{a.real:.12g}{a.imag:+.12g}j" for a in verdict.alpha
            )
            print(f"alpha (up to global phase): [{entries}]")
        print(f"worst residual: {_fmt(verdict.residual)}")
    else:
        print("NOT-SINGLE-MODE")
        if verdict.violation is not None:
            print(f"first violated coefficient: {verdict.violation}")
    return EXIT_OK if verdict.single_mode else EXIT_NEGATIVE


def _evolve_readout(args, state, circuit):
    """Herald probability and readout distribution of a circuit with readouts."""
    if args.output:
        raise InvalidParameter("--output needs a circuit whose detectors all carry heralds")
    stats = detector_statistics(state, circuit)
    if stats.herald_probability < HERALD_CUTOFF:
        print(f"herald never fires: probability {stats.herald_probability:.3e}", file=sys.stderr)
        return EXIT_NEGATIVE
    modes = [m + 1 for m in stats.readout_modes]
    outcomes = sorted(stats.distribution.items())
    if args.format == "json":
        _print_json(
            {
                "probability": stats.herald_probability,
                "readout_modes": modes,
                "distribution": [{"outcome": list(k), "probability": p} for k, p in outcomes],
            }
        )
    else:
        print(f"herald probability: {_fmt(stats.herald_probability)}")
        print(f"readout modes: {' '.join(map(str, modes))}")
        for outcome, p in outcomes:
            print(f"  {outcome}: {_fmt(p)}")
    return EXIT_OK


def _cmd_evolve(args):
    state = load_state(args.state)
    circuit = load_circuit(args.circuit)
    if circuit.readout_modes:
        return _evolve_readout(args, state, circuit)
    try:
        out, prob = run_circuit(state, circuit)
    except ZeroOutcome as exc:
        print(f"herald never fires: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    if args.output:
        save_state(out, args.output)
    if args.format == "json":
        _print_json({"probability": prob, "state": state_to_dict(out)})
    else:
        print(f"herald probability: {_fmt(prob)}")
        if args.output:
            print(f"output state written to {args.output}")
        else:
            for occ, amp in sorted(out.items()):
                print(f"  {occ}: {amp.real:.12g}{amp.imag:+.12g}j")
    return EXIT_OK


def _cmd_ys_test(args):
    state = load_state(args.state)
    chi, prob = yurke_stoler_postselect(state)
    result = chsh_max(chi)
    if args.format == "json":
        _print_json(
            {
                "chsh": result.chsh,
                "violated": result.violated,
                "success_probability": prob,
                "settings": {
                    "party_A": [_matrix_to_json(b) for b in result.settings_a],
                    "party_B": [_matrix_to_json(b) for b in result.settings_b],
                },
            }
        )
    else:
        print(f"chsh: {_fmt(result.chsh)}")
        print(f"post-selection probability: {_fmt(prob)}")
        print(f"violated: {result.violated}")
    return EXIT_OK if result.violated else EXIT_NEGATIVE


def _cmd_witness(args):
    state = load_state(args.state)
    experiment = find_witness(state)
    if experiment is None:
        verdict = is_single_mode_type(state)
        if args.format == "json":
            residual = verdict.residual if verdict.residual != float("inf") else None
            _print_json(dict(witness=None, single_mode=verdict.single_mode, residual=residual))
        elif verdict.single_mode:
            print("NO-VIOLATION-FOUND (state is of single-mode type)")
        else:
            print(
                f"NO-VIOLATION-FOUND (state is NOT-SINGLE-MODE, residual "
                f"{_fmt(verdict.residual)}, but no candidate of the fixed family violates)"
            )
        return EXIT_NEGATIVE
    payload = witness_to_dict(experiment)
    if args.output:
        _write_json(payload, args.output)
    if args.format == "json" or not args.output:
        _print_json(payload)
    else:
        print(f"chsh: {_fmt(experiment.result.chsh)}")
        print(f"success probability: {_fmt(experiment.result.success_probability)}")
        print(f"heralds: { {m + 1: c for m, c in sorted(experiment.circuit.heralds.items())} }")
        print(f"witness written to {args.output}")
    return EXIT_OK


def _cmd_lhv_compare(args):
    state = load_state(args.state)
    circuit = load_circuit(args.circuit)
    verdict = is_single_mode_type(state, tol=args.tol)
    if not verdict.single_mode:
        print(
            "state is not reducible to a single mode: it is a genuine non-local "
            "resource and admits no local hidden-variable model",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    alpha = verdict.alpha
    if alpha is None:
        alpha = np.zeros(state.n_modes, dtype=complex)
        alpha[0] = 1.0
    spec = EpistemicSpec(alpha, state.n_particles)
    report = compare_lhv_quantum(spec, circuit, shots=args.shots, seed=args.seed)
    if args.format == "json":
        _print_json(report.to_json_dict())
    elif args.format == "csv":
        print(report.to_csv())
    else:
        print(report.to_table())
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _cmd_decompose(args):
    u = _load_unitary(args.unitary)
    circuit = reck_decompose(u)
    if args.output:
        save_circuit(circuit, args.output)
        print(f"circuit written to {args.output}")
    else:
        _print_json(circuit_to_dict(circuit))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fockopt",
        description=(
            "Simulate definite-particle-number states in passive linear optics, "
            "classify single-mode-type states, construct Bell-violating "
            "experiments, and cross-check the local hidden-variable model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide whether a state is of single-mode type")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument(
        "--tol", type=float, default=DEFAULT_TOL, help="relative residual tolerance, in (0, 1)"
    )
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("evolve", help="run a circuit file on a state file")
    p.add_argument("state")
    p.add_argument("circuit")
    p.add_argument(
        "--output", help="write the heralded output state here (circuits without readouts)"
    )
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser(
        "ys-test", help="two-particle two-mode Bell test with optimal settings"
    )
    p.add_argument("state")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_ys_test)

    p = sub.add_parser("witness", help="search for a Bell-violating experiment")
    p.add_argument("state")
    p.add_argument("--output", help="write the witness JSON here")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser(
        "lhv-compare",
        help="compare hidden-variable Monte Carlo against exact quantum statistics",
    )
    p.add_argument("state")
    p.add_argument("circuit")
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_lhv_compare)

    p = sub.add_parser("decompose", help="triangular mesh decomposition of a unitary")
    p.add_argument("unitary", help='JSON file {"matrix": [[[re,im],...],...]}')
    p.add_argument("--output", help="write the circuit JSON here")
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FockoptError, OSError) as exc:
        # only an InvalidFile from a JSON parse error carries a line
        location = ""
        if getattr(exc, "line", None) is not None:
            location = f" (line {exc.line}, column {exc.column})"
        print(f"input error{location}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

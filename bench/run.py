"""fockopt benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload evolve --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads: evolve, witness-search, lhv-mc,
cli (see bench/README.md).  With ``--trace 0`` the last line of stdout holds
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The workload
runs in a fresh worker process with BLAS pinned to one thread; four more
workers that only set up give ``setup_s`` its median of five.  Failed and wrong
operations are listed on stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def spawn_worker(args, setup_only):
    """Start a worker; return (set-up seconds, its set-up report, result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not first.strip():
        raise SystemExit(f"worker for {args.workload} exited with code {proc.returncode}")
    ready = json.loads(first)
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else None
    return setup_s, ready, result


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("evolve", "witness-search", "lhv-mc", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fockopt" / "__init__.py").is_file():
        print(f"no fockopt sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import reference

    problems = reference.self_test()
    setups = []
    imports = []
    for _ in range(SETUP_SAMPLES - 1):
        setup_s, ready, _ = spawn_worker(args, setup_only=True)
        setups.append(setup_s)
        imports.append(ready["import_s"])
    setup_s, ready, result = spawn_worker(args, setup_only=False)
    setups.append(setup_s)
    imports.append(ready["import_s"])

    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import.s"] = {"value": statistics.median(imports), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    declared = declared_metrics(args.trace)
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != declared:
        problems.append(f"metrics {sorted(reported.items())} differ from BENCHMARK.json {sorted(declared.items())}")

    for label, why in result["failures"]:
        print(f"failed: {label}: {why}", file=sys.stderr)
    for label, why in result["wrong"]:
        print(f"WRONG: {label}: {why}", file=sys.stderr)
    for why in problems:
        print(f"WRONG: {why}", file=sys.stderr)
    print(f"{args.workload}: {result['rounds']} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"] and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

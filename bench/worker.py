"""Run one workload in a fresh interpreter and report what it measured.

Started by ``run.py``.  The first line on stdout is a JSON object sent as
soon as ``fockopt`` is imported and the inputs are built, so that the parent
can time the set-up; with ``--setup-only`` the worker stops there.  The last
line is the result of the rounds.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import probe

ROOT = Path(__file__).resolve().parents[1]
# probes take this share of a round, spread over it in step with the operations
PROBE_SHARE = 0.05


def run_round(ops, error_type, probed):
    """One call of every operation, with speed probes between them if ``probed``.

    Returns the round's elapsed time (probes included), each operation's
    time, the results, and the factor that scales this round's times to the
    reference speed (see probe.py); that factor is 1 when not ``probed``.
    """
    results = []
    times = []
    probes = [probe.burst()] if probed else []
    probe_s = op_s = 0.0
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises has failed; keep going
            result = error_type(exc)
        times.append(perf_counter() - t0)
        results.append(result)
        op_s += times[-1]
        while probed and probe_s < PROBE_SHARE * op_s:
            t0 = perf_counter()
            probes.append(probe.burst())
            probe_s += perf_counter() - t0
    scale = probe.factor(probes) if probed else 1.0
    return perf_counter() - start, times, results, scale


def digest(workload, results):
    h = hashlib.sha256()
    for op, result in zip(workload.ops, results):
        h.update(workload.summary(op, result).encode())
        h.update(b"\0")
    return h.hexdigest()


class Rounds:
    """Rounds of one run: timings, the checked first round, digests."""

    def __init__(self, workload, error_type):
        self.workload = workload
        self.error_type = error_type
        self.statuses = None
        self.reference = None
        self.work = None
        self.mismatches = 0
        self.walls = {"plain": [], "traced": []}
        self.scaled_walls = {"plain": [], "traced": []}
        self.op_times = []
        self.count = 0

    def run(self, traced=False):
        elapsed, times, results, scale = run_round(
            self.workload.ops, self.error_type, getattr(self.workload, "PROBED", True)
        )
        wall = sum(times)
        d = digest(self.workload, results)
        if self.reference is None:
            try:
                self.statuses = self.workload.check(results)
            except Exception as exc:  # output the checks cannot read is a wrong result
                self.statuses = [("wrong", f"check raised {type(exc).__name__}: {exc}")] * len(results)
            self.reference = d
            self.work = self.workload.work(results)
        elif d != self.reference:
            self.mismatches += 1
        kind = "traced" if traced else "plain"
        self.walls[kind].append(wall)
        self.scaled_walls[kind].append(wall * scale)
        if not traced:
            self.op_times.append([t * scale for t in times])
        self.count += 1
        return elapsed

    def outcome(self):
        failed = sum(1 for s, _ in self.statuses if s == "failed")
        wrong = [(op.label, why) for op, (s, why) in zip(self.workload.ops, self.statuses) if s == "wrong"]
        fails = [(op.label, why) for op, (s, why) in zip(self.workload.ops, self.statuses) if s == "failed"]
        if self.mismatches:
            wrong.append(("rounds", f"{self.mismatches} rounds gave other results than the first"))
        return {
            "correct": not wrong,
            "attempted": len(self.statuses) * self.count,
            "failed": failed * self.count,
            "wrong": wrong,
            "failures": fails,
        }


def op_median(op_times):
    """Median over the operations of each operation's median time.

    Pooling all samples instead would put the median in the gap between two
    clusters of operation sizes (evolve has such a gap), where it reads the
    extremes of both clusters and jumps with noise.
    """
    return statistics.median(statistics.median(column) for column in zip(*op_times))


def untraced(workload, seconds, error_type):
    rounds = Rounds(workload, error_type)
    start = perf_counter()
    while True:
        elapsed = rounds.run()
        if perf_counter() - start + elapsed > seconds:
            break
    wall_s = statistics.median(rounds.scaled_walls["plain"])
    metrics = {
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (1e3 * op_median(rounds.op_times), "ms"),
        "work_per_s": (rounds.work / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    return rounds, metrics


def traced(workload, seconds, error_type, trace_file):
    from spans import Tracer, summarize

    tracer = Tracer()
    rounds = Rounds(workload, error_type)
    summaries = []
    start = perf_counter()
    if hasattr(workload, "mode"):
        # the reference round runs the CLI as users do; the timed pairs
        # below call main in this process, where the spans can be seen
        rounds.run()
        rounds.walls["plain"].clear()
        rounds.scaled_walls["plain"].clear()
        workload.mode = "inprocess"
    longest = 0.0
    while True:
        longest = max(longest, rounds.run())
        tracer.install()
        try:
            longest = max(longest, rounds.run(traced=True))
        finally:
            tracer.uninstall()
        summaries.append(summarize(tracer.take()))
        if perf_counter() - start + 2 * longest > seconds:
            break
    plain = statistics.median(rounds.scaled_walls["plain"])
    overhead = 100.0 * (statistics.median(rounds.scaled_walls["traced"]) / plain - 1.0)
    metrics = layer_metrics(summaries)
    metrics["trace.overhead_pct"] = (overhead, "%")
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"round_walls": rounds.walls, "rounds": summaries}, fh, indent=1)
        fh.write("\n")
    return rounds, metrics


def layer_metrics(summaries):
    """Per-round figures of the traced rounds: median times, exact counts."""

    def field(name, key):
        return [s.get(name, {}).get(key, 0) for s in summaries]

    def seconds(name, key="s"):
        return (statistics.median(field(name, key)), "s")

    def count(name, key="calls"):
        return (field(name, key)[0], "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    first = summaries[0]
    witnesses = first.get("find_witness", {}).get("count", 0)
    shots = first.get("run_lhv_experiment", {}).get("count", 0)
    accepted = first.get("run_lhv_experiment", {}).get("count2", 0)
    loads = [a + b for a, b in zip(field("load_state", "s"), field("load_circuit", "s"))]
    return {
        "states.apply_mode_unitary.s": seconds("apply_mode_unitary"),
        "states.apply_mode_unitary.calls": count("apply_mode_unitary"),
        "states.terms_out": count("apply_mode_unitary", "count"),
        "states.herald.s": seconds("herald"),
        "states.herald.calls": count("herald"),
        "circuits.run_circuit.s": seconds("run_circuit"),
        "circuits.run_circuit.self_s": seconds("run_circuit", "self_s"),
        "circuits.run_circuit.calls": count("run_circuit"),
        "circuits.gates": (field("run_circuit", "count")[0] + field("detector_statistics", "count")[0], "count"),
        "circuits.detector_statistics.s": seconds("detector_statistics"),
        "circuits.detector_statistics.self_s": seconds("detector_statistics", "self_s"),
        "circuits.detector_statistics.calls": count("detector_statistics"),
        "circuits.reck_decompose.s": seconds("reck_decompose"),
        "circuits.reck_decompose.calls": count("reck_decompose"),
        "classify.is_single_mode_type.s": seconds("is_single_mode_type"),
        "classify.is_single_mode_type.calls": count("is_single_mode_type"),
        "bell.find_witness.s": seconds("find_witness"),
        "bell.find_witness.self_s": seconds("find_witness", "self_s"),
        "bell.find_witness.calls": count("find_witness"),
        "bell.candidates": (first["_candidates"], "count"),
        "bell.witness_yield": ratio(witnesses, first["_candidates"]),
        "bell.yurke_stoler_postselect.s": seconds("yurke_stoler_postselect"),
        "bell.chsh_max.s": seconds("chsh_max"),
        "bell.chsh_max.calls": count("chsh_max"),
        "bell.replay_witness.s": seconds("replay_witness"),
        "bell.replay_witness.calls": count("replay_witness"),
        "lhv.run_lhv_experiment.s": seconds("run_lhv_experiment"),
        "lhv.shots": (shots, "count"),
        "lhv.accepted": (accepted, "count"),
        "lhv.acceptance": ratio(accepted, shots),
        "lhv.compare_self.s": seconds("compare_lhv_quantum", "self_s"),
        "cli.main.s": seconds("main"),
        "cli.main.self_s": seconds("main", "self_s"),
        "cli.load.s": (statistics.median(loads), "s"),
    }


def peak_rss_mb(workload):
    # the CLI workload's figure is that of its largest subcommand process
    who = resource.RUSAGE_CHILDREN if hasattr(workload, "mode") else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fockopt

    import_s = perf_counter() - start
    if Path(fockopt.__file__).resolve().parent != (ROOT / "src" / "fockopt").resolve():
        print(f"fockopt imported from {fockopt.__file__}, not from this checkout", file=sys.stderr)
        return 3
    from workloads import WORKLOADS, Cli, OpError

    t0 = perf_counter()
    cls = WORKLOADS[args.workload]
    workload = cls(fockopt, args.seed, ROOT) if cls is Cli else cls(fockopt, args.seed)
    inputs_s = perf_counter() - t0
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        rounds, metrics = traced(workload, args.seconds, OpError, trace_file)
    else:
        rounds, metrics = untraced(workload, args.seconds, OpError)
    result = rounds.outcome()
    result["rounds"] = rounds.count
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder that wraps public ``fockopt`` functions from outside.

The package has no spans of its own, so the benchmark replaces each traced
name in every ``fockopt`` module namespace that holds it (the defining
module, modules that imported it, and the package root).  Calls made inside
the package go through those namespaces, so nested calls become child spans.
A span records its name, its parent, its start and end, and one counter taken
from its arguments or result.  ``uninstall`` restores the original objects,
so untraced rounds run the package exactly as shipped.
"""

import importlib
import sys
from time import perf_counter

MODULES = ("states", "circuits", "classify", "bell", "lhv", "cli")

# (defining module, function name)
TARGETS = (
    ("states", "apply_mode_unitary"),
    ("states", "herald"),
    ("states", "load_state"),
    ("circuits", "run_circuit"),
    ("circuits", "detector_statistics"),
    ("circuits", "reck_decompose"),
    ("circuits", "load_circuit"),
    ("classify", "is_single_mode_type"),
    ("bell", "find_witness"),
    ("bell", "yurke_stoler_postselect"),
    ("bell", "chsh_max"),
    ("bell", "replay_witness"),
    ("lhv", "run_lhv_experiment"),
    ("lhv", "compare_lhv_quantum"),
    ("cli", "main"),
)


def _gates(args, result):
    circuit = args[1]
    return sum(1 for el in circuit.elements if type(el).__name__ != "Detector")


# counter name -> function of (call arguments, result)
COUNTERS = {
    "apply_mode_unitary": lambda args, out: len(out.items()),
    "run_circuit": _gates,
    "detector_statistics": _gates,
    "find_witness": lambda args, out: int(out is not None),
    "run_lhv_experiment": lambda args, out: (out.shots, out.accepted),
}


class Tracer:
    """Collects spans as ``[name, parent index, start, end, counter]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.package = importlib.import_module("fockopt")
        self.modules = [self.package] + [
            importlib.import_module(f"fockopt.{name}") for name in MODULES
        ]

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(record)
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                record[2] = start
                stack.pop()
            if counter is not None:
                record[4] = counter(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            return
        for home, name in TARGETS:
            original = getattr(sys.modules[f"fockopt.{home}"], name)
            wrapper = self._wrap(name, original)
            for module in self.modules:
                if getattr(module, name, None) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in self._saved:
            setattr(module, name, original)
        self._saved = []

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans):
    """Per-name inclusive time, self time, calls and counters of one round.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    candidates = 0
    for i, (name, parent, start, end, counter) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0, "count2": 0})
        duration = end - start
        entry["s"] += duration
        entry["self_s"] += duration - child_time[i]
        entry["calls"] += 1
        if isinstance(counter, tuple):
            entry["count"] += counter[0]
            entry["count2"] += counter[1]
        elif counter is not None:
            entry["count"] += counter
        if name == "run_circuit" and parent >= 0 and spans[parent][0] == "find_witness":
            candidates += 1
    out["_candidates"] = candidates
    return out

"""The four workloads: their inputs, their operations and their checks.

A workload is built once per process (that is the set-up) and then runs
rounds: every round calls the same operations on the same inputs, in the same
order.  ``check`` compares one round's results with the reference
computations in ``reference.py`` and gives each operation one of three
statuses: ``ok``; ``failed`` when the package gave up or returned a negative
answer on an input that has a positive one (a known fault, counted against
``attempted``); ``wrong`` when it returned a result that is false.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref

OK = ("ok", "")
# seed of the part of witness-search that does not follow --seed: the states
# on which the package's faults show, so that their count is the same in
# every run (see README.md)
FIXED_STREAM = 17339
CHI2_P_MIN = 1e-6
TIGHT = 1e-10


def failed(reason):
    return ("failed", reason)


def wrong(reason):
    return ("wrong", reason)


class OpError:
    """Exception raised by an operation, kept as its result."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"error({self.text})"


class Op:
    __slots__ = ("kind", "label", "call", "data")

    def __init__(self, kind, label, call, data=None):
        self.kind = kind
        self.label = label
        self.call = call
        self.data = data


def _terms(state):
    return {tuple(occ): complex(a) for occ, a in state.items()}


def _state_repr(state):
    return repr(sorted(state.items()))


def _circuit_unitary(circuit):
    """Overall gate matrix of a Reck mesh, read from its elements."""
    m = circuit.n_modes
    u = np.eye(m, dtype=complex)
    for el in circuit.elements:
        if type(el).__name__ == "BeamSplitter":
            u = u @ ref.gate_matrix("bs", el.modes, m, np.asarray(el.matrix))
        else:
            u = u @ ref.gate_matrix("ps", (el.mode,), m, phi=el.phi)
    return u


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

class Evolve:
    """Dense random and number states through a dense U and through its mesh.

    Each case gives three operations: ``apply_mode_unitary`` with the dense
    U; ``reck_decompose`` plus ``run_circuit`` with two heralded detectors;
    ``detector_statistics`` with one herald and three readout detectors.
    """

    CASES = (
        ("boson", 5, 6, "random"),
        ("fermion", 5, 10, "random"),
        ("boson", 5, 6, "number"),
        ("fermion", 5, 10, "number"),
    )
    SAMPLED = 6

    def __init__(self, fo, seed):
        rng = np.random.default_rng([seed, 1])
        self.ops = []
        for stat, n, m, kind in self.CASES:
            fermion = stat == "fermion"
            basis = ref.sector(n, m, fermion)
            if kind == "random":
                amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
                terms = dict(zip(basis, amps / np.linalg.norm(amps)))
                picks = rng.choice(len(basis), size=self.SAMPLED, replace=False)
                samples = [basis[i] for i in picks]
            else:
                # one particle in each of the first N modes; the occupation is
                # fixed because a mesh's cost on a number state depends on it
                terms = {(1,) * n + (0,) * (m - n): 1.0 + 0j}
                samples = basis
            u = ref.random_unitary(rng, m)
            state = fo.FockState(stat, m, terms)
            heralds = {m - 1: 1, m - 2: 0}
            herald_dets = [fo.Detector(j, c) for j, c in heralds.items()]
            readout = (0, 1, 2)
            readout_circuit = fo.reck_decompose(u).extended(
                [fo.Detector(m - 1, 1)] + [fo.Detector(j) for j in readout]
            )
            case = {
                "label": f"{stat} N={n} M={m} {kind}",
                "terms": terms,
                "u": u,
                "fermion": fermion,
                "samples": samples,
                "heralds": heralds,
                "readout_heralds": {m - 1: 1},
                "readout": readout,
            }

            def dense(state=state, u=u):
                return fo.apply_mode_unitary(state, u)

            def mesh(state=state, u=u, dets=herald_dets):
                circuit = fo.reck_decompose(u)
                out, prob = fo.run_circuit(state, circuit.extended(dets))
                return circuit, out, prob

            def readouts(state=state, circuit=readout_circuit):
                return fo.detector_statistics(state, circuit)

            self.ops += [
                Op("dense", case["label"], dense, case),
                Op("mesh", case["label"], mesh, case),
                Op("readout", case["label"], readouts, case),
            ]

    def summary(self, op, result):
        if isinstance(result, OpError):
            return repr(result)
        if op.kind == "dense":
            return _state_repr(result)
        if op.kind == "mesh":
            return f"{len(result[0].elements)}|{_state_repr(result[1])}|{result[2]!r}"
        return f"{sorted(result.distribution.items())!r}|{result.herald_probability!r}"

    def work(self, results):
        """Output amplitudes: dense outputs plus heralded mesh outputs."""
        total = 0
        for op, r in zip(self.ops, results):
            if isinstance(r, OpError):
                continue
            if op.kind == "dense":
                total += len(r.items())
            elif op.kind == "mesh":
                total += len(r[1].items())
        return total

    def check(self, results):
        statuses = []
        dense_out = {}
        for op, r in zip(self.ops, results):
            case = op.data
            if isinstance(r, OpError):
                statuses.append(failed(r.text))
                continue
            if op.kind == "dense":
                dense_out[op.label] = _terms(r)
                statuses.append(self._check_dense(case, dense_out[op.label]))
                continue
            reference = dense_out.get(op.label)
            if reference is None:
                statuses.append(wrong("no dense output to compare the mesh with"))
            elif op.kind == "mesh":
                statuses.append(self._check_mesh(case, reference, r))
            else:
                statuses.append(self._check_readout(case, reference, r))
        return statuses

    @staticmethod
    def _check_dense(case, out):
        norm = sum(abs(a) ** 2 for a in out.values())
        if abs(norm - 1.0) > TIGHT:
            return wrong(f"norm {norm!r} after evolution")
        worst = 0.0
        for occ in case["samples"]:
            expect = ref.evolved_amplitude(case["terms"], case["u"], occ, case["fermion"])
            worst = max(worst, abs(out.get(occ, 0j) - expect))
        if worst > TIGHT:
            return wrong(f"amplitude off the permanent/determinant by {worst:.3e}")
        return OK

    @staticmethod
    def _check_mesh(case, dense, result):
        circuit, out, prob = result
        gap = np.max(np.abs(_circuit_unitary(circuit) - case["u"]))
        if gap > TIGHT:
            return wrong(f"mesh product differs from U by {gap:.3e}")
        p_ref, rest = ref.herald_terms(dense, case["heralds"], case["fermion"])
        if abs(prob - p_ref) > TIGHT:
            return wrong(f"herald probability {prob!r} against {p_ref!r}")
        gap = ref.state_distance(_terms(out), rest)
        if gap > TIGHT:
            return wrong(f"heralded mesh output differs from the dense path by {gap:.3e}")
        return OK

    @staticmethod
    def _check_readout(case, dense, stats):
        probs = {occ: abs(a) ** 2 for occ, a in dense.items()}
        p_ref, law = ref.readout_law(probs, case["readout_heralds"], case["readout"])
        if abs(stats.herald_probability - p_ref) > TIGHT:
            return wrong(f"herald probability {stats.herald_probability!r} against {p_ref!r}")
        keys = set(law) | set(stats.distribution)
        gap = max(abs(law.get(k, 0.0) - stats.distribution.get(k, 0.0)) for k in keys)
        if gap > TIGHT:
            return wrong(f"readout law differs from the dense path by {gap:.3e}")
        return OK


# ---------------------------------------------------------------------------
# witness-search
# ---------------------------------------------------------------------------

def _small_shapes(limit):
    """(N, M) with N in 2..8, M in 2..6 and at most ``limit`` boson terms."""
    return [
        (n, m)
        for m in range(2, 7)
        for n in range(2, 9)
        if math.comb(n + m - 1, m - 1) <= limit
    ]


def _superpose(a, b, ca, cb):
    keys = set(a) | set(b)
    out = {k: ca * a.get(k, 0j) + cb * b.get(k, 0j) for k in keys}
    norm = math.sqrt(sum(abs(v) ** 2 for v in out.values()))
    return {k: v / norm for k, v in out.items()}


class WitnessSearch:
    """A population of small states, each classified and searched for a witness.

    One operation is ``is_single_mode_type`` + ``find_witness`` (+
    ``replay_witness`` on the witness found) on one state, or
    ``yurke_stoler_postselect`` + ``chsh_max`` on one two-particle pair.
    The generic, embedded and pair states follow --seed.  The single-mode,
    N00N-image and two-term superposition states come from fixed streams:
    the package misjudges some of them, and only a fixed set keeps the share
    of failed operations equal from run to run.
    """

    SHAPE_LIMIT = 330

    def __init__(self, fo, seed):
        self.fo = fo
        rng = np.random.default_rng([seed, 2])
        shapes = _small_shapes(self.SHAPE_LIMIT)
        self.ops = []
        for n, m in shapes:
            for _ in range(2):
                self._state("generic", "boson", self._random(rng, n, m, False), None)
        for m in range(2, 7):
            for n in range(2, m + 1):
                for _ in range(2):
                    self._state("generic", "fermion", self._random(rng, n, m, True), None)
        for m in range(3, 7):
            for n in range(2, 9):
                two = self._random(rng, n, 2, False)
                s, t = sorted(int(x) for x in rng.choice(m, 2, replace=False))
                terms = {}
                for (k0, k1), a in two.items():
                    occ = [0] * m
                    occ[s], occ[t] = k0, k1
                    terms[tuple(occ)] = a
                self._state("embedded", "boson", terms, None)
        for i in range(16):
            fermion = i >= 12
            terms = self._random(rng, 2, 2, fermion)
            stat = "fermion" if fermion else "boson"
            state = fo.FockState(stat, 2, terms)
            self.ops.append(Op("pair", f"{stat} pair", lambda s=state: self._pair(s), {"terms": terms, "fermion": fermion}))
        # fixed streams, one per family: single-mode states, N00N images and
        # superpositions of two single-mode states
        fixed = np.random.default_rng([FIXED_STREAM, 1])
        for m in range(2, 7):
            for n in range(2, 9):
                for _ in range(3):
                    alpha = ref.random_vector(fixed, m)
                    self._state("single-mode", "boson", ref.single_mode_terms(alpha, n), alpha)
        hand = np.array([1.0, 0.005, 0.5])
        self._state("single-mode", "boson", ref.single_mode_terms(hand, 4), hand / np.linalg.norm(hand))
        fixed = np.random.default_rng([FIXED_STREAM, 2])
        for n, m in shapes * 2:
            u = ref.random_unitary(fixed, m)
            phase = np.exp(1j * fixed.uniform(0, 2 * math.pi))
            terms = _superpose(ref.single_mode_terms(u[0], n), ref.single_mode_terms(u[1], n), 1.0, phase)
            self._state("noon-image", "boson", terms, None)
        fixed = np.random.default_rng([FIXED_STREAM, 3])
        for n, m in shapes * 2:
            c = ref.random_vector(fixed, 2)
            a = ref.single_mode_terms(ref.random_vector(fixed, m), n)
            b = ref.single_mode_terms(ref.random_vector(fixed, m), n)
            self._state("superposition", "boson", _superpose(a, b, c[0], c[1]), None)

    @staticmethod
    def _random(rng, n, m, fermion):
        basis = ref.sector(n, m, fermion)
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        return dict(zip(basis, amps / np.linalg.norm(amps)))

    def _state(self, family, stat, terms, alpha):
        state = self.fo.FockState(stat, len(next(iter(terms))), terms)
        label = f"{family} {stat} N={state.n_particles} M={state.n_modes}"
        self.ops.append(Op("state", label, lambda s=state: self._search(s), {"alpha": alpha}))

    def _search(self, state):
        fo = self.fo
        verdict = fo.is_single_mode_type(state)
        witness = fo.find_witness(state)
        replay = fo.replay_witness(state, witness) if witness is not None else None
        return verdict, witness, replay

    def _pair(self, phi):
        chi, prob = self.fo.yurke_stoler_postselect(phi)
        return chi, prob, self.fo.chsh_max(chi)

    def summary(self, op, result):
        if isinstance(result, OpError):
            return repr(result)
        if op.kind == "pair":
            chi, prob, res = result
            return f"{list(chi.amplitudes)!r}|{prob!r}|{res.chsh!r}|{res.violated}"
        verdict, witness, replay = result
        alpha = None if verdict.alpha is None else list(verdict.alpha)
        text = f"{verdict.single_mode}|{verdict.residual!r}|{alpha!r}|{verdict.violation}"
        if witness is not None:
            res = witness.result
            text += f"|{witness.circuit!r}|{res.chsh!r}|{res.success_probability!r}|{replay!r}"
        return text

    def work(self, results):
        """States classified and searched, pairs tested."""
        return len(results)

    def check(self, results):
        return [self._check(op, r) for op, r in zip(self.ops, results)]

    def _check(self, op, result):
        if isinstance(result, OpError):
            return failed(result.text)
        if op.kind == "pair":
            chi, prob, res = result
            psi, p_ref = ref.ys_two_qubit(op.data["terms"], op.data["fermion"])
            if abs(prob - p_ref) > TIGHT or abs(p_ref - 0.5) > TIGHT:
                return wrong(f"post-selection probability {prob!r} against {p_ref!r}")
            expect = ref.chsh_value(psi)
            if abs(res.chsh - expect) > 1e-9:
                return wrong(f"CHSH {res.chsh!r} against the correlation matrix {expect!r}")
            if res.violated != (expect > 2.0 + 1e-6):
                return wrong("violation flag disagrees with the CHSH value")
            return OK
        verdict, witness, replay = result
        single = op.data["alpha"] is not None
        if single:
            if not verdict.single_mode:
                return failed(f"single-mode state judged NOT-SINGLE-MODE, violation {verdict.violation}")
            if witness is not None:
                return wrong(f"witness with CHSH {witness.result.chsh!r} for a single-mode state")
            gap = ref.phase_distance(verdict.alpha, op.data["alpha"])
            if gap > 1e-7:
                return wrong(f"alpha differs from the constructed one by {gap:.3e}")
            return OK
        if verdict.single_mode:
            return wrong("non-single-mode state judged SINGLE-MODE-TYPE")
        if witness is None:
            return failed("no witness found for a state that is not of single-mode type")
        chsh = witness.result.chsh
        if not 2.0 < chsh <= ref.CHSH_TSIRELSON + 1e-12:
            return wrong(f"witness CHSH {chsh!r} outside (2, 2 sqrt 2]")
        if abs(replay - chsh) > 1e-9:
            return wrong(f"replayed CHSH {replay!r} against {chsh!r}")
        if not 0.0 < witness.result.success_probability <= 1.0:
            return wrong(f"success probability {witness.result.success_probability!r}")
        return OK


# ---------------------------------------------------------------------------
# lhv-mc
# ---------------------------------------------------------------------------

class LhvMc:
    """``compare_lhv_quantum`` on single-mode specs through random meshes.

    Cases: all-mode readout; a herald that rejects most shots (the count
    whose exact probability is closest to 5 %, among those of at least 1 %);
    a herald on a mode no gate touches, which rejects none; a readout over
    715 outcomes; and the Yurke-Stoler stage with one-per-side
    post-selection.  Each case is drawn
    three times: a shot's cost depends on the drawn alpha and U, and three
    draws average that over the seed.
    """

    DRAWS = 3

    def __init__(self, fo, seed):
        self.fo = fo
        rng = np.random.default_rng([seed, 3])
        self.ops = []
        for _ in range(self.DRAWS):
            self._case(rng, "readout", 3, 4, 4_000)
            self._case(rng, "rare-herald", 4, 5, 13_000)
            self._case(rng, "sure-herald", 4, 5, 4_000)
            self._case(rng, "wide-readout", 9, 5, 10_000)
            self._case(rng, "yurke-stoler", 2, 4, 4_000)
        for i, op in enumerate(self.ops):
            op.data["seed"] = int(rng.integers(2**62)) + i

    def _case(self, rng, kind, n, m, shots):
        fo = self.fo
        alpha = ref.random_vector(rng, m)
        u = ref.random_unitary(rng, m)
        heralds = {}
        readout = tuple(range(m))
        postselect = None
        gates = None
        if kind == "rare-herald":
            law = ref.count_law(alpha @ u, n)
            marginal = {}
            for occ, p in law.items():
                marginal[occ[m - 1]] = marginal.get(occ[m - 1], 0.0) + p
            # counts below 1 % would leave too few accepted shots to test
            likely = [k for k, p in marginal.items() if p >= 0.01]
            count = min(likely, key=lambda k: abs(math.log(marginal[k] / 0.05)))
            heralds = {m - 1: count}
            readout = tuple(range(m - 1))
        elif kind == "sure-herald":
            alpha[m - 1] = 0.0
            alpha /= np.linalg.norm(alpha)
            u = np.eye(m, dtype=complex)
            u[: m - 1, : m - 1] = ref.random_unitary(rng, m - 1)
            heralds = {m - 1: 0}
            readout = tuple(range(m - 1))
        elif kind == "yurke-stoler":
            alpha[2:] = 0.0
            alpha /= np.linalg.norm(alpha)
            v_a = ref.random_unitary(rng, 2)
            v_b = ref.random_unitary(rng, 2)
            u = ref.ys_unitary() @ ref.gate_matrix("bs", ref.ALICE, 4, v_a) @ ref.gate_matrix("bs", ref.BOB, 4, v_b)
            postselect = [(ref.ALICE, 1), (ref.BOB, 1)]
            gates = list(fo.yurke_stoler_circuit().elements)
            gates += [fo.BeamSplitter(ref.ALICE, v_a), fo.BeamSplitter(ref.BOB, v_b)]
        if gates is None:
            gates = list(fo.reck_decompose(u).elements)
        detectors = [fo.Detector(j, c) for j, c in heralds.items()]
        detectors += [fo.Detector(j) for j in readout]
        circuit = fo.Circuit(m, gates + detectors)
        spec = fo.EpistemicSpec(alpha, n)
        data = {
            "kind": kind,
            "n": n,
            "beta": alpha @ u,
            "heralds": heralds,
            "readout": readout,
            "postselect": postselect,
            "shots": shots,
        }

        def compare(spec=spec, circuit=circuit, data=data):
            return fo.compare_lhv_quantum(
                spec, circuit, shots=data["shots"], seed=data["seed"], postselect=data["postselect"]
            )

        self.ops.append(Op("compare", f"{kind} N={n} M={m}", compare, data))

    def summary(self, op, result):
        if isinstance(result, OpError):
            return repr(result)
        return json.dumps(result.to_json_dict(), sort_keys=True)

    def work(self, results):
        """LHV shots."""
        return sum(r.shots for r in results if not isinstance(r, OpError))

    def check(self, results):
        return [self._check(op.data, r) for op, r in zip(self.ops, results)]

    @staticmethod
    def _check(data, report):
        if isinstance(report, OpError):
            return failed(report.text)
        law = ref.count_law(data["beta"], data["n"])
        p_herald, readout_law = ref.readout_law(law, data["heralds"], data["readout"])
        if data["postselect"]:
            _, readout_law = ref.postselect_law(readout_law, data["readout"], data["postselect"])
        if abs(report.quantum_herald - p_herald) > TIGHT:
            return wrong(f"quantum herald {report.quantum_herald!r} against {p_herald!r}")
        quantum = {tuple(r.outcome): r.quantum_prob for r in report.rows}
        keys = set(quantum) | {k for k, p in readout_law.items() if p > 1e-15}
        gap = max(abs(quantum.get(k, 0.0) - readout_law.get(k, 0.0)) for k in keys)
        if gap > TIGHT:
            return wrong(f"quantum statistics differ from the multinomial law by {gap:.3e}")
        if report.shots != data["shots"]:
            return wrong(f"{report.shots} shots run, {data['shots']} asked")
        sigma = math.sqrt(max(p_herald * (1.0 - p_herald), 0.0) / report.shots)
        if abs(report.lhv_herald - p_herald) > 6.0 * sigma + 1e-12:
            return wrong(f"LHV herald rate {report.lhv_herald!r} against {p_herald!r}")
        if report.accepted < 100:
            return wrong(f"only {report.accepted} accepted shots; the test would be vacuous")
        counts = {}
        for r in report.rows:
            k = round(r.lhv_freq * report.accepted)
            if k:
                counts[tuple(r.outcome)] = k
        if sum(counts.values()) != report.accepted:
            return wrong("LHV frequencies do not add up to the accepted shots")
        p = ref.chi_square_p(counts, readout_law)
        if p < CHI2_P_MIN:
            return wrong(f"LHV tallies fail chi-square against the exact law, p = {p:.3e}")
        return OK


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli:
    """Every subcommand on the committed inputs in ``bench/inputs``.

    Untraced rounds run each invocation as a fresh ``python3 -m fockopt.cli``
    process; traced rounds call ``fockopt.cli.main`` in this process.  Both
    must print the same output and return the same exit code.
    """

    # a fresh process's start-up and imports do not follow the in-process
    # speed probe (see probe.py), so cli times are reported as measured
    PROBED = False

    def __init__(self, fo, seed, root):
        import fockopt.cli  # noqa: F401  (in-process rounds call it)

        self.root = root
        inputs = Path("bench") / "inputs"
        out_dir = Path(".bench_out") / "cli"
        (root / out_dir).mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("FOCKOPT_SEED", None)
        self.files = {}
        for name in ("single", "faulty_single", "generic", "pair", "herald_circuit",
                     "readout_circuit", "unitary", "meta"):
            with open(root / inputs / f"{name}.json", encoding="utf-8") as fh:
                self.files[name] = json.load(fh)
        lhv_seed = int(np.random.default_rng([seed, 4]).integers(2**62))
        witness_file = out_dir / "witness.json"
        self.witness_file = root / witness_file

        def path(name):
            return str(inputs / f"{name}.json")

        self.invocations = [
            ("classify-single", ["classify", path("single"), "--format", "json"]),
            ("classify-generic", ["classify", path("generic"), "--format", "json"]),
            ("classify-faulty", ["classify", path("faulty_single"), "--format", "json"]),
            ("evolve", ["evolve", path("generic"), path("herald_circuit"), "--format", "json"]),
            ("ys-test", ["ys-test", path("pair"), "--format", "json"]),
            ("witness", ["witness", path("generic"), "--output", str(witness_file), "--format", "json"]),
            ("lhv-single", ["lhv-compare", path("single"), path("readout_circuit"), "--shots", "4000",
                            "--seed", str(lhv_seed), "--format", "json"]),
            ("lhv-faulty", ["lhv-compare", path("faulty_single"), path("readout_circuit"), "--shots", "4000",
                            "--seed", str(lhv_seed), "--format", "json"]),
            ("decompose", ["decompose", path("unitary")]),
        ]
        self.mode = "process"
        self.ops = [Op(label, label, lambda argv=argv: self._invoke(argv)) for label, argv in self.invocations]

    def _invoke(self, argv):
        if self.mode == "process":
            done = subprocess.run(
                [sys.executable, "-m", "fockopt.cli", *argv],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
            )
            return done.returncode, done.stdout
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = sys.modules["fockopt.cli"].main(argv)
        return code, out.getvalue()

    def summary(self, op, result):
        return repr(result)

    def work(self, results):
        """Subcommand invocations."""
        return len(results)

    def check(self, results):
        return [self._check(op.kind, r) for op, r in zip(self.ops, results)]

    def _state(self, name):
        data = self.files[name]
        terms = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in data["terms"]}
        return terms, data["statistics"] == "fermion"

    def _alpha(self, key):
        return np.array([complex(re, im) for re, im in self.files["meta"][key]])

    def _check(self, kind, result):
        if isinstance(result, OpError):
            return failed(result.text)
        code, stdout = result
        try:
            payload = json.loads(stdout) if stdout.strip() else None
        except json.JSONDecodeError:
            return wrong(f"{kind} printed no JSON: {stdout[:200]!r}")
        if kind in ("classify-single", "classify-faulty"):
            key = "single_alpha" if kind == "classify-single" else "faulty_alpha"
            if code == 10 and payload and payload["single_mode"] is False:
                return failed(f"single-mode state judged NOT-SINGLE-MODE, violation {payload['violation']}")
            if code != 0 or not payload["single_mode"]:
                return wrong(f"classify exit {code}")
            alpha = np.array([complex(re, im) for re, im in payload["alpha"]])
            gap = ref.phase_distance(alpha, self._alpha(key))
            return OK if gap <= 1e-7 else wrong(f"alpha off by {gap:.3e}")
        if kind == "classify-generic":
            return OK if code == 10 and payload["single_mode"] is False else wrong(f"classify exit {code}")
        if kind == "evolve":
            return self._check_evolve(code, payload)
        if kind == "ys-test":
            terms, fermion = self._state("pair")
            psi, _ = ref.ys_two_qubit(terms, fermion)
            expect = ref.chsh_value(psi)
            want = 0 if expect > 2.0 + 1e-6 else 10
            if code != want or abs(payload["chsh"] - expect) > 1e-9:
                return wrong(f"ys-test exit {code}, CHSH {payload['chsh']!r} against {expect!r}")
            if abs(payload["success_probability"] - 0.5) > TIGHT:
                return wrong(f"post-selection probability {payload['success_probability']!r}")
            return OK
        if kind == "witness":
            return self._check_witness(code, payload)
        if kind in ("lhv-single", "lhv-faulty"):
            if kind == "lhv-faulty" and code == 11:
                return failed("single-mode state refused as a non-local resource")
            return self._check_lhv(code, payload, "single" if kind == "lhv-single" else "faulty_single")
        if kind == "decompose":
            if code != 0:
                return wrong(f"decompose exit {code}")
            _, u, _, _ = ref.parse_circuit(payload)
            target = ref.matrix_from_json(self.files["unitary"]["matrix"])
            gap = float(np.max(np.abs(u - target)))
            return OK if gap <= TIGHT else wrong(f"gate product differs from U by {gap:.3e}")
        return wrong(f"unknown invocation {kind}")

    def _check_evolve(self, code, payload):
        if code != 0:
            return wrong(f"evolve exit {code}")
        terms, fermion = self._state("generic")
        _, u, heralds, _ = ref.parse_circuit(self.files["herald_circuit"])
        p_ref, rest = ref.herald_terms(ref.evolve_terms(terms, u, fermion), heralds, fermion)
        out = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in payload["state"]["terms"]}
        if abs(payload["probability"] - p_ref) > TIGHT:
            return wrong(f"herald probability {payload['probability']!r} against {p_ref!r}")
        gap = ref.state_distance(out, rest)
        return OK if gap <= 1e-9 else wrong(f"output state off by {gap:.3e}")

    def _check_witness(self, code, payload):
        if code != 0:
            return wrong(f"witness exit {code}")
        with open(self.witness_file, encoding="utf-8") as fh:
            if json.load(fh) != payload:
                return wrong("witness file differs from the printed witness")
        chsh = payload["chsh"]
        if not 2.0 < chsh <= ref.CHSH_TSIRELSON + 1e-12:
            return wrong(f"witness CHSH {chsh!r} outside (2, 2 sqrt 2]")
        terms, fermion = self._state("generic")
        m, u, heralds, _ = ref.parse_circuit(payload["circuit"])
        pad = (0,) * (m - len(next(iter(terms))))
        p_prep, prepared = ref.herald_terms(ref.evolve_terms({k + pad: a for k, a in terms.items()}, u, fermion), heralds, fermion)
        if abs(p_prep * 0.5 - payload["success_probability"]) > 1e-9:
            return wrong(f"success probability {payload['success_probability']!r} against {p_prep * 0.5!r}")
        psi, _ = ref.ys_two_qubit(prepared, fermion)
        expect = ref.chsh_value(psi)
        return OK if abs(expect - chsh) <= 1e-9 else wrong(f"witness CHSH {chsh!r}, replayed {expect!r}")

    def _check_lhv(self, code, payload, state):
        if code != 0:
            return wrong(f"lhv-compare exit {code}")
        terms, _ = self._state(state)
        n = sum(next(iter(terms)))
        _, u, heralds, readout = ref.parse_circuit(self.files["readout_circuit"])
        key = "single_alpha" if state == "single" else "faulty_alpha"
        _, law = ref.readout_law(ref.count_law(self._alpha(key) @ u, n), heralds, readout)
        rows = {tuple(r["outcome"]): r for r in payload["rows"]}
        gap = max(abs(rows.get(k, {}).get("quantum_prob", 0.0) - law.get(k, 0.0)) for k in set(rows) | set(law))
        if gap > TIGHT:
            return wrong(f"quantum statistics differ from the multinomial law by {gap:.3e}")
        accepted = payload["accepted"]
        counts = {k: round(r["lhv_freq"] * accepted) for k, r in rows.items() if r["lhv_freq"] > 0}
        if accepted < 100 or sum(counts.values()) != accepted:
            return wrong(f"accepted {accepted}, tallied {sum(counts.values())}")
        p = ref.chi_square_p(counts, law)
        return OK if p >= CHI2_P_MIN else wrong(f"LHV tallies fail chi-square, p = {p:.3e}")


WORKLOADS = {"evolve": Evolve, "witness-search": WitnessSearch, "lhv-mc": LhvMc, "cli": Cli}

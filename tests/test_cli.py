"""The command line, called in-process: every subcommand and exit code.

Exit codes: 0 success, 10 negative result, 11 failed precondition, 2 malformed
input.  Files are written under ``tmp_path``; the committed inputs used are
the benchmark's single-mode state with a tiny amplitude entry and, mutated,
every benchmark input in the exit-code fuzz and the malformed-file tests.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fockopt as fo
from fockopt import cli
from fockopt.cli import main
from helpers import (
    circuit_unitary,
    fidelity,
    phase_distance,
    random_alpha,
    random_state,
    random_unitary,
    run_limited,
    superpose,
)

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "bench" / "inputs"
FAULTY_SINGLE = INPUTS / "faulty_single.json"
SHOTS = "2000"
# the child of run_limited: timed(run, arg) is run(arg)'s result and seconds,
# with what it prints dropped
TIMED = (
    "import contextlib, io, time\n"
    "from fockopt.cli import main\n"
    "def timed(run, arg):\n"
    "    start = time.perf_counter()\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = run(arg)\n"
    "    return code, time.perf_counter() - start\n"
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def state_file(tmp_path, state, name="state.json"):
    return write(tmp_path, name, fo.state_to_dict(state))


def circuit_file(tmp_path, circuit, name="circuit.json"):
    return write(tmp_path, name, fo.circuit_to_dict(circuit))


def readout(circuit):
    return circuit.extended([fo.Detector(m) for m in range(circuit.n_modes)])


def printed_json(capsys):
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def single(rng):
    return fo.single_mode_state(random_alpha(rng, 3), 3)


@pytest.fixture
def generic(rng):
    return random_state(rng, 3, 3)


@pytest.fixture
def mesh(rng):
    return fo.reck_decompose(random_unitary(rng, 3))


def bad_state_payloads():
    good = {"statistics": "boson", "modes": 2, "terms": [{"occ": [1, 1], "re": 1.0, "im": 0.0}]}
    cases = {
        "fractional occupation": {"occ": [1.7, 0.3]},
        "bool occupation": {"occ": [True, 1]},
        "nan re": {"re": math.nan},
        "infinite im": {"im": math.inf},
        "string re": {"re": "1"},
    }
    out = []
    for label, change in cases.items():
        payload = json.loads(json.dumps(good))
        payload["terms"][0].update(change)
        out.append(pytest.param(payload, id=label))
    for label, modes in (("bool modes", True), ("fractional modes", 2.5)):
        out.append(pytest.param(dict(good, modes=modes), id=label))
    return out


def bad_matrices():
    """2x2 matrices in the file format whose entries are not finite numbers;
    read as numbers, the first is the identity."""
    return [
        ("bool matrix", [[[True, False], [False, False]], [[False, False], [True, False]]]),
        ("string matrix entry", [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]),
        ("infinite matrix entry", [[[math.inf, 0], [0, 0]], [[0, 0], [1, 0]]]),
    ]


def bad_circuit_payloads():
    """Two-mode circuits whose counts, modes or phase are not what they seem."""
    exchange = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    cases = {
        "fractional detector mode and herald": [{"type": "detect", "mode": 1.9, "herald": 1.7}],
        "bool herald": [{"type": "detect", "mode": 1, "herald": True}],
        "fractional herald": [{"type": "detect", "mode": 1, "herald": 1.7}],
        "infinite herald": [{"type": "detect", "mode": 1, "herald": math.inf}],
        "fractional splitter mode": [{"type": "bs", "modes": [1, 2.5], "matrix": exchange}],
        "bool swap mode": [{"type": "swap", "modes": [True, 2]}],
        "fractional phase mode": [{"type": "ps", "mode": 1.5, "phi": 0.3}],
        "bool phase": [{"type": "ps", "mode": 1, "phi": True}],
        "string phase": [{"type": "ps", "mode": 1, "phi": "0.3"}],
    }
    for label, matrix in bad_matrices():
        cases[label] = [{"type": "bs", "modes": [1, 2], "matrix": matrix}]
    shear = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
    cases["non-unitary splitter"] = [{"type": "bs", "modes": [1, 2], "matrix": shear}]
    out = [
        pytest.param({"modes": 2, "elements": elements}, id=label)
        for label, elements in cases.items()
    ]
    for label, modes in (("bool modes", True), ("fractional modes", 2.5), ("nan modes", math.nan)):
        out.append(pytest.param({"modes": modes, "elements": []}, id=label))
    outputs = {"modes": 2, "elements": [], "outputs": [1, 2.5]}
    out.append(pytest.param(outputs, id="fractional output"))
    return out


class TestClassify:
    def test_single_mode_exits_0(self, tmp_path, capsys, single):
        code = main(["classify", state_file(tmp_path, single), "--format", "json"])
        assert code == 0
        payload = printed_json(capsys)
        alpha = np.array([complex(re, im) for re, im in payload["alpha"]])
        assert phase_distance(alpha, fo.is_single_mode_type(single).alpha) < 1e-9

    def test_generic_exits_10(self, tmp_path, generic):
        assert main(["classify", state_file(tmp_path, generic)]) == 10

    def test_tiny_support_entry_exits_0(self, capsys):
        # alpha ~ (1, 0.005, 0.5), N=4: the middle mode's pure coefficient is
        # below the threshold, its one-particle coefficient is not
        assert main(["classify", str(FAULTY_SINGLE), "--format", "json"]) == 0
        assert printed_json(capsys)["single_mode"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1", "2"])
    def test_tolerance_must_lie_in_unit_interval(self, tmp_path, single, tol):
        assert main(["classify", state_file(tmp_path, single), "--tol", tol]) == 2

    @pytest.mark.parametrize("payload", bad_state_payloads())
    def test_malformed_state_exits_2(self, tmp_path, payload):
        assert main(["classify", write(tmp_path, "bad.json", payload)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["classify", str(tmp_path / "absent.json")]) == 2

    def test_huge_amplitudes_renormalize_and_exit_0(self, tmp_path):
        payload = {
            "statistics": "boson",
            "modes": 2,
            "terms": [{"occ": [1, 0], "re": 1e308}, {"occ": [0, 1], "re": 1e308}],
        }
        with pytest.warns(UserWarning, match="renormalizing"):
            assert main(["classify", write(tmp_path, "huge.json", payload)]) == 0

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"statistics": "boson",')
        assert main(["classify", str(path)]) == 2

    def test_vacuum_has_no_alpha(self, tmp_path, capsys):
        code = main(["classify", state_file(tmp_path, fo.make_number_state((0, 0, 0)))])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["SINGLE-MODE-TYPE", "alpha: undefined (vacuum)"]


class TestEvolve:
    def test_runs_circuit_exits_0(self, tmp_path, capsys, generic, mesh):
        circuit = mesh.extended([fo.Detector(2, 1)])
        code = main(
            ["evolve", state_file(tmp_path, generic), circuit_file(tmp_path, circuit), "--format", "json"]
        )
        assert code == 0
        payload = printed_json(capsys)
        expected, prob = fo.run_circuit(generic, circuit)
        assert abs(payload["probability"] - prob) < 1e-12
        out = fo.state_from_dict(payload["state"])
        assert abs(fidelity(out, expected) - 1.0) < 1e-12

    def test_table_prints_the_output_terms(self, tmp_path, capsys, generic, mesh):
        circuit = mesh.extended([fo.Detector(2, 1)])
        code = main(["evolve", state_file(tmp_path, generic), circuit_file(tmp_path, circuit)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        expected, prob = fo.run_circuit(generic, circuit)
        assert lines[0] == f"herald probability: {prob:.12g}"
        assert lines[1:] == [
            f"  {occ}: {amp.real:.12g}{amp.imag:+.12g}j" for occ, amp in sorted(expected.items())
        ]

    def test_state_on_fewer_modes_is_padded_with_vacuum(self, tmp_path, capsys, generic, mesh):
        # a 3-mode state on a 4-mode circuit enters modes 1..3, vacuum on 4
        circuit = fo.Circuit(4, mesh.elements + (fo.BeamSplitter((2, 3)), fo.Detector(3, 0)))
        code = main(
            ["evolve", state_file(tmp_path, generic), circuit_file(tmp_path, circuit), "--format", "json"]
        )
        assert code == 0
        payload = printed_json(capsys)
        expected, prob = fo.run_circuit(fo.embed(generic, 4, range(3)), circuit)
        assert abs(payload["probability"] - prob) < 1e-12
        assert abs(fidelity(fo.state_from_dict(payload["state"]), expected) - 1.0) < 1e-12

    def test_readout_circuit_json_exits_0(self, tmp_path, capsys, generic, mesh):
        circuit = mesh.extended([fo.Detector(0, 1), fo.Detector(2), fo.Detector(1)])
        code = main(
            ["evolve", state_file(tmp_path, generic), circuit_file(tmp_path, circuit), "--format", "json"]
        )
        assert code == 0
        payload = printed_json(capsys)
        stats = fo.detector_statistics(generic, circuit)
        assert abs(payload["probability"] - stats.herald_probability) < 1e-12
        assert payload["readout_modes"] == [3, 2]
        dist = {tuple(row["outcome"]): row["probability"] for row in payload["distribution"]}
        assert dist.keys() == stats.distribution.keys()
        assert all(abs(dist[k] - p) < 1e-12 for k, p in stats.distribution.items())

    def test_readout_circuit_table_exits_0(self, tmp_path, capsys, generic, mesh):
        circuit = mesh.extended([fo.Detector(0, 1), fo.Detector(1), fo.Detector(2)])
        code = main(["evolve", state_file(tmp_path, generic), circuit_file(tmp_path, circuit)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        stats = fo.detector_statistics(generic, circuit)
        assert lines[0] == f"herald probability: {stats.herald_probability:.12g}"
        assert lines[1] == "readout modes: 2 3"
        assert lines[2:] == [f"  {k}: {p:.12g}" for k, p in sorted(stats.distribution.items())]

    def test_committed_readout_circuit_exits_0(self, capsys):
        code = main(["evolve", str(INPUTS / "generic.json"), str(INPUTS / "readout_circuit.json")])
        assert code == 0
        assert capsys.readouterr().out.startswith("herald probability: ")

    def test_readout_herald_never_fires_exits_10(self, tmp_path, generic):
        circuit = fo.Circuit(3, [fo.Detector(0, 4), fo.Detector(1)])
        assert main(["evolve", state_file(tmp_path, generic), circuit_file(tmp_path, circuit)]) == 10

    def test_readout_circuit_with_output_exits_2(self, tmp_path, generic):
        # a readout leaves no output state to write
        circuit = fo.Circuit(3, [fo.Detector(1)])
        argv = ["evolve", state_file(tmp_path, generic), circuit_file(tmp_path, circuit)]
        assert main(argv + ["--output", str(tmp_path / "out.json")]) == 2
        assert not (tmp_path / "out.json").exists()

    def test_herald_never_fires_exits_10(self, tmp_path, generic):
        circuit = fo.Circuit(3, [fo.Detector(0, 4)])
        code = main(["evolve", state_file(tmp_path, generic), circuit_file(tmp_path, circuit)])
        assert code == 10

    def test_herald_beyond_machine_integers_exits_10(self, tmp_path, generic):
        circuit = {"modes": 3, "elements": [{"type": "detect", "mode": 1, "herald": 1e19}]}
        code = main(["evolve", state_file(tmp_path, generic), write(tmp_path, "c.json", circuit)])
        assert code == 10

    def test_many_bosons_exit_0(self, tmp_path, capsys):
        state = fo.make_number_state((21, 0))
        splitter = fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())])
        code = main(
            ["evolve", state_file(tmp_path, state), circuit_file(tmp_path, splitter), "--format", "json"]
        )
        assert code == 0
        out = fo.state_from_dict(printed_json(capsys)["state"])
        assert abs(out.amplitude((10, 11)) - math.sqrt(math.comb(21, 10)) / 2**10.5) < 1e-12

    def test_factorials_beyond_float_range_exit_2(self, tmp_path):
        state = fo.make_number_state((171, 0))
        splitter = fo.Circuit(2, [fo.BeamSplitter((0, 1), fo.hadamard())])
        assert main(["evolve", state_file(tmp_path, state), circuit_file(tmp_path, splitter)]) == 2

    def test_nan_beam_splitter_exits_2(self, tmp_path, generic):
        circuit = {
            "modes": 3,
            "elements": [
                {"type": "bs", "modes": [1, 2], "matrix": [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]}
            ],
        }
        code = main(["evolve", state_file(tmp_path, generic), write(tmp_path, "c.json", circuit)])
        assert code == 2

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phase_exits_2(self, tmp_path, generic, phi):
        circuit = {"modes": 3, "elements": [{"type": "ps", "mode": 1, "phi": phi}]}
        code = main(["evolve", state_file(tmp_path, generic), write(tmp_path, "c.json", circuit)])
        assert code == 2

    @pytest.mark.parametrize("circuit", bad_circuit_payloads())
    def test_malformed_circuit_exits_2(self, tmp_path, circuit):
        state = fo.FockState(fo.BOSON, 2, {(1, 0): 0.6, (0, 1): 0.8})
        code = main(["evolve", state_file(tmp_path, state), write(tmp_path, "c.json", circuit)])
        assert code == 2


class TestYsTest:
    def test_pair_state_exits_0(self, tmp_path, capsys):
        code = main(["ys-test", state_file(tmp_path, fo.make_number_state((1, 1))), "--format", "json"])
        assert code == 0
        payload = printed_json(capsys)
        assert abs(payload["chsh"] - 2.0 * math.sqrt(2.0)) < 1e-9
        assert abs(payload["success_probability"] - 0.5) < 1e-12

    def test_single_mode_pair_exits_10(self, tmp_path, rng):
        state = fo.single_mode_state(random_alpha(rng, 2), 2)
        assert main(["ys-test", state_file(tmp_path, state)]) == 10

    def test_three_modes_exits_2(self, tmp_path, generic):
        assert main(["ys-test", state_file(tmp_path, generic)]) == 2


class TestWitness:
    def test_generic_state_exits_0(self, tmp_path, capsys, generic):
        out = tmp_path / "witness.json"
        code = main(["witness", state_file(tmp_path, generic), "--output", str(out), "--format", "json"])
        assert code == 0
        payload = printed_json(capsys)
        assert json.loads(out.read_text()) == payload
        assert payload["chsh"] > 2.0
        back = fo.witness_from_dict(payload)
        assert abs(fo.replay_witness(generic, back) - payload["chsh"]) < 1e-6

    def test_single_mode_state_exits_10(self, tmp_path, single):
        assert main(["witness", state_file(tmp_path, single)]) == 10

    def test_tiny_support_entry_exits_10(self):
        assert main(["witness", str(FAULTY_SINGLE)]) == 10

    def test_single_mode_verdict_printed(self, tmp_path, capsys, single):
        assert main(["witness", state_file(tmp_path, single)]) == 10
        assert capsys.readouterr().out == "NO-VIOLATION-FOUND (state is of single-mode type)\n"

    def test_missed_state_is_not_called_single_mode(self, tmp_path, capsys):
        # not of single-mode type, yet no candidate of the fixed family violates
        state = superpose(
            [
                (1, fo.single_mode_state([0.4, -0.7, -0.7], 2)),
                (1, fo.single_mode_state([-0.2, 0.3, -1.4], 2)),
            ]
        )
        path = state_file(tmp_path, state)
        assert main(["witness", path]) == 10
        out = capsys.readouterr().out
        assert "single-mode type" not in out
        assert out.startswith("NO-VIOLATION-FOUND (state is NOT-SINGLE-MODE, residual 0.3177")
        assert "no candidate of the fixed family violates" in out
        assert main(["classify", path]) == 10

    def test_no_witness_json(self, tmp_path, capsys, single):
        # both negative kinds print JSON under --format json, still exit 10
        missed = superpose(
            [
                (1, fo.single_mode_state([0.4, -0.7, -0.7], 2)),
                (1, fo.single_mode_state([-0.2, 0.3, -1.4], 2)),
            ]
        )
        for state, single_mode in ((single, True), (missed, False)):
            path = state_file(tmp_path, state)
            assert main(["witness", path, "--format", "json"]) == 10
            payload = printed_json(capsys)
            assert list(payload) == ["witness", "single_mode", "residual"]
            assert payload["witness"] is None and payload["single_mode"] is single_mode
            assert payload["residual"] == fo.is_single_mode_type(fo.load_state(path)).residual

    def test_infinite_residual_is_null_in_json(self, tmp_path, capsys, monkeypatch):
        # a fermion pair has residual inf; with the search made to miss it,
        # the residual prints as null, as `classify --format json` prints it
        monkeypatch.setattr(cli, "find_witness", lambda state: None)
        path = state_file(tmp_path, fo.make_number_state((1, 1), fo.FERMION))
        assert main(["witness", path, "--format", "json"]) == 10
        assert printed_json(capsys) == {"witness": None, "single_mode": False, "residual": None}

    def test_many_bosons_in_one_mode_exit_10(self, tmp_path):
        assert main(["witness", state_file(tmp_path, fo.make_number_state((21, 0)))]) == 10

    def test_malformed_state_exits_2(self, tmp_path):
        payload = {"statistics": "boson", "modes": 2, "terms": [{"occ": [1.7, 1], "re": 1.0}]}
        assert main(["witness", write(tmp_path, "bad.json", payload)]) == 2


class TestLhvCompare:
    def lhv(self, state_path, circuit_path, *extra):
        return main(["lhv-compare", state_path, circuit_path, "--shots", SHOTS, "--seed", "3", *extra])

    def test_single_mode_state_exits_0(self, tmp_path, capsys, single, mesh):
        code = self.lhv(state_file(tmp_path, single), circuit_file(tmp_path, readout(mesh)), "--format", "json")
        assert code == 0
        payload = printed_json(capsys)
        assert payload["passed"] and payload["accepted"] == int(SHOTS)
        assert payload["tv_distance"] <= payload["tv_bound"] <= 1.0

    def test_tiny_support_entry_exits_0(self, tmp_path, mesh):
        assert self.lhv(str(FAULTY_SINGLE), circuit_file(tmp_path, readout(mesh))) == 0

    def test_state_on_fewer_modes_is_padded_with_vacuum(self, tmp_path, capsys, single, mesh):
        # a 3-mode state on a 5-mode circuit enters modes 1..3, vacuum on 4
        # and 5, and prints what the explicitly widened state file prints
        extra = (fo.BeamSplitter((2, 3)), fo.BeamSplitter((1, 4)), fo.Detector(4, 0))
        circuit = fo.Circuit(5, mesh.elements + extra + tuple(map(fo.Detector, range(4))))
        path = circuit_file(tmp_path, circuit)
        widened = state_file(tmp_path, fo.embed(single, 5, range(3)), "widened.json")
        assert self.lhv(state_file(tmp_path, single), path, "--format", "json") == 0
        narrow = capsys.readouterr().out
        assert self.lhv(widened, path, "--format", "json") == 0
        assert capsys.readouterr().out == narrow
        assert 0 < json.loads(narrow)["accepted"] < int(SHOTS)

    def test_vacuum_exits_0(self, tmp_path, capsys, mesh):
        # the vacuum has no alpha; any unit vector describes it
        vacuum = state_file(tmp_path, fo.make_number_state((0, 0, 0)))
        code = self.lhv(vacuum, circuit_file(tmp_path, readout(mesh)), "--format", "json")
        assert code == 0
        payload = printed_json(capsys)
        assert payload["passed"] and payload["accepted"] == int(SHOTS)
        assert [row["outcome"] for row in payload["rows"]] == [[0, 0, 0]]

    def test_csv_format_exits_0(self, tmp_path, capsys, single, mesh):
        argv = [state_file(tmp_path, single), circuit_file(tmp_path, readout(mesh))]
        assert self.lhv(*argv, "--format", "json") == 0
        report = printed_json(capsys)
        assert self.lhv(*argv, "--format", "csv") == 0
        header, *lines = capsys.readouterr().out.strip().splitlines()
        fields = ("quantum_prob", "lhv_freq", "stderr", "z_score")
        assert header == ",".join(("outcome",) + fields)
        assert len(lines) == len(report["rows"])
        for line, row in zip(lines, report["rows"]):
            label, *numbers = line.split(",")
            assert label == " ".join(map(str, row["outcome"]))
            assert [float(x) for x in numbers] == [row[k] for k in fields]

    def test_herald_that_never_fires_exits_10(self, tmp_path, capsys, single, mesh):
        # no shot is accepted on either side: nothing was tested, so no PASS
        circuit = mesh.extended([fo.Detector(0, 4), fo.Detector(1), fo.Detector(2)])
        code = self.lhv(state_file(tmp_path, single), circuit_file(tmp_path, circuit), "--format", "json")
        assert code == 10
        payload = printed_json(capsys)
        assert payload["accepted"] == 0 and payload["passed"] is False

    def test_runs_without_loading_scipy(self, tmp_path, single, mesh):
        # only a fresh process shows this: in-process tests load scipy first
        argv = ["lhv-compare", state_file(tmp_path, single), circuit_file(tmp_path, readout(mesh))]
        argv += ["--shots", SHOTS, "--seed", "3"]
        script = (
            "import sys\n"
            "from fockopt.cli import main\n"
            f"code = main({argv!r})\n"
            "print('scipy loaded:', 'scipy' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert run.returncode == 0, run.stderr
        assert "PASS" in run.stdout
        assert run.stdout.splitlines()[-1] == "scipy loaded: False"

    def test_seed_environment_variable_is_ignored(self, tmp_path, capsys, monkeypatch, single, mesh):
        # the default seed is DEFAULT_SEED; no environment variable overrides it
        argv = ["lhv-compare", state_file(tmp_path, single), circuit_file(tmp_path, readout(mesh))]
        argv += ["--shots", SHOTS, "--format", "json"]
        assert main(argv) == 0
        plain = printed_json(capsys)
        monkeypatch.setenv("FOCKOPT_SEED", "5")
        assert main(argv) == 0
        assert printed_json(capsys) == plain
        assert plain["seed"] == fo.lhv.DEFAULT_SEED

    def test_not_single_mode_exits_11(self, tmp_path, generic, mesh):
        assert self.lhv(state_file(tmp_path, generic), circuit_file(tmp_path, readout(mesh))) == 11

    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_no_shots_exits_2(self, tmp_path, single, mesh, shots):
        argv = ["lhv-compare", state_file(tmp_path, single), circuit_file(tmp_path, readout(mesh))]
        assert main(argv + ["--shots", shots]) == 2

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_exits_2(self, tmp_path, generic, mesh, tol):
        # a rejected tolerance must not read as a non-local resource (11)
        code = self.lhv(state_file(tmp_path, generic), circuit_file(tmp_path, readout(mesh)), "--tol", tol)
        assert code == 2

    def test_nan_beam_splitter_exits_2(self, tmp_path, single):
        circuit = {
            "modes": 3,
            "elements": [
                {"type": "bs", "modes": [1, 2], "matrix": [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]},
                {"type": "detect", "mode": 1},
            ],
        }
        assert self.lhv(state_file(tmp_path, single), write(tmp_path, "c.json", circuit)) == 2


class TestDecompose:
    def test_unitary_exits_0(self, tmp_path, capsys, rng):
        u = random_unitary(rng, 3)
        payload = {"matrix": [[[z.real, z.imag] for z in row] for row in u]}
        assert main(["decompose", write(tmp_path, "u.json", payload)]) == 0
        circuit = fo.circuit_from_dict(printed_json(capsys))
        assert np.max(np.abs(circuit_unitary(circuit) - u)) < 1e-9

    @pytest.mark.parametrize(
        "matrix",
        [
            pytest.param([[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]], id="nan"),
            pytest.param([[[1, 0], [1, 0]], [[1, 0], [1, 0]]], id="not unitary"),
            pytest.param([[1, 0], [0, 1]], id="real entries"),
            *(pytest.param(matrix, id=label) for label, matrix in bad_matrices()),
        ],
    )
    def test_bad_matrix_exits_2(self, tmp_path, matrix):
        assert main(["decompose", write(tmp_path, "u.json", {"matrix": matrix})]) == 2


FUZZ_INPUTS = ("single", "generic", "pair", "herald_circuit", "readout_circuit", "unitary")
FUZZ_VALUES = (math.nan, 1.9, True, "x", [1], 1e308, 10**400)


def json_paths(node, path=()):
    """Key and index paths to every value below the document root."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


@st.composite
def mutated_inputs(draw):
    """The benchmark inputs with one value dropped or replaced."""
    docs = {name: json.loads((INPUTS / f"{name}.json").read_text()) for name in FUZZ_INPUTS}
    name = draw(st.sampled_from(FUZZ_INPUTS))
    *parents, key = draw(st.sampled_from(list(json_paths(docs[name]))))
    parent = docs[name]
    for step in parents:
        parent = parent[step]
    value = draw(st.sampled_from(("drop",) + FUZZ_VALUES))
    if value == "drop":
        del parent[key]
    else:
        parent[key] = value
    return docs


class TestExitCodeFuzz:
    @settings(
        derandomize=True,
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(docs=mutated_inputs())
    def test_mutated_inputs_never_exit_1(self, tmp_path, docs):
        path = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
        out = str(tmp_path / "out.json")
        invocations = [
            ["classify", path["single"]],
            ["classify", path["generic"], "--format", "json"],
            ["evolve", path["generic"], path["herald_circuit"], "--output", out],
            ["evolve", path["single"], path["readout_circuit"], "--format", "json"],
            ["ys-test", path["pair"]],
            ["witness", path["generic"], "--output", out],
            ["lhv-compare", path["single"], path["readout_circuit"], "--shots", "200",
             "--seed", "1"],
            ["decompose", path["unitary"], "--output", out],
        ]
        with warnings.catch_warnings():
            # a state file off unit norm warns on renormalizing
            warnings.simplefilter("ignore")
            for argv in invocations:
                assert main(argv) in (0, 2, 10, 11), argv


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    parent = doc
    for step in parents:
        parent = parent[step]
    parent[key] = value
    return doc


def leaves(doc):
    """Paths to the values of ``doc`` that are neither objects nor arrays."""
    for path in json_paths(doc):
        value = doc
        for step in path:
            value = value[step]
        if not isinstance(value, (dict, list)):
            yield path


@pytest.fixture(scope="module")
def witness_document():
    state = fo.load_state(INPUTS / "generic.json")
    return json.loads(json.dumps(fo.witness_to_dict(fo.find_witness(state))))


class TestMalformedFiles:
    """The four readers raise InvalidFile for every malformed document, and
    every subcommand exits 2 on every input file it cannot parse."""

    @pytest.mark.parametrize("name", FUZZ_INPUTS + ("witness",))
    def test_numbers_past_the_float_range(self, monkeypatch, witness_document, name):
        # each value of FUZZ_VALUES at each leaf, one at a time: the reader
        # returns or raises InvalidFile.  Python reads any JSON integer, and
        # 10**400, past the float range, is read nowhere: it raises at every
        # leaf.  The unitary reader decodes the document it is handed.
        monkeypatch.setattr(cli, "_read_json", lambda doc: doc)
        readers = {
            "herald_circuit": fo.circuit_from_dict,
            "readout_circuit": fo.circuit_from_dict,
            "unitary": cli._load_unitary,
            "witness": fo.witness_from_dict,
        }
        reader = readers.get(name, fo.state_from_dict)
        if name == "witness":
            doc = json.loads(json.dumps(witness_document))
        else:
            doc = json.loads((INPUTS / f"{name}.json").read_text())
        paths = list(leaves(doc))
        assert len(paths) > 10
        with warnings.catch_warnings():
            # a state file off unit norm warns on renormalizing
            warnings.simplefilter("ignore")
            for *steps, key in paths:
                parent = doc
                for step in steps:
                    parent = parent[step]
                original = parent[key]
                for value in FUZZ_VALUES:
                    parent[key] = value
                    try:
                        reader(doc)
                    except fo.InvalidFile:
                        continue
                    except Exception as exc:
                        pytest.fail(f"{name} {steps + [key]} = {value!r}: {exc!r}")
                    assert value != 10**400, f"{name} {steps + [key]} read 10**400"
                parent[key] = original

    def test_witness_on_other_rails_is_invalid(self, witness_document):
        # replay applies the settings to the fixed rails, so a witness that
        # names others cannot be read as written
        for parties in (
            {"alice": [1, 2], "bob": [3, 4]},
            {"alice": [4, 2], "bob": [1, 3]},
            {"alice": [1, 3]},
            {"alice": [1, 3], "bob": [4, 2], "carol": [5, 6]},
            {"alice": [1.0, 3.0], "bob": [4, 2.5]},
            [[1, 3], [4, 2]],
        ):
            with pytest.raises(fo.InvalidFile):
                fo.witness_from_dict(replaced(witness_document, ("parties",), parties))
        # the order of the keys is free, and integral floats read as integers
        same = {"bob": [4, 2], "alice": [1.0, 3]}
        fo.witness_from_dict(replaced(witness_document, ("parties",), same))

    def test_circuit_wider_than_memory_exits_2(self, tmp_path, witness_document):
        # a circuit lists its modes, so a mode count that fits a float but not
        # memory is refused before anything is built.  The child runs under
        # run_limited's address-space limit, so a build that grows anyway
        # fails there and not in this process.
        script = TIMED + (
            "import fockopt as fo\n"
            "argvs, witnesses = json.loads(sys.argv[1])\n"
            "def witness(doc):\n"
            "    try:\n"
            "        fo.witness_from_dict(doc)\n"
            "    except fo.InvalidFile:\n"
            "        return 2\n"
            "    return 0\n"
            "runs = [(main, a) for a in argvs] + [(witness, w) for w in witnesses]\n"
            "print(json.dumps([timed(run, arg) for run, arg in runs]))\n"
        )
        single, generic = (str(INPUTS / f"{name}.json") for name in ("single", "generic"))
        argvs, witnesses = [], []
        for i, modes in enumerate((1e12, 1e308, 10**400)):
            herald = json.loads((INPUTS / "herald_circuit.json").read_text())
            readout = json.loads((INPUTS / "readout_circuit.json").read_text())
            herald["modes"] = readout["modes"] = modes
            herald = write(tmp_path, f"herald-{i}.json", herald)
            readout = write(tmp_path, f"readout-{i}.json", readout)
            argvs += [
                ["evolve", generic, herald],
                ["evolve", single, readout],
                ["lhv-compare", single, readout, "--shots", "200"],
            ]
            witnesses.append(replaced(witness_document, ("circuit", "modes"), modes))
        results = run_limited(script, [argvs, witnesses])
        cases = argvs + [["witness", doc["circuit"]["modes"]] for doc in witnesses]
        assert len(results) == len(cases)
        for case, (code, seconds) in zip(cases, results):
            assert code == 2 and seconds < 1.0, (case, code, seconds)

    def test_sector_too_large_to_list_exits_2(self, tmp_path):
        # a sector is sized before it is listed: 2e6 bosons on three modes
        # span 2e12 basis states, and three single-mode terms of 3000 bosons
        # have multinomials past the float range.  A one-mode term of 2e6
        # still classifies, on the one-state sector of its support, with no
        # factorial of N; one of 2^62 is refused, since the rank table of
        # that sector holds N + 1 entries.
        one = state_file(tmp_path, fo.make_number_state((2 * 10**6, 0, 0)), "one.json")
        huge = state_file(tmp_path, fo.make_number_state((2**62, 0, 0)), "huge.json")
        terms = [{"occ": [3000 * (i == j) for j in range(3)], "re": 3**-0.5} for i in range(3)]
        three = write(tmp_path, "three.json", {"statistics": "boson", "modes": 3, "terms": terms})
        stage = fo.Circuit(3, [fo.BeamSplitter((0, 1)), fo.BeamSplitter((1, 2))])
        splitter = circuit_file(tmp_path, stage)
        cases = {
            ("classify", one): 0,
            ("classify", huge): 2,
            ("evolve", one, splitter): 2,
            ("lhv-compare", one, str(INPUTS / "readout_circuit.json"), "--shots", "200"): 2,
            ("classify", three): 2,
            ("witness", three): 2,
        }
        script = TIMED + "print(json.dumps([timed(main, a) for a in json.loads(sys.argv[1])]))\n"
        results = run_limited(script, list(cases))
        assert len(results) == len(cases)
        for (case, expected), (code, seconds) in zip(cases.items(), results):
            assert code == expected and seconds < 1.0, (case, code, seconds)

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000-deep"),
            pytest.param('{"statistics": "bos\u00e9on"}'.encode("latin-1"), id="not-utf-8"),
            # Python refuses to read an integer of more than 4300 digits
            pytest.param(b'{"modes": 1' + b"0" * 5000 + b"}", id="5001-digit-integer"),
        ],
    )
    def test_unreadable_file_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        state = str(INPUTS / "single.json")
        circuit = str(INPUTS / "readout_circuit.json")
        for argv in (
            ["classify", bad],
            ["evolve", bad, circuit],
            ["evolve", state, bad],
            ["ys-test", bad],
            ["witness", bad],
            ["lhv-compare", bad, circuit],
            ["lhv-compare", state, bad],
            ["decompose", bad],
        ):
            assert main([str(arg) for arg in argv]) == 2, argv
            assert "input error" in capsys.readouterr().err, argv

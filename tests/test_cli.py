"""End-to-end command-line runs: artifacts, exit codes, reproducibility."""

from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nit_sim
from nit_sim import cli, config
from nit_sim.cli import main
from nit_sim.config import parse_config

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"

SYSTEM_BLOCK = """\
[system]
lambda = 0.5
g = 0.5
epsilon = 0.03
kappa_a = 1
kappa_b = 1e-3
gamma = 1e-3
gamma_phi = 1e-3
"""

SWEEP_CFG = f"""\
[run]
command = sweep
formats = csv,json,svg

{SYSTEM_BLOCK}
[sweep]
delta_min = -1.5
delta_max = 1.5
n_points = 201
"""

QUANTUM_SWEEP_CFG = SWEEP_CFG.replace(
    "n_points = 201", "n_points = 3\nbackend = quantum\nn_a = 3\nn_b = 3"
)

STEADY_CFG = f"""\
[run]
command = steady

{SYSTEM_BLOCK}
"""

EVOLVE_CFG = f"""\
[run]
command = evolve

{SYSTEM_BLOCK}
[evolve]
t_end = 40
"""

DEPHASING_CFG = f"""\
[run]
command = dephasing-scan

{SYSTEM_BLOCK}
[dephasing]
gamma_phi_values = 1e-3, 1e-1, 1.0
"""

VALIDATE_CFG = f"""\
[run]
command = validate

{SYSTEM_BLOCK.replace("epsilon = 0.03", "epsilon = 0.01")}
[validate]
n_points = 5
n_a = 4
n_b = 4
"""

DERIVE_CFG = """\
[run]
command = derive-coupling

[system]
units = SI
lambda = 1892117.882424536
g = 3141592.653589793
epsilon = 1.2e4
kappa_a = 6283185.307179586
kappa_b = 6283.185307179586
gamma = 6283.185307179586
gamma_phi = 6283.185307179586

[physical]
d = 1.5e-6
V0 = 20.0
C0 = 1.9e-16
M = 1e-15
m = 1.8598037571903999e-25
omega = 62831853.071795866
nu = 62831853.071795866
k_l = 29292239.194310427
Omega = 31415926.535897932
"""

_DASHED_POINTS = re.compile(r'stroke-dasharray="6,4" points="([^"]+)"')


def run_cli(tmp_path: Path, text: str, command: str, *extra: str) -> tuple[int, Path]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text, encoding="utf-8")
    outdir = tmp_path / "out"
    code = main([command, "--config", str(cfg_file), "--out", str(outdir), *extra])
    return code, outdir


def csv_rows(path: Path) -> list[str]:
    return path.read_text().strip().splitlines()


class TestSweepCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, SWEEP_CFG, "sweep")
        assert code == 0
        for name in ("spectrum.csv", "windows.json", "spectrum.svg", "run.json"):
            assert (out / name).exists(), name
        assert len(csv_rows(out / "spectrum.csv")) == 202  # header + 201 points
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "3 peak(s), 2 dip(s)" in stdout

    def test_run_json_reproduces_the_run(self, tmp_path):
        code, out = run_cli(tmp_path, SWEEP_CFG, "sweep")
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["tool"] == "nit-sim"
        assert meta["version"] == nit_sim.__version__
        assert meta["command"] == "sweep"
        assert meta["system"]["kappa_q"] == pytest.approx(3e-3)
        assert set(meta["outputs"]) >= {"spectrum.csv", "windows.json", "spectrum.svg"}
        again = parse_config(meta["config_text"])
        original = parse_config(SWEEP_CFG)
        assert again.system == original.system
        assert again.sweep == original.sweep
        assert meta["windows"]["dips"][0]["depth"] > 0.9

    def test_format_override_trims_outputs(self, tmp_path):
        code, out = run_cli(tmp_path, SWEEP_CFG, "sweep", "--format", "csv")
        assert code == 0
        assert (out / "spectrum.csv").exists()
        assert not (out / "windows.json").exists()
        assert not (out / "spectrum.svg").exists()
        assert (out / "run.json").exists()

    def test_svg_is_deterministic(self, tmp_path):
        _, out1 = run_cli(tmp_path / "a", SWEEP_CFG, "sweep")
        _, out2 = run_cli(tmp_path / "b", SWEEP_CFG, "sweep")
        svg1 = (out1 / "spectrum.svg").read_bytes()
        assert svg1 == (out2 / "spectrum.svg").read_bytes()

    def test_svg_absorption_trace_shows_three_peaks(self, tmp_path):
        _, out = run_cli(tmp_path, SWEEP_CFG, "sweep")
        svg = (out / "spectrum.svg").read_text()
        match = _DASHED_POINTS.search(svg)
        assert match is not None
        ys = [float(p.split(",")[1]) for p in match.group(1).split()]
        assert len(ys) == 201
        # pixel y grows downward, so absorption peaks are strict y minima
        n_peaks = sum(
            1 for i in range(1, len(ys) - 1) if ys[i] < ys[i - 1] and ys[i] < ys[i + 1]
        )
        assert n_peaks == 3
        assert svg.count("<polyline") == 2


class TestOtherCommands:
    def test_steady_reports_the_closed_form(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, STEADY_CFG, "steady")
        assert code == 0
        result = json.loads((out / "steady.json").read_text())
        assert result["a_im"] == pytest.approx(-0.05982053892161838, rel=1e-12)
        assert result["absorption"] == pytest.approx(0.05982053892161838, rel=1e-12)
        assert "absorption" in capsys.readouterr().out

    def test_evolve_writes_the_trajectory(self, tmp_path):
        code, out = run_cli(tmp_path, EVOLVE_CFG, "evolve")
        assert code == 0
        rows = csv_rows(out / "trajectory.csv")
        assert rows[0] == "t,re_a,im_a,re_b,im_b,re_sigma_minus,im_sigma_minus"
        first = [float(v) for v in rows[1].split(",")]
        assert first == [0.0] * 7
        meta = json.loads((out / "run.json").read_text())
        assert len(rows) == meta["evolve"]["n_steps"] + 2
        last = [float(v) for v in rows[-1].split(",")]
        assert last[0] == 40.0
        assert last[2] == pytest.approx(meta["evolve"]["final"]["a_im"], rel=1e-15)

    def test_dephasing_scan_outputs_decreasing_heights(self, tmp_path):
        code, out = run_cli(tmp_path, DEPHASING_CFG, "dephasing-scan")
        assert code == 0
        rows = csv_rows(out / "dephasing.csv")[1:]
        heights = [float(r.split(",")[1]) for r in rows]
        assert heights[0] > heights[1] > heights[2]

    def test_validate_passes_and_reports(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, VALIDATE_CFG, "validate")
        assert code == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) >= 3
        assert all(c["passed"] for c in report["checks"])
        assert "PASS" in capsys.readouterr().out

    def test_derive_coupling_reports_both_unit_systems(self, tmp_path):
        code, out = run_cli(tmp_path, DERIVE_CFG, "derive-coupling")
        assert code == 0
        result = json.loads((out / "couplings.json").read_text())
        assert result["lambda_rad_s"] == pytest.approx(1892117.882424536, rel=1e-12)
        assert result["eta"] == pytest.approx(0.06222317390287065, rel=1e-12)
        assert result["lambda_over_kappa_a"] == pytest.approx(
            1892117.882424536 / 6283185.307179586, rel=1e-12
        )
        assert result["g_rad_s"] == pytest.approx(result["eta"] * 31415926.535897932)


class TestFailureModes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "nope.cfg")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_output_path_under_a_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(STEADY_CFG, encoding="utf-8")
        out = cfg_file / "out"
        assert main(["steady", "--config", str(cfg_file), "--out", str(out)]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert not list(tmp_path.rglob("run.json"))

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["steady", "--config", str(tmp_path), "--out", str(out)]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()

    def test_every_command_has_a_handler(self):
        assert set(cli._DISPATCH) == set(config.COMMANDS)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = SWEEP_CFG.replace("lambda", "lamda")
        code, _ = run_cli(tmp_path, bad, "sweep")
        assert code == 2
        assert "did you mean 'lambda'" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, SWEEP_CFG, "steady")
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        undamped = STEADY_CFG.replace("kappa_b = 1e-3", "kappa_b = 0") \
                             .replace("gamma = 1e-3", "gamma = 0") \
                             .replace("gamma_phi = 1e-3", "gamma_phi = 0") \
                             .replace("lambda = 0.5", "lambda = 0") \
                             .replace("g = 0.5", "g = 0")
        code, _ = run_cli(tmp_path, undamped, "steady")
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_svg_limited_to_sweeps(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, STEADY_CFG, "steady", "--format", "svg")
        assert code == 2
        assert "svg" in capsys.readouterr().err

    def test_unknown_format_override(self, tmp_path):
        code, _ = run_cli(tmp_path, SWEEP_CFG, "sweep", "--format", "bmp")
        assert code == 2

    def test_nested_output_directory_is_created(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(STEADY_CFG, encoding="utf-8")
        deep = tmp_path / "a" / "b" / "c"
        assert main(["steady", "--config", str(cfg_file), "--out", str(deep)]) == 0
        assert (deep / "run.json").exists()


_SCIPY_PROBE = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import nit_sim
on_import = scipy_modules()
from nit_sim.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps({"on_import": on_import, "codes": codes, "after": scipy_modules()}))
"""


def scipy_after_cli_runs(tmp_path: Path, runs) -> dict:
    """Run ``main`` on each (command, config text) in one fresh interpreter
    and report the scipy modules loaded by ``import nit_sim`` and after the
    runs, with every exit code."""
    argvs = []
    for i, (command, text) in enumerate(runs):
        cfg_file = tmp_path / f"run{i}.cfg"
        cfg_file.write_text(text, encoding="utf-8")
        outdir = tmp_path / f"out{i}"
        argvs.append([command, "--config", str(cfg_file), "--out", str(outdir)])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    @pytest.mark.parametrize(
        "runs, loads_scipy",
        [
            pytest.param(
                [
                    ("steady", STEADY_CFG),
                    ("sweep", SWEEP_CFG + "backend = analytic\n"),
                    ("evolve", EVOLVE_CFG),
                    ("dephasing-scan", DEPHASING_CFG),
                    ("derive-coupling", DERIVE_CFG),
                ],
                False,
                id="closed-form-and-meanfield",
            ),
            pytest.param([("sweep", QUANTUM_SWEEP_CFG)], True, id="quantum-sweep"),
            pytest.param([("validate", VALIDATE_CFG)], True, id="validate"),
        ],
    )
    def test_scipy_loads_only_for_the_master_equation(
        self, tmp_path, runs, loads_scipy
    ):
        """Only the master-equation commands import scipy; the others, and a
        plain ``import nit_sim``, start without it."""
        report = scipy_after_cli_runs(tmp_path, runs)
        assert report["on_import"] == []
        assert report["codes"] == [0] * len(runs)
        if loads_scipy:
            assert "scipy.sparse.linalg" in report["after"]
        else:
            assert report["after"] == []


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nit_sim", "--version"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == nit_sim.__version__

    def test_console_script(self):
        """The declared ``nit-sim`` console script starts and prints the version.

        The ``nit-sim`` executable exists only after ``pip install``; a
        checkout run with ``PYTHONPATH=src`` has none. Where one is on PATH
        it is run as is. The ``[project.scripts]`` declaration is then run
        the way pip's generated launcher runs it: import ``module:attr`` in
        a fresh interpreter and exit with what it returns.
        """
        installed = shutil.which("nit-sim")
        if installed is not None:
            proc = subprocess.run(
                [installed, "--version"], capture_output=True, text=True, check=True
            )
            assert proc.stdout.strip() == nit_sim.__version__

        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
        assert project["version"] == nit_sim.__version__
        module_name, attr = project["scripts"]["nit-sim"].split(":")
        assert callable(getattr(importlib.import_module(module_name), attr))

        launcher = (
            "import sys\n"
            f"from {module_name} import {attr}\n"
            "sys.argv[0] = 'nit-sim'\n"
            f"sys.exit({attr}())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == nit_sim.__version__

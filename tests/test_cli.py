"""End-to-end command-line runs: artifacts, exit codes, reproducibility."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nit_sim
from nit_sim import DomainError, cli, config, meanfield, spectra, svgplot
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


def assert_outputs(out: Path, stdout: str, names: list[str]) -> None:
    """run.json lists ``names`` in write order, and the last stdout line
    names them again with run.json, which is written last."""
    assert json.loads((out / "run.json").read_text())["outputs"] == names
    assert stdout.splitlines()[-1] == f"wrote {', '.join([*names, 'run.json'])} in {out}"
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "run.json"])


def unselected(*args, **kwargs):
    raise AssertionError("built an output whose format is not selected")


class TestSweepCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, SWEEP_CFG, "sweep")
        assert code == 0
        for name in ("spectrum.csv", "windows.json", "spectrum.svg", "run.json"):
            assert (out / name).exists(), name
        assert len(csv_rows(out / "spectrum.csv")) == 202  # header + 201 points
        stdout = capsys.readouterr().out
        assert "3 peak(s), 2 dip(s)" in stdout
        assert_outputs(out, stdout, ["spectrum.csv", "windows.json", "spectrum.svg"])

    def test_run_json_reproduces_the_run(self, tmp_path):
        code, out = run_cli(tmp_path, SWEEP_CFG, "sweep")
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["tool"] == "nit-sim"
        assert meta["version"] == nit_sim.__version__
        assert meta["command"] == "sweep"
        assert meta["system"]["kappa_q"] == pytest.approx(3e-3)
        assert meta["outputs"] == ["spectrum.csv", "windows.json", "spectrum.svg"]
        again = parse_config(meta["config_text"])
        original = parse_config(SWEEP_CFG)
        assert again.system == original.system
        assert again.sweep == original.sweep
        assert meta["windows"]["dips"][0]["depth"] > 0.9

    def test_format_override_trims_outputs(self, tmp_path, capsys, monkeypatch):
        # an unselected format costs nothing: its producers are never called
        monkeypatch.setattr(cli, "emit_svg", unselected)
        monkeypatch.setattr(spectra, "analyze_windows", unselected)
        code, out = run_cli(tmp_path, SWEEP_CFG, "sweep", "--format", "csv")
        assert code == 0
        assert_outputs(out, capsys.readouterr().out, ["spectrum.csv"])
        assert "windows" not in json.loads((out / "run.json").read_text())

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

    @pytest.mark.parametrize(
        "text, extra, digest",
        [
            (SWEEP_CFG, (),
             "0e321efd818b7bc5136889ec2124ea37394e3ab998f37425fbb579123b807507"),
            # a flat spectrum: emit_svg widens its y range to one unit
            (SWEEP_CFG.replace("epsilon = 0.03", "epsilon = 0"), ("--format", "svg"),
             "7e5077cc79f00c64d19e3a734f88a1a454b87c94e821c77fec29202e80f8906a"),
        ],
        ids=["matched", "flat"],
    )
    def test_svg_bytes_are_frozen(self, tmp_path, text, extra, digest):
        code, out = run_cli(tmp_path, text, "sweep", *extra)
        assert code == 0
        assert hashlib.sha256((out / "spectrum.svg").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "span, step", [(6.0, 1.0), (9.0, 2.0), (13.2, 2.5), (24.0, 5.0), (42.0, 10.0), (0.42, 0.1)]
    )
    def test_tick_step_is_the_first_nice_step_of_a_sixth(self, span, step):
        # the smallest of 1, 2, 2.5, 5 and 10 times a power of ten that is >= span / 6
        assert svgplot._nice_step(span) == pytest.approx(step, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-323, 5e-324, 0.0], ids=["tiny", "least", "zero"])
    def test_range_too_narrow_to_tick_is_a_domain_error(self, scale):
        # the sixth of the span once underflowed to a zero tick step or log10(0)
        with pytest.raises(DomainError, match="too narrow to tick"):
            svgplot._ticks(0.0, scale * 6.0)

    def test_quantum_sweep_records_its_truncation(self, tmp_path, capsys):
        text = QUANTUM_SWEEP_CFG.replace("n_points = 3", "n_points = 5")
        text = text.replace("formats = csv,json,svg", "formats = csv,json")
        code, out = run_cli(tmp_path, text, "sweep")
        assert code == 0
        assert len(csv_rows(out / "spectrum.csv")) == 6
        sweep = json.loads((out / "run.json").read_text())["sweep"]
        assert sweep["backend"] == "quantum"
        assert sweep["n_a"] == sweep["n_b"] == 3
        assert "window analysis skipped" in capsys.readouterr().out
        assert not (out / "windows.json").exists()

    def test_peak_cut_by_the_grid_edge_has_null_width(self, tmp_path):
        text = SWEEP_CFG.replace("delta_min = -1.5", "delta_min = -0.8")
        text = text.replace("delta_max = 1.5", "delta_max = 0.8")
        text = text.replace("n_points = 201", "n_points = 161")
        code, out = run_cli(tmp_path, text, "sweep", "--format", "json")
        assert code == 0
        text = (out / "windows.json").read_text()
        assert '"fwhm": null' in text
        left, central, right = json.loads(text)["peaks"]
        # the outer peaks' half-height crossings lie past +-0.8
        assert right["detuning"] == -left["detuning"] == pytest.approx(0.708, abs=1e-3)
        assert left["fwhm"] is None and right["fwhm"] is None
        assert central["fwhm"] == pytest.approx(0.446, abs=1e-3)


class TestOtherCommands:
    def test_steady_reports_the_closed_form(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, STEADY_CFG, "steady")
        assert code == 0
        result = json.loads((out / "steady.json").read_text())
        assert result["a_im"] == pytest.approx(-0.05982053892161838, rel=1e-12)
        assert result["absorption"] == pytest.approx(0.05982053892161838, rel=1e-12)
        stdout = capsys.readouterr().out
        assert "absorption" in stdout
        assert_outputs(out, stdout, ["steady.json"])

    def test_evolve_writes_the_trajectory(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, EVOLVE_CFG, "evolve")
        assert code == 0
        assert_outputs(out, capsys.readouterr().out, ["trajectory.csv"])
        rows = csv_rows(out / "trajectory.csv")
        assert rows[0] == "t,re_a,im_a,re_b,im_b,re_sigma_minus,im_sigma_minus"
        first = [float(v) for v in rows[1].split(",")]
        assert first == [0.0] * 7
        meta = json.loads((out / "run.json").read_text())
        assert len(rows) == meta["evolve"]["n_steps"] + 2
        last = [float(v) for v in rows[-1].split(",")]
        assert last[0] == 40.0
        assert last[2] == pytest.approx(meta["evolve"]["final"]["a_im"], rel=1e-15)

    def test_evolve_run_json_states_its_step_tolerances(self, tmp_path):
        """The step tolerances are fixed, yet run.json still reports them,
        and its config_text runs the same trajectory again."""
        code, out = run_cli(tmp_path, EVOLVE_CFG, "evolve")
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["evolve"]["rel_tol"] == meanfield.INTEGRATE_REL_TOL == 1e-8
        assert meta["evolve"]["abs_tol"] == meanfield.INTEGRATE_ABS_TOL == 1e-12
        again = parse_config(meta["config_text"])
        assert again.evolve == parse_config(EVOLVE_CFG).evolve
        assert again.system == parse_config(EVOLVE_CFG).system

    def test_dephasing_scan_outputs_decreasing_heights(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, DEPHASING_CFG, "dephasing-scan")
        assert code == 0
        rows = csv_rows(out / "dephasing.csv")[1:]
        heights = [float(r.split(",")[1]) for r in rows]
        assert heights[0] > heights[1] > heights[2]
        assert_outputs(out, capsys.readouterr().out, ["dephasing.csv"])

    @pytest.mark.parametrize(
        "text, command, key",
        [(EVOLVE_CFG, "evolve", "evolve"), (DEPHASING_CFG, "dephasing-scan", "dephasing")],
    )
    def test_json_only_skips_the_csv(self, tmp_path, capsys, monkeypatch, text, command, key):
        monkeypatch.setattr(spectra, "csv_text", unselected)
        code, out = run_cli(tmp_path, text, command, "--format", "json")
        assert code == 0
        assert_outputs(out, capsys.readouterr().out, [])
        assert key in json.loads((out / "run.json").read_text())

    def test_run_json_records_every_system_rate(self, tmp_path):
        text = STEADY_CFG.replace(
            "epsilon = 0.03",
            "epsilon = 0.03+0.01j\ndelta_p = 0.25\n"
            "delta_b_offset = 0.125\ndelta_q_offset = -0.0625",
        )
        code, out = run_cli(tmp_path, text, "steady")
        assert code == 0
        assert json.loads((out / "run.json").read_text())["system"] == {
            "delta_p": 0.25,
            "delta_b_offset": 0.125,
            "delta_q_offset": -0.0625,
            "lambda": 0.5,
            "g": 0.5,
            "epsilon_re": 0.03,
            "epsilon_im": 0.01,
            "kappa_a": 1.0,
            "kappa_b": 1e-3,
            "gamma": 1e-3,
            "gamma_phi": 1e-3,
            "kappa_q": 3e-3,
        }

    def test_validate_passes_and_reports(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, VALIDATE_CFG, "validate")
        assert code == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) >= 3
        assert all(c["passed"] for c in report["checks"])
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        assert_outputs(out, stdout, ["validation.json"])

    def test_derive_coupling_reports_both_unit_systems(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, DERIVE_CFG, "derive-coupling")
        assert code == 0
        assert_outputs(out, capsys.readouterr().out, ["couplings.json"])
        result = json.loads((out / "couplings.json").read_text())
        assert result["lambda_rad_s"] == pytest.approx(1892117.882424536, rel=1e-12)
        assert result["eta"] == pytest.approx(0.06222317390287065, rel=1e-12)
        assert result["lambda_over_kappa_a"] == pytest.approx(
            1892117.882424536 / 6283185.307179586, rel=1e-12
        )
        assert result["g_rad_s"] == pytest.approx(result["eta"] * 31415926.535897932)

    def test_derive_coupling_run_json_reproduces_the_device(self, tmp_path):
        """config_text holds only the keys [physical] still takes, so a new
        run.json parses back to the same device."""
        code, out = run_cli(tmp_path, DERIVE_CFG, "derive-coupling")
        assert code == 0
        text = json.loads((out / "run.json").read_text())["config_text"]
        assert not re.search(r"^(q_e|k_c|hbar) =", text, flags=re.M)
        again = parse_config(text)
        assert again.physical == parse_config(DERIVE_CFG).physical

    def test_derive_coupling_warns_once_about_lamb_dicke(self, tmp_path):
        marginal = DERIVE_CFG.replace("k_l = 29292239.194310427", "k_l = 1e8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, marginal, "derive-coupling")
        assert code == 0
        eta = json.loads((out / "couplings.json").read_text())["eta"]
        assert eta > 0.1
        lamb = [w for w in caught if "Lamb-Dicke" in str(w.message)]
        assert len(lamb) == 1

    @pytest.mark.parametrize("target", [0.05, 0.212, 0.5])
    def test_derive_coupling_reports_the_debye_waller_factor(self, tmp_path, target):
        """debye_waller is |<0| exp(i eta (b + b^dag)) |1>| / eta, the factor by
        which the n = 1 -> 0 sideband coupling falls short of eta * Omega."""
        import numpy as np
        from scipy.linalg import expm

        k_l = 29292239.194310427 * target / 0.06222317390287065
        text = DERIVE_CFG.replace("k_l = 29292239.194310427", f"k_l = {k_l!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # eta >= 0.1 warns
            code, out = run_cli(tmp_path, text, "derive-coupling")
        assert code == 0
        result = json.loads((out / "couplings.json").read_text())
        eta = result["eta"]
        assert eta == pytest.approx(target, rel=1e-12)
        b = np.diag(np.sqrt(np.arange(1.0, 60.0)), 1)  # 60 Fock levels
        element = expm(1j * eta * (b + b.T))[0, 1]
        assert abs(element) / eta == pytest.approx(result["debye_waller"], rel=0, abs=1e-12)
        assert result["g_rel_shift"] == pytest.approx(1.0 - result["debye_waller"], rel=1e-12)
        run = json.loads((out / "run.json").read_text())["couplings"]
        assert run["debye_waller"] == result["debye_waller"]
        assert run["g_rel_shift"] == result["g_rel_shift"]

    @pytest.mark.parametrize(
        "physical, message",
        [
            ({"d": "1e-300"}, r"lambda comes out zero or not finite at d=1e-300, "),
            ({"m": "1e-320"}, r"lambda comes out zero or not finite at .*, m=1e-320, "),
            ({"k_l": "1e300", "Omega": "1e20"},
             r"g comes out zero or not finite at k_l=1e\+300, .*, Omega=1e\+20"),
            # [system] rates normalize to finite values, but lambda/kappa_a
            # and g/kappa_a of the device overflow
            ({"lambda": "0", "g": "0", "epsilon": "0", "kappa_a": "1e-310",
              "kappa_b": "1e-310", "gamma": "1e-310", "gamma_phi": "1e-310"},
             r"lambda_over_kappa_a comes out zero or not finite at kappa_a_input=1e-310$"),
        ],
        ids=["gap-cubed-underflows", "mass-product-underflows", "g-overflows",
             "ratio-overflows"],
    )
    def test_derive_coupling_out_of_double_range_exits_2(
        self, tmp_path, capsys, physical, message
    ):
        """A device whose lambda, eta or g, or lambda or g over kappa_a, is no
        positive finite double is a config error, not a traceback or a null
        in couplings.json."""
        text = DERIVE_CFG
        for key, value in physical.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k_l = 1e300 warns about eta
            code, out = run_cli(tmp_path, text, "derive-coupling")
        assert code == 2
        assert re.match("config error: " + message, capsys.readouterr().err)
        assert not out.exists()


class TestCommandLine:
    @pytest.mark.parametrize("command", config.COMMANDS)
    def test_every_command_parses(self, command):
        args = cli._build_parser().parse_args([command, "--config", "run.cfg"])
        assert (args.command, args.config, args.out, args.format) == (
            command, "run.cfg", None, None,
        )

    def test_options_may_come_before_the_command(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(STEADY_CFG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out), "steady"]) == 0
        assert_outputs(out, capsys.readouterr().out, ["steady.json"])

    @pytest.mark.parametrize(
        "head", [["bogus", "--config", "run.cfg"], ["steady"]],
        ids=["unknown-command", "missing-config"],
    )
    def test_bad_command_line_exits_2_and_writes_nothing(self, tmp_path, capsys, head):
        (tmp_path / "run.cfg").write_text(STEADY_CFG, encoding="utf-8")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*head, "--out", str(out)])
        assert exc.value.code == 2
        assert "usage: nit-sim" in capsys.readouterr().err
        assert not out.exists()

    def test_config_with_a_byte_order_mark(self, tmp_path):
        """A config saved with a UTF-8 byte-order mark runs as it would without."""
        plain, plain_out = run_cli(tmp_path / "plain", STEADY_CFG, "steady")
        bom, bom_out = run_cli(tmp_path / "bom", "\ufeff" + STEADY_CFG, "steady")
        assert plain == bom == 0
        assert (bom_out / "steady.json").read_bytes() == (plain_out / "steady.json").read_bytes()

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"# \xe9\n" + STEADY_CFG.encode())
        out = tmp_path / "out"
        assert main(["steady", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "value", ["o#3", "o;3", " o", "o ", "'o'", '"o', 'o"', "o\n3", ""],
        ids=["hash", "semicolon", "leading-space", "trailing-space", "quoted",
             "open-quote", "closing-quote", "line-break", "empty"],
    )
    def test_out_that_config_text_cannot_carry(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(STEADY_CFG, encoding="utf-8")
        assert main(["steady", "--config", "run.cfg", "--out", value]) == 2
        assert capsys.readouterr().err.startswith("config error: --out: ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("value", ["o 3", "a=b", "o'3", "x/y"])
    def test_config_text_gives_back_the_out(self, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(STEADY_CFG, encoding="utf-8")
        assert main(["steady", "--config", "run.cfg", "--out", value]) == 0
        meta = json.loads((tmp_path / value / "run.json").read_text())
        assert parse_config(meta["config_text"]).output_dir == value


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
        code, out = run_cli(tmp_path, undamped, "steady")
        assert code == 3
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()

    def test_computed_state_that_is_no_density_matrix_exits_3(self, tmp_path, capsys):
        """At epsilon = 1e150 the LU state meets its residual bound with a
        trace far from 1: the solver failed, so exit 3 at a named detuning."""
        huge = QUANTUM_SWEEP_CFG.replace("n_points = 3", "n_points = 2") \
                                .replace("n_a = 3\nn_b = 3", "n_a = 2\nn_b = 2") \
                                .replace("delta_min = -1.5", "delta_min = 0") \
                                .replace("lambda = 0.5", "lambda = 1") \
                                .replace("g = 0.5", "g = 1") \
                                .replace("epsilon = 0.03", "epsilon = 1e150")
        code, out = run_cli(tmp_path, huge, "sweep")
        err = capsys.readouterr().err
        assert code == 3
        assert re.match(r"numerical error: at delta_p=[-\d.e+]+: trace .* differs from 1", err)
        assert not out.exists()

    def test_huge_drive_quantum_sweep_exits_3_without_warnings(self, tmp_path, capsys):
        """At epsilon = 1e200 BiCGSTAB, the LU solve and the residual norm
        overflow; the residual check fails the first point, and no
        RuntimeWarning, an error under this suite's filters, escapes."""
        huge = QUANTUM_SWEEP_CFG.replace("n_a = 3\nn_b = 3", "n_a = 2\nn_b = 2") \
                                .replace("lambda = 0.5", "lambda = 1") \
                                .replace("g = 0.5", "g = 1") \
                                .replace("epsilon = 0.03", "epsilon = 1e200")
        code, out = run_cli(tmp_path, huge, "sweep")
        assert code == 3
        assert "numerical error: at delta_p=-1.5: steady-state residual" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_validation_exit_code(self, tmp_path, capsys):
        # eps = 0.3 overfills the (3, 3) truncation: quantum and closure fail
        strong = VALIDATE_CFG.replace("epsilon = 0.01", "epsilon = 0.3") \
                             .replace("n_a = 4\nn_b = 4", "n_a = 3\nn_b = 3")
        code, out = run_cli(tmp_path, strong, "validate")
        assert code == 3
        assert "validation FAILED" in capsys.readouterr().err
        assert json.loads((out / "validation.json").read_text())["passed"] is False
        assert (out / "run.json").exists()

    def test_validate_grid_must_increase(self, tmp_path, capsys):
        reversed_grid = VALIDATE_CFG.replace(
            "[validate]\n", "[validate]\ndelta_min = 1\ndelta_max = -1\n"
        )
        code, out = run_cli(tmp_path, reversed_grid, "validate")
        assert code == 2
        assert "delta_min < delta_max" in capsys.readouterr().err
        assert not out.exists()

    def test_svg_limited_to_sweeps(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, STEADY_CFG, "steady", "--format", "svg")
        assert code == 2
        assert "svg" in capsys.readouterr().err

    def test_unknown_format_override(self, tmp_path):
        code, _ = run_cli(tmp_path, SWEEP_CFG, "sweep", "--format", "bmp")
        assert code == 2

    @pytest.mark.parametrize(
        "text, threads, message",
        [
            (SWEEP_CFG.replace("n_points = 201", "n_points = 5\nbackend = meanfield")
             .replace("kappa_b = 1e-3", "kappa_b = 0"), "1", "strict damping"),
            (QUANTUM_SWEEP_CFG, "0", "NIT_SIM_THREADS"),
        ],
        ids=["meanfield-undamped-mechanics", "quantum-zero-threads"],
    )
    def test_failed_run_leaves_no_output_directory(
        self, tmp_path, monkeypatch, capsys, text, threads, message
    ):
        # the directory was once made before the command ran, and left empty
        monkeypatch.setenv("NIT_SIM_THREADS", threads)
        code, out = run_cli(tmp_path, text, "sweep")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lo, hi, formats",
        [("-1e308", "1e308", "csv"), ("-1e308", "1e308", "csv,svg"), ("-1e308", "1.5e308", "csv")],
        ids=["csv", "svg", "nan-grid"],
    )
    def test_grid_span_that_overflows_is_a_config_error(
        self, tmp_path, capsys, lo, hi, formats
    ):
        # once csv rows of nan, an OverflowError in the svg ticks, or a
        # "delta_p must be finite, got nan" the user never typed
        text = SWEEP_CFG.replace("delta_min = -1.5", f"delta_min = {lo}") \
                        .replace("delta_max = 1.5", f"delta_max = {hi}")
        code, out = run_cli(tmp_path, text, "sweep", "--format", formats)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [sweep]: grid span")
        assert repr(float(lo)) in err and repr(float(hi)) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("steady", STEADY_CFG.replace("epsilon = 0.03", "epsilon = 0.03\ndelta_p = 1e200")),
            ("sweep", SWEEP_CFG.replace("delta_min = -1.5", "delta_min = -1e103")
             .replace("delta_max = 1.5", "delta_max = 1e103")
             .replace("n_points = 201", "n_points = 5")),
            ("sweep", SWEEP_CFG.replace("epsilon = 0.03", "epsilon = 1e308")),
            ("validate", VALIDATE_CFG.replace("[validate]\n", "[validate]\ndelta_min = -1e103\n"
                                              "delta_max = 1e103\n")),
        ],
        ids=["steady", "sweep-detuning", "sweep-drive", "validate"],
    )
    def test_closed_form_overflow_is_a_config_error(self, tmp_path, capsys, command, text):
        # once nan+nanj and nulls, zeros at the grid ends, inf rows, and a
        # mean-field relaxation failure (exit 3) in validate
        code, out = run_cli(tmp_path, text, command, "--format", "csv,json")
        assert code == 2
        assert re.match(r"config error: .*overflows? at delta_p=", capsys.readouterr().err)
        assert not out.exists()

    # the bare driven mode's <a> = -eps / (delta_p - i/2) spans [-eps, 2 eps]
    # on [-1, 1]: finite at eps = 8e307, but the padded plot range is not;
    # eps = 1e-300 far off resonance leaves values a few least doubles apart
    @pytest.mark.parametrize(
        "eps, bounds, message",
        [("8e307", ("-1", "1"), "overflows once padded"),
         ("1e-300", ("1e23", "1e24"), "too narrow to tick")],
        ids=["overflow", "underflow"],
    )
    def test_svg_that_cannot_be_drawn_leaves_no_csv(self, tmp_path, capsys, eps, bounds, message):
        # the csv, built first, was once written before the svg writer failed
        text = SWEEP_CFG.replace("epsilon = 0.03", f"epsilon = {eps}") \
                        .replace("lambda = 0.5", "lambda = 0").replace("g = 0.5", "g = 0") \
                        .replace("delta_min = -1.5", f"delta_min = {bounds[0]}") \
                        .replace("delta_max = 1.5", f"delta_max = {bounds[1]}")
        code, out = run_cli(tmp_path / "svg", text, "sweep", "--format", "csv,svg")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        code, out = run_cli(tmp_path / "csv", text, "sweep", "--format", "csv")
        assert code == 0
        rows = [row.split(",") for row in csv_rows(out / "spectrum.csv")[1:]]
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_failed_factorization_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # a factorization that fails for any reason but singularity: every
        # point falls back to LU, which cannot proceed either
        import scipy.sparse.linalg as spla

        def failing(*args, **kwargs):
            raise RuntimeError("not enough memory")

        monkeypatch.setattr(spla, "splu", failing)
        code, out = run_cli(tmp_path, QUANTUM_SWEEP_CFG, "sweep")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: at delta_p=")
        assert "steady-state factorization failed: not enough memory" in err
        assert not out.exists()

    def test_nested_output_directory_is_created(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(STEADY_CFG, encoding="utf-8")
        deep = tmp_path / "a" / "b" / "c"
        assert main(["steady", "--config", str(cfg_file), "--out", str(deep)]) == 0
        assert (deep / "run.json").exists()


# a magnitude 10^x with x uniform in [-323, 308], of either sign: from the
# least subnormal double up to 1e308
_LOG_UNIFORM = st.builds(
    lambda sign, x: sign * 10.0**x, st.sampled_from((-1.0, 1.0)), st.floats(-323.0, 308.0)
)


@st.composite
def closed_form_runs(draw) -> tuple[str, str, str]:
    """(command, config text, formats): a steady run, or an analytic sweep."""
    system = SYSTEM_BLOCK.replace("epsilon = 0.03", f"epsilon = {draw(_LOG_UNIFORM)!r}")
    if draw(st.booleans()):
        text = f"[run]\ncommand = steady\n\n{system}delta_p = {draw(_LOG_UNIFORM)!r}\n"
        return "steady", text, "csv,json"
    lo, hi = sorted(draw(st.lists(_LOG_UNIFORM, min_size=2, max_size=2, unique=True)))
    grid = f"delta_min = {lo!r}\ndelta_max = {hi!r}\nn_points = {draw(st.integers(2, 61))}\n"
    return "sweep", f"[run]\ncommand = sweep\n\n{system}\n[sweep]\n{grid}", "csv,json,svg"


@st.composite
def quantum_sweep_runs(draw) -> str:
    """A 3-point master-equation sweep at (2, 2), its drive and bounds drawn
    as ``closed_form_runs`` draws them."""
    system = SYSTEM_BLOCK.replace("epsilon = 0.03", f"epsilon = {draw(_LOG_UNIFORM)!r}")
    lo, hi = sorted(draw(st.lists(_LOG_UNIFORM, min_size=2, max_size=2, unique=True)))
    grid = f"delta_min = {lo!r}\ndelta_max = {hi!r}\nn_points = 3\n"
    quantum = "backend = quantum\nn_a = 2\nn_b = 2\n"
    return f"[run]\ncommand = sweep\n\n{system}\n[sweep]\n{grid}{quantum}"


# 10^x with x uniform in [-323, 308]: the positive doubles up to 1e308
_POSITIVE = st.floats(-323.0, 308.0).map(lambda x: 10.0**x)


@st.composite
def derive_coupling_runs(draw) -> str:
    """DERIVE_CFG with every [physical] value drawn from ``_POSITIVE``."""
    text = DERIVE_CFG
    for key in ("d", "V0", "C0", "M", "m", "omega", "nu", "k_l", "Omega"):
        text = re.sub(rf"^{key} = .*$", f"{key} = {draw(_POSITIVE)!r}", text, flags=re.M)
    return text


def documented_exit(command: str, text: str, formats: str) -> list:
    """Run ``command`` on ``text`` and check that it ends in exit 0, 2 or 3
    with nothing raised, that a failed run leaves no output directory, and
    that a run that passes lists exactly the files it wrote, with every
    number of its results finite.  Returns the warnings it raised."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(Path(tmp), text, command, "--format", formats)
        assert code in (0, 2, 3)
        if code:
            assert not out.exists()
            return caught
        listed = json.loads((out / "run.json").read_text())["outputs"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*listed, "run.json"])
        if command == "sweep":
            values = [v for row in csv_rows(out / "spectrum.csv")[1:] for v in row.split(",")]
        else:
            result = {"steady": "steady.json", "derive-coupling": "couplings.json"}[command]
            values = list(json.loads((out / result).read_text()).values())
        assert all(v is not None and math.isfinite(float(v)) for v in values)
    return caught


def runtime_warnings(caught: list) -> list[str]:
    return [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


class TestNoTraceback:
    @settings(max_examples=300, deadline=None)
    @given(run=closed_form_runs())
    def test_every_closed_form_config_ends_in_a_documented_exit(self, run):
        documented_exit(*run)

    @settings(max_examples=100, deadline=None)
    @given(text=quantum_sweep_runs())
    def test_every_master_equation_sweep_ends_in_a_documented_exit(self, text):
        assert runtime_warnings(documented_exit("sweep", text, "csv,json,svg")) == []

    @settings(max_examples=300, deadline=None)
    @given(text=derive_coupling_runs())
    def test_every_device_ends_in_a_documented_exit(self, text):
        assert runtime_warnings(documented_exit("derive-coupling", text, "json")) == []


_COLD_PROBE = """\
import json, sys

def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)

import nit_sim
on_import = loaded("numpy", "scipy")
from nit_sim.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps({"on_import": on_import, "codes": codes, "after": loaded("scipy"),
                  "numpy": "numpy" in sys.modules}))
"""


def cold_cli_runs(tmp_path: Path, runs) -> dict:
    """Run ``main`` on each (command, config text) in one fresh interpreter
    and report the numpy and scipy modules loaded by ``import nit_sim``, the
    scipy modules loaded after the runs, whether numpy was, and every exit
    code."""
    argvs = []
    for i, (command, text) in enumerate(runs):
        cfg_file = tmp_path / f"run{i}.cfg"
        cfg_file.write_text(text, encoding="utf-8")
        outdir = tmp_path / f"out{i}"
        argvs.append([command, "--config", str(cfg_file), "--out", str(outdir)])
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_PARSE_PROBE = """\
import json, sys

from nit_sim.config import parse_config

configs = [parse_config(text) for text in json.loads(sys.argv[1])]
parsed = "numpy" in sys.modules
from nit_sim import SweepConfig
imported = "numpy" in sys.modules
from nit_sim import model, spectra
print(json.dumps({"parse": parsed, "import": imported, "module": SweepConfig.__module__,
                  "same": spectra.SweepConfig is model.SweepConfig,
                  "grids": [type(c.sweep or c.validate).__name__ for c in configs]}))
"""


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
        plain ``import nit_sim``, start without it (nor numpy)."""
        report = cold_cli_runs(tmp_path, runs)
        assert report["on_import"] == []
        assert report["codes"] == [0] * len(runs)
        if loads_scipy:
            assert "scipy.sparse.linalg" in report["after"]
        else:
            assert report["after"] == []

    @pytest.mark.parametrize(
        "runs, loads_numpy",
        [
            pytest.param(
                [("steady", STEADY_CFG), ("derive-coupling", DERIVE_CFG)], False,
                id="closed-form",
            ),
            pytest.param([("sweep", SWEEP_CFG + "backend = analytic\n")], True, id="sweep"),
        ],
    )
    def test_numpy_loads_only_for_array_commands(self, tmp_path, runs, loads_numpy):
        """`steady` and `derive-coupling` evaluate scalars and run without
        numpy; a sweep, which builds arrays, loads it."""
        report = cold_cli_runs(tmp_path, runs)
        assert report["codes"] == [0] * len(runs)
        assert report["numpy"] is loads_numpy

    def test_a_sweep_config_parses_without_numpy(self):
        """A [sweep] or [validate] block names its grid with the model's
        SweepConfig, which loads no numpy; spectra serves the same class."""
        texts = [SWEEP_CFG, QUANTUM_SWEEP_CFG, VALIDATE_CFG]
        proc = subprocess.run(
            [sys.executable, "-c", _PARSE_PROBE, json.dumps(texts)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"parse": False, "import": False, "module": "nit_sim.model",
                          "same": True, "grids": ["SweepConfig"] * 3}

    def test_public_names_resolve_to_their_modules_objects(self):
        """Each top-level name is the object its defining module holds, and
        that module is where the object says it was defined."""
        for name in nit_sim.__all__:
            module = importlib.import_module(f"nit_sim.{nit_sim._MODULE_OF[name]}")
            value = getattr(nit_sim, name)
            assert value is getattr(module, name), name
            assert value.__module__ == module.__name__, name
        assert nit_sim.HilbertSpec is importlib.import_module("nit_sim.quantum").HilbertSpec

    @pytest.mark.parametrize("name", ["no_such_name", "quantum_expectations", "BACKENDS"])
    def test_unknown_name_is_an_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(nit_sim, name)


class TestEntryPoints:
    def test_readme_entry_points_resolve(self):
        """Each `module.name` of the README's "Key entry points" exists; a
        bare `name` belongs to the module named last before it."""
        readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
        refs, module = [], None
        for ref in re.findall(r"`([\w.]+)`", paragraph):
            if "." in ref:
                module, ref = ref.split(".")
            refs.append((module, ref))
        assert len(refs) >= 10
        missing = [
            f"{m}.{name}" for m, name in refs
            if not hasattr(importlib.import_module(f"nit_sim.{m}"), name)
        ]
        assert missing == []

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

"""Config parsing: strict diagnostics and an exact render round trip."""

from __future__ import annotations

import pytest

from nit_sim import ConfigError
from nit_sim.cli import main
from nit_sim.config import (
    EvolveSettings,
    RunConfig,
    ValidateSettings,
    parse_config,
    render_config,
)

SWEEP_TEXT = """\
# transparency spectrum, matched couplings
[run]
command = sweep
formats = csv,json

[system]
units = "kappa_a"     ; quotes are tolerated
lambda = 0.5
g = 0.5
epsilon = 0.03
kappa_a = 1
kappa_b = 1e-3
gamma = 1e-3
gamma_phi = 1e-3

[sweep]
delta_min = -1.5
delta_max = 1.5
n_points = 201
"""

SI_TEXT = """\
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

SI_GOLDEN = """\
[run]
command = derive-coupling
out = .
formats = csv,json

[system]
units = SI
delta_p = 0.0
delta_b_offset = 0.0
delta_q_offset = 0.0
lambda = 1892117.882424536
g = 3141592.653589793
epsilon = (12000+0j)
kappa_a = 6283185.307179586
kappa_b = 6283.185307179586
gamma = 6283.185307179586
gamma_phi = 6283.185307179586

[physical]
d = 1.5e-06
V0 = 20.0
C0 = 1.9e-16
M = 1e-15
m = 1.8598037571903999e-25
omega = 62831853.071795866
nu = 62831853.071795866
k_l = 29292239.194310427
Omega = 31415926.535897933
q_e = 1.6e-19
k_c = 8987551786.170797
hbar = 1.0545718176461565e-34
"""

EVOLVE_GOLDEN = """\
[run]
command = evolve
out = .
formats = csv,json

[system]
units = kappa_a
delta_p = 0.0
delta_b_offset = 0.0
delta_q_offset = 0.0
lambda = 0.5
g = 0.5
epsilon = (0.03+0j)
kappa_a = 1.0
kappa_b = 0.001
gamma = 0.001
gamma_phi = 0.001

[evolve]
t_end = 40.0
rel_tol = 1e-08
abs_tol = 1e-12
"""


def with_lines(text: str, *extra: str) -> str:
    return text + "\n" + "\n".join(extra) + "\n"


def as_command(command: str, block: str) -> str:
    """SWEEP_TEXT's [run] and [system] for another command, plus `block`."""
    text = SWEEP_TEXT.replace("command = sweep", f"command = {command}")
    return text.split("[sweep]")[0] + block


class TestParsing:
    def test_sweep_config(self):
        cfg = parse_config(SWEEP_TEXT)
        assert cfg.command == "sweep"
        assert cfg.formats == ("csv", "json")
        assert cfg.system.lam == 0.5 and cfg.system.is_normalized
        assert cfg.system.delta_p == 0.0  # defaulted
        assert cfg.sweep.n_points == 201
        assert cfg.sweep.backend == "analytic"
        assert cfg.sweep.quantum_spec is None
        assert cfg.evolve is None and cfg.dephasing is None

    def test_si_units_are_normalized_on_ingestion(self):
        cfg = parse_config(SI_TEXT)
        assert cfg.system.kappa_a == 1.0
        assert cfg.system.lam == pytest.approx(1892117.882424536 / 6283185.307179586)
        assert cfg.kappa_a_input == 6283185.307179586
        assert cfg.system_units == "SI"
        assert cfg.physical.d == 1.5e-6

    def test_quantum_sweep_builds_a_truncation(self):
        text = SWEEP_TEXT.replace(
            "n_points = 201", "n_points = 201\nbackend = quantum\nn_a = 4\nn_b = 3"
        )
        cfg = parse_config(text)
        assert cfg.sweep.backend == "quantum"
        assert (cfg.sweep.quantum_spec.n_a, cfg.sweep.quantum_spec.n_b) == (4, 3)

    def test_complex_drive_amplitude(self):
        text = SWEEP_TEXT.replace("epsilon = 0.03", "epsilon = 0.01 + 0.002j")
        assert parse_config(text).system.epsilon == 0.01 + 0.002j

    def test_validate_defaults_materialize(self):
        text = SWEEP_TEXT.replace("command = sweep", "command = validate")
        cfg = parse_config(text)
        assert cfg.validate == ValidateSettings()

    def test_evolve_block(self):
        text = """
        [run]
        command = evolve
        [system]
        lambda = 0.5
        g = 0.5
        epsilon = 0.03
        kappa_a = 1
        kappa_b = 1e-3
        gamma = 1e-3
        gamma_phi = 1e-3
        [evolve]
        t_end = 40
        rel_tol = 1e-9
        """
        cfg = parse_config(text)
        assert cfg.evolve == EvolveSettings(t_end=40.0, rel_tol=1e-9, abs_tol=1e-12)

    def test_dephasing_list(self):
        text = SWEEP_TEXT.replace("command = sweep", "command = dephasing-scan")
        text = with_lines(text, "[dephasing]", "gamma_phi_values = 1e-3, 0.1, 1.0")
        assert parse_config(text).dephasing == (1e-3, 0.1, 1.0)


class TestDiagnostics:
    def test_unknown_key_suggests_the_right_one(self):
        text = SWEEP_TEXT.replace("lambda = 0.5", "lamda = 0.5")
        with pytest.raises(ConfigError, match=r"did you mean 'lambda'"):
            parse_config(text)

    def test_unknown_key_reports_the_line(self):
        text = SWEEP_TEXT.replace("lambda = 0.5", "lamda = 0.5")
        with pytest.raises(ConfigError, match=r"line 8"):
            parse_config(text)

    def test_unknown_block_suggests(self):
        with pytest.raises(ConfigError, match=r"did you mean 'sweep'"):
            parse_config(SWEEP_TEXT.replace("[sweep]", "[sweeep]"))

    def test_range_violation_names_key_and_line(self):
        text = SWEEP_TEXT.replace("kappa_a = 1", "kappa_a = -1")
        with pytest.raises(ConfigError, match=r"kappa_a must be > 0"):
            parse_config(text)

    def test_non_unit_kappa_a_needs_si(self):
        text = SWEEP_TEXT.replace("kappa_a = 1", "kappa_a = 2")
        with pytest.raises(ConfigError, match=r"units"):
            parse_config(text)

    def test_missing_required_key(self):
        text = SWEEP_TEXT.replace("epsilon = 0.03\n", "")
        with pytest.raises(ConfigError, match=r"missing required key 'epsilon'"):
            parse_config(text)

    def test_missing_required_block(self):
        text = SWEEP_TEXT.split("[sweep]")[0]
        with pytest.raises(ConfigError, match=r"requires a \[sweep\] block"):
            parse_config(text)

    def test_missing_run_block(self):
        text = SWEEP_TEXT.split("[system]", 1)[1]
        with pytest.raises(ConfigError, match=r"missing \[run\]"):
            parse_config("[system]" + text)

    def test_duplicate_key(self):
        text = with_lines(SWEEP_TEXT, "n_points = 301")
        with pytest.raises(ConfigError, match="duplicate key 'n_points'"):
            parse_config(text)

    def test_duplicate_block(self):
        text = with_lines(SWEEP_TEXT, "[run]", "command = sweep")
        with pytest.raises(ConfigError, match=r"duplicate block \[run\]"):
            parse_config(text)

    def test_key_outside_block(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("command = sweep\n" + SWEEP_TEXT)

    def test_unparseable_number(self):
        text = SWEEP_TEXT.replace("g = 0.5", "g = half")
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config(text)

    def test_non_integer_points(self):
        text = SWEEP_TEXT.replace("n_points = 201", "n_points = 201.5")
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config(text)

    def test_empty_value(self):
        text = SWEEP_TEXT.replace("g = 0.5", "g =")
        with pytest.raises(ConfigError, match="empty value"):
            parse_config(text)

    def test_garbled_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(SWEEP_TEXT.replace("g = 0.5", "g 0.5"))

    def test_unknown_format(self):
        text = SWEEP_TEXT.replace("formats = csv,json", "formats = csv,png")
        with pytest.raises(ConfigError, match="unknown format"):
            parse_config(text)

    def test_unknown_command_suggests(self):
        text = SWEEP_TEXT.replace("command = sweep", "command = seep")
        with pytest.raises(ConfigError, match="did you mean 'sweep'"):
            parse_config(text)

    def test_derive_coupling_requires_si_units(self):
        text = SWEEP_TEXT.replace("command = sweep", "command = derive-coupling")
        text = with_lines(
            text,
            "[physical]", "d = 1.5e-6", "V0 = 20", "C0 = 1.9e-16", "M = 1e-15",
            "m = 1.86e-25", "omega = 6.3e7", "nu = 6.3e7", "k_l = 2.9e7",
            "Omega = 3.1e7",
        )
        with pytest.raises(ConfigError, match="SI"):
            parse_config(text)

    def test_empty_sweep_range(self, tmp_path, capsys):
        text = SWEEP_TEXT.replace("delta_max = 1.5", "delta_max = -1.5")
        with pytest.raises(ConfigError, match=r"\[sweep\]: need delta_min < delta_max"):
            parse_config(text)
        path = tmp_path / "sweep.ini"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "[sweep]" in capsys.readouterr().err

    def test_quantum_truncation_past_the_cap(self):
        text = SWEEP_TEXT.replace(
            "n_points = 201", "n_points = 201\nbackend = quantum\nn_a = 20\nn_b = 20"
        )
        with pytest.raises(ConfigError, match=r"\[sweep\]: .*exceeds the cap"):
            parse_config(text)

    def test_validate_truncation_past_the_cap(self, tmp_path, capsys):
        text = SWEEP_TEXT.replace("command = sweep", "command = validate")
        text = text.split("[sweep]")[0] + "[validate]\nn_a = 20\nn_b = 20\n"
        with pytest.raises(ConfigError, match=r"\[validate\]: .*exceeds the cap"):
            parse_config(text)
        path = tmp_path / "validate.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 2
        assert "[validate]" in capsys.readouterr().err
        assert not out.exists()

    def test_truncation_is_ignored_off_the_quantum_backend(self):
        text = SWEEP_TEXT.replace("n_points = 201", "n_points = 201\nn_a = 300\nn_b = 300")
        assert parse_config(text).sweep.quantum_spec is None

    def test_negative_dephasing_value(self):
        text = SWEEP_TEXT.replace("command = sweep", "command = dephasing-scan")
        text = with_lines(text, "[dephasing]", "gamma_phi_values = 1e-3, -0.1")
        with pytest.raises(ConfigError, match=r"\[dephasing\]"):
            parse_config(text)

    @pytest.mark.parametrize(
        "command, old, new, key, raw",
        [
            ("dephasing-scan", "gamma_phi_values = 1e-3",
             "gamma_phi_values = 1e-3, nan, inf", "gamma_phi_values", "nan"),
            ("steady", "delta_p = 0", "delta_p = inf", "delta_p", "inf"),
            ("steady", "epsilon = 0.03", "epsilon = nan", "epsilon", "nan"),
            ("evolve", "t_end = 40", "t_end = inf", "t_end", "inf"),
        ],
        ids=["dephasing-nan", "delta_p-inf", "epsilon-nan", "t_end-inf"],
    )
    def test_non_finite_number(self, tmp_path, capsys, command, old, new, key, raw):
        text = as_command(
            command, "[dephasing]\ngamma_phi_values = 1e-3\n\n[evolve]\nt_end = 40\n"
        ).replace("gamma_phi = 1e-3\n", "gamma_phi = 1e-3\ndelta_p = 0\n")
        text = text.replace(old, new)
        lineno = text.splitlines().index(new) + 1
        msg = f"line {lineno}: {key}: expected a finite number, got '{raw}'"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == msg
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert msg in capsys.readouterr().err
        assert not out.exists()


class TestRoundTrip:
    @pytest.mark.parametrize("text", [SWEEP_TEXT, SI_TEXT])
    def test_parse_render_parse_is_identity(self, text):
        cfg = parse_config(text)
        assert parse_config(render_config(cfg)) == cfg

    def test_rendered_si_config_keeps_its_units(self):
        rendered = render_config(parse_config(SI_TEXT))
        assert "units = SI" in rendered
        assert "kappa_a = 6283185.307179586" in rendered

    @pytest.mark.parametrize(
        "text, golden",
        [
            (SI_TEXT + "q_e = 1.6e-19\n", SI_GOLDEN),
            (as_command("evolve", "[evolve]\nt_end = 40\n"), EVOLVE_GOLDEN),
        ],
        ids=["si-with-q_e", "evolve-default-tolerances"],
    )
    def test_canonical_text_is_pinned(self, text, golden):
        assert render_config(parse_config(text)) == golden

    def test_round_trip_covers_every_command(self):
        samples = {
            "steady": as_command("steady", ""),
            "evolve": as_command("evolve", "[evolve]\nt_end = 40\n"),
            "validate": as_command(
                "validate", "[validate]\nn_points = 7\nn_a = 4\nn_b = 4\n"
            ),
            "dephasing-scan": as_command(
                "dephasing-scan", "[dephasing]\ngamma_phi_values = 1e-3, 1.0\n"
            ),
            "analytic sweep with n_a": SWEEP_TEXT.replace(
                "n_points = 201", "n_points = 201\nn_a = 7"
            ),
        }
        for name, text in samples.items():
            cfg = parse_config(text)
            assert parse_config(render_config(cfg)) == cfg, name
        # recorded as written, though only the quantum backend reads it
        swept = render_config(parse_config(samples["analytic sweep with n_a"]))
        assert "\nn_a = 7\nn_b = 5\n" in swept

    def test_round_trip_quantum_sweep(self):
        text = SWEEP_TEXT.replace(
            "n_points = 201", "n_points = 201\nbackend = quantum\nn_a = 6\nn_b = 4"
        )
        cfg = parse_config(text)
        again = parse_config(render_config(cfg))
        assert again == cfg
        assert again.sweep.quantum_spec == cfg.sweep.quantum_spec

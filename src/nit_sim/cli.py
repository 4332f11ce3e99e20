"""Command-line front end.

    nit-sim <command> --config <file> [--out <dir>] [--format csv,json,svg]

Commands: steady, sweep, evolve, validate, derive-coupling, dephasing-scan.
The command given on the command line must match the one in the config's
[run] block; --out and --format override the corresponding config values.

Each format selects the command's files of that extension (csv: spectrum,
trajectory or dephasing .csv; json: steady, windows (sweeps of >= 51
points), validation or couplings .json; svg: spectrum.svg, sweep only).
Once the command has run, `run.json` is always written, last: resolved
parameters, grid, tool version, wall time and the canonical config text,
so a run is fully reproducible from that file alone.

Exit codes: 0 success, 2 config error, 3 numerical error (including failed
validation checks), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from .analytic import steady_state
from .config import (
    COMMANDS,
    RunConfig,
    _formats,
    _out,
    parse_config,
    render_config,
)
from .errors import ConfigError, DomainError, NumericalError
from .model import SweepConfig, _derived, derive_lambda, lamb_dicke
from .svgplot import emit_svg

# numpy, meanfield, quantum and spectra are imported by the handlers that
# run them, so `steady` and `derive-coupling` start without numpy

MEANFIELD_ABS_TOL = 1e-6
QUANTUM_REL_TOL = 0.02
CLOSURE_TOL = 0.05
# The pointwise closure ratio |<b sz> + <b>| / |<b>| is only meaningful
# where the reference amplitude has not been dynamically suppressed; at the
# spectrum center <b> drops by ~3 orders of magnitude while the absolute
# violation stays the size it has everywhere else.  Points below this
# fraction of the grid-max |<b>| are held to the absolute bound
# CLOSURE_TOL * max|<b>| instead.
CLOSURE_MIN_B_FRACTION = 0.01
TWO_PI = 2.0 * math.pi


def _jsonable(obj):
    """Recursively coerce to strict-JSON-safe values (NaN/inf -> None)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):  # np.float64 included
        return float(obj) if math.isfinite(obj) else None
    return obj


def _system_dict(s) -> dict:
    out = {f.name: getattr(s, f.name) for f in fields(s)}
    out["lambda"] = out.pop("lam")
    eps = out.pop("epsilon")
    out["epsilon_re"], out["epsilon_im"] = eps.real, eps.imag
    out["kappa_q"] = s.kappa_q
    return out


def _amplitude_fields(state) -> dict:
    """Re and im parts of <a>, <b> and <sigma_-> of a steady or evolved state."""
    out = {}
    for name in ("a", "b", "sigma_minus"):
        z = getattr(state, name)
        out[f"{name}_re"], out[f"{name}_im"] = z.real, z.imag
    return out


def _grid_fields(grid: SweepConfig) -> dict:
    """The detuning grid of a [sweep] or [validate] block, as run.json reports it."""
    return {k: getattr(grid, k) for k in ("delta_min", "delta_max", "n_points")}


def _write_text(outdir: Path, name: str, text: str, files: list[str]) -> None:
    (outdir / name).write_text(text, encoding="utf-8")
    files.append(name)


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


# Each handler returns (run.json payload, passed, outputs): outputs maps every
# file the command can produce, in write order, to a JSON dict or to a
# zero-argument callable that builds its text.  `main` builds the text of each
# file whose extension is a selected format before it makes the output
# directory, so a command or a builder that fails leaves no directory behind.


def _cmd_steady(cfg: RunConfig) -> tuple[dict, bool, dict]:
    ss = steady_state(cfg.system)
    result = {
        "delta_p": cfg.system.delta_p,
        **_amplitude_fields(ss),
        "absorption": ss.absorption,
    }
    print(f"steady state at delta_p = {cfg.system.delta_p:g} (kappa_a units)")
    print(f"  <a>        = {ss.a:.12g}")
    print(f"  <b>        = {ss.b:.12g}")
    print(f"  <sigma_->  = {ss.sigma_minus:.12g}")
    print(f"  absorption = {ss.absorption:.12g}")
    return {"steady": result}, True, {"steady.json": result}


def _cmd_sweep(cfg: RunConfig) -> tuple[dict, bool, dict]:
    from .spectra import MIN_WINDOW_POINTS, analyze_windows, sweep, to_csv_text

    spectrum = sweep(cfg.sweep)
    payload: dict = {"sweep": {"backend": spectrum.backend, **_grid_fields(cfg.sweep)}}
    if cfg.sweep.quantum_spec is not None:
        payload["sweep"].update(asdict(cfg.sweep.quantum_spec))
    print(
        f"sweep: {spectrum.n_points} points on "
        f"[{cfg.sweep.delta_min:g}, {cfg.sweep.delta_max:g}], "
        f"backend {spectrum.backend}"
    )
    outputs: dict = {"spectrum.csv": lambda: to_csv_text(spectrum)}
    if "json" in cfg.formats:
        if spectrum.n_points >= MIN_WINDOW_POINTS:
            report = analyze_windows(spectrum)
            payload["windows"] = outputs["windows.json"] = report.to_dict()
            print(
                f"  {len(report.peaks)} peak(s), {len(report.dips)} dip(s), "
                f"asymmetry {report.asymmetry:.3g}"
            )
        else:
            print(f"  window analysis skipped (needs >= {MIN_WINDOW_POINTS} points)")
    outputs["spectrum.svg"] = lambda: emit_svg(spectrum)
    return payload, True, outputs


def _cmd_evolve(cfg: RunConfig) -> tuple[dict, bool, dict]:
    from .meanfield import INTEGRATE_ABS_TOL, INTEGRATE_REL_TOL, ZERO_STATE, integrate
    from .spectra import csv_text

    ev = cfg.evolve
    traj = integrate(ZERO_STATE, cfg.system, ev.t_end)
    final = traj[-1]
    print(
        f"evolved from the zero state to t = {final.t:g}/kappa_a "
        f"in {len(traj) - 1} accepted steps"
    )
    print(f"  final <a> = {final.a:.12g}")
    payload = {
        "evolve": {
            "t_end": ev.t_end,
            "rel_tol": INTEGRATE_REL_TOL,
            "abs_tol": INTEGRATE_ABS_TOL,
            "n_steps": len(traj) - 1,
            "final": _amplitude_fields(final),
        }
    }
    header = "t,re_a,im_a,re_b,im_b,re_sigma_minus,im_sigma_minus"
    rows = ((st.t, *_amplitude_fields(st).values()) for st in traj)
    return payload, True, {"trajectory.csv": lambda: csv_text(header, rows)}


def _cmd_validate(cfg: RunConfig) -> tuple[dict, bool, dict]:
    import numpy as np

    from .quantum import build_operators
    from .spectra import detuning_grid, quantum_expectations, sweep

    v = cfg.validate
    spec = v.quantum_spec
    a_analytic = sweep(replace(v, backend="analytic")).a
    a_meanfield = sweep(replace(v, backend="meanfield")).a
    ops = build_operators(spec)
    a_quantum, b_quantum, bsz = quantum_expectations(
        v.base, detuning_grid(v.delta_min, v.delta_max, v.n_points), spec,
        [ops.a, ops.b, ops.b @ ops.sigma_z],
    )
    # scalar abs: numpy's vectorized complex abs differs in the last bit
    violation = np.array([abs(x + y) for x, y in zip(bsz, b_quantum)])

    mf_dev = float(np.max(np.abs(a_analytic - a_meanfield)))
    q_rel = float(np.max(np.abs(a_quantum - a_analytic) / np.abs(a_analytic)))
    b_mag = np.abs(b_quantum)
    well = b_mag >= CLOSURE_MIN_B_FRACTION * b_mag.max()
    cl_max = float(np.max(violation[well] / b_mag[well]))

    checks = [
        ("analytic vs meanfield max|d<a>|", mf_dev, MEANFIELD_ABS_TOL),
        ("analytic vs quantum max rel <a>", q_rel, QUANTUM_REL_TOL),
        ("one-phonon closure max defect", cl_max, CLOSURE_TOL),
    ]
    if not well.all():
        checks.append(
            (
                "closure at suppressed-<b> points",
                float(np.max(violation[~well])),
                CLOSURE_TOL * float(b_mag.max()),
            )
        )
    rows = [{"check": c, "value": v, "threshold": t, "passed": v < t} for c, v, t in checks]
    all_pass = all(r["passed"] for r in rows)
    print(
        f"cross-backend validation: {v.n_points} detunings on "
        f"[{v.delta_min:g}, {v.delta_max:g}], truncation ({spec.n_a}, {spec.n_b})"
    )
    for r in rows:
        print(f"  {r['check']:34s} {r['value']:12.5e}  < {r['threshold']:g}  "
              f"{'PASS' if r['passed'] else 'FAIL'}")
    payload = {
        "validate": {
            "grid": _grid_fields(v),
            "truncation": asdict(spec),
            "checks": rows,
            "passed": all_pass,
        }
    }
    if not all_pass:
        print("validation FAILED", file=sys.stderr)
    return payload, all_pass, {"validation.json": payload["validate"]}


def _cmd_derive_coupling(cfg: RunConfig) -> tuple[dict, bool, dict]:
    p, ka = cfg.physical, cfg.kappa_a_input  # ka in rad/s: parse_config guarantees SI units
    lam_si = derive_lambda(p)
    eta = lamb_dicke(p)
    g_si = _derived("g", eta * p.Omega, p, "k_l m nu Omega")
    # the n = 1 -> 0 sideband element is eta * Omega times exp(-eta^2 / 2)
    debye_waller = math.exp(-0.5 * eta * eta)
    result = {
        "kappa_a_rad_s": ka,
        "lambda_rad_s": lam_si,
        "lambda_hz": lam_si / TWO_PI,
        # a tiny kappa_a can overflow the ratios of finite couplings
        "lambda_over_kappa_a": _derived("lambda_over_kappa_a", lam_si / ka, cfg, "kappa_a_input"),
        "eta": eta,
        "g_rad_s": g_si,
        "g_hz": g_si / TWO_PI,
        "g_over_kappa_a": _derived("g_over_kappa_a", g_si / ka, cfg, "kappa_a_input"),
        "debye_waller": debye_waller,
        "g_rel_shift": -math.expm1(-0.5 * eta * eta),
    }
    print("derived couplings")
    print(f"  lambda = {lam_si:.6e} rad/s = {lam_si / TWO_PI:.6e} Hz"
          f" = {result['lambda_over_kappa_a']:.6g} kappa_a")
    print(f"  eta    = {eta:.6g}")
    print(f"  g      = {g_si:.6e} rad/s = {g_si / TWO_PI:.6e} Hz"
          f" = {result['g_over_kappa_a']:.6g} kappa_a")
    print(f"  Debye-Waller exp(-eta^2/2) = {debye_waller:.6g}: g overstates the"
          f" 1 -> 0 sideband coupling by {result['g_rel_shift']:.3g}")
    return {"couplings": result}, True, {"couplings.json": result}


def _cmd_dephasing_scan(cfg: RunConfig) -> tuple[dict, bool, dict]:
    import numpy as np

    from .spectra import csv_text, dephasing_scan

    values = np.asarray(cfg.dephasing, dtype=float)
    heights = dephasing_scan(cfg.system, values)
    print("central absorption vs dephasing (delta_p = 0)")
    for gph, h in zip(values, heights):
        print(f"  gamma_phi = {gph:<12g} absorption = {h:.12g}")
    payload = {
        "dephasing": {
            "gamma_phi_values": list(values),
            "central_absorption": list(heights),
        }
    }
    header = "gamma_phi,central_absorption"
    return payload, True, {"dephasing.csv": lambda: csv_text(header, zip(values, heights))}


_DISPATCH = {
    "steady": _cmd_steady,
    "sweep": _cmd_sweep,
    "evolve": _cmd_evolve,
    "validate": _cmd_validate,
    "derive-coupling": _cmd_derive_coupling,
    "dephasing-scan": _cmd_dephasing_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nit-sim",
        description="Steady-state spectra of a driven resonator coupled to "
        "an ion motional mode and qubit, via closed-form, mean-field and "
        "master-equation backends.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=COMMANDS, help="command to run")
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", help="comma-separated subset of csv,json,svg")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8-sig"))
        if cfg.command != args.command:
            raise ConfigError(
                f"config sets command = {cfg.command!r} but the command "
                f"line says {args.command!r}"
            )
        overrides = {}
        for option, key, parse in (("out", "output_dir", _out), ("format", "formats", _formats)):
            if getattr(args, option) is not None:
                try:
                    overrides[key] = parse(getattr(args, option))
                except ValueError as exc:
                    raise ConfigError(f"--{option}: {exc}") from None
        cfg = replace(cfg, **overrides)
        if "svg" in cfg.formats and cfg.command != "sweep":
            raise ConfigError(
                "svg output is only defined for the sweep command "
                "(single-spectrum plot)"
            )

        files: list[str] = []
        start = time.perf_counter()
        payload, ok, outputs = _DISPATCH[cfg.command](cfg)
        texts = {
            name: body() if callable(body) else _json_text(body)
            for name, body in outputs.items() if Path(name).suffix[1:] in cfg.formats
        }
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            _write_text(outdir, name, text, files)
        run_meta = {
            "tool": "nit-sim",
            "version": __version__,
            "command": cfg.command,
            "system": _system_dict(cfg.system),
            "system_units": cfg.system_units,
            "kappa_a_input": cfg.kappa_a_input,
            "formats": list(cfg.formats),
            "outputs": list(files),
            "wall_time_s": time.perf_counter() - start,
            "config_text": render_config(cfg),
        }
        run_meta.update(payload)
        _write_text(outdir, "run.json", _json_text(run_meta), files)
    except (ConfigError, DomainError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    if not ok:
        return 3
    print(f"wrote {', '.join(files)} in {outdir}")
    return 0

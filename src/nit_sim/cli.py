"""Command-line front end.

    nit-sim <command> --config <file> [--out <dir>] [--format csv,json,svg]

Commands: steady, sweep, evolve, validate, derive-coupling, dephasing-scan.
The command given on the command line must match the one in the config's
[run] block; --out and --format override the corresponding config values.

Every successful run writes `run.json` with the resolved parameters, grid,
tool version, wall time and the canonical config text, so a run is fully
reproducible from that file alone.

Exit codes: 0 success, 2 config error, 3 numerical error (including failed
validation checks), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import steady_state
from .config import (
    COMMANDS,
    RunConfig,
    _formats,
    parse_config,
    render_config,
)
from .errors import ConfigError, DomainError, NumericalError
from .meanfield import ZERO_STATE, integrate
from .model import PhysicalParams, derive_g, derive_lambda, lamb_dicke
from .quantum import HilbertSpec, build_operators
from .spectra import (
    MIN_WINDOW_POINTS,
    analyze_windows,
    detuning_grid,
    quantum_expectations,
    stationary_a,
    sweep as run_sweep,
    to_csv_text,
)
from .spectra import dephasing_scan as run_dephasing_scan
from .svgplot import emit_svg

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
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _system_dict(s) -> dict:
    return {
        "delta_p": s.delta_p,
        "delta_b_offset": s.delta_b_offset,
        "delta_q_offset": s.delta_q_offset,
        "lambda": s.lam,
        "g": s.g,
        "epsilon_re": s.epsilon.real,
        "epsilon_im": s.epsilon.imag,
        "kappa_a": s.kappa_a,
        "kappa_b": s.kappa_b,
        "gamma": s.gamma,
        "gamma_phi": s.gamma_phi,
        "kappa_q": s.kappa_q,
    }


def _amplitude_fields(state) -> dict:
    """Re and im parts of <a>, <b> and <sigma_-> of a steady or evolved state."""
    out = {}
    for name in ("a", "b", "sigma_minus"):
        z = getattr(state, name)
        out[f"{name}_re"], out[f"{name}_im"] = z.real, z.imag
    return out


def _write_text(outdir: Path, name: str, text: str, files: list[str]) -> None:
    (outdir / name).write_text(text, encoding="utf-8")
    files.append(name)


def _write_json(outdir: Path, name: str, payload: dict, files: list[str]) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    _write_text(outdir, name, text, files)


def _cmd_steady(cfg: RunConfig, outdir: Path, files: list[str]) -> tuple[dict, bool]:
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
    if "json" in cfg.formats:
        _write_json(outdir, "steady.json", result, files)
    return {"steady": result}, True


def _cmd_sweep(cfg: RunConfig, outdir: Path, files: list[str]) -> tuple[dict, bool]:
    spectrum = run_sweep(cfg.sweep)
    payload: dict = {
        "sweep": {
            "backend": spectrum.backend,
            "delta_min": cfg.sweep.delta_min,
            "delta_max": cfg.sweep.delta_max,
            "n_points": cfg.sweep.n_points,
        }
    }
    if cfg.sweep.quantum_spec is not None:
        payload["sweep"]["n_a"] = cfg.sweep.quantum_spec.n_a
        payload["sweep"]["n_b"] = cfg.sweep.quantum_spec.n_b
    print(
        f"sweep: {spectrum.n_points} points on "
        f"[{cfg.sweep.delta_min:g}, {cfg.sweep.delta_max:g}], "
        f"backend {spectrum.backend}"
    )
    if "csv" in cfg.formats:
        _write_text(outdir, "spectrum.csv", to_csv_text(spectrum), files)
    if "json" in cfg.formats:
        if spectrum.n_points >= MIN_WINDOW_POINTS:
            report = analyze_windows(spectrum)
            payload["windows"] = report.to_dict()
            _write_json(outdir, "windows.json", report.to_dict(), files)
            print(
                f"  {len(report.peaks)} peak(s), {len(report.dips)} dip(s), "
                f"asymmetry {report.asymmetry:.3g}"
            )
        else:
            print(
                f"  window analysis skipped (needs >= {MIN_WINDOW_POINTS} points)"
            )
    if "svg" in cfg.formats:
        _write_text(outdir, "spectrum.svg", emit_svg(spectrum), files)
    return payload, True


def _cmd_evolve(cfg: RunConfig, outdir: Path, files: list[str]) -> tuple[dict, bool]:
    ev = cfg.evolve
    traj = integrate(
        ZERO_STATE, cfg.system, ev.t_end, rel_tol=ev.rel_tol, abs_tol=ev.abs_tol
    )
    final = traj[-1]
    print(
        f"evolved from the zero state to t = {final.t:g}/kappa_a "
        f"in {len(traj) - 1} accepted steps"
    )
    print(f"  final <a> = {final.a:.12g}")
    if "csv" in cfg.formats:
        lines = ["t,re_a,im_a,re_b,im_b,re_sigma_minus,im_sigma_minus"]
        for st in traj:
            lines.append(
                f"{st.t:.17g},{st.a.real:.17g},{st.a.imag:.17g},"
                f"{st.b.real:.17g},{st.b.imag:.17g},"
                f"{st.sigma_minus.real:.17g},{st.sigma_minus.imag:.17g}"
            )
        _write_text(outdir, "trajectory.csv", "\n".join(lines) + "\n", files)
    payload = {
        "evolve": {
            "t_end": ev.t_end,
            "rel_tol": ev.rel_tol,
            "abs_tol": ev.abs_tol,
            "n_steps": len(traj) - 1,
            "final": _amplitude_fields(final),
        }
    }
    return payload, True


def _cmd_validate(cfg: RunConfig, outdir: Path, files: list[str]) -> tuple[dict, bool]:
    v = cfg.validate
    grid = detuning_grid(v.delta_min, v.delta_max, v.n_points)
    systems = [replace(cfg.system, delta_p=float(d)) for d in grid]

    a_analytic = stationary_a(systems, "analytic")
    a_meanfield = stationary_a(systems, "meanfield")
    spec = HilbertSpec(n_a=v.n_a, n_b=v.n_b)
    ops = build_operators(spec)
    a_quantum, b_quantum, bsz = quantum_expectations(
        systems, spec, [ops.a, ops.b, ops.b @ ops.sigma_z]
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
    rows = []
    all_pass = True
    print(
        f"cross-backend validation: {v.n_points} detunings on "
        f"[{v.delta_min:g}, {v.delta_max:g}], truncation ({v.n_a}, {v.n_b})"
    )
    for name, value, threshold in checks:
        ok = value < threshold
        all_pass &= ok
        rows.append(
            {"check": name, "value": value, "threshold": threshold, "passed": ok}
        )
        print(f"  {name:34s} {value:12.5e}  < {threshold:g}  "
              f"{'PASS' if ok else 'FAIL'}")
    payload = {
        "validate": {
            "grid": {
                "delta_min": v.delta_min,
                "delta_max": v.delta_max,
                "n_points": v.n_points,
            },
            "truncation": {"n_a": v.n_a, "n_b": v.n_b},
            "checks": rows,
            "passed": all_pass,
        }
    }
    if "json" in cfg.formats:
        _write_json(outdir, "validation.json", payload["validate"], files)
    if not all_pass:
        print("validation FAILED", file=sys.stderr)
    return payload, all_pass


def _cmd_derive_coupling(
    cfg: RunConfig, outdir: Path, files: list[str]
) -> tuple[dict, bool]:
    p: PhysicalParams = cfg.physical
    ka = cfg.kappa_a_input  # rad/s; parse_config guarantees SI units here
    lam_si = derive_lambda(p)
    eta = lamb_dicke(p)
    g_si = derive_g(p)
    result = {
        "kappa_a_rad_s": ka,
        "lambda_rad_s": lam_si,
        "lambda_hz": lam_si / TWO_PI,
        "lambda_over_kappa_a": lam_si / ka,
        "eta": eta,
        "g_rad_s": g_si,
        "g_hz": g_si / TWO_PI,
        "g_over_kappa_a": g_si / ka,
    }
    print("derived couplings")
    print(f"  lambda = {lam_si:.6e} rad/s = {lam_si / TWO_PI:.6e} Hz"
          f" = {lam_si / ka:.6g} kappa_a")
    print(f"  eta    = {eta:.6g}")
    print(f"  g      = {g_si:.6e} rad/s = {g_si / TWO_PI:.6e} Hz"
          f" = {g_si / ka:.6g} kappa_a")
    if "json" in cfg.formats:
        _write_json(outdir, "couplings.json", result, files)
    return {"couplings": result}, True


def _cmd_dephasing_scan(
    cfg: RunConfig, outdir: Path, files: list[str]
) -> tuple[dict, bool]:
    values = np.asarray(cfg.dephasing, dtype=float)
    heights = run_dephasing_scan(cfg.system, values)
    print("central absorption vs dephasing (delta_p = 0)")
    for gph, h in zip(values, heights):
        print(f"  gamma_phi = {gph:<12g} absorption = {h:.12g}")
    if "csv" in cfg.formats:
        lines = ["gamma_phi,central_absorption"]
        lines += [f"{g:.17g},{h:.17g}" for g, h in zip(values, heights)]
        _write_text(outdir, "dephasing.csv", "\n".join(lines) + "\n", files)
    payload = {
        "dephasing": {
            "gamma_phi_values": list(values),
            "central_absorption": list(heights),
        }
    }
    return payload, True


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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--format",
            default=None,
            help="comma-separated subset of csv,json,svg",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if cfg.command != args.command:
            raise ConfigError(
                f"config sets command = {cfg.command!r} but the command "
                f"line says {args.command!r}"
            )
        overrides = {}
        if args.out is not None:
            overrides["output_dir"] = args.out
        if args.format is not None:
            try:
                overrides["formats"] = _formats(args.format)
            except ValueError as exc:
                raise ConfigError(f"--format: {exc}") from None
        if overrides:
            cfg = replace(cfg, **overrides)
        if "svg" in cfg.formats and cfg.command != "sweep":
            raise ConfigError(
                "svg output is only defined for the sweep command "
                "(single-spectrum plot)"
            )

        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        files: list[str] = []
        start = time.perf_counter()
        payload, ok = _DISPATCH[cfg.command](cfg, outdir, files)
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
        _write_json(outdir, "run.json", run_meta, files)
    except (ConfigError, DomainError) as exc:
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

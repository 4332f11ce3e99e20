"""The nit-sim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  It drives the package from outside:
cold `python -m nit_sim` processes (with PYTHONPATH=src) and calls to the
public functions; it changes no file of the package.  Workloads (each a
closed loop with one client; `perfbench/inputs.py` builds their inputs
from the seed):

  cli-cold       cold CLI runs of the README configs (steady, sweep with
                 csv+json+svg, evolve, dephasing-scan): interpreter start,
                 import, config and serialization dominate.
  quantum-sweep  NIT_SIM_THREADS=1: the 11-point weak-drive (5, 5) sweep of
                 acceptance criteria 02/10 and a truncation ladder
                 (4, 4)..(7, 7) at one seeded detuning.
  quantum-pool   the same sweep with NIT_SIM_THREADS=2, the only workload on
                 the sweep's thread-pool path.  Its input is that fixed sweep
                 on every seed.

A cycle is one pass over a workload's fixed work; a run repeats cycles
until --seconds have passed (at least one).  Set-up is measured apart: a
fresh interpreter that imports nit_sim and builds the workload's configs,
several times per run.

--trace 0 prints the end-to-end metrics, measured without tracing.
--trace 1 spends half the time untraced and half traced (spans around
every call into a layer, see tracing.py) and prints the per-layer
metrics, the tracing overhead and how much of a cycle the layers cover.

Every run checks the outputs (see each workload's `checks`), counts
failed operations and checks against those attempted, writes its record
(machine, samples, checks, output digests) to .perfbench_out/ and prints,
as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  It exits 1 when a check or an operation failed, and 2
without a result when the directory holds no nit-sim sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import inputs
import tracing

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
CLI_TIMEOUT_S = 120
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
TOL = REFERENCE["thresholds"]

# metric name -> unit, as BENCHMARK.json at the root of the checkout lists them
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# per-layer time metric -> span names whose self time it sums per cycle
SELF_TIME = {
    "import.in_cycle_s": ("import.nit_sim",),
    "spectra.sweep_self_s": ("spectra.sweep", "spectra.dephasing_scan"),
    "spectra.to_csv_s": ("spectra.to_csv_text",),
    "spectra.analyze_windows_s": ("spectra.analyze_windows",),
    "svgplot.emit_svg_s": ("svgplot.emit_svg",),
    "analytic.steady_state_s": ("analytic.steady_state",),
    "meanfield.integrate_s": ("meanfield.integrate",),
    "quantum.build_operators_s": ("quantum.build_operators",),
    "quantum.build_liouvillian_s": ("quantum.build_liouvillian",),
    **{f"quantum.steady_state_dm_s.{n}x{n}": (f"quantum.steady_state_dm.{n}x{n}",)
       for n in inputs.LADDER},
    "quantum.expectation_s": ("quantum.expectation",),
    "cli.self_s": ("cli.main",),
    "cli.write_s": ("cli.write_text",),
    "cli.interpreter_s": ("cli.process",),
}
COUNTS = ("spectra.csv_bytes", "meanfield.integrate_steps", "quantum.generator_nnz",
          "cli.output_bytes")
SETUP_CYCLE, REFERENCE_CYCLE = -3, -2


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, not
    below the median; the maximum when a run has ten samples or fewer."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], "max"
    k = len(s) - 11
    if 2 * (k + 1) <= len(s):
        return statistics.median(s), "p50"
    return s[k], f"p{100 * (k + 1) // len(s)}"


def machine_record(threads: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "NIT_SIM_THREADS": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def new_cycle() -> dict:
    return {"ops": 0, "lat": [], "points": 0, "failures": [], "digests": {}, "keep": {}}


def attempt(rec: dict, what: str, fn, *args):
    """Run one operation; a failure is counted and the run goes on."""
    rec["ops"] += 1
    try:
        return fn(*args)
    except Exception as exc:  # any failure of the program is a counted failure
        rec["failures"].append(f"{what}: {type(exc).__name__}: {exc}")
        return None


class Checks:
    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append((name, bool(ok), detail))

    def digest(self, name: str, got: str | None) -> None:
        want = REFERENCE["digests"].get(name)
        self.add(f"digest {name}", want is not None and got == want,
                 f"{(got or 'missing')[:16]} vs recorded {(want or 'none')[:16]}")


def rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-15)


def golden_error(report, which: str) -> float:
    """Worst deviation of a window report from the criterion-08 goldens."""
    g = REFERENCE["goldens"]
    if which == "matched":
        if len(report["peaks"]) != 3:
            return math.inf
        p = report["peaks"][1]
        return max(rel(p["height"], g["matched_central_height"]),
                   rel(p["fwhm"], g["matched_central_fwhm"]))
    if len(report["peaks"]) != 3 or len(report["dips"]) != 2:
        return math.inf
    worst = 0.0
    for p, (d0, h0, w0) in zip(report["peaks"], g["unbalanced_peaks"]):
        worst = max(worst, abs(p["detuning"] - d0), rel(p["height"], h0), rel(p["fwhm"], w0))
    for d, (d0, v0) in zip(report["dips"], g["unbalanced_dips"]):
        worst = max(worst, rel(d["detuning"], d0), rel(d["depth"], v0))
    return worst


class Workload:
    """One workload: inputs, warm-up, the cycle and the output checks."""

    threads = "1"

    def __init__(self, seed: int, work: Path, env: dict, root: Path):
        self.seed, self.work, self.env, self.root = seed, work, env, root
        self.texts = inputs.texts(self.name, seed)
        self.n_cycle = 0

    def prepare(self, api) -> None:
        self.cfg = {role: api.parse_config(t) for role, t in self.texts.items()}

    def warm(self, api) -> None:
        pass

    def after(self, api, rec: dict) -> None:
        """Work after the measured cycles (not timed)."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliCold(Workload):
    name = "cli-cold"
    commands = ("steady", "sweep", "evolve", "dephasing-scan")

    def prepare(self, api) -> None:
        self.paths = {}
        for cmd in self.commands:
            path = self.work / f"{cmd}.cfg"
            path.write_text(self.texts[cmd], encoding="utf-8")
            self.paths[cmd] = path

    def _spawn(self, argv: list[str], log: Path) -> int:
        # a blocking wait returns at the child's exit; Popen.wait(timeout)
        # polls in steps of up to 50 ms, which would quantize the latency
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                return proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def warm(self, api) -> None:
        self._spawn([sys.executable, "-m", "nit_sim", "--version"], self.work / "warm.log")

    def cycle(self, api, tracer) -> dict:
        rec = new_cycle()
        cdir = self.work / f"c{self.n_cycle}"
        self.n_cycle += 1
        for cmd in self.commands:
            out = cdir / cmd
            args = [cmd, "--config", str(self.paths[cmd]), "--out", str(out)]
            trace_file = cdir / f"{cmd}.trace.json"
            if tracer is None:
                argv = [sys.executable, "-m", "nit_sim", *args]
            else:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *args]
            cdir.mkdir(parents=True, exist_ok=True)
            with tracer.span("cli.process") if tracer else nullcontext() as idx:
                t0 = perf_counter()
                code = attempt(rec, cmd, self._spawn, argv, cdir / f"{cmd}.log")
                dt = perf_counter() - t0
            if code != 0:
                if code is not None:
                    log = (cdir / f"{cmd}.log").read_text(errors="replace")[-300:]
                    rec["failures"].append(f"{cmd}: exit code {code}: {log}")
                continue
            rec["lat"].append(dt)
            rec["points"] += {"steady": 1, "sweep": inputs.SWEEP_POINTS, "evolve": 1,
                              "dephasing-scan": 3}[cmd]
            if tracer is not None and trace_file.is_file():
                data = json.loads(trace_file.read_text(encoding="utf-8"))
                tracer.merge(data["spans"], data["counts"].get("0", {}), idx)
            for f in sorted(out.iterdir()):
                if f.name != "run.json":  # run.json carries the wall time
                    rec["digests"][f"{cmd}/{f.name}"] = sha(f.read_bytes())
        rec["keep"]["dir"] = cdir
        return rec

    def peak_rss_mb(self) -> float:
        # the largest of the children; the CLI processes outweigh the set-up probes
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def checks(self, first: dict, nit) -> Checks:
        ck = Checks()
        cdir = first["keep"].get("dir")
        if cdir is None:
            return ck

        def load_json(rel_path):
            return json.loads((cdir / rel_path).read_text(encoding="utf-8"))

        def load_csv(rel_path):
            rows = (cdir / rel_path).read_text(encoding="utf-8").splitlines()[1:]
            return [[float(x) for x in r.split(",")] for r in rows]

        cfgs = {cmd: nit.parse_config(t) for cmd, t in self.texts.items()}
        if self.seed == inputs.DEFAULT_SEED:
            for key in ("steady/steady.json", "sweep/spectrum.csv", "sweep/spectrum.svg",
                        "sweep/windows.json", "evolve/trajectory.csv",
                        "dephasing-scan/dephasing.csv"):
                ck.digest(f"cli-cold/{key}", first["digests"].get(key))
            err = golden_error(load_json("sweep/windows.json"), "matched")
            ck.add("sweep windows match the criterion-08 goldens", err < TOL["golden_rel"],
                   f"worst rel dev {err:.2e}")
        unbalanced = nit.sweep(nit.parse_config(inputs.unbalanced_text()).sweep)
        err = golden_error(nit.analyze_windows(unbalanced).to_dict(), "unbalanced")
        ck.add("unbalanced windows match the criterion-08 goldens", err < TOL["golden_rel"],
               f"worst rel dev {err:.2e}")
        # closed form (steady, sweep, dephasing-scan) against mean-field relaxation
        steady = load_json("steady/steady.json")
        mf = nit.relax_to_steady_state(cfgs["steady"].system).a
        dev = abs(complex(steady["a_re"], steady["a_im"]) - mf)
        ck.add("steady <a> matches mean field", dev < TOL["meanfield_abs"], f"{dev:.2e}")

        spec = load_csv("sweep/spectrum.csv")
        base = cfgs["sweep"].system
        pick = spec[:: (len(spec) - 1) // 10]
        systems = [nit.replace(base, delta_p=row[0]) for row in pick]
        mf_a = nit.relax_many(systems)[0]
        dev = max(abs(complex(r[1], r[2]) - a) for r, a in zip(pick, mf_a))
        ck.add("sweep csv matches mean field on 11 points", len(spec) == inputs.SWEEP_POINTS
               and dev < TOL["meanfield_abs"], f"{len(spec)} rows, max|d<a>| {dev:.2e}")
        win = load_json("sweep/windows.json")
        ck.add("sweep windows: 3 peaks, 2 dips, symmetric",
               len(win["peaks"]) == 3 and len(win["dips"]) == 2
               and win["asymmetry"] <= TOL["symmetry_rel"], json.dumps(win)[:80])
        ck.add("sweep svg written", (cdir / "sweep/spectrum.svg").stat().st_size > 0)

        deph = load_csv("dephasing-scan/dephasing.csv")
        heights = [h for _, h in deph]
        dsys = cfgs["dephasing-scan"].system
        mf_h = -nit.relax_many([nit.replace(dsys, delta_p=0.0, gamma_phi=g)
                                for g, _ in deph])[0].imag
        dev = max(abs(h - m) for h, m in zip(heights, mf_h))
        ck.add("dephasing heights fall and match mean field",
               all(a > b for a, b in zip(heights, heights[1:])) and dev < TOL["meanfield_abs"],
               f"{heights}, max dev {dev:.2e}")

        traj = load_csv("evolve/trajectory.csv")
        run = load_json("evolve/run.json")
        t_end = cfgs["evolve"].evolve.t_end
        ck.add("evolve trajectory ends at t_end with the reported steps",
               traj[-1][0] == t_end and len(traj) - 1 == run["evolve"]["n_steps"]
               and all(a[0] < b[0] for a, b in zip(traj, traj[1:])),
               f"{len(traj)} rows, last t {traj[-1][0]}")
        return ck


class QuantumSweep(Workload):
    name = "quantum-sweep"
    # three sweeps a cycle give the sweep latency a median within one cycle
    sweeps_per_cycle = 3

    def prepare(self, api) -> None:
        super().prepare(api)
        self.sweep_cfg = self.cfg["sweep"].sweep
        self.point = self.cfg["ladder"].system if "ladder" in self.cfg else None

    def warm(self, api) -> None:
        from nit_sim.quantum import HilbertSpec

        spec = HilbertSpec(inputs.LADDER[0], inputs.LADDER[0])
        api.steady_state_dm(api.build_liouvillian(self.sweep_cfg.base, spec))

    def _sweep(self, api, rec: dict) -> None:
        t0 = perf_counter()
        spec = attempt(rec, "quantum sweep", api.sweep, self.sweep_cfg)
        if spec is None:
            return
        csv = api.to_csv_text(spec)
        rec["lat"].append(perf_counter() - t0)
        rec["points"] += spec.n_points
        digest = rec["digests"].setdefault("quantum/sweep.csv", sha(csv))
        if digest != sha(csv):
            rec["failures"].append("quantum sweep: output differs from the previous sweep")
        rec["keep"]["sweep"] = spec

    def _rung(self, api, n: int) -> complex:
        from nit_sim.quantum import HilbertSpec

        spec = HilbertSpec(n, n)
        ops = api.build_operators(spec)
        rho = api.steady_state_dm(api.build_liouvillian(self.point, spec))
        return api.expectation(ops.a, rho)

    def cycle(self, api, tracer) -> dict:
        rec = new_cycle()
        for _ in range(self.sweeps_per_cycle):
            self._sweep(api, rec)
        ladder = {}
        for n in inputs.LADDER:
            a = attempt(rec, f"ladder ({n}, {n})", self._rung, api, n)
            if a is not None:
                ladder[n] = a
                rec["points"] += 1
        rec["digests"]["quantum/ladder"] = repr(sorted(ladder.items()))
        rec["keep"]["ladder"] = ladder
        return rec

    def _sweep_checks(self, ck: Checks, first: dict, nit) -> None:
        spec = first["keep"].get("sweep")
        if spec is None:
            return
        exact = [nit.steady_state(nit.replace(spec.params, delta_p=float(d))).a
                 for d in spec.detunings]
        worst = max(abs(a - e) / abs(e) for a, e in zip(spec.a, exact))
        ck.add("quantum sweep <a> matches closed form", worst < TOL["quantum_rel"],
               f"{spec.n_points} points, max rel {worst:.3e}")

    def checks(self, first: dict, nit) -> Checks:
        ck = Checks()
        self._sweep_checks(ck, first, nit)
        ladder = first["keep"].get("ladder", {})
        exact = nit.steady_state(self.point).a
        for n, a in sorted(ladder.items()):
            r = abs(a - exact) / abs(exact)
            ck.add(f"ladder ({n}, {n}) at delta_p={self.point.delta_p:g} matches closed form",
                   r < TOL["quantum_rel"], f"rel {r:.3e}")
        if 4 in ladder and 6 in ladder:
            shift = abs(ladder[4] - ladder[6]) / abs(ladder[6])
            ck.add("truncation shift (4,4)->(6,6)", shift < TOL["truncation_shift"],
                   f"{shift:.2e}")
        return ck


class QuantumPool(QuantumSweep):
    name = "quantum-pool"
    threads = str(inputs.POOL_THREADS)

    def cycle(self, api, tracer) -> dict:
        rec = new_cycle()
        self._sweep(api, rec)
        return rec

    def after(self, api, rec: dict) -> None:
        """The same sweep on one worker: reference for the values and the
        per-call solve time."""
        os.environ["NIT_SIM_THREADS"] = "1"
        try:
            spec = attempt(rec, "one-worker sweep", api.sweep, self.sweep_cfg)
        finally:
            os.environ["NIT_SIM_THREADS"] = self.threads
        self.one_worker_csv = None if spec is None else sha(api.to_csv_text(spec))

    def checks(self, first: dict, nit) -> Checks:
        ck = Checks()
        self._sweep_checks(ck, first, nit)
        two = first["digests"].get("quantum/sweep.csv")
        ck.add(f"{self.threads} workers give the bytes of 1 worker",
               self.one_worker_csv is not None and self.one_worker_csv == two)
        return ck


WORKLOADS = {w.name: w for w in (CliCold, QuantumSweep, QuantumPool)}


def measure_setup(workload: str, seed: int, env: dict, root: Path) -> dict:
    """Fresh interpreters that import nit_sim and build the inputs; the first
    is not timed (it fills __pycache__ and the file cache)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    out = {"setup_s": [], "import_s": [], "modules": []}
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            out["setup_s"].append(rec["done"] - t0)
            out["import_s"].append(rec["import_s"])
            out["modules"].append(rec["modules"])
    return out


def measure(w: Workload, api, seconds: float, tracer=None):
    """Repeat cycles and stop at the cycle end nearest to ``seconds``."""
    cycles = []
    start = perf_counter()
    while not cycles or perf_counter() - start + cycles[-1]["wall"] / 2 < seconds:
        if tracer is not None:
            tracer.cycle = len(cycles)
        c0 = perf_counter()
        with tracer.span("cycle") if tracer else nullcontext():
            rec = w.cycle(api, tracer)
        rec["wall"] = perf_counter() - c0
        cycles.append(rec)
    if tracer is not None:
        tracer.cycle = -1
    return cycles, perf_counter() - start


def end_to_end(setup: dict, cycles: list[dict], period: float, rss_mb: float):
    lat = [x for c in cycles for x in c["lat"]]
    tail_s, label = tail(lat) if lat else (math.nan, "none")
    values = {
        "setup_s": statistics.median(setup["setup_s"]),
        "wall_s": statistics.median(c["wall"] for c in cycles),
        "latency_s": statistics.median(lat) if lat else math.nan,
        "latency_tail_s": tail_s,
        "points_per_s": sum(c["points"] for c in cycles) / period,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup['setup_s'])} set-ups",
        "wall_s": f"median of {len(cycles)} cycles",
        "latency_s": f"median of {len(lat)} operations",
        "latency_tail_s": f"{label} of {len(lat)} operations",
        "points_per_s": f"{sum(c['points'] for c in cycles)} points in {period:.2f} s",
    }
    return values, notes


def per_layer(tracer, setup: dict, plain: list[dict], traced: list[dict]) -> dict:
    spans = tracer.spans
    self_t = tracing.self_times(spans)
    ids = sorted({r[tracing.CYCLE] for r in spans if r[tracing.CYCLE] >= 0})
    by_cycle = {c: {} for c in ids + [SETUP_CYCLE, REFERENCE_CYCLE]}
    calls = {c: {} for c in by_cycle}
    total = {c: {} for c in by_cycle}
    for rec, st in zip(spans, self_t):
        d = by_cycle.get(rec[tracing.CYCLE])
        if d is None:
            continue
        name, c = rec[tracing.NAME], rec[tracing.CYCLE]
        d[name] = d.get(name, 0.0) + st
        calls[c][name] = calls[c].get(name, 0) + rec[tracing.CALLS]
        total[c][name] = total[c].get(name, 0.0) + rec[tracing.BUSY]

    def med(fn) -> float:
        return statistics.median(fn(c) for c in ids) if ids else 0.0

    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = med(lambda c: sum(by_cycle[c].get(n, 0.0) for n in names))
    out["config.parse_s"] = (by_cycle[SETUP_CYCLE].get("config.parse_config", 0.0)
                             + med(lambda c: by_cycle[c].get("config.parse_config", 0.0)))
    out["cli.main_s"] = med(lambda c: total[c].get("cli.main", 0.0))
    out["analytic.calls"] = med(lambda c: calls[c].get("analytic.steady_state", 0))
    for key in COUNTS:
        out[key] = med(lambda c: tracer.counts.get(c, {}).get(key, 0))
    out["import.nit_sim_s"] = statistics.median(setup["import_s"])
    out["import.modules_loaded"] = statistics.median(setup["modules"])

    # per-call solve time at the pool's worker count over that at one worker
    def per_call(cs) -> float:
        n = sum(calls[c].get(k, 0) for c in cs for k in calls[c] if k.startswith("quantum.steady_state_dm"))
        t = sum(v for c in cs for k, v in total[c].items() if k.startswith("quantum.steady_state_dm"))
        return t / n if n else 0.0

    one = per_call([REFERENCE_CYCLE])
    out["spectra.pool_inflation"] = per_call(ids) / one if one else 0.0

    cycle_self = {c: by_cycle[c].get("cycle", 0.0) for c in ids}
    cycle_wall = {c: total[c].get("cycle", 0.0) for c in ids}
    out["trace.untraced_wall_s"] = statistics.median(c["wall"] for c in plain)
    out["trace.wall_s"] = statistics.median(c["wall"] for c in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.accounted_frac"] = med(lambda c: 1.0 - cycle_self[c] / cycle_wall[c])
    return out


def run(args, root: Path) -> int:
    src = root / "src"
    if not (src / "nit_sim" / "__init__.py").is_file():
        print(f"perfbench: no nit-sim sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    w_cls = WORKLOADS[args.workload]
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, root, src, w_cls, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, src, w_cls, out_dir, work) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["NIT_SIM_THREADS"] = os.environ["NIT_SIM_THREADS"] = w_cls.threads
    setup = measure_setup(args.workload, args.seed, env, root)

    sys.path.insert(0, str(src))
    from dataclasses import replace

    from nit_sim import analytic, config, meanfield, quantum, spectra

    nit = SimpleNamespace(parse_config=config.parse_config, replace=replace,
                          steady_state=analytic.steady_state, sweep=spectra.sweep,
                          analyze_windows=spectra.analyze_windows,
                          relax_many=meanfield.relax_many,
                          relax_to_steady_state=meanfield.relax_to_steady_state)
    api = SimpleNamespace(
        parse_config=config.parse_config, sweep=spectra.sweep,
        to_csv_text=spectra.to_csv_text, analyze_windows=spectra.analyze_windows,
        build_operators=quantum.build_operators, build_liouvillian=quantum.build_liouvillian,
        steady_state_dm=quantum.steady_state_dm, expectation=quantum.expectation)

    w = w_cls(args.seed, work, env, root)
    w.prepare(api)
    w.warm(api)
    after_rec = new_cycle()
    tracer = None
    if args.trace:
        plain, _ = measure(w, api, args.seconds / 2)
        tracer = tracing.Tracer()
        traced_api = SimpleNamespace(**vars(api))
        undo = tracing.install(tracer, spectra) + tracing.install(tracer, traced_api)
        try:
            tracer.cycle = SETUP_CYCLE
            w.prepare(traced_api)
            traced, period = measure(w, traced_api, args.seconds / 2, tracer)
            tracer.cycle = REFERENCE_CYCLE
            w.after(traced_api, after_rec)
        finally:
            tracing.uninstall(undo)
        cycles = plain + traced
    else:
        cycles, period = measure(w, api, args.seconds)
        w.after(api, after_rec)
    rss_mb = w.peak_rss_mb()

    try:
        ck = w.checks(cycles[0], nit)
    except Exception as exc:  # e.g. an output file missing or malformed
        ck = Checks()
        ck.add("outputs could be checked", False, f"{type(exc).__name__}: {exc}")
    ref = cycles[0]["digests"]
    ck.add(f"outputs identical in all {len(cycles)} cycles",
           all(c["digests"] == ref for c in cycles))
    failures = [f for c in cycles + [after_rec] for f in c["failures"]]
    attempted = sum(c["ops"] for c in cycles + [after_rec]) + len(ck.rows)
    failed = len(failures) + sum(not ok for _, ok, _ in ck.rows)

    if args.trace:
        values = per_layer(tracer, setup, plain, traced)
        units, notes = PER_LAYER, {}
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values, notes = end_to_end(setup, cycles, period, rss_mb)
        units = END_TO_END
    machine = machine_record(w_cls.threads)

    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, ok, detail in ck.rows:
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f" [{detail}]" if detail else ""))
    for f in failures:
        print(f"failed operation: {f}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} failed of {attempted} attempted)")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "metrics": values,
              "attempted": attempted, "failed": failed,
              "checks": ck.rows, "failures": failures, "digests": ref,
              "setup": setup, "cycle_walls": [c["wall"] for c in cycles],
              "latencies": [x for c in cycles for x in c["lat"]]}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="nit-sim benchmark (see the module docstring)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args(), Path.cwd()))

"""Detuning sweeps and response-window analysis.

A sweep evaluates the stationary driven-mode amplitude on a uniform detuning
grid with one of three backends (closed form, mean-field relaxation, full
master equation) and reports both quadratures plus the absorption
A = -Im<a>.  Points are independent.  The quantum backend solves them on a
pool of NIT_SIM_THREADS workers (default 1; the pool runs at every count),
which can change wall time but never values; the workers share one
generator, assembled once per sweep: a detuning only shifts its diagonal.
With both offsets zero and a real drive it solves only one point of each
mirror pair (d, -d) and builds the other by the exact conjugation symmetry
of the master equation (see ``quantum_expectations``).

Symmetric requests (delta_min == -delta_max, odd point count) get a grid
built by mirroring the non-negative half, so it is exactly symmetric in
floating point and the conjugation symmetry of the response survives to
the last bit.
"""

from __future__ import annotations

import logging
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .analytic import steady_state
from .errors import ConfigError, DomainError, NumericalError
from .meanfield import relax_many
from .model import HilbertSpec, SweepConfig, SystemParams, normalize
from .quantum import (
    build_liouvillian,
    build_operators,
    expectation,
    mirror_dm,
    steady_state_dm,
)

log = logging.getLogger(__name__)

CSV_HEADER = "delta_p,re_a,im_a,absorption"

MIN_WINDOW_POINTS = 51


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Stationary response <a> on a detuning grid, kappa_a units.  Its
    arrays are read-only."""

    detunings: np.ndarray
    a: np.ndarray
    backend: str
    params: SystemParams

    def __post_init__(self):
        for arr in (self.detunings, self.a):
            arr.flags.writeable = False

    @property
    def a_re(self) -> np.ndarray:
        return self.a.real

    @property
    def a_im(self) -> np.ndarray:
        return self.a.imag

    @cached_property
    def absorption(self) -> np.ndarray:
        """A = -Im<a>."""
        out = -self.a.imag
        out.flags.writeable = False
        return out

    @property
    def n_points(self) -> int:
        return self.detunings.shape[0]


def detuning_grid(delta_min: float, delta_max: float, n_points: int) -> np.ndarray:
    """Uniform grid; exactly mirror-symmetric when the request is."""
    if delta_min == -delta_max and n_points % 2 == 1:
        half = np.linspace(0.0, delta_max, (n_points + 1) // 2)
        return np.concatenate([-half[:0:-1], half])
    return np.linspace(delta_min, delta_max, n_points)


def worker_count() -> int:
    raw = os.environ.get("NIT_SIM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"NIT_SIM_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"NIT_SIM_THREADS must be >= 1, got {n}")
    return n


def quantum_expectations(base: SystemParams, grid, spec: HilbertSpec, operators) -> np.ndarray:
    """trace(op . rho) of each operator in the steady state of ``base`` at
    each detuning of ``grid``, as a (len(operators), len(grid)) array.

    The generator is assembled once, at delta_p = 0, and each point is
    solved as its detuning's shift of it (see ``steady_state_dm``) on
    NIT_SIM_THREADS workers that share it.  With both offsets zero and a
    real drive, a point d > 0 whose exact negation -d is also a point is not
    solved: the worker that solves -d builds its state as ``mirror_dm`` of
    that solution, which is exact, so the values are those of a direct
    solve to the last bit.  The solved points are submitted in grid order.
    A detuning grid never repeats a point; if ``grid`` does, the last point
    at -d is paired with the last at d and every other copy is solved, so
    each value still equals a direct solve.  A failure at any point cancels
    the points not yet started and is re-raised with its detuning attached.
    """
    workers = worker_count()  # a bad NIT_SIM_THREADS fails before any assembly
    shifts = [float(d) for d in grid]
    if not shifts:
        return np.empty((len(operators), 0), dtype=complex)
    base = replace(base, delta_p=0.0)
    liou = build_liouvillian(base, spec)
    liou.pieces  # built here, before the workers share the generator

    symmetric = (base.delta_b_offset == 0 and base.delta_q_offset == 0
                 and base.epsilon.imag == 0)
    where = {d: i for i, d in enumerate(shifts) if symmetric and d < 0}
    # solved point -> the point at its negation, built from its state
    partner = {where[-d]: j for j, d in enumerate(shifts) if -d in where}
    mirrored = set(partner.values())
    tasks = [i for i in range(len(shifts)) if i not in mirrored]
    log.debug("quantum_expectations: %d points, %d solves, %d mirrored",
              len(shifts), len(tasks), len(partner))
    out = [None] * len(shifts)

    def solve_point(i: int) -> None:
        d = shifts[i]
        try:
            rho = steady_state_dm(liou, shift=d)
            out[i] = [expectation(op, rho) for op in operators]
            if i in partner:
                d = -d
                rho = mirror_dm(liou, rho, d)
                out[partner[i]] = [expectation(op, rho) for op in operators]
        except NumericalError as exc:
            raise exc.__class__(f"at delta_p={d!r}: {exc}") from exc

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(solve_point, tasks))
    return np.array(out, dtype=complex).T


def sweep(cfg: SweepConfig) -> Spectrum:
    """Evaluate the stationary <a> over the configured grid.

    A failure at any single point aborts the sweep, re-raised with the
    offending detuning attached.
    """
    base = normalize(cfg.base)
    grid = detuning_grid(cfg.delta_min, cfg.delta_max, cfg.n_points)
    if cfg.backend == "quantum":
        spec = cfg.quantum_spec
        a = quantum_expectations(base, grid, spec, [build_operators(spec).a])[0]
    else:
        systems = [replace(base, delta_p=float(d)) for d in grid]
        if cfg.backend == "analytic":
            a = np.array([steady_state(s).a for s in systems], dtype=complex)
        else:  # relax_many reports the offending detuning itself on failure
            a = relax_many(systems)[0]
    return Spectrum(grid, a, cfg.backend, base)


def csv_text(header: str, rows) -> str:
    """CSV of numeric rows at 17 significant digits (round-trip exact for
    doubles), one newline-terminated line per row."""
    lines = [header]
    # perfbench/test_perfbench.py corrupts the output by editing '{ab:.17g}"'
    lines += [",".join([f"{ab:.17g}" for ab in row]) for row in rows]
    return "\n".join(lines) + "\n"


def to_csv_text(spectrum: Spectrum) -> str:
    """spectrum.csv: detuning, Re and Im <a>, and absorption at each point."""
    columns = (spectrum.detunings, spectrum.a_re, spectrum.a_im, spectrum.absorption)
    return csv_text(CSV_HEADER, zip(*(c.tolist() for c in columns)))


@dataclass(frozen=True)
class Peak:
    detuning: float
    height: float
    fwhm: float  # nan when a half-height crossing leaves the grid


@dataclass(frozen=True)
class Dip:
    detuning: float
    depth: float  # 1 - A_dip / (smaller neighboring peak height)


@dataclass(frozen=True)
class WindowReport:
    peaks: tuple[Peak, ...]
    dips: tuple[Dip, ...]
    asymmetry: float

    def to_dict(self) -> dict:
        return asdict(self)


def _refine(d: np.ndarray, a: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through three neighboring samples.

    Where the curvature or the squared difference overflows (samples past
    about 1e154), the vertex is found again on the samples scaled by 2^-e
    into [0.5, 1) and its height scaled back; a vertex that comes out finite
    the plain way keeps it."""
    with np.errstate(over="ignore", invalid="ignore"):
        denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
        if denom == 0.0:
            return float(d[i]), float(a[i])
        h = 0.5 * (d[i + 1] - d[i - 1])
        off = 0.5 * (a[i - 1] - a[i + 1]) / denom
        x = float(d[i] + off * h)
        top = float(a[i] - 0.125 * (a[i - 1] - a[i + 1]) ** 2 / denom)
    if math.isfinite(denom) and math.isfinite(top):
        return x, top
    near = a[i - 1 : i + 2]
    e = math.frexp(float(np.abs(near).max()))[1]
    x, top = _refine(d[i - 1 : i + 2], np.ldexp(near, -e), 1)
    with np.errstate(over="ignore"):
        return x, float(np.ldexp(top, e))


def _half_crossing(d, a, i_peak, half, step):
    """Linear-interpolated detuning where a falls to ``half``, walking from
    the peak in direction ``step``; nan if the grid runs out first."""
    j = i_peak
    while 0 <= j + step < len(a):
        k = j + step
        if a[k] <= half:
            frac = (half - a[j]) / (a[k] - a[j])
            return float(d[j] + frac * (d[k] - d[j]))
        j = k
    return math.nan


def analyze_windows(spectrum: Spectrum) -> WindowReport:
    """Locate peaks and dips of the absorption and their widths.

    Extrema sit where the first difference changes sign, zeros skipped (a
    run of equal samples counts once), refined by three-point parabolas;
    widths are half-height crossings found by linear interpolation.  The
    asymmetry figure is max |A(d) - A(-d)| over the mirror-paired points,
    normalized by the global maximum.
    """
    if spectrum.n_points < MIN_WINDOW_POINTS:
        raise DomainError(
            f"window analysis needs >= {MIN_WINDOW_POINTS} points, "
            f"got {spectrum.n_points}"
        )
    d, a = spectrum.detunings, spectrum.absorption
    slope = np.sign(np.diff(a))
    moving = np.flatnonzero(slope)
    # the last nonzero slope before each change of sign; an extremum that
    # spans a run of equal samples sits at the run's first sample
    turn = moving[np.flatnonzero(np.diff(slope[moving]))]
    peak_idx, dip_idx = turn[slope[turn] > 0] + 1, turn[slope[turn] < 0] + 1

    if not peak_idx.size:
        warnings.warn("degenerate spectrum: no interior maxima", stacklevel=2)

    peaks = []
    for i in peak_idx:
        x, h = _refine(d, a, i)
        half = 0.5 * h
        left = _half_crossing(d, a, i, half, -1)
        right = _half_crossing(d, a, i, half, +1)
        peaks.append(Peak(x, h, right - left))

    global_max = float(a.max())
    heights = [p.height for p in peaks]
    dips = []
    for i, k in zip(dip_idx, np.searchsorted(peak_idx, dip_idx)):
        x, v = _refine(d, a, i)
        # the nearer peak on each side of the dip, if there is one
        ref = min(heights[max(k - 1, 0) : k + 1], default=global_max)
        dips.append(Dip(x, 1.0 - v / ref if ref else math.nan))

    span = d[-1] - d[0]
    mirrored = np.abs(d + d[::-1]) <= 1e-9 * span
    if mirrored.any() and global_max > 0:
        asym = float(np.max(np.abs(a - a[::-1])[mirrored]) / global_max)
    else:
        asym = math.nan

    return WindowReport(tuple(peaks), tuple(dips), asym)


def dephasing_scan(base: SystemParams, gamma_phi_values) -> np.ndarray:
    """Absorption at zero probe detuning for each dephasing rate.

    Intended for the matched-coupling (lam == g) regime where the central
    feature sits at delta_p = 0; closed-form backend.
    """
    norm = normalize(base)
    if norm.lam != norm.g:
        warnings.warn(
            "dephasing scan is calibrated for lam == g (central peak at "
            f"delta_p = 0); got lam={norm.lam!r}, g={norm.g!r}",
            stacklevel=2,
        )
    systems = [replace(norm, delta_p=0.0, gamma_phi=float(gph)) for gph in gamma_phi_values]
    return -np.array([steady_state(s).a for s in systems], dtype=complex).imag

"""Detuning sweeps and response-window analysis.

A sweep evaluates the stationary driven-mode amplitude on a uniform detuning
grid with one of three backends (closed form, mean-field relaxation, full
master equation) and reports both quadratures plus the absorption
A = -Im<a>.  Points are independent.  The quantum backend solves them on a
pool of NIT_SIM_THREADS workers (default 1; the pool runs at every count),
which can change wall time but never values; the workers share one
generator, assembled once per sweep: a detuning only shifts its diagonal.

Symmetric requests (delta_min == -delta_max, odd point count) get a grid
built by mirroring the non-negative half, so it is exactly symmetric in
floating point and the conjugation symmetry of the response survives to
the last bit.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytic import steady_state
from .errors import ConfigError, DomainError, NumericalError, SingularityError
from .meanfield import relax_many
from .model import SystemParams, normalize
from .quantum import HilbertSpec, build_liouvillian, build_operators, expectation, steady_state_dm

CSV_HEADER = "delta_p,re_a,im_a,absorption"
BACKENDS = ("analytic", "meanfield", "quantum")

MIN_WINDOW_POINTS = 51


@dataclass(frozen=True)
class SweepConfig:
    base: SystemParams
    delta_min: float
    delta_max: float
    n_points: int
    backend: str = "analytic"
    quantum_spec: HilbertSpec | None = None

    def __post_init__(self):
        if not self.delta_min < self.delta_max:
            raise DomainError(
                f"need delta_min < delta_max, got [{self.delta_min!r}, {self.delta_max!r}]"
            )
        if self.n_points < 2:
            raise DomainError(f"n_points must be >= 2, got {self.n_points!r}")
        if self.backend not in BACKENDS:
            raise DomainError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Stationary response on a detuning grid, kappa_a units."""

    detunings: np.ndarray
    a_re: np.ndarray
    a_im: np.ndarray
    absorption: np.ndarray
    backend: str
    params: SystemParams
    quantum_spec: HilbertSpec | None = None

    @property
    def a(self) -> np.ndarray:
        return self.a_re + 1j * self.a_im

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


def _wrap_point_error(exc: NumericalError, delta_p: float) -> NumericalError:
    if isinstance(exc, SingularityError):
        return exc  # already carries the detuning
    return exc.__class__(f"at delta_p={delta_p!r}: {exc}")


def quantum_expectations(systems, spec: HilbertSpec, operators) -> np.ndarray:
    """trace(op . rho) of each operator in the steady state of each point,
    as a (len(operators), len(systems)) array.

    The points may differ only in delta_p.  Their generator is assembled
    once, at delta_p = 0, and each point is solved as its detuning's shift
    of it (see ``steady_state_dm``) on NIT_SIM_THREADS workers that share
    it.  A failure at any point cancels the points not yet started and is
    re-raised with its detuning attached.
    """
    base = replace(systems[0], delta_p=0.0)
    if any(replace(s, delta_p=0.0) != base for s in systems):
        raise DomainError("master-equation points must differ only in delta_p")
    liou = build_liouvillian(base, spec)

    def solve_point(sys_i: SystemParams) -> list[complex]:
        try:
            rho = steady_state_dm(liou, shift=sys_i.delta_p)
            return [expectation(op, rho) for op in operators]
        except NumericalError as exc:
            raise _wrap_point_error(exc, sys_i.delta_p) from exc

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        rows = list(pool.map(solve_point, systems))
    return np.array(rows, dtype=complex).T


def stationary_a(systems, backend: str, spec: HilbertSpec | None = None) -> np.ndarray:
    """Stationary <a> at each point by one backend; ``spec`` is the quantum
    truncation (default HilbertSpec())."""
    if backend == "analytic":
        return np.array([steady_state(s).a for s in systems], dtype=complex)
    if backend == "meanfield":
        # relax_many reports the offending detuning itself on failure
        return relax_many(systems)[0]
    spec = spec or HilbertSpec()
    return quantum_expectations(systems, spec, [build_operators(spec).a])[0]


def sweep(cfg: SweepConfig) -> Spectrum:
    """Evaluate the stationary <a> over the configured grid.

    A failure at any single point aborts the sweep, re-raised with the
    offending detuning attached.
    """
    base = normalize(cfg.base)
    grid = detuning_grid(cfg.delta_min, cfg.delta_max, cfg.n_points)
    systems = [replace(base, delta_p=float(d)) for d in grid]
    a_vals = stationary_a(systems, cfg.backend, cfg.quantum_spec)

    out = Spectrum(
        detunings=grid,
        a_re=a_vals.real.copy(),
        a_im=a_vals.imag.copy(),
        absorption=-a_vals.imag,
        backend=cfg.backend,
        params=base,
        quantum_spec=cfg.quantum_spec if cfg.backend == "quantum" else None,
    )
    for arr in (out.detunings, out.a_re, out.a_im, out.absorption):
        arr.flags.writeable = False
    return out


def to_csv_text(spectrum: Spectrum) -> str:
    """CSV at 17 significant digits (round-trip exact for doubles)."""
    lines = [CSV_HEADER]
    for d, re_, im_, ab in zip(
        spectrum.detunings, spectrum.a_re, spectrum.a_im, spectrum.absorption
    ):
        lines.append(f"{d:.17g},{re_:.17g},{im_:.17g},{ab:.17g}")
    return "\n".join(lines) + "\n"


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
        return {
            "peaks": [
                {"detuning": p.detuning, "height": p.height, "fwhm": p.fwhm}
                for p in self.peaks
            ],
            "dips": [{"detuning": d.detuning, "depth": d.depth} for d in self.dips],
            "asymmetry": self.asymmetry,
        }


def _refine(d: np.ndarray, a: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through three neighboring samples."""
    denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
    if denom == 0.0:
        return float(d[i]), float(a[i])
    h = 0.5 * (d[i + 1] - d[i - 1])
    off = 0.5 * (a[i - 1] - a[i + 1]) / denom
    return float(d[i] + off * h), float(a[i] - 0.125 * (a[i - 1] - a[i + 1]) ** 2 / denom)


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

    Extrema come from first-difference sign changes refined by three-point
    parabolas; widths are half-height crossings found by linear
    interpolation.  The asymmetry figure is max |A(d) - A(-d)| over the
    mirror-paired points, normalized by the global maximum.
    """
    if spectrum.n_points < MIN_WINDOW_POINTS:
        raise DomainError(
            f"window analysis needs >= {MIN_WINDOW_POINTS} points, "
            f"got {spectrum.n_points}"
        )
    d, a = spectrum.detunings, spectrum.absorption
    n = len(a)
    sign = np.sign(np.diff(a))

    peak_idx, dip_idx = [], []
    for i in range(1, n - 1):
        if sign[i - 1] > 0 and sign[i] < 0:
            peak_idx.append(i)
        elif sign[i - 1] < 0 and sign[i] > 0:
            dip_idx.append(i)

    if not peak_idx:
        warnings.warn("degenerate spectrum: no interior maxima", stacklevel=2)

    peaks = []
    for i in peak_idx:
        x, h = _refine(d, a, i)
        half = 0.5 * h
        left = _half_crossing(d, a, i, half, -1)
        right = _half_crossing(d, a, i, half, +1)
        peaks.append(Peak(x, h, right - left if not (math.isnan(left) or math.isnan(right)) else math.nan))

    global_max = float(a.max()) if n else math.nan
    dips = []
    for i in dip_idx:
        x, v = _refine(d, a, i)
        left_peaks = [p.height for p, j in zip(peaks, peak_idx) if j < i]
        right_peaks = [p.height for p, j in zip(peaks, peak_idx) if j > i]
        neighbors = ([left_peaks[-1]] if left_peaks else []) + (
            [right_peaks[0]] if right_peaks else []
        )
        ref = min(neighbors) if neighbors else global_max
        dips.append(Dip(x, 1.0 - v / ref if ref else math.nan))

    span = d[-1] - d[0]
    mirrored = np.abs(d + d[::-1]) <= 1e-9 * span
    if mirrored.any() and global_max > 0:
        asym = float(np.max(np.abs(a - a[::-1])[mirrored]) / global_max)
    else:
        asym = math.nan

    return WindowReport(tuple(peaks), tuple(dips), asym)


@dataclass(frozen=True)
class CompareReport:
    max_abs: float
    mean_abs: float
    max_rel: float


def compare(s1: Spectrum, s2: Spectrum) -> CompareReport:
    """Pointwise deviation of two spectra on the same grid."""
    if not np.array_equal(s1.detunings, s2.detunings):
        raise DomainError("spectra live on different detuning grids")
    diff = np.abs(s1.a - s2.a)
    mags = np.maximum(np.abs(s1.a), np.abs(s2.a))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(mags > 0, diff / mags, 0.0)
    return CompareReport(
        max_abs=float(diff.max()),
        mean_abs=float(diff.mean()),
        max_rel=float(rel.max()),
    )


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
    systems = [
        replace(norm, delta_p=0.0, gamma_phi=float(gph)) for gph in gamma_phi_values
    ]
    return -stationary_a(systems, "analytic").imag

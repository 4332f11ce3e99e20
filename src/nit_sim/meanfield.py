"""Dynamical route to the steady state: mean-field equations of motion.

With the single-excitation closure <b sigma_z> = -<b>, the three mean
amplitudes s = (<a>, <b>, <sigma_->) obey a linear-affine system

    ds/dt = J s + c,
    J = [[-i*Da,  i*lam,  0    ],
         [ i*lam, -i*Db, -i*g  ],
         [ 0,     -i*g,  -i*Dq ]],
    c = (-i*eps, 0, 0),

with the complex effective detunings Dj = delta_j - i*kappa_j/2.  The
closed-form module solves J s + c = 0 directly; this module reaches the
same point by integrating the flow, which keeps the two routes independent.

The integrator is an embedded Dormand-Prince 5(4) pair with per-step error
control.  It is written as a bank: a whole batch of independent parameter
points advances together through vectorized elementwise updates, each point
with its own step size and acceptance sequence.  No operation mixes points,
so a point's result is bit-identical whether it is integrated alone or
inside any batch -- this is what makes parameter sweeps deterministic
under any worker partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import effective_detunings
from .errors import ConvergenceError, DomainError, StiffnessError
from .model import SystemParams

# Dormand-Prince 5(4) tableau.  FSAL: stage 7 is the derivative at the
# accepted point and is reused as stage 1 of the next step.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_UNDERFLOW_FRACTION = 1e-14  # of the integration horizon

# integrate's step-error tolerances: local error per step <= rel*|s| + abs
INTEGRATE_REL_TOL = 1e-8
INTEGRATE_ABS_TOL = 1e-12
# relax_many: convergence tolerance on the residual, and time budget
RELAX_TOL = 1e-8
MAX_TIME = 1e5


@dataclass(frozen=True)
class MeanFieldState:
    """The three mean amplitudes at time t."""

    a: complex
    b: complex
    sigma_minus: complex
    t: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.sigma_minus], dtype=complex)


ZERO_STATE = MeanFieldState(0j, 0j, 0j, 0.0)


def drift(sys: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix J and affine term c of ds/dt = J s + c."""
    d = effective_detunings(sys)
    J = np.array(
        [
            [-1j * d.a, 1j * sys.lam, 0.0],
            [1j * sys.lam, -1j * d.b, -1j * sys.g],
            [0.0, -1j * sys.g, -1j * d.q],
        ],
        dtype=complex,
    )
    c = np.array([-1j * sys.epsilon, 0.0, 0.0], dtype=complex)
    return J, c


def _bank_arrays(systems: Sequence[SystemParams]):
    """The seven nonzero drift entries of a batch (J02 = J20 = 0), one
    contiguous row each, and the affine term c0."""
    drifts = [drift(s) for s in systems]
    J = np.array([j for j, _ in drifts], dtype=complex).reshape(-1, 3, 3)
    entries = ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2))
    rows = [J[:, r, c].copy() for r, c in entries]
    c0 = np.array([c[0] for _, c in drifts], dtype=complex)
    return rows, c0


def _run_bank(
    rows,
    c0,
    y0,
    *,
    horizon: float,
    resid_target,
    rel_tol: float,
    abs_tol: float,
    record=None,
):
    """Advance a bank of independent 3-component linear systems.

    A point stops once ||ds/dt||_2 falls to its ``resid_target`` (an (n,)
    array, or -inf for none) or once it lands on ``horizon``.  Returns
    (y, t, met): met marks the points that reached their target.  A step
    underflow raises StiffnessError with ``point``, the first point it hit.

    Every update below is elementwise in the point index; nothing couples
    points, which both parallelizes the sweep and pins its determinism.
    """
    J00, J01, J10, J11, J12, J21, J22 = rows
    n = c0.shape[0]

    def f(y):
        out = np.empty_like(y)
        out[0] = J00 * y[0] + J01 * y[1] + c0
        out[1] = J10 * y[0] + J11 * y[1] + J12 * y[2]
        out[2] = J21 * y[1] + J22 * y[2]
        return out

    def vec_norm(k):
        return np.sqrt(np.abs(k[0]) ** 2 + np.abs(k[1]) ** 2 + np.abs(k[2]) ** 2)

    y = np.array(y0, dtype=complex, copy=True)
    t = np.zeros(n)
    k1 = f(y)
    met = vec_norm(k1) <= resid_target

    # conservative first step from the row-sum bound on the spectral radius
    wmax = np.maximum(
        np.abs(J00) + np.abs(J01),
        np.maximum(
            np.abs(J10) + np.abs(J11) + np.abs(J12),
            np.abs(J21) + np.abs(J22),
        ),
    )
    h = np.minimum(0.1 / np.maximum(wmax, 1e-12), horizon)
    h_floor = _UNDERFLOW_FRACTION * horizon

    while True:
        active = ~met & (t < horizon)  # a landed point sits exactly on it
        if not active.any():
            break
        stalled = np.flatnonzero(active & (h < h_floor))
        if stalled.size:
            raise StiffnessError(
                f"step size underflowed below {h_floor:.3e} "
                f"(= {_UNDERFLOW_FRACTION:g} of the horizon {horizon:g})",
                point=int(stalled[0]),
            )

        h_step = np.where(active, np.minimum(h, horizon - t), 0.0)
        landed = h_step >= (horizon - t)  # this step reaches the horizon

        hs = h_step[np.newaxis, :]
        k2 = f(y + hs * (_A21 * k1))
        k3 = f(y + hs * (_A31 * k1 + _A32 * k2))
        k4 = f(y + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(y + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(y + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = f(y_new)

        err = hs * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(divide="ignore", invalid="ignore"):
            err_norm = np.sqrt(np.mean((np.abs(err) / scale) ** 2, axis=0))
        err_norm = np.where(np.isfinite(err_norm), err_norm, np.inf)

        accept = active & (err_norm <= 1.0)
        acc = accept[np.newaxis, :]
        y = np.where(acc, y_new, y)
        t = np.where(accept & landed, horizon, np.where(accept, t + h_step, t))
        k1 = np.where(acc, k7, k1)
        met |= accept & (vec_norm(k7) <= resid_target)

        with np.errstate(divide="ignore", over="ignore"):
            inv_root = _SAFETY * err_norm ** -0.2
        grow = np.where(
            err_norm > 0.0, np.minimum(_MAX_FACTOR, inv_root), _MAX_FACTOR
        )
        shrink = np.maximum(_MIN_FACTOR, inv_root)
        factor = np.where(accept, grow, np.where(active, shrink, 1.0))
        h = h * factor

        if record is not None and accept[0]:
            record.append((t[0], y[:, 0].copy()))

    return y, t, met


def integrate(s0: MeanFieldState, sys: SystemParams, t_end: float) -> list[MeanFieldState]:
    """Integrate the mean-field flow from ``s0`` to ``t_end``.

    Returns the accepted-step trajectory (including the initial state);
    times are strictly increasing and the last entry sits exactly at
    ``t_end``.  Local error per step is bounded by
    ``INTEGRATE_REL_TOL*|s| + INTEGRATE_ABS_TOL`` (1e-8 and 1e-12)
    componentwise (embedded 5(4) estimate).  Raises StiffnessError if the
    step size underflows 1e-14 of the span.
    """
    if not s0.t < t_end < np.inf:
        raise DomainError(f"t_end={t_end!r} must be finite and exceed s0.t={s0.t!r}")

    rows, c0 = _bank_arrays([sys])
    span = t_end - s0.t
    rec: list[tuple[float, np.ndarray]] = []
    _run_bank(
        rows,
        c0,
        s0.vector.reshape(3, 1),
        horizon=span,
        resid_target=-np.inf,
        rel_tol=INTEGRATE_REL_TOL,
        abs_tol=INTEGRATE_ABS_TOL,
        record=rec,
    )
    traj = [s0]
    traj.extend(
        MeanFieldState(v[0], v[1], v[2], s0.t + dt) for dt, v in rec
    )
    return traj


def _require_damped(sys: SystemParams) -> None:
    if sys.kappa_b <= 0 or sys.kappa_q <= 0:
        raise DomainError(
            "relaxation needs strict damping of every amplitude: "
            f"kappa_b={sys.kappa_b!r}, kappa_q={sys.kappa_q!r} "
            "(kappa_q = 2*gamma_phi + gamma)"
        )


def slowest_decay_rate(sys: SystemParams) -> float:
    """Smallest damping rate of the drift matrix, min(-Re eig J)."""
    J, _ = drift(sys)
    return float(np.min(-np.linalg.eigvals(J).real))


def relax_to_steady_state(sys: SystemParams) -> MeanFieldState:
    """Integrate from the zero state until the flow stalls.

    Convergence criterion: ||ds/dt||_2 <= RELAX_TOL * ||(eps, 0, 0)||_2,
    i.e. the residual is measured against the drive that feeds the system.
    The integration tolerances are slaved to RELAX_TOL (see relax_many).
    Raises ConvergenceError (reporting the slowest decay rate) if the
    criterion is not met within MAX_TIME.
    """
    out = relax_many([sys])
    a, b, sm, t = out[0, 0], out[1, 0], out[2, 0], out[3, 0].real
    return MeanFieldState(a, b, sm, t)


def relax_many(systems: Sequence[SystemParams]) -> np.ndarray:
    """Relax a batch of independent parameter points to their fixed points.

    Returns a (4, n) complex array: rows are the final <a>, <b>, <sigma_->
    and (real, as complex storage) the time each point needed.

    A point has converged once ||ds/dt||_2 <= RELAX_TOL*|eps| (RELAX_TOL =
    1e-8); the time budget is MAX_TIME (1e5).  The step-error tolerances
    are derived from RELAX_TOL (rel_tol = RELAX_TOL/100, abs_tol per point
    = RELAX_TOL*|eps|/100): near the fixed point the integrator's error
    floor is rel_tol*|s|, and the residual can only be certified below
    RELAX_TOL*|eps| if that floor sits well under the target.  The derived
    values depend on each point alone, never on the batch, so batching
    cannot change results.  ConvergenceError and StiffnessError name the
    delta_p of the first point that failed.
    """
    for s in systems:
        _require_damped(s)

    rows, c0 = _bank_arrays(systems)
    n = c0.shape[0]
    resid_target = RELAX_TOL * np.abs(c0)  # |c| = |eps|
    rel_tol = RELAX_TOL / 100.0
    abs_tol = np.clip(resid_target / 100.0, 1e-300, 1e-2)
    try:
        y, t, met = _run_bank(
            rows,
            c0,
            np.zeros((3, n), dtype=complex),
            horizon=MAX_TIME,
            resid_target=resid_target,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        )
    except StiffnessError as exc:
        raise StiffnessError(
            f"at delta_p={systems[exc.point].delta_p!r}: {exc}"
        ) from exc
    if not met.all():
        i = int(np.flatnonzero(~met)[0])
        rate = slowest_decay_rate(systems[i])
        raise ConvergenceError(
            f"no steady state within MAX_TIME={MAX_TIME:g} at "
            f"delta_p={systems[i].delta_p!r}; slowest decay rate is "
            f"{rate:.3e} (expect convergence on the scale of its inverse)"
        )
    return np.vstack([y, t.astype(complex)])

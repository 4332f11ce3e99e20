"""Closed-form steady state of the three coupled amplitudes.

In the linear (single-excitation) regime the stationary mean values of the
driven mode a, the ion motional mode b and the qubit coherence sigma_-
solve a 3x3 complex linear system.  Its solution in closed form:

    <a>  =  eps * (Db*Dq - g^2) / D
    <b>  =  eps * lam * Dq / D
    <s-> = -eps * lam * g / D
    D    =  g^2*Da + lam^2*Dq - Da*Db*Dq

with the complex effective detunings Dj = delta_j - i*kappa_j/2.  The
sigma_- sign follows from the stationarity relation Dq*<s-> = -g*<b>.

The absorption quadrature is reported as A = -Im<a>, which makes the
decoupled driven mode a positive Lorentzian of height 2|eps|/kappa_a.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainError, SingularityError
from .model import SystemParams

#: |D| below this is treated as an exact pole.
DENOMINATOR_FLOOR = 1e-300


@dataclass(frozen=True)
class EffectiveDetunings:
    """Complex detunings delta_j - i*kappa_j/2 for the three amplitudes."""

    a: complex
    b: complex
    q: complex


@dataclass(frozen=True)
class SteadyState:
    """Stationary mean amplitudes at one probe detuning."""

    a: complex
    b: complex
    sigma_minus: complex
    delta_p: float

    @property
    def absorption(self) -> float:
        return -self.a.imag


def effective_detunings(sys: SystemParams) -> EffectiveDetunings:
    """Assemble the three complex effective detunings from the rate set."""
    return EffectiveDetunings(
        a=complex(sys.delta_p, -0.5 * sys.kappa_a),
        b=complex(sys.delta_p + sys.delta_b_offset, -0.5 * sys.kappa_b),
        q=complex(sys.delta_p + sys.delta_q_offset, -0.5 * sys.kappa_q),
    )


def steady_state(sys: SystemParams) -> SteadyState:
    """Closed-form stationary amplitudes at the detuning stored in ``sys``.

    Raises SingularityError when |D| underflows the floor, which can only
    happen when every damping rate vanishes, and DomainError when D or an
    amplitude overflows a double (Da*Db*Dq does past |delta_p| ~ 5.6e102).
    """
    d = effective_detunings(sys)
    lam, g, eps = sys.lam, sys.g, sys.epsilon
    denom = g * g * d.a + lam * lam * d.q - d.a * d.b * d.q
    if not cmath.isfinite(denom):
        raise DomainError(f"response denominator overflows at delta_p={sys.delta_p!r}")
    if abs(denom) < DENOMINATOR_FLOOR:
        raise SingularityError(sys.delta_p)
    ss = SteadyState(
        a=eps * (d.b * d.q - g * g) / denom,
        b=eps * lam * d.q / denom,
        sigma_minus=-eps * lam * g / denom,
        delta_p=sys.delta_p,
    )
    if not all(cmath.isfinite(z) for z in (ss.a, ss.b, ss.sigma_minus)):
        raise DomainError(f"steady-state amplitudes overflow at delta_p={sys.delta_p!r}")
    return ss

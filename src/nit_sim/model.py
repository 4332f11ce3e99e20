"""System parameters and coupling-rate derivations.

Two parameter layers:

* :class:`SystemParams` -- the rates that enter the equations of motion
  (detunings, couplings, drive, damping), all in the same angular-frequency
  unit.  Backends expect the normalized form where ``kappa_a == 1``.
* :class:`PhysicalParams` -- SI device numbers (gap, voltages, masses,
  trap/resonator frequencies) from which the electrostatic coupling and the
  sideband coupling are derived.

Convention: every frequency-like quantity is an angular frequency.  Reported
magnitudes quoted as plain kHz/MHz are multiplied by 2*pi on ingestion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

from .errors import DomainError

# CODATA 2018 defaults
_Q_E = 1.602176634e-19       # elementary charge, C
_K_C = 8987551786.170797     # Coulomb constant 1/(4 pi eps0), N m^2 C^-2
_HBAR = 1.0545718176461565e-34  # J s

LAMB_DICKE_WARN = 0.1


@dataclass(frozen=True)
class SystemParams:
    """Rates of the driven resonator / ion-motion / qubit system.

    All fields share one angular-frequency unit.  ``delta_p`` is the common
    probe detuning; the ion-motion and qubit detunings are
    ``delta_p + delta_b_offset`` and ``delta_p + delta_q_offset``.
    ``epsilon`` is the (complex) drive amplitude.
    """

    delta_p: float
    lam: float
    g: float
    epsilon: complex
    kappa_a: float
    kappa_b: float
    gamma: float
    gamma_phi: float
    delta_b_offset: float = 0.0
    delta_q_offset: float = 0.0

    def __post_init__(self):
        if not self.kappa_a > 0:
            raise DomainError(f"kappa_a must be > 0, got {self.kappa_a!r}")
        for name in ("lam", "g", "kappa_b", "gamma", "gamma_phi"):
            v = getattr(self, name)
            if not v >= 0:
                raise DomainError(f"{name} must be >= 0, got {v!r}")
        object.__setattr__(self, "epsilon", complex(self.epsilon))

    @property
    def kappa_q(self) -> float:
        """Qubit coherence linewidth, 2*gamma_phi + gamma.  Never stored."""
        return 2.0 * self.gamma_phi + self.gamma


def normalize(sys: SystemParams) -> SystemParams:
    """Rescale all rates by kappa_a so that kappa_a == 1 exactly.

    Idempotent: normalizing a normalized set is the identity (division by
    1.0 is exact in IEEE arithmetic).
    """
    k = sys.kappa_a
    return replace(sys, **{f.name: getattr(sys, f.name) / k for f in fields(sys)})


@dataclass(frozen=True)
class PhysicalParams:
    """SI device parameters.

    d       : electrode-ion equilibrium gap, m
    V0      : bias voltage on the resonator electrode, V
    C0      : electrode capacitance, F
    M, m    : resonator and ion masses, kg
    omega   : resonator angular frequency, rad/s
    nu      : ion trap angular frequency, rad/s
    k_l     : laser wavenumber, 1/m
    Omega   : bare Rabi frequency of the ion drive, rad/s
    q_e, k_c, hbar : constants, overridable for unit experiments
    """

    d: float
    V0: float
    C0: float
    M: float
    m: float
    omega: float
    nu: float
    k_l: float
    Omega: float
    q_e: float = _Q_E
    k_c: float = _K_C
    hbar: float = _HBAR

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not v > 0:
                raise DomainError(f"{f.name} must be > 0, got {v!r}")


def derive_lambda(p: PhysicalParams) -> float:
    """Electrostatic coupling rate between resonator and ion motion, rad/s.

    Second-order expansion of the electrode-ion Coulomb energy
    k_c*q_e*V0*C0/(d + X - x) in the two displacements gives a bilinear
    term whose coefficient, expressed through the zero-point amplitudes,
    is

        lambda = k_c * q_e * V0 * C0 / (d^3 * sqrt(m*M*nu*omega)).
    """
    return p.k_c * p.q_e * p.V0 * p.C0 / (
        p.d ** 3 * math.sqrt(p.m * p.M * p.nu * p.omega)
    )


def lamb_dicke(p: PhysicalParams) -> float:
    """Lamb-Dicke parameter eta = k_l * sqrt(hbar / (2 m nu)).

    eta^2 equals the recoil-to-trap energy ratio hbar*k_l^2/(2 m nu).
    Warns (does not abort) when eta >= 0.1, where the first-order sideband
    expansion becomes questionable.
    """
    eta = p.k_l * math.sqrt(p.hbar / (2.0 * p.m * p.nu))
    if eta >= LAMB_DICKE_WARN:
        warnings.warn(
            f"Lamb-Dicke parameter eta={eta:.3g} >= {LAMB_DICKE_WARN}; "
            "first-sideband coupling derivation is marginal",
            stacklevel=2,
        )
    return eta

"""System parameters and coupling-rate derivations.

Two parameter layers:

* :class:`SystemParams` -- the rates that enter the equations of motion
  (detunings, couplings, drive, damping), all in the same angular-frequency
  unit.  Backends expect the normalized form where ``kappa_a == 1``.
* :class:`PhysicalParams` -- SI device numbers (gap, voltages, masses,
  trap/resonator frequencies) from which the electrostatic coupling and the
  sideband coupling are derived.

It also holds what a config names without running a backend: the backend
names, the master-equation truncation :class:`HilbertSpec` and the
detuning sweep :class:`SweepConfig`.  Neither this module nor ``analytic``
imports numpy.

Convention: every frequency-like quantity is an angular frequency.  Reported
magnitudes quoted as plain kHz/MHz are multiplied by 2*pi on ingestion.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass, fields, replace

from .errors import DomainError

# CODATA 2018 values
_Q_E = 1.602176634e-19       # elementary charge, C
_K_C = 8987551786.170797     # Coulomb constant 1/(4 pi eps0), N m^2 C^-2
_HBAR = 1.0545718176461565e-34  # J s

LAMB_DICKE_WARN = 0.1
BACKENDS = ("analytic", "meanfield", "quantum")
DIM2_CAP = 250_000  # superoperator dimension dim^2


@dataclass(frozen=True)
class SystemParams:
    """Rates of the driven resonator / ion-motion / qubit system.

    All fields share one angular-frequency unit.  ``delta_p`` is the common
    probe detuning; the ion-motion and qubit detunings are
    ``delta_p + delta_b_offset`` and ``delta_p + delta_q_offset``.
    ``epsilon`` is the (complex) drive amplitude.  Every field must be finite.
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
        for name, v in vars(self).items():
            if not cmath.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")

    @property
    def kappa_q(self) -> float:
        """Qubit coherence linewidth, 2*gamma_phi + gamma.  Never stored."""
        return 2.0 * self.gamma_phi + self.gamma


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation of the two bosonic modes; total dim = 2 * n_a * n_b."""

    n_a: int = 5
    n_b: int = 5

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) for n in (self.n_a, self.n_b)):
            raise DomainError(f"n_a, n_b must be integers, got {self.n_a!r}, {self.n_b!r}")
        if self.n_a < 2 or self.n_b < 2:
            raise DomainError(
                f"need at least two Fock levels per mode, got "
                f"n_a={self.n_a}, n_b={self.n_b}"
            )
        if self.dim * self.dim > DIM2_CAP:
            raise DomainError(
                f"superoperator dimension {self.dim}^2 = {self.dim**2} "
                f"exceeds the cap {DIM2_CAP}"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n_a * self.n_b


@dataclass(frozen=True)
class SweepConfig:
    """A uniform detuning grid, the system swept over it and its backend."""

    base: SystemParams
    delta_min: float
    delta_max: float
    n_points: int
    backend: str = "analytic"
    quantum_spec: HilbertSpec | None = None

    def __post_init__(self):
        bounds = f"[{self.delta_min!r}, {self.delta_max!r}]"
        if not (math.isfinite(self.delta_min) and math.isfinite(self.delta_max)):
            raise DomainError(f"grid bounds must be finite, got {bounds}")
        if not self.delta_min < self.delta_max:
            raise DomainError(f"need delta_min < delta_max, got {bounds}")
        if not math.isfinite(self.delta_max - self.delta_min):
            raise DomainError(f"grid span delta_max - delta_min overflows, got {bounds}")
        if not isinstance(self.n_points, numbers.Integral):
            raise DomainError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise DomainError(f"n_points must be >= 2, got {self.n_points!r}")
        if self.backend not in BACKENDS:
            raise DomainError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        # the truncation a quantum sweep solves at, and None for the others
        spec = (self.quantum_spec or HilbertSpec()) if self.backend == "quantum" else None
        object.__setattr__(self, "quantum_spec", spec)


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

    The elementary charge, Coulomb constant and hbar are the fixed CODATA
    2018 values ``_Q_E``, ``_K_C`` and ``_HBAR``.
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

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0 < v < math.inf:
                raise DomainError(f"{f.name} must be finite and > 0, got {v!r}")


def derive_lambda(p: PhysicalParams) -> float:
    """Electrostatic coupling rate between resonator and ion motion, rad/s.

    Second-order expansion of the electrode-ion Coulomb energy
    k_c*q_e*V0*C0/(d + X - x) in the two displacements gives a bilinear
    term whose coefficient, expressed through the zero-point amplitudes,
    is

        lambda = k_c * q_e * V0 * C0 / (d^3 * sqrt(m*M*nu*omega)).
    """
    return _K_C * _Q_E * p.V0 * p.C0 / (
        p.d ** 3 * math.sqrt(p.m * p.M * p.nu * p.omega)
    )


def lamb_dicke(p: PhysicalParams) -> float:
    """Lamb-Dicke parameter eta = k_l * sqrt(hbar / (2 m nu)).

    eta^2 equals the recoil-to-trap energy ratio hbar*k_l^2/(2 m nu).
    Warns (does not abort) when eta >= 0.1, where the first-order sideband
    expansion becomes questionable.
    """
    eta = p.k_l * math.sqrt(_HBAR / (2.0 * p.m * p.nu))
    if eta >= LAMB_DICKE_WARN:
        warnings.warn(
            f"Lamb-Dicke parameter eta={eta:.3g} >= {LAMB_DICKE_WARN}; "
            "first-sideband coupling derivation is marginal",
            stacklevel=2,
        )
    return eta

"""Steady-state transparency spectra of a driven nanomechanical mode
coupled to a trapped ion's motion and internal qubit.

Three mutually validating backends compute the stationary response:
closed-form expressions (`analytic`), integration of the mean-field
equations of motion (`meanfield`), and the full master equation on a
truncated Fock space (`quantum`).  `spectra` sweeps detuning grids and
extracts transparency-window metrics; `cli` exposes everything as the
`nit-sim` command.
"""

__version__ = "0.1.0"

from .analytic import EffectiveDetunings, SteadyState, effective_detunings, steady_state
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSteadyStateError,
    DomainError,
    NumericalError,
    SingularityError,
    SolverError,
    StiffnessError,
)
from .meanfield import (
    MeanFieldState,
    ZERO_STATE,
    integrate,
    relax_many,
    relax_to_steady_state,
)
from .model import (
    PhysicalParams,
    SystemParams,
    derive_lambda,
    lamb_dicke,
    normalize,
)
from .quantum import (
    DensityMatrix,
    HilbertSpec,
    Liouvillian,
    OperatorSet,
    build_hamiltonian,
    build_liouvillian,
    build_operators,
    evolve,
    expectation,
    rwa_error_probe,
    steady_state_dm,
    trace_distance,
    vacuum_state,
)
from .spectra import (
    Spectrum,
    SweepConfig,
    WindowReport,
    analyze_windows,
    dephasing_scan,
    detuning_grid,
    sweep,
    to_csv_text,
)


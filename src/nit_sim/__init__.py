"""Steady-state transparency spectra of a driven nanomechanical mode
coupled to a trapped ion's motion and internal qubit.

Three mutually validating backends compute the stationary response:
closed-form expressions (`analytic`), integration of the mean-field
equations of motion (`meanfield`), and the full master equation on a
truncated Fock space (`quantum`).  `spectra` sweeps detuning grids and
extracts transparency-window metrics; `cli` exposes everything as the
`nit-sim` command.

The names below are imported from their modules on first use (PEP 562),
so `import nit_sim` and the closed-form commands load no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analytic": ("EffectiveDetunings", "SteadyState", "effective_detunings", "steady_state"),
    "errors": (
        "ConfigError",
        "ConvergenceError",
        "DegenerateSteadyStateError",
        "DomainError",
        "NumericalError",
        "SingularityError",
        "SolverError",
        "StiffnessError",
    ),
    "meanfield": (
        "MeanFieldState",
        "ZERO_STATE",
        "integrate",
        "relax_many",
        "relax_to_steady_state",
    ),
    "model": (
        "HilbertSpec",
        "PhysicalParams",
        "SweepConfig",
        "SystemParams",
        "derive_lambda",
        "lamb_dicke",
        "normalize",
    ),
    "quantum": (
        "DensityMatrix",
        "Liouvillian",
        "OperatorSet",
        "build_hamiltonian",
        "build_liouvillian",
        "build_operators",
        "evolve",
        "expectation",
        "rwa_error_probe",
        "steady_state_dm",
        "trace_distance",
        "vacuum_state",
    ),
    "spectra": (
        "Spectrum",
        "WindowReport",
        "analyze_windows",
        "dephasing_scan",
        "detuning_grid",
        "sweep",
        "to_csv_text",
    ),
}
# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

"""Exception hierarchy.

Three top-level families so the CLI can map failures to exit codes:
configuration problems (exit 2), numerical problems (exit 3), and I/O
problems (exit 4).
"""


class DomainError(ValueError):
    """A parameter or argument is outside its allowed domain."""


class ConfigError(ValueError):
    """A config file failed to parse or validate.

    Messages name the offending key and line where possible.
    """


class NumericalError(RuntimeError):
    """Base class for failures of the numerical machinery."""


class SingularityError(NumericalError):
    """The response denominator vanished at some detuning."""

    def __init__(self, delta_p: float):
        self.delta_p = delta_p
        super().__init__(
            f"response denominator vanished at delta_p={delta_p!r}; "
            "the system has no damping at this point"
        )


class StiffnessError(NumericalError):
    """Adaptive step size underflowed; the problem is too stiff at this tolerance.

    ``point`` is the index of the first point of a batch that underflowed.
    """

    def __init__(self, message: str, point: int | None = None):
        self.point = point
        super().__init__(message)


class ConvergenceError(NumericalError):
    """Relaxation did not reach the residual target within the time budget."""


class DegenerateSteadyStateError(NumericalError):
    """The generator has more than one steady direction; no unique fixed point."""


class SolverError(NumericalError):
    """A linear solve produced an unacceptable residual."""

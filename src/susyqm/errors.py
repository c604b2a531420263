"""Exception hierarchy shared across the package, and its one range check.

Two families matter at the CLI boundary: configuration problems
(exit code 2) and numerical contract violations (exit code 3).
"""


class SusyqmError(Exception):
    """Base class for all package errors."""


class ParameterError(SusyqmError, ValueError):
    """A constructor or command received parameters violating a precondition."""


def require_positive(name: str, value: float):
    """Refuse a parameter that is not positive and finite, naming it in the message."""
    if not 0 < value < float("inf"):
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")


class PotentialEvaluationError(SusyqmError, ValueError):
    """A potential evaluated to a non-finite value at a grid point."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(f"potential is not finite at x = {x!r} (value {value!r})")


class NumericalContractError(SusyqmError, RuntimeError):
    """A numerical invariant that should hold by construction was violated."""


class DirichletAlgebraError(ParameterError):
    """The six-criteria algebra check was requested for a Dirichlet-grid model.

    Truncated boundary stencils break the exact anticommutation of the
    momentum and parity operators near the walls, so machine-precision
    algebra checks are only meaningful on periodic grids (or the rotor
    basis). Dirichlet models get spectral checks instead.
    """

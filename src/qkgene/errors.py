"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so every stage raises one of
the three families below instead of bare ValueError where the failure is
user-visible: ConfigError for bad settings, DataError for bad input data,
NumericalError for failures of the numerical machinery itself.
check_integer is the shared check, of the config and of the stage
settings, that a count is an integer.
"""
import numbers


class ConfigError(ValueError):
    """A configuration key, value, or combination is invalid."""


class DataError(ValueError):
    """Input data violates a contract (shape, labels, parse failure)."""


class NumericalError(RuntimeError):
    """A numerical routine failed (rank deficiency, non-convergence)."""


class ConvergenceError(NumericalError):
    """An iterative solver hit its update budget before converging."""

    def __init__(self, message: str, kkt_violation: float | None = None):
        super().__init__(message)
        self.kkt_violation = kkt_violation


def check_integer(name: str, value) -> None:
    """Raise ConfigError naming the setting unless value is an integer, and
    not a bool. A float count would construct and then fail inside numpy,
    with a traceback."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")

"""Exception hierarchy shared across the package, and the settings checks.

The CLI maps these onto process exit codes, so every stage raises one of
the three families below instead of bare ValueError where the failure is
user-visible: ConfigError for bad settings, DataError for bad input data,
NumericalError for failures of the numerical machinery itself.
A setting's default and rule, a (check, wording) pair that NaN fails, live
on the setting() field of the stage class that consumes it; check_settings
and check_span enforce the rule, and PipelineConfig reuses both by dotted key.
"""
import math
import numbers
from dataclasses import field, fields


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


def at_least(low):
    return (lambda v: v >= low), f"must be at least {low}"


def between(low, high):
    return (lambda v: low < v < high), f"must lie strictly between {low} and {high}"


def within(low, high):
    return (lambda v: low <= v <= high), f"must lie in [{low}, {high}]"


def one_of(*choices):
    return (lambda v: v in choices), "must be " + " or ".join(map(repr, choices))


POSITIVE = (lambda v: v > 0), "must be positive"


def setting(default, check=None, rule: str = "", **metadata):
    """A settings field: its default (dataclasses.MISSING for none) and a rule."""
    return field(default=default, metadata={"check": check, "rule": rule, **metadata})


def rule_of(cls, name: str):
    """The (check, wording) rule of settings class cls's field `name`; (None, "") for none."""
    meta = cls.__dataclass_fields__[name].metadata
    return meta.get("check"), meta.get("rule", "")


def check_integer(name: str, value) -> None:
    """Raise ConfigError naming the setting unless value is an integer, and
    not a bool. A float count would construct and then fail inside numpy,
    with a traceback."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_settings(obj, names=None) -> None:
    """Raise ConfigError, naming the field as names maps it or else by its
    own name, unless each int field of the dataclass obj is an integer,
    each float field is finite and each field passes its rule."""
    for f in fields(obj):
        name, value = (names or {}).get(f.name, f.name), getattr(obj, f.name)
        if f.type == "int":  # the package postpones annotations: a type is its name
            check_integer(name, value)
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite")
        if f.metadata.get("check") and not f.metadata["check"](value):
            raise ConfigError(f"{name} {f.metadata['rule']}")


def check_span(lo_name: str, hi_name: str, lo, hi) -> None:
    """Raise ConfigError unless hi exceeds lo by a finite width."""
    if not hi > lo:
        raise ConfigError(f"{hi_name} must exceed {lo_name}")
    if not math.isfinite(float(hi) - float(lo)):  # numpy scalars would warn on overflow
        raise ConfigError(f"{hi_name} - {lo_name} must be finite")

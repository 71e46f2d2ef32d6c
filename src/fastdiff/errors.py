"""Exception types shared across the package, and the one definition of
each check on outside input: configs, mixture files, sample sidecars and
regressor metadata are read through `typed`, `checked` and `int_at_least`,
which raise `ValidationError` naming the field and an abbreviated value.
Library constructors keep their own guards."""

import reprlib
import sys

NUMBER = (int, float)
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               NUMBER: "a number", int: "an integer", bool: "a boolean"}


class ConstructionError(ValueError):
    """A schedule or model could not be built from the given inputs."""


class ValidationError(ValueError):
    """A config or input file failed validation before any work started."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class NumericError(ArithmeticError):
    """A numerical operation produced an invalid result (NaN, negative
    eigenvalue beyond the clamp threshold, ...)."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InsufficientDataError(ValueError):
    """Too few samples for the requested estimate."""


class TrainingError(RuntimeError):
    """Training diverged; carries the loss trace up to the failure."""

    def __init__(self, message, loss_trace=None):
        super().__init__(message)
        self.loss_trace = loss_trace


def typed(name, value, kind):
    """`value` if it is an instance of `kind` (a key of _TYPE_NAMES); a
    boolean is not a number, and a number must fit a float."""
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise ValidationError(
            f"{name} must be {_TYPE_NAMES[kind]}, got {reprlib.repr(value)}")
    # a JSON integer is unbounded, and float() of a huge one overflows
    if kind is NUMBER and isinstance(value, int) \
            and abs(value) > sys.float_info.max:
        raise ValidationError(
            f"{name} must fit a float, got {reprlib.repr(value)}")
    return value


def checked(name, value, allowed):
    """`value` if it is in `allowed`; a range admits integers only."""
    if isinstance(allowed, range):
        typed(name, value, int)
    if value not in allowed:
        raise ValidationError(
            f"{name} must be one of {allowed}, got {reprlib.repr(value)}")
    return value


def int_at_least(name, value, low):
    """`value` if it is an integer >= `low`."""
    if typed(name, value, int) < low:
        raise ValidationError(f"{name} must be >= {low}, got {value!r}")
    return value

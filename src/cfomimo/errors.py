"""Exception types shared across the package, the rule that converts a
config value to a number or rejects it, and the rule for size arguments."""

from numbers import Integral


class ParameterError(ValueError):
    """A constructor or operation was given inconsistent or invalid parameters."""


class ModelError(ValueError):
    """A statistical model is invalid (non-Hermitian or non-PSD covariance, bad range)."""


class NumericalError(RuntimeError):
    """A linear-algebra step is too ill-conditioned to trust.

    Carries an estimate of the offending condition number when available.
    """

    def __init__(self, message, condition=None):
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)
        self.condition = condition


class EstimationError(RuntimeError):
    """The frequency-offset search could not produce any usable candidate."""


def _coerce(name: str, value, kind):
    """value converted by kind (int or float).  Strings that spell a number
    are accepted; booleans and values the conversion would change (2.5 for
    an integer) are not."""
    try:
        out = kind(value)
    except (TypeError, ValueError):
        out = None
    if out is None or isinstance(value, bool) or (
            not isinstance(value, str) and out != value and out == out):
        raise ParameterError(f"{name} must be {kind.__name__}, got {value!r}")
    return out


def _check_int(name: str, value, low: int = 1, error=ParameterError):
    """Raise error unless value is an integer (a bool is not) >= low."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")

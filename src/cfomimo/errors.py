"""Exception types shared across the package, and the input rules that
every module applies: _coerce converts a config value to a number or
rejects it, _check_int checks a size argument, and _array copies an array
a caller passes in and checks its shape and that its entries are finite.
Each rule raises the error its caller names, ParameterError unless told
otherwise, with a message that names the input."""

from numbers import Integral

import numpy as np


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


def _array(name: str, value, shape: tuple, dtype=np.complex128, error=ParameterError):
    """value copied into a new array of dtype.  Raise error unless it
    converts, has shape (None allows any length on its axis) and has
    finite entries; the message names the input and gives the expected and
    actual shapes."""
    try:
        out = np.array(value, dtype=dtype)
    except (TypeError, ValueError):
        raise error(f"{name} must be an array of numbers, got {type(value).__name__}") from None
    if out.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, out.shape)):
        raise error(f"{name} must have shape {str(shape).replace('None', 'any')}, "
                    f"got {out.shape}")
    if not np.isfinite(out).all():
        raise error(f"{name} has non-finite entries")
    return out

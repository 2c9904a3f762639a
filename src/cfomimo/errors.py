"""Exception types shared across the package, and the input rules that
every module applies: _coerce converts a scalar, such as a config value or
a power, to a number or rejects it, _check_int checks a size argument, and
_array copies an array a caller passes in and checks its shape and that its
entries are finite and, where real numbers are asked for, real.  The offset
rule, channel._offsets, reads every frequency offset through _array: one
real number for every receive antenna, or one per antenna.  Each rule
raises the error its caller names, ParameterError unless told otherwise,
with a message that names the input."""

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


def _coerce(name: str, value, kind, error=ParameterError):
    """value converted by kind (int or float).  Strings that spell a number
    are accepted; booleans, complex numbers and values the conversion would
    change (2.5 for an integer) are not."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool) or (
            not isinstance(value, str) and out != value and out == out):
        raise error(f"{name} must be {kind.__name__}, got {value!r}")
    return out


def _check_int(name: str, value, low: int = 1, error=ParameterError):
    """Raise error unless value is an integer (a bool is not) >= low."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def _array(name: str, value, shape: tuple | None, dtype=np.complex128, error=ParameterError):
    """value copied into a new array of dtype.  Raise error unless it
    converts (a ragged list does not, nor a complex value where dtype is
    real), has shape (None for any shape, or None on an axis for any length
    there) and has finite entries; the message names the input and gives
    the expected and actual shapes."""
    try:
        raw = np.asarray(value)
        # a complex value where real numbers are asked for is refused by
        # name, not cast with numpy's ComplexWarning
        out = (None if raw.dtype.kind == "c" and np.dtype(dtype).kind != "c"
               else np.array(raw, dtype=dtype))
    except (TypeError, ValueError):
        raise error(f"{name} must be an array of numbers, got {type(value).__name__}") from None
    if out is None:
        raise error(f"{name} must be real, got complex values")
    if shape is not None and (out.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, out.shape))):
        raise error(f"{name} must have shape {str(shape).replace('None', 'any')}, "
                    f"got {out.shape}")
    if not np.isfinite(out).all():
        raise error(f"{name} has non-finite entries")
    return out

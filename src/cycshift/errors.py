"""Exception types and the one owner of each argument rule.

:func:`real_array` turns an array argument into float64 values
(:func:`real_rows` also hands back the peak of each row, and
:func:`real_floats` leaves the finiteness test to its caller: to a sum
the caller takes anyway, or to bench's SNR grid, where +inf is the
noiseless sentinel),
:func:`as_index` turns an index argument into an int in range,
:func:`as_tuple` takes the items of a sequence argument,
:func:`finite` tells whether values hold no NaN or infinity,
:func:`finite_result` refuses a result that does, naming its input if
the NaN or infinity came from there, and
:func:`peak` reads the largest magnitude of a real array;
:func:`real_rows` reads finiteness off the peaks it hands back, so an
input whose peaks are wanted is read once. No other module restates
these rules. Each error names the argument at fault.
"""

import operator
from math import isfinite

import numpy as np


class IdentifiabilityError(ValueError):
    """The requested quantity cannot be identified from the given data.

    Raised when no spectral bin carries usable, disambiguating
    information: zero bins, indices that are not coprime with the signal
    length, or measurement sets whose every bin was dropped. The CLI
    maps this exception to exit code 2.
    """


def peak(a: np.ndarray, axis=None):
    """The largest |value| of ``a``: over the whole array, or along the last axis for ``axis=-1``.

    The one read of an array's magnitudes: max and min propagate NaN and
    reach any infinity, so the peak is not finite exactly when ``a``
    holds a NaN or an infinity, and no temporary the size of ``a`` is
    made. ``a`` is a real float array; an empty span peaks at 0.
    """
    hi, lo = a.max(axis, initial=0.0), -a.min(axis, initial=0.0)
    # A NaN reaches both or neither, so the plain max suffices for one peak (and is faster).
    return np.maximum(hi, lo) if hi.ndim else max(hi, lo)


def finite(values) -> bool:
    """Whether ``values`` (a float, or floats or complex values in an array or sequence) are all finite.

    The one finiteness test. A float is tested directly, as the zero
    rule's scale and a one-pair score often are. Anything else goes
    through numpy's isfinite, which with its boolean temporary costs
    less than the max and min of :func:`peak` at every size timed (4 to
    2**20 values), where no peak is wanted.
    """
    return isfinite(values) if isinstance(values, float) else bool(np.isfinite(values).all())


def require_finite(values, what: str):
    """``values``, or ValueError naming ``what`` if they hold a NaN or an infinity.

    Non-finite input has no meaningful shift: left unchecked it yields
    an arbitrary estimate (often shift 0) with no flag.
    """
    if not finite(values):
        raise ValueError(f"{what} contains NaN or infinite values")
    return values


def finite_result(out, what: str, values, name: str):
    """``out``, computed from ``values``, or ValueError if it holds a NaN or an infinity.

    The error names ``values`` as ``name`` when they hold a NaN or an
    infinity themselves, and ``what`` otherwise: finite values whose
    sums overflow. ``values`` are read only on that refusal path.
    """
    if not finite(out):
        raise ValueError(f"{what} is not finite" if finite(values) else f"{name} contains NaN or infinite values")
    return out


def _asarray(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values)
    except ValueError:  # numpy's message for a ragged sequence names no argument
        raise ValueError(f"{what} must be rectangular, got a ragged nested sequence") from None


def real_rows(values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`real_array` of ``values`` and the :func:`peak` of each row, from one read.

    The peaks are taken along the last axis, so one signal has one and a
    (B, n) stack one per row (0 for an empty row); the finiteness test
    is read off them.
    """
    arr = real_floats(values, what)
    peaks = peak(arr, -1 if arr.ndim else None)
    # A peak is >= 0 or NaN, so the largest tests them all (a stack of no rows has none);
    # one signal's peak is a float already.
    require_finite(peaks.max(initial=0.0) if peaks.ndim else peaks, what)
    return arr, peaks


def real_floats(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, their finiteness not yet read, or ValueError naming ``what``.

    Only boolean, integer and real floating values pass; every other
    dtype is refused, not cast: a complex one would lose its imaginary
    part, and strings, None and other objects are not numbers (only
    :mod:`cycshift.fileio` turns text into values), and neither is a
    ragged nested sequence. NaN and infinities pass: a caller that sums
    the squares of the values anyway reads them from that sum, as a
    finite sum holds no NaN or infinity, and only a sum that is not
    finite needs :func:`real_array` to read the values and name the
    fault. A float64 array is returned as it is, not copied.
    """
    arr = _asarray(values, what)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real, got {arr.dtype} values")
    return arr.astype(np.float64, copy=False)


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, or ValueError naming ``what``.

    Only boolean, integer and real floating values pass
    (:func:`real_floats`); NaN and infinities are refused too. A
    float64 array is returned as it is, not copied.
    """
    return require_finite(real_floats(values, what), what)


def as_tuple(values, what: str) -> tuple:
    """The items of a sequence argument, or ValueError naming ``what``.

    A string is refused as a whole rather than split into characters, as
    is anything that is not a sequence (a number, None) and a ragged
    nested sequence.
    """
    if _asarray(values, what).ndim == 0:
        raise ValueError(f"{what} must be a sequence, got {values!r}")
    return tuple(values)


def as_index(value, what: str, lo: int = 0, hi: int | None = None) -> int:
    """``value`` as an int with lo <= value < hi (no upper bound if ``hi`` is None).

    Python and numpy integers pass. A float, even a whole one, a string
    or anything else without ``__index__`` raises ValueError naming
    ``what``, as does a value out of range: an index is never rounded.
    """
    try:
        i = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if i < lo or (hi is not None and i >= hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi - 1}"
        raise ValueError(f"{what} must be {bound}, got {i}")
    return i

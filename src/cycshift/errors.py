"""Exception types and the one owner of each argument rule.

:func:`real_array` turns an array argument into float64 values and
:func:`as_index` turns an index argument into an int in range; no other
module restates either rule. Each error names the argument at fault.
"""

import operator

import numpy as np


class IdentifiabilityError(ValueError):
    """The requested quantity cannot be identified from the given data.

    Raised when no spectral bin carries usable, disambiguating
    information: zero bins, indices that are not coprime with the signal
    length, or measurement sets whose every bin was dropped. The CLI
    maps this exception to exit code 2.
    """


def require_finite(values, what: str) -> None:
    """Raise ValueError if ``values`` holds a NaN or an infinity.

    Non-finite input has no meaningful shift: left unchecked it yields
    an arbitrary estimate (often shift 0) with no flag.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{what} contains NaN or infinite values")


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, or ValueError naming ``what``.

    Complex values are refused, not cast: a cast would drop the
    imaginary part. NaN and infinities are refused too. A float64 array
    is returned as it is, not copied.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got {arr.dtype} values")
    arr = arr.astype(np.float64, copy=False)
    require_finite(arr, what)
    return arr


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

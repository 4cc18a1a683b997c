"""Exception types and input checks shared across the estimation modules."""

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

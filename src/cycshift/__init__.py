"""Cyclic-shift retrieval toolkit.

Estimate the circular shift between two signals with the classic
cross-correlation peak, a spectral-ratio impulse, a single frequency
bin, or compressed partial-Fourier measurements, all built on one
unitary-DFT convention and a circulant-matrix core. Brute-force
oracles, a Monte-Carlo benchmark harness and a CLI are included.
"""

from .circulant import Circulant, ls_circulant_fit, make_shift
from .compressive import (
    Measurement,
    SensingReport,
    SensingSet,
    check_sensing_conditions,
    embed,
    measure,
    shift_by_compressive_argmax,
    shift_by_compressive_ratio,
)
from .errors import IdentifiabilityError
from .retrieval import (
    AffineShiftModel,
    ShiftEstimate,
    select_bin,
    shift_affine,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)
from .spectral import dft, dft_entry, fourier_column, idft
from . import compressive, retrieval

__version__ = "0.1.0"

# Method name -> (module, estimator name, whether it takes measurements).
# The estimator is looked up on its module at each call, never stored,
# so whoever rebinds the module attribute (a tracer, a test stub) is seen.
# The table lives in the package itself, which every command loads, so
# `cycshift retrieve` imports neither cycshift.bench nor csv.
METHOD_TABLE = {
    "crosscorr": (retrieval, "shift_by_crosscorr", False),
    "ratio": (retrieval, "shift_by_ratio", False),
    "single_bin": (retrieval, "shift_single_bin", False),
    "compressive_argmax": (compressive, "shift_by_compressive_argmax", True),
    "compressive_ratio": (compressive, "shift_by_compressive_ratio", True),
}
METHODS = tuple(METHOD_TABLE)


def estimate(method: str, x, y, *args):
    """Run ``method``'s estimator on reference x and shifted y (signals or measurements).

    Measurement estimators take (z, v), the measurements of y and x.
    """
    module, name, measured = METHOD_TABLE[method]
    return getattr(module, name)(*((y, x) if measured else (x, y)), *args)


__all__ = [
    "__version__",
    "IdentifiabilityError",
    "dft",
    "idft",
    "fourier_column",
    "dft_entry",
    "Circulant",
    "make_shift",
    "ls_circulant_fit",
    "ShiftEstimate",
    "AffineShiftModel",
    "shift_by_crosscorr",
    "shift_by_ratio",
    "select_bin",
    "shift_single_bin",
    "shift_affine",
    "SensingSet",
    "Measurement",
    "SensingReport",
    "measure",
    "embed",
    "check_sensing_conditions",
    "shift_by_compressive_argmax",
    "shift_by_compressive_ratio",
]

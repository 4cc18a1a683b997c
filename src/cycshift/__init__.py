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

__version__ = "0.1.0"

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

"""Shift retrieval from partial-Fourier measurements.

A measurement keeps only m <= n entries of the unitary spectrum, chosen
by a :class:`SensingSet` of frequency indices. Because cyclic delays
act on each spectral entry as a pure phase, the shift between two
signals survives this compression: a single well-chosen bin is enough.

The m-by-n sensing matrix is conceptually a row subset of the Fourier
matrix but is never formed here; :func:`measure` evaluates the needed
transform entries directly. The dense forms live in :mod:`cycshift.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import IdentifiabilityError, as_index, as_tuple, real_array, require_finite
from .retrieval import ShiftEstimate, _norm
from .spectral import dft_entry, live, unit_phases

__all__ = [
    "SensingSet",
    "Measurement",
    "SensingReport",
    "measure",
    "embed",
    "check_sensing_conditions",
    "shift_by_compressive_argmax",
    "shift_by_compressive_ratio",
]

@dataclass(frozen=True)
class SensingSet:
    """Strictly increasing frequency indices retained by a measurement.

    ``n`` and each index must be integers (Python or numpy; a float,
    even a whole one, raises ValueError), with n >= 1 and every index in
    0..n-1.
    """

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        n = as_index(self.n, "ambient dimension n", 1)
        idx = tuple(as_index(i, f"sensing indices[{j}]", 0, n)
                    for j, i in enumerate(as_tuple(self.indices, "sensing indices")))
        if not idx:
            raise ValueError("sensing set is empty")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"sensing indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class Measurement:
    """Compressed spectrum: complex values at the sensing indices, all finite."""

    values: np.ndarray
    sensing: SensingSet

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size != self.sensing.m:
            raise ValueError(
                f"expected {self.sensing.m} measurement values, got shape {vals.shape}"
            )
        require_finite(vals, "measurement")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def measure(x, sensing: SensingSet) -> Measurement:
    """Measure a signal: unitary-DFT entries at the sensing indices.

    Each entry is evaluated directly in O(n); the sensing matrix is
    never materialized. An entry that is zero against the norm of x,
    the test :func:`~cycshift.retrieval.shift_single_bin` applies to its
    bin, is stored as an exact 0, so the measurement carries its own
    dead bins. Raises ValueError on complex, NaN or infinite samples.
    """
    x = real_array(x, "x")
    if x.shape != (sensing.n,):
        raise ValueError(f"signal shape {x.shape} does not match ambient dimension {sensing.n}")
    vals = np.array([dft_entry(x, k) for k in sensing.indices])
    vals[~live(np.abs(vals), _norm(x))] = 0
    return Measurement(vals, sensing)


def embed(values, sensing: SensingSet) -> np.ndarray:
    """Scatter m finite values into a length-n complex vector, zeros elsewhere."""
    vals = np.asarray(values, dtype=np.complex128)
    if vals.ndim != 1 or vals.size != sensing.m:
        raise ValueError(f"expected {sensing.m} values, got shape {vals.shape}")
    require_finite(vals, "values")
    out = np.zeros(sensing.n, dtype=np.complex128)
    out[list(sensing.indices)] = vals
    return out


def _duplicate_groups(values: np.ndarray, indices, n: int) -> tuple[tuple[int, ...], ...]:
    """Group shifts whose measurement columns coincide.

    Column s of the (conceptual) measured-shift matrix is
    values * exp(-2j*pi*k*s/n); two shifts in the same group cannot be
    told apart from these measurements. Two columns coincide when their
    largest difference is not live against the largest value.
    """
    cols = values[:, None] * unit_phases(np.asarray(indices)[:, None], np.arange(n), n)
    peak = np.abs(values).max()
    groups = []
    assigned = np.zeros(n, dtype=bool)
    for s in range(n):
        if assigned[s]:
            continue
        apart = live(np.abs(cols - cols[:, s:s + 1]).max(axis=0), peak)
        members = np.flatnonzero(~(apart | assigned))
        assigned[members] = True
        groups.append(tuple(members.tolist()))
    return tuple(groups)


@dataclass(frozen=True)
class SensingReport:
    """Diagnostics for a (signal, sensing set) pair.

    ``guarantee_holds`` is true iff some retained bin both has a
    nonzero measured entry and is coprime with n; such a bin pins down
    the shift uniquely. ``duplicate_shift_groups`` lists the groups of
    shifts, larger than a singleton, whose measurements coincide;
    ``ambiguous`` is true when any exist.
    """

    n: int
    indices: tuple[int, ...]
    qualifying_bins: tuple[int, ...]
    guarantee_holds: bool
    ambiguous: bool
    duplicate_shift_groups: tuple[tuple[int, ...], ...]


def check_sensing_conditions(x, sensing: SensingSet) -> SensingReport:
    """Check whether a sensing set can recover shifts of this signal.

    Both conditions are read from ``measure(x, sensing)``, the
    measurement the estimators would see: (a) existence of a retained
    bin k with a nonzero entry and gcd(k, n) = 1, which guarantees
    exact recovery; (b) absence of shift ambiguity, i.e. all n columns
    of the measured-shift matrix pairwise distinct, judged as the
    compressive estimators judge them. Purely diagnostic: raises only
    on malformed input (wrong length, complex, NaN or infinite samples).
    """
    v = measure(x, sensing).values  # validates x
    n = sensing.n
    qualifying = tuple(k for k, vk in zip(sensing.indices, v) if gcd(k, n) == 1 and vk != 0)
    dup = tuple(g for g in _duplicate_groups(v, sensing.indices, n) if len(g) > 1)
    return SensingReport(
        n=n,
        indices=sensing.indices,
        qualifying_bins=qualifying,
        guarantee_holds=bool(qualifying),
        ambiguous=bool(dup),
        duplicate_shift_groups=dup,
    )


def _common_sensing(z: Measurement, v: Measurement) -> SensingSet:
    if not isinstance(z, Measurement) or not isinstance(v, Measurement):
        raise TypeError("expected Measurement inputs")
    if z.sensing != v.sensing:
        raise ValueError("measurements use different sensing sets")
    return z.sensing


def _ambiguity_flag(values: np.ndarray, indices, n: int, shift: int) -> tuple[str, ...]:
    group = next(g for g in _duplicate_groups(values, indices, n) if shift in g)
    return ("ambiguous",) if len(group) > 1 else ()


def shift_by_compressive_argmax(z: Measurement, v: Measurement) -> ShiftEstimate:
    """Correlation test on compressed measurements.

    Scores each candidate shift s with
    Re( sum_i conj(z_i) * v_i * exp(-2j*pi*k_i*s/n) ) and returns the
    argmax. With z measured from a delayed copy of v's signal every
    term peaks simultaneously at the true shift. If the winning shift
    sits in a duplicate measurement class the estimate is flagged
    ``"ambiguous"``.

    Shifts that differ by a multiple of n / gcd(n, k_1, ..., k_m) have
    bitwise-equal phase-table columns and tie; the smallest is returned.
    """
    sensing = _common_sensing(z, v)
    n = sensing.n
    # An overflowed product shows as a score that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.conj(z.values) * v.values
        scores = (w @ unit_phases(np.asarray(sensing.indices)[:, None], np.arange(n), n)).real
    s = int(np.argmax(scores)) % (n // gcd(n, *sensing.indices))
    flags = _ambiguity_flag(v.values, sensing.indices, n, s)
    return ShiftEstimate("compressive_argmax", n, s, float(scores[s]), scores, flags)


def shift_by_compressive_ratio(z: Measurement, v: Measurement) -> ShiftEstimate:
    """Ratio test on compressed measurements.

    On bins where the reference measurement is nonzero, rho_i = z_i/v_i
    must equal the unit phase exp(-2j*pi*k_i*s/n) of the true shift;
    the estimator returns the s whose phase vector is nearest to rho in
    least squares. ``scores`` holds the n match residuals (argmin
    semantics) and ``score`` the winning residual, which is ~0 for
    exactly shifted pairs.

    Bins with |v_i| zero against the largest |v| are dropped (flag
    ``"dropped_bins"``); on a :func:`measure` output these are exactly
    the bins stored as 0. If the survivors cannot distinguish all
    shifts the estimate is additionally flagged ``"ambiguous"``.
    """
    sensing = _common_sensing(z, v)
    keep = live(np.abs(v.values))  # holds at the peak unless every value is zero
    if not keep.any():
        raise IdentifiabilityError("every reference measurement bin is zero")
    kept_idx = np.asarray(sensing.indices, dtype=np.int64)[keep]
    rho = z.values[keep] / v.values[keep]
    table = unit_phases(kept_idx[:, None], np.arange(sensing.n), sensing.n)
    residuals = np.linalg.norm(rho[:, None] - table, axis=0)
    s = int(np.argmin(residuals))
    flags = list(_ambiguity_flag(v.values[keep], kept_idx, sensing.n, s))
    if not keep.all():
        flags.append("dropped_bins")
    return ShiftEstimate(
        "compressive_ratio", sensing.n, s, float(residuals[s]), residuals, tuple(flags)
    )


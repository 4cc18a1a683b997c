"""Shift retrieval from partial-Fourier measurements.

A measurement keeps only m <= n entries of the unitary spectrum, chosen
by a :class:`SensingSet` of frequency indices. Because cyclic delays
act on each spectral entry as a pure phase, the shift between two
signals survives this compression: a single well-chosen bin is enough.

The m-by-n sensing matrix is conceptually a row subset of the Fourier
matrix but is never formed here; :func:`measure` evaluates the needed
transform entries directly. The dense forms live in :mod:`cycshift.oracle`.

:func:`measure` and both estimators also take (B, n) signal and (B, m)
measurement stacks, one pair per row, as the full-signal estimators of
:mod:`cycshift.retrieval` do; row b of a stacked result equals the
result for row b alone, bit for bit. The estimators settle each row on
its own and hand the rows to the one estimate builder of
:mod:`cycshift.retrieval`. Unlike there, a one-pair call is not quite
the one-row stack: one measurement (a 1-D signal, or 1-D
``Measurement.values``) reads its m values as Python numbers for the
m-element steps, where a stack's are arrays: :func:`measure`'s zero and
overflow rules, and each estimator's live bins and their gcd, argmax's
lift test and ratio's keep mask. Transforms, products and scores run
the stack's array code on both paths, and both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd

import numpy as np

from .errors import IdentifiabilityError, as_index, as_tuple, finite, real_array, real_floats, require_finite
from .retrieval import ShiftEstimate, _estimate, _lower, _norm
from .spectral import BAND, dft_entries, entry_phases, live, phase_factors, to_band, unit_phases

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

    The set holds the arrays its bins determine, built on its first
    measurement or estimate and kept for the next: their two phase
    factors from :func:`~cycshift.spectral.phase_factors`, which both
    estimators read, and the phases :func:`measure` contracts a signal
    against (:func:`~cycshift.spectral.entry_phases`). Beyond
    n = 512 those are the same two factors, bins on a leading axis, the
    fine one read as (cos, -sin) pairs by one BLAS product per (bin,
    row); up to it, each bin's n unit phases. Building a set builds
    neither; equality and hashing read ``n`` and ``indices`` alone.
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

    @cached_property
    def _arrays(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, ...]]:
        factors = phase_factors(self.indices, self.n)
        # measure's phases put the bins on an axis of their own, in front of a stack's rows;
        # the bins go as one-item rows, made an array only up to n = 512, where they are read.
        return factors, entry_phases(tuple(zip(self.indices)), self.n, [f[:, None] for f in factors])


@dataclass(frozen=True, eq=False)
class Measurement:
    """Compressed spectrum: complex values at the sensing indices, all finite.

    ``values`` holds m values, or a (B, m) stack of them, one
    measurement per row. Given values are copied, made read-only and
    checked; :func:`measure` hands over values it has just computed and
    checked, which are taken as they are. Iterating a stack gives its
    rows, each as its own one-row measurement on a view of the row.
    """

    values: np.ndarray
    sensing: SensingSet

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128, order="C")
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.sensing.m or not vals.size:
            raise ValueError(
                f"expected {self.sensing.m} measurement values, or a (B, {self.sensing.m}) "
                f"stack of them, got shape {vals.shape}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", require_finite(vals, "measurement"))

    @classmethod
    def _taken(cls, values: np.ndarray, sensing: SensingSet) -> Measurement:
        """The measurement of checked complex128 ``values``, taken over as they are: no copy, no second read."""
        values.flags.writeable = False
        meas = object.__new__(cls)
        meas.__dict__.update(values=values, sensing=sensing)
        return meas

    def __iter__(self):
        if self.values.ndim != 2:
            raise TypeError("a one-row measurement has no rows to iterate")
        return (Measurement._taken(row, self.sensing) for row in self.values)


def measure(x, sensing: SensingSet) -> Measurement:
    """Measure a signal: unitary-DFT entries at the sensing indices.

    ``x`` is one signal of length n, or a (B, n) stack of them; a stack
    gives a (B, m) measurement whose row b equals the measurement of row
    b alone, bit for bit. One pass evaluates every entry directly, each
    in O(n) with the bits :func:`~cycshift.spectral.dft_entry` gives it,
    from the phases the sensing set keeps for every call;
    the sensing matrix is never materialized. An entry that is zero against
    the norm of its signal, the test
    :func:`~cycshift.retrieval.shift_single_bin` applies to its bin, is
    stored as an exact 0, so the measurement carries its own dead bins.
    Raises ValueError on complex, NaN or infinite samples, and on finite
    ones whose norm overflows.
    """
    x = real_floats(x, "x")
    if x.ndim not in (1, 2) or x.shape[-1] != sensing.n or not x.size:
        real_array(x, "x")  # a NaN or an infinity is named before the shape
        raise ValueError(f"x: signal shape {x.shape} does not match ambient dimension {sensing.n}")
    # An overflowed entry or norm is refused by live, without numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        # A finite sum of squares holds no NaN or infinity: only a norm that
        # is not finite sends the samples to the finiteness read, to name one.
        if not finite(norm := _norm(x)):
            real_array(x, "x")
        # One pass takes every bin, bins on a leading axis; each (bin, row)
        # entry is contracted on its own, with the bits of dft_entry(row, bin).
        vals = dft_entries(x, sensing._arrays[1])  # (m, 1) or (m, B)
        mags = np.abs(vals)
    # A finite norm can still give an overflowed entry: it is live and kept,
    # while a NaN one is dead and zeroed.
    if x.ndim == 1:  # one signal: its m magnitudes tested as Python numbers, a dead one read as 0
        vals, mags = vals.ravel(), [a if live(a, norm) else 0.0 for a in mags.ravel().tolist()]
        require_finite(max(mags), "measurement")
        if not all(mags):
            vals[[not a for a in mags]] = 0
        return Measurement._taken(vals, sensing)
    vals[~live(mags, norm)] = 0
    require_finite(np.fmax.reduce(mags, axis=None, initial=0.0), "measurement")  # fmax passes over NaN
    return Measurement._taken(np.ascontiguousarray(vals.T).reshape(x.shape[:-1] + (sensing.m,)), sensing)


def embed(values, sensing: SensingSet) -> np.ndarray:
    """Scatter m finite values into a length-n complex vector, zeros elsewhere.

    Takes one measurement's values; a (B, m) stack raises ValueError
    naming ``values``.
    """
    vals = np.asarray(values, dtype=np.complex128)
    if vals.ndim != 1 or vals.size != sensing.m:
        raise ValueError(f"values: expected {sensing.m} values, got shape {vals.shape}")
    out = np.zeros(sensing.n, dtype=np.complex128)
    out[list(sensing.indices)] = require_finite(vals, "values")
    return out


def _duplicate_groups(values: np.ndarray, indices, n: int) -> tuple[tuple[int, ...], ...]:
    """Group the n shifts whose measured columns coincide, each led by its lowest unassigned shift.

    Column t of the (m, n) measured-shift matrix is
    values * exp(-2j*pi*k*t/n). Two columns coincide, and their shifts
    cannot be told apart from these measurements, when their largest
    difference is not live against the largest |value|.

    When s leads, every shift below it is already grouped, so s is
    compared with the free shifts from it on alone. As |Re d| <= |d|, t
    can join s only where the real parts of one row differ by an amount
    that is not live against the same peak; the scan takes the row that
    leaves shift 0 the fewest such shifts. It runs in blocks. A block's
    leaders are the next free shifts: at most 2**15 // n of them (at
    least one), and at most twice as many as led in the block before
    (one at first). One (leaders, n - s) float difference on that row
    finds their candidate pairs. Where each leader is its own only
    candidate, each leads a group of one. Otherwise the pairs are cut
    to the leaders whose candidates fit in n // m pairs (at least one
    leader's), and only those are compared on every row, as complex
    differences, which decides each pair as the largest difference over
    rows does. Groups form in leader order: a leader still free takes
    its confirmed partners still free, in ascending order. The cost is
    about n**2/2 real differences on one row plus m complex ones per
    candidate pair, in a few array calls per block rather than per
    leader.
    """
    cols = values[:, None] * unit_phases(np.asarray(indices)[:, None], np.arange(n), n)
    peak = np.abs(values).max()
    row = cols.real[np.argmin(np.count_nonzero(~live(np.abs(cols.real - cols.real[:, :1]), peak), axis=1))].copy()
    groups, free, size, s = [], np.ones(n, dtype=bool), 1, 0
    while (lead := s + np.flatnonzero(free[s:])[:size]).size:
        s, led = lead[0], len(groups)
        near = free[s:] & ~live(np.abs(d := row[lead, None] - row[s:], out=d), peak)
        if (pairs := np.flatnonzero(near)).size == lead.size:  # each leader matches itself alone
            groups += [(u,) for u in lead.tolist()]
            free[lead] = False
        else:
            if pairs.size > n // len(cols):  # keep the leaders whose pairs fit in n // m, at least one
                pairs = np.flatnonzero(near[:max(1, pairs[n // len(cols)] // (n - s))])
            li, t = pairs // (n - s), pairs % (n - s) + s
            same = ~live(np.abs(cols.take(t, axis=1) - cols.take(lead[li], axis=1)).max(axis=0), peak)
            # Every candidate was free at the block's start: only this block's groups take shifts.
            ts, ends, taken = t[same].tolist(), np.cumsum(np.bincount(li[same])).tolist(), set()
            for u, a, b in zip(lead.tolist(), [0, *ends], ends):
                if u not in taken:
                    groups.append(g := tuple(v for v in ts[a:b] if v not in taken))
                    taken.update(g)
            free[list(taken)] = False
        size = min(max(1, 2**15 // n), 2 * (len(groups) - led))
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
    of the measured-shift matrix pairwise distinct against the largest
    measured value. Its groups are the compressive estimators' gcd
    classes, except where a live bin is too weak to move the columns of
    nearby shifts apart: the scan merges those. The scan compares each
    group's leader, the lowest shift not yet grouped, only with the
    free shifts from it on, leaders taken in blocks. One row's real
    parts, which differ by no more than the columns do, rule out most
    pairs: about n**2/2 real differences in all, plus m complex ones
    for each pair they leave. Purely diagnostic:
    raises only on malformed input (wrong length, complex, NaN or
    infinite samples) and on samples whose norm overflows. Takes one
    signal; a (B, n) stack raises ValueError naming x.
    """
    v = measure(x, sensing).values  # validates x
    if v.ndim != 1:
        raise ValueError(f"x must be one signal, got a stack of shape {v.shape[:1] + (sensing.n,)}")
    n = sensing.n
    qualifying = tuple(k for k, vk in zip(sensing.indices, v) if gcd(k, n) == 1 and vk != 0)
    with np.errstate(over="ignore"):  # columns near the float64 range differ by an infinity, which is live
        dup = tuple(g for g in _duplicate_groups(v, sensing.indices, n) if len(g) > 1)
    return SensingReport(n=n, indices=sensing.indices, qualifying_bins=qualifying, guarantee_holds=bool(qualifying),
                         ambiguous=bool(dup), duplicate_shift_groups=dup)


def _common_sensing(z: Measurement, v: Measurement) -> SensingSet:
    if not isinstance(z, Measurement) or not isinstance(v, Measurement):
        raise TypeError("expected Measurement inputs")
    if z.sensing != v.sensing:
        raise ValueError("measurements use different sensing sets")
    if z.values.shape != v.values.shape:
        raise ValueError(f"measurement shapes differ: {z.values.shape} vs {v.values.shape}")
    return z.sensing


# The flags of a settled estimate, indexed by ambiguous + 2 * dropped_bins.
_FLAGS = ((), ("ambiguous",), ("dropped_bins",), ("ambiguous", "dropped_bins"))


def _settle(method: str, scores: np.ndarray, best, g, n: int, dropped=False) -> ShiftEstimate:
    """The estimate at the smallest shift in ``best``'s class, flagged ``"ambiguous"`` if it has others.

    A delay by s turns sensed bin k by exp(-2j*pi*k*s/n), so the live
    bins cannot tell apart shifts that differ by a multiple of n / g,
    g = gcd(n, those bins), and tell apart all others; g = n when no bin
    is live. ``g`` holds one gcd per row of a stack (one for one pair):
    each row is settled on its own, and flagged ``"dropped_bins"`` where
    ``dropped`` holds.
    """
    flags = [_FLAGS[c] for c in np.ravel((g > 1) + 2 * dropped).tolist()]
    return _estimate(method, n, best % (n // g), scores=scores, flags=flags)


def shift_by_compressive_argmax(z: Measurement, v: Measurement) -> ShiftEstimate:
    """Correlation test on compressed measurements.

    Scores each candidate shift s with
    Re( sum_i conj(z_i) * v_i * exp(-2j*pi*k_i*s/n) ). With z measured
    from a delayed copy of v's signal every term peaks simultaneously at
    the true shift.

    The bins where |v_i| is live against the largest |v| cannot tell
    apart shifts that differ by a multiple of n / g, g = gcd(n, those
    bins), the paper's gcd condition; g = n when no bin is live. Their
    scores differ only by what dead bins add and by rounding, so the
    argmax is reduced mod n / g to the smallest shift of its class,
    returned with its own score, and the estimate is flagged
    ``"ambiguous"`` when g > 1. The scores weight bin i by |v_i|**2, so a
    bin that is live but weak moves them by less than their rounding and
    cannot separate its shifts: an estimate is certain only modulo
    n / gcd(n, the bins whose weighted term survives rounding), which can
    be coarser than n / g. With v = (5e-11, 1.0) on K = (2, 2048) at
    n = 4096, g = 2, yet the estimate is certain only modulo 2, not 2048;
    :func:`shift_by_compressive_ratio` divides by v_i and keeps such a bin.
    An overflowed |v_i| raises ValueError
    naming the overflow. A row of z or v peaking below 2**-BAND in
    modulus is scaled before any product, as in
    :func:`~cycshift.retrieval.shift_by_crosscorr`: up by a power of
    two, with ValueError if the scores then underflow.

    (B, m) stacks z and v score row b of z against row b of v in one
    call, and give the stacked estimate described at
    :class:`~cycshift.retrieval.ShiftEstimate`, with one flag tuple per
    row; row b equals the estimate of that pair alone, bit for bit. The
    call reads the two (m, ~sqrt(n)) phase factors its sensing set keeps
    (:func:`~cycshift.spectral.phase_factors`), holds no (m, n) phase
    table, and returns (B, n) scores.
    """
    sensing = _common_sensing(z, v)
    coarse, fine = sensing._arrays[0]
    # An overflowed |v_i| is refused by live; an overflowed product shows
    # as a score that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        if v.values.ndim == 1:  # one pair: its live bins, their gcd and the two peaks in Python numbers
            peak = max(mags := np.abs(v.values).tolist())
            live_bins = [live(a, peak) for a in mags]
            g = gcd(sensing.n, *compress(sensing.indices, live_bins))
            lift = min(peak, max(np.abs(z.values).tolist())) < 2.0 ** -BAND
        else:
            live_bins, lift = live(np.abs(v.values)), True
            g = np.gcd(np.gcd.reduce(np.where(live_bins, sensing.indices, 0), axis=-1), sensing.n)
        if lift:  # a stack, or one pair peaking below the band
            zv = np.array((np.conj(z.values), v.values))  # scaled as one array, row by row
            # Only upward (a peak above 1 reads as 1): an overflowing row stays as it is.
            peaks = np.minimum(np.abs(zv).max(axis=-1), 1.0)
            zv, e = to_band(zv, peaks) if (lift := (peaks < 2.0 ** -BAND).any()) else (zv, 0)
            w = zv[0] * zv[1]
        else:
            w = np.conj(z.values) * v.values
        # Shift i*b + j scores Re sum_k w_k * coarse[k, i] * fine[k, j]:
        # one (a, m) @ (m, b) product per row, cut to the n shifts.
        scores = (w[..., None, :] * coarse.T) @ fine
        scores = scores.reshape(scores.shape[:-2] + (-1,))[..., :sensing.n].real
    if lift:
        _lower("compressive_argmax", scores, e.sum(axis=0))
    return _settle("compressive_argmax", scores, np.argmax(scores, axis=-1), g, sensing.n)


def shift_by_compressive_ratio(z: Measurement, v: Measurement) -> ShiftEstimate:
    """Ratio test on compressed measurements.

    On bins where the reference measurement is nonzero, rho_i = z_i/v_i
    must equal the unit phase exp(-2j*pi*k_i*s/n) of the true shift;
    the estimator returns the s whose phase vector is nearest to rho in
    least squares. ``scores`` holds the n match residuals (argmin
    semantics) and ``score`` the returned shift's residual, which is ~0
    for exactly shifted pairs.

    Bins with |v_i| zero against the largest |v| are dropped (flag
    ``"dropped_bins"``); on a :func:`measure` output these are exactly
    the bins stored as 0. The argmin is settled on the class rule of
    :func:`shift_by_compressive_argmax` over the surviving bins: reduced
    mod n / gcd(n, those bins), and flagged ``"ambiguous"`` when that
    gcd exceeds 1.

    (B, m) stacks are scored as in :func:`shift_by_compressive_argmax`.
    Each row drops its own bins and gets its own flags; a row with no
    nonzero reference bin makes the whole call raise
    IdentifiabilityError. The residuals come from the two phase factors
    its sensing set keeps (:func:`~cycshift.spectral.phase_factors`),
    with no (m, n) phase table: as |coarse_ki| = 1, shift i*b + j has
    |rho_k - coarse_ki * fine_kj| = |rho_k * conj(coarse_ki) - fine_kj|
    on bin k. The call holds one (B, m, a*b) complex difference, a*b
    being n or a little more, and (B, n) residuals.
    """
    sensing = _common_sensing(z, v)
    coarse, fine = sensing._arrays[0]
    if v.values.ndim == 1:  # one pair: its live bins and their gcd in Python numbers
        peak = max(mags := np.abs(v.values).tolist())
        keep = [live(a, peak) for a in mags]
        g, usable = gcd(sensing.n, *compress(sensing.indices, keep)), any(keep)
        masked = dropped = not all(keep)
    else:
        keep = live(np.abs(v.values))  # holds at each row's peak unless the row is all zero
        g = np.gcd(np.gcd.reduce(np.where(keep, sensing.indices, 0), axis=-1), sensing.n)
        usable, dropped, masked = keep.any(axis=-1).all(), ~keep.all(axis=-1), True
    if not usable:
        raise IdentifiabilityError("every reference measurement bin is zero")
    # An overflowed ratio shows as a residual that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        # One pair with every bin live divides plainly and has nothing to zero.
        if masked:
            rho = np.divide(z.values, v.values, out=np.zeros(z.values.shape, complex), where=keep)
        else:
            rho = z.values / v.values
        # Each bin's differences for shifts 0..a*b-1, real and imaginary parts side by side.
        sq = ((rho[..., None] * coarse.conj())[..., None] - fine[:, None, :]).reshape(rho.shape + (-1,)).view(float)
        sq *= sq
        if masked:
            sq[~np.asarray(keep)] = 0  # a dropped bin adds an exact 0 to each sum of squares
        sums = sq.sum(axis=-2)[..., :2 * sensing.n]  # over bins, cut to the n shifts
        residuals = np.sqrt(sums[..., ::2] + sums[..., 1::2])
    return _settle("compressive_ratio", residuals, np.argmin(residuals, axis=-1), g, sensing.n, dropped)

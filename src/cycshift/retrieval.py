"""Cyclic-shift estimation between two equal-length real signals.

Four estimators are provided, trading robustness against work:

* :func:`shift_by_crosscorr` scores every candidate delay with the
  circular cross-correlation (always well defined, O(n log n)).
* :func:`shift_by_ratio` divides the spectra bin-by-bin; for exactly
  shifted pairs the inverse transform of the ratio is a unit impulse
  sitting at the shift.
* :func:`shift_single_bin` reads the phase of a single spectral ratio
  and inverts it modularly, using only O(n) work and two transform
  entries.
* :func:`shift_affine` extends the ratio method to pairs related by a
  gain and a constant offset, y = alpha * delay(x) + beta.

Shift direction convention: estimate s means y is x delayed by s
positions, i.e. y[t] = x[(t - s) mod n].

The crosscorr, ratio and single-bin estimators also take a (B, n) stack
of reference signals and a stack of shifted ones, and score row b of y
against row b of x in one call, with the transforms run along the last
axis. Row b of a stacked estimate equals the estimate of that pair
alone, bit for bit. A one-pair call here is the one-row stack: every
step works row by row, and one builder turns the rows' results into a
:class:`ShiftEstimate`, unwrapping one pair's into plain numbers. The
compressive estimators of :mod:`cycshift.compressive` use that builder
too, but read one measurement's m values as Python numbers where a
stack's are arrays; both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, sqrt

import numpy as np

from .errors import IdentifiabilityError, as_index, finite, peak, real_array, real_rows
from .spectral import BAND, dft_entries, entry_phases, live, to_band

__all__ = [
    "ShiftEstimate",
    "AffineShiftModel",
    "shift_by_crosscorr",
    "shift_by_ratio",
    "select_bin",
    "shift_single_bin",
    "shift_affine",
]

# shift_single_bin flags "model_misfit" when abs(|rho| - 1) exceeds this.
MISFIT_TOL = 1e-6

# A sum of squares below the smallest normal float has lost bits to underflow.
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class ShiftEstimate:
    """Recovered cyclic delay together with its diagnostic score(s).

    ``scores``, when present, holds one value per candidate shift;
    ``shift`` is its argmax (argmin for the residual-based
    ``compressive_ratio`` method), ties going to the smallest index, and
    ``score`` the value there. The compressive methods return the
    smallest of the shifts their measurements cannot tell apart from the
    winner. ``flags`` carries soft diagnostics such as ``"ambiguous"``
    or ``"model_misfit"`` that do not prevent an estimate from being
    returned. A float64 ``scores`` array is taken over, not copied: it
    becomes the estimate's own and is marked read-only. For crosscorr
    and ratio it is a view of the first n slots of the spectrum buffer
    the inverse transform wrote into. A score that is not finite raises
    ValueError naming the method; complex or non-finite ``scores`` raise
    ValueError naming ``scores``.

    One pair gives an int ``shift``, a float ``score`` and one flag
    tuple; a stack of B pairs gives length-B arrays, a (B, n) ``scores``
    (or None) and one flag tuple per row.
    """

    method: str
    n: int
    shift: int | np.ndarray
    score: float | np.ndarray
    scores: np.ndarray | None = None
    flags: tuple[str, ...] | tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if not finite(self.score):
            raise ValueError(f"{self.method}: the score is {self.score} (the inputs overflow)")
        if self.scores is not None:
            arr = real_array(self.scores, "scores")
            arr.flags.writeable = False
            object.__setattr__(self, "scores", arr)


@dataclass(frozen=True)
class AffineShiftModel:
    """Model y = alpha * delay(x, shift) + beta recovered by shift_affine."""

    shift: int
    alpha: float
    beta: float
    flags: tuple[str, ...] = ()


def _pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y, read once, if they are two signals or two (B, n) stacks of them.

    Each estimator reads its inputs as it needs them:
    :func:`~cycshift.errors.real_array`, or
    :func:`~cycshift.errors.real_rows` where the peak of each row,
    which the finiteness check reads anyway, is used.
    """
    if x.ndim not in (1, 2) or y.ndim not in (1, 2):
        raise ValueError("signals must be one-dimensional, or a (B, n) stack of them")
    if x.size == 0:
        raise ValueError("signals are empty")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    return x, y


def _norm(v: np.ndarray):
    """Euclidean norm along the last axis: a float, or one per row of a stack.

    Each row takes its own path, so a row of a stack gets the bits it
    gets alone (up to n = 8192: beyond numpy's 8192-element buffer,
    einsum sums the rows of a stack in another order). The norm is
    finite only if every value is: a NaN or an infinity makes the sum of
    squares NaN or infinite.
    """
    # einsum's single-threaded loop; np.linalg.norm goes through BLAS,
    # whose thread start-up dominates on long signals. Beyond ~1e154 the
    # sum of squares overflows and below ~1e-154 it underflows (as it is
    # for a zero row), so such a row is then scaled into the band first.
    # One signal whose sum is normal takes the (1, n) row's bits without the row bookkeeping.
    if v.ndim == 1 and (sq := float(np.einsum("i,i->", v, v))) >= _TINY and sq < inf:
        return sqrt(sq)
    rows = v.reshape(-1, v.shape[-1])
    sq = np.einsum("ij,ij->i", rows, rows)
    norm = np.sqrt(sq)
    odd = (sq < _TINY) | (sq == inf)
    if odd.any():
        u, e = to_band(rows[odd], peak(rows[odd], -1))
        norm[odd] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", u, u)), e)
    return norm if v.ndim > 1 else norm.item()


def _coprime_mask(size: int, n: int) -> np.ndarray:
    """Boolean mask of gcd(i, n) == 1 for i in 0..size-1.

    Sieves out the multiples of each prime factor of n, which is much
    cheaper than an elementwise gcd on long spectra.
    """
    mask = np.ones(size, dtype=bool)
    rest, p = n, 2
    while p * p <= rest:
        if rest % p == 0:
            mask[::p] = False
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        mask[::rest] = False
    return mask


def _ratio_impulse(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """irfft of Y/X over the live bins of x (dead bins give 0), and that mask.

    An exact delay by s with no dead bin gives the unit impulse at s.
    Rows of a stack are judged and divided each on their own.
    """
    n = x.shape[-1]
    # An overflowed ratio shows as a score that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.fft.rfft(x)
        usable = live(np.abs(xs))
        rho = np.fft.rfft(y)
        np.divide(rho, xs, out=rho, where=usable)
        rho[~usable] = 0
        # The inverse lands in the spent spectrum of x.
        return np.fft.irfft(rho, n, out=xs.view(np.float64)[..., :n]), usable


def _estimate(method: str, n: int, shift: np.ndarray, score=None, scores=None, flags=None) -> ShiftEstimate:
    """The estimate of each row's ``shift``, ``score``, ``scores`` and ``flags``.

    ``shift`` holds one shift per row of a stack, or is 0-d for one
    pair, whose estimate then holds an int, a float and one flag tuple.
    ``score`` defaults to each row's ``scores`` at its shift, and
    ``flags`` (one tuple per row) to none.
    """
    flags = ((),) * shift.size if flags is None else tuple(flags)
    if shift.ndim == 0:
        score = scores[shift] if score is None else score
        return ShiftEstimate(method, n, shift.item(), float(score), scores, flags[0])
    score = scores[np.arange(shift.size), shift] if score is None else score
    return ShiftEstimate(method, n, shift, score, scores, flags)


def _peak(method: str, scores: np.ndarray) -> ShiftEstimate:
    """The estimate whose shift is the argmax of each row of ``scores``."""
    return _estimate(method, scores.shape[-1], np.argmax(scores, axis=-1), scores=scores)


def _lower(method: str, scores: np.ndarray, e) -> None:
    """Scale scores formed from inputs scaled up by 2**-e back down by 2**e, in place, row by row.

    Raises ValueError naming the underflow if that rounding moves the
    argmax of a row, or leaves all zero a row whose scores were not: the
    scores of such inputs are too small for float64 to tell the shifts
    apart.
    """
    s, nonzero = np.argmax(scores, axis=-1), scores.any(axis=-1)
    np.ldexp(scores, e[..., None], out=scores)
    if (np.argmax(scores, axis=-1) != s).any() or (nonzero > scores.any(axis=-1)).any():
        raise ValueError(f"{method}: the scores underflow (the inputs are too small)")


def shift_by_crosscorr(x, y) -> ShiftEstimate:
    """Classic estimator: peak of the circular cross-correlation.

    The score vector is sqrt(n) * idft(conj(dft(x)) * dft(y)), whose
    entry s equals the alignment inner product
    sum_t x[(t-s) mod n] * y[t]. For y an exact delay of x the peak
    value is ||x||^2. Both signals are real, so the product is formed
    on bins 0..n//2 only and the real inverse transform implies the
    rest: three real transforms and one pointwise product in all. The
    inverse lands in the spent spectrum of y, so the call holds two
    spectrum-sized buffers.

    An input row peaking below 2**-BAND is scaled up by a power of two
    before the transforms (:func:`~cycshift.spectral.to_band`), and the
    scores are scaled back; if they then underflow so far that their
    argmax moves or they all vanish, the call raises ValueError naming
    the underflow. The row peaks come from the finiteness check's own
    read, which also gives the zero test.
    """
    (x, px), (y, py) = real_rows(x, "x"), real_rows(y, "y")
    _pair(x, y)
    if not (px.all() and py.all()):
        raise IdentifiabilityError("cross-correlation needs nonzero signals")
    n = x.shape[-1]
    if lift := (np.minimum(px, py) < 2.0 ** -BAND).any():
        # Only upward (a peak above 1 reads as 1): an overflowing row stays as it is.
        (x, ex), (y, ey) = to_band(x, np.minimum(px, 1.0)), to_band(y, np.minimum(py, 1.0))
    # An overflowed product shows as a score that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        # Unscaled forward transforms and the 1/n inverse give the inner products.
        spec = np.fft.rfft(x)
        np.conjugate(spec, out=spec)
        ys = np.fft.rfft(y)
        spec *= ys
        # The inverse lands in the spent spectrum of y.
        scores = np.fft.irfft(spec, n, out=ys.view(np.float64)[..., :n])
    if lift:
        _lower("crosscorr", scores, ex + ey)
    return _peak("crosscorr", scores)


def shift_by_ratio(x, y) -> ShiftEstimate:
    """Ratio estimator: impulse position of the inverse spectral ratio.

    Divides the spectra on every usable bin (|X[i]| above the relative
    zero threshold), zeros the rest, and inverse-transforms with a 1/n
    scale so an exactly shifted pair with no excluded bin yields the
    unit impulse e_{s+1}. With excluded bins the impulse degrades but
    its argmax still marks the shift for generic signals. The ratio of
    two real signals' spectra is conjugate-symmetric, so only bins
    0..n//2 are divided and the real inverse transform implies the
    rest.
    """
    d, usable = _ratio_impulse(*_pair(real_array(x, "x"), real_array(y, "y")))
    if not usable.any(axis=-1).all():
        raise IdentifiabilityError("reference signal has no usable spectral bin (all zero)")
    return _peak("ratio", d)


def select_bin(xspec) -> int:
    """Pick the strongest spectral bin able to disambiguate every shift.

    A bin i can distinguish all n cyclic shifts from its phase alone iff
    gcd(i, n) = 1; in particular bins 0 and n/2 (n even) carry only a
    sign for n > 2 and are never eligible. Among eligible bins with
    magnitude above the relative zero threshold, the largest one wins.

    Raises
    ------
    IdentifiabilityError
        If no bin is both nonzero and coprime with n (e.g. a constant
        signal, whose spectrum lives entirely in bin 0).
    """
    xs = np.asarray(xspec)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("spectrum must be 1-D with length >= 2")
    return int(_strongest_bin(np.abs(xs), xs.size))


def _strongest_bin(mags: np.ndarray, n: int):
    """The :func:`select_bin` rule on magnitudes of bins 0..mags.shape[-1]-1 of an n-point spectrum.

    Taking the bins 0..n//2 of a real signal's spectrum gives the same
    winner as the full spectrum up to its mirror n - i, which has equal
    magnitude and identifies the same shift. If the strongest coprime
    bin is not live, no coprime bin is. Gives one bin per row of a stack
    of magnitudes (0-d for one spectrum).
    """
    coprime = np.where(_coprime_mask(mags.shape[-1], n), mags, 0.0)
    if not live(coprime.max(axis=-1), mags.max(axis=-1)).all():
        raise IdentifiabilityError(
            "no usable bin: every nonzero bin fails the gcd(i, n) = 1 "
            "disambiguation condition (excluded bins cannot identify the shift)"
        )
    return np.argmax(coprime, axis=-1)


def shift_single_bin(x, y, i: int | None = None) -> ShiftEstimate:
    """One-measurement estimator: invert the phase of a single ratio.

    Computes rho = Y[i]/X[i] from two directly evaluated transform
    entries (O(n) work, no full transform) and recovers the shift from
    the phase: with i coprime to n, the congruence i*s = t (mod n) has
    the unique solution s = t * i^{-1} mod n, where t is the phase of
    rho expressed in grid steps of 2*pi/n.

    Parameters
    ----------
    x, y : array_like
        Equal-length real signals, or (B, n) stacks of them.
    i : int, optional
        Spectral bin to use: a Python or numpy integer (a float, even a
        whole one, raises ValueError) with gcd(i, n) = 1 whose bin
        carries energy. When omitted, the best bin is chosen by the
        :func:`select_bin` rule from bins 0..n//2 of the spectrum of x
        (convenience path; costs one real-input transform on top of the
        explicit-bin path); each row of a stack gets its own bin.

    The estimate's score is |rho|, which equals 1 for exact shifts. If
    ``abs(|rho| - 1)`` exceeds ``MISFIT_TOL`` the estimate is flagged
    ``"model_misfit"`` (y is not a pure delay of x) but still returned.
    A bin whose ratio overflows gives a score that is not finite, which
    raises ValueError naming the overflow.
    """
    x, y = _pair(real_array(x, "x"), real_array(y, "y"))
    n = x.shape[-1]
    # An overflowed magnitude is refused by live, and an overflowed phase
    # by the estimate's score, without numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if i is None:
            i = _strongest_bin(np.abs(np.fft.rfft(x, norm="ortho")), n) if n >= 2 else 0
        else:
            i = as_index(i, "bin index i", 0, n)
            if gcd(i, n) != 1:
                raise IdentifiabilityError(
                    f"bin {i} cannot disambiguate all {n} shifts: gcd({i}, {n}) != 1"
                )
        # All rows in one pass; the bins are checked above, so dft_entries does not check them again.
        phases = entry_phases(i, n)  # built once for x and y
        xi = dft_entries(x, phases)
        usable = live(np.abs(xi), _norm(x))
        if not usable.all():
            dead = np.broadcast_to(i, usable.shape)[~usable][0]
            raise IdentifiabilityError(f"bin {dead} of the reference spectrum is numerically zero")
        rho = dft_entries(y, phases) / xi
        score = np.abs(rho)
        t = np.rint(-np.angle(rho) * n / (2 * np.pi)).astype(np.int64) % n
    shift = t * np.reshape([pow(b, -1, n) for b in np.ravel(i).tolist()], np.shape(i)) % n
    flags = map(((), ("model_misfit",)).__getitem__, np.ravel(np.abs(score - 1.0) > MISFIT_TOL).tolist())
    return _estimate("single_bin", n, shift, score, None, flags)


def shift_affine(x, y) -> tuple[AffineShiftModel, float]:
    """Fit y = alpha * delay(x, s) + beta * ones.

    The inverse spectral ratio of such a pair is alpha * e_{s+1} plus
    the constant beta/sum(x): a spike riding on a pedestal. The spike
    position is the entry furthest from the mean (robust to the sign of
    alpha); alpha and beta then follow from the spike height over the
    leave-one-out mean and from the pedestal itself.

    Requires n >= 3 (three unknowns), sum(x) != 0 relative to n * max|x|
    (otherwise beta is unidentifiable) and at least one usable bin with
    gcd(i, n) = 1.
    When |alpha| * max|x| is negligible against max|y| the shift is
    meaningless and the model is flagged ``"alpha_unidentifiable"``.
    Both checks compare like with like, so scaling x and y together
    changes neither. A fit whose alpha, beta or residual is not finite
    raises ValueError naming the overflow.

    Returns
    -------
    (AffineShiftModel, float)
        The fitted model and the reconstruction residual
        ||y - alpha * delay(x, s) - beta||_2.
    """
    (x, x_peak), (y, y_peak) = real_rows(x, "x"), real_rows(y, "y")
    _pair(x, y)
    if x.ndim != 1:
        raise ValueError("shift_affine takes one pair of one-dimensional signals")
    n = x.size
    if n < 3:
        raise IdentifiabilityError(f"affine shift fit needs n >= 3 for three unknowns, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum (or inf - inf) is refused by live
        total = float(x.sum())
    if not live(abs(total), n * float(x_peak)):
        raise IdentifiabilityError("sum(x) is numerically zero: the offset term is unidentifiable")

    # |X[0]| = |sum(x)| > tol * n * max|x| >= tol * max|X|, so bin 0 is live.
    d, usable = _ratio_impulse(x, y)
    if not (usable & _coprime_mask(usable.size, n)).any():
        raise IdentifiabilityError("no usable coprime bin: the shift part is unidentifiable")

    # An overflowed impulse or fit shows as a value that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        # One scratch buffer holds |d - mean(d)|, then the residual.
        buf = np.subtract(d, d.mean())
        s = int(np.argmax(np.abs(buf, out=buf)))
        pedestal = float((d.sum() - d[s]) / (n - 1))  # mean of d without entry s
        alpha = float(d[s] - pedestal)
        beta = pedestal * total
        # y - alpha * roll(x, s) - beta, where roll(x, s)[t] = x[(t - s) mod n]
        np.multiply(x[: n - s], alpha, out=buf[s:])
        np.multiply(x[n - s:], alpha, out=buf[:s])
        np.subtract(y, buf, out=buf)
        buf -= beta
        residual = _norm(buf)
    if not finite((alpha, beta, residual)):
        raise ValueError("shift_affine: the fit is not finite (the inputs overflow)")

    flags = () if live(abs(alpha) * float(x_peak), y_peak) else ("alpha_unidentifiable",)
    return AffineShiftModel(s, alpha, beta, flags), residual

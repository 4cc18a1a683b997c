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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isfinite, sqrt

import numpy as np

from .errors import IdentifiabilityError, require_finite
from .spectral import dft_entry, live, rdft

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


@dataclass(frozen=True, eq=False)
class ShiftEstimate:
    """Recovered cyclic delay together with its diagnostic score(s).

    ``scores``, when present, holds one value per candidate shift;
    ``shift`` is its argmax (argmin for the residual-based
    ``compressive_ratio`` method). Ties always resolve to the smallest
    index. ``flags`` carries soft diagnostics such as ``"ambiguous"``
    or ``"model_misfit"`` that do not prevent an estimate from being
    returned. A float64 ``scores`` array is taken over, not copied: it
    becomes the estimate's own and is marked read-only. A score that is
    not finite raises ValueError naming the method.
    """

    method: str
    n: int
    shift: int
    score: float
    scores: np.ndarray | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not isfinite(self.score):
            raise ValueError(f"{self.method}: the score is {self.score} (the inputs overflow)")
        if self.scores is not None:
            arr = np.asarray(self.scores, dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, "scores", arr)


@dataclass(frozen=True)
class AffineShiftModel:
    """Model y = alpha * delay(x, shift) + beta recovered by shift_affine."""

    shift: int
    alpha: float
    beta: float
    flags: tuple[str, ...] = ()


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("signals must be one-dimensional")
    if x.size == 0:
        raise ValueError("signals are empty")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    require_finite(x, "x")
    require_finite(y, "y")
    return x, y


def _norm(v: np.ndarray) -> float:
    # Euclidean norm via einsum's single-threaded loop; np.linalg.norm
    # goes through BLAS, whose thread start-up dominates on long signals.
    # Beyond ~1e154 the sum of squares overflows, so it is rescaled once.
    sq = np.einsum("i,i->", v, v)
    if isfinite(sq):
        return sqrt(sq)
    peak = float(np.abs(v).max())
    return peak * _norm(v / peak)


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
    """
    xs = np.fft.rfft(x)
    usable = live(np.abs(xs))
    # The spectrum of y is a temporary, freed before the inverse transform.
    rho = np.divide(np.fft.rfft(y), xs, out=np.zeros_like(xs), where=usable)
    return np.fft.irfft(rho, x.size), usable


def shift_by_crosscorr(x, y) -> ShiftEstimate:
    """Classic estimator: peak of the circular cross-correlation.

    The score vector is sqrt(n) * idft(conj(dft(x)) * dft(y)), whose
    entry s equals the alignment inner product
    sum_t x[(t-s) mod n] * y[t]. For y an exact delay of x the peak
    value is ||x||^2. Both signals are real, so the product is formed
    on bins 0..n//2 only and the real inverse transform implies the
    rest: three real transforms and one pointwise product in all.
    """
    x, y = _pair(x, y)
    if not x.any() or not y.any():
        raise IdentifiabilityError("cross-correlation needs nonzero signals")
    n = x.size
    # Unscaled forward transforms and the 1/n inverse give the inner products.
    spec = np.fft.rfft(x)
    np.conjugate(spec, out=spec)
    spec *= np.fft.rfft(y)
    scores = np.fft.irfft(spec, n)
    s = int(np.argmax(scores))
    return ShiftEstimate("crosscorr", n, s, float(scores[s]), scores)


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
    d, usable = _ratio_impulse(*_pair(x, y))
    if not usable.any():
        raise IdentifiabilityError("reference signal has no usable spectral bin (all zero)")
    s = int(np.argmax(d))
    return ShiftEstimate("ratio", d.size, s, float(d[s]), d)


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
    return _strongest_bin(np.abs(xs), xs.size)


def _strongest_bin(mags: np.ndarray, n: int) -> int:
    """The :func:`select_bin` rule on magnitudes of bins 0..mags.size-1 of an n-point spectrum.

    Taking the bins 0..n//2 of a real signal's spectrum gives the same
    winner as the full spectrum up to its mirror n - i, which has equal
    magnitude and identifies the same shift. If the strongest coprime
    bin is not live, no coprime bin is.
    """
    coprime = np.where(_coprime_mask(mags.size, n), mags, 0.0)
    i = int(np.argmax(coprime))
    if not live(coprime[i], mags.max()):
        raise IdentifiabilityError(
            "no usable bin: every nonzero bin fails the gcd(i, n) = 1 "
            "disambiguation condition (excluded bins cannot identify the shift)"
        )
    return i


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
        Equal-length real signals.
    i : int, optional
        Spectral bin to use. Must satisfy gcd(i, n) = 1 and carry
        energy. When omitted, the best bin is chosen by the
        :func:`select_bin` rule from bins 0..n//2 of the spectrum of x
        (convenience path; costs one real-input transform on top of the
        explicit-bin path).

    The estimate's score is |rho|, which equals 1 for exact shifts. If
    ``abs(|rho| - 1)`` exceeds ``MISFIT_TOL`` the estimate is flagged
    ``"model_misfit"`` (y is not a pure delay of x) but still returned.
    """
    x, y = _pair(x, y)
    n = x.size
    if i is None:
        i = _strongest_bin(np.abs(rdft(x)), n) if n >= 2 else 0
    i = int(i)
    if not 0 <= i < n:
        raise ValueError(f"bin index i={i} out of range 0..{n - 1}")
    if gcd(i, n) != 1:
        raise IdentifiabilityError(
            f"bin {i} cannot disambiguate all {n} shifts: gcd({i}, {n}) != 1"
        )
    xi = complex(dft_entry(x, i))
    if not live(abs(xi), _norm(x)):
        raise IdentifiabilityError(f"bin {i} of the reference spectrum is numerically zero")

    rho = complex(dft_entry(y, i)) / xi
    flags = ("model_misfit",) if abs(abs(rho) - 1.0) > MISFIT_TOL else ()
    t = round(-float(np.angle(rho)) * n / (2 * np.pi)) % n
    s = (t * pow(i, -1, n)) % n if n > 1 else 0
    return ShiftEstimate("single_bin", n, int(s), float(abs(rho)), None, flags)


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
    changes neither.

    Returns
    -------
    (AffineShiftModel, float)
        The fitted model and the reconstruction residual
        ||y - alpha * delay(x, s) - beta||_2.
    """
    x, y = _pair(x, y)
    n = x.size
    if n < 3:
        raise IdentifiabilityError(f"affine shift fit needs n >= 3 for three unknowns, got {n}")
    total = float(x.sum())
    x_peak = float(max(x.max(), -x.min()))
    if not live(abs(total), n * x_peak):
        raise IdentifiabilityError("sum(x) is numerically zero: the offset term is unidentifiable")

    # |X[0]| = |sum(x)| > tol * n * max|x| >= tol * max|X|, so bin 0 is live.
    d, usable = _ratio_impulse(x, y)
    if not (usable & _coprime_mask(usable.size, n)).any():
        raise IdentifiabilityError("no usable coprime bin: the shift part is unidentifiable")

    # One scratch buffer holds |d - mean(d)|, then the residual.
    buf = np.subtract(d, d.mean())
    s = int(np.argmax(np.abs(buf, out=buf)))
    pedestal = float((d.sum() - d[s]) / (n - 1))  # mean of d without entry s
    alpha = float(d[s] - pedestal)
    beta = pedestal * total

    flags: tuple[str, ...] = ()
    if not live(abs(alpha) * x_peak, float(max(y.max(), -y.min()))):
        flags = ("alpha_unidentifiable",)

    # y - alpha * roll(x, s) - beta, where roll(x, s)[t] = x[(t - s) mod n]
    np.multiply(x[: n - s], alpha, out=buf[s:])
    np.multiply(x[n - s:], alpha, out=buf[:s])
    np.subtract(y, buf, out=buf)
    buf -= beta
    return AffineShiftModel(s, alpha, beta, flags), _norm(buf)

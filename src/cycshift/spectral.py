"""Unitary discrete Fourier transform primitives.

Every transform in this package uses the unitary convention: both the
forward and the inverse transform carry a 1/sqrt(n) factor, so the
transform matrix F satisfies F^H F = F F^H = I and the 2-norm of a
vector is preserved. The forward kernel is exp(-2j*pi*a*b/n) for
0-based indices a, b. Any length n >= 1 is supported, including primes.

All functions are pure and never modify their inputs.

The public transforms keep the unitary convention. Package code that needs
only a product of transforms may call ``numpy.fft`` directly and fold the
scale factors into its ``norm=`` argument instead of a separate pass.

Only this module knows when a spectral magnitude counts as zero
(:func:`live`), when a magnitude is too extreme to use unscaled
(:func:`scale_exponent` and the band ``BAND`` it keeps), how a delay
becomes a unit phase (:func:`unit_phases`), how the phases of all n
delays split into two factors of O(sqrt(n)) phases each
(:func:`phase_factors`) and which phases a transform entry is
contracted against (:func:`entry_phases`).
"""

from __future__ import annotations

from math import isqrt, sqrt

import numpy as np

from .errors import as_index, finite, peak

__all__ = ["dft", "idft", "fourier_column", "dft_entry"]

# Relative size below which a spectral magnitude (a bin, a spectral row,
# a single transform entry) counts as zero.
ZERO_BIN_TOL = 1e-12

# Peaks inside 2**±BAND need no scaling (scale_exponent gives them 0).
# A real signal row peaking at p has, by Parseval, a bin of modulus at
# least p among bins 0..n//2 of its unscaled transform (the n bins carry
# n * sum(x**2) >= n * p**2, and a bin's mirror has its modulus), so a real
# or imaginary part of at least p / sqrt(2). Only a row peaking below
# 2**-BAND can therefore have a half-spectrum below the band.
BAND = 400

# Up to this length dft_entry evaluates all n phases directly; beyond it
# the blocked evaluation's O(sqrt(n)) trigonometric calls are cheaper.
_DIRECT_ENTRY_MAX = 512


def live(values, scale=None):
    """``values > ZERO_BIN_TOL * scale``: which magnitudes count as nonzero.

    ``values`` is an array, or one magnitude when ``scale`` is given;
    ``scale`` defaults to the largest value along the last axis, so each
    row of a stack is judged against its own peak. Nothing is live at
    scale zero. A scale that is not finite raises ValueError naming the
    overflow: an overflowed magnitude is not zero, and reading it as the
    peak would make every finite value dead.
    """
    scale = values.max(axis=-1, keepdims=True) if scale is None else scale
    if not finite(scale):
        raise ValueError("the inputs overflow: a magnitude they give exceeds the float64 range")
    return values > ZERO_BIN_TOL * scale


def scale_exponent(a: np.ndarray, axis=None):
    """Binary exponent e of the peak |a| (peak = f * 2**e, 0.5 <= f < 1), or 0 inside 2**±BAND.

    The peak is taken over ``axis`` of a real array (the whole array by
    default). ``ldexp(a, -e)`` peaks in [0.5, 1), or is ``a`` itself when
    e is 0; a power-of-two scale is exact. A zero or non-finite peak
    gives 0.
    """
    e = np.frexp(peak(a, axis))[1]
    # Within 2^±BAND, squares and pairwise products of entries from
    # ZERO_BIN_TOL of the peak up, summed over fewer than 2^62 terms, stay
    # normal floats, between 2^-1022 and 2^1023: no scaling is needed.
    return np.where(abs(e) > BAND, e, 0)


def unit_phases(k, s, n: int) -> np.ndarray:
    """exp(-2j*pi*(k*s mod n)/n): the phase a delay by s puts on bin k.

    Broadcasts over integer arrays; the argument is reduced mod n first.
    A table of more than n integer arguments holds at most n distinct
    phases, so it is gathered from those n, which give the same bits.
    """
    arg = np.multiply(k, s) % n
    if arg.size > n and arg.dtype.kind in "iu":
        return np.exp((-2j * np.pi / n) * np.arange(n))[arg]
    return np.exp((-2j * np.pi / n) * arg)


def _as_vector(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    return arr


def dft(x) -> np.ndarray:
    """Unitary discrete Fourier transform of a 1-D real or complex vector.

    Parameters
    ----------
    x : array_like
        Input vector of length n >= 1.

    Returns
    -------
    numpy.ndarray
        Complex spectrum X with X[a] = (1/sqrt(n)) * sum_b x[b] *
        exp(-2j*pi*a*b/n).
    """
    return np.fft.fft(_as_vector(x), norm="ortho")


def idft(X) -> np.ndarray:
    """Inverse of :func:`dft` under the same unitary convention.

    Uses the conjugate kernel with the identical 1/sqrt(n) scale, so
    ``idft(dft(x))`` reproduces ``x`` to machine precision.
    """
    return np.fft.ifft(_as_vector(X, "X"), norm="ortho")


def fourier_column(n: int, q: int) -> np.ndarray:
    """Column ``q`` (1-based) of the n-point unitary Fourier matrix.

    Row ``a`` holds (1/sqrt(n)) * exp(-2j*pi*a*(q-1)/n); the result
    equals ``dft(e_q)`` for the q-th standard basis vector. The 1-based
    ``q`` mirrors the usual linear-algebra column numbering. ``n`` and
    ``q`` must be integers (Python or numpy; a float, even a whole one,
    raises ValueError), with n >= 1 and q in 1..n.
    """
    n = as_index(n, "n", 1)
    q = as_index(q, "column index q", 1, n + 1)
    return unit_phases(q - 1, np.arange(n, dtype=np.int64), n) / sqrt(n)


def dft_entry(x, k):
    """Single entry of the unitary DFT, evaluated directly in O(n).

    Computes ``dft(x)[k]`` without forming the full transform, which is
    what makes one-bin shift estimation a linear-time operation. Accepts
    a real or complex 1-D signal or a 2-D stack of signals (one per row;
    the entry is taken along the last axis). ``k`` is one bin, or for a
    stack one bin per row; bins must be integers (Python or numpy; a
    float, even a whole one, raises ValueError) in 0..n-1. Each row is
    contracted as its own vector product, so a row of a stack gets the
    bits it gets alone.

    Long inputs are cut into blocks of b = ceil(sqrt(n)) samples, so
    the phases cost O(sqrt(n)) trigonometric evaluations: the two
    factors of :func:`phase_factors`. Each block is contracted against
    one shared real (2, b) table of the fine factor's cos and -sin
    values, which gives the real and imaginary parts of its partial sum
    without casting real input to complex; the coarse factor then
    combines the blocks. All phase arguments are reduced mod n before
    evaluation, so no accuracy is lost to large trig arguments.

    Returns a complex scalar for 1-D input, a complex vector for 2-D.
    """
    arr = np.asarray(x)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError("x must be a nonempty 1-D vector or 2-D stack of vectors")
    k = np.asarray(k)
    if k.shape not in ((), arr.shape[:-1]):
        raise ValueError(f"expected one bin or one per row, got shape {k.shape}")
    for i in k.ravel().tolist():
        as_index(i, "bin index k", 0, arr.shape[-1])
    if not np.iscomplexobj(arr):
        arr = arr.astype(np.float64, copy=False)
    return dft_entries(arr, entry_phases(k, arr.shape[-1]))


def entry_phases(k, n: int, factors=None) -> tuple[np.ndarray, ...]:
    """The phases :func:`dft_entries` contracts a length-n signal against to take integer bins ``k``.

    Up to ``_DIRECT_ENTRY_MAX`` they are the n unit phases of each bin,
    as a one-item tuple; beyond it, the coarse factor of
    :func:`phase_factors` and one real (..., 2, b) table of the fine
    factor's cos and -sin values. Each array has its trailing axes after
    those of ``k``. ``factors`` is ``phase_factors(k, n)`` when the
    caller already holds it. Built once, the phases serve every signal
    of length n.
    """
    if n <= _DIRECT_ENTRY_MAX:
        return (unit_phases(np.asarray(k)[..., None], np.arange(n, dtype=np.int64), n),)
    coarse, fine = phase_factors(k, n) if factors is None else factors
    return coarse, np.stack((fine.real, fine.imag), axis=-2)


def dft_entries(x: np.ndarray, phases: tuple[np.ndarray, ...]):
    """``dft(x)[..., k]`` for float64 or complex ``x``, given ``phases = entry_phases(k, n)`` of checked bins ``k``.

    The bins ``k`` broadcast against the leading axes of ``x``: one bin per row
    as in :func:`dft_entry`, or bins on an axis of their own in front, so
    that one pass evaluates every bin of a sensing set. Each (bin, row)
    entry is its own vector product and gets the bits of
    ``dft_entry(row, bin)``.
    """
    n = x.shape[-1]
    if n <= _DIRECT_ENTRY_MAX:
        return _row_dot(x, phases[0]) / sqrt(n)

    coarse, trig = phases  # each broadcasts a row's bin along its phases
    a, b = coarse.shape[-1], trig.shape[-1]
    if n % b:
        x = np.concatenate((x, np.zeros(x.shape[:-1] + (a * b - n,), dtype=x.dtype)), axis=-1)
    # einsum runs one single-threaded SIMD loop. A multithreaded BLAS
    # product over a signal this long can cost ~10x more (measured 8 ms
    # against 0.9 ms at n = 2^20 on 2 cores), mostly waking its threads.
    partial = np.einsum("...mb,...kb->...mk", x.reshape(x.shape[:-1] + (a, b)), trig)
    return _row_dot(partial[..., 0] + 1j * partial[..., 1], coarse) / sqrt(n)


def phase_factors(k, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coarse and fine factors of the phases that delays put on bins ``k``.

    With b = ceil(sqrt(n)) and a = ceil(n / b), a delay by s = i*b + j
    (0 <= j < b) puts on bin k the phase coarse[..., i] * fine[..., j]:
    coarse = unit_phases(k, b * arange(a), n) and fine =
    unit_phases(k, arange(b), n), each with a trailing axis after those
    of ``k``, both taken from one unit_phases call. Their a*b products
    cover shifts 0..a*b-1, at least n of them; cut to the first n they
    give every shift its phase, from O(sqrt(n)) trigonometric
    evaluations per bin instead of n.
    """
    b = isqrt(n - 1) + 1
    a = -(-n // b)
    delays = np.arange(a + b, dtype=np.int64)
    delays[:a] *= b  # b*i for the coarse factor
    delays[a:] -= a  # j for the fine one
    phases = unit_phases(np.asarray(k)[..., None], delays, n)
    return phases[..., :a], phases[..., a:]


def _row_dot(a: np.ndarray, v: np.ndarray):
    """Sum over the last axis of a * v, as one vector product per row.

    A (B, n) @ (n,) product goes through a matrix-vector kernel whose
    sums differ in the last bits from the 1-D product of each row; a
    stack of (1, n) @ (n, 1) products runs the 1-D kernel on every row.
    """
    return np.matmul(a[..., None, :], v[..., None])[..., 0, 0]

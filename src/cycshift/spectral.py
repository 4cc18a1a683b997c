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
(:func:`live`) and how a delay becomes a unit phase (:func:`unit_phases`).
"""

from __future__ import annotations

from math import isqrt, sqrt

import numpy as np

__all__ = ["dft", "idft", "rdft", "fourier_column", "dft_entry"]

# Relative size below which a spectral magnitude (a bin, a spectral row,
# a single transform entry) counts as zero.
ZERO_BIN_TOL = 1e-12

# Up to this length dft_entry evaluates all n phases directly; beyond it
# the blocked evaluation's O(sqrt(n)) trigonometric calls are cheaper.
_DIRECT_ENTRY_MAX = 512


def live(values, scale=None):
    """``values > ZERO_BIN_TOL * scale``: which magnitudes count as nonzero.

    ``values`` is an array, or one magnitude when ``scale`` is given;
    ``scale`` defaults to ``values.max()``. Nothing is live at scale zero.
    """
    return values > ZERO_BIN_TOL * (values.max() if scale is None else scale)


def unit_phases(k, s, n: int) -> np.ndarray:
    """exp(-2j*pi*(k*s mod n)/n): the phase a delay by s puts on bin k.

    Broadcasts over integer arrays; the argument is reduced mod n first.
    """
    return np.exp((-2j * np.pi / n) * (np.multiply(k, s) % n))


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


def rdft(x, axis: int = -1) -> np.ndarray:
    """Bins 0..n//2 of the unitary DFT of real input, along ``axis``.

    A real signal has a conjugate-symmetric spectrum, X[n-a] =
    conj(X[a]), so these n//2 + 1 bins determine the rest. Computing
    only them takes about half the work and memory of :func:`dft`.
    """
    return np.fft.rfft(np.asarray(x, dtype=np.float64), axis=axis, norm="ortho")


def fourier_column(n: int, q: int) -> np.ndarray:
    """Column ``q`` (1-based) of the n-point unitary Fourier matrix.

    Row ``a`` holds (1/sqrt(n)) * exp(-2j*pi*a*(q-1)/n); the result
    equals ``dft(e_q)`` for the q-th standard basis vector. The 1-based
    ``q`` mirrors the usual linear-algebra column numbering.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 1 <= q <= n:
        raise ValueError(f"column index q={q} out of range 1..{n}")
    return unit_phases(q - 1, np.arange(n, dtype=np.int64), n) / sqrt(n)


def dft_entry(x, k: int):
    """Single entry of the unitary DFT, evaluated directly in O(n).

    Computes ``dft(x)[k]`` without forming the full transform, which is
    what makes one-bin shift estimation a linear-time operation. Accepts
    a real or complex 1-D signal or a 2-D stack of signals (one per row;
    the entry is taken along the last axis, and the per-signal phase
    table is shared).

    Long inputs are cut into blocks of b = ceil(sqrt(n)) samples, so
    the phases cost O(sqrt(n)) trigonometric evaluations. Each block is
    contracted against one shared real (2, b) table of cos and -sin
    values, which gives the real and imaginary parts of its partial sum
    without casting real input to complex; a second, length-n/b phase
    vector then combines the blocks. All phase arguments are reduced
    mod n before evaluation, so no accuracy is lost to large trig
    arguments.

    Returns a complex scalar for 1-D input, a complex vector for 2-D.
    """
    arr = np.asarray(x)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError("x must be a nonempty 1-D vector or 2-D stack of vectors")
    n = arr.shape[-1]
    if not 0 <= k < n:
        raise ValueError(f"bin index k={k} out of range 0..{n - 1}")
    if not np.iscomplexobj(arr):
        arr = arr.astype(np.float64, copy=False)

    if n <= _DIRECT_ENTRY_MAX:
        return (arr @ unit_phases(k, np.arange(n, dtype=np.int64), n)) / sqrt(n)

    b = isqrt(n - 1) + 1
    m = -(-n // b)
    if n % b:
        pad = np.zeros(arr.shape[:-1] + (m * b - n,), dtype=arr.dtype)
        arr = np.concatenate((arr, pad), axis=-1)
    within = unit_phases(k, np.arange(b, dtype=np.int64), n)
    trig = np.stack((within.real, within.imag))
    across = unit_phases(k * b % n, np.arange(m, dtype=np.int64), n)
    # einsum runs one single-threaded SIMD loop. A multithreaded BLAS
    # product over a signal this long can cost ~10x more (measured 8 ms
    # against 0.9 ms at n = 2^20 on 2 cores), mostly waking its threads.
    partial = np.einsum("...mb,kb->...mk", arr.reshape(arr.shape[:-1] + (m, b)), trig)
    return ((partial[..., 0] + 1j * partial[..., 1]) @ across) / sqrt(n)

"""Unitary discrete Fourier transform primitives.

Every transform in this package uses the unitary convention: both the
forward and the inverse transform carry a 1/sqrt(n) factor, so the
transform matrix F satisfies F^H F = F F^H = I and the 2-norm of a
vector is preserved. The forward kernel is exp(-2j*pi*a*b/n) for
0-based indices a, b. Any length n >= 1 is supported, including primes.

The public functions are pure and never modify their inputs
(:func:`scaled_back` scales its caller's own result in place).

The public transforms keep the unitary convention. Package code that needs
only a product of transforms may call ``numpy.fft`` directly and fold the
scale factors into its ``norm=`` argument instead of a separate pass.

Only this module knows when a spectral magnitude counts as zero
(:func:`live`), when an input row is too extreme to take unscaled into
a transform or product and by which power of two it is scaled instead
(:func:`to_band` and the band ``BAND`` it keeps; :func:`lift`, the same
rule upward only), how a result formed from scaled rows is scaled back
and refused if it is not finite (:func:`scaled_back`) or if its scores
underflow (:func:`lower`), how a Euclidean norm is taken whose sum of
squares would leave the float64 range (:func:`row_norm`), how a delay
becomes a unit phase (:func:`unit_phases`), how the phases of all n
delays split into two factors of O(sqrt(n)) phases each
(:func:`phase_factors`) and which phases a transform entry is
contracted against (:func:`entry_phases`): on long signals, those two
factors themselves, the fine one read as (cos, -sin) pairs by one BLAS
product per entry, split into chunks of rows where a product would
exceed 2**18 samples (:func:`dft_entries`).

One overflow rule holds for every entry and spectrum the package
computes: one that is not finite is an overflow and is refused by name
(ValueError), never read as zero or as a dead bin, and numpy issues no
warning on the way. The spectral primitives refuse rather than scale:
:func:`dft`, :func:`idft` and :func:`dft_entry` of a finite input whose
sums leave the float64 range raise ValueError naming the call. Scaling
into the band belongs to the callers that need it, and each goes
through the functions above: the circulant core and :func:`row_norm`
scale rows both ways, while crosscorr and compressive argmax
:func:`lift` their inputs only upward (so inputs near the top of the
range still overflow there and are refused) and :func:`lower` their
scores back.
"""

from __future__ import annotations

from math import inf, isqrt, sqrt

import numpy as np

from .errors import as_index, finite, peak, require_finite

__all__ = ["dft", "idft", "fourier_column", "dft_entry"]

# Relative size below which a spectral magnitude (a bin, a spectral row,
# a single transform entry) counts as zero.
ZERO_BIN_TOL = 1e-12

# A row peaking outside 2**±BAND is scaled before any product (to_band);
# one peaking below FLOOR is lifted by the estimators that scale only upward.
BAND = 400
FLOOR = 2.0 ** -BAND

# A sum of squares below the smallest normal float has lost bits to underflow.
_TINY = np.finfo(np.float64).tiny

# Up to this length dft_entry evaluates all n phases directly; beyond it,
# blocked, from O(sqrt(n)) trigonometric calls. Timed against the
# per-bin product on a 2-vCPU host (n = 256..1024), there is no single
# crossover: dft_entry, which builds its phases per call, is cheaper
# blocked from n = 384-512 (37 against 45 us at 512, 35 against 69 at
# 1024); a 4-bin measure on a set that holds its phases stays 4-10 us
# cheaper direct up to 1024, and one that builds them is cheaper
# blocked from 256 on.
_DIRECT_ENTRY_MAX = 512

# The blocked product of dft_entries takes at most this many samples per
# BLAS call. On a 2-vCPU host with OpenBLAS, a (1024, 1024) @ (1024, 2)
# product (n = 2^20) runs on both cores, and its worker thread then spins
# for 115-135 ms of CPU time; (256, 1024) products leave 0.1 ms and take
# less time in all, while (512, 1024) ones still spin.
_PRODUCT_SAMPLES = 1 << 18


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


def to_band(a: np.ndarray, peaks):
    """``a`` with each row scaled into the band by a power of two, and the exponents e that scaled it.

    ``peaks`` holds the largest |value| of each row of ``a`` (one for
    the whole of ``a`` scales it as one row), read before any transform
    or product. A row peaking outside [2**-BAND, 2**BAND) at
    f * 2**e (0.5 <= f < 1) becomes ``ldexp(row, -e)``, which peaks in
    [0.5, 1); any other row, and a zero or non-finite peak, keeps e = 0
    and is left as it is (``a`` itself is returned when no row is
    scaled). A complex ``a`` is scaled part by part. A power-of-two
    scale is exact while the values stay normal floats, so a result
    formed from the scaled rows scales back exactly to the result of
    ``a``.
    """
    # Inside the band, squares and pairwise products of entries from
    # ZERO_BIN_TOL of the peak up, summed over fewer than 2^62 terms, stay
    # normal floats, between 2^-1022 and 2^1023: no scaling is needed.
    e = np.where((peaks < FLOOR) | (peaks >= 2.0 ** BAND), np.frexp(peaks)[1], 0)
    return (np.ldexp(a.view(np.float64), -e[..., None]).view(a.dtype) if e.any() else a), e


def lift(a: np.ndarray, peaks):
    """:func:`to_band` upward only: ``a`` with each row peaking below ``FLOOR`` scaled up, and the exponents.

    A peak above 1 reads as 1, so a row peaking above the band stays as
    it is: its products overflow as they would unscaled, and are
    refused. ``peaks`` is one float, or one per row. When no row peaks
    below the band, ``a`` itself comes back with the exponent 0, a
    Python int, and :func:`lower` then does nothing. One float is
    compared as it is and a stack by its smallest peak: a numpy
    reduction costs a few microseconds on a scalar.
    """
    if (peaks if isinstance(peaks, float) else peaks.min()) >= FLOOR:
        return a, 0
    return to_band(a, np.minimum(peaks, 1.0))


def lower(what: str, scores: np.ndarray, e) -> None:
    """Scale scores formed from rows lifted by 2**-e back down by 2**e, in place, row by row.

    ``e`` is the sum of the exponents :func:`lift` gave the factors of
    the scores; the int 0, nothing lifted, leaves them as they are.
    Raises ValueError naming ``what`` and the underflow if that rounding
    moves the argmax of a row, or leaves all zero a row whose scores
    were not: the scores of such inputs are too small for float64 to
    tell the shifts apart.
    """
    if isinstance(e, int):
        return
    s, nonzero = np.argmax(scores, axis=-1), scores.any(axis=-1)
    np.ldexp(scores, e[..., None], out=scores)
    if (np.argmax(scores, axis=-1) != s).any() or (nonzero > scores.any(axis=-1)).any():
        raise ValueError(f"{what}: the scores underflow (the inputs are too small)")


def row_norm(v: np.ndarray):
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


def scaled_back(out: np.ndarray, e, what: str) -> np.ndarray:
    """``out`` (float or complex) times 2**e, in place; ValueError naming ``what`` if it is not finite.

    ``e`` broadcasts against ``out``'s real values (its float64 view); with
    e = 0 only the finiteness check runs.
    """
    if np.any(e):
        # An overflowed value is refused below, without numpy's warnings.
        with np.errstate(over="ignore"):
            np.ldexp(out.view(np.float64), e, out=out.view(np.float64))
    if not finite(out):
        raise ValueError(f"{what} is not finite")
    return out


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


def _unitary(fft, x, name: str, what: str) -> np.ndarray:
    """``fft(x, norm="ortho")`` of the nonempty vector ``x`` (named ``name``), refused as ``what`` if not finite."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without numpy's warnings
        out = fft(arr, norm="ortho")
    try:
        return scaled_back(out, 0, what)
    except ValueError:  # the input is read only to name a NaN or an infinity in it
        require_finite(arr, name)
        raise


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

    An input holding NaN or an infinity raises ValueError naming ``x``;
    a finite one whose sums overflow raises ValueError naming the
    spectrum.
    """
    return _unitary(np.fft.fft, x, "x", "dft: the spectrum")


def idft(X) -> np.ndarray:
    """Inverse of :func:`dft` under the same unitary convention.

    Uses the conjugate kernel with the identical 1/sqrt(n) scale, so
    ``idft(dft(x))`` reproduces ``x`` to machine precision. A NaN or an
    infinity in ``X``, or a result that is not finite, raises ValueError
    naming it, as in :func:`dft`.
    """
    return _unitary(np.fft.ifft, X, "X", "idft: the signal")


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

    Long inputs are cut into a blocks of b = ceil(sqrt(n)) samples, so
    the phases cost O(sqrt(n)) trigonometric evaluations: the two
    factors of :func:`phase_factors`. The blocks are contracted against
    the fine factor itself, whose float64 view holds each phase as a
    (cos, -sin) pair: one (a, b) @ (b, 2) BLAS product per row (split
    into chunks of rows where it would exceed 2**18 samples, which
    keeps OpenBLAS on one thread) gives the real and imaginary parts of
    every block's partial sum without casting real input to complex,
    and the coarse factor then combines the blocks. A complex signal is
    taken as its real and imaginary parts, each a real signal. All
    phase arguments are reduced mod n before evaluation, so no accuracy
    is lost to large trig arguments.

    Returns a complex scalar for 1-D input, a complex vector for 2-D.
    NaN or infinite samples raise ValueError naming ``x``, and finite
    ones whose sums overflow ValueError naming the entry, as in
    :func:`dft`.
    """
    arr = np.asarray(x)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError("x must be a nonempty 1-D vector or 2-D stack of vectors")
    k = np.asarray(k)
    if k.shape not in ((), arr.shape[:-1]):
        raise ValueError(f"k: expected one bin or one per row, got shape {k.shape}")
    for i in k.ravel().tolist():
        as_index(i, "bin index k", 0, arr.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without numpy's warnings
        # A complex signal is taken as its real and its imaginary part, each a real signal.
        out = (dft_entry(arr.real, k) + 1j * dft_entry(arr.imag, k) if np.iscomplexobj(arr)
               else dft_entries(arr.astype(np.float64, copy=False), entry_phases(k, arr.shape[-1])))
    try:
        return scaled_back(out, 0, "dft_entry: the entry")
    except ValueError:  # as in dft
        require_finite(arr, "x")
        raise


def entry_phases(k, n: int, factors=None) -> tuple[np.ndarray, ...]:
    """The phases :func:`dft_entries` contracts a length-n signal against to take integer bins ``k``.

    Up to ``_DIRECT_ENTRY_MAX`` they are the n unit phases of each bin,
    as a one-item tuple; beyond it, the coarse factor of
    :func:`phase_factors` itself and the fine one read through its
    float64 view, each phase as a (cos, -sin) pair on a last axis of
    two. Each array has its phase axis after those of ``k``.
    ``factors`` is ``phase_factors(k, n)`` when the caller already holds
    it. Built once, the phases serve every signal of length n.
    """
    if n <= _DIRECT_ENTRY_MAX:
        return (unit_phases(np.asarray(k)[..., None], np.arange(n, dtype=np.int64), n),)
    coarse, fine = phase_factors(k, n) if factors is None else factors
    return coarse, fine.view(np.float64).reshape(fine.shape + (2,))


def dft_entries(x: np.ndarray, phases: tuple[np.ndarray, ...]):
    """``dft(x)[..., k]`` for float64 ``x``, given ``phases = entry_phases(k, n)`` of checked bins ``k``.

    The bins ``k`` broadcast against the leading axes of ``x``: one bin per row
    as in :func:`dft_entry`, or bins on an axis of their own in front, so
    that one pass evaluates every bin of a sensing set. Each (bin, row)
    entry is its own product and gets the bits of
    ``dft_entry(row, bin)``.
    """
    n = x.shape[-1]
    if n <= _DIRECT_ENTRY_MAX:
        return _row_dot(x, phases[0]) / sqrt(n)

    coarse, pairs = phases  # each broadcasts a row's bin along its phases
    a, b = coarse.shape[-1], pairs.shape[-2]
    if n % b:
        x = np.concatenate((x, np.zeros(x.shape[:-1] + (a * b - n,), dtype=x.dtype)), axis=-1)
    # With the fine factor as (cos, -sin) pairs, one (a, b) @ (b, 2) BLAS
    # product per (bin, row) gives the real and imaginary parts of every
    # block's partial sum, read back as complex. Where a product would
    # exceed _PRODUCT_SAMPLES samples (exactly when n > 2^18), the blocks go
    # in chunks of _PRODUCT_SAMPLES // b rows, one product each, whose sums
    # differ from one product's in the last bits. Otherwise the product is
    # taken whole: concatenating its one chunk would add 3-5 us to a
    # measure at n = 4096.
    blocks, rows = x.reshape(x.shape[:-1] + (a, b)), _PRODUCT_SAMPLES // b
    partial = blocks @ pairs if a <= rows else np.concatenate(
        [blocks[..., i:i + rows, :] @ pairs for i in range(0, a, rows)], axis=-2)
    return _row_dot(partial.view(np.complex128)[..., 0], coarse) / sqrt(n)


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

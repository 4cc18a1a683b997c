"""Slow, obviously correct reference implementations.

These routines deliberately avoid numpy.fft and any shared code path
with the fast estimators, so the two sides can check each
other. They ship with the library (not only the tests) because the CLI
selftest runs them in the field. Complexity is O(n^2) or worse by
design; this is the only module that forms dense n-by-n matrices.
"""

from __future__ import annotations

import numpy as np

from .circulant import Circulant, make_shift
from .compressive import Measurement, _common_sensing, embed
from .retrieval import ShiftEstimate
from .spectral import fourier_column

__all__ = ["naive_dft", "materialize", "brute_force_shift", "brute_force_circulant_fit",
           "argmax_identity_check"]


def naive_dft(x) -> np.ndarray:
    """Direct O(n^2) unitary transform, kept independent of numpy.fft."""
    x = np.asarray(x)
    n = x.size
    a = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(a, a) / n)
    return kernel @ x / np.sqrt(n)


def materialize(C: Circulant) -> np.ndarray:
    """Dense n-by-n matrix of a circulant: column j is the first column rolled down j."""
    n = C.n
    out = np.empty((n, n))
    for j in range(n):
        out[:, j] = np.roll(C.first_column, j)
    return out


def brute_force_shift(x, y) -> ShiftEstimate:
    """Literal alignment search: score each delay by a direct inner product.

    Row s of the permutation stack is x delayed by s via explicit index
    arithmetic; the score is its inner product with y. No transforms
    anywhere. Ties resolve to the smallest shift, matching the fast
    estimators.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size == 0:
        raise ValueError("signals must be nonempty 1-D vectors")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    t = np.arange(n)
    delayed = x[(t[None, :] - t[:, None]) % n]  # row s holds x[(t - s) mod n]
    scores = delayed @ y
    s = int(np.argmax(scores))
    return ShiftEstimate("brute_force", n, s, float(scores[s]), scores)


def brute_force_circulant_fit(X, Y) -> tuple[np.ndarray, float]:
    """Least-squares circulant fit solved as an unstructured linear system.

    Stacks the n basis responses (each shift of X, vectorized) into a
    dense design matrix and solves for the first-column coefficients
    with :func:`numpy.linalg.lstsq`, which falls back to the
    minimum-norm solution on rank deficiency. Returns (c, residual)
    with residual = ||Y - circ(c) X||_F evaluated from the dense fit.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape != Y.shape or X.size == 0:
        raise ValueError(f"X and Y must be real matrices of identical shape, got {X.shape} vs {Y.shape}")
    n = X.shape[0]
    design = np.empty((X.size, n))
    for q in range(n):
        design[:, q] = np.roll(X, q, axis=0).reshape(-1)
    c, *_ = np.linalg.lstsq(design, Y.reshape(-1), rcond=None)
    residual = float(np.linalg.norm(Y.reshape(-1) - design @ c))
    return c, residual


def argmax_identity_check(z: Measurement, v: Measurement, shift: int) -> tuple[float, float]:
    """Evaluate both sides of the compressed-correlation identity.

    The left side materializes the sensing matrix A and the shift
    matrix P and evaluates Re(z^H A P^shift A^H v) with dense products.
    The right side uses no matrices at all: it embeds conj(z) * v into
    the ambient dimension and takes its inner product against
    sqrt(n) times the Fourier column of the shift. The two must agree;
    this is a test-scale operation (n <= 64).
    """
    sensing = _common_sensing(z, v)
    n = sensing.n
    if n > 64:
        raise ValueError(f"identity check materializes {n}x{n} matrices; limit is 64")
    if not 0 <= shift < n:
        raise ValueError(f"shift {shift} out of range 0..{n - 1}")

    rows = np.asarray(sensing.indices, dtype=np.int64)
    A = np.exp((-2j * np.pi / n) * (np.outer(rows, np.arange(n)) % n)) / np.sqrt(n)
    P = materialize(make_shift(n, shift))
    lhs = float(np.vdot(z.values, A @ (P @ (A.conj().T @ v.values))).real)

    r = embed(np.conj(z.values) * v.values, sensing)
    rhs = float((r @ (np.sqrt(n) * fourier_column(n, shift + 1))).real)
    return lhs, rhs

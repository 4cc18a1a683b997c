"""Circulant matrices: shift operators, fast application, least-squares fit.

A circulant matrix is determined by its first column; column j of the
dense matrix is that column cyclically shifted down by j. The Fourier
matrix diagonalizes every circulant, which gives O(n log n) products
and a closed-form least-squares fit of a circulant to data pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import dft, live, rdft

__all__ = ["Circulant", "make_shift", "ls_circulant_fit"]


@dataclass(frozen=True, eq=False)
class Circulant:
    """Real circulant matrix stored by its first column.

    Storage is O(n); the dense matrix is never formed here (see
    :func:`cycshift.oracle.materialize` for an explicit version).
    Instances are immutable and safe to share between threads.
    """

    first_column: np.ndarray

    def __post_init__(self):
        col = np.array(self.first_column, dtype=np.float64)
        if col.ndim != 1 or col.size == 0:
            raise ValueError("first_column must be a nonempty 1-D real vector")
        col.flags.writeable = False
        object.__setattr__(self, "first_column", col)

    @property
    def n(self) -> int:
        return self.first_column.size

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sqrt(n) * dft(first_column), ordered by Fourier mode.

        For a real circulant the vector is conjugate-symmetric: entry 0
        is real, entry n-k is the conjugate of entry k, and entry n/2 is
        real when n is even.
        """
        return np.sqrt(self.n) * dft(self.first_column)

    def apply(self, x) -> np.ndarray:
        """Multiply by a real vector via the Fourier diagonalization.

        Computes idft(eigenvalues * dft(x)) on Fourier modes 0..n//2
        only: the matrix and x are real, so both spectra are
        conjugate-symmetric and the real inverse transform implies the
        other modes. The result is therefore real by construction.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"dimension mismatch: matrix is {self.n}, vector has shape {x.shape}")
        # Unscaled forward transforms and the 1/n inverse: a circular convolution.
        spec = np.fft.rfft(self.first_column)
        spec *= np.fft.rfft(x)
        return np.fft.irfft(spec, self.n)


def make_shift(n: int, s: int) -> Circulant:
    """Cyclic delay by ``s`` positions as an n-by-n circulant.

    Applying the result maps x[t] to x[(t - s) mod n]; s=0 gives the
    identity. The dense form is an orthonormal permutation matrix.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= s < n:
        raise ValueError(f"shift s={s} out of range 0..{n - 1}")
    col = np.zeros(n)
    col[s] = 1.0
    return Circulant(col)


def ls_circulant_fit(X, Y) -> tuple[Circulant, float]:
    """Circulant C minimizing the Frobenius error ||Y - C X||_F.

    The problem separates row-wise in the Fourier domain: each
    eigenvalue is the least-squares complex gain mapping the k-th
    spectral row of X onto the same row of Y,

        sigma_k = <x_row_k, y_row_k> / ||x_row_k||^2.

    Only the first floor(n/2)+1 spectral rows are transformed and
    fitted; the rest are conjugate mirrors, so the real inverse
    transform yields an exactly real first column. Rows of X whose
    magnitude ||x_row_k|| is negligible (the package's relative zero
    test, judged against the largest row magnitude) get a zero
    eigenvalue, which is the minimum-norm choice among the equally
    optimal ones.

    Parameters
    ----------
    X, Y : array_like
        Real matrices of identical shape (n, N); 1-D inputs are treated
        as single columns.

    Returns
    -------
    (Circulant, float)
        The fitted circulant and the residual ||Y - C X||_F, evaluated
        in the Fourier domain where the spectra are already available.
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

    Xs = rdft(X, axis=0)
    Ys = rdft(Y, axis=0)
    energy = np.vecdot(Xs, Xs).real  # vecdot conjugates its first argument
    rows = live(np.sqrt(energy))
    sigma = np.divide(np.vecdot(Xs, Ys), energy, out=np.zeros(energy.size, complex), where=rows)
    # sigma holds the eigenvalues, the unscaled transform of the column.
    col = np.fft.irfft(sigma, n)

    # The Frobenius norm is unitarily invariant, so the residual is summed
    # over the spectral rows; each row strictly between 0 and n/2 stands
    # for itself and its conjugate mirror. Ys becomes Ys - sigma * Xs.
    Xs *= sigma[:, None]
    Ys -= Xs
    row_err = np.vecdot(Ys, Ys).real
    mirrored = np.arange(row_err.size) * 2 % n != 0
    residual = np.sqrt(row_err.sum() + row_err[mirrored].sum())
    return Circulant(col), float(residual)

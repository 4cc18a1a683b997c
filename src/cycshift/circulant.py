"""Circulant matrices: shift operators, fast application, least-squares fit.

A circulant matrix is determined by its first column; column j of the
dense matrix is that column cyclically shifted down by j. The Fourier
matrix diagonalizes every circulant, which gives O(n log n) products
and a closed-form least-squares fit of a circulant to data pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import as_index, peak, real_array, real_rows
from .spectral import live, scaled_back, to_band

__all__ = ["Circulant", "make_shift", "ls_circulant_fit"]


@dataclass(frozen=True, eq=False)
class Circulant:
    """Real circulant matrix stored by its first column.

    Storage is O(n); the dense matrix is never formed here (see
    :func:`cycshift.oracle.materialize` for an explicit version).
    Instances are immutable and safe to share between threads. A first
    column holding complex values, NaN or an infinity raises ValueError.
    The peak |value| of the column, read by that finiteness check, is
    kept for :meth:`apply` and :meth:`eigenvalues`.
    """

    first_column: np.ndarray

    def __post_init__(self):
        col, top = real_rows(self.first_column, "first_column")
        if col.ndim != 1 or col.size == 0:
            raise ValueError("first_column must be a nonempty 1-D real vector")
        self.__dict__.update(first_column=np.array(col), _peak=top)  # past the frozen __setattr__
        self.first_column.flags.writeable = False

    @property
    def n(self) -> int:
        return self.first_column.size

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sqrt(n) * dft(first_column), ordered by Fourier mode.

        For a real circulant the vector is conjugate-symmetric: entry 0
        is real, entry n-k is the conjugate of entry k, and entry n/2 is
        real when n is even.

        A first column peaking outside 2**±BAND is transformed as
        column * 2**-e (:func:`~cycshift.spectral.to_band`) and the
        eigenvalues are scaled back by 2**e, exactly, as in
        :meth:`apply`; eigenvalues beyond the float64 range raise
        ValueError naming the call.
        """
        col, e = to_band(self.first_column, self._peak)
        # The band keeps the transform finite: only the scaled-back spectrum is checked.
        return scaled_back(np.sqrt(self.n) * np.fft.fft(col, norm="ortho"), e, "Circulant.eigenvalues: the spectrum")

    def apply(self, x) -> np.ndarray:
        """Multiply by a real vector via the Fourier diagonalization.

        Computes idft(eigenvalues * dft(x)) on Fourier modes 0..n//2
        only: the matrix and x are real, so both spectra are
        conjugate-symmetric and the real inverse transform implies the
        other modes. The result is therefore real by construction. It is
        a view of the first n slots of the spectrum of x, which the
        inverse transform overwrites once the product is formed.

        The product is taken of the first column * 2**-a and x * 2**-b,
        where 2**a and 2**b are the binary orders of their peaks outside
        2**±BAND (:func:`~cycshift.spectral.to_band`), and is
        scaled back by 2**(a + b), exactly, as in
        :func:`ls_circulant_fit`. So it is right at any finite magnitude
        whose answer is finite. An x holding complex values, NaN or an
        infinity raises ValueError naming x, and so does a product that
        is not finite.
        """
        x, x_peak = real_rows(x, "x")
        if x.shape != (self.n,):
            raise ValueError(f"dimension mismatch: matrix is {self.n}, vector has shape {x.shape}")
        (col, a), (x, b) = to_band(self.first_column, self._peak), to_band(x, x_peak)
        # Unscaled forward transforms and the 1/n inverse: a circular
        # convolution. Both factors peak inside the band, so it cannot
        # overflow before it is scaled back.
        spec = np.fft.rfft(col)
        xs = np.fft.rfft(x)
        spec *= xs
        # The inverse lands in the spent spectrum of x.
        out = np.fft.irfft(spec, self.n, out=xs.view(np.float64)[: self.n])
        return scaled_back(out, a + b, "Circulant.apply: the product")


def make_shift(n: int, s: int) -> Circulant:
    """Cyclic delay by ``s`` positions as an n-by-n circulant.

    Applying the result maps x[t] to x[(t - s) mod n]; s=0 gives the
    identity. The dense form is an orthonormal permutation matrix.
    ``n`` and ``s`` must be integers (Python or numpy; a float, even a
    whole one, raises ValueError), with n >= 1 and s in 0..n-1.
    """
    n = as_index(n, "n", 1)
    s = as_index(s, "shift s", 0, n)
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

    The fit runs on X * 2**-a and Y * 2**-b, where 2**a and 2**b are
    the binary orders of the two peaks outside 2**±BAND
    (:func:`~cycshift.spectral.to_band`; a = 0 or b = 0 inside
    it), and is scaled back by 2**(b - a) and 2**b: a power-of-two scale
    is exact, so the spectral products neither overflow nor underflow at
    any finite magnitude. A fit whose column or residual exceeds the
    float64 range raises ValueError, as do complex values, NaN or an
    infinity in X or Y.
    """
    X, Y = (a[:, None] if a.ndim == 1 else a for a in (real_array(X, "X"), real_array(Y, "Y")))
    if X.ndim != 2 or X.shape != Y.shape or X.size == 0:
        raise ValueError(f"X and Y must be real matrices of identical shape, got {X.shape} vs {Y.shape}")
    (X, a), (Y, b) = to_band(X, peak(X)), to_band(Y, peak(Y))
    col, residual = _fit(X, Y)
    # C maps X * 2**-a to Y * 2**-b exactly when 2**(b - a) * C maps X to Y.
    col = scaled_back(col, b - a, "ls_circulant_fit: the fit")
    return Circulant(col), float(scaled_back(np.array(residual), b, "ls_circulant_fit: the fit"))


def _fit(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """First column and residual of the fit, for X and Y whose peaks lie in [2**-BAND, 2**BAND) or are 0."""
    n = X.shape[0]
    Xs, Ys = np.fft.rfft(X, axis=0, norm="ortho"), np.fft.rfft(Y, axis=0, norm="ortho")
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
    return col, float(np.sqrt(row_err.sum() + row_err[1:(n + 1) // 2].sum()))

"""Slow, obviously correct references, and the table that pairs each with a fast path.

The references deliberately avoid numpy.fft and any shared code path
with the fast estimators, so the two sides can check each other.
Complexity is O(n^2) or worse by design; this is the only module that
forms dense n-by-n matrices.

:data:`PAIRS` holds one row per claim: a case generator, the fast path,
its reference, a tolerance and the sizes of the field run. ``cycshift
selftest`` runs each row at those sizes and the test suite runs the
same rows at larger ones, which is why the references ship with the
library and not only with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

from . import circulant, compressive, retrieval, spectral

__all__ = ["naive_dft", "materialize", "brute_force_shift", "brute_force_circulant_fit",
           "argmax_identity_check", "gcd_verdict", "Pair", "PAIRS"]


def naive_dft(x) -> np.ndarray:
    """Direct O(n^2) unitary transform, kept independent of numpy.fft."""
    x = np.asarray(x)
    n = x.size
    a = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(a, a) / n)
    return kernel @ x / np.sqrt(n)


def materialize(C: circulant.Circulant) -> np.ndarray:
    """Dense n-by-n matrix of a circulant: column j is the first column rolled down j."""
    n = C.n
    out = np.empty((n, n))
    for j in range(n):
        out[:, j] = np.roll(C.first_column, j)
    return out


def brute_force_shift(x, y) -> retrieval.ShiftEstimate:
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
    return retrieval.ShiftEstimate("brute_force", n, s, float(scores[s]), scores)


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


def argmax_identity_check(z: compressive.Measurement, v: compressive.Measurement,
                          shift: int) -> tuple[float, float]:
    """Evaluate both sides of the compressed-correlation identity.

    The left side materializes the sensing matrix A and the shift
    matrix P and evaluates Re(z^H A P^shift A^H v) with dense products.
    The right side uses no matrices at all: it embeds conj(z) * v into
    the ambient dimension and takes its inner product against
    sqrt(n) times the Fourier column of the shift. The two must agree;
    this is a test-scale operation (n <= 64).
    """
    sensing = compressive._common_sensing(z, v)
    n = sensing.n
    if n > 64:
        raise ValueError(f"identity check materializes {n}x{n} matrices; limit is 64")
    if not 0 <= shift < n:
        raise ValueError(f"shift {shift} out of range 0..{n - 1}")

    rows = np.asarray(sensing.indices, dtype=np.int64)
    A = np.exp((-2j * np.pi / n) * (np.outer(rows, np.arange(n)) % n)) / np.sqrt(n)
    P = materialize(circulant.make_shift(n, shift))
    lhs = float(np.vdot(z.values, A @ (P @ (A.conj().T @ v.values))).real)

    r = compressive.embed(np.conj(z.values) * v.values, sensing)
    rhs = float((r @ (np.sqrt(n) * spectral.fourier_column(n, shift + 1))).real)
    return lhs, rhs


def gcd_verdict(n: int, indices) -> tuple[bool, bool, np.ndarray]:
    """The paper's gcd condition on a sensing set: (ambiguous, guarantee_holds, classes).

    For a signal with no zero bin, shifts s and s' give equal
    measurements iff k * (s - s') = 0 mod n for every retained bin k, so
    some two shifts collide iff g = gcd(n, k_1, ..., k_m) > 1, and then
    exactly the shifts n/g apart do: ``classes`` maps each shift s to
    s mod n/g, the smallest shift it collides with. A retained bin
    coprime with n pins the shift down on its own.
    """
    g = gcd(n, *indices)
    return g > 1, any(gcd(k, n) == 1 for k in indices), np.arange(n) % (n // g)


def _classes(report: compressive.SensingReport) -> np.ndarray:
    """Each shift mapped to the smallest member of its duplicate group, or to itself."""
    classes = np.arange(report.n)
    for group in report.duplicate_shift_groups:
        classes[list(group)] = group[0]
    return classes


SEED = 20240813


@dataclass(frozen=True)
class Pair:
    """A fast path, its reference and the cases on which the two must agree.

    ``case(rng, n)`` draws the arguments for size n, and ``fast`` and
    ``reference`` each map them to a sequence of arrays, which
    :func:`numpy.hstack` joins into one array per side. The fast side
    names each library function through its module when it runs, so a
    rebound module attribute (a stub, a tracer) is what gets checked.
    The two agree when their largest difference, relative to the largest
    magnitude on the reference side, is at most ``tol``. ``sizes`` are
    the n of the field run.
    """

    name: str
    case: Callable
    fast: Callable
    reference: Callable
    tol: float
    sizes: tuple[int, ...] = tuple(range(2, 17))

    def deviation(self, *args) -> float:
        """Largest difference of the two sides on ``args``, relative to the reference."""
        got, want = (np.hstack(side(*args)).astype(complex) for side in (self.fast, self.reference))
        return float(np.abs(got - want).max() / (np.abs(want).max() or 1.0))

    def check(self) -> tuple[bool, str]:
        """Draw one case per size and compare; returns (passed, detail)."""
        rng = np.random.default_rng(SEED)
        devs = [self.deviation(*self.case(rng, n)) for n in self.sizes]
        i = int(np.argmax(devs))  # the first NaN, if any
        return devs[i] <= self.tol, f"max deviation {devs[i]:.3e} at n={self.sizes[i]}"


def _sensing_set(rng, n: int):
    """m random distinct bins, for a random m in 1..n."""
    return compressive.SensingSet(n, np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False)))


def _rolls(rng, n: int):
    """A random signal stacked n times, and the stack of its n cyclic delays."""
    x = rng.standard_normal(n)
    return np.tile(x, (n, 1)), np.stack([np.roll(x, s) for s in range(n)])


def _brute_shifts(xs, ys) -> np.ndarray:
    return np.array([brute_force_shift(x, y).shift for x, y in zip(xs, ys)])


def _planted_fit(rng, n: int):
    """Three columns X, and Y = circ(c) X for a random c, plus noise at odd n."""
    X = rng.standard_normal((n, 3))
    Y = materialize(circulant.Circulant(rng.standard_normal(n))) @ X
    return X, Y + (n % 2) * rng.standard_normal(X.shape)


def _fit(X, Y):
    fit, residual = circulant.ls_circulant_fit(X, Y)
    return fit.first_column, residual


def _measured_roll(rng, n: int):
    """A signal and a random delay of it, and both measured on a random sensing set."""
    x = rng.standard_normal(n)
    y = np.roll(x, rng.integers(n))
    sensing = _sensing_set(rng, n)
    return x, y, compressive.measure(y, sensing), compressive.measure(x, sensing)


def _compressive(x, y, z, v):
    """The argmax scores, once per side of the identity, then both estimators' shifts."""
    est = compressive.shift_by_compressive_argmax(z, v)
    return est.scores, est.scores, est.shift, compressive.shift_by_compressive_ratio(z, v).shift


def _identity(x, y, z, v):
    """Both sides of the identity at each shift, then the brute-force shift up to n/g, twice."""
    lhs, rhs = np.array([argmax_identity_check(z, v, s) for s in range(x.size)]).T
    s = brute_force_shift(x, y).shift % (x.size // gcd(x.size, *z.sensing.indices))
    return lhs, rhs, s, s


PAIRS = (
    Pair("fourier-unitarity", lambda rng, n: (rng.standard_normal(n) + 1j * rng.standard_normal(n),),
         lambda x: (spectral.dft(x), spectral.idft(x)),
         lambda x: (naive_dft(x), np.conj(naive_dft(np.conj(x)))), 1e-10, tuple(range(1, 17))),
    Pair("shift-oracle-equivalence", _rolls,
         lambda xs, ys: [estimator(xs, ys).shift for estimator in (
             retrieval.shift_by_crosscorr, retrieval.shift_by_ratio, retrieval.shift_single_bin)],
         lambda xs, ys: 3 * [_brute_shifts(xs, ys)], 0.0),
    Pair("ratio-exactness", _rolls, lambda xs, ys: [retrieval.shift_by_ratio(xs, ys).scores],
         lambda xs, ys: [np.eye(len(xs))[_brute_shifts(xs, ys)]], 1e-9),
    Pair("circulant-fit", _planted_fit, _fit, brute_force_circulant_fit, 1e-8),
    Pair("compressive-identities", _measured_roll, _compressive, _identity, 1e-9),
    # Every one-bin sensing set and one random set.
    Pair("sensing-ambiguity", lambda rng, n: (rng.standard_normal(n), [
             *(compressive.SensingSet(n, (k,)) for k in range(n)), _sensing_set(rng, n)]),
         lambda x, sets: [np.hstack((r.ambiguous, r.guarantee_holds, _classes(r))) for r in (
             compressive.check_sensing_conditions(x, sensing) for sensing in sets)],
         lambda x, sets: [np.hstack(gcd_verdict(s.n, s.indices)) for s in sets], 0.0),
)

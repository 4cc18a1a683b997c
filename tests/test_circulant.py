import numpy as np
import pytest
from numpy.testing import assert_allclose

from cycshift import Circulant, dft, ls_circulant_fit, make_shift
from cycshift.oracle import brute_force_circulant_fit, materialize


def apply_dense(c, x):
    """Materialized matrix-vector product, the O(n^2) oracle for apply()."""
    return materialize(Circulant(np.asarray(c, dtype=float))) @ x


def test_make_shift_zero_is_identity():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert_allclose(make_shift(4, 0).apply(x), x, atol=1e-12)


def test_make_shift_by_one():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = make_shift(4, 1).apply(x)
    assert_allclose(out, [4.0, 1.0, 2.0, 3.0], atol=1e-12)
    # same answer from the fully materialized permutation
    assert_allclose(materialize(make_shift(4, 1)) @ x, [4.0, 1.0, 2.0, 3.0], atol=1e-15)


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_make_shift_materialized_is_orthonormal(n):
    for s in range(n):
        M = materialize(make_shift(n, s))
        assert_allclose(M.T @ M, np.eye(n), atol=1e-14)


def test_make_shift_range_errors():
    with pytest.raises(ValueError):
        make_shift(4, -1)
    with pytest.raises(ValueError):
        make_shift(4, 4)
    with pytest.raises(ValueError):
        make_shift(0, 0)


def test_apply_identity_circulant():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6)
    assert_allclose(Circulant(np.eye(6)[0]).apply(x), x, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32])
def test_apply_matches_materialized(n):
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n)
    x = rng.standard_normal(n)
    assert_allclose(Circulant(c).apply(x), apply_dense(c, x), atol=1e-10 * max(1, n))


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        Circulant(np.ones(4)).apply(np.ones(5))
    with pytest.raises(ValueError, match="^dimension mismatch"):
        Circulant(np.ones(2)).apply(np.empty((0, 2)))


def test_eigenvalues_identity():
    assert_allclose(Circulant([1, 0, 0, 0]).eigenvalues(), np.ones(4), atol=1e-12)


def test_eigenvalues_shift_by_one():
    # frozen from sqrt(4) * direct DFT of e_2
    sigma = make_shift(4, 1).eigenvalues()
    assert_allclose(sigma, [1, -1j, -1, 1j], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 12, 16])
def test_eigenvalue_diagonal_reconstructs_matrix(n):
    rng = np.random.default_rng(300 + n)
    C = Circulant(rng.standard_normal(n))
    F = np.array([dft(row) for row in np.eye(n)]).T  # unitary Fourier matrix
    rebuilt = F.conj().T @ np.diag(C.eigenvalues()) @ F
    assert_allclose(rebuilt.real, materialize(C), atol=1e-10)
    assert np.abs(rebuilt.imag).max() < 1e-10


def test_eigenvalues_conjugate_symmetry():
    rng = np.random.default_rng(17)
    for n in range(1, 17):
        sigma = Circulant(rng.standard_normal(n)).eigenvalues()
        assert abs(sigma[0].imag) < 1e-12
        if n % 2 == 0:
            assert abs(sigma[n // 2].imag) < 1e-12
        if n > 1:
            assert np.abs(sigma[1:][::-1] - np.conj(sigma[1:])).max() < 1e-12 * max(
                1.0, np.abs(sigma).max()
            )


def test_shift_group_law():
    rng = np.random.default_rng(2)
    for n in [2, 5, 8, 32]:
        x = rng.standard_normal(n)
        for _ in range(4):
            a, b = rng.integers(n, size=2)
            lhs = make_shift(n, int(a)).apply(make_shift(n, int(b)).apply(x))
            rhs = make_shift(n, int((a + b) % n)).apply(x)
            assert_allclose(lhs, rhs, atol=1e-10)


def test_circulants_commute():
    rng = np.random.default_rng(3)
    for n in [2, 7, 16]:
        c1, c2 = Circulant(rng.standard_normal(n)), Circulant(rng.standard_normal(n))
        x = rng.standard_normal(n)
        assert_allclose(c1.apply(c2.apply(x)), c2.apply(c1.apply(x)), atol=1e-10 * n)


def test_fit_recovers_planted_circulant():
    rng = np.random.default_rng(4)
    n, N = 8, 3
    c0 = rng.standard_normal(n)
    C0 = Circulant(c0)
    X = rng.standard_normal((n, N))
    Y = np.column_stack([C0.apply(X[:, j]) for j in range(N)])
    fit, residual = ls_circulant_fit(X, Y)
    assert residual < 1e-9
    assert_allclose(fit.eigenvalues(), C0.eigenvalues(), atol=1e-9)
    assert_allclose(fit.first_column, c0, atol=1e-9)


def test_fit_of_identical_data_is_identity():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 2))
    fit, residual = ls_circulant_fit(X, X)
    assert_allclose(fit.first_column, np.eye(6)[0], atol=1e-10)
    assert residual < 1e-10


@pytest.mark.parametrize("n,N", [(2, 2), (3, 2), (5, 2), (8, 2), (8, 1)])
def test_fit_residual_matches_brute_force(n, N):
    rng = np.random.default_rng(n * 100 + N)
    X = rng.standard_normal((n, N))
    Y = rng.standard_normal((n, N))
    fit, res_fast = ls_circulant_fit(X, Y)
    c_slow, res_slow = brute_force_circulant_fit(X, Y)
    assert abs(res_fast - res_slow) < 1e-8
    assert_allclose(fit.first_column, c_slow, atol=1e-8)


def test_fit_is_global_minimizer_under_spectral_perturbation():
    rng = np.random.default_rng(6)
    for trial in range(5):
        n, N = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        X = rng.standard_normal((n, N))
        Y = rng.standard_normal((n, N))
        _, res = ls_circulant_fit(X, Y)
        Xs = np.fft.fft(X, axis=0, norm="ortho")
        Ys = np.fft.fft(Y, axis=0, norm="ortho")
        energy = np.sum(np.abs(Xs) ** 2, axis=1)
        cross = np.sum(np.conj(Xs) * Ys, axis=1)
        sigma = np.where(energy > 0, cross / np.where(energy > 0, energy, 1.0), 0.0)
        for k in range(n // 2 + 1):
            for delta in (1e-3, -1e-3, 1e-3j):
                pert = sigma.copy()
                pert[k] += delta
                if k == 0 or (n % 2 == 0 and k == n // 2):
                    pert[k] = pert[k].real  # self-conjugate bins stay real
                else:
                    pert[n - k] = np.conj(pert[k])
                res_pert = np.linalg.norm(Ys - pert[:, None] * Xs)
                assert res_pert >= res - 1e-12


def test_fit_zero_spectrum_rows_are_skipped():
    # period-2 signal: odd spectral rows of X vanish; fit must not blow up
    X = np.array([[1.0], [0.0], [1.0], [0.0]])
    Y = np.array([[0.0], [1.0], [0.0], [1.0]])  # = P^1 X
    fit, residual = ls_circulant_fit(X, Y)
    assert residual < 1e-12
    assert_allclose(Circulant(fit.first_column).apply(X[:, 0]), Y[:, 0], atol=1e-10)


def test_fit_keeps_a_weak_row_judged_by_magnitude():
    # Row 2 of the spectrum of x is damped to ~9e-9 of the peak row: weak,
    # but far above the relative zero threshold. Judged on its energy
    # (~8e-17 of the peak energy) instead, the row was dropped and the
    # fitted column came out 0.29 off.
    rng = np.random.default_rng(0)
    spec = np.fft.rfft(rng.standard_normal(8))
    spec[2] *= 1e-8
    x = np.fft.irfft(spec, 8)
    c0 = rng.standard_normal(8)
    Y = Circulant(c0).apply(x)
    fit, residual = ls_circulant_fit(x, Y)
    _, dense_residual = brute_force_circulant_fit(x, Y)
    assert np.abs(fit.first_column - c0).max() <= 1e-6
    assert residual <= dense_residual + 1e-12 * np.linalg.norm(Y)


def test_fit_returns_real_column():
    rng = np.random.default_rng(8)
    for n in [2, 5, 9, 12]:
        X = rng.standard_normal((n, 2))
        Y = rng.standard_normal((n, 2))
        fit, _ = ls_circulant_fit(X, Y)
        assert fit.first_column.dtype == np.float64


def test_fit_shape_errors():
    with pytest.raises(ValueError):
        ls_circulant_fit(np.ones((4, 2)), np.ones((4, 3)))
    with pytest.raises(ValueError):
        ls_circulant_fit(np.ones((4, 2)), np.ones((5, 2)))


def test_circulant_is_immutable():
    C = Circulant([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        C.first_column[0] = 9.0


# Finite entries whose spectral products overflow float64.
HUGE = np.array([1e300, -2e300, 3e300, 5e299])


def test_fit_near_overflow_equals_the_fit_of_rescaled_data():
    X = np.stack((HUGE, -HUGE / 2), 1)
    Y = np.roll(X, 1, axis=0)
    small, small_residual = ls_circulant_fit(X / 3e300, Y / 3e300)
    assert_allclose(small.first_column, [0, 1, 0, 0], atol=1e-12)
    assert small_residual <= 1e-12
    fit, residual = ls_circulant_fit(X, Y)
    assert_allclose(fit.first_column, [0, 1, 0, 0], atol=1e-12)
    assert residual <= 1e-12 * 3e300


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_apply_refuses_a_product_that_overflows():
    assert np.isfinite(Circulant(HUGE / 3e300).apply(HUGE / 3e300)).all()
    with pytest.raises(ValueError, match="Circulant.apply"):
        Circulant(HUGE).apply(HUGE)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenvalues_scale_by_powers_of_two_or_refuse_an_overflow():
    x = np.random.default_rng(12).standard_normal(8)
    unit = Circulant(x).eigenvalues()
    for e in (600, -600):  # outside the band, scaled into it and back
        assert Circulant(np.ldexp(x, e)).eigenvalues().tobytes() == (unit * 2.0**e).tobytes()
    top = 1e308 * np.array([1, -0.5, 0.8, 0.9, 0.2, 0.3, -0.7, 0.1])  # eigenvalue 0 is ~2.1e308
    with pytest.raises(ValueError, match="Circulant.eigenvalues"):
        Circulant(top).eigenvalues()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_apply_scales_extreme_factors_by_powers_of_two():
    # Unscaled, the spectra of this pair multiply to ~4e310 and overflow,
    # though every entry of the product is 1e307.
    impulse = np.zeros(4096)
    impulse[3] = 1e300
    assert_allclose(Circulant(impulse).apply(np.full(4096, 1e7)), np.roll(np.full(4096, 1e307), 3), rtol=1e-12)
    x = np.random.default_rng(11).standard_normal(64)
    impulse = np.zeros(64)
    impulse[3] = 2.0 ** -600
    assert_allclose(Circulant(impulse).apply(np.ldexp(x, 600)), np.roll(x, 3), rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_circulant_core_refuses_non_finite_input_by_name(bad):
    col = np.array([bad, 1.0, 2.0])
    with pytest.raises(ValueError, match="^first_column contains NaN or infinite"):
        Circulant(col)
    X = np.arange(1.0, 7.0).reshape(3, 2)
    with pytest.raises(ValueError, match="^X contains NaN or infinite"):
        ls_circulant_fit(np.where(X == 4.0, bad, X), X)
    with pytest.raises(ValueError, match="^Y contains NaN or infinite"):
        ls_circulant_fit(X, np.where(X == 4.0, bad, X))

from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cycshift import dft, dft_entry, fourier_column, idft
from cycshift.spectral import _DIRECT_ENTRY_MAX, phase_factors


def naive_dft(x):
    """Direct O(n^2) summation oracle for the unitary transform."""
    x = np.asarray(x)
    n = x.size
    out = np.zeros(n, dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            out[a] += x[b] * np.exp(-2j * np.pi * a * b / n)
    return out / np.sqrt(n)


def test_constant_signal():
    assert_allclose(dft([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-12)


def test_impulse():
    assert_allclose(dft([1, 0, 0, 0]), [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_four_point_frozen():
    # frozen from the direct-summation oracle
    expected = np.array([5.0, -1.0 + 1.0j, -1.0, -1.0 - 1.0j])
    assert_allclose(dft([1, 2, 3, 4]), expected, atol=1e-12)
    assert_allclose(naive_dft([1, 2, 3, 4]), expected, atol=1e-12)


def test_idft_of_constant_spectrum():
    assert_allclose(idft([2, 0, 0, 0]), [1, 1, 1, 1], atol=1e-12)


def test_impulse_round_trip():
    x = np.array([0.0, 1.0, 0.0, 0.0])
    assert_allclose(idft(dft(x)), x, atol=1e-12)


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_round_trip_all_sizes(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    assert_allclose(idft(dft(x)), x, rtol=0, atol=1e-12 * max(1, np.abs(x).max()))
    X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert_allclose(dft(idft(X)), X, rtol=0, atol=1e-12 * np.abs(X).max())


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 16, 31, 48, 64])
def test_agrees_with_direct_summation(n):
    rng = np.random.default_rng(100 + n)
    x = rng.standard_normal(n)
    ref = naive_dft(x)
    assert_allclose(dft(x), ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_parseval_and_conjugate_symmetry(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    X = dft(x)
    assert abs(np.linalg.norm(X) - np.linalg.norm(x)) <= 1e-12 * max(1.0, np.linalg.norm(x))
    if n > 1:
        # real input: X[n-a] == conj(X[a])
        assert np.abs(X[1:][::-1] - np.conj(X[1:])).max() <= 1e-12 * max(1.0, np.abs(X).max())


def test_fourier_column_dc():
    assert_allclose(fourier_column(4, 1), [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_fourier_column_fundamental():
    assert_allclose(fourier_column(4, 2), [0.5, -0.5j, -0.5, 0.5j], atol=1e-15)


@pytest.mark.parametrize("n", list(range(1, 17)))
def test_fourier_column_is_dft_of_basis_vector(n):
    for q in range(1, n + 1):
        e = np.zeros(n)
        e[q - 1] = 1.0
        assert_allclose(fourier_column(n, q), dft(e), atol=1e-12)


@pytest.mark.parametrize("n", [1, 5, 16, 100, 4095, 4097, 10000])
def test_dft_entry_matches_full_transform(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    full = np.fft.fft(x, norm="ortho")
    for k in sorted({0, 1, n // 2, n - 1} & set(range(n))):
        got = dft_entry(x, k)
        assert abs(got - full[k]) <= 1e-10 * max(1.0, np.abs(full).max())


@pytest.mark.parametrize("n", [_DIRECT_ENTRY_MAX, _DIRECT_ENTRY_MAX + 1, 529, 1024,
                               4097, 5000, 1 << 20])
@pytest.mark.parametrize("kind", ["real", "complex", "stack"])
def test_dft_entry_blocked_path_matches_fft(n, kind):
    # Sizes on both sides of the direct-path threshold. Blocks hold
    # ceil(sqrt(n)) samples: 529 and 1024 (perfect squares) fill them
    # exactly, while 513, 4097 and 5000 pad the last block.
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2, n) if kind == "stack" else n)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(n)
    full = np.fft.fft(x, norm="ortho")
    b = isqrt(n - 1) + 1  # block length; bins b - 1 and b straddle a block boundary
    bins = {0, 1, b - 1, b, 2047, 2048, n // 2, n - 1, int(rng.integers(n))}
    for k in sorted(k for k in bins if k < n):
        got = dft_entry(x, k)
        assert np.abs(got - full[..., k]).max() <= 1e-10 * max(1.0, np.abs(full).max())


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 4096, 4097])
def test_phase_factors_multiply_to_the_dense_phase_table(n):
    # Shift i*b + j takes coarse[i] * fine[j]. Where a*b > n (3, 7, 1000,
    # 4097) the products run past the last shift and are cut to n.
    coprime = next((k for k in range(n // 3 + 1, n) if gcd(k, n) == 1), 0)
    k = np.array(sorted({0, n // 2, n - 1, coprime}))
    coarse, fine = phase_factors(k, n)
    a, b = coarse.shape[-1], fine.shape[-1]
    assert coarse.shape == (k.size, a) and fine.shape == (k.size, b)
    assert (a - 1) * b < n <= a * b and (b - 1) ** 2 < n <= b * b
    product = (coarse[:, :, None] * fine[:, None, :]).reshape(k.size, -1)[:, :n]
    dense = np.exp(-2j * np.pi * (np.outer(k, np.arange(n)) % n) / n)
    assert np.abs(product - dense).max() <= 16 * np.finfo(np.float64).eps


@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_real_transform_pair_matches_full_transform(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    half = np.fft.rfft(x, norm="ortho")
    assert half.shape == (n // 2 + 1,)
    assert_allclose(half, dft(x)[: n // 2 + 1], rtol=0, atol=1e-12 * max(1.0, np.abs(x).sum()))


def test_dft_entry_batched_rows():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 33))
    got = dft_entry(stack, 7)
    expected = [np.fft.fft(row, norm="ortho")[7] for row in stack]
    assert_allclose(got, expected, atol=1e-12)


def test_errors():
    with pytest.raises(ValueError):
        dft([])
    with pytest.raises(ValueError):
        idft(np.array([]))
    with pytest.raises(ValueError):
        fourier_column(4, 0)
    with pytest.raises(ValueError):
        fourier_column(4, 5)
    with pytest.raises(ValueError):
        dft_entry([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        dft([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("call, bad, message", [
    (dft, [1.0, np.nan], "^x contains NaN or infinite values$"),
    (dft, [1.0, 1j * np.inf], "^x contains NaN or infinite values$"),
    (idft, [np.inf, 1.0], "^X contains NaN or infinite values$"),
    (lambda x: dft_entry(x, 1), [np.nan, 1.0, 2.0], "^x contains NaN or infinite values$"),
    (lambda x: dft_entry(x, 1), [[1.0, 2.0, 3.0], [1.0, -np.inf, 0.0]], "^x contains NaN or infinite values$"),
    (lambda x: dft_entry(x, [1, 2]), [[1.0, 2.0, 3.0], [1.0, 2.0, np.nan + 1j]], "^x contains NaN or infinite values$"),
    # Finite inputs whose sums overflow are refused as the result, as before.
    (dft, [1.7e308, 1.7e308], "^dft: the spectrum is not finite$"),
    (idft, [1.7e308, 1.7e308], "^idft: the signal is not finite$"),
    (lambda x: dft_entry(x, 0), [[1.0, 2.0], [1.7e308, 1.7e308]], "^dft_entry: the entry is not finite$"),
], ids=["dft-nan", "dft-complex-inf", "idft-inf", "dft_entry-nan", "dft_entry-stack-inf",
        "dft_entry-complex-stack-nan", "dft-overflow", "idft-overflow", "dft_entry-stack-overflow"])
def test_non_finite_input_is_named_and_an_overflow_is_named_as_the_result(call, bad, message):
    with pytest.raises(ValueError, match=message):
        call(np.array(bad))

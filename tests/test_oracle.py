import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from cycshift import Circulant, ls_circulant_fit, make_shift, shift_by_crosscorr
from cycshift.oracle import PAIRS, brute_force_circulant_fit, brute_force_shift, materialize


def test_brute_force_shift_example():
    est = brute_force_shift([1, 2, 3, 4], [4, 1, 2, 3])
    assert est.shift == 1
    assert est.score == pytest.approx(30.0)


def test_brute_force_zero_shift():
    x = np.array([2.0, -1.0, 0.5])
    assert brute_force_shift(x, x).shift == 0


@pytest.mark.parametrize("n", [2, 5, 12, 24, 48])
def test_brute_force_recovers_every_delay(n):
    x = np.random.default_rng(n).standard_normal(n)
    for s in range(n):
        assert brute_force_shift(x, np.roll(x, s)).shift == s


@pytest.mark.parametrize("n", [2, 7, 16, 33, 48])
def test_brute_force_scores_match_crosscorr(n):
    rng = np.random.default_rng(1000 + n)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)  # not necessarily shifted
    slow = brute_force_shift(x, y).scores
    fast = shift_by_crosscorr(x, y).scores
    assert_allclose(fast, slow, rtol=1e-9, atol=1e-9 * max(1, np.abs(slow).max()))


# Odd, even and prime lengths up to 64, with the boundary cases pinned.
lengths = st.integers(1, 64)
seeds = st.integers(0, 2**32 - 1)


@given(lengths, seeds)
@example(63, 0)
@example(64, 0)
@example(61, 0)
@example(2, 0)
@settings(max_examples=60, deadline=None)
def test_crosscorr_scores_match_brute_force_property(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    slow = brute_force_shift(x, y).scores
    fast = shift_by_crosscorr(x, y).scores
    assert_allclose(fast, slow, rtol=0, atol=1e-10 * max(1.0, np.abs(x).sum() * np.abs(y).max()))


@given(lengths, seeds)
@example(63, 0)
@example(64, 0)
@example(61, 0)
@settings(max_examples=60, deadline=None)
def test_apply_matches_materialized_property(n, seed):
    rng = np.random.default_rng(seed)
    C = Circulant(rng.standard_normal(n))
    x = rng.standard_normal(n)
    dense = materialize(C) @ x
    out = C.apply(x)
    assert out.dtype == np.float64 and out.shape == (n,)
    assert_allclose(out, dense, rtol=0, atol=1e-10 * max(1.0, np.abs(C.first_column).sum()
                                                       * np.abs(x).max()))


def rank_deficient(X, rng):
    """X with a random subset of its spectral rows (and their mirrors) zeroed."""
    n = X.shape[0]
    spec = np.fft.rfft(X, axis=0)
    spec[rng.random(spec.shape[0]) < 0.5] = 0.0
    return np.fft.irfft(spec, n, axis=0)


@given(st.integers(1, 24), st.integers(1, 3), seeds, st.booleans())
@example(7, 2, 0, True)
@example(8, 1, 0, True)
@example(9, 3, 0, False)
@settings(max_examples=60, deadline=None)
def test_ls_fit_matches_brute_force_property(n, N, seed, deficient):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, N))
    if deficient:
        X = rank_deficient(X, rng)
    Y = rng.standard_normal((n, N))
    fit, res_fast = ls_circulant_fit(X, Y)
    c_slow, res_slow = brute_force_circulant_fit(X, Y)
    scale = max(1.0, np.abs(Y).max())
    assert abs(res_fast - res_slow) <= 1e-8 * scale
    assert_allclose(fit.first_column, c_slow, rtol=0, atol=1e-8 * scale)


def test_brute_force_length_mismatch():
    with pytest.raises(ValueError):
        brute_force_shift([1.0, 2.0], [1.0, 2.0, 3.0])


def test_materialize_identity():
    assert_allclose(materialize(Circulant([1, 0, 0])), np.eye(3), atol=0)


def test_materialize_pattern():
    got = materialize(Circulant([1, 2, 3]))
    assert_allclose(got, [[1, 3, 2], [2, 1, 3], [3, 2, 1]], atol=0)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
def test_materialized_shift_agrees_with_apply(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    for s in range(n):
        C = make_shift(n, s)
        assert_allclose(materialize(C) @ x, C.apply(x), atol=1e-10)


def test_fit_exact_model():
    rng = np.random.default_rng(2)
    n, N = 6, 3
    c0 = rng.standard_normal(n)
    X = rng.standard_normal((n, N))
    Y = materialize(Circulant(c0)) @ X
    c, residual = brute_force_circulant_fit(X, Y)
    assert_allclose(c, c0, atol=1e-8)
    assert residual < 1e-9


def test_fit_zero_design_gives_minimum_norm():
    Y = np.random.default_rng(3).standard_normal((4, 2))
    c, residual = brute_force_circulant_fit(np.zeros((4, 2)), Y)
    assert_allclose(c, np.zeros(4), atol=1e-12)
    assert residual == pytest.approx(np.linalg.norm(Y), rel=1e-12)


def test_fit_shape_mismatch():
    with pytest.raises(ValueError):
        brute_force_circulant_fit(np.ones((4, 2)), np.ones((3, 2)))


# The oracle-pair table: cycshift selftest runs each row at its own sizes
# (n <= 16); here the same rows also run at larger n.
LARGER = (17, 24, 31, 32, 47, 48)


def test_pairs_are_the_selftest_groups_in_order():
    assert [pair.name for pair in PAIRS] == [
        "fourier-unitarity", "shift-oracle-equivalence", "ratio-exactness",
        "circulant-fit", "compressive-identities", "sensing-ambiguity"]


@pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: pair.name)
def test_oracle_pair_holds_at_field_and_larger_sizes(pair):
    ok, detail = dataclasses.replace(pair, sizes=pair.sizes + LARGER).check()
    assert ok, f"{pair.name}: {detail}"


@pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: pair.name)
def test_a_fast_output_off_by_more_than_the_tolerance_fails_the_row(pair):
    def bumped(*args):
        parts = [np.asarray(part, dtype=complex) for part in pair.fast(*args)]
        eps = 10 * max(pair.tol, 1e-12) * max(1.0, max(np.abs(part).max() for part in parts))
        return [part + eps for part in parts]

    off = dataclasses.replace(pair, fast=bumped)
    rng = np.random.default_rng(0)
    for n in pair.sizes + LARGER:
        args = pair.case(rng, n)
        assert pair.deviation(*args) <= pair.tol < off.deviation(*args), n
    assert not off.check()[0]

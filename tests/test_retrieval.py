import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cycshift import (
    IdentifiabilityError,
    ShiftEstimate,
    dft,
    select_bin,
    shift_affine,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)
from cycshift.oracle import brute_force_shift
from cycshift.retrieval import _coprime_mask, _strongest_bin


def full_spectrum_signal(n, seed):
    """Gaussian signal, redrawn in the (rare) case a bin is nearly empty."""
    rng = np.random.default_rng(seed)
    while True:
        x = rng.standard_normal(n)
        mags = np.abs(dft(x))
        if mags.min() > 1e-6 * mags.max():
            return x


# ---------------------------------------------------------------------------
# cross-correlation estimator
# ---------------------------------------------------------------------------

def test_crosscorr_autocorrelation_peak():
    est = shift_by_crosscorr([1, 2, 3, 4], [1, 2, 3, 4])
    assert est.shift == 0
    assert est.score == pytest.approx(30.0)


def test_crosscorr_shift_by_one():
    est = shift_by_crosscorr([1, 2, 3, 4], [4, 1, 2, 3])
    assert est.shift == 1
    assert est.score == pytest.approx(30.0)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 32])
def test_crosscorr_scores_match_direct_inner_products(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    s = int(rng.integers(n))
    y = np.roll(x, s)
    est = shift_by_crosscorr(x, y)
    assert est.shift == s
    direct = np.array([np.dot(np.roll(x, k), y) for k in range(n)])
    assert_allclose(est.scores, direct, rtol=1e-9, atol=1e-9 * np.abs(direct).max())


def test_crosscorr_peak_is_signal_energy():
    for n in [4, 9, 25, 48]:
        x = full_spectrum_signal(n, n)
        s = n // 3
        est = shift_by_crosscorr(x, np.roll(x, s))
        assert est.score == pytest.approx(np.dot(x, x), rel=1e-9)


def test_crosscorr_tie_breaks_to_smallest_index():
    x = np.array([1.0, 0.0, 1.0, 0.0])  # period 2: shifts s and s+2 tie exactly
    est = shift_by_crosscorr(x, x)
    assert est.shift == 0
    est = shift_by_crosscorr(x, np.roll(x, 1))
    assert est.shift == 1


def test_crosscorr_errors():
    with pytest.raises(ValueError):
        shift_by_crosscorr([1, 2], [1, 2, 3])
    with pytest.raises(IdentifiabilityError):
        shift_by_crosscorr([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="^signals are empty$"):
        shift_by_crosscorr(np.empty((0, 5)), np.empty((0, 5)))


# ---------------------------------------------------------------------------
# spectral-ratio estimator
# ---------------------------------------------------------------------------

def test_ratio_exact_impulse():
    est = shift_by_ratio([1, 2, 3, 4], [4, 1, 2, 3])
    assert est.shift == 1
    assert_allclose(est.scores, [0, 1, 0, 0], atol=1e-12)


def test_ratio_identity_pair():
    x = np.array([2.0, -1.0, 0.5, 3.0])
    est = shift_by_ratio(x, x)
    assert est.shift == 0
    assert_allclose(est.scores, [1, 0, 0, 0], atol=1e-12)


def test_ratio_with_excluded_bins_still_finds_shift():
    x = np.array([1.0, 0.0, 1.0, 0.0])  # bins 1 and 3 vanish
    y = np.roll(x, 1)
    est = shift_by_ratio(x, y)
    assert est.shift == brute_force_shift(x, y).shift == 1
    # impulse exactness is not guaranteed here, only the argmax
    assert not np.allclose(est.scores, [0, 1, 0, 0])


@pytest.mark.parametrize("n", [2, 5, 8, 13, 16, 31])
def test_ratio_impulse_exactness_full_spectrum(n):
    x = full_spectrum_signal(n, 50 + n)
    for s in range(n):
        est = shift_by_ratio(x, np.roll(x, s))
        impulse = np.zeros(n)
        impulse[s] = 1.0
        assert np.abs(est.scores - impulse).max() < 1e-9


def test_ratio_weighted_variant_identity():
    # ratio spectrum == conj(X) * Y / |X|^2 entrywise, random non-shifted pairs
    rng = np.random.default_rng(9)
    for n in [8, 13, 16]:
        for _ in range(10):
            x = full_spectrum_signal(n, int(rng.integers(2**31)))
            y = rng.standard_normal(n)
            X, Y = dft(x), dft(y)
            assert np.abs(Y / X - np.conj(X) * Y / np.abs(X) ** 2).max() < 1e-10


def test_ratio_errors():
    with pytest.raises(IdentifiabilityError):
        shift_by_ratio(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        shift_by_ratio([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# bin selection
# ---------------------------------------------------------------------------

def test_select_bin_prefers_strongest_coprime_bin():
    n = 8
    spec = np.ones(n, dtype=complex)
    spec[3] = 5.0  # strongest eligible bin
    spec[4] = 50.0  # stronger but gcd(4, 8) != 1
    assert select_bin(spec) == 3
    assert select_bin(np.ones(n)) in {1, 3, 5, 7}


def test_select_bin_prime_length():
    spec = np.array([0.0, 0.1, 0.0, 2.0, 0.3])  # n = 5: every bin 1..4 eligible
    assert select_bin(spec) == 3


def test_select_bin_constant_signal_fails():
    with pytest.raises(IdentifiabilityError):
        select_bin(dft(np.ones(8)))


def test_select_bin_even_half_bin_excluded():
    spec = np.zeros(8, dtype=complex)
    spec[0] = 1.0
    spec[4] = 1.0
    with pytest.raises(IdentifiabilityError):
        select_bin(spec)


# ---------------------------------------------------------------------------
# single-bin estimator
# ---------------------------------------------------------------------------

def test_single_bin_known_phase():
    est = shift_single_bin([1, 2, 3, 4], [4, 1, 2, 3], 1)
    assert est.shift == 1
    assert est.score == pytest.approx(1.0, abs=1e-12)
    assert est.flags == ()


def test_single_bin_zero_shift():
    x = full_spectrum_signal(8, 1)
    est = shift_single_bin(x, x, 3)
    assert est.shift == 0
    assert est.score == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_single_bin_exhaustive_recovery(n):
    x = full_spectrum_signal(n, 70 + n)
    for s in range(n):
        y = np.roll(x, s)
        assert shift_single_bin(x, y).shift == s
        assert shift_single_bin(x, y).shift == brute_force_shift(x, y).shift


def test_single_bin_misfit_flag_under_noise():
    rng = np.random.default_rng(11)
    x = full_spectrum_signal(16, 4)
    y = np.roll(x, 5) + 0.3 * rng.standard_normal(16)
    est = shift_single_bin(x, y, 1)
    assert "model_misfit" in est.flags


def test_single_bin_rejects_non_coprime_bin():
    x = full_spectrum_signal(8, 5)
    with pytest.raises(IdentifiabilityError):
        shift_single_bin(x, np.roll(x, 2), 4)
    with pytest.raises(ValueError):
        shift_single_bin(x, np.roll(x, 2), 8)


def test_single_bin_rejects_empty_bin():
    x = np.array([1.0, 0.0, 1.0, 0.0])  # bin 1 is empty
    with pytest.raises(IdentifiabilityError):
        shift_single_bin(x, np.roll(x, 1), 1)


def test_single_bin_constant_signal_fails():
    with pytest.raises(IdentifiabilityError):
        shift_single_bin(np.ones(8), np.ones(8))


@pytest.mark.parametrize("n", [64, 255, 4097])
def test_single_bin_automatic_bin_matches_explicit_path(n):
    # Without a bin the estimator only chooses one; the estimate itself
    # comes from the explicit-bin path, bit for bit.
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    y = np.roll(x, n // 3) + 0.01 * rng.standard_normal(n)
    auto = shift_single_bin(x, y)
    explicit = shift_single_bin(x, y, _strongest_bin(np.abs(np.fft.rfft(x, norm="ortho")), n))
    assert auto.flags == ("model_misfit",)
    assert (auto.shift, auto.score, auto.flags) == (explicit.shift, explicit.score, explicit.flags)


def test_shift_estimate_takes_ownership_of_float64_scores():
    a = np.arange(4.0)
    est = ShiftEstimate("crosscorr", 4, 3, 3.0, a)
    assert est.scores is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        est.scores[0] = 1.0
    assert ShiftEstimate("crosscorr", 2, 1, 2.0, [1, 2]).scores.dtype == np.float64


# ---------------------------------------------------------------------------
# affine extension
# ---------------------------------------------------------------------------

def test_affine_recovers_gain_shift_offset():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = 2.0 * np.roll(x, 1) + 3.0
    model, residual = shift_affine(x, y)
    assert model.shift == 1
    assert model.alpha == pytest.approx(2.0, abs=1e-9)
    assert model.beta == pytest.approx(3.0, abs=1e-9)
    assert residual < 1e-9
    assert model.flags == ()


def test_affine_identity_pair():
    x = full_spectrum_signal(9, 6)
    if abs(x.sum()) < 1e-3:
        x = x + 1.0
    model, residual = shift_affine(x, x)
    assert (model.shift, model.alpha, model.beta) == (0, pytest.approx(1.0), pytest.approx(0.0, abs=1e-9))
    assert residual < 1e-9


def test_affine_pure_offset_flags_unidentifiable_gain():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.full(4, 5.0)
    model, residual = shift_affine(x, y)
    assert model.alpha == pytest.approx(0.0, abs=1e-9)
    assert model.beta == pytest.approx(5.0, abs=1e-9)
    assert "alpha_unidentifiable" in model.flags
    assert residual < 1e-9


def test_affine_random_round_trips():
    rng = np.random.default_rng(13)
    for n in [4, 7, 12, 16]:
        x = full_spectrum_signal(n, 90 + n)
        if abs(x.sum()) < 0.1:
            x = x + 1.0
        for _ in range(5):
            s = int(rng.integers(n))
            alpha = float(rng.uniform(-3, 3))
            if abs(alpha) < 0.05:
                alpha = 1.0
            beta = float(rng.uniform(-3, 3))
            model, residual = shift_affine(x, alpha * np.roll(x, s) + beta)
            assert model.shift == s
            assert model.alpha == pytest.approx(alpha, abs=1e-8)
            assert model.beta == pytest.approx(beta, abs=1e-8)
            assert residual < 1e-8


def test_affine_zero_sum_fails():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    with pytest.raises(IdentifiabilityError):
        shift_affine(x, np.roll(x, 1))


def test_affine_without_a_usable_coprime_bin_fails():
    # The spectrum of (2, 1, 2, 1) lives in bins 0 and 2, neither coprime with 4.
    x = np.array([2.0, 1.0, 2.0, 1.0])
    with pytest.raises(IdentifiabilityError, match="^no usable coprime bin"):
        shift_affine(x, np.roll(x, 1))


def test_coprime_mask_matches_gcd():
    for n in [*range(1, 130), 1 << 10, 2 * 3 * 5 * 7 * 11, 997 * 3, 65536 + 1]:
        for size in (n // 2 + 1, n):
            assert np.array_equal(_coprime_mask(size, n), np.gcd(np.arange(size), n) == 1), n


@given(st.integers(2, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_half_spectrum_bin_choice_matches_select_bin(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    x[: seed % 3] = 0.0  # also exercise sparser spectra
    try:
        full = select_bin(dft(x))
    except IdentifiabilityError:
        with pytest.raises(IdentifiabilityError):
            _strongest_bin(np.abs(np.fft.rfft(x, norm="ortho")), n)
        return
    # A bin and its mirror n - i have equal magnitude and identify the same shift.
    assert _strongest_bin(np.abs(np.fft.rfft(x, norm="ortho")), n) in (full, n - full)


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("estimator", [
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
    lambda x, y: shift_single_bin(x, y, 1),
    shift_affine,
], ids=["crosscorr", "ratio", "single_bin_auto", "single_bin_fixed", "affine"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["x", "y"])
def test_estimators_reject_non_finite_input(estimator, bad, which):
    x = np.arange(1.0, 10.0)
    y = np.roll(x, 2)
    (x if which == "x" else y)[4] = bad
    with pytest.raises(ValueError, match=f"{which} contains NaN or infinite"):
        estimator(x, y)


# ---------------------------------------------------------------------------
# (B, n) stacks
# ---------------------------------------------------------------------------

STACKABLE = {
    "crosscorr": shift_by_crosscorr,
    "ratio": shift_by_ratio,
    "single_bin_auto": shift_single_bin,
    "single_bin_fixed": lambda x, y: shift_single_bin(x, y, 1),
}


# Up to 40 rows, so stacks reach past numpy's SIMD widths into their tail loops.
@given(st.integers(2, 64), st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_stacked_call_equals_its_rows_called_alone(n, B, seed, zero_row):
    rng = np.random.default_rng(seed)
    periods = [p for p in range(1, n + 1) if n % p == 0]
    # A row of period p < n lives on the multiples of bin n/p; the tone
    # adds bin 1, so single_bin has a coprime bin and the rest are dead.
    tone = np.cos(2 * np.pi * (np.arange(n) / n + rng.random()))
    x = np.stack([np.tile(rng.standard_normal(p), n // p) + tone for p in rng.choice(periods, B)])
    if zero_row:
        x[rng.integers(B)] = 0.0  # no estimator can use it
    y = np.stack([np.roll(row, s) for row, s in zip(x, rng.integers(n, size=B))])
    y += 0.01 * rng.standard_normal((B, n))
    for name, estimator in STACKABLE.items():
        alone = []
        for a, b in zip(x, y):
            try:
                alone.append(estimator(a, b))
            except IdentifiabilityError:
                alone.append(None)
        if None in alone:
            with pytest.raises(IdentifiabilityError):
                estimator(x, y)
            continue
        stacked = estimator(x, y)
        assert stacked.shift.shape == stacked.score.shape == (B,), name
        assert len(stacked.flags) == B, name
        for row, est in enumerate(alone):
            assert stacked.shift[row] == est.shift, name
            assert stacked.score[row].tobytes() == np.float64(est.score).tobytes(), name
            assert stacked.flags[row] == est.flags, name
            if est.scores is None:
                assert stacked.scores is None, name
            else:
                assert not stacked.scores.flags.writeable
                assert stacked.scores[row].tobytes() == est.scores.tobytes(), name


# ---------------------------------------------------------------------------
# estimator agreement (exact-shift regime)
# ---------------------------------------------------------------------------

@given(st.integers(2, 24), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_all_estimators_agree_on_planted_shifts(n, seed):
    x = full_spectrum_signal(n, seed)
    s = seed % n
    y = np.roll(x, s)
    answers = {
        brute_force_shift(x, y).shift,
        shift_by_crosscorr(x, y).shift,
        shift_by_ratio(x, y).shift,
        shift_single_bin(x, y).shift,
    }
    assert answers == {s}

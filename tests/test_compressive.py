from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from cycshift import (
    IdentifiabilityError,
    Measurement,
    SensingSet,
    check_sensing_conditions,
    dft,
    dft_entry,
    embed,
    make_shift,
    measure,
    shift_by_compressive_argmax,
    shift_by_compressive_ratio,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)
from cycshift import compressive, spectral
from cycshift.compressive import _duplicate_groups
from cycshift.oracle import argmax_identity_check, brute_force_shift, materialize
from cycshift.spectral import ZERO_BIN_TOL, phase_factors, unit_phases


def sensing_matrix(sensing):
    """Dense partial-Fourier matrix, test-side oracle construction."""
    n = sensing.n
    rows = np.asarray(sensing.indices)
    return np.exp(-2j * np.pi * np.outer(rows, np.arange(n)) / n) / np.sqrt(n)


def full_set(n):
    return SensingSet(n, tuple(range(n)))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_sensing_set_validation():
    with pytest.raises(ValueError):
        SensingSet(8, ())
    with pytest.raises(ValueError):
        SensingSet(8, (3, 3))
    with pytest.raises(ValueError):
        SensingSet(8, (5, 3))
    with pytest.raises(ValueError):
        SensingSet(8, (0, 8))
    assert SensingSet(8, (1, 3)).m == 2


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement(np.ones(3), SensingSet(8, (1, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_measurement_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="NaN or infinite"):
        Measurement(np.array([1.0, bad]), SensingSet(8, (1, 3)))


# ---------------------------------------------------------------------------
# measure / embed
# ---------------------------------------------------------------------------

def test_measure_full_sensing_equals_dft():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(8)
    got = measure(x, full_set(8)).values
    assert_allclose(got, dft(x), atol=1e-12)


def test_measure_dc_bin():
    got = measure(np.array([1.0, 2.0, 3.0, 4.0]), SensingSet(4, (0,))).values
    assert_allclose(got, [5.0 + 0.0j], atol=1e-12)


def test_measure_matches_dft_oracle_at_indices():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    K = SensingSet(8, (1, 2, 5))
    assert_allclose(measure(x, K).values, dft(x)[[1, 2, 5]], atol=1e-12)
    # and against the dense sensing-matrix route
    assert_allclose(measure(x, K).values, sensing_matrix(K) @ x, atol=1e-12)


@pytest.mark.parametrize("n", [12, 64, 513, 1000, 4096])
def test_measure_has_the_bits_of_one_dft_entry_per_bin(n):
    # One pass over every bin gives each entry the bits dft_entry gives it
    # alone: on the direct path (n <= 512), the blocked path (4096 fills
    # blocks of 64) and the padded one (513 and 1000 do not fill theirs).
    rng = np.random.default_rng(n)
    d = 3 if n % 3 == 0 else 4
    periodic = np.tile(rng.standard_normal(d), n // d)  # live only on multiples of n / d
    X = np.stack([rng.standard_normal(n), periodic,
                  2.0**-450 * rng.standard_normal(n), 2.0**-600 * periodic])
    K = SensingSet(n, (0, 1, n // d, n // 2, n - 1))
    for x in (X, *X):
        expected = np.stack([dft_entry(x, k) for k in K.indices], axis=-1)
        norm = np.hypot.reduce(x, axis=-1, keepdims=True)  # no underflow at 2**-600
        expected[np.abs(expected) <= ZERO_BIN_TOL * norm] = 0
        assert measure(x, K).values.tobytes() == expected.tobytes()
    assert (measure(X, K).values[1::2] == 0).sum(axis=-1).min() >= 2  # bins 1 and n - 1 are dead


@pytest.mark.parametrize("rows", [1, 3, 20])
@pytest.mark.parametrize("n", [513, 1000, 4096, 1 << 16])
def test_each_row_and_bin_of_a_blocked_measurement_has_the_bits_of_its_own_product(n, rows):
    # On the blocked path every (bin, row) entry is its own product against
    # the fine factor: a row of a stack gets the bits it gets alone, and a
    # bin's column the bits dft_entry gives the stack, dead entries zeroed.
    rng = np.random.default_rng([n, rows])
    d = 3 if n % 3 == 0 else 4
    X = rng.standard_normal((rows, n))
    X[::2] = np.tile(rng.standard_normal(d), n // d)  # live only on multiples of n / d
    K = SensingSet(n, tuple(sorted({0, 1, n // d, n // 2, n - 1, *rng.integers(n, size=3).tolist()})))
    vals = measure(X, K).values
    for b in range(rows):
        assert vals[b].tobytes() == measure(X[b], K).values.tobytes()
    norm = np.hypot.reduce(X, axis=-1)
    for j, k in enumerate(K.indices):
        column = dft_entry(X, k)
        column[np.abs(column) <= ZERO_BIN_TOL * norm] = 0
        assert vals[:, j].tobytes() == column.tobytes()
    assert (vals[::2, 1] == 0).all()  # bin 1 is dead on the periodic rows


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measure_rejects_non_finite_signal(bad):
    K = SensingSet(8, (1, 3))
    x = np.arange(1.0, 9.0)
    x[5] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        measure(x, K)
    with pytest.raises(ValueError, match="NaN or infinite"):
        check_sensing_conditions(x, K)
    # the compressive estimators only see signals through measure()
    for estimator in (shift_by_compressive_argmax, shift_by_compressive_ratio):
        with pytest.raises(ValueError, match="NaN or infinite"):
            estimator(measure(x, K), measure(np.arange(1.0, 9.0), K))


@pytest.mark.parametrize("stacked", [False, True])
def test_measure_refuses_and_returns_by_magnitude_alone_and_as_a_stack_row(stacked):
    # measure reads finiteness off the sum of squares its zero test takes:
    # a NaN or an infinity must still be named, a sum of squares that
    # overflows must not refuse finite samples, and a finite norm whose
    # entry overflows must refuse the measurement.
    K = SensingSet(4096, (0, 1, 3))
    others = np.random.default_rng(11).standard_normal((3, 4096))

    def values(x):
        if not stacked:
            return measure(x, K).values
        others[1] = x
        return measure(others, K).values[1]

    for bad in (np.nan, np.inf, -np.inf):
        x = np.ones(4096)
        x[17] = bad
        with pytest.raises(ValueError, match=r"^x contains NaN or infinite values$"):
            values(x)
    with pytest.raises(ValueError, match=r"^measurement contains NaN or infinite values$"):
        values(np.full(4096, 1e306))  # norm 6.4e307, entry 0 sums past the float64 range
    for fill, entry in ((1e200, 6.4e201), (1e-300, 6.4e-299)):  # squares overflow, underflow
        got = values(np.full(4096, fill))
        assert_allclose(got[0], entry, rtol=1e-15)
        assert (got[1:] == 0).all()


def test_measure_dimension_mismatch():
    with pytest.raises(ValueError):
        measure(np.ones(7), SensingSet(8, (1,)))


def test_embed_definition():
    out = embed(np.array([7.0 + 0.0j]), SensingSet(4, (2,)))
    assert_allclose(out, [0, 0, 7, 0], atol=0)


def test_embed_full_is_identity():
    vals = np.arange(5) + 1j
    assert_allclose(embed(vals, full_set(5)), vals, atol=0)


def test_embed_length_mismatch():
    with pytest.raises(ValueError):
        embed(np.ones(2), SensingSet(4, (2,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_embed_refuses_non_finite_values_by_name(bad):
    with pytest.raises(ValueError, match="^values contains NaN or infinite"):
        embed([bad], SensingSet(4, (1,)))


@pytest.mark.parametrize("n,indices", [(8, (1, 3)), (16, (0, 2, 7, 9)), (5, (2,))])
def test_measure_embed_idft_is_bandlimited_projection(n, indices):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    K = SensingSet(n, indices)
    via_pipeline = np.fft.ifft(embed(measure(x, K).values, K), norm="ortho")
    F = np.array([dft(e) for e in np.eye(n)]).T
    mask = np.zeros(n)
    mask[list(indices)] = 1.0
    projected = F.conj().T @ np.diag(mask) @ F @ x
    assert_allclose(via_pipeline, projected, atol=1e-12)


# ---------------------------------------------------------------------------
# sensing-condition checks
# ---------------------------------------------------------------------------

def test_check_unit_frequency_guarantee():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8)
    report = check_sensing_conditions(x, SensingSet(8, (1,)))
    assert report.guarantee_holds
    assert report.qualifying_bins == (1,)
    assert not report.ambiguous


def test_check_half_frequency_ambiguity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8)
    report = check_sensing_conditions(x, SensingSet(8, (4,)))
    assert not report.guarantee_holds
    assert report.ambiguous
    # e^{-2pi j 4 s / 8} has period 2: shifts s and s+2 are indistinguishable
    assert (0, 2, 4, 6) in report.duplicate_shift_groups
    assert (1, 3, 5, 7) in report.duplicate_shift_groups


def test_check_prime_length_guarantee():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5)
    report = check_sensing_conditions(x, SensingSet(5, (2,)))
    assert report.guarantee_holds and not report.ambiguous


def short_period_signal(n, seed, log_c):
    """A scaled Gaussian signal whose period divides n, so most bins are dead."""
    rng = np.random.default_rng(seed)
    divisors = [p for p in range(1, n + 1) if n % p == 0]
    return 10.0 ** log_c * np.resize(rng.standard_normal(n)[: divisors[seed % len(divisors)]], n)


short_period_cases = (st.integers(1, 48), st.integers(0, 2**32 - 1), st.floats(-12.0, 12.0),
                      st.sets(st.integers(0, 47), min_size=1, max_size=3))


@given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.sets(st.integers(0, 63), max_size=4))
@settings(max_examples=80, deadline=None)
def test_sensing_report_from_real_transform_matches_full_dft(n, seed, bins):
    x = short_period_signal(n, seed, 0.0)
    K = SensingSet(n, tuple(sorted({0, n // 2} | {k % n for k in bins})))
    # The report as read from the full complex spectrum: entries that are
    # zero against ||x|| are stored as exact zeros.
    entries = dft(x)[list(K.indices)]
    entries[np.abs(entries) <= ZERO_BIN_TOL * np.linalg.norm(x)] = 0
    qualifying = tuple(k for k, e in zip(K.indices, entries) if gcd(k, n) == 1 and e != 0)
    dup = tuple(g for g in _duplicate_groups(entries, K.indices, n) if len(g) > 1)
    report = check_sensing_conditions(x, K)
    assert report.qualifying_bins == qualifying
    assert report.guarantee_holds == bool(qualifying)
    assert report.duplicate_shift_groups == dup
    assert report.ambiguous == bool(dup)


@given(*short_period_cases)
@settings(max_examples=150, deadline=None)
def test_sensing_report_ambiguity_is_the_estimator_flag(n, seed, log_c, bins):
    x = short_period_signal(n, seed, log_c)
    K = SensingSet(n, tuple(sorted({k % n for k in bins})))
    v = measure(x, K)
    assert check_sensing_conditions(x, K).ambiguous == (
        "ambiguous" in shift_by_compressive_argmax(v, v).flags)


def closed_form_groups(values, indices, n):
    """The residues mod n/g, where g is the gcd of n and the bins with a nonzero stored value."""
    step = n // gcd(n, *(k for k, vk in zip(indices, values) if vk != 0))
    return tuple(tuple(range(r, n, step)) for r in range(step))


@given(*short_period_cases)
@settings(max_examples=200, deadline=None)
def test_duplicate_groups_are_the_residues_mod_n_over_the_live_gcd(n, seed, log_c, bins):
    # Groundwork for the closed-form class rule: on measure's output of a
    # short-period signal, the check's groups are exactly these classes.
    x = short_period_signal(n, seed, log_c)
    K = SensingSet(n, tuple(sorted({k % n for k in bins})))
    v = measure(x, K).values
    assert _duplicate_groups(v, K.indices, n) == closed_form_groups(v, K.indices, n)


@pytest.mark.parametrize("K", [(3, 8192), (2, 6), (4, 8192)])
def test_duplicate_groups_are_the_residues_mod_n_over_the_live_gcd_at_n_16384(K):
    # Beyond every other test's n: singletons (g = 1), pairs (g = 2) and
    # groups of four (g = 4) on a Gaussian signal, whose bins are all live.
    v = measure(np.random.default_rng(sum(K)).standard_normal(16384), SensingSet(16384, K)).values
    assert _duplicate_groups(v, K, 16384) == closed_form_groups(v, K, 16384)


def all_columns_groups(values, indices, n):
    """Reference scan: each leader against all n columns, in fresh temporaries.

    It matches the check's table of differences only away from subnormal
    rounding: where a bin measures a few subnormal units, its pairwise
    differences at one shift difference can round apart by position.
    """
    cols = values[:, None] * unit_phases(np.asarray(indices)[:, None], np.arange(n), n)
    peak = np.abs(values).max()
    groups = []
    assigned = np.zeros(n, dtype=bool)
    for s in range(n):
        if assigned[s]:
            continue
        members = np.flatnonzero(~spectral.live(np.abs(cols - cols[:, s:s + 1]).max(axis=0), peak) & ~assigned)
        assigned[members] = True
        groups.append(tuple(members.tolist()))
    return tuple(groups)


def scan_case(kind, seed, low=2, high=256):
    """Seeded measured values and bins for n in low..high, m in 1..6, at a scale in 10**[-12, 12]."""
    rng = np.random.default_rng([seed, 24])
    n = int(rng.integers(low, high + 1))
    K = tuple(sorted(rng.choice(n, size=min(int(rng.integers(1, 7)), n), replace=False).tolist()))
    log_c = rng.uniform(-12.0, 12.0)
    if kind == "periodic":  # measured from a short-period signal: most bins are exact zeros
        return measure(short_period_signal(n, seed, log_c), SensingSet(n, K)).values, K, n
    v = rng.standard_normal(len(K)) + 1j * rng.standard_normal(len(K))
    if kind == "weak":  # live bins too weak to move nearby columns apart
        v[rng.random(len(K)) < 0.3] *= 1e-11
    return 10.0 ** log_c * v, K, n


def rescaled(v, peak):
    """``v`` scaled so that its largest modulus is ``peak``; an all-zero ``v`` as it is."""
    top = np.abs(v).max()
    return v / top * peak if top else v


@pytest.mark.parametrize("kind", ["gaussian", "periodic", "weak"])
def test_the_scan_from_each_leader_on_groups_as_the_all_columns_scan(kind):
    # Columns differ by an amount set by the shift difference alone, so
    # reading one table of those amounts, rather than comparing columns
    # pair by pair, must give the same groups. n runs up to 1024.
    # Rescaled to a peak of 1e-310 the tolerance is subnormal; at 1e307
    # the differences near the float64 range.
    cases = [(seed, *scan_case(kind, seed)) for seed in range(100)]
    cases += [(seed, *scan_case(kind, seed, 257, 1024)) for seed in range(100, 112)]
    for seed, v, K, n in cases:
        peaks = (None, 1e-310, 1e307) if seed % 4 == 0 or n > 256 else (None,)
        for peak in peaks:
            w = v if peak is None else rescaled(v, peak)
            assert _duplicate_groups(w, K, n) == all_columns_groups(w, K, n), (kind, seed, n, K, peak)


@pytest.mark.parametrize("K", [(1,), (2, 6, 10, 14), (8, 100, 1001, 2048),
                               (2048,), (4,), (1024, 2048), (2, 2048)])
def test_the_scan_from_each_leader_on_groups_as_the_all_columns_scan_at_n_4096(K):
    # The last four sets share a large factor with n, so leaders have
    # partners; (2048,) and (1024, 2048) leave a few leaders with huge
    # groups.
    v = measure(np.random.default_rng(len(K)).standard_normal(4096), SensingSet(4096, K)).values
    assert _duplicate_groups(v, K, 4096) == all_columns_groups(v, K, 4096)


def test_the_scan_groups_a_weak_live_bin_as_the_all_columns_scan_at_n_4096():
    # Bin 2, live at 5e-11 of the peak, leaves a few dozen coinciding
    # differences; a leader takes those of its shifts still free.
    v = Measurement([5e-11, 1.0], SensingSet(4096, (2, 2048))).values
    assert _duplicate_groups(v, (2, 2048), 4096) == all_columns_groups(v, (2, 2048), 4096)


@pytest.mark.parametrize("n,weak", [(128, 2e-11), (512, 5e-11)])
def test_the_scan_groups_as_the_all_columns_scan_where_blocks_are_cut(n, weak):
    # Bin n/2 separates odd differences, and the weak bin 1 moves nearby
    # columns apart by about its tolerance alone: the amounts of the even
    # differences lie near the threshold, yet every shift is a group of
    # its own.
    v, K = np.array([weak * 1j, 1.0]), (1, n // 2)
    groups = _duplicate_groups(v, K, n)
    assert groups == all_columns_groups(v, K, n)
    assert len(groups) == n


def test_the_table_judges_each_shift_difference_once_where_pairs_round_apart():
    # Bin 212 measures 5 - 15j units of the smallest subnormal under a
    # peak of 1e-310, so its pairwise differences round by the pair's
    # position: the all-columns scan puts 288 with 4, a shift difference
    # of 284 at which it keeps 0 apart from 284. The table judges each
    # difference once: the group led by 0 takes the coinciding ones, and
    # every leader takes its free shifts at those and at no other.
    n, K = 923, (26, 212)
    v = np.ldexp([15493455700740, 5], -1074) + 1j * np.ldexp([13023807119578, -15], -1074)
    groups = _duplicate_groups(v, K, n)
    same = groups[0]
    assert same == (0, 213, 426, 497, 710)
    taken = set()
    for g in groups:
        assert g == tuple(t for t in (g[0] + d for d in same) if t < n and t not in taken)
        taken.update(g)
    assert taken == set(range(n))
    assert groups[4] == (4, 217, 430, 501, 714)
    assert all_columns_groups(v, K, n)[4] == (4, 217, 288, 430, 501, 714)


def test_an_all_zero_measurement_puts_every_shift_in_one_group():
    v = np.zeros(4)
    groups = _duplicate_groups(v, (8, 100, 1001, 2048), 4096)
    assert groups == all_columns_groups(v, (8, 100, 1001, 2048), 4096) == (tuple(range(4096)),)


def test_a_weak_live_bin_is_where_the_scan_and_the_closed_form_differ_by_design():
    # Bin 2 is live at 5e-11 of the peak, but between nearby even shifts
    # it moves its column by less than 1e-12 of the peak, so the scan
    # merges them; the closed form, like the paper, keeps them apart and
    # pairs s with s + 2048 alone.
    v = Measurement([5e-11, 1.0], SensingSet(4096, (2, 2048)))
    scan = _duplicate_groups(v.values, v.sensing.indices, 4096)
    closed = closed_form_groups(v.values, v.sensing.indices, 4096)
    assert len(scan) == 512
    assert closed == tuple((s, s + 2048) for s in range(2048))
    assert scan[0] == (0, 2, 4, 6, 2042, 2044, 2046, 2048, 2050, 2052, 2054, 4090, 4092, 4094)
    # Each closed-form class lies inside one group of the scan.
    assert all((s + 2048) % 4096 in group for group in scan for s in group)
    # The ratio estimator settles on the closed form: planted shift 100
    # is told apart from 94, the smallest of the nearby even shifts whose
    # columns come within 1e-12 of the peak of its own.
    z = Measurement(v.values * np.exp(-2j * np.pi * np.array([2, 2048]) * 100 / 4096), v.sensing)
    assert shift_by_compressive_ratio(z, v).shift == 100
    # argmax weights bin 2 by |v|**2 = 2.5e-21 of the peak's weight, below the
    # scores' rounding, so it only knows the shift modulo 2 = n / gcd(n, 2048),
    # and says so with its flag.
    est = shift_by_compressive_argmax(z, v)
    assert "ambiguous" in est.flags
    assert est.shift % 2 == 100 % 2


def test_estimators_settle_on_the_smallest_twin_when_dead_bins_merge_shifts():
    # Bin 1 of this period-3 signal is dead, so only bin 4 is measured and
    # shifts 2 and 5 give one measurement, though gcd(6, 1, 4) = 1.
    x = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    K = SensingSet(6, (1, 4))
    z, v = measure(np.roll(x, 2), K), measure(x, K)
    assert (2, 5) in check_sensing_conditions(x, K).duplicate_shift_groups
    for method in (shift_by_compressive_argmax, shift_by_compressive_ratio):
        est = method(z, v)
        assert est.shift == 2
        assert "ambiguous" in est.flags
        assert est.score == est.scores[2]
    # The class rule takes the gcd over each row's live bins alone: beside
    # a Gaussian row, where bin 1 is live, the period-3 row still merges
    # shifts 2 and 5, and the Gaussian row keeps its planted shift apart.
    X = np.stack((x, np.random.default_rng(4).standard_normal(6)))
    z, v = measure(np.roll(X, 5, axis=1), K), measure(X, K)
    assert v.values[0, 0] == 0 and v.values[1, 0] != 0
    for method in (shift_by_compressive_argmax, shift_by_compressive_ratio):
        est = method(z, v)
        assert est.shift.tolist() == [2, 5]
        assert "ambiguous" in est.flags[0] and est.flags[1] == ()


@given(*short_period_cases, st.integers(0, 47))
# Dead bins merge these shifts with a smaller one; the winning score's
# last bits used to pick the larger.
@example(6, 2679844982, 5.943179160964803, {2, 23, 44}, 5)
@example(10, 2879537138, -10.188991284043976, {9, 14, 20}, 9)
@settings(max_examples=150, deadline=None)
def test_noiseless_estimates_are_the_smallest_shift_of_the_planted_group(n, seed, log_c, bins, s):
    # The estimators and check_sensing_conditions judge which shifts the
    # measurements cannot tell apart by one rule, dead bins included.
    x = short_period_signal(n, seed, log_c)
    s %= n
    K = SensingSet(n, tuple(sorted({k % n for k in bins})))
    group = next((g for g in check_sensing_conditions(x, K).duplicate_shift_groups if s in g), (s,))
    z, v = measure(np.roll(x, s), K), measure(x, K)
    for method in (shift_by_compressive_argmax, shift_by_compressive_ratio):
        if method is shift_by_compressive_ratio and not v.values.any():
            continue  # no bin to divide by: test_ratio_all_bins_zero_fails
        est = method(z, v)
        assert est.shift == group[0], method.__name__
        assert ("ambiguous" in est.flags) == (len(group) > 1), method.__name__


@given(*short_period_cases, st.integers(0, 47))
@settings(max_examples=100, deadline=None)
def test_qualifying_bins_are_the_bins_single_bin_accepts(n, seed, log_c, bins, s):
    x = short_period_signal(n, seed, log_c)
    y = np.roll(x, s % n)
    K = SensingSet(n, tuple(sorted({k % n for k in bins})))
    accepted = []
    for k in K.indices:
        if gcd(k, n) != 1:
            continue
        try:
            est = shift_single_bin(x, y, k)
        except IdentifiabilityError:
            continue
        assert est.shift == s % n
        accepted.append(k)
    assert check_sensing_conditions(x, K).qualifying_bins == tuple(accepted)


def test_check_frame_property_against_materialized_matrix():
    for n, indices in [(8, (1, 3)), (12, (0, 5, 7)), (6, tuple(range(6)))]:
        A = sensing_matrix(SensingSet(n, indices))
        assert_allclose(A @ A.conj().T, np.eye(len(indices)), atol=1e-12)


def test_commutation_premise():
    # A^H A commutes with every shift matrix (shared Fourier eigenspace)
    rng = np.random.default_rng(6)
    for n in [4, 9, 16]:
        indices = tuple(sorted(rng.choice(n, size=max(1, n // 3), replace=False).tolist()))
        A = sensing_matrix(SensingSet(n, indices))
        G = A.conj().T @ A
        for s in range(n):
            P = materialize(make_shift(n, s))
            assert np.abs(G @ P - P @ G).max() < 1e-10


# ---------------------------------------------------------------------------
# compressive estimators
# ---------------------------------------------------------------------------

def test_argmax_zero_shift_score():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(8)
    v = measure(x, SensingSet(8, (1, 3, 5)))
    est = shift_by_compressive_argmax(v, v)
    assert est.shift == 0
    assert est.score == pytest.approx(float(np.sum(np.abs(v.values) ** 2)), rel=1e-12)


@pytest.mark.parametrize("n, indices, seed, scale", [
    (15, (0, 9), 113, 10.0 ** 3.75),
    (6, (2, 4), 15, 100.0),
])
def test_argmax_returns_smallest_shift_of_its_class(n, indices, seed, scale):
    # Shifts that differ by a multiple of n / gcd(n, *indices) have
    # bitwise-equal phase-table columns; at these scales rounding in the
    # score product used to favour a larger member of the class.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    s = int(rng.integers(n))  # x is np.roll(x, s) delayed by -s
    K = SensingSet(n, indices)
    for c in (1.0, scale):
        est = shift_by_compressive_argmax(measure(c * x, K), measure(c * np.roll(x, s), K))
        assert est.shift == -s % (n // gcd(n, *indices)) == 2
        assert est.flags == ("ambiguous",)


@pytest.mark.parametrize("n", [4, 8, 12, 16, 32])
def test_argmax_full_sensing_collapses_to_crosscorr(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    y = np.roll(x, int(rng.integers(n))) + 0.1 * rng.standard_normal(n)
    v = measure(x, full_set(n))
    z = measure(y, full_set(n))
    est = shift_by_compressive_argmax(z, v)
    classic = shift_by_crosscorr(x, y)
    assert est.shift == classic.shift
    assert_allclose(est.scores, classic.scores, atol=1e-9 * max(1, np.abs(classic.scores).max()))


@given(st.integers(1, 256), st.integers(0, 2**32 - 1))
@example(256, 0)
@settings(max_examples=40, deadline=None)
def test_full_sensing_collapses_to_the_full_signal_estimators(n, seed):
    # With every bin kept, the compressive scores are the full-signal ones.
    # measure takes all n bins in one pass, so an n = 256 example costs a
    # few milliseconds.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    s = int(rng.integers(n))
    y = np.roll(x, s)
    v, z = measure(x, full_set(n)), measure(y, full_set(n))
    assert shift_by_compressive_argmax(z, v).shift == shift_by_crosscorr(x, y).shift == s
    assert shift_by_compressive_ratio(z, v).shift == shift_by_ratio(x, y).shift == s


def test_argmax_single_bin_case():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.roll(x, 1)
    K = SensingSet(4, (1,))
    est = shift_by_compressive_argmax(measure(y, K), measure(x, K))
    assert est.shift == brute_force_shift(x, y).shift == 1


@pytest.mark.parametrize("n", [4, 7, 8, 12, 16])
def test_argmax_calibration_planted_shifts(n):
    # direction convention: z from the delayed signal, v from the reference
    rng = np.random.default_rng(20 + n)
    x = rng.standard_normal(n)
    for indices in [(1,), (1, 2), tuple(range(n))]:
        K = SensingSet(n, indices)
        v = measure(x, K)
        for s in range(n):
            z = measure(np.roll(x, s), K)
            assert shift_by_compressive_argmax(z, v).shift == s


def test_ratio_full_sensing_collapses_to_ratio():
    rng = np.random.default_rng(8)
    for n in [4, 9, 16, 32]:
        x = rng.standard_normal(n)
        s = int(rng.integers(n))
        y = np.roll(x, s)
        v = measure(x, full_set(n))
        z = measure(y, full_set(n))
        est = shift_by_compressive_ratio(z, v)
        classic = shift_by_ratio(x, y)
        assert est.shift == classic.shift == s
        # the compressed ratio equals the full ratio spectrum
        assert_allclose(z.values / v.values, dft(y) / dft(x), atol=1e-10)


def test_ratio_single_bin_closed_form():
    n = 8
    rng = np.random.default_rng(9)
    x = rng.standard_normal(n)
    K = SensingSet(n, (3,))  # gcd(3, 8) = 1
    v = measure(x, K)
    for s in range(n):
        z = measure(np.roll(x, s), K)
        rho = z.values[0] / v.values[0]
        assert rho == pytest.approx(np.exp(-2j * np.pi * 3 * s / n), abs=1e-12)
        est = shift_by_compressive_ratio(z, v)
        assert est.shift == s
        assert est.score < 1e-9  # exact match residual


def test_ratio_identical_measurements():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(12)
    v = measure(x, SensingSet(12, (1, 5)))
    est = shift_by_compressive_ratio(v, v)
    assert est.shift == 0
    assert est.score < 1e-12


def test_ratio_ambiguous_sensing_flagged():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(8)
    K = SensingSet(8, (4,))
    for s in range(8):
        est = shift_by_compressive_ratio(measure(np.roll(x, s), K), measure(x, K))
        assert "ambiguous" in est.flags
        assert est.shift % 2 == s % 2  # lands in the right duplicate class
        assert est.shift == min(t for t in range(8) if t % 2 == s % 2)


def test_argmax_ambiguous_sensing_flagged():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(8)
    K = SensingSet(8, (4,))
    est = shift_by_compressive_argmax(measure(np.roll(x, 3), K), measure(x, K))
    assert "ambiguous" in est.flags
    assert est.shift in (1, 3, 5, 7)


def test_ratio_drops_empty_bins():
    x = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])  # spectrum lives on bins 0 and 3
    K = SensingSet(6, (1, 3))  # bin 1 is empty, bin 3 carries energy
    v = measure(x, K)
    z = measure(np.roll(x, 1), K)
    est = shift_by_compressive_ratio(z, v)
    assert "dropped_bins" in est.flags
    assert "ambiguous" in est.flags  # gcd(3, 6) != 1: survivors cannot disambiguate


def test_ratio_all_bins_zero_fails():
    K = SensingSet(4, (1, 3))
    empty = Measurement(np.zeros(2, dtype=complex), K)
    with pytest.raises(IdentifiabilityError):
        shift_by_compressive_ratio(empty, empty)


def test_ratio_numerically_dead_bins_are_flagged_ambiguous():
    # Bins whose true spectrum is zero evaluate to ~1e-16 dust, which
    # measure stores as exact zeros: the ratio test has no bin left to
    # divide by, and the correlation test cannot tell any shift apart.
    x = np.array([1.0, 0.0, 1.0, 0.0])
    K = SensingSet(4, (1, 3))  # both bins empty for this signal
    z, v = measure(np.roll(x, 1), K), measure(x, K)
    with pytest.raises(IdentifiabilityError):
        shift_by_compressive_ratio(z, v)
    assert "ambiguous" in shift_by_compressive_argmax(z, v).flags


def test_sensing_set_mismatch_rejected():
    x = np.random.default_rng(13).standard_normal(8)
    va = measure(x, SensingSet(8, (1,)))
    vb = measure(x, SensingSet(8, (3,)))
    with pytest.raises(ValueError):
        shift_by_compressive_argmax(va, vb)
    with pytest.raises(ValueError):
        shift_by_compressive_ratio(va, vb)


@pytest.mark.parametrize("n", list(range(4, 17)))
def test_guaranteed_recovery_singletons_and_pairs(n):
    rng = np.random.default_rng(40 + n)
    x = rng.standard_normal(n)
    while np.abs(dft(x)[1:]).min() < 1e-6:
        x = rng.standard_normal(n)
    singletons = [(k,) for k in range(n)]
    pairs = [(0, k) for k in range(1, n)]
    for indices in singletons + pairs:
        K = SensingSet(n, indices)
        if not check_sensing_conditions(x, K).guarantee_holds:
            continue
        v = measure(x, K)
        for s in range(n):
            z = measure(np.roll(x, s), K)
            assert shift_by_compressive_argmax(z, v).shift == s
            assert shift_by_compressive_ratio(z, v).shift == s


# ---------------------------------------------------------------------------
# (B, m) stacks
# ---------------------------------------------------------------------------

def _alone(estimator, z, v):
    """The one-row estimate, or the type of error the call raises."""
    try:
        return estimator(z, v)
    except ValueError as err:
        return type(err)


# n -> sensing set (c, a, b) with a and b dividing n. A row of period n/a
# lives on the multiples of a, so of the sensed bins only a (and b where a
# divides it) stay live: the rest are dead, and the live ones share a
# factor with n. n = 513 and 1000 take dft_entry's blocked path.
STACK_SETS = {12: (1, 3, 4), 64: (2, 8, 16), 513: (1, 27, 171), 1000: (1, 8, 250)}


@pytest.mark.parametrize("tiny", [None, 2.0**-450, 2.0**-600])
@pytest.mark.parametrize("n", sorted(STACK_SETS))
def test_a_stacked_measurement_and_estimate_equal_their_rows_alone(n, tiny):
    rng = np.random.default_rng(n)
    sensing = SensingSet(n, STACK_SETS[n])
    c, a, b = sensing.indices
    tone = np.cos(2 * np.pi * (c * np.arange(n) / n + rng.random()))  # bin c of the reference
    period = [np.tile(rng.standard_normal(n // k), k) for k in (a, b)]
    x = np.stack([rng.standard_normal(n), *period, period[0] + tone, rng.standard_normal(n)])
    if tiny:
        x[-1] *= tiny  # below 2**-400: argmax lifts this row alone, or refuses on underflow
    y = np.stack([np.roll(row, s) for row, s in zip(x, rng.integers(n, size=len(x)))])
    y[::2] += 0.01 * np.abs(x[::2]).max(axis=1, keepdims=True) * rng.standard_normal((3, n))
    v, z = measure(x, sensing), measure(y, sensing)
    assert v.values.shape == z.values.shape == (len(x), sensing.m)
    rows_v, rows_z = list(v), list(z)
    for row, (vb, zb) in enumerate(zip(rows_v, rows_z)):
        assert vb.values.tobytes() == measure(x[row], sensing).values.tobytes()
        assert zb.values.tobytes() == measure(y[row], sensing).values.tobytes()
    for estimator in (shift_by_compressive_argmax, shift_by_compressive_ratio):
        alone = [_alone(estimator, zb, vb) for zb, vb in zip(rows_z, rows_v)]
        refusals = {e for e in alone if isinstance(e, type)}
        if refusals:
            assert tiny == 2.0**-600 and estimator is shift_by_compressive_argmax
            with pytest.raises(ValueError) as err:
                estimator(z, v)
            assert err.type in refusals
            continue
        stacked = estimator(z, v)
        assert stacked.shift.shape == stacked.score.shape == (len(x),)
        assert not stacked.scores.flags.writeable
        for row, est in enumerate(alone):
            assert stacked.shift[row] == est.shift
            assert stacked.score[row].tobytes() == np.float64(est.score).tobytes()
            assert stacked.scores[row].tobytes() == np.ascontiguousarray(est.scores).tobytes()
            assert stacked.flags[row] == est.flags
        flags = [set(f) for f in stacked.flags]
        assert any("ambiguous" in f for f in flags)
        if estimator is shift_by_compressive_ratio:
            assert {"dropped_bins" in f for f in flags} == {True, False}


def test_stacked_ratio_residuals_leave_each_rows_dropped_bins_out():
    # Row 0 has period 4, so of bins 1, 3 and 4 of n = 12 only bin 3 is
    # live; row 1 keeps all three. Each residual is the distance between
    # the kept ratios and the kept phases of the shift.
    n, shifts = 12, np.array([5, 7])
    sensing = SensingSet(n, (1, 3, 4))
    rng = np.random.default_rng(5)
    x = np.stack([np.tile(rng.standard_normal(4), 3), rng.standard_normal(n)])
    y = np.stack([np.roll(row, s) for row, s in zip(x, shifts)])
    v, z = measure(x, sensing), measure(y, sensing)
    est = shift_by_compressive_ratio(z, v)
    assert est.flags == (("ambiguous", "dropped_bins"), ())
    assert est.shift.tolist() == [1, 7]  # row 0: 5 mod 4, its smallest twin
    assert est.score.max() < 1e-12
    k = np.asarray(sensing.indices)
    for row, kept in enumerate([k == 3, k > 0]):
        rho = z.values[row, kept] / v.values[row, kept]
        phases = np.exp(-2j * np.pi * np.outer(k[kept], np.arange(n)) / n)
        assert_allclose(est.scores[row], np.linalg.norm(rho[:, None] - phases, axis=0), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 31, 100, 1000, 4096])
def test_ratio_residuals_are_the_dense_direct_difference(n):
    # The reference takes every shift's phases directly, n per bin. At 3,
    # 5, 31 and 1000 the factored residuals run past shift n - 1 (a*b > n)
    # and are cut. Cases alternate one pair and (3, m) stacks; every third
    # drops bin 0 of each row; z is scaled by 10^-3..10^3.
    rng = np.random.default_rng(n)
    for case in range(24):
        m = int(rng.integers(1, min(6, n) + 1))
        sensing = SensingSet(n, tuple(sorted(rng.choice(n, size=m, replace=False).tolist())))
        shape = (m,) if case % 2 else (3, m)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z = 10.0 ** rng.integers(-3, 4) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if case % 3 == 0 and m > 1:
            v[..., 0] = 0
        est = shift_by_compressive_ratio(Measurement(z, sensing), Measurement(v, sensing))
        keep = v != 0
        rho = np.divide(z, v, out=np.zeros(shape, complex), where=keep)
        phases = unit_phases(np.asarray(sensing.indices)[:, None], np.arange(n), n)
        dense = np.linalg.norm(np.where(keep[..., None], rho[..., None] - phases, 0), axis=-2)
        assert (np.abs(est.scores - dense).max(axis=-1) <= 1e-15 * dense.max(axis=-1)).all()


@pytest.mark.parametrize("n", [64, 4096])
def test_a_sensing_set_builds_its_phase_factors_once_on_first_use(n, monkeypatch):
    # n = 64 measures by the direct evaluation, n = 4096 by the blocked one.
    calls = []

    def counted(k, n):
        calls.append(n)
        return phase_factors(k, n)

    monkeypatch.setattr(compressive, "phase_factors", counted)
    monkeypatch.setattr(spectral, "phase_factors", counted)
    sensing, twin = SensingSet(n, (1, 3, 8)), SensingSet(n, (1, 3, 8))
    assert vars(sensing) == {"n": n, "indices": (1, 3, 8)} and not calls
    x = np.random.default_rng(n).standard_normal(n)
    z, v = measure(np.roll(x, 5), sensing), measure(x, sensing)
    assert shift_by_compressive_argmax(z, v).shift == shift_by_compressive_ratio(z, v).shift == 5
    assert len(calls) == 1
    # What the set keeps is no part of its value.
    assert sensing == twin and hash(sensing) == hash(twin) and repr(sensing) == repr(twin)
    assert len({sensing, twin}) == 1


def test_ratio_settles_twins_on_its_kept_bins_alone():
    # Bin 1 is dropped at 0.9e-12 of the peak, yet its column moves by
    # 1.8e-12 of the peak between shifts 0 and 2, which bin 2 cannot tell apart.
    sensing = SensingSet(4, (1, 2))
    v = Measurement([0.9e-12, 1.0], sensing)
    est = shift_by_compressive_ratio(v, v)
    assert (est.shift, est.flags) == (0, ("ambiguous", "dropped_bins"))


def test_a_stack_with_an_all_zero_reference_row_refuses_the_ratio():
    sensing = SensingSet(8, (1, 3))
    x = np.random.default_rng(3).standard_normal((3, 8))
    x[1] = 0.0
    v, z = measure(x, sensing), measure(np.roll(x, 2, axis=1), sensing)
    with pytest.raises(IdentifiabilityError):
        shift_by_compressive_ratio(z, v)
    assert shift_by_compressive_argmax(z, v).flags[1] == ("ambiguous",)


@pytest.mark.parametrize("estimator", [shift_by_compressive_argmax, shift_by_compressive_ratio])
def test_compressive_estimators_take_measurements_only(estimator):
    v = measure(np.random.default_rng(5).standard_normal(8), SensingSet(8, (1, 3)))
    for z in (v.values, None):
        with pytest.raises(TypeError, match=r"^z and v must be Measurements, got \w+ and Measurement$"):
            estimator(z, v)
        with pytest.raises(TypeError, match=r"^z and v must be Measurements, got Measurement and \w+$"):
            estimator(v, z)


def test_measurement_stacks_must_match_and_may_be_in_any_memory_order():
    sensing = SensingSet(8, (1, 3))
    x = np.random.default_rng(4).standard_normal((3, 8))
    with pytest.raises(ValueError, match="shapes differ"):
        shift_by_compressive_argmax(measure(x, sensing), measure(x[0], sensing))
    with pytest.raises(TypeError):
        iter(measure(x[0], sensing))
    # The lift views each row's complex values as pairs of floats.
    fortran = Measurement(np.asfortranarray(measure(x, sensing).values), sensing)
    assert shift_by_compressive_argmax(fortran, fortran).shift.tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# correlation-vectorization identity
# ---------------------------------------------------------------------------

def test_identity_random_instances():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, n + 1))
        indices = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
        K = SensingSet(n, indices)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        s = int(rng.integers(n))
        lhs, rhs = argmax_identity_check(measure(y, K), measure(x, K), s)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


def test_identity_full_sensing_equals_classic_correlation():
    rng = np.random.default_rng(15)
    n = 8
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    classic = shift_by_crosscorr(x, y).scores
    v = measure(x, full_set(n))
    z = measure(y, full_set(n))
    for s in range(n):
        lhs, rhs = argmax_identity_check(z, v, s)
        assert lhs == pytest.approx(classic[s], abs=1e-9)
        assert rhs == pytest.approx(classic[s], abs=1e-9)


def test_identity_single_measurement_term():
    rng = np.random.default_rng(16)
    n = 12
    k = 5
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    K = SensingSet(n, (k,))
    z = measure(y, K)
    v = measure(x, K)
    for s in range(n):
        lhs, rhs = argmax_identity_check(z, v, s)
        direct = (np.conj(z.values[0]) * v.values[0] * np.exp(-2j * np.pi * k * s / n)).real
        assert lhs == pytest.approx(direct, abs=1e-10)
        assert rhs == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("shift", [-1, 8])
def test_identity_rejects_a_shift_out_of_range(shift):
    v = measure(np.random.default_rng(18).standard_normal(8), SensingSet(8, (1, 3)))
    with pytest.raises(ValueError, match=rf"^shift {shift} out of range 0\.\.7"):
        argmax_identity_check(v, v, shift)


def test_identity_rejects_large_n():
    n = 128
    K = full_set(n)
    x = np.random.default_rng(17).standard_normal(n)
    v = measure(x, K)
    with pytest.raises(ValueError):
        argmax_identity_check(v, v, 0)

"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from cycshift import (
    SensingSet,
    check_sensing_conditions,
    dft,
    ls_circulant_fit,
    measure,
    shift_by_compressive_argmax,
    shift_by_compressive_ratio,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)
from cycshift.bench import ExperimentConfig, rows_to_csv, run_bench
from cycshift.oracle import argmax_identity_check, brute_force_circulant_fit, brute_force_shift


def report(number, name, passed, detail=""):
    print(f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def full_spectrum_signal(n, rng):
    while True:
        x = rng.standard_normal(n)
        mags = np.abs(dft(x))
        if mags.min() > 1e-6 * mags.max():
            return x


def test_criterion_1_exact_regime_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    trials = 0
    for n in range(2, 49):
        for _ in range(20):
            x = full_spectrum_signal(n, rng)
            for s in range(n):
                y = np.roll(x, s)
                answers = {
                    shift_by_crosscorr(x, y).shift,
                    shift_by_ratio(x, y).shift,
                    shift_single_bin(x, y).shift,
                    brute_force_shift(x, y).shift,
                }
                if answers != {s}:
                    report(1, "exact-regime oracle equivalence", False,
                           f"n={n}, s={s}: estimators returned {sorted(answers)}")
                trials += 1
    elapsed = time.perf_counter() - t0
    report(1, "exact-regime oracle equivalence", elapsed < 30.0,
           f"({trials} planted shifts, 4 estimators, {elapsed:.1f}s < 30s)")


def test_criterion_2_ratio_impulse_exactness():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for n in [2, 3, 5, 8, 13, 16, 23, 32, 48]:
        x = full_spectrum_signal(n, rng)
        for s in range(n):
            y = np.roll(x, s)
            impulse = np.zeros(n)
            impulse[s] = 1.0
            # conventional 1/n inverse of the raw ratio spectrum
            d = np.fft.ifft(dft(y) / dft(x))
            worst = max(worst, float(np.abs(d - impulse).max()))
            # and the library's estimator returns the same vector
            worst = max(worst, float(np.abs(shift_by_ratio(x, y).scores - impulse).max()))
    report(2, "inverse spectral ratio equals the unit impulse", worst < 1e-9,
           f"(max deviation {worst:.2e} < 1e-9)")


def test_criterion_3_weighted_variant_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    count = 0
    for n in [8, 13, 16]:
        for _ in range(34):
            if count == 100:
                break
            x = full_spectrum_signal(n, rng)
            y = rng.standard_normal(n)
            X, Y = dft(x), dft(y)
            gap = np.abs(Y / X - np.conj(X) * Y / np.abs(X) ** 2).max()
            worst = max(worst, float(gap))
            count += 1
    report(3, "ratio spectrum equals the weighted cross-correlation form",
           worst < 1e-10 and count == 100, f"({count} pairs, max gap {worst:.2e} < 1e-10)")


def test_criterion_4_circulant_fit_optimality():
    rng = np.random.default_rng(1004)
    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        N = int(rng.integers(1, 4))
        X = rng.standard_normal((n, N))
        Y = rng.standard_normal((n, N))
        _, res_fast = ls_circulant_fit(X, Y)
        _, res_slow = brute_force_circulant_fit(X, Y)
        worst_gap = max(worst_gap, abs(res_fast - res_slow))
    worst_planted = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        c0 = rng.standard_normal(n)
        X = rng.standard_normal((n, 3))
        Y = np.stack([sum(c0[q] * np.roll(X[:, j], q) for q in range(n)) for j in range(3)],
                     axis=1)
        fit, res = ls_circulant_fit(X, Y)
        worst_planted = max(worst_planted, res, float(np.abs(fit.first_column - c0).max()))
    report(4, "least-squares circulant fit is optimal",
           worst_gap < 1e-8 and worst_planted < 1e-9,
           f"(residual gap {worst_gap:.2e} < 1e-8, planted error {worst_planted:.2e} < 1e-9)")


def test_criterion_5_single_measurement_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    cases = 0
    for n in range(4, 17):
        x = full_spectrum_signal(n, rng)
        for k in range(n):
            if np.gcd(k, n) != 1:
                continue
            sensing = SensingSet(n, (k,))
            v = measure(x, sensing)
            for s in range(n):
                z = measure(np.roll(x, s), sensing)
                got = shift_by_compressive_ratio(z, v).shift
                if got != s:
                    report(5, "single-measurement recovery", False,
                           f"n={n}, K=({k},), s={s}: got {got}")
                cases += 1
    elapsed = time.perf_counter() - t0
    report(5, "single-measurement recovery", elapsed < 10.0,
           f"({cases} exhaustive cases, {elapsed:.1f}s < 10s)")


def test_criterion_6_identity_and_full_sensing_collapse():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, n + 1))
        K = SensingSet(n, tuple(sorted(rng.choice(n, size=m, replace=False).tolist())))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        s = int(rng.integers(n))
        lhs, rhs = argmax_identity_check(measure(y, K), measure(x, K), s)
        worst = max(worst, abs(lhs - rhs))
    collapse_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 17))
        x = full_spectrum_signal(n, rng)
        y = np.roll(x, int(rng.integers(n))) + 0.05 * rng.standard_normal(n)
        K = SensingSet(n, tuple(range(n)))
        v, z = measure(x, K), measure(y, K)
        collapse_ok &= shift_by_compressive_argmax(z, v).shift == shift_by_crosscorr(x, y).shift
        collapse_ok &= shift_by_compressive_ratio(z, v).shift == shift_by_ratio(x, y).shift
    report(6, "correlation-vectorization identity and full-sensing collapse",
           worst < 1e-9 and collapse_ok,
           f"(200 identity checks, max gap {worst:.2e} < 1e-9; 100 collapse instances)")


def test_criterion_7_ambiguity_detection():
    rng = np.random.default_rng(1007)
    x = full_spectrum_signal(8, rng)
    bad = check_sensing_conditions(x, SensingSet(8, (4,)))
    v = measure(x, SensingSet(8, (4,)))
    z = measure(np.roll(x, 3), SensingSet(8, (4,)))
    est = shift_by_compressive_ratio(z, v)
    good = check_sensing_conditions(x, SensingSet(8, (1,)))
    ok = (
        bad.ambiguous
        and not bad.guarantee_holds
        and len(bad.duplicate_shift_groups) == 2
        and "ambiguous" in est.flags
        and est.shift in (1, 3, 5, 7)
        and good.guarantee_holds
        and not good.ambiguous
    )
    report(7, "sensing ambiguity detected, clean set passes", ok,
           "(n=8: K={4} flagged with duplicate classes, K={1} qualifies)")


def test_criterion_8_noiseless_bench_rows():
    ok = True
    detail = []
    for n in (16, 64):
        cfg = ExperimentConfig(
            n=n, trials=500, seed=2026, snr_db_grid=(float("inf"),),
            sensing=(1, 3), measure_time=False,
        )
        first = run_bench(cfg)
        second = run_bench(cfg)
        ok &= all(row["success_rate"] == 1.0 for row in first)
        ok &= rows_to_csv(first) == rows_to_csv(second)
        detail.append(f"n={n}: {len(first)} methods at 1.0, reruns byte-identical")
    report(8, "noiseless benchmark rows are perfect and deterministic", ok,
           f"({'; '.join(detail)})")


def test_criterion_9_single_bin_is_linear_time():
    n = 1 << 20
    rng = np.random.default_rng(1009)
    x = rng.standard_normal(n)
    s = int(rng.integers(n))
    y = np.roll(x, s)
    shift_single_bin(x, y, 1)  # warm up
    shift_by_crosscorr(x, y)

    def best_of(fn, repeats=3):
        best, result = np.inf, None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_single, est_single = best_of(lambda: shift_single_bin(x, y, 1))
    t_cross, est_cross = best_of(lambda: shift_by_crosscorr(x, y))
    speedup = t_cross / t_single
    ok = speedup >= 5.0 and est_single.shift == s and est_cross.shift == s
    report(9, "single-bin retrieval is at least 5x faster at n=2^20", ok,
           f"({t_single * 1e3:.1f}ms vs {t_cross * 1e3:.1f}ms, {speedup:.1f}x >= 5x, "
           f"both recover s={s})")

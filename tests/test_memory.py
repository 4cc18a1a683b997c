"""Memory guard: a full-signal call works in two spectrum-sized buffers.

numpy reports its array allocations to ``tracemalloc``; pocketfft's own
n-point scratch is not counted. The peak of one call, with the result it
returns still held, is read in units of one n-float array (8n bytes).
The spectrum of a real signal, n//2 + 1 complex values, is one such
unit, so two spectra and a few boolean masks stay under 2.25 of them.

A stacked compressive argmax call holds its (B, n) scores and the two
phase factors of ``spectral.phase_factors``, O(m * sqrt(n)) phases in
all, never a (B, m, n) array of measured columns. A stacked compressive
ratio call holds one (B, m, a*b) complex difference, a*b being n or a
little more, and a few (B, n)-sized float arrays: no (m, n) phase table
and no complex temporaries beside the difference.

The duplicate groups of ``check_sensing_conditions`` come from one
(m, n) table of the amounts by which columns differ at each shift
difference, built from an (m, n) phase table, and one pass over the
shifts that holds one group's shifts at a time: a few (m, n) arrays,
never one per leader nor an (n, n) table. That holds where groups are
huge too: sets whose bins share a large factor with n, a live bin too
weak to move nearby columns apart, and an all-zero measurement.
"""

import tracemalloc

import numpy as np
import pytest

from cycshift import (
    Circulant,
    SensingSet,
    check_sensing_conditions,
    measure,
    shift_affine,
    shift_by_compressive_argmax,
    shift_by_compressive_ratio,
    shift_by_crosscorr,
    shift_by_ratio,
)

N = 2**16


def traced_peak(call, *args) -> float:
    """Peak bytes numpy allocates during ``call(*args)``, in units of 8N."""
    call(*args)  # first call: plans and lazy imports are not the call's working set
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    del result  # held until the peak was read
    return (peak - base) / (8 * N)


@pytest.mark.parametrize("path", ["crosscorr", "ratio", "affine", "apply"])
def test_full_signal_call_holds_two_spectra(path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(N) + 0.5  # nonzero sum, so the affine offset is identifiable
    y = 1.5 * np.roll(x, 7) + 0.25
    C = Circulant(x)  # copies its column before tracing starts
    call = {
        "crosscorr": shift_by_crosscorr,
        "ratio": shift_by_ratio,
        "affine": shift_affine,
        "apply": lambda _, v: C.apply(v),
    }[path]
    assert traced_peak(call, x, y) <= 2.25


def test_compressive_argmax_stack_holds_no_column_per_bin():
    # 20 rows at n = 4096, m = 4: a (B, m, n) complex array alone is 8 units of 8Bn.
    B, n = 20, 4096
    X = np.random.default_rng(1).standard_normal((B, n))
    K = SensingSet(n, (1, 3, 5, 7))
    z, v = measure(np.roll(X, 7, axis=1), K), measure(X, K)
    assert traced_peak(shift_by_compressive_argmax, z, v) * N / (B * n) < 4


def test_compressive_ratio_stack_holds_one_difference():
    # 20 rows at n = 4096, m = 4: the difference is 2m units of 8Bn; its
    # sums over bins, their pairs and the residuals add four more.
    B, n, m = 20, 4096, 4
    X = np.random.default_rng(2).standard_normal((B, n))
    K = SensingSet(n, (1, 3, 5, 7))
    z, v = measure(np.roll(X, 7, axis=1), K), measure(X, K)
    assert traced_peak(shift_by_compressive_ratio, z, v) * N / (B * n) < 2 * m + 5


def test_check_scan_holds_its_buffers_once_per_scan():
    # In units of m*n complex values: the phase table, the table of
    # amounts per shift difference built from it, and the n groups found.
    # Buffers kept per leader, or an (n, n) table, would break the bound.
    n, K = 4096, (8, 100, 1001, 2048)
    x = np.random.default_rng(3).standard_normal(n)
    S = SensingSet(n, K)
    assert traced_peak(check_sensing_conditions, x, S) * 8 * N / (16 * len(K) * n) < 5


# Sets at n = 4096 that load the table's pass over the shifts. Bins
# whose gcd with n is g make every multiple of n/g a coinciding
# difference, so each of n/g leaders takes g shifts: huge groups for
# (2048,), (1024, 2048) and the four multiples of 512 (2, 4 and 8
# groups), many small ones for (4,) and, on a Gaussian signal, (2, 2048)
# (1024 groups of 4, 2048 pairs). "weak": bin 2, live at ~5e-11 of the
# peak, leaves a few even differences near 0 and n coinciding, so nearby
# even shifts merge: 512 groups of 2 to 14 shifts. "zero": an all-zero
# measurement makes every difference coincide, one group of all n.
_T = np.arange(4096)
DEGENERATE = {
    "2048": (np.random.default_rng(1).standard_normal(4096), (2048,)),
    "4": (np.random.default_rng(1).standard_normal(4096), (4,)),
    "1024,2048": (np.random.default_rng(2).standard_normal(4096), (1024, 2048)),
    "512,1024,2048,3072": (np.random.default_rng(2).standard_normal(4096), (512, 1024, 2048, 3072)),
    "2,2048": (np.random.default_rng(2).standard_normal(4096), (2, 2048)),
    "weak": (1e-10 * np.cos(4 * np.pi * _T / 4096) + (-1.0) ** _T, (2, 2048)),
    "zero": (np.zeros(4096), (8, 100, 1001, 2048)),
}


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_check_scan_stays_within_the_m_4_bound_on_degenerate_sets(name):
    # The same bound as the m = 4 set above, 5 units of 4*n complex values
    # (1,280 KB), whatever m: the pass over the shifts holds one group at
    # a time, however large.
    x, K = DEGENERATE[name]
    assert traced_peak(check_sensing_conditions, x, SensingSet(4096, K)) * 8 * N < 5 * 16 * 4 * 4096

"""Memory guard: a full-signal call works in two spectrum-sized buffers.

numpy reports its array allocations to ``tracemalloc``; pocketfft's own
n-point scratch is not counted. The peak of one call, with the result it
returns still held, is read in units of one n-float array (8n bytes).
The spectrum of a real signal, n//2 + 1 complex values, is one such
unit, so two spectra and a few boolean masks stay under 2.25 of them.

A stacked compressive argmax call holds its (B, n) scores and the two
phase factors of ``spectral.phase_factors``, O(m * sqrt(n)) phases in
all, never a (B, m, n) array of measured columns.
"""

import tracemalloc

import numpy as np
import pytest

from cycshift import (
    Circulant,
    SensingSet,
    measure,
    shift_affine,
    shift_by_compressive_argmax,
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

"""Structural cost guards: transforms per call, and no aliasing of inputs.

The guards count calls to ``numpy.fft`` instead of timing anything, so
they hold on any machine. A full-signal estimate, ``Circulant.apply``
and ``ls_circulant_fit`` each run three real transforms of length n and
no complex transform; the single-bin estimator runs one only to choose
its bin, and the sensing report runs none.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cycshift import (
    Circulant,
    SensingSet,
    check_sensing_conditions,
    ls_circulant_fit,
    measure,
    shift_affine,
    shift_by_compressive_argmax,
    shift_by_compressive_ratio,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)


@pytest.fixture
def transforms(monkeypatch):
    """Sorted (name, length) of every numpy.fft transform called."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(a, *args, _real=getattr(np.fft, name), _name=name, **kwargs):
            out = _real(a, *args, **kwargs)
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            # rfft shortens its axis to n//2 + 1 and irfft lengthens it back.
            calls.append((_name, max(np.shape(a)[axis], out.shape[axis])))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def pair(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 0.5  # nonzero sum, so the affine offset is identifiable
    return x, 1.5 * np.roll(x, 7) + 0.25


THREE_TRANSFORM_PATHS = {
    "crosscorr": shift_by_crosscorr,
    "ratio": shift_by_ratio,
    "affine": shift_affine,
    "apply": lambda x, y: Circulant(x).apply(y),
    "ls_circulant_fit": lambda x, y: ls_circulant_fit(np.stack((x, -x), 1), np.stack((y, x), 1)),
}


@pytest.mark.parametrize("n", [999, 1000])
@pytest.mark.parametrize("path", THREE_TRANSFORM_PATHS, ids=str)
def test_full_signal_paths_run_three_real_transforms(transforms, path, n):
    x, y = pair(n)
    THREE_TRANSFORM_PATHS[path](x, y)
    assert sorted(transforms) == [("irfft", n), ("rfft", n), ("rfft", n)]


def test_single_bin_transforms_only_to_choose_its_bin(transforms):
    x, y = pair(1000)
    shift_single_bin(x, y)
    assert transforms == [("rfft", 1000)]
    transforms.clear()
    shift_single_bin(x, y, 3)
    assert transforms == []


@pytest.mark.parametrize("path, count", [
    (shift_by_crosscorr, 3), (shift_by_ratio, 3), (shift_single_bin, 1),
], ids=["crosscorr", "ratio", "single_bin"])
def test_a_stacked_call_runs_the_transforms_of_one_pair(transforms, path, count):
    x, y = pair(1000)
    path(x, y)
    one_pair = sorted(transforms)
    transforms.clear()
    path(np.stack((x, -x, 2 * x, x + 1)), np.stack((y, -y, 2 * y, y + 1)))
    assert sorted(transforms) == one_pair and len(one_pair) == count


def test_sensing_report_runs_one_real_transform(transforms):
    # The report is read from the measurement alone, so no transform runs.
    x, _ = pair(1000)
    check_sensing_conditions(x, SensingSet(1000, (0, 3, 500)))
    assert transforms == []


@given(st.integers(3, 64), st.integers(0, 2**32 - 1))
@example(4097, 0)
@settings(max_examples=30, deadline=None)
def test_no_path_writes_to_or_returns_its_inputs(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 0.5
    y = 1.5 * np.roll(x, int(rng.integers(n))) + 0.25
    X = rng.standard_normal((n, 2))
    Y = np.roll(X, 1, axis=0)
    K = SensingSet(n, (0, 1))
    z, v = measure(y, K), measure(x, K)
    C = Circulant(x)
    inputs = (x, y, X, Y, C.first_column, z.values, v.values)
    before = [a.copy() for a in inputs]
    for a in inputs:
        a.flags.writeable = False  # an in-place write raises instead of passing unseen

    fit, _ = ls_circulant_fit(X, Y)
    outputs = [
        shift_by_crosscorr(x, y).scores,
        shift_by_ratio(x, y).scores,
        C.apply(y),
        fit.first_column,
        shift_by_compressive_argmax(z, v).scores,
        shift_by_compressive_ratio(z, v).scores,
    ]
    shift_single_bin(x, y)
    shift_single_bin(x, y, 1)
    shift_affine(x, y)

    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    for out in outputs:
        assert not any(np.shares_memory(out, a) for a in inputs)

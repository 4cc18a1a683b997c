"""One finite-or-refuse contract over the computing calls of the public API.

Whatever the magnitude of its inputs, each call either returns values
that are all finite or raises ValueError (IdentifiabilityError is one),
and numpy issues no RuntimeWarning on the way: the module runs with
every warning turned into an error. Signals have n in 3..64 and are
scaled by 10**e for e from -300 to 307, x and y by the same power or by
powers drawn apart; a third of the pairs carry noise.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cycshift
from cycshift import (
    Circulant,
    IdentifiabilityError,
    Measurement,
    SensingReport,
    SensingSet,
    check_sensing_conditions,
    dft,
    dft_entry,
    embed,
    idft,
    ls_circulant_fit,
    measure,
    select_bin,
    shift_affine,
    shift_by_compressive_argmax,
    shift_by_compressive_ratio,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)
from cycshift.spectral import live
from test_cli import _near_range_shapes

pytestmark = pytest.mark.filterwarnings("error")


def _numbers(out):
    """Every number a call returned, as complex values."""
    if out is None or isinstance(out, (str, bool)):
        return []
    if isinstance(out, (int, float, complex, np.ndarray, np.generic)):
        return list(np.ravel(np.asarray(out, dtype=complex)))
    if isinstance(out, (tuple, list)):
        return [v for item in out for v in _numbers(item)]
    if isinstance(out, Circulant):
        return _numbers(out.first_column)
    fields = getattr(out, "__dataclass_fields__", None)
    assert fields is not None, f"unexpected result type {type(out)}"
    return [v for name in fields for v in _numbers(getattr(out, name))]


def _finite_or_refused(name, call):
    """Run ``call``: its result holds only finite numbers, or it raised ValueError."""
    try:
        out = call()
    except ValueError:
        return None
    bad = [v for v in _numbers(out) if not np.isfinite(v)]
    assert not bad, f"{name} returned non-finite values {bad[:3]}"
    return out


@given(
    n=st.integers(3, 64),
    seed=st.integers(0, 2**32 - 1),
    shift=st.integers(0, 63),
    bins=st.sets(st.integers(0, 63), min_size=1, max_size=4),
    ex=st.floats(-300.0, 307.0),
    ey=st.floats(-300.0, 307.0),
    together=st.booleans(),
    noise=st.integers(0, 2),
)
@example(n=24, seed=0, shift=5, bins={1, 3}, ex=-300.0, ey=300.0, together=False, noise=0)
@example(n=8, seed=1, shift=3, bins={1}, ex=307.0, ey=307.0, together=True, noise=1)
@example(n=16, seed=2, shift=9, bins={2, 8}, ex=-300.0, ey=-300.0, together=True, noise=0)
@settings(max_examples=250, deadline=None)
def test_every_call_returns_finite_values_or_raises_value_error(n, seed, shift, bins, ex, ey,
                                                                 together, noise):
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal(n)
    shifted = np.roll(unit, shift % n)
    if noise == 0:  # a third of the pairs are noisy
        shifted = shifted + 0.3 * rng.standard_normal(n)
    x = unit * 10.0 ** ex
    y = shifted * 10.0 ** (ex if together else ey)
    sensing = SensingSet(n, tuple(sorted({k % n for k in bins})))

    for name, call in {
        "shift_by_crosscorr": lambda: shift_by_crosscorr(x, y),
        "shift_by_ratio": lambda: shift_by_ratio(x, y),
        "shift_single_bin": lambda: shift_single_bin(x, y),
        "shift_affine": lambda: shift_affine(x, y),
        "Circulant.apply": lambda: Circulant(x).apply(y),
        "Circulant.eigenvalues": lambda: Circulant(x).eigenvalues(),
        "ls_circulant_fit": lambda: ls_circulant_fit(np.stack((x, np.roll(x, 1)), 1),
                                                     np.stack((y, np.roll(y, 1)), 1)),
        "check_sensing_conditions": lambda: check_sensing_conditions(x, sensing),
    }.items():
        _finite_or_refused(name, call)

    v = _finite_or_refused("measure", lambda: measure(x, sensing))
    z = _finite_or_refused("measure", lambda: measure(y, sensing))
    if v is not None and z is not None:
        _finite_or_refused("shift_by_compressive_argmax", lambda: shift_by_compressive_argmax(z, v))
        _finite_or_refused("shift_by_compressive_ratio", lambda: shift_by_compressive_ratio(z, v))


def test_a_check_near_the_float64_range_reports_its_groups_without_a_warning():
    # Bin 1 measures 1.13e308, so the columns of shifts 0 and 1 differ by
    # 2.26e308: an infinite difference, which the scan reads as live.
    report = check_sensing_conditions([0.8e308, -0.8e308], SensingSet(2, (1,)))
    assert (report.qualifying_bins, report.guarantee_holds) == ((1,), True)
    assert (report.ambiguous, report.duplicate_shift_groups) == (False, ())


def test_affine_on_a_near_range_ramp_refuses_the_overflow_by_name():
    # The sum of the ramp adds +inf to -inf, which numpy calls invalid, not
    # an overflow; the named refusal comes first all the same.
    ramp = np.linspace(-0.8e308, 0.8e308, 8)
    with pytest.raises(ValueError, match="the inputs overflow"):
        shift_affine(ramp, np.roll(ramp, 3))


# The names of cycshift.__all__ that take no signal, spectrum or measurement values.
NOT_VALUE_TAKING = {"__version__", "IdentifiabilityError", "fourier_column", "make_shift", "SensingSet",
                    "ShiftEstimate", "AffineShiftModel", "SensingReport"}


def _near_range_calls(x, y, K):
    """Each value-taking call of cycshift.__all__ on signal x and its delay y, named by the call.

    A "/stack" call takes the (2, n) stacks of the pairs (x, y) and
    (y, its delay); measurement values are the first m samples.
    """
    X = np.stack((x, y))
    Y = np.roll(X, 3, axis=-1)
    z, v, Z, V = (Measurement(a[..., :K.m], K) for a in (y, x, Y, X))
    return {
        "dft": lambda: dft(x),
        "idft": lambda: idft(x),
        "dft_entry": lambda: dft_entry(x, 1),
        "dft_entry/stack": lambda: dft_entry(X, 1),
        "Circulant.apply": lambda: Circulant(x).apply(y),
        "Circulant.eigenvalues": lambda: Circulant(x).eigenvalues(),
        "ls_circulant_fit": lambda: ls_circulant_fit(X.T, Y.T),
        "shift_by_crosscorr": lambda: shift_by_crosscorr(x, y),
        "shift_by_crosscorr/stack": lambda: shift_by_crosscorr(X, Y),
        "shift_by_ratio": lambda: shift_by_ratio(x, y),
        "shift_by_ratio/stack": lambda: shift_by_ratio(X, Y),
        "select_bin": lambda: select_bin(x),
        "shift_single_bin": lambda: shift_single_bin(x, y),
        "shift_single_bin/stack": lambda: shift_single_bin(X, Y),
        "shift_single_bin/bin_1": lambda: shift_single_bin(x, y, 1),
        "shift_single_bin/bin_1/stack": lambda: shift_single_bin(X, Y, 1),
        "shift_affine": lambda: shift_affine(x, y),
        "Measurement": lambda: Measurement(x[:K.m], K),
        "measure": lambda: measure(x, K),
        "measure/stack": lambda: measure(X, K),
        "embed": lambda: embed(x[:K.m], K),
        "check_sensing_conditions": lambda: check_sensing_conditions(x, K),
        "shift_by_compressive_argmax": lambda: shift_by_compressive_argmax(z, v),
        "shift_by_compressive_argmax/stack": lambda: shift_by_compressive_argmax(Z, V),
        "shift_by_compressive_ratio": lambda: shift_by_compressive_ratio(z, v),
        "shift_by_compressive_ratio/stack": lambda: shift_by_compressive_ratio(Z, V),
    }


NEAR_RANGE_CALLS = tuple(_near_range_calls(np.ones(8), np.ones(8), SensingSet(8, (1, 3))))


def test_the_near_range_calls_cover_every_value_taking_name():
    names = {re.split(r"[./]", call)[0] for call in NEAR_RANGE_CALLS}
    assert names == set(cycshift.__all__) - NOT_VALUE_TAKING


def _dead_reading(outcome):
    """What ``outcome`` (a result or an exception) reads as dead: an entry, a bin left out, no bin at all."""
    if isinstance(outcome, IdentifiabilityError):
        return "unidentifiable"
    if isinstance(outcome, Measurement):  # measure stores a dead entry as 0
        return (~live(np.abs(outcome.values))).tolist()
    if isinstance(outcome, SensingReport):
        return outcome.qualifying_bins
    return None


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("call", NEAR_RANGE_CALLS)
@pytest.mark.parametrize("shape", sorted(_near_range_shapes()))
def test_near_range_calls_answer_finitely_or_refuse_the_overflow_by_name(shape, call):
    # Each value-taking call answers with finite values or raises ValueError
    # naming the overflow (or, where samples are subnormal, the underflow),
    # with no numpy warning. An entry that overflows is never read as dead:
    # what a call reads as dead (an IdentifiabilityError, a dead entry, a bin
    # left out of the qualifying ones) it reads so on the same inputs scaled
    # by 2**-8, whose sums stay inside the float64 range. That scale is exact
    # but for subnormal samples, which lie far below any live entry.
    x = _near_range_shapes()[shape]
    K = SensingSet(x.size, (1, 3))
    got = _outcome(_near_range_calls(x, np.roll(x, 3), K)[call])
    if isinstance(got, ValueError) and not isinstance(got, IdentifiabilityError):
        assert re.search("overflow|underflow|not finite|NaN or infinite", str(got)), got
        return
    scaled = _outcome(_near_range_calls(x * 2.0**-8, np.roll(x, 3) * 2.0**-8, K)[call])
    assert _dead_reading(got) == _dead_reading(scaled), (got, scaled)
    if not isinstance(got, IdentifiabilityError):
        bad = [v for v in _numbers(got) if not np.isfinite(v)]
        assert not bad, f"{call} returned non-finite values {bad[:3]}"

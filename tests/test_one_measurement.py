"""One measurement and a stack of them give the same bits.

``measure`` and both compressive estimators read the m values of one
measurement (a 1-D ``x``, or 1-D ``Measurement.values``) as Python
numbers, and those of a (B, m) stack as arrays. Each row of a stack
must equal that pair given alone: the same measured bits, the same
scores, shift and flags, or a refusal of the same type and message.

The seeded cases take n up to 512 (each bin's n phases) and beyond
(the two phase factors), stacks of 3 and 20 rows, and rows with dead
bins, bins live at 5e-11 of the peak, peaks 2**-450 and 2**-600
(argmax lifts them, and refuses the second on underflow), norms and
entries that overflow, NaN and infinite samples, and given values whose
magnitudes or products overflow.
"""

import numpy as np
import pytest

from cycshift import Measurement, SensingSet, measure, shift_by_compressive_argmax, shift_by_compressive_ratio

ESTIMATORS = (shift_by_compressive_argmax, shift_by_compressive_ratio)


def outcome(call, *args):
    """The result of ``call(*args)``, or the type and message of the ValueError it raised."""
    try:
        return call(*args)
    except ValueError as err:
        return type(err), str(err)


def refused(result) -> bool:
    return isinstance(result, tuple)


def assert_stack_refuses_as_a_row(stacked, rows):
    # A stack refuses when one of its rows does, naming what that row's
    # call names; a stack's score message prints its array of scores.
    reasons = {r for r in rows if refused(r)}
    assert refused(stacked) and reasons
    kind, message = stacked
    if " the score is [" in message:
        prefix = message.split("[")[0]
        assert any(k is kind and m.startswith(prefix) for k, m in reasons), (stacked, reasons)
    else:
        assert stacked in reasons


def row_signal(rng, kind: str, n: int, indices) -> np.ndarray:
    t = np.arange(n)
    if kind == "periodic":  # bins off the multiples of d are dead
        d = max(k for k in range(1, 9) if n % k == 0)
        return np.tile(rng.standard_normal(n // d), d)
    if kind == "weak":  # one sensed bin carries the row, another is live at 5e-11 of it
        k0, k1 = rng.choice(indices, size=2, replace=False) if len(indices) > 1 else indices * 2
        return (np.cos(2 * np.pi * (k0 * t / n + rng.random()))
                + 5e-11 * np.cos(2 * np.pi * (k1 * t / n + rng.random())))
    x = rng.standard_normal(n)
    if kind.startswith("tiny"):  # 2**-450 is lifted; at 2**-600 argmax's scores underflow
        return x * 2.0 ** -int(kind[4:])
    if kind == "near-range":  # the norm overflows
        return 0.8e308 * np.sign(x)
    if kind == "entry-overflow":  # the norm is finite, the sum that gives a sensed bin's entry is not
        return 0.8e308 / np.sqrt(n) * np.cos(2 * np.pi * rng.choice(indices) * t / n)
    if kind in ("nan", "inf"):
        x[rng.integers(n)] = np.nan if kind == "nan" else -np.inf
    return x * 10.0 ** rng.choice([-12, 0, 12])


def sensing_case(rng, large: bool):
    n = int(rng.integers(513, 2049) if large else rng.integers(2, 513))
    m = int(rng.integers(1, min(6, n) + 1))
    return n, SensingSet(n, tuple(sorted(rng.choice(n, size=m, replace=False).tolist())))


@pytest.mark.parametrize("rows", [3, 20])
@pytest.mark.parametrize("large", [False, True], ids=["n<=512", "n>512"])
@pytest.mark.parametrize("seed", range(8))
def test_each_row_of_a_measured_stack_and_its_estimates_equal_that_pair_alone(seed, large, rows):
    rng = np.random.default_rng([seed, rows, large])
    n, sensing = sensing_case(rng, large)
    # A third of the rows have dead, weak or lifted bins; every fourth
    # case has a row that argmax cannot lift, and every other one a row
    # that measure refuses, so that the others reach the estimators.
    kinds = ["gauss"] * rows
    for row in rng.choice(rows, size=max(1, rows // 3), replace=False):
        kinds[row] = rng.choice(["periodic", "weak", "tiny450"])
    if seed % 4 == 2:
        kinds[int(rng.integers(rows))] = "tiny600"
    if seed % 2:
        kinds[int(rng.integers(rows))] = ("near-range", "nan", "inf", "entry-overflow")[seed // 2]
    x = np.stack([row_signal(rng, kind, n, sensing.indices) for kind in kinds])
    y = np.stack([np.roll(row, s) for row, s in zip(x, rng.integers(n, size=rows))])
    for row in range(0, rows, 2):
        if kinds[row] == "gauss":
            y[row] += 1e-3 * np.abs(x[row]).max() * rng.standard_normal(n)

    measured = {}
    for name, signals in (("v", x), ("z", y)):
        alone = [outcome(measure, row, sensing) for row in signals]
        stacked = outcome(measure, signals, sensing)
        if any(map(refused, alone)):
            assert seed % 2
            assert_stack_refuses_as_a_row(stacked, alone)
            return
        assert not refused(stacked)
        for b, meas in enumerate(alone):
            assert stacked.values[b].tobytes() == meas.values.tobytes()
        measured[name] = stacked, alone
    check_estimates(*measured["z"], *measured["v"])


def check_estimates(z, z_rows, v, v_rows):
    for estimator in ESTIMATORS:
        alone = [outcome(estimator, zb, vb) for zb, vb in zip(z_rows, v_rows)]
        stacked = outcome(estimator, z, v)
        if any(map(refused, alone)):
            assert_stack_refuses_as_a_row(stacked, alone)
            continue
        assert not refused(stacked)
        for b, est in enumerate(alone):
            assert (stacked.shift[b], stacked.flags[b]) == (est.shift, est.flags)
            assert stacked.score[b].tobytes() == np.float64(est.score).tobytes()
            assert stacked.scores[b].tobytes() == est.scores.tobytes()


def value_row(rng, kind: str, m: int) -> np.ndarray:
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if kind == "dead" and m > 1:
        v[rng.choice(m, size=m - 1, replace=False)] = 0
    elif kind == "weak" and m > 1:
        v[rng.integers(m)] = 5e-11 * np.abs(v).max()
    elif kind == "zero":
        v[:] = 0
    elif kind == "tiny":
        v *= 2.0**-600
    elif kind == "products-overflow":
        v[0] = 1e308 + 1e308j
    elif kind == "magnitude-overflows":
        v[0] = 1.5e308 + 1.5e308j
    return v


VALUE_KINDS = ("gauss", "dead", "weak", "zero", "tiny", "products-overflow", "magnitude-overflows")


@pytest.mark.parametrize("rows", [3, 20])
@pytest.mark.parametrize("large", [False, True], ids=["n<=512", "n>512"])
@pytest.mark.parametrize("kind", VALUE_KINDS[1:])
def test_each_row_of_a_given_stack_is_estimated_as_that_pair_alone(kind, large, rows):
    # Measurement values given as they are reach the estimators' own
    # refusals: overflowed magnitudes, overflowed products, all-zero rows.
    rng = np.random.default_rng([VALUE_KINDS.index(kind), rows, large])
    n, sensing = sensing_case(rng, large)
    kinds = ["gauss"] * rows
    odd = int(rng.integers(rows))
    kinds[odd] = kind
    v = np.stack([value_row(rng, k, sensing.m) for k in kinds])
    delays = rng.integers(n, size=rows)
    with np.errstate(over="ignore", invalid="ignore"):  # the odd row is replaced below
        z = v * np.exp(-2j * np.pi * (np.outer(delays, sensing.indices) % n) / n)
    z[odd] = np.conj(v[odd])  # its own conjugate: no product of phases that could overflow
    for row in range(0, rows, 2):
        if kinds[row] == "gauss":
            z[row] += 1e-6 * np.abs(v[row]).max() * rng.standard_normal(sensing.m)
    stack_z, stack_v = Measurement(z, sensing), Measurement(v, sensing)
    check_estimates(stack_z, [Measurement(row, sensing) for row in z],
                    stack_v, [Measurement(row, sensing) for row in v])

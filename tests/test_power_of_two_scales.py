"""Power-of-two input scales on both sides of the band edge give the unit-scale result bit for bit.

Rows peaking outside 2**±BAND are scaled by a power of two before any
transform or product, and the result is scaled back; both scales are
exact while the values stay normal floats. So x * 2**ex and y * 2**ey
give the unit-scale shift and flags, and the scores (or the product)
of the unit-scale call times 2**(ex + ey), to the last bit, whether
each input lies inside the band (ex = 0, -399) or below it. Scores
that scale back to nothing at all are refused, aligned pair or not.
"""

import itertools

import numpy as np
import pytest

from cycshift import Circulant, SensingSet, measure, shift_by_compressive_argmax, shift_by_crosscorr

X = np.random.default_rng(21).standard_normal(8)
Y = np.roll(X, 3) + 0.1 * np.random.default_rng(22).standard_normal(8)
K = SensingSet(8, (1, 2, 3))


def _crosscorr(x, y):
    est = shift_by_crosscorr(x, y)
    return est.scores, (est.shift, est.flags)


def _compressive_argmax(x, y):
    est = shift_by_compressive_argmax(measure(y, K), measure(x, K))
    return est.scores, (est.shift, est.flags)


def _apply(x, y):
    return Circulant(x).apply(y), None


EXPONENTS = (0, -399, -401, -450, -520)
# Every pair, together and apart, but -520 with -520: those scores are subnormal.
PAIRS = [(ex, ey) for ex, ey in itertools.product(EXPONENTS, repeat=2) if ex + ey > -1000]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [_crosscorr, _compressive_argmax, _apply],
                         ids=["crosscorr", "compressive_argmax", "apply"])
@pytest.mark.parametrize("ex, ey", PAIRS)
def test_power_of_two_scales_give_the_unit_scale_result_bit_for_bit(call, ex, ey):
    unit_scores, unit_answer = call(X, Y)
    expected = np.ldexp(unit_scores, ex + ey)
    # The case tests exactness only if the scaled scores are normal floats.
    assert (np.abs(expected[expected != 0]) >= np.finfo(np.float64).tiny).all()
    scores, answer = call(np.ldexp(X, ex), np.ldexp(Y, ey))
    assert answer == unit_answer
    assert scores.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [_crosscorr, _compressive_argmax], ids=["crosscorr", "compressive_argmax"])
@pytest.mark.parametrize("delay", [0, 3])
def test_scores_that_all_underflow_are_refused_whatever_the_argmax(call, delay):
    # At 2**-600 each, a pair's scores scale back to 2**-1200 and vanish.
    # Aligned, the argmax of the zeros stays at 0; the call refuses anyway.
    x = np.ldexp(X, -600)
    with pytest.raises(ValueError, match="the scores underflow"):
        call(x, np.roll(x, delay))

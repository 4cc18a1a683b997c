"""Extreme magnitudes: the answer for unit-scale data, or a refusal that names the cause.

Fourier diagonalisation and the least-squares circulant fit are scale
covariant, so c * x and c * y carry the shift of x and y at any c. Near
the ends of the float64 range an answer either comes out right or the
call raises ValueError naming the overflow or the underflow (CLI exit
1); an overflowed magnitude is never read as zero and an underflowed
score never picks a shift.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cycshift import (
    Circulant,
    IdentifiabilityError,
    SensingSet,
    check_sensing_conditions,
    circulant,
    ls_circulant_fit,
    measure,
    retrieval,
    shift_affine,
    shift_by_compressive_argmax,
    shift_by_compressive_ratio,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)
from cycshift.cli import main
from cycshift.fileio import save_signal

X = np.random.default_rng(5).standard_normal((8, 2))
# Finite samples whose spectral magnitudes and norm exceed the float64 range.
TOP = 1e308 * np.array([1, -0.5, 0.8, 0.9, 0.2, 0.3, -0.7, 0.1])
K = SensingSet(8, (1, 3))


def _shift_column(s, n=8):
    return np.eye(n)[s]


# ---------------------------------------------------------------------------
# ls_circulant_fit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("X, Y, c", [
    *((c * X, c * np.roll(X, 3, axis=0), c) for c in (1e-300, 1e-200, 1e300)),
    (TOP, np.roll(TOP, 3), 1e308),
], ids=["1e-300", "1e-200", "1e300", "1e308 signal"])
def test_fit_recovers_the_planted_shift_at_extreme_scales(X, Y, c):
    fit, residual = ls_circulant_fit(X, Y)
    assert_allclose(fit.first_column, _shift_column(3), atol=1e-12)
    # ||Y||_F taken at unit scale: at 1e308 it exceeds the float64 range.
    assert residual <= 1e-12 * c * np.linalg.norm(Y / c)


def _planted():
    rng = np.random.default_rng(9)
    Y = np.stack([np.roll(X[:, j], 2) for j in range(2)], 1) + 0.1 * rng.standard_normal((8, 2))
    return X, Y


# Exponents inside the unscaled band (|e| <= 400), at its edges and beyond.
@pytest.mark.parametrize("ex, ey", [(e, e) for e in (-1000, -401, -400, 400, 401, 1000)]
                         + [(-300, 300), (300, -300), (-600, 0), (0, 600)])
def test_power_of_two_scales_give_the_unit_scale_fit_bit_for_bit(ex, ey):
    X0, Y0 = _planted()
    fit0, residual0 = ls_circulant_fit(X0, Y0)
    fit, residual = ls_circulant_fit(np.ldexp(X0, ex), np.ldexp(Y0, ey))
    assert np.array_equal(fit.first_column, np.ldexp(fit0.first_column, ey - ex))
    assert residual == np.ldexp(residual0, ey)


def test_fit_runs_its_spectral_core_once_per_call(monkeypatch):
    calls = []
    core = circulant._fit

    def counted(X, Y):
        calls.append(1)
        return core(X, Y)

    monkeypatch.setattr(circulant, "_fit", counted)
    for c in (1.0, 1e-300, 1e300):
        ls_circulant_fit(c * X, c * np.roll(X, 1, axis=0))
    ls_circulant_fit(TOP, np.roll(TOP, 1))
    assert len(calls) == 4


def test_a_fit_whose_column_overflows_is_refused():
    with pytest.raises(ValueError, match="^ls_circulant_fit: the fit is not finite"):
        ls_circulant_fit(1e-300 * X, 1e300 * np.roll(X, 1, axis=0))


# ---------------------------------------------------------------------------
# Overflow: refused, never read as zero
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda: measure(TOP, K),
    lambda: check_sensing_conditions(TOP, K),
    lambda: shift_by_ratio(TOP, np.roll(TOP, 3)),
    lambda: shift_single_bin(TOP, np.roll(TOP, 3)),
    lambda: shift_single_bin(TOP, np.roll(TOP, 3), 1),
    lambda: shift_affine(TOP, np.roll(TOP, 3)),
    # Finite samples whose spectral ratio, and so the fit, exceed the float64 range.
    lambda: shift_affine(1e-300 * (X[:, 0] + 2), 1e300 * np.roll(X[:, 0] + 2, 3)),
], ids=["measure", "check_sensing_conditions", "ratio", "single_bin", "single_bin i=1", "affine",
        "affine fit"])
def test_an_overflowed_magnitude_is_refused_by_name(call):
    with pytest.raises(ValueError, match="overflow"):
        call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("i", [1, None], ids=["bin 1", "automatic bin"])
@pytest.mark.parametrize("n", [64, 1024])
def test_single_bin_refuses_an_overflowed_bin_of_y_by_name(n, i):
    # x and its norm are unit scale; Y[i] sums n samples of +-1.7e308 and
    # overflows, so the phase of rho is NaN and must not reach a shift.
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), 1.7e308 * np.sign(rng.standard_normal(n))
    with pytest.raises(ValueError, match=r"^single_bin: the score is \S+ \(the inputs overflow\)$"):
        shift_single_bin(x, y, i)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_crosscorr_and_apply_keep_their_overflow_messages():
    with pytest.raises(ValueError, match=r"^crosscorr: the score is nan \(the inputs overflow\)$"):
        shift_by_crosscorr(TOP, np.roll(TOP, 3))
    with pytest.raises(ValueError, match="^Circulant.apply: the product is not finite$"):
        Circulant(TOP).apply(TOP)


# A numpy warning would print to stderr ahead of cycshift's own line; as
# an error it escapes main() and fails the test.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["retrieve", "X", "Y", "--method", "ratio"],
    ["retrieve", "X", "Y", "--method", "single_bin"],
    ["retrieve", "X", "Y", "--method", "compressive_ratio", "--sensing", "1,3"],
    ["retrieve", "X", "Y", "--method", "compressive_argmax", "--sensing", "1,3"],
    ["check-sensing", "X", "--sensing", "1,3"],
])
def test_cli_exits_1_with_one_line_on_an_overflowed_signal(tmp_path, capsys, argv):
    paths = {"X": tmp_path / "x.csv", "Y": tmp_path / "y.csv"}
    save_signal(paths["X"], TOP)
    save_signal(paths["Y"], np.roll(TOP, 3))
    code = main([str(paths.get(arg, arg)) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("cycshift: error: ") and "overflow" in err


# ---------------------------------------------------------------------------
# Underflow: the planted shift, or a refusal
# ---------------------------------------------------------------------------

SIGNAL = np.random.default_rng(3).standard_normal(8)


def _crosscorr(c):
    return shift_by_crosscorr(c * SIGNAL, c * np.roll(SIGNAL, 3))


def _compressive_argmax(c):
    return shift_by_compressive_argmax(measure(c * np.roll(SIGNAL, 3), K), measure(c * SIGNAL, K))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("estimate", [_crosscorr, _compressive_argmax])
def test_tiny_inputs_give_the_planted_shift_or_a_refusal_naming_the_underflow(estimate):
    answered = []
    for k in range(500, 1001):
        try:
            est = estimate(2.0 ** -k)
        except ValueError as exc:
            assert "underflow" in str(exc), (k, exc)
            continue
        assert est.shift == 3 and est.flags == (), k
        assert int(np.argmax(est.scores)) % 8 == 3, k
        answered.append(k)
    # The scores of c = 2^-530 are still distinct subnormal floats.
    assert set(range(500, 531)) <= set(answered)


def test_a_stacked_tiny_row_equals_its_one_pair_call():
    c = 2.0 ** -520
    x, y = np.stack([SIGNAL, c * SIGNAL]), np.stack([np.roll(SIGNAL, 3), c * np.roll(SIGNAL, 3)])
    stacked = shift_by_crosscorr(x, y)
    for b in range(2):
        alone = shift_by_crosscorr(x[b], y[b])
        assert (stacked.shift[b], stacked.score[b]) == (alone.shift, alone.score)
        assert np.array_equal(stacked.scores[b], alone.scores)


def test_a_unit_row_beside_a_tiny_row_gets_its_one_row_norm_measurement_and_estimate():
    # The tiny row's sum of squares underflows, so its norm divides it by
    # its peak first; the unit row takes the plain sum, as it does alone.
    rng = np.random.default_rng(17)
    sensing = SensingSet(64, (1, 3, 5))
    for _ in range(40):
        x = np.stack([rng.standard_normal(64), 2.0 ** -600 * rng.standard_normal(64)])
        y = np.roll(x, 5, axis=1)
        norms, stacked = retrieval._norm(x), shift_single_bin(x, y, 3)
        measured = measure(x, sensing).values
        for b in range(2):
            assert norms[b].tobytes() == np.float64(retrieval._norm(x[b])).tobytes()
            assert measured[b].tobytes() == measure(x[b], sensing).values.tobytes()
            alone = shift_single_bin(x[b], y[b], 3)
            assert (stacked.shift[b], stacked.flags[b]) == (alone.shift, alone.flags) == (5, ())
            assert stacked.score[b].tobytes() == np.float64(alone.score).tobytes()


@pytest.mark.parametrize("c", [1.0, 2.0 ** -540])
def test_a_truly_zero_correlation_is_not_an_underflow(c):
    est = shift_by_crosscorr([c, -c], [c, c])
    assert (est.shift, est.score) == (0, 0.0)


def test_retrieve_exits_1_naming_the_underflow(tmp_path, capsys):
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_signal(x_path, 2.0 ** -600 * SIGNAL)
    save_signal(y_path, 2.0 ** -600 * np.roll(SIGNAL, 3))
    code = main(["retrieve", str(x_path), str(y_path), "--method", "crosscorr"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "cycshift: error: crosscorr: the scores underflow (the inputs are too small)\n"
    code = main(["retrieve", str(x_path), str(y_path), "--method", "ratio"])
    assert code == 0 and json.loads(capsys.readouterr().out)["shift"] == 3


@pytest.mark.parametrize("k", [0, 600, 1000])
def test_dead_bins_stay_dead_when_the_norm_would_underflow(k):
    # Bins 1 and 3 of [1, 0, 1, 0] are zero. Below ~1e-154 the sum of
    # squares underflows; a norm read as 0 would make their rounding
    # residue live and give a shift with no flag.
    x = 2.0 ** -k * np.array([1.0, 0.0, 1.0, 0.0])
    K2 = SensingSet(4, (1, 3))
    assert not measure(x, K2).values.any()
    with pytest.raises(IdentifiabilityError, match="every reference measurement bin is zero"):
        shift_by_compressive_ratio(measure(np.roll(x, 1), K2), measure(x, K2))
    with pytest.raises(IdentifiabilityError, match="bin 1 of the reference spectrum is numerically zero"):
        shift_single_bin(x, np.roll(x, 1), 1)

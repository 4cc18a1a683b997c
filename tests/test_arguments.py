"""Array and index arguments: one rule each, refused by name, never cast.

Every entry point that takes a real array refuses complex values (an
ndarray or a list), values that are not numbers (strings, None,
objects), NaN and infinities; every index argument refuses a float, even
a whole one, and a string; every sequence argument refuses a number,
None and a string; both refuse a ragged nested sequence. Each refusal is
a ValueError whose message names the argument. Python ints and numpy
integers pass.
"""

import os
import re

import numpy as np
import pytest

from cycshift import (
    Circulant,
    SensingSet,
    ShiftEstimate,
    check_sensing_conditions,
    dft_entry,
    embed,
    fourier_column,
    ls_circulant_fit,
    make_shift,
    measure,
    shift_affine,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)
from cycshift.bench import ExperimentConfig
from cycshift.fileio import save_measurement, save_signal

X = np.random.default_rng(0).standard_normal(8)
MAT = np.random.default_rng(1).standard_normal((8, 3))
K = SensingSet(8, (1, 3))

# Entry point -> (call with the bad argument, a valid value of it, the argument's name).
ARRAY_SITES = {
    "crosscorr x": (lambda a: shift_by_crosscorr(a, X), X, "x"),
    "crosscorr y": (lambda a: shift_by_crosscorr(X, a), X, "y"),
    "ratio x": (lambda a: shift_by_ratio(a, X), X, "x"),
    "single_bin y": (lambda a: shift_single_bin(X, a), X, "y"),
    "affine x": (lambda a: shift_affine(a, X), X, "x"),
    "measure": (lambda a: measure(a, K), X, "x"),
    "check_sensing_conditions": (lambda a: check_sensing_conditions(a, K), X, "x"),
    "Circulant": (Circulant, X, "first_column"),
    "Circulant.apply": (lambda a: Circulant(X).apply(a), X, "x"),
    "ls_circulant_fit X": (lambda a: ls_circulant_fit(a, MAT), MAT, "X"),
    "ls_circulant_fit Y": (lambda a: ls_circulant_fit(MAT, a), MAT, "Y"),
    "save_signal": (lambda a: save_signal(os.devnull, a), X, "values"),
    "ShiftEstimate": (lambda a: ShiftEstimate("crosscorr", 8, 0, 1.0, a), X.copy(), "scores"),
}


def _poisoned(good: np.ndarray, value: float) -> np.ndarray:
    bad = good.copy()
    bad.flat[3] = value
    return bad


BAD_ARRAYS = {
    "complex ndarray": lambda good: good + 0j,
    "complex list": lambda good: (good + 0j).tolist(),
    "nan": lambda good: _poisoned(good, np.nan),
    "inf": lambda good: _poisoned(good, np.inf),
    "strings": lambda good: good.astype(str),
    "object complex": lambda good: _poisoned(good.astype(object), 1 + 1j),
    "None": lambda good: None,
    "ragged": lambda good: [good.tolist(), [1.0]],
}
# Only booleans, integers and real floats are numbers.
NOT_NUMBERS = ("strings", "object complex", "None")

# Index argument -> (call with the index, the argument's name); 3 is valid for each.
INDEX_SITES = {
    "shift_single_bin i": (lambda v: shift_single_bin(X, X, v), "i"),
    "SensingSet n": (lambda v: SensingSet(v, (1,)), "n"),
    "SensingSet indices": (lambda v: SensingSet(8, (1, v)), "indices"),
    "make_shift n": (lambda v: make_shift(v, 1), "n"),
    "make_shift s": (lambda v: make_shift(8, v), "s"),
    "fourier_column n": (lambda v: fourier_column(v, 1), "n"),
    "fourier_column q": (lambda v: fourier_column(8, v), "q"),
    "dft_entry k": (lambda v: dft_entry(X, v), "k"),
}


# Case -> (call, bad value, the argument's name): every array site with
# every bad array, every index site with every bad index.
# scores=None is an estimate without scores, not a bad array.
CASES = {f"{site}-{bad}": (call, make(good), name)
         for site, (call, good, name) in ARRAY_SITES.items() for bad, make in BAD_ARRAYS.items()
         if (site, bad) != ("ShiftEstimate", "None")}
CASES.update({f"{site}-{bad!r}": (call, bad, name)
              for site, (call, name) in INDEX_SITES.items()
              for bad in (1.5, 2.0, np.float64(2.0), "3")})


def _names(name: str) -> str:
    return rf"(^|\W){re.escape(name)}\b"


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("case", CASES)
def test_array_and_index_arguments_are_refused_by_name(case):
    call, bad, name = CASES[case]
    with pytest.raises(ValueError, match=_names(name)):
        call(bad)


@pytest.mark.parametrize("case", [case for case in CASES if case.endswith(NOT_NUMBERS)])
def test_values_that_are_not_numbers_are_refused_as_such(case):
    # Not read as text, not cast to float, not reported as NaN.
    call, bad, name = CASES[case]
    with pytest.raises(ValueError, match=_names(name) + " must be real, got "):
        call(bad)


def _config(**fields):
    return ExperimentConfig(**{"n": 8, "trials": 2, "seed": 0, "snr_db_grid": (0.0,), **fields})


# Sequence argument -> (call with a malformed value, the field's name).
SEQUENCE_CASES = {
    "SensingSet int": (lambda: SensingSet(8, 3), "sensing indices"),
    "SensingSet None": (lambda: SensingSet(8, None), "sensing indices"),
    "SensingSet ragged": (lambda: SensingSet(8, [[1], [1, 2]]), "sensing indices"),
    "snr_db_grid of strings": (lambda: _config(snr_db_grid=("inf",)), "snr_db_grid"),
    "snr_db_grid float": (lambda: _config(snr_db_grid=5.0), "snr_db_grid"),
    "methods string": (lambda: _config(methods="crosscorr"), "methods"),
}


@pytest.mark.parametrize("case", SEQUENCE_CASES)
def test_malformed_sequence_arguments_are_refused_by_name(case):
    call, name = SEQUENCE_CASES[case]
    with pytest.raises(ValueError, match=_names(name) + " must be "):
        call()


def test_sequence_arguments_take_lists_tuples_ranges_and_arrays():
    assert SensingSet(8, np.array([1, 3])).indices == SensingSet(8, [1, 3]).indices == (1, 3)
    _config(snr_db_grid=[np.inf, 0], methods=["ratio"], sensing=range(1, 3))


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_array_sites_take_the_valid_value(site):
    call, good, _ = ARRAY_SITES[site]
    call(good)
    call(good.tolist())


@pytest.mark.parametrize("site", INDEX_SITES)
def test_index_arguments_take_python_and_numpy_integers_alike(site):
    call, _ = INDEX_SITES[site]
    a, b = call(3), call(np.int64(3))
    if isinstance(a, ShiftEstimate):
        assert (a.shift, a.score, a.flags) == (b.shift, b.score, b.flags)
    elif isinstance(a, Circulant):
        assert np.array_equal(a.first_column, b.first_column)
    else:
        assert np.array_equal(np.asarray(getattr(a, "indices", a)),
                              np.asarray(getattr(b, "indices", b)))


@pytest.mark.parametrize("site", INDEX_SITES)
def test_index_arguments_out_of_range_name_the_argument(site):
    call, name = INDEX_SITES[site]
    with pytest.raises(ValueError, match=_names(name) + r".* must be (in|>=) "):
        call(-1)


def test_a_stack_of_bins_is_checked_bin_by_bin():
    stack = np.stack([X, X[::-1]])
    assert np.array_equal(dft_entry(stack, [1, 3]),
                          [dft_entry(X, 1), dft_entry(X[::-1], 3)])
    for bad in ([1, 2.0], np.array([1.0, 3.0]), [1, 8]):
        with pytest.raises(ValueError, match=_names("k")):
            dft_entry(stack, bad)


STACK = np.stack([X, X[::-1]])
# One-row entry point -> (call with a (2, n) stack, the argument's name).
ONE_ROW_SITES = {
    "check_sensing_conditions": (lambda: check_sensing_conditions(STACK, K), "x"),
    "embed": (lambda: embed(measure(STACK, K).values, K), "values"),
    "save_measurement": (lambda: save_measurement(os.devnull, measure(STACK, K)), "meas"),
}


@pytest.mark.parametrize("site", ONE_ROW_SITES)
def test_one_row_entry_points_refuse_a_stack_by_name(site):
    call, name = ONE_ROW_SITES[site]
    with pytest.raises(ValueError, match=_names(name)):
        call()

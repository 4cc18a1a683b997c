"""Array and index arguments: one rule each, refused by name, never cast.

Every entry point that takes a real array refuses complex values (an
ndarray or a list), NaN and infinities; every index argument refuses a
float, even a whole one, and a string. Each refusal is a ValueError
whose message names the argument. Python ints and numpy integers pass.
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
    fourier_column,
    ls_circulant_fit,
    make_shift,
    measure,
    shift_affine,
    shift_by_crosscorr,
    shift_by_ratio,
    shift_single_bin,
)
from cycshift.fileio import save_signal
from cycshift.spectral import rdft

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
    "rdft": (rdft, X, "x"),
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
}

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
CASES = {f"{site}-{bad}": (call, make(good), name)
         for site, (call, good, name) in ARRAY_SITES.items() for bad, make in BAD_ARRAYS.items()}
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

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cycshift import Measurement, SensingSet, measure
from cycshift.cli import main
from cycshift import fileio, spectral
from cycshift.fileio import load_signal, save_measurement, save_signal

GOLDEN = Path(__file__).with_name("golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, "gen", "--n", "8", "--seed", "42", "--kind", "gaussian",
                   "--out", str(a))[0] == 0
    assert run_cli(capsys, "gen", "--n", "8", "--seed", "42", "--kind", "gaussian",
                   "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_impulse_train_fixture(tmp_path, capsys):
    out = tmp_path / "train.csv"
    assert run_cli(capsys, "gen", "--n", "6", "--kind", "impulse-train",
                   "--out", str(out))[0] == 0
    assert_allclose(load_signal(out), [1, 0, 0, 1, 0, 0])


def test_gen_uniform_kind(tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert run_cli(capsys, "gen", "--n", "32", "--seed", "9", "--kind", "uniform",
                   "--out", str(out))[0] == 0
    values = load_signal(out)
    assert values.size == 32
    assert np.abs(values).max() <= 1.0


def test_gen_then_retrieve_round_trip(tmp_path, capsys):
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    run_cli(capsys, "gen", "--n", "16", "--seed", "3", "--out", str(x_path))
    x = load_signal(x_path)
    save_signal(y_path, np.roll(x, 5))
    for method in ("crosscorr", "ratio", "single_bin"):
        code, out, _ = run_cli(capsys, "retrieve", str(x_path), str(y_path),
                               "--method", method)
        assert code == 0
        assert json.loads(out)["shift"] == 5


@pytest.mark.parametrize("flag, value", [("--n", "-5"), ("--n", "0"), ("--seed", "-1")])
def test_gen_out_of_range_exits_1_naming_the_flag(tmp_path, capsys, flag, value):
    out_path = tmp_path / "x.csv"
    flags = {"--n": "4", "--seed": "4", flag: value}
    code, out, err = run_cli(capsys, "gen", *[t for kv in flags.items() for t in kv],
                             "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err == f"cycshift: error: {flag} must be >= {1 if flag == '--n' else 0}, got {value}\n"
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------

def make_pair(tmp_path, n=12, s=4, seed=0):
    x = np.random.default_rng(seed).standard_normal(n)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_signal(x_path, x)
    save_signal(y_path, np.roll(x, s))
    return x, x_path, y_path


def test_retrieve_json_schema(tmp_path, capsys):
    _, x_path, y_path = make_pair(tmp_path)
    code, out, _ = run_cli(capsys, "retrieve", str(x_path), str(y_path), "--method", "ratio")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"method", "n", "shift", "score", "flags", "elapsed_microseconds"}
    assert report["method"] == "ratio"
    assert report["n"] == 12
    assert report["shift"] == 4
    assert report["flags"] == []
    assert isinstance(report["elapsed_microseconds"], int)


def test_retrieve_single_bin_with_explicit_bin(tmp_path, capsys):
    _, x_path, y_path = make_pair(tmp_path, n=12, s=7)
    code, out, _ = run_cli(capsys, "retrieve", str(x_path), str(y_path),
                           "--method", "single_bin", "--bin", "5")
    assert code == 0
    assert json.loads(out)["shift"] == 7


@pytest.mark.parametrize("method", ["crosscorr", "ratio", "compressive_ratio"])
def test_retrieve_bin_with_another_method_exits_1_naming_the_flag(tmp_path, capsys, method):
    _, x_path, y_path = make_pair(tmp_path, n=12, s=7)
    code, out, err = run_cli(capsys, "retrieve", str(x_path), str(y_path),
                             "--method", method, "--bin", "5", "--sensing", "1,5")
    assert code == 1
    assert out == ""
    assert "--bin" in err


# Numeric flags are read by fileio like all input text: a value that is
# not an integer exits 1 naming the flag (bench flags go by their config
# keys), not with argparse's usage text.
@pytest.mark.parametrize("argv, name", [
    (["gen", "--n", "1.7", "--out", "OUT"], "--n"),
    (["gen", "--n", "4", "--seed", "x", "--out", "OUT"], "--seed"),
    (["bench", "--n", "8.0", "--trials", "2", "--snr-db", "inf"], "n"),
    (["bench", "--n", "8", "--trials", "2.5", "--snr-db", "inf"], "trials"),
    (["bench", "--n", "8", "--trials", "2", "--seed", "1e3", "--snr-db", "inf"], "seed"),
    (["retrieve", "X", "Y", "--method", "single_bin", "--bin", "1.5"], "--bin"),
])
def test_numeric_flags_that_are_not_integers_exit_1_naming_the_flag(tmp_path, capsys, argv, name):
    _, x_path, y_path = make_pair(tmp_path)
    paths = {"OUT": str(tmp_path / "out.csv"), "X": str(x_path), "Y": str(y_path)}
    code, out, err = run_cli(capsys, *[paths.get(arg, arg) for arg in argv])
    assert code == 1
    assert out == ""
    assert err.startswith(f"cycshift: error: {name}: cannot read ")
    assert not (tmp_path / "out.csv").exists()


def test_retrieve_sensing_other_than_the_measurement_files_k_exits_1(tmp_path, capsys):
    x = np.random.default_rng(8).standard_normal(8)
    K = SensingSet(8, (1, 3))
    v_path, z_path = tmp_path / "v.csv", tmp_path / "z.csv"
    save_measurement(v_path, measure(x, K))
    save_measurement(z_path, measure(np.roll(x, 3), K))
    paths = (str(v_path), str(z_path), "--method", "compressive_ratio", "--sensing")
    code, out, err = run_cli(capsys, "retrieve", *paths, "5,7")
    assert code == 1
    assert out == ""
    assert "--sensing 5,7" in err and "(1, 3)" in err
    code, out, _ = run_cli(capsys, "retrieve", *paths, "1,3")
    assert code == 0
    assert json.loads(out)["shift"] == 3


@pytest.mark.parametrize("method", ["crosscorr", "ratio", "single_bin"])
@pytest.mark.parametrize("sensing", ["1,3", "5,7", "1,x", ""])
def test_retrieve_refuses_sensing_for_a_full_signal_method(tmp_path, capsys, method, sensing):
    # A sensing set means nothing to a method that reads the whole
    # signal; it is refused by name, malformed or not.
    _, x_path, y_path = make_pair(tmp_path, n=8, s=3)
    code, out, err = run_cli(capsys, "retrieve", str(x_path), str(y_path),
                             "--method", method, "--sensing", sensing)
    assert (code, out) == (1, "")
    assert err == f"cycshift: error: --sensing applies to compressive methods only, not {method!r}\n"
    code, out, _ = run_cli(capsys, "retrieve", str(x_path), str(y_path), "--method", method)
    assert code == 0 and json.loads(out)["shift"] == 3


def test_retrieve_constant_signal_exits_2_naming_condition(tmp_path, capsys):
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_signal(x_path, np.ones(8))
    save_signal(y_path, np.ones(8))
    code, out, _ = run_cli(capsys, "retrieve", str(x_path), str(y_path),
                           "--method", "single_bin")
    assert code == 2
    assert "gcd" in json.loads(out)["error"]


def test_retrieve_compressive_with_sensing_flag(tmp_path, capsys):
    _, x_path, y_path = make_pair(tmp_path, n=12, s=9)
    for method in ("compressive_argmax", "compressive_ratio"):
        code, out, _ = run_cli(capsys, "retrieve", str(x_path), str(y_path),
                               "--method", method, "--sensing", "1,5")
        assert code == 0
        assert json.loads(out)["shift"] == 9


def test_retrieve_ambiguous_sensing_flags_and_exits_2(tmp_path, capsys):
    _, x_path, y_path = make_pair(tmp_path, n=8, s=3, seed=5)
    code, out, _ = run_cli(capsys, "retrieve", str(x_path), str(y_path),
                           "--method", "compressive_ratio", "--sensing", "4")
    assert code == 2
    report = json.loads(out)
    assert "ambiguous" in report["flags"]


def test_retrieve_measurement_files(tmp_path, capsys):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(10)
    K = SensingSet(10, (1, 3))
    v_path, z_path = tmp_path / "v.csv", tmp_path / "z.csv"
    save_measurement(v_path, measure(x, K))
    save_measurement(z_path, measure(np.roll(x, 6), K))
    code, out, _ = run_cli(capsys, "retrieve", str(v_path), str(z_path),
                           "--method", "compressive_ratio")
    assert code == 0
    assert json.loads(out)["shift"] == 6


def test_retrieve_measurement_files_need_compressive_method(tmp_path, capsys):
    x = np.random.default_rng(9).standard_normal(8)
    K = SensingSet(8, (1,))
    v_path = tmp_path / "v.csv"
    save_measurement(v_path, measure(x, K))
    code, _, err = run_cli(capsys, "retrieve", str(v_path), str(v_path),
                           "--method", "crosscorr")
    assert code == 1
    assert "compressive" in err


def test_retrieve_parse_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnot-a-number\n")
    good = tmp_path / "good.csv"
    save_signal(good, np.ones(2))
    code, _, err = run_cli(capsys, "retrieve", str(bad), str(good))
    assert code == 1
    assert err


@pytest.mark.parametrize("method", ["crosscorr", "ratio", "single_bin", "compressive_ratio"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_retrieve_non_finite_signal_exits_1(tmp_path, capsys, method, bad):
    x = tmp_path / "x.csv"
    save_signal(x, np.arange(1.0, 9.0))
    y = tmp_path / "y.csv"
    y.write_text(f"# n=8\n1.0\n2.0\n{bad}\n4.0\n5.0\n6.0\n7.0\n8.0\n")
    code, out, err = run_cli(capsys, "retrieve", str(x), str(y), "--method", method,
                             "--sensing", "1,3")
    assert code == 1
    assert out == ""
    assert "NaN or infinite" in err


def test_retrieve_non_finite_measurement_exits_1(tmp_path, capsys):
    K = SensingSet(8, (1, 3))
    x = tmp_path / "x.csv"
    save_measurement(x, measure(np.arange(1.0, 9.0), K))
    y = tmp_path / "y.csv"
    y.write_text("# n=8\n# K=1,3\n1.0,2.0\nnan,0.0\n")
    code, _, err = run_cli(capsys, "retrieve", str(x), str(y), "--method", "compressive_ratio")
    assert code == 1
    assert "NaN or infinite" in err


# A numpy warning would print to stderr ahead of cycshift's own message;
# as an error it escapes main() and fails the test.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method, code", [
    ("crosscorr", 1), ("compressive_argmax", 1),
    ("ratio", 0), ("single_bin", 0), ("compressive_ratio", 0),
])
def test_retrieve_near_overflow_never_prints_a_nan_shift(tmp_path, capsys, method, code):
    # Products of these spectra overflow to inf; a ratio of them does not.
    x = np.array([1e300, -2e300, 3e300, 5e299])
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_signal(x_path, x)
    save_signal(y_path, np.roll(x, 2))
    sensing = ("--sensing", "1") if method.startswith("compressive") else ()
    got, out, err = run_cli(capsys, "retrieve", str(x_path), str(y_path), "--method", method,
                            *sensing)
    assert got == code
    assert "NaN" not in out
    if code == 0:
        assert json.loads(out)["shift"] == 2 and err == ""
    else:
        assert out == "" and err == f"cycshift: error: {method}: the score is nan (the inputs overflow)\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["compressive_argmax", "compressive_ratio"])
@pytest.mark.parametrize("first, error", [
    (1e308 + 1e308j, "{method}: the score is nan (the inputs overflow)"),
    (1.5e308 + 1.5e308j, "the inputs overflow: a magnitude they give exceeds the float64 range"),
], ids=["products-overflow", "magnitude-overflows"])
def test_retrieve_overflowed_measurement_files_print_one_error_line(
        tmp_path, capsys, method, first, error):
    # Measurement files skip measure's refusal: the ratio z/v, the measured
    # columns and their differences overflow (and |first| itself in the
    # second case), and the only stderr line is cycshift's own.
    K = SensingSet(8, (1, 3))
    v = np.array([first, 1e308 - 1e308j])
    v_path, z_path = tmp_path / "v.csv", tmp_path / "z.csv"
    save_measurement(v_path, Measurement(v, K))
    save_measurement(z_path, Measurement(np.conj(v), K))
    code, out, err = run_cli(capsys, "retrieve", str(v_path), str(z_path), "--method", method)
    assert code == 1
    assert out == ""
    assert err == "cycshift: error: " + error.format(method=method) + "\n"


def test_retrieve_small_measurements_are_not_ambiguous(tmp_path, capsys):
    x = 1e-9 * np.random.default_rng(0).standard_normal(8)
    K = SensingSet(8, (1,))
    v_path, z_path = tmp_path / "v.csv", tmp_path / "z.csv"
    save_measurement(v_path, measure(x, K))
    save_measurement(z_path, measure(np.roll(x, 3), K))
    for method in ("compressive_argmax", "compressive_ratio"):
        code, out, _ = run_cli(capsys, "retrieve", str(v_path), str(z_path), "--method", method)
        assert code == 0
        assert json.loads(out)["shift"] == 3


@pytest.mark.parametrize("y_n, flags, error", [
    (9, ["--method", "ratio"], "length mismatch: {x} has 8, {y} has 9"),
    (8, ["--method", "compressive_argmax"], "compressive methods need --sensing (e.g. --sensing 1,3)"),
], ids=["lengths-differ", "no-sensing"])
def test_retrieve_refusals_on_signal_files_name_the_file_or_flag(tmp_path, capsys, y_n, flags, error):
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_signal(x_path, np.arange(1.0, 9.0))
    save_signal(y_path, np.arange(1.0, y_n + 1.0))
    code, out, err = run_cli(capsys, "retrieve", str(x_path), str(y_path), *flags)
    assert (code, out) == (1, "")
    assert err == f"cycshift: error: {error.format(x=x_path, y=y_path)}\n"


def test_retrieve_mixed_kinds_exits_1(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    save_signal(sig, np.arange(1.0, 9.0))
    meas = tmp_path / "meas.csv"
    save_measurement(meas, measure(np.arange(1.0, 9.0), SensingSet(8, (1,))))
    for pair in ((sig, meas), (meas, sig)):
        code, _, err = run_cli(capsys, "retrieve", *map(str, pair), "--method",
                               "compressive_ratio", "--sensing", "1")
        assert code == 1
        assert "both be signals or both be measurements" in err


@pytest.mark.parametrize("command", ["retrieve", "check-sensing"])
def test_bad_sensing_token_exits_1_naming_the_flag(tmp_path, capsys, command):
    _, x_path, y_path = make_pair(tmp_path, n=8)
    paths = [str(x_path)] + ([str(y_path), "--method", "compressive_ratio"]
                             if command == "retrieve" else [])
    code, out, err = run_cli(capsys, command, *paths, "--sensing", "1,x")
    assert code == 1
    assert out == ""
    assert "--sensing: cannot read 'x'" in err


def test_retrieve_measurement_files_drop_blank_sensing_tokens(tmp_path, capsys):
    x = np.random.default_rng(6).standard_normal(8)
    K = SensingSet(8, (1, 3))
    v_path, z_path = tmp_path / "v.csv", tmp_path / "z.csv"
    save_measurement(v_path, measure(x, K))
    save_measurement(z_path, measure(np.roll(x, 5), K))
    for path in (v_path, z_path):
        path.write_text(path.read_text().replace("# K=1,3", "# K=1,,3,"))
    code, out, _ = run_cli(capsys, "retrieve", str(v_path), str(z_path),
                           "--method", "compressive_ratio")
    assert code == 0
    assert json.loads(out)["shift"] == 5


@pytest.mark.parametrize("kind", ["signal", "measurement"])
def test_retrieve_reads_each_file_once(tmp_path, capsys, monkeypatch, kind):
    x = np.random.default_rng(4).standard_normal(8)
    paths = [tmp_path / "x.csv", tmp_path / "y.csv"]
    if kind == "signal":
        save_signal(paths[0], x)
        save_signal(paths[1], np.roll(x, 3))
    else:
        K = SensingSet(8, (1, 3))
        save_measurement(paths[0], measure(x, K))
        save_measurement(paths[1], measure(np.roll(x, 3), K))
    opened = []
    read = fileio._read
    monkeypatch.setattr(fileio, "_read", lambda path: opened.append(path) or read(path))
    code, out, _ = run_cli(capsys, "retrieve", *map(str, paths), "--method", "compressive_ratio",
                           "--sensing", "1,3")
    assert code == 0
    assert json.loads(out)["shift"] == 3
    assert sorted(opened) == sorted(map(str, paths))


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["retrieve"])  # missing required positionals
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_with_flags_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "8", "--trials", "5", "--seed", "1",
                           "--snr-db", "inf", "--methods", "crosscorr,ratio")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("snr_db,method")
    assert len(lines) == 3
    assert ",1.0," in lines[1]


def test_bench_with_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 8, "trials": 3, "seed": 9, "snr_db_grid": ["inf"],
        "methods": ["compressive_ratio"], "sensing": [1, 3],
    }))
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out_path),
                         "--no-timing")
    assert code == 0
    text = out_path.read_text()
    assert text.strip().split("\n")[1] == "inf,compressive_ratio,8,2,3,1.0,0"


def test_bench_byte_deterministic_with_no_timing(tmp_path, capsys):
    args = ["bench", "--n", "8", "--trials", "4", "--seed", "2", "--snr-db", "inf,-10",
            "--methods", "crosscorr", "--no-timing"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("n", [64, 255, 256, 1000])
def test_bench_no_timing_matches_golden_file(tmp_path, capsys, n):
    # The golden files hold the output of the original complex-FFT
    # estimators; a faster transform must not change a single byte.
    out = tmp_path / "bench.csv"
    code, _, _ = run_cli(capsys, "bench", "--n", str(n), "--trials", "300", "--seed", "5",
                         "--snr-db", "inf,0,-10", "--sensing", "1,3", "--no-timing",
                         "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"bench_n{n}.csv").read_bytes()


@pytest.mark.parametrize("n, sensing", [(64, "2,6"), (255, "3,5,85")])
def test_bench_no_timing_on_ambiguous_sensing_sets_matches_golden_file(tmp_path, capsys, n, sensing):
    # Every bin of these sets shares a factor with n (all of them at
    # n = 64), so trials settle on twin shifts; the files hold the output
    # of the estimators that scored each trial in its own call.
    out = tmp_path / "bench.csv"
    code, _, _ = run_cli(capsys, "bench", "--n", str(n), "--trials", "300", "--seed", "5",
                         "--snr-db", "inf,0,-10", "--sensing", sensing, "--no-timing",
                         "--out", str(out))
    assert code == 0
    golden = GOLDEN / f"bench_n{n}_K{sensing.replace(',', '_')}.csv"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("missing", ["--n", "--trials", "--snr-db"])
def test_bench_without_config_names_missing_flags(capsys, missing):
    flags = {"--n": "8", "--trials": "2", "--snr-db": "inf"}
    del flags[missing]
    code, out, err = run_cli(capsys, "bench", *(tok for item in flags.items() for tok in item))
    assert code == 1
    assert out == ""
    assert missing in err


@pytest.mark.parametrize("key, value", [
    ("n", [1, 2]), ("n", None), ("snr_db_grid", 5), ("methods", 3),
    ("seed", 1.7), ("trials", True), ("measure_time", "maybe"),
])
def test_bench_config_with_a_wrong_value_type_exits_1_naming_the_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    raw = {"n": 8, "trials": 2, "seed": 1, "snr_db_grid": "inf", "methods": "crosscorr"}
    cfg.write_text(json.dumps(dict(raw, **{key: value})))
    code, out, err = run_cli(capsys, "bench", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith(f"cycshift: error: {key}: ")


def test_bench_negative_seed_exits_1_naming_seed(capsys):
    code, out, err = run_cli(capsys, "bench", "--n", "8", "--trials", "2", "--seed", "-1",
                             "--snr-db", "inf", "--methods", "crosscorr")
    assert code == 1
    assert out == ""
    assert err == "cycshift: error: seed must be >= 0, got -1\n"


def test_bench_bad_sensing_exits_1_even_when_no_method_needs_it(capsys):
    code, out, err = run_cli(capsys, "bench", "--n", "64", "--trials", "4", "--seed", "1",
                             "--snr-db", "inf", "--methods", "crosscorr", "--sensing", "100")
    assert (code, out) == (1, "")
    assert err == "cycshift: error: sensing indices[0] must be in 0..63, got 100\n"


@pytest.mark.parametrize("grid", ["-inf", "inf,-inf", "0,nan"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bench_refuses_nan_and_minus_inf_snr(tmp_path, capsys, grid, source):
    if source == "flag":
        argv = ["--n", "8", "--trials", "2", "--seed", "0", f"--snr-db={grid}"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n=8\ntrials=2\nseed=0\nsnr_db_grid={grid}\n")
        argv = ["--config", str(cfg)]
    code, out, err = run_cli(capsys, "bench", *argv, "--methods", "crosscorr")
    assert code == 1
    assert out == ""
    assert err.startswith("cycshift: error: snr_db_grid: ")
    assert grid.split(",")[-1] in err


def test_bench_json_format(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "8", "--trials", "2", "--seed", "0",
                           "--snr-db", "inf", "--methods", "ratio", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["success_rate"] == 1.0


# ---------------------------------------------------------------------------
# check-sensing
# ---------------------------------------------------------------------------

def test_check_sensing_good_set(tmp_path, capsys):
    x_path = tmp_path / "x.csv"
    save_signal(x_path, np.random.default_rng(4).standard_normal(8))
    code, out, _ = run_cli(capsys, "check-sensing", str(x_path), "--sensing", "1")
    assert code == 0
    report = json.loads(out)
    assert report["guarantee_holds"] is True
    assert report["ambiguous"] is False
    assert report["qualifying_bins"] == [1]


def test_check_sensing_weak_coprime_bin_exits_0(tmp_path, capsys):
    # Bin 1 at 1e-10 of the spectral peak is weak but live: it pins the
    # shift, so the set is guaranteed and not ambiguous at once.
    X = spectral.dft(np.random.default_rng(16).standard_normal(16))
    for k in (1, 15):
        X[k] *= 1e-10 * np.abs(X).max() / abs(X[k])
    x = np.real(np.fft.ifft(X, norm="ortho"))
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_signal(x_path, x)
    save_signal(y_path, np.roll(x, 5))
    code, out, _ = run_cli(capsys, "check-sensing", str(x_path), "--sensing", "1")
    assert code == 0
    report = json.loads(out)
    assert report["guarantee_holds"] is True
    assert report["ambiguous"] is False
    for method in ("compressive_argmax", "compressive_ratio"):
        code, out, _ = run_cli(capsys, "retrieve", str(x_path), str(y_path),
                               "--method", method, "--sensing", "1")
        assert code == 0
        assert (json.loads(out)["shift"], json.loads(out)["flags"]) == (5, [])


def test_check_sensing_ambiguous_set(tmp_path, capsys):
    x_path = tmp_path / "x.csv"
    save_signal(x_path, np.random.default_rng(4).standard_normal(8))
    code, out, _ = run_cli(capsys, "check-sensing", str(x_path), "--sensing", "4")
    assert code == 2
    report = json.loads(out)
    assert report["guarantee_holds"] is False
    assert report["ambiguous"] is True
    assert [0, 2, 4, 6] in report["duplicate_shift_groups"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_sensing_near_the_float64_range_exits_0_with_no_warning(tmp_path, capsys):
    # The measured columns of the two shifts differ by more than float64
    # holds; the report still reads them apart, and nothing else is printed.
    x_path = tmp_path / "x.csv"
    save_signal(x_path, np.array([0.8e308, -0.8e308]))
    code, out, err = run_cli(capsys, "check-sensing", str(x_path), "--sensing", "1")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["qualifying_bins"] == [1] and report["duplicate_shift_groups"] == []


def _near_range_shapes():
    one, two, among_subnormals = np.zeros(8), np.zeros(8), 5e-324 * np.arange(1, 9)
    one[0] = two[:2] = 1.7e308
    among_subnormals[0] = 1e308
    return {
        "alternating_8": 0.8e308 * (-1.0) ** np.arange(8),
        "alternating_16": 0.8e308 * (-1.0) ** np.arange(16),
        "ramp": np.linspace(-0.8e308, 0.8e308, 8),
        "one_sample": one,
        "two_samples": two,
        "among_subnormals": among_subnormals,
    }


NEAR_RANGE_RUNS = ("crosscorr", "ratio", "single_bin", "compressive_argmax", "compressive_ratio",
                   "check-sensing")
# The exit code of each run above, per shape, as the program gives it
# now. The ramp's check-sensing refuses: the sums that give bin 1 of the
# ramp overflow to NaN, which is an overflow, not a dead bin.
NEAR_RANGE_CODES = {
    "alternating_8": (1, 1, 1, 1, 1, 1),
    "alternating_16": (1, 1, 1, 1, 1, 1),
    "ramp": (1, 1, 1, 1, 1, 1),
    "one_sample": (1, 0, 0, 1, 0, 0),
    "two_samples": (1, 1, 1, 1, 1, 1),
    "among_subnormals": (1, 0, 0, 1, 0, 0),
}


def _refuse_constant(name):
    raise AssertionError(f"{name} in the JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("run", range(len(NEAR_RANGE_RUNS)), ids=NEAR_RANGE_RUNS)
@pytest.mark.parametrize("shape", sorted(NEAR_RANGE_CODES))
def test_near_range_files_answer_finitely_or_refuse_by_name(tmp_path, capsys, shape, run):
    x = _near_range_shapes()[shape]
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_signal(x_path, x)
    save_signal(y_path, np.roll(x, 3))
    name = NEAR_RANGE_RUNS[run]
    if name == "check-sensing":
        argv = ["check-sensing", str(x_path), "--sensing", "1,3"]
    else:
        sensing = ["--sensing", "1,3"] if name.startswith("compressive") else []
        argv = ["retrieve", str(x_path), str(y_path), "--method", name, *sensing]
    code, out, err = run_cli(capsys, *argv)
    assert code == NEAR_RANGE_CODES[shape][run]
    if code == 0:
        assert err == ""
        report = json.loads(out, parse_constant=_refuse_constant)
        assert name == "check-sensing" or report["shift"] == 3
    else:
        assert out == ""
        assert re.fullmatch(r"cycshift: error: .*(overflow|NaN or infinite).*\n", err)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes(capsys):
    import time

    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "selftest")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out
    assert elapsed < 10.0


def test_importing_the_cli_leaves_the_oracles_unloaded():
    # Only the selftest command runs the O(n^2) references; retrieve's
    # start-up does not import them.
    env = {**os.environ, "PYTHONPATH": str(Path(fileio.__file__).resolve().parent.parent)}
    probe = "import sys, cycshift.cli; print('cycshift.oracle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


def test_retrieve_leaves_the_bench_module_and_csv_unloaded(tmp_path):
    # The method table lives in the package itself: a retrieve run imports
    # neither the sweep nor the csv writer it needs.
    _, x_path, y_path = make_pair(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(fileio.__file__).resolve().parent.parent)}
    probe = ("import sys, cycshift.cli; code = cycshift.cli.main(sys.argv[1:]); "
             "print(code, 'cycshift.bench' in sys.modules, 'csv' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, "retrieve", str(x_path), str(y_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False False"


def test_selftest_negative_control_corrupted_dft(capsys, monkeypatch):
    # A forward transform with the wrong kernel sign must fail the suite.
    dft = spectral.dft
    monkeypatch.setattr(spectral, "dft", lambda x: np.conj(dft(x)))
    code, out, _ = run_cli(capsys, "selftest")
    assert code != 0
    assert "fourier-unitarity: FAIL" in out

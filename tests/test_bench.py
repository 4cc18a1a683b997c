import dataclasses
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cycshift import (
    IdentifiabilityError,
    SensingSet,
    bench,
    check_sensing_conditions,
    compressive,
    measure,
    retrieval,
    shift_affine,
)
from cycshift.bench import (
    METHOD_TABLE,
    METHODS,
    ExperimentConfig,
    config_from_mapping,
    estimate,
    noise_sigma,
    parse_snr,
    rows_to_csv,
    rows_to_json,
    run_bench,
)
from cycshift.fileio import read_config

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


def small_config(**overrides):
    base = dict(
        n=16,
        trials=25,
        seed=42,
        snr_db_grid=(float("inf"),),
        methods=METHODS,
        sensing=(1, 3),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_noiseless_rows_are_perfect():
    rows = run_bench(small_config())
    assert len(rows) == len(METHODS)
    for row in rows:
        assert row["success_rate"] == 1.0
        assert row["trials"] == 25
        assert row["m"] == (2 if row["method"].startswith("compressive") else 16)


def test_success_rates_deterministic_per_seed():
    a = run_bench(small_config())
    b = run_bench(small_config())
    assert [r["success_rate"] for r in a] == [r["success_rate"] for r in b]


def test_csv_bytes_deterministic_without_timing():
    cfg = small_config(measure_time=False, trials=5)
    assert rows_to_csv(run_bench(cfg)) == rows_to_csv(run_bench(cfg))


def test_csv_layout_and_inf_sentinel():
    cfg = small_config(trials=3, snr_db_grid=(float("inf"), 10.0), methods=("crosscorr",))
    text = rows_to_csv(run_bench(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == "snr_db,method,n,m,trials,success_rate,mean_elapsed_us"
    assert lines[1].startswith("inf,crosscorr,16,16,3,")
    assert lines[2].startswith("10.0,crosscorr,16,16,3,")


def test_json_output_parses():
    cfg = small_config(trials=2, methods=("ratio",))
    rows = json.loads(rows_to_json(run_bench(cfg)))
    assert rows[0]["method"] == "ratio"
    assert rows[0]["snr_db"] == "inf"


def test_noise_changes_seeded_stream_not_signal():
    # same trial index must plant the same signal and shift in every cell
    noisy = run_bench(small_config(trials=10, snr_db_grid=(float("inf"), -30.0),
                                   methods=("crosscorr",)))
    assert noisy[0]["success_rate"] == 1.0
    assert noisy[1]["success_rate"] <= 1.0


def test_heavy_noise_breakdown_and_chance_floor():
    # At -20 dB the 64-sample correlation gain keeps crosscorr measurably
    # above chance: the Monte-Carlo-derived rate is 0.084 (2000 trials,
    # two seeds), frozen here with a 5-percentage-point band.
    cfg = ExperimentConfig(
        n=64, trials=400, seed=7, snr_db_grid=(-20.0,), methods=("crosscorr",)
    )
    rate = run_bench(cfg)[0]["success_rate"]
    assert abs(rate - 0.084) < 0.05
    # deeper noise (-40 dB) genuinely reaches the chance floor 1/n
    cfg = ExperimentConfig(
        n=64, trials=400, seed=7, snr_db_grid=(-40.0,), methods=("crosscorr",)
    )
    rate = run_bench(cfg)[0]["success_rate"]
    assert abs(rate - 1.0 / 64) < 0.05


def test_noise_sigma_formula():
    x = np.ones(8) * 2.0  # ||x||^2 = 32
    assert noise_sigma(x, float("inf")) == 0.0
    # snr = ||x||^2 / (n sigma^2)  =>  sigma = sqrt(32 / (8 * 10)) at 10 dB
    assert noise_sigma(x, 10.0) == pytest.approx(np.sqrt(32 / 80))


def test_parse_snr():
    assert parse_snr("inf") == float("inf")
    assert parse_snr(" INF ") == float("inf")
    assert parse_snr("-3.5") == -3.5


@pytest.mark.parametrize("snr", [float("-inf"), float("nan")])
def test_run_bench_refuses_nan_and_minus_inf_snr(snr):
    with pytest.raises(ValueError, match="^snr_db_grid: "):
        run_bench(ExperimentConfig(n=8, trials=2, seed=0, snr_db_grid=(0.0, snr),
                                   methods=("crosscorr",)))


@pytest.mark.parametrize("make, message", [
    (lambda: small_config(snr_db_grid=()), "^snr_db_grid is empty$"),
    (lambda: small_config(fmt="xml"), "^format must be csv or json, got 'xml'$"),
    (lambda: config_from_mapping({"n": 8, "trials": 2, "seed": 0}), "^config needs snr_db_grid "),
], ids=["empty-snr-grid", "unknown-format", "no-snr-grid"])
def test_config_refuses_a_missing_or_unknown_field_by_name(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_config_refuses_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        small_config(seed=-1)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0).validate()
    with pytest.raises(ValueError):
        small_config(n=1).validate()
    with pytest.raises(ValueError):
        small_config(methods=("nope",)).validate()
    with pytest.raises(ValueError):
        small_config(sensing=None).validate()  # compressive methods need sensing
    with pytest.raises(ValueError):
        small_config(sensing=(99,)).validate()
    small_config(sensing=None, methods=("crosscorr", "ratio")).validate()


@pytest.mark.parametrize("sensing, message", [
    ((100,), r"^sensing indices\[0\] must be in 0\.\.63, got 100$"),
    ((3, 1), r"^sensing indices must be strictly increasing, got \(3, 1\)$"),
])
def test_config_refuses_a_bad_sensing_set_that_no_method_needs(sensing, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(n=64, trials=4, seed=1, snr_db_grid=(float("inf"),),
                         methods=("crosscorr",), sensing=sensing)


def test_full_signal_cells_build_no_sensing_set(monkeypatch):
    cfg = small_config(snr_db_grid=(float("inf"), -5.0), methods=("crosscorr", "single_bin"),
                       measure_time=False)
    rows = run_bench(dataclasses.replace(cfg, sensing=None))

    def refuse(*args):
        raise AssertionError("a full-signal cell built a sensing set")

    monkeypatch.setattr(compressive, "SensingSet", refuse)
    assert run_bench(cfg) == rows


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "n": 8, "trials": 4, "seed": 3, "snr_db_grid": ["inf", -5],
        "methods": ["crosscorr", "compressive_ratio"], "sensing": [1, 3],
        "output": "out.csv",
    }))
    cfg = config_from_mapping(read_config(path))
    assert cfg.n == 8 and cfg.trials == 4 and cfg.seed == 3
    assert cfg.snr_db_grid == (float("inf"), -5.0)
    assert cfg.methods == ("crosscorr", "compressive_ratio")
    assert cfg.sensing == (1, 3)
    assert cfg.output == "out.csv"


def test_config_from_flat_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# comment\n"
        "n=8\ntrials=4\nseed=3\nsnr_db=inf,-5\nmethods=crosscorr,ratio\n"
        "measure_time=false\n"
    )
    cfg = config_from_mapping(read_config(path))
    assert cfg.n == 8
    assert cfg.snr_db_grid == (float("inf"), -5.0)
    assert cfg.methods == ("crosscorr", "ratio")
    assert cfg.measure_time is False


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("n=8\ntrials=4\nseed=3\nsnr_db=inf\nbogus=1\n")
    with pytest.raises(ValueError):
        config_from_mapping(read_config(path))


@pytest.mark.parametrize("text", [
    b'{"n": 8,', b'{"n":' * 100_000, b"n=8\ntrials\n", b"n=8\n\xff\n",
], ids=["truncated-json", "deep-json", "missing-equals", "not-utf8"])
def test_config_read_errors_name_the_file(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_config(path)


def test_run_bench_calls_the_estimator_bound_on_its_module(monkeypatch):
    # The method table looks estimators up at call time, so rebinding the
    # module attribute (as a tracer or a stub does) reaches run_bench.
    real = retrieval.shift_by_crosscorr

    def off_by_one(x, y):
        est = real(x, y)
        return dataclasses.replace(est, shift=(est.shift + 1) % est.n)

    monkeypatch.setattr(retrieval, "shift_by_crosscorr", off_by_one)
    rows = run_bench(small_config(trials=5, methods=("crosscorr", "ratio")))
    assert [row["success_rate"] for row in rows] == [0.0, 1.0]


def test_a_cell_whose_stack_raises_is_scored_row_by_row(monkeypatch):
    # The stub refuses stacks and every trial whose signal starts above 0,
    # so exactly those trials must count as misses.
    real = retrieval.shift_by_ratio

    def picky(x, y):
        if np.ndim(x) == 2 or x[0] > 0:
            raise IdentifiabilityError("stub")
        return real(x, y)

    monkeypatch.setattr(retrieval, "shift_by_ratio", picky)
    cfg = small_config(trials=12, methods=("ratio",))
    (row,) = run_bench(cfg)
    starts = [np.random.default_rng([cfg.seed, t]).standard_normal(cfg.n)[0]
              for t in range(cfg.trials)]
    assert 0 < row["success_rate"] < 1
    assert row["success_rate"] == sum(s <= 0 for s in starts) / cfg.trials


@pytest.mark.parametrize("method", ["compressive_argmax", "compressive_ratio"])
def test_a_trial_whose_reference_measures_all_zero_is_the_only_miss(monkeypatch, method):
    # The stub zeroes the reference measurement of one trial. argmax scores
    # it as ambiguous at shift 0; ratio refuses the stack, then that row.
    cfg = small_config(trials=12, methods=(method,))
    draws = [np.random.default_rng([cfg.seed, t]) for t in range(cfg.trials)]
    trials = [(rng.standard_normal(cfg.n), int(rng.integers(cfg.n))) for rng in draws]
    dead = next(x for x, s in trials if s)  # a nonzero shift: its delayed copy differs from it
    real = compressive.measure

    def dead_reference(x, sensing):
        values = real(x, sensing).values
        return compressive.Measurement(np.where((x == dead).all(axis=-1)[..., None], 0, values),
                                       sensing)

    monkeypatch.setattr(compressive, "measure", dead_reference)
    (row,) = run_bench(cfg)
    assert row["success_rate"] == (cfg.trials - 1) / cfg.trials


def test_trial_blocks_change_no_result(monkeypatch):
    cfg = small_config(trials=7, snr_db_grid=(float("inf"), 0.0), measure_time=False)
    one_block = run_bench(cfg)
    monkeypatch.setattr(bench, "_BLOCK_SAMPLES", 3 * cfg.n)  # blocks of 3, 3 and 1 trials
    assert run_bench(cfg) == one_block


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, np.uint64(2**63 + 5)])
@pytest.mark.parametrize("trials", [range(3), range(2**32 - 2, 2**32 + 1)])
@pytest.mark.parametrize("noisy", [False, True])
def test_draws_are_those_of_a_generator_per_seed_and_trial(seed, trials, noisy):
    # _draw seeds each trial with the uint32 words numpy reads from [seed, trial]:
    # an int is its 32-bit words, a list joins its items' words, a uint32 array is taken as it is.
    n = 16
    x, shifts, noise = bench._draw(seed, trials, n, noisy)
    assert (noise is not None) == noisy
    for row, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        assert np.array_equal(x[row], rng.standard_normal(n))
        assert shifts[row] == rng.integers(n)
        if noisy:
            assert np.array_equal(noise[row], rng.standard_normal(n))


def test_every_traced_function_resolves():
    with open(LAYERS, encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    targets = [t for row in rows for binds in row["spans"].values() for t in binds
               if t.startswith("cycshift.")]
    assert targets
    for target in targets:
        module, _, qualname = target.partition(":")
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target


@given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.floats(-12.0, 12.0),
       st.sets(st.integers(0, 23), min_size=1, max_size=3))
@example(8, 0, -9.0, {1})  # small signal, coprime bin: neither ambiguous nor dead
@example(16, 1, -12.0, {2, 6})  # tiny pair: sum(x) and alpha are still identifiable
@example(16, 2, 12.0, {4})  # huge pair: alpha stays identifiable
@example(15, 113, 3.75, {0, 9})  # compressive_argmax: 2 at unit scale, 12 (same class) scaled
@example(6, 15, 2.0, {2, 4})  # compressive_argmax: 2 at unit scale, 5 (same class) scaled
@settings(max_examples=60, deadline=None)
def test_scaling_both_inputs_changes_no_shift_or_flag(n, seed, log_c, bins):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = np.roll(x, int(rng.integers(n)))
    alpha, beta = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)), rng.normal()
    K = SensingSet(n, tuple(sorted({k % n for k in bins})))

    def outcome(c):
        cx, cy = c * x, c * y
        report = check_sensing_conditions(cx, K)
        out = [report.guarantee_holds, report.ambiguous, report.duplicate_shift_groups]
        for method in METHODS:
            if METHOD_TABLE[method][2]:
                est = estimate(method, measure(cx, K), measure(cy, K))
            else:
                est = estimate(method, cx, cy)
            out.append((method, est.shift, est.flags))
        if n == 2:  # the affine model has three unknowns for two samples
            with pytest.raises(IdentifiabilityError):
                shift_affine(cx, alpha * cy + beta * c)
        else:
            model, _ = shift_affine(cx, alpha * cy + beta * c)
            out.append(("affine", model.shift, model.flags))
        return out

    assert outcome(10.0 ** log_c) == outcome(1.0)


@given(st.integers(3, 64), st.integers(0, 2**32 - 1), st.integers(0, 63), st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_rolling_both_inputs_leaves_the_shift_unchanged(n, seed, s, r, bins):
    x = np.random.default_rng(seed).standard_normal(n)
    y = np.roll(x, s % n)
    K = SensingSet(n, tuple(sorted({k % n for k in bins})))
    # A sensing set pins the shift only modulo n / gcd(n, K); noiseless
    # Gaussian signals have no dead bins, so that is the whole class.
    period = n // np.gcd.reduce([n, *K.indices])

    def shifts(a, b):
        out = {"affine": shift_affine(a, b)[0].shift}
        for method in METHODS:
            if METHOD_TABLE[method][2]:
                out[method] = estimate(method, measure(a, K), measure(b, K)).shift % period
            else:
                out[method] = estimate(method, a, b).shift
        return out

    assert shifts(np.roll(x, r), np.roll(y, r)) == shifts(x, y)


# tests/test_cli.py runs the other wrong-type cases end to end.
@pytest.mark.parametrize("key, value", [
    ("n", 8.0), ("snr_db_grid", "inf,nan"), ("sensing", "1,x"), ("sensing", [1.0]),
    ("sensing", None), ("measure_time", 2), ("output", 5),
])
def test_config_values_convert_by_one_strict_rule(key, value):
    raw = {"n": 8, "trials": 2, "seed": 1, "snr_db_grid": "inf", "sensing": "1"}
    with pytest.raises(ValueError, match=f"^{key}: "):
        config_from_mapping(dict(raw, **{key: value}))


def test_config_accepts_json_numbers_decimal_strings_and_flag_words():
    as_text = config_from_mapping({"n": "8", "trials": " 2", "seed": "1", "snr_db": "inf, -5,",
                                   "sensing": "1,,3", "measure_time": "OFF"})
    as_json = config_from_mapping({"n": 8, "trials": 2, "seed": 1, "snr_db_grid": ["inf", -5],
                                   "sensing": [1, 3], "measure_time": False})
    assert as_text == as_json
    assert as_text.sensing == (1, 3) and as_text.measure_time is False

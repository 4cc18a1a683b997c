"""Fuzzing the input boundary: malformed files end in a ValueError, never a traceback.

Each example starts from a valid signal, measurement or bench-config
file with n <= 16 and applies a few line edits: dropped or duplicated
lines, junk tokens, ``,,``, bad headers, NaN/inf, an emptied file or
bytes that are not UTF-8. The loaders must either return a finite value
or raise a ValueError that names the file; the CLI must exit 0, 1 or 2.
A fuzzed bench config is parsed and validated but never run.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from cycshift import Measurement, bench
from cycshift.cli import main
from cycshift.fileio import (
    load_any,
    load_measurement,
    load_signal,
    read_config,
    sniff_kind,
)

JUNK = ["", ",,", "nan", "inf", "-inf", "NaN,0", "1.0,inf", "1e999", "abc", "#", "=", "n=",
        "1,2,3", "1.0,", ",1.0", "0x10", "1_0", "[1,2]", "{", "null", "true", "# n=abc", "# n=",
        "# n=-3", "# n=0", "# n=99", "# K=1,,3", "# K=", "# K=1,x", "# K=99", "# K=3,1",
        "# K=1,1", "n=1.7", "trials=true", "seed=null", "sensing=1,,x", "snr_db=nan",
        "methods=3", "measure_time=maybe", "bogus=1", '"n": [1, 2]', '"snr_db_grid": 5']
# Free text never holds '=', so no fuzzed header can declare a huge n.
TOKENS = st.one_of(st.sampled_from(JUNK),
                   st.text(st.characters(exclude_categories=("Cs",), exclude_characters="=\r\n"),
                           max_size=6))


@st.composite
def base_lines(draw):
    n = draw(st.integers(1, 16))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(n)
    kind = draw(st.sampled_from(["signal", "measurement", "json", "flat"]))
    if kind == "signal":
        return [f"# n={n}"] * draw(st.booleans()) + [repr(float(v)) for v in values]
    if kind == "measurement":
        K = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
        return [f"# n={n}", "# K=" + ",".join(map(str, K))] + [
            f"{v!r},{-v!r}" for v in values[:len(K)]]
    config = {"n": n, "trials": 2, "seed": 1, "snr_db_grid": "inf,0",
              "methods": "crosscorr,compressive_ratio", "sensing": "1"}
    if kind == "json":
        return json.dumps(config, indent=0).splitlines()
    return [f"{key}={value}" for key, value in config.items()]


@st.composite
def fuzzed_bytes(draw):
    lines = draw(base_lines())
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "duplicate", "insert", "replace", "append"]))
        if op == "insert" or not lines:
            lines.insert(i, draw(TOKENS))
            continue
        i = min(i, len(lines) - 1)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            lines[i] = draw(TOKENS)
        else:
            lines[i] += draw(st.sampled_from([",,", ",", "=", " nan", "x"]))
    data = "\n".join(lines).encode("utf-8") * draw(st.sampled_from([1, 1, 1, 0]))
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data


def _loads_or_names_file(load, path):
    try:
        value = load(path)
    except ValueError as exc:
        assert str(path) in str(exc), (load.__name__, str(exc))
        return None
    return value


@settings(max_examples=100, deadline=None)
@given(fuzzed_bytes())
def test_loaders_return_finite_values_or_name_the_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_bytes(data)
    value = _loads_or_names_file(load_any, path)
    if value is not None:
        assert np.isfinite(value.values if isinstance(value, Measurement) else value).all()
    kind = _loads_or_names_file(sniff_kind, path)
    assert kind == (None if value is None else
                    "measurement" if isinstance(value, Measurement) else "signal")
    for load in (load_signal, load_measurement):
        _loads_or_names_file(load, path)


@settings(max_examples=100, deadline=None)
@given(fuzzed_bytes())
def test_config_reader_returns_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "config.txt"
    path.write_bytes(data)
    try:
        raw = read_config(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    try:
        bench.config_from_mapping(raw).validate()
    except ValueError:
        pass


@settings(max_examples=25, deadline=None)
@given(fuzzed_bytes())
def test_cli_exits_0_1_or_2_on_fuzzed_files(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("fuzz")
    path = d / "input.txt"
    path.write_bytes(data)
    runs = [["retrieve", str(path), str(path)],
            ["retrieve", str(path), str(path), "--method", "compressive_ratio", "--sensing", "1"],
            ["check-sensing", str(path), "--sensing", "1"],
            ["bench", "--config", str(path), "--out", str(d / "rows.csv")]]
    stub = mock.patch.object(bench, "run_bench", lambda config: config.validate() or [])
    with stub, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            assert main(argv) in (0, 1, 2), argv

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cycshift import Measurement, SensingSet, measure
from cycshift.fileio import (
    load_any,
    load_measurement,
    load_signal,
    save_measurement,
    save_signal,
    sniff_kind,
)


def test_signal_round_trip(tmp_path):
    path = tmp_path / "sig.csv"
    x = np.random.default_rng(0).standard_normal(11)
    save_signal(path, x)
    assert_allclose(load_signal(path), x, atol=0)  # repr round-trips exactly


def test_signal_file_is_byte_deterministic(tmp_path):
    x = np.random.default_rng(1).standard_normal(6)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_signal(a, x)
    save_signal(b, x)
    assert a.read_bytes() == b.read_bytes()


def test_signal_header_and_layout(tmp_path):
    path = tmp_path / "sig.csv"
    save_signal(path, [1.5, -2.0])
    lines = path.read_text().splitlines()
    assert lines[0] == "# n=2"
    assert lines[1:] == ["1.5", "-2.0"]


def test_signal_without_header_loads(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1.0\n2.0\n\n3.0\n")
    assert_allclose(load_signal(path), [1.0, 2.0, 3.0])


def test_signal_header_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# n=4\n1.0\n2.0\n")
    with pytest.raises(ValueError):
        load_signal(path)


def test_signal_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValueError):
        load_signal(path)


def test_measurement_round_trip(tmp_path):
    path = tmp_path / "meas.csv"
    x = np.random.default_rng(2).standard_normal(8)
    m = measure(x, SensingSet(8, (1, 3, 6)))
    save_measurement(path, m)
    loaded = load_measurement(path)
    assert loaded.sensing == m.sensing
    assert_allclose(loaded.values, m.values, atol=0)


def test_measurement_requires_headers(tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text("0.5,0.5\n")
    with pytest.raises(ValueError):
        load_measurement(path)


@pytest.mark.parametrize("text", [
    b"# n=abc\n1.0\n",
    b"# n=8\n# K=1,,x\n1.0,2.0\n3.0,4.0\n",
    b"# n=8\n# K=1,3\n1.0,2.0\n",  # fewer values than K
    b"# n=8\n# K=\n",
    b"# n=8\n# K=9\n1.0,2.0\n",
    b"# n=8\n# K=1\n1.0;2.0\n",
    b"# K=1,3\n1.0,2.0\n3.0,4.0\n",  # K without n
    b"1.0\n\xff\n",
])
def test_every_parse_error_names_the_file(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    for load in (load_any, sniff_kind):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)


def test_blank_sensing_tokens_are_dropped_in_the_k_header(tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text("# n=8\n# K=1,,3,\n1.0,2.0\n3.0,4.0\n")
    assert load_measurement(path).sensing == SensingSet(8, (1, 3))


def test_signal_loader_rejects_measurement_file(tmp_path):
    path = tmp_path / "meas.csv"
    save_measurement(path, Measurement(np.array([1 + 2j]), SensingSet(4, (2,))))
    with pytest.raises(ValueError):
        load_signal(path)


def test_sniff_kind(tmp_path):
    sig = tmp_path / "sig.csv"
    save_signal(sig, [1.0, 2.0])
    meas = tmp_path / "meas.csv"
    save_measurement(meas, Measurement(np.array([1j]), SensingSet(4, (1,))))
    assert sniff_kind(sig) == "signal"
    assert sniff_kind(meas) == "measurement"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_signal_loader_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "sig.csv"
    path.write_text(f"1.0\n{bad}\n3.0\n")
    with pytest.raises(ValueError, match="NaN or infinite"):
        load_signal(path)
    with pytest.raises(ValueError, match="NaN or infinite"):
        load_any(path)


@pytest.mark.parametrize("line", ["nan,0.0", "1.0,inf", "-inf,-inf"])
def test_measurement_loader_rejects_non_finite_values(tmp_path, line):
    path = tmp_path / "meas.csv"
    path.write_text(f"# n=8\n# K=1,3\n1.0,2.0\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} contains NaN or infinite")):
        load_measurement(path)
    with pytest.raises(ValueError, match="NaN or infinite"):
        load_any(path)


def test_load_any_tells_kinds_apart(tmp_path):
    sig = tmp_path / "sig.csv"
    save_signal(sig, [1.0, 2.0])
    meas = tmp_path / "meas.csv"
    original = Measurement(np.array([1j, 2.0]), SensingSet(4, (1, 3)))
    save_measurement(meas, original)
    assert_allclose(load_any(sig), [1.0, 2.0], atol=0)
    loaded = load_any(meas)
    assert isinstance(loaded, Measurement)
    assert loaded.sensing == original.sensing
    assert_allclose(loaded.values, original.values, atol=0)

"""Checks that the benchmark's correctness gate and tracer do their job.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycshift import compressive, retrieval  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def off_by_one(fn):
    """An estimator stub that answers one past the true shift."""
    def stub(*args, **kwargs):
        est = fn(*args, **kwargs)
        return dataclasses.replace(est, shift=(est.shift + 1) % est.n)
    return stub


SMALL = {
    "long-signal": lambda seed, d: workloads.LongSignal(seed, d, n=256, fit_shape=(64, 4)),
    "compressive-fresh": lambda seed, d: workloads.CompressiveFresh(seed, d, n=64),
    "sweep": lambda seed, d: workloads.Sweep(seed, d),
}
STUBBED = {
    "long-signal": (retrieval, "shift_by_crosscorr"),
    "compressive-fresh": (compressive, "shift_by_compressive_ratio"),
    "sweep": (retrieval, "shift_by_crosscorr"),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_passes_the_real_estimators(name, tmp_path):
    wl = SMALL[name](7, tmp_path)
    stats = run.run_calls(wl, range(wl.period))
    assert stats.failed == 0
    assert stats.estimates > 0 and stats.hits > 0.5 * stats.estimates


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_catches_an_off_by_one_estimator(name, tmp_path, monkeypatch):
    module, attr = STUBBED[name]
    monkeypatch.setattr(module, attr, off_by_one(getattr(module, attr)))
    wl = SMALL[name](7, tmp_path)
    stats = run.run_calls(wl, range(wl.period))
    assert stats.failed / stats.attempted > 0  # a nonzero error_rate
    assert stats.hits < stats.estimates


def test_cli_gate_checks_shift_flags_and_exit_code(tmp_path):
    wl = workloads.Cli(7, tmp_path, n=256, n_meas=64)
    stats = run.run_calls(wl, range(wl.period))
    assert stats.failed == 0 and stats.estimates == 5

    planted = wl.calls["crosscorr"][2]
    check = wl.case(0).check
    good = '{"method": "crosscorr", "shift": %d, "flags": []}' % planted
    assert check((0, good)).ok
    assert not check((0, good.replace(str(planted), str((planted + 1) % 256)))).ok
    assert not check((2, good)).ok
    assert not wl.case(4).check((0, '{"shift": %d, "flags": []}' % wl.calls["ambiguous"][2])).ok
    assert not wl.case(5).check((0, "")).ok


def test_tracer_records_spans_and_restores_every_binding(tmp_path):
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("cycshift") or name == "numpy.fft"}
    wl = SMALL["compressive-fresh"](3, tmp_path)
    tracer = spans.Tracer(spans.load_layers())
    with tracer.installed():
        assert retrieval.shift_by_crosscorr is not before["cycshift.retrieval"]["shift_by_crosscorr"]
        run.run_calls(wl, range(8), tracer)
    after = {name: dict(vars(sys.modules[name])) for name in before}
    for name, attrs in before.items():
        changed = [a for a, v in attrs.items() if after[name].get(a) is not v]
        assert not changed, (name, changed)

    own = spans.self_times(tracer.spans)
    assert own["compressive.check_sensing_conditions"][0] == 2  # calls 2 and 5
    assert own["compressive.measure"][0] == 2 * 6 + 2  # x and y per estimate, x per check
    assert tracer.counters["compressive.ambiguous"] == 1  # call 7 uses even bins only


def test_self_time_subtracts_direct_children():
    recorded = [["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["c", 20, 30, 1, 0], ["b", 50, 60, 0, 0]]
    assert spans.self_times(recorded) == {"a": (1, 60), "b": (2, 30), "c": (1, 10)}

"""Time one-pair calls, for the working tree and optionally a second ``src/`` tree.

Run from anywhere as ``python tools/one_pair_timing.py``. It times, at
n = 64, one call at a time of:

* ``shift_by_crosscorr``, ``shift_by_ratio``;
* ``shift_by_crosscorr`` on the same pair scaled by 2^-450, below the
  band ``cycshift.spectral.BAND``, so both rows are scaled up before the
  transforms and the scores scaled back (``crosscorr_tiny``);
* ``shift_single_bin`` with an automatic bin and with bin 1, and with
  an automatic bin on one (20, 64) stack, the shape of a bench cell;
* ``measure`` and ``check_sensing_conditions`` with K = (1, 3);
* ``measure`` of one (20, 64) stack with K = (1, 3), and
  ``shift_by_compressive_argmax`` and ``shift_by_compressive_ratio`` on
  the two stacked measurements of its pairs delayed by 5: the stack
  path a bench cell runs (the ``_20x64`` rows), where one measurement
  (the rows at n = 4096) reads its m values as Python numbers;
* ``cycshift.bench._draw`` of 20 noisy trials at n = 64
  (``bench_draw_20x64``): the signals, shifts and noise of one sweep
  cell, each trial from its own seeded generator;
* ``oracle.brute_force_shift``, the O(n^2) reference;

and at n = 4096, on one row, the compressive path:

* ``measure`` with the 4-bin K = (8, 100, 1001, 2048), whose one odd
  bin pins the shift down;
* ``shift_by_compressive_argmax`` and ``shift_by_compressive_ratio`` on
  the two measurements of a pair delayed by 5;
* ``shift_by_compressive_argmax`` on the same pair scaled by 2^-450,
  whose measurements peak below the band, so both are lifted before
  the product and the scores lowered (``compressive_argmax_tiny``, the
  only lifted compressive row);
* each estimator as perfbench's compressive-fresh workload calls it: a
  freshly built ``SensingSet`` with the same bins, ``measure`` of both
  sides of the pair, then the estimate (the ``_fresh`` rows);
* ``check_sensing_conditions`` with the same bins
  (``check_sensing_4096_4_bins``), with the twice-odd bins
  K = (6, 102, 1002, 2046), which pair each shift with s + n/2
  (``check_sensing_4096_even``), and with K = (2, 2048) on a signal
  whose bin 2 is 5e-11 of bin 2048's, a live bin too weak to move
  nearby shifts apart (``check_sensing_4096_weak``). Each check builds
  an (m, n) table and makes one pass over the n shifts, a few numpy
  calls per group, so the check rows' blocks make ``CHECK_SHARE`` times
  fewer calls than the others' (at least one);

and at n = 2^20, on one row, ``shift_single_bin`` with bin 1
(``single_bin_1_2p20``), whose two entries take the blocked evaluation
of ``cycshift.spectral.dft_entries``.

The rows above the ``_fresh`` ones reuse one ``SensingSet``, which keeps
the phases its bins determine after its first use, so they time the
warm path: they leave out the phase work the ``_fresh`` rows include.

Each measurement runs in a fresh process that imports ``cycshift`` from
one tree, warms each call up, then times ``--calls`` calls of each in
ten blocks, the calls taking turns block by block, and keeps the
fastest block's mean per call. With ``--against
PATH`` (a ``src/`` directory, or a checkout holding one, such as the
output of ``git archive <commit> src``) the two trees run in alternating
processes, ``--rounds`` of each, the first side alternating by round, so
both sides see the same drift of a shared host. The JSON printed holds,
per tree and call, the median, quartiles and range over the rounds in
microseconds; when two trees ran, the ratio of their medians and the
median over rounds of the ratio of a round's two processes; every
process's figures; and the Python and numpy versions and the CPU count.

No timing is asserted: ``--calls 50 --rounds 1`` is a quick smoke run
(one process per tree); comparisons use the default 40 rounds. Warning
options given to Python (``python -W error::RuntimeWarning
tools/one_pair_timing.py ...``) are passed on to every worker process,
so a numpy warning on any timed path then fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKING_SRC = Path(__file__).resolve().parent.parent / "src"
N = 64
N_COMPRESSIVE = 4096
N_LONG = 1 << 20
CELL_ROWS = 20
BLOCKS = 10
CHECK_SHARE = 25  # a 4096-point check costs ~100 one-row estimates


def _src_dir(path: str) -> Path:
    """``path`` itself if it holds the ``cycshift`` package, else its ``src/``."""
    p = Path(path).resolve()
    if (p / "cycshift").is_dir():
        return p
    if (p / "src" / "cycshift").is_dir():
        return p / "src"
    raise SystemExit(f"{path}: no cycshift package here or in its src/")


def _worker(calls: int) -> dict:
    """Microseconds per call of each timed call, from the tree on sys.path."""
    import numpy as np

    from cycshift import (SensingSet, bench, check_sensing_conditions, measure, oracle, shift_by_compressive_argmax,
                          shift_by_compressive_ratio, shift_by_crosscorr, shift_by_ratio, shift_single_bin)

    rng = np.random.default_rng(17)
    x = rng.standard_normal(N)
    y = np.roll(x, 5)
    tiny_x, tiny_y = np.ldexp(x, -450), np.ldexp(y, -450)
    sensing = SensingSet(N, (1, 3))
    long_x = rng.standard_normal(N_COMPRESSIVE)
    bins = SensingSet(N_COMPRESSIVE, (8, 100, 1001, 2048))
    long_y = np.roll(long_x, 5)
    z, v = measure(long_y, bins), measure(long_x, bins)
    tiny_z, tiny_v = measure(np.ldexp(long_y, -450), bins), measure(np.ldexp(long_x, -450), bins)
    even_bins = SensingSet(N_COMPRESSIVE, (6, 102, 1002, 2046))
    t = np.arange(N_COMPRESSIVE)
    # Bin 2 measures 1e-10 * sqrt(n) / 2, 5e-11 of bin 2048's sqrt(n).
    weak_x = 1e-10 * np.cos(4 * np.pi * t / N_COMPRESSIVE) + (-1.0) ** t
    weak_bins = SensingSet(N_COMPRESSIVE, (2, 2048))

    def fresh(estimator):
        fresh_bins = SensingSet(N_COMPRESSIVE, bins.indices)
        return estimator(measure(long_y, fresh_bins), measure(long_x, fresh_bins))

    cell_x = rng.standard_normal((CELL_ROWS, N))
    cell_y = np.roll(cell_x, 5, axis=-1)
    cell_z, cell_v = measure(cell_y, sensing), measure(cell_x, sensing)
    very_long_x = rng.standard_normal(N_LONG)
    very_long_y = np.roll(very_long_x, 5)
    bodies = {
        "crosscorr": lambda: shift_by_crosscorr(x, y),
        "crosscorr_tiny": lambda: shift_by_crosscorr(tiny_x, tiny_y),
        "ratio": lambda: shift_by_ratio(x, y),
        "single_bin_auto": lambda: shift_single_bin(x, y),
        "single_bin_1": lambda: shift_single_bin(x, y, 1),
        "single_bin_auto_20x64": lambda: shift_single_bin(cell_x, cell_y),
        "measure_1_3": lambda: measure(x, sensing),
        "check_sensing_64": lambda: check_sensing_conditions(x, sensing),
        "measure_20x64": lambda: measure(cell_x, sensing),
        "compressive_argmax_20x64": lambda: shift_by_compressive_argmax(cell_z, cell_v),
        "compressive_ratio_20x64": lambda: shift_by_compressive_ratio(cell_z, cell_v),
        "bench_draw_20x64": lambda: bench._draw(17, range(CELL_ROWS), N, True),
        "brute_force_shift": lambda: oracle.brute_force_shift(x, y),
        "measure_4096_4_bins": lambda: measure(long_x, bins),
        "compressive_argmax_4096": lambda: shift_by_compressive_argmax(z, v),
        "compressive_argmax_tiny": lambda: shift_by_compressive_argmax(tiny_z, tiny_v),
        "compressive_ratio_4096": lambda: shift_by_compressive_ratio(z, v),
        "compressive_argmax_4096_fresh": lambda: fresh(shift_by_compressive_argmax),
        "compressive_ratio_4096_fresh": lambda: fresh(shift_by_compressive_ratio),
        "check_sensing_4096_4_bins": lambda: check_sensing_conditions(long_x, bins),
        "check_sensing_4096_even": lambda: check_sensing_conditions(long_x, even_bins),
        "check_sensing_4096_weak": lambda: check_sensing_conditions(weak_x, weak_bins),
        "single_bin_1_2p20": lambda: shift_single_bin(very_long_x, very_long_y, 1),
    }
    block = max(1, calls // BLOCKS)
    blocks = {name: max(1, block // CHECK_SHARE) if name.startswith("check_sensing_4096") else block
              for name in bodies}
    for name, body in bodies.items():
        for _ in range(min(blocks[name], 50)):
            body()
    best = dict.fromkeys(bodies, float("inf"))
    # The kinds take turns block by block, so each sees the same drift of the host.
    for _ in range(BLOCKS):
        for name, body in bodies.items():
            calls_here = blocks[name]
            t0 = time.perf_counter_ns()
            for _ in range(calls_here):
                body()
            best[name] = min(best[name], (time.perf_counter_ns() - t0) / calls_here / 1e3)
    return best


def _run_side(src: Path, calls: int) -> dict:
    warnings = [f"-W{option}" for option in sys.warnoptions]
    cmd = [sys.executable, *warnings, str(Path(__file__).resolve()), "--worker", str(src), "--calls", str(calls)]
    return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median_us": statistics.median(values), "q1_us": q[0], "q3_us": q[2],
            "min_us": min(values), "max_us": max(values)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default=None, help="a second src/ tree (or a checkout holding one)")
    parser.add_argument("--calls", type=int, default=500, help="timed calls per process and call kind")
    parser.add_argument("--rounds", type=int, default=40, help="processes per tree")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        sys.path.insert(0, args.worker)
        print(json.dumps(_worker(args.calls)))
        return

    import numpy as np

    sides = {"working": WORKING_SRC}
    if args.against is not None:
        sides["against"] = _src_dir(args.against)
    runs = {side: [] for side in sides}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(_run_side(sides[side], args.calls))
    report = {
        "what": f"one-pair calls and ({CELL_ROWS}, {N}) stacks at n = {N}, compressive calls at "
                f"n = {N_COMPRESSIVE} and a single-bin call at n = {N_LONG}: per process, the fastest of {BLOCKS} blocks of "
                f"{max(1, args.calls // BLOCKS)} calls ({max(1, args.calls // BLOCKS // CHECK_SHARE)} for the "
                f"4096-point checks), in microseconds per call; "
                f"{args.rounds} processes per tree" + (", alternating" if len(sides) > 1 else ""),
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu_count": os.cpu_count(), "platform": platform.platform()},
        "trees": {"working": "src/ of this checkout", **({"against": args.against} if args.against else {})},
        "calls": {name: {side: _summary([run[name] for run in runs[side]]) for side in sides}
                  for name in runs["working"][0]},
    }
    if "against" in sides:
        for name, entry in report["calls"].items():
            entry["working_over_against"] = entry["working"]["median_us"] / entry["against"]["median_us"]
            # The two processes of a round ran back to back, so their ratio
            # is less exposed to a host whose speed drifts over seconds.
            entry["round_ratio_median"] = statistics.median(
                w[name] / a[name] for w, a in zip(runs["working"], runs["against"]))
    report["runs"] = runs
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()

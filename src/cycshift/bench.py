"""Monte-Carlo benchmark harness: success rates over a noise sweep.

Each trial plants a uniform random shift on a fresh Gaussian signal,
adds white Gaussian noise at the requested SNR, and asks an estimator
for the shift back. SNR is defined as ||signal||^2 / (n * sigma^2);
the sentinel value ``inf`` gives the noiseless row.

Determinism: every trial draws from its own generator seeded by
(master seed, trial index), so results do not depend on the order the
(snr, method) cells run in and trials of the same index share signal,
shift and raw noise across cells. Each trial is drawn once, and every
estimator scores all trials of a cell in one stacked call; the
compressive ones score the (trials, m) measurements that one
:func:`~cycshift.compressive.measure` call per block and side gives.
Elapsed-time columns are the one inherently non-reproducible output;
they cover the estimator calls only (measuring the compressive methods'
inputs is preparation, not timed): the stacked call's time divided by
the trials. Set ``measure_time=False`` to zero them when byte-identical
files matter.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import compressive, retrieval
from .errors import IdentifiabilityError, as_index, as_tuple, real_numbers
from .fileio import comma_list, flag, parse_snr, scalar

__all__ = ["METHODS", "METHOD_TABLE", "estimate", "ExperimentConfig",
           "config_from_mapping", "parse_snr", "noise_sigma",
           "run_bench", "rows_to_csv", "rows_to_json"]

# Method name -> (module, estimator name, whether it takes measurements).
# The estimator is looked up on its module at each call, never stored,
# so whoever rebinds the module attribute (a tracer, a test stub) is seen.
METHOD_TABLE = {
    "crosscorr": (retrieval, "shift_by_crosscorr", False),
    "ratio": (retrieval, "shift_by_ratio", False),
    "single_bin": (retrieval, "shift_single_bin", False),
    "compressive_argmax": (compressive, "shift_by_compressive_argmax", True),
    "compressive_ratio": (compressive, "shift_by_compressive_ratio", True),
}
METHODS = tuple(METHOD_TABLE)
CSV_COLUMNS = ("snr_db", "method", "n", "m", "trials", "success_rate", "mean_elapsed_us")
# Trials are drawn and scored in blocks of about this many samples, so a
# sweep holds a few block-sized stacks at a time whatever its size. Only
# a compressive_ratio cell holds a (trials, m, n) array, its phase
# differences; it gets at most four times as many entries, so full
# sensing at large n scores fewer trials per block.
_BLOCK_SAMPLES = 1 << 18


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark sweep, checked by :meth:`validate` when built."""

    n: int
    trials: int
    seed: int
    snr_db_grid: tuple[float, ...]
    methods: tuple[str, ...] = METHODS
    sensing: tuple[int, ...] | None = None
    output: str | None = None
    fmt: str = "csv"
    measure_time: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError naming the field that is out of range or unknown."""
        as_index(self.n, "n", 2)
        as_index(self.trials, "trials", 1)
        as_index(self.seed, "seed", 0)
        grid = real_numbers(as_tuple(self.snr_db_grid, "snr_db_grid"), "snr_db_grid")
        if not grid.size:
            raise ValueError("snr_db_grid is empty")
        # NaN and -inf fail this test; +inf is the noiseless sentinel.
        if not (grid > -np.inf).all():
            raise ValueError(f"snr_db_grid: NaN and -inf are not SNRs, got {self.snr_db_grid}")
        unknown = [m for m in as_tuple(self.methods, "methods") if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if any(METHOD_TABLE[m][2] for m in self.methods):
            if self.sensing is None:
                raise ValueError("compressive methods need a sensing index list")
            compressive.SensingSet(self.n, self.sensing)  # raises if invalid


def config_from_mapping(raw) -> ExperimentConfig:
    """Build a config from raw values, as read from a file or given as flags.

    Recognized keys: n, trials, seed, snr_db_grid (or snr_db), methods
    (or method), sensing, output (or out), format, measure_time. Values
    are read by the rules of :mod:`cycshift.fileio`.
    """
    known = {"n", "trials", "seed", "snr_db", "snr_db_grid", "methods", "method",
             "sensing", "output", "out", "format", "measure_time"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "n" not in raw or "trials" not in raw or "seed" not in raw:
        raise ValueError("config needs at least n, trials and seed")
    snr_raw = raw.get("snr_db_grid", raw.get("snr_db"))
    if snr_raw is None:
        raise ValueError("config needs snr_db_grid (comma list; 'inf' for noiseless)")
    output = raw.get("output", raw.get("out"))
    if not isinstance(output, (str, type(None))):
        raise ValueError(f"output: expected a path, got {output!r}")
    return ExperimentConfig(
        n=scalar(raw["n"], "n", int),
        trials=scalar(raw["trials"], "trials", int),
        seed=scalar(raw["seed"], "seed", int),
        snr_db_grid=comma_list(snr_raw, "snr_db_grid", parse_snr),
        methods=comma_list(raw.get("methods", raw.get("method", "")), "methods") or METHODS,
        sensing=comma_list(raw.get("sensing", ""), "sensing", int) or None,
        output=output,
        fmt=scalar(raw.get("format", "csv"), "format"),
        measure_time=scalar(raw.get("measure_time", True), "measure_time", flag),
    )


def noise_sigma(x: np.ndarray, snr_db: float):
    """Per-sample noise std for the given SNR, one per row of a stack; 0 for the inf sentinel."""
    if np.isinf(snr_db):
        return 0.0
    snr = 10.0 ** (snr_db / 10.0)
    # vecdot takes the same dot product per row as np.dot on one row.
    sigma = np.sqrt(np.vecdot(x, x) / (x.shape[-1] * snr))
    return sigma if sigma.ndim else float(sigma)


def estimate(method: str, x, y, *args):
    """Run ``method``'s estimator on reference x and shifted y (signals or measurements).

    Measurement estimators take (z, v), the measurements of y and x.
    """
    module, name, measured = METHOD_TABLE[method]
    fn = getattr(module, name)
    return fn(y, x, *args) if measured else fn(x, y, *args)


def run_bench(config: ExperimentConfig) -> list[dict]:
    """Run the sweep and return one row dict per (snr, method) cell."""
    sensing_set = (
        compressive.SensingSet(config.n, config.sensing) if config.sensing else None
    )
    n, grid, methods = config.n, config.snr_db_grid, config.methods
    measured_any = any(METHOD_TABLE[m][2] for m in methods)
    m = sensing_set.m if measured_any else 1
    hits = [[0] * len(methods) for _ in grid]
    elapsed = [[0.0] * len(methods) for _ in grid]
    block = max(1, min(_BLOCK_SAMPLES // n, 4 * _BLOCK_SAMPLES // (m * n)))
    for start in range(0, config.trials, block):
        trials = range(start, min(start + block, config.trials))
        x, shifts, noise = _draw(config.seed, trials, n, not all(np.isinf(grid)))
        # Row t is np.roll(x[t], shifts[t]).
        clean = np.take_along_axis(x, (np.arange(n) - shifts[:, None]) % n, axis=1)
        vx = compressive.measure(x, sensing_set) if measured_any else None
        for i, snr_db in enumerate(grid):
            y = clean if np.isinf(snr_db) else clean + noise_sigma(x, snr_db)[:, None] * noise
            vy = compressive.measure(y, sensing_set) if measured_any else None
            for j, method in enumerate(methods):
                pair = (vx, vy) if METHOD_TABLE[method][2] else (x, y)
                t0 = time.perf_counter()
                hits[i][j] += _stack_hits(method, *pair, shifts)
                elapsed[i][j] += time.perf_counter() - t0
    return [{
        "snr_db": snr_db,
        "method": method,
        "n": n,
        "m": sensing_set.m if METHOD_TABLE[method][2] else n,
        "trials": config.trials,
        "success_rate": hits[i][j] / config.trials,
        "mean_elapsed_us": (
            int(round(elapsed[i][j] / config.trials * 1e6)) if config.measure_time else 0
        ),
    } for i, snr_db in enumerate(grid) for j, method in enumerate(methods)]


def _draw(seed: int, trials, n: int, noisy: bool):
    """Signals, planted shifts and raw noise (or None) of ``trials``, one row each.

    Each trial draws from its own generator, in this order, so a trial
    gets the same values whatever block or cell it is drawn for.
    """
    x = np.empty((len(trials), n))
    shifts = np.empty(len(trials), dtype=np.int64)
    noise = np.empty((len(trials), n)) if noisy else None
    for row, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        x[row] = rng.standard_normal(n)
        shifts[row] = rng.integers(n)
        if noisy:
            noise[row] = rng.standard_normal(n)
    return x, shifts, noise


def _hit(method: str, x, y, s) -> bool:
    try:
        return bool(estimate(method, x, y).shift == s)
    except IdentifiabilityError:
        return False  # counted as a miss


def _stack_hits(method: str, x, y, shifts: np.ndarray) -> int:
    """Hits of one call on stacks of signals or of measurements.

    If a row is unidentifiable, the rows are scored one by one.
    """
    try:
        return int(np.count_nonzero(estimate(method, x, y).shift == shifts))
    except IdentifiabilityError:
        return sum(map(partial(_hit, method), x, y, shifts))


def _fmt_snr(value: float) -> str:
    return "inf" if np.isinf(value) else repr(float(value))


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            _fmt_snr(row["snr_db"]), row["method"], row["n"], row["m"],
            row["trials"], repr(float(row["success_rate"])), row["mean_elapsed_us"],
        ])
    return buf.getvalue()


def rows_to_json(rows) -> str:
    out = [dict(row, snr_db=_fmt_snr(row["snr_db"])) for row in rows]
    return json.dumps(out, indent=2) + "\n"

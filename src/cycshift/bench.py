"""Monte-Carlo benchmark harness: success rates over a noise sweep.

Each trial plants a uniform random shift on a fresh Gaussian signal,
adds white Gaussian noise at the requested SNR, and asks an estimator
for the shift back. SNR is defined as ||signal||^2 / (n * sigma^2);
the sentinel value ``inf`` gives the noiseless row.

Determinism: every trial draws from its own generator seeded by
(master seed, trial index), so results do not depend on the order the
(snr, method) cells run in and trials of the same index share signal,
shift and raw noise across cells. The generator is seeded with the
uint32 words numpy's ``SeedSequence`` reads from that pair, so its
stream is ``np.random.default_rng([seed, trial])``'s; the words are
built once per block of trials. Each trial is drawn once, and every
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

import json
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

# The method table and estimate, re-exported from the package that holds them.
from . import METHOD_TABLE, METHODS, compressive, estimate
from .errors import IdentifiabilityError, as_index, as_tuple, real_floats
from .fileio import comma_list, flag, parse_snr, scalar

__all__ = ["METHODS", "METHOD_TABLE", "estimate", "ExperimentConfig",
           "config_from_mapping", "parse_snr", "noise_sigma",
           "run_bench", "rows_to_csv", "rows_to_json"]

CSV_COLUMNS = ("snr_db", "method", "n", "m", "trials", "success_rate", "mean_elapsed_us")
# Trials are drawn and scored in blocks of about this many samples, so a
# sweep holds a few block-sized stacks at a time whatever its size. Only
# a compressive_ratio cell holds a (trials, m, a*b) array (a*b is n or a
# little more), its phase differences; it gets at most four times as
# many entries, so full sensing at large n scores fewer trials per block.
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
        grid = real_floats(as_tuple(self.snr_db_grid, "snr_db_grid"), "snr_db_grid")
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
        if self.sensing is not None:
            compressive.SensingSet(self.n, self.sensing)  # raises if invalid
        elif any(METHOD_TABLE[m][2] for m in self.methods):
            raise ValueError("compressive methods need a sensing index list")


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


def run_bench(config: ExperimentConfig) -> list[dict]:
    """Run the sweep and return one row dict per (snr, method) cell."""
    n, grid, methods = config.n, config.snr_db_grid, config.methods
    measured_any = any(METHOD_TABLE[m][2] for m in methods)
    sensing_set = compressive.SensingSet(n, config.sensing) if measured_any else None
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
    gets the same values whatever block or cell it is drawn for. Its
    generator is seeded with the uint32 words that numpy's
    ``SeedSequence`` reads from ``[seed, trial]``: the little-endian
    32-bit words of the seed (at least one), then those of the trial.
    numpy takes a uint32 array as it is, so its stream equals
    ``np.random.default_rng([seed, trial])``'s, without converting two
    Python ints per trial.
    """
    x = np.empty((len(trials), n))
    shifts = np.empty(len(trials), dtype=np.int64)
    noise = np.empty((len(trials), n)) if noisy else None
    head = _words(seed, "seed")
    if max(trials, default=0) >> 32:  # a trial of two words or more
        words = [np.array(head + _words(trial, "trial"), dtype=np.uint32) for trial in trials]
    else:
        words = np.empty((len(trials), len(head) + 1), dtype=np.uint32)
        words[:, :-1], words[:, -1] = head, trials
    for row, entropy in enumerate(words):
        rng = np.random.default_rng(entropy)
        rng.standard_normal(out=x[row])
        shifts[row] = rng.integers(n)
        if noisy:
            rng.standard_normal(out=noise[row])
    return x, shifts, noise


def _words(value, what: str) -> list[int]:
    """The little-endian 32-bit words of the nonnegative integer ``what``, at least one."""
    value = as_index(value, what, 0)
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


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
    # No field can hold a comma, a quote or a line break, so none is quoted.
    lines = [CSV_COLUMNS] + [(_fmt_snr(row["snr_db"]), row["method"], row["n"], row["m"], row["trials"],
                              repr(float(row["success_rate"])), row["mean_elapsed_us"]) for row in rows]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def rows_to_json(rows) -> str:
    out = [dict(row, snr_db=_fmt_snr(row["snr_db"])) for row in rows]
    return json.dumps(out, indent=2) + "\n"

"""Monte-Carlo benchmark harness: success rates over a noise sweep.

Each trial plants a uniform random shift on a fresh Gaussian signal,
adds white Gaussian noise at the requested SNR, and asks an estimator
for the shift back. SNR is defined as ||signal||^2 / (n * sigma^2);
the sentinel value ``inf`` gives the noiseless row.

Determinism: every trial draws from its own generator seeded by
(master seed, trial index), so results do not depend on the order the
(snr, method) cells run in and trials of the same index share signal,
shift and raw noise across cells. Elapsed-time columns are the one
inherently non-reproducible output; they cover the estimator call only
(measuring the compressive methods' inputs is preparation, not timed).
Set ``measure_time=False`` to zero them when byte-identical files matter.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from . import compressive, retrieval
from .errors import IdentifiabilityError
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark sweep."""

    n: int
    trials: int
    seed: int
    snr_db_grid: tuple[float, ...]
    methods: tuple[str, ...] = METHODS
    sensing: tuple[int, ...] | None = None
    output: str | None = None
    fmt: str = "csv"
    measure_time: bool = True

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.snr_db_grid:
            raise ValueError("snr_db_grid is empty")
        unknown = [m for m in self.methods if m not in METHODS]
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


def noise_sigma(x: np.ndarray, snr_db: float) -> float:
    """Per-sample noise std for the given SNR; 0 for the inf sentinel."""
    if np.isinf(snr_db):
        return 0.0
    snr = 10.0 ** (snr_db / 10.0)
    return float(np.sqrt(np.dot(x, x) / (x.size * snr)))


def estimate(method: str, x, y, *args):
    """Run ``method``'s estimator on reference x and shifted y (signals or measurements).

    Measurement estimators take (z, v), the measurements of y and x.
    """
    module, name, measured = METHOD_TABLE[method]
    fn = getattr(module, name)
    return fn(y, x, *args) if measured else fn(x, y, *args)


def run_bench(config: ExperimentConfig) -> list[dict]:
    """Run the sweep and return one row dict per (snr, method) cell."""
    config.validate()
    sensing_set = (
        compressive.SensingSet(config.n, config.sensing) if config.sensing else None
    )
    rows = []
    for snr_db in config.snr_db_grid:
        for method in config.methods:
            measured = METHOD_TABLE[method][2]
            successes = 0
            elapsed = 0.0
            for trial in range(config.trials):
                rng = np.random.default_rng([config.seed, trial])
                x = rng.standard_normal(config.n)
                s_true = int(rng.integers(config.n))
                y = np.roll(x, s_true)
                sigma = noise_sigma(x, snr_db)
                if sigma > 0.0:
                    y = y + sigma * rng.standard_normal(config.n)
                if measured:
                    x = compressive.measure(x, sensing_set)
                    y = compressive.measure(y, sensing_set)
                t0 = time.perf_counter()
                try:
                    s_hat = estimate(method, x, y).shift
                except IdentifiabilityError:
                    s_hat = None  # counted as a miss
                elapsed += time.perf_counter() - t0
                successes += int(s_hat == s_true)
            rows.append({
                "snr_db": snr_db,
                "method": method,
                "n": config.n,
                "m": sensing_set.m if measured else config.n,
                "trials": config.trials,
                "success_rate": successes / config.trials,
                "mean_elapsed_us": (
                    int(round(elapsed / config.trials * 1e6)) if config.measure_time else 0
                ),
            })
    return rows


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

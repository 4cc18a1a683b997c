"""Command-line interface.

Subcommands: ``gen`` (write a test signal), ``retrieve`` (estimate the
shift between two files), ``bench`` (Monte-Carlo success-rate sweep),
``check-sensing`` (diagnose a sensing set) and ``selftest`` (built-in
consistency suites).

Exit codes: 0 success, 1 usage or parse failure, 2 identifiability
failure (no usable bin, ambiguous sensing).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import METHOD_TABLE, METHODS, __version__, compressive, estimate
from .errors import IdentifiabilityError, as_index
from .fileio import comma_list, load_any, load_signal, read_config, save_signal, scalar

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNIDENTIFIABLE = 2

SIGNAL_KINDS = ("gaussian", "uniform", "impulse-train")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to our exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _generate(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal(n)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, n)
    out = np.zeros(n)  # impulse-train
    out[::3] = 1.0  # comb with period 3: [1,0,0,1,0,0,...]
    return out


def _cmd_gen(args) -> int:
    n = as_index(scalar(args.n, "--n", int), "--n", 1)
    seed = as_index(scalar(args.seed, "--seed", int), "--seed", 0)
    save_signal(args.out, _generate(args.kind, n, seed))
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    if args.bin is not None and args.method != "single_bin":
        raise ValueError(f"--bin applies to --method single_bin only, not {args.method!r}")
    # Signal or measurement files, told apart by the single read that loads them.
    x, y = load_any(args.x), load_any(args.y)
    measured = isinstance(x, compressive.Measurement)
    if measured != isinstance(y, compressive.Measurement):
        raise ValueError("x and y files must both be signals or both be measurements")
    if not measured and x.size != y.size:
        raise ValueError(f"length mismatch: {args.x} has {x.size}, {args.y} has {y.size}")
    takes_measurements = METHOD_TABLE[args.method][2]
    if measured and not takes_measurements:
        raise ValueError(f"measurement files require a compressive method, not {args.method!r}")
    if args.sensing is not None and not takes_measurements:
        raise ValueError(f"--sensing applies to compressive methods only, not {args.method!r}")
    if measured and args.sensing and comma_list(args.sensing, "--sensing", int) != x.sensing.indices:
        raise ValueError(f"--sensing {args.sensing} differs from the files' K {x.sensing.indices}")
    if takes_measurements and not measured:
        if args.sensing is None:
            raise ValueError("compressive methods need --sensing (e.g. --sensing 1,3)")
        sensing = compressive.SensingSet(x.size, comma_list(args.sensing, "--sensing", int))
        x, y = compressive.measure(x, sensing), compressive.measure(y, sensing)
    i = None if args.bin is None else scalar(args.bin, "--bin", int)
    extra = (i,) if args.method == "single_bin" else ()

    t0 = time.perf_counter()
    est = estimate(args.method, x, y, *extra)
    elapsed_us = int(round((time.perf_counter() - t0) * 1e6))

    print(json.dumps({
        "method": est.method,
        "n": est.n,
        "shift": est.shift,
        "score": est.score,
        "flags": list(est.flags),
        "elapsed_microseconds": elapsed_us,
    }))
    return EXIT_UNIDENTIFIABLE if "ambiguous" in est.flags else EXIT_OK


def _cmd_bench(args) -> int:
    # Imported here, as for selftest: retrieve's start-up stays free of the sweep and csv.
    from . import bench

    if not args.config and None in (args.n, args.trials, args.snr_db_grid):
        raise ValueError("bench needs --config, or all of --n, --trials and --snr-db")
    # Set flags, each stored under its config key, override the file (seed 0 without one).
    raw = read_config(args.config) if args.config else {"seed": 0}
    config = bench.config_from_mapping({**raw, **{
        key: value for key, value in vars(args).items()
        if value is not None and key not in ("command", "func", "config")}})

    rows = bench.run_bench(config)
    text = bench.rows_to_json(rows) if config.fmt == "json" else bench.rows_to_csv(rows)
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_check_sensing(args) -> int:
    x = load_signal(args.x)
    sensing = compressive.SensingSet(x.size, comma_list(args.sensing, "--sensing", int))
    report = compressive.check_sensing_conditions(x, sensing)
    print(json.dumps(dataclasses.asdict(report)))
    return EXIT_OK if report.guarantee_holds and not report.ambiguous else EXIT_UNIDENTIFIABLE


def _cmd_selftest(args) -> int:
    # Imported here: the oracles it runs stay off every other command's start-up.
    from .oracle import PAIRS

    # One group per row of the oracle table, each run at its own field sizes.
    results = [(pair.name, *pair.check()) for pair in PAIRS]
    for name, ok, detail in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    failed = [name for name, ok, _ in results if not ok]
    print(f"selftest: {len(results) - len(failed)}/{len(results)} groups passed")
    return EXIT_OK if not failed else EXIT_UNIDENTIFIABLE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cycshift", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a deterministic test signal file")
    p_gen.add_argument("--n", required=True, help="signal length")
    p_gen.add_argument("--seed", default=0, help="rng seed")
    p_gen.add_argument("--kind", choices=SIGNAL_KINDS, default="gaussian")
    p_gen.add_argument("--out", required=True, help="output path")
    p_gen.set_defaults(func=_cmd_gen)

    p_ret = sub.add_parser("retrieve", help="estimate the cyclic shift between two files")
    p_ret.add_argument("x", help="reference file (signal, or measurement with # K= header)")
    p_ret.add_argument("y", help="shifted file (same kind as x)")
    p_ret.add_argument("--method", choices=METHODS, default="crosscorr")
    p_ret.add_argument("--bin", default=None,
                       help="spectral bin for single_bin (must be coprime with n)")
    p_ret.add_argument("--sensing", default=None,
                       help="comma-separated frequency indices for compressive methods")
    p_ret.set_defaults(func=_cmd_retrieve)

    p_bench = sub.add_parser("bench", help="Monte-Carlo success-rate sweep to CSV/JSON")
    p_bench.add_argument("--config", default=None, help="JSON or key=value config file")
    p_bench.add_argument("--n", default=None)
    p_bench.add_argument("--trials", default=None)
    p_bench.add_argument("--seed", default=None)
    p_bench.add_argument("--snr-db", dest="snr_db_grid", metavar="SNR_DB", default=None,
                         help="comma list of SNRs in dB; 'inf' for noiseless")
    p_bench.add_argument("--methods", default=None, help="comma list of methods")
    p_bench.add_argument("--sensing", default=None, help="comma list of frequency indices")
    p_bench.add_argument("--out", dest="output", metavar="OUT", default=None,
                         help="output path (default stdout)")
    p_bench.add_argument("--format", choices=("csv", "json"), default=None)
    p_bench.add_argument("--no-timing", dest="measure_time", action="store_false", default=None,
                         help="zero the elapsed-time column for byte-reproducible output")
    p_bench.set_defaults(func=_cmd_bench)

    p_chk = sub.add_parser("check-sensing", help="diagnose a sensing set for a signal")
    p_chk.add_argument("x", help="signal file")
    p_chk.add_argument("--sensing", required=True, help="comma-separated frequency indices")
    p_chk.set_defaults(func=_cmd_check_sensing)

    p_self = sub.add_parser("selftest", help="run the built-in consistency suites")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IdentifiabilityError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_UNIDENTIFIABLE
    except (ValueError, OSError) as exc:
        print(f"cycshift: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

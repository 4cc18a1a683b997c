"""Benchmark of cycshift: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long-signal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

One caller makes one call at a time (a closed loop). Every call goes
through a correctness gate that checks the planted shift, the expected
flags and, for the CLI, the expected exit code.

``--trace 0`` sets the workload up three times in fresh processes (the
median is ``setup_s``), sets it up once more here, then calls it until
``--seconds`` have passed and at least 100 calls were made, and prints
the end-to-end metrics named in BENCHMARK.json.

Timings are normalised to machine speed. The host this benchmark was
built on is shared, and its speed drifts by tens of percent over
minutes, so raw wall times of two runs differ by more than the changes
a benchmark must resolve. Every 0.5 s the timed loop therefore runs a
fixed reference kernel that shares no code with cycshift, and each
call's latency is scaled by the kernel's nominal time over its measured
time around that call; set-up probes are scaled the same way, and
``ops_per_s`` is estimates over the scaled time spent inside calls. The
kernel does the same kind of work as the workload's dominant layer, so
host contention slows both by similar factors: ``transform`` (a
2^18-point numpy FFT) for long-signal, ``interpreter`` (a Python loop, a
2^16-point FFT and small-array numpy calls) for the others. The raw
(unscaled) figures are printed and saved beside them.

``--trace 1`` makes a fixed number of calls with every layer wrapped
(see spans.py and layers.json), restores the program, makes the same
kinds of calls again untraced, and prints the per-layer metrics:
per-span call counts and self times, layer counters, import timings and
``trace_overhead`` (traced over untraced throughput).

Human-readable lines, including a machine fingerprint, come first. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and results are also
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_CALLS = 100       # so that at least ten latency samples lie beyond p90
SETUP_PROBES = 3      # fresh-process set-ups per run; setup_s is their median
IMPORT_PROBES = 3     # `python -X importtime` runs per traced run
# Nominal reference-kernel times: normalised figures read as wall-clock
# figures on a host where the kernels take this long. They are close to
# the kernels' typical in-run times on the 2-vCPU host the benchmark was
# built on.
REF_NS = {"interpreter": 15_000_000, "transform": 20_000_000}
REF_EVERY_NS = 500_000_000
WORKLOAD_NAMES = ("long-signal", "compressive-fresh", "sweep", "cli")


@dataclass
class Stats:
    """What one pass of calls did."""

    latencies_ns: list[int] = field(default_factory=list)
    starts_ns: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    estimates: int = 0
    hits: int = 0
    wall_ns: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.wall_ns / 1e9)


class Speedometer:
    """Samples a fixed reference kernel to express timings in reference-machine time."""

    def __init__(self, kernel: str):
        import numpy as np

        self._np = np
        self._run = getattr(self, f"_{kernel}")
        self.nominal_ns = REF_NS[kernel]
        self._x = np.random.default_rng(0).standard_normal(1 << (18 if kernel == "transform" else 16))
        self._v = self._x[:64].copy()
        self.samples: list[tuple[int, int]] = []  # (start time, kernel ns)

    def _interpreter(self) -> None:
        np = self._np
        acc = 0
        for i in range(10_000):
            acc += i * i
        for _ in range(2):
            np.fft.ifft(np.fft.fft(self._x))
        for _ in range(200):
            np.abs(self._v - self._v[3]).max()

    def _transform(self) -> None:
        self._np.fft.ifft(self._np.fft.fft(self._x))

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        self._run()
        self.samples.append((t0, time.perf_counter_ns() - t0))

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter_ns() - self.samples[-1][0] >= REF_EVERY_NS:
            self.sample()

    def scale(self, t_ns: int) -> float:
        """Nominal over the median kernel time of the three samples nearest ``t_ns``."""
        j = bisect.bisect_left(self.samples, (t_ns,))
        j = min(max(j, 0), len(self.samples) - 1)
        near = [ns for _, ns in self.samples[max(0, j - 1): j + 2]]
        return self.nominal_ns / statistics.median(near)


def run_calls(wl, indices, tracer=None, seconds: float | None = None, min_calls: int = 0,
              speed: Speedometer | None = None) -> Stats:
    """Make the calls ``indices`` one after another and gate each answer.

    With ``seconds`` the pass stops once that much time has passed and at
    least ``min_calls`` calls were made. With ``speed`` the reference
    kernel is sampled between calls.
    """
    stats = Stats()
    start = time.perf_counter_ns()
    for i in indices:
        if speed is not None:
            speed.sample_if_due()
        case = wl.case(i, tracer)
        if tracer is not None:
            tracer.call_id = i
        t0 = time.perf_counter_ns()
        try:
            result = case.run()
            latency = time.perf_counter_ns() - t0
            stats.ops += case.ops
            verdict = case.check(result)
        except Exception:  # a call or its check that raises is a failed call
            latency = time.perf_counter_ns() - t0
            if stats.failed == 0:
                print(f"call {i} ({case.kind}) raised:\n{traceback.format_exc()}", file=sys.stderr)
            verdict = None
        stats.latencies_ns.append(latency)
        stats.starts_ns.append(t0)
        stats.kinds.append(case.kind)
        if verdict is None or not verdict.ok:
            stats.failed += 1
            if verdict is not None and stats.failed == 1:
                print(f"call {i} ({case.kind}) failed the correctness gate", file=sys.stderr)
        if verdict is not None:
            stats.estimates += verdict.estimates
            stats.hits += verdict.hits
        if seconds is not None and (time.perf_counter_ns() - start >= seconds * 1e9
                                    and stats.attempted >= min_calls):
            break
    stats.wall_ns = time.perf_counter_ns() - start
    return stats


def first_index(after: int, period: int) -> int:
    """Smallest multiple of ``period`` that is >= ``after``."""
    return -(-after // period) * period


@contextlib.contextmanager
def workdir():
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(name: str, seed: int, path):
    """Build the workload's inputs and make its warm-up calls."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, path)
    warm = run_calls(wl, range(wl.warmup))
    return wl, warm


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe of {name} failed (exit {code}, said {line!r})")
    return elapsed


def p50_p90(values) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, Stats, Stats, dict]:
    from workloads import WORKLOADS

    speed = Speedometer(WORKLOADS[name].reference)
    setup_raw, setup = [], []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter_ns()
        setup_raw.append(probe_setup(name, seed))
        speed.sample()
        setup.append(setup_raw[-1] * speed.scale(t0))
    with workdir() as path:
        wl, warm = set_up(name, seed, path)
        stats = run_calls(wl, count(first_index(wl.warmup, wl.period)),
                          seconds=seconds, min_calls=MIN_CALLS, speed=speed)
        speed.sample()
        child_kb = getattr(wl, "peak_child_kb", 0)
    raw_ms = [ns / 1e6 for ns in stats.latencies_ns]
    lat_ms = [ms * speed.scale(t) for ms, t in zip(raw_ms, stats.starts_ns)]
    p50, p90 = p50_p90(lat_ms)
    rss_kb = child_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": stats.ops / (sum(lat_ms) / 1e3),
        "call_p50_ms": p50,
        "call_p90_ms": p90,
        "pass_rate": 1.0 - stats.failed / stats.attempted,
        "accuracy": stats.hits / stats.estimates,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    kernel_ms = [ns / 1e6 for _, ns in speed.samples]
    details = {
        "calls": stats.attempted,
        "calls_beyond_p90": sum(v > p90 for v in lat_ms),
        "error_rate": stats.failed / stats.attempted,
        "estimates": stats.estimates,
        "reference_kernel_ms": {"kernel": WORKLOADS[name].reference, "samples": len(kernel_ms),
                                "median": statistics.median(kernel_ms),
                                "min": min(kernel_ms), "max": max(kernel_ms)},
        "raw": {"setup_s": statistics.median(setup_raw), "setup_samples_s": setup_raw,
                "ops_per_s_wall": stats.ops_per_s, "ops_per_s_in_calls": stats.ops / (sum(raw_ms) / 1e3),
                "call_p50_ms": p50_p90(raw_ms)[0], "call_p90_ms": p50_p90(raw_ms)[1],
                "wall_s": stats.wall_ns / 1e9},
        "per_kind_raw": per_kind(stats),
    }
    return metrics, stats, warm, details


def per_kind(stats: Stats) -> dict:
    groups: dict[str, list[int]] = {}
    for kind, ns in zip(stats.kinds, stats.latencies_ns):
        groups.setdefault(kind, []).append(ns)
    return {k: {"calls": len(v), "p50_ms": statistics.median(v) / 1e6} for k, v in groups.items()}


def import_times() -> tuple[float, float]:
    """Median ms to import cycshift.cli, and numpy within it, in a fresh interpreter."""
    from workloads import child_env, run_child

    total, numpy_ms = [], []
    for _ in range(IMPORT_PROBES):
        code, out, _ = run_child([sys.executable, "-X", "importtime", "-c", "import cycshift.cli"],
                                 child_env())
        if code != 0:
            raise RuntimeError(f"importing cycshift.cli failed:\n{out}")
        top = np_us = 0
        for line in out.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, package = line.split("|")
            # Nesting shows as indentation after one separating space.
            if package[1:].startswith("cycshift"):
                top += int(cumulative)
            if package.strip() == "numpy":
                np_us = int(cumulative)
        total.append(top / 1e3)
        numpy_ms.append(np_us / 1e3)
    return statistics.median(total), statistics.median(numpy_ms)


def per_layer(name: str, seed: int) -> tuple[dict, Stats, Stats, dict]:
    from spans import Tracer, load_layers, self_times, span_targets

    layers = load_layers()
    with workdir() as path:
        wl, warm = set_up(name, seed, path)
        base = first_index(wl.warmup, wl.period)
        shift = first_index(wl.trace_calls, wl.period)
        tracer = Tracer(layers)
        with tracer.installed():
            traced = run_calls(wl, range(base, base + wl.trace_calls), tracer)
        plain = run_calls(wl, range(base + shift, base + shift + wl.trace_calls))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")

    own = self_times(tracer.spans)
    metrics: dict[str, float] = {}
    for span in span_targets(layers):
        calls, ns = own.get(span, (0, 0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_ms"] = ns / 1e6
    counters = tracer.counters
    for counter in ("numpy.fft.points", "spectral.dft_entry.points", "fileio.bytes_read"):
        metrics[counter] = counters.get(counter, 0)
    attempts = (metrics["compressive.shift_by_compressive_argmax.calls"]
                + metrics["compressive.shift_by_compressive_ratio.calls"])
    metrics["compressive.ambiguous_ratio"] = (
        counters.get("compressive.ambiguous", 0) / attempts if attempts else 0.0)
    metrics["cli.import_ms"], metrics["cli.import_numpy_ms"] = import_times()
    metrics["cli.process_ms"] = own.get("cli.process", (0, 0))[1] / 1e6
    metrics["trace_overhead"] = traced.ops_per_s / plain.ops_per_s

    both = Stats(latencies_ns=traced.latencies_ns + plain.latencies_ns,
                 failed=traced.failed + plain.failed)
    call_ns = sum(traced.latencies_ns)
    by_self = sorted(own.items(), key=lambda kv: -kv[1][1])
    details = {
        "traced_calls": traced.attempted,
        "traced_wall_s": traced.wall_ns / 1e9,
        "untraced_wall_s": plain.wall_ns / 1e9,
        "dominant_span": f"{by_self[0][0]} ({by_self[0][1][1] / call_ns:.1%} of traced call time)",
        "self_ms_by_span": {k: v[1] / 1e6 for k, v in by_self},
        "span_share_of_call_time": sum(ns for _, ns in own.values()) / call_ns,
    }
    return metrics, both, warm, details


def fingerprint() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(np),
        "simd": config.get("SIMD Extensions", {}).get("found"),
        "fft": "numpy.fft " + ("pocketfft_umath" if hasattr(np.fft, "_pocketfft_umath") else "pocketfft"),
        "nproc": affinity,
        "cpu_model": cpu_model,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _blas_threads(np) -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded; None if unknown."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def declared_metrics(key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, machine: dict) -> dict:
    key = "per_layer" if trace else "end_to_end"
    units = declared_metrics(key)
    if trace:
        metrics, stats, warm, details = per_layer(name, seed)
    else:
        metrics, stats, warm, details = end_to_end(name, seed, seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {key}: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": stats.failed == 0 and warm.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(f"== {name}  seed {seed}  trace {int(trace)}")
    for k, v in metrics.items():
        print(f"  {k:<48} {v:>14.6g} {units[k]}")
    for k, v in details.items():
        print(f"  {k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}")
    print(f"  correct: {result['correct']}  attempted {stats.attempted}  failed {stats.failed}"
          f"  (warm-up failed {warm.failed})")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result | {"details": details, "fingerprint": machine}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cycshift" / "__init__.py").is_file():
        print(f"perfbench: no cycshift sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cycshift

    if Path(cycshift.__file__).resolve().parent != SRC / "cycshift":
        print(f"perfbench: imported cycshift from {cycshift.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        with workdir() as path:
            _, warm = set_up(args.workload, args.seed, path)
            print("ready" if warm.failed == 0 else "failed", flush=True)
        return 0

    machine = fingerprint()
    print("fingerprint " + json.dumps(machine))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), machine)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

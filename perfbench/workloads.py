"""The four workloads of the cycshift benchmark.

A workload turns a call index ``i`` into one :class:`Case`: inputs drawn
from ``numpy.random.default_rng([seed, ..., i])``, a thunk that makes the
call into the workload's entry point (the only part that is timed), and
a gate that checks the answer against the planted shift. Call kinds
follow a fixed cycle of length ``period``, so two passes of equal length
that start on multiples of ``period`` make the same kinds of calls on
different inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cycshift import bench, circulant, compressive, fileio, retrieval

ROOT = Path(__file__).resolve().parent.parent
CLI_CHILD = Path(__file__).with_name("cli_child.py")


@dataclass
class Verdict:
    """Outcome of the correctness gate for one call."""

    ok: bool            # the call passed the gate
    estimates: int = 0  # shifts returned that were checked against a planted shift
    hits: int = 0       # of those, equal to the planted shift (or in its class)


@dataclass
class Case:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]
    ops: int = 1        # shift estimates one completed call stands for


def same_class(estimate, planted: int, indices, n: int) -> bool:
    """True if ``estimate`` and ``planted`` give identical measurements on bins ``indices``.

    Shifts s and s' are indistinguishable iff k*(s - s') = 0 (mod n) for
    every retained bin k; with any bin coprime to n the class is {planted}.
    """
    return isinstance(estimate, int) and all(k * (estimate - planted) % n == 0 for k in indices)


def _shift_verdict(estimate, planted: int, flags) -> Verdict:
    hit = estimate == planted
    return Verdict(hit and not flags, 1, int(hit))


class LongSignal:
    """Noiseless pairs at n = 2^20: the FFT layer does most of the work."""

    name = "long-signal"
    KINDS = ("crosscorr", "ratio", "single_bin_auto", "single_bin_fixed",
             "affine", "circulant_apply", "ls_circulant_fit")
    period = len(KINDS)
    warmup = 1  # one 2^20 cross-correlation fills numpy's FFT caches
    trace_calls = 2 * period
    reference = "transform"  # speed reference kernel (see run.py)

    def __init__(self, seed: int, workdir, n: int = 1 << 20, fit_shape=(1 << 16, 4)):
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        self.signals = rng.standard_normal((2, n))
        self.fit_x = rng.standard_normal(fit_shape)

    def case(self, i: int, tracer=None) -> Case:
        kind = self.KINDS[i % self.period]
        rng = np.random.default_rng([self.seed, 1, i])
        if kind == "ls_circulant_fit":
            # The fitted circulant of an exactly shifted batch is the shift itself.
            X = self.fit_x
            s = int(rng.integers(X.shape[0]))
            Y = np.roll(X, s, axis=0)
            tol = 1e-9 * float(np.linalg.norm(Y))

            def check_fit(result) -> Verdict:
                fit, residual = result
                col = fit.first_column
                hit = int(np.argmax(col)) == s
                exact = abs(col[s] - 1.0) <= 1e-9 and residual <= tol
                return Verdict(hit and exact, 1, int(hit))

            return Case(kind, lambda: circulant.ls_circulant_fit(X, Y), check_fit)

        x = self.signals[(i // self.period) % 2]
        n = x.size
        s = int(rng.integers(n))
        y = np.roll(x, s)
        if kind in ("crosscorr", "ratio", "single_bin_auto"):
            fn = {"crosscorr": retrieval.shift_by_crosscorr, "ratio": retrieval.shift_by_ratio,
                  "single_bin_auto": retrieval.shift_single_bin}[kind]
            return Case(kind, lambda: fn(x, y), lambda est: _shift_verdict(est.shift, s, est.flags))
        if kind == "single_bin_fixed":
            k = 2 * int(rng.integers(n // 2)) + 1  # odd, so coprime with n = 2^j
            return Case(kind, lambda: retrieval.shift_single_bin(x, y, k),
                        lambda est: _shift_verdict(est.shift, s, est.flags))
        if kind == "affine":
            alpha = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
            beta = float(rng.normal())
            y = alpha * y + beta

            def check_affine(result) -> Verdict:
                model, _ = result
                hit = model.shift == s
                close = (abs(model.alpha - alpha) <= 1e-6 * abs(alpha)
                         and abs(model.beta - beta) <= 1e-6 * (1.0 + abs(beta)))
                return Verdict(hit and close and not model.flags, 1, int(hit))

            return Case(kind, lambda: retrieval.shift_affine(x, y), check_affine)
        # circulant_apply: the circulant whose first column is e_s delays by s.
        column = np.zeros(n)
        column[s] = 1.0
        shift_op = circulant.Circulant(column)
        tol = 1e-9 * float(np.abs(x).max())
        return Case(kind, lambda: shift_op.apply(x),
                    lambda out: Verdict(bool(np.abs(out - y).max() <= tol)))


class CompressiveFresh:
    """n = 4096, a fresh signal and a freshly drawn sensing set on every call."""

    name = "compressive-fresh"
    KINDS = ("argmax", "ratio", "check")
    SIZES = (1, 2, 4)
    period = 72  # kinds x sizes repeat every 9 calls, the even-bin call every 8
    warmup = 3
    trace_calls = 24
    reference = "interpreter"

    def __init__(self, seed: int, workdir, n: int = 4096):
        if n < 16 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        self.seed = seed
        self.n = n

    def _sensing(self, rng, m: int, even: bool) -> compressive.SensingSet:
        n = self.n
        if even:
            # k = 2 * odd: gcd(n, K) = 2, so every shift shares its
            # measurements with exactly one other, s + n/2.
            odd = 2 * rng.choice(n // 4, size=m, replace=False) + 1
            idx = 2 * odd
        else:
            # One odd bin is coprime with n = 2^j and pins the shift down.
            first = 2 * int(rng.integers(n // 2)) + 1
            rest = rng.choice(np.delete(np.arange(1, n), first - 1), size=m - 1, replace=False)
            idx = np.append(rest, first)
        return compressive.SensingSet(n, tuple(sorted(int(k) for k in idx)))

    def case(self, i: int, tracer=None) -> Case:
        kind = self.KINDS[i % 3]
        m = self.SIZES[(i // 3) % 3]
        even = i % 8 == 7
        rng = np.random.default_rng([self.seed, 2, i])
        n = self.n
        x = rng.standard_normal(n)
        s = int(rng.integers(n))
        y = np.roll(x, s)
        K = self._sensing(rng, m, even)
        label = f"{kind}/m{m}" + ("/even" if even else "")

        if kind == "check":
            def check_report(rep) -> Verdict:
                groups = rep.duplicate_shift_groups
                if even:
                    shape_ok = len(groups) == n // 2 and all(len(g) == 2 for g in groups)
                else:
                    shape_ok = not groups
                return Verdict(rep.ambiguous == even and rep.guarantee_holds != even and shape_ok)

            return Case(label, lambda: compressive.check_sensing_conditions(x, K), check_report)

        estimator = (compressive.shift_by_compressive_argmax if kind == "argmax"
                     else compressive.shift_by_compressive_ratio)

        def check_estimate(est) -> Verdict:
            hit = same_class(est.shift, s, K.indices, n)
            flags_ok = ("ambiguous" in est.flags) == even and "dropped_bins" not in est.flags
            return Verdict(hit and flags_ok, 1, int(hit))

        return Case(label, lambda: estimator(compressive.measure(y, K), compressive.measure(x, K)),
                    check_estimate)


class Sweep:
    """One run_bench call per (seed, SNR, method) cell at n = 64."""

    name = "sweep"
    SNRS = (float("inf"), 0.0, -10.0)
    CELLS = tuple((snr, method) for snr in SNRS for method in bench.METHODS)
    TRIALS = 20
    SENSING = (1, 3)
    period = len(CELLS)
    warmup = period
    trace_calls = 20 * period
    reference = "interpreter"

    def __init__(self, seed: int, workdir, n: int = 64):
        self.seed = seed
        self.n = n

    def case(self, i: int, tracer=None) -> Case:
        snr, method = self.CELLS[i % self.period]
        cell_seed = int(np.random.SeedSequence([self.seed, 3, i // self.period]).generate_state(1)[0])
        config = bench.ExperimentConfig(
            n=self.n, trials=self.TRIALS, seed=cell_seed, snr_db_grid=(snr,),
            methods=(method,), sensing=self.SENSING, measure_time=False,
        )

        def check_rows(rows) -> Verdict:
            (row,) = rows
            hits = round(row["success_rate"] * self.TRIALS)
            well_formed = (row["method"] == method and row["trials"] == self.TRIALS
                           and row["success_rate"] == hits / self.TRIALS)
            # Noiseless cells must recover every planted shift.
            ok = well_formed and (hits == self.TRIALS or snr != float("inf"))
            return Verdict(ok, self.TRIALS, hits)

        return Case(f"{method}@{snr:g}dB", lambda: bench.run_bench(config), check_rows,
                    ops=self.TRIALS)


def run_child(argv, env=None) -> tuple[int, str, int]:
    """Run one child process to completion.

    Returns (exit code, stdout and stderr merged, the child's own peak
    RSS in kB as reported by wait4).
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _last_json(text: str):
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


class Cli:
    """One `cycshift retrieve` process at a time on files written at set-up."""

    name = "cli"
    KINDS = ("crosscorr", "ratio", "single_bin", "compressive_ratio", "ambiguous", "mismatch")
    period = len(KINDS)
    warmup = 1
    trace_calls = 2 * period
    reference = "interpreter"

    def __init__(self, seed: int, workdir, n: int = 1 << 16, n_meas: int = 4096):
        rng = np.random.default_rng([seed, 4])
        d = Path(workdir)
        self.workdir = d
        self.env = child_env()
        self.peak_child_kb = 0

        x = rng.standard_normal(n)
        s_sig = int(rng.integers(n))
        fileio.save_signal(d / "x.txt", x)
        fileio.save_signal(d / "y.txt", np.roll(x, s_sig))
        fileio.save_signal(d / "short.txt", x[: n - 1])

        def measured(tag: str, indices):
            xm = rng.standard_normal(n_meas)
            s = int(rng.integers(n_meas))
            K = compressive.SensingSet(n_meas, indices)
            fileio.save_measurement(d / f"{tag}_x.txt", compressive.measure(xm, K))
            fileio.save_measurement(d / f"{tag}_y.txt", compressive.measure(np.roll(xm, s), K))
            return s

        s_meas = measured("meas", (1, 3))
        s_amb = measured("amb", (2, 6))

        sig = [str(d / "x.txt"), str(d / "y.txt")]
        # kind -> (retrieve arguments, expected exit code, planted shift, retained bins)
        self.calls = {
            "crosscorr": (sig + ["--method", "crosscorr"], 0, s_sig, (1,), n),
            "ratio": (sig + ["--method", "ratio"], 0, s_sig, (1,), n),
            "single_bin": (sig + ["--method", "single_bin", "--bin", "1"], 0, s_sig, (1,), n),
            "compressive_ratio": ([str(d / "meas_x.txt"), str(d / "meas_y.txt"),
                                   "--method", "compressive_ratio"], 0, s_meas, (1, 3), n_meas),
            "ambiguous": ([str(d / "amb_x.txt"), str(d / "amb_y.txt"),
                           "--method", "compressive_ratio"], 2, s_amb, (2, 6), n_meas),
            "mismatch": ([str(d / "x.txt"), str(d / "short.txt"), "--method", "crosscorr"],
                         1, None, (), n),
        }

    def _run(self, argv, tracer, i: int):
        if tracer is None:
            rc, out, kb = run_child([sys.executable, "-m", "cycshift.cli", "retrieve", *argv],
                                    self.env)
        else:
            spans_file = self.workdir / f"spans-{i}.json"
            idx = tracer.begin("cli.process")
            try:
                rc, out, kb = run_child([sys.executable, str(CLI_CHILD), str(spans_file),
                                         "retrieve", *argv], self.env)
            finally:
                tracer.end(idx)
            with open(spans_file, encoding="utf-8") as fh:
                record = json.load(fh)
            os.remove(spans_file)
            tracer.adopt(record["spans"], record["counters"], idx)
        self.peak_child_kb = max(self.peak_child_kb, kb)
        return rc, out

    def case(self, i: int, tracer=None) -> Case:
        kind = self.KINDS[i % self.period]
        argv, want_rc, planted, indices, n = self.calls[kind]

        def check(result) -> Verdict:
            rc, out = result
            if planted is None:
                return Verdict(rc == want_rc and "length mismatch" in out)
            est = _last_json(out) or {}
            hit = same_class(est.get("shift"), planted, indices, n)
            flags = est.get("flags")
            flags_ok = flags == (["ambiguous"] if kind == "ambiguous" else [])
            return Verdict(rc == want_rc and hit and flags_ok, 1, int(hit))

        return Case(kind, lambda: self._run(argv, tracer, i), check)


WORKLOADS = {w.name: w for w in (LongSignal, CompressiveFresh, Sweep, Cli)}

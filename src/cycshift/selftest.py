"""Built-in consistency suites, runnable in the field via the CLI.

Each group cross-checks a fast path against an independent slow one at
small sizes (n <= 16) and reports pass/fail.
"""

from __future__ import annotations

import numpy as np

from . import compressive, oracle, retrieval, spectral
from .circulant import ls_circulant_fit

__all__ = ["run_selftest", "GROUPS"]

_SEED = 20240813
_MAX_N = 16


def _group_unitarity() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for n in range(1, _MAX_N + 1):
        x = rng.standard_normal(n)
        X = spectral.dft(x)
        worst = max(worst, abs(np.linalg.norm(X) - np.linalg.norm(x)))
        worst = max(worst, float(np.abs(spectral.idft(X) - x).max()))
        worst = max(worst, float(np.abs(X - oracle.naive_dft(x)).max()))
    return worst < 1e-10, f"max deviation {worst:.3e}"


def _group_oracle_equivalence() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 1)
    checked = 0
    for n in range(2, _MAX_N + 1):
        x = rng.standard_normal(n)
        for s in range(n):
            y = np.roll(x, s)
            answers = {
                oracle.brute_force_shift(x, y).shift,
                retrieval.shift_by_crosscorr(x, y).shift,
                retrieval.shift_by_ratio(x, y).shift,
                retrieval.shift_single_bin(x, y).shift,
            }
            if answers != {s}:
                return False, f"disagreement at n={n}, s={s}: {sorted(answers)}"
            checked += 1
    return True, f"{checked} planted shifts agree across 4 estimators"


def _group_ratio_exactness() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for n in range(2, _MAX_N + 1):
        x = rng.standard_normal(n)
        for s in range(n):
            est = retrieval.shift_by_ratio(x, np.roll(x, s))
            impulse = np.zeros(n)
            impulse[s] = 1.0
            worst = max(worst, float(np.abs(est.scores - impulse).max()))
    return worst < 1e-9, f"max impulse deviation {worst:.3e}"


def _group_circulant_fit() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 3)
    worst = 0.0
    for n in range(2, 9):
        c0 = rng.standard_normal(n)
        X = rng.standard_normal((n, 3))
        Y_exact = np.stack(
            [sum(c0[q] * np.roll(X[:, j], q) for q in range(n)) for j in range(3)], axis=1
        )
        fit, res = ls_circulant_fit(X, Y_exact)
        worst = max(worst, float(np.abs(fit.first_column - c0).max()), res)
        Y = rng.standard_normal((n, 2))
        X2 = rng.standard_normal((n, 2))
        _, res_fast = ls_circulant_fit(X2, Y)
        _, res_slow = oracle.brute_force_circulant_fit(X2, Y)
        worst = max(worst, abs(res_fast - res_slow))
    return worst < 1e-8, f"max fit deviation {worst:.3e}"


def _group_compressive_identity() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 4)
    worst = 0.0
    for n in (5, 8, 12, 16):
        x = rng.standard_normal(n)
        for indices in [(1,), (1, 3), tuple(range(n))]:
            sensing = compressive.SensingSet(n, indices)
            v = compressive.measure(x, sensing)
            for s in range(n):
                z = compressive.measure(np.roll(x, s), sensing)
                lhs, rhs = oracle.argmax_identity_check(z, v, s)
                worst = max(worst, abs(lhs - rhs))
        full = compressive.SensingSet(n, tuple(range(n)))
        v = compressive.measure(x, full)
        s = int(rng.integers(n))
        z = compressive.measure(np.roll(x, s), full)
        if compressive.shift_by_compressive_argmax(z, v).shift != s:
            return False, f"full-sensing argmax missed planted shift at n={n}"
        if compressive.shift_by_compressive_ratio(z, v).shift != s:
            return False, f"full-sensing ratio missed planted shift at n={n}"
    return worst < 1e-9, f"max identity gap {worst:.3e}"


def _group_sensing_ambiguity() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 5)
    x = rng.standard_normal(8)
    bad = compressive.check_sensing_conditions(x, compressive.SensingSet(8, (4,)))
    good = compressive.check_sensing_conditions(x, compressive.SensingSet(8, (1,)))
    if not bad.ambiguous or bad.guarantee_holds:
        return False, "K={4} at n=8 should be ambiguous with no guarantee"
    if good.ambiguous or not good.guarantee_holds:
        return False, "K={1} at n=8 should be clean"
    return True, "K={4} flagged, K={1} clean"


GROUPS = (
    ("fourier-unitarity", _group_unitarity),
    ("shift-oracle-equivalence", _group_oracle_equivalence),
    ("ratio-exactness", _group_ratio_exactness),
    ("circulant-fit", _group_circulant_fit),
    ("compressive-identities", _group_compressive_identity),
    ("sensing-ambiguity", _group_sensing_ambiguity),
)


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every group; returns (name, passed, detail) triples."""
    return [(name, *fn()) for name, fn in GROUPS]

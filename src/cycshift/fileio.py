"""Plain-text files and the one owner of every rule that turns input text into values.

Signal files hold one real value per line with an optional ``# n=<n>``
header. Measurement files carry their sensing set inline (``# n=<n>``
and ``# K=<k1,k2,...>`` headers) followed by one ``re,im`` pair per
line; a measurement without its sensing set would be meaningless.
Bench configs are a JSON object or ``key=value`` lines. Errors name
the file, flag or key at fault. Floats are written with ``repr`` so
files round-trip exactly and are byte-stable for a given input.
"""

from __future__ import annotations

import json

import numpy as np

from .compressive import Measurement, SensingSet
from .errors import real_array, require_finite

__all__ = ["save_signal", "load_signal", "save_measurement", "load_measurement", "load_any",
           "sniff_kind", "read_config"]


def save_signal(path, values) -> None:
    """Write a signal file. Raises ValueError on complex, NaN or infinite values."""
    values = real_array(values, "values")
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"values must be one nonempty signal, got shape {values.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={values.size}\n")
        for v in values:
            fh.write(repr(float(v)) + "\n")


def save_measurement(path, meas: Measurement) -> None:
    """Write a measurement file. A file holds one measurement: a (B, m) stack raises ValueError."""
    if meas.values.ndim != 1:
        raise ValueError(f"meas must be one measurement, got a stack of shape {meas.values.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={meas.sensing.n}\n")
        fh.write("# K=" + ",".join(str(k) for k in meas.sensing.indices) + "\n")
        for v in meas.values:
            fh.write(f"{float(v.real)!r},{float(v.imag)!r}\n")


def scalar(value, what: str, rule=str):
    """The one value rule: ``rule`` reads ``str(value).strip()``; a failure names ``what``."""
    try:
        return rule(str(value).strip())
    except ValueError:
        raise ValueError(f"{what}: cannot read {value!r}") from None


def comma_list(value, what: str, rule=str) -> tuple:
    """The one comma-list rule: a comma string or a JSON list; blank tokens are dropped."""
    if isinstance(value, str):
        value = value.split(",")
    elif not isinstance(value, (list, tuple)):
        raise ValueError(f"{what}: expected a comma list, got {value!r}")
    return tuple(scalar(tok, what, rule) for tok in value if str(tok).strip())


def flag(text: str) -> bool:
    """Read false/0/no/off or true/1/yes/on, in any case."""
    return ("false", "0", "no", "off", "true", "1", "yes", "on").index(text.lower()) > 3


def _read(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The one line rule: strip, drop blank lines, split off ``#`` headers (config comments)."""
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    return [line.lstrip("#") for line in lines if line[0] == "#"], [
        line for line in lines if line[0] != "#"]


def _pair(line: str) -> tuple[str, str] | None:
    key, eq, value = line.partition("=")
    return (key.strip(), value.strip()) if eq else None


def read_config(path) -> dict:
    """Read the raw key -> value mapping of a JSON or flat key=value config file."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    body = _scan(text)[1]
    missing = [line for line in body if _pair(line) is None]
    if missing:
        raise ValueError(f"{path}: expected key=value, got {missing[0]!r}")
    return dict(map(_pair, body))


def _signal_from(path, headers, data) -> np.ndarray:
    if not data:
        raise ValueError(f"{path} contains no values")
    try:
        values = np.array(list(map(float, data)))
        n = scalar(headers.get("n", values.size), "header n", int)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if n != values.size:
        raise ValueError(f"{path}: header says n={n} but file has {values.size} values")
    return real_array(values, str(path))


def _measurement_from(path, headers, data) -> Measurement:
    if "n" not in headers:
        raise ValueError(f"{path}: measurement files need '# n=' and '# K=' headers")
    try:
        sensing = SensingSet(scalar(headers["n"], "header n", int),
                             comma_list(headers["K"], "header K", int))
        values = [complex(float(re), float(im)) for re, _, im in (s.partition(",") for s in data)]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(values) != sensing.m:
        raise ValueError(f"{path}: header K has {sensing.m} bins but file has {len(values)} values")
    return Measurement(require_finite(np.array(values), str(path)), sensing)


def _load(path, want=None):
    """Read a file once and build what its ``# K=`` header says it holds."""
    headers, data = _scan(_read(path))
    headers = dict(pair for pair in map(_pair, headers) if pair)
    kind = "measurement" if "K" in headers else "signal"
    if want not in (None, kind):
        raise ValueError(f"{path} is a {kind} file, not a {want} file")
    return (_measurement_from if kind == "measurement" else _signal_from)(path, headers, data)


def load_signal(path) -> np.ndarray:
    """Read a signal file. Raises ValueError on NaN or infinite values."""
    return _load(path, "signal")


def load_measurement(path) -> Measurement:
    """Read a measurement file. Raises ValueError on NaN or infinite values."""
    return _load(path, "measurement")


def load_any(path) -> np.ndarray | Measurement:
    """Read a signal (as an array) or a measurement file, told apart by its ``# K=`` header."""
    return _load(path)


def sniff_kind(path) -> str:
    """Return 'measurement' if the file carries a sensing header, else 'signal'."""
    return "measurement" if isinstance(_load(path), Measurement) else "signal"

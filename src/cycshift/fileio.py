"""Plain-text file formats for signals and measurements.

Signal files hold one real value per line with an optional ``# n=<n>``
header. Measurement files carry their sensing set inline (``# n=<n>``
and ``# K=<k1,k2,...>`` headers) followed by one ``re,im`` pair per
line; a measurement without its sensing set would be meaningless.
Lines starting with ``#`` are headers, blank lines are skipped, and
floats are written with ``repr`` so files round-trip exactly and are
byte-stable for a given input.
"""

from __future__ import annotations

import numpy as np

from .compressive import Measurement, SensingSet
from .errors import require_finite

__all__ = [
    "save_signal",
    "load_signal",
    "save_measurement",
    "load_measurement",
    "load_any",
    "sniff_kind",
]


def save_signal(path, values) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("signal must be a nonempty 1-D vector")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={values.size}\n")
        for v in values:
            fh.write(repr(float(v)) + "\n")


def save_measurement(path, meas: Measurement) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={meas.sensing.n}\n")
        fh.write("# K=" + ",".join(str(k) for k in meas.sensing.indices) + "\n")
        for v in meas.values:
            fh.write(f"{float(v.real)!r},{float(v.imag)!r}\n")


def _parse(path):
    """Split a file into (headers dict, data lines)."""
    headers: dict[str, str] = {}
    data: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    headers[key.strip()] = val.strip()
                continue
            data.append(line)
    return headers, data


def _signal_from(path, headers, data) -> np.ndarray:
    if not data:
        raise ValueError(f"{path} contains no values")
    try:
        values = np.array([float(line) for line in data])
    except ValueError as exc:
        raise ValueError(f"{path}: could not parse signal value ({exc})") from None
    if "n" in headers and int(headers["n"]) != values.size:
        raise ValueError(
            f"{path}: header says n={headers['n']} but file has {values.size} values"
        )
    require_finite(values, str(path))
    return values


def _measurement_from(path, headers, data) -> Measurement:
    if "K" not in headers or "n" not in headers:
        raise ValueError(f"{path}: measurement files need '# n=' and '# K=' headers")
    sensing = SensingSet(int(headers["n"]), tuple(int(k) for k in headers["K"].split(",")))
    vals = []
    for line in data:
        try:
            re_s, _, im_s = line.partition(",")
            vals.append(complex(float(re_s), float(im_s)))
        except ValueError as exc:
            raise ValueError(f"{path}: could not parse measurement value ({exc})") from None
    require_finite(vals, str(path))
    return Measurement(np.array(vals), sensing)


def load_signal(path) -> np.ndarray:
    """Read a signal file. Raises ValueError on NaN or infinite values."""
    headers, data = _parse(path)
    if "K" in headers:
        raise ValueError(f"{path} is a measurement file, not a signal file")
    return _signal_from(path, headers, data)


def load_measurement(path) -> Measurement:
    """Read a measurement file. Raises ValueError on NaN or infinite values."""
    return _measurement_from(path, *_parse(path))


def load_any(path) -> np.ndarray | Measurement:
    """Read a signal or a measurement file, telling them apart as :func:`sniff_kind` does.

    The file is read once; a measurement comes back as a
    :class:`~cycshift.compressive.Measurement`, a signal as an array.
    """
    headers, data = _parse(path)
    if "K" in headers:
        return _measurement_from(path, headers, data)
    return _signal_from(path, headers, data)


def sniff_kind(path) -> str:
    """Return 'measurement' if the file carries a sensing header, else 'signal'."""
    headers, _ = _parse(path)
    return "measurement" if "K" in headers else "signal"

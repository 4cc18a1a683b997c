"""Span tracing of cycshift from outside the package.

A :class:`Tracer` wraps the functions named in ``layers.json`` at every
``cycshift.*`` module attribute (and class attribute, for methods) that
binds them, plus the ``numpy.fft`` entry points. Each wrapped call
records one span ``[name, start_ns, end_ns, parent, call_id]`` in
memory; ``parent`` is the index of the enclosing span or -1. Counters
that belong to a boundary (transform points, bytes read, ambiguous
estimates) are taken at the same place. Leaving :meth:`Tracer.installed`
puts every original attribute back and checks that no wrapper is left.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import types
from pathlib import Path
from time import perf_counter_ns

LAYERS = Path(__file__).with_name("layers.json")


def load_layers(path=LAYERS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def span_targets(layers: dict) -> dict[str, list[str]]:
    """Span name -> the 'module:qualname' functions recorded under it."""
    return {name: binds for row in layers["rows"] for name, binds in row["spans"].items()}


def _transform_points(args, kwargs, result) -> int:
    """Points of one numpy.fft call: transform length times batch size.

    The transform length is the longer of the input and output lengths
    (rfft halves its output, irfft its input); cycshift never truncates.
    """
    return max(int(result.size), int(getattr(args[0] if args else kwargs["a"], "size", 0)))


def _array_points(args, kwargs, result) -> int:
    x = args[0] if args else kwargs["x"]
    return int(getattr(x, "size", 0))


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _ambiguous(args, kwargs, result) -> int:
    return int("ambiguous" in result.flags)


# Span name -> (counter name, function of (args, kwargs, result)).
COUNTERS = {
    "numpy.fft": ("numpy.fft.points", _transform_points),
    "spectral.dft_entry": ("spectral.dft_entry.points", _array_points),
    "fileio.sniff_kind": ("fileio.bytes_read", _file_bytes),
    "fileio.load_signal": ("fileio.bytes_read", _file_bytes),
    "fileio.load_measurement": ("fileio.bytes_read", _file_bytes),
    "compressive.shift_by_compressive_argmax": ("compressive.ambiguous", _ambiguous),
    "compressive.shift_by_compressive_ratio": ("compressive.ambiguous", _ambiguous),
}


def _resolve(target: str):
    """'pkg.mod:Class.attr' -> (owner object, attribute name, original)."""
    module, _, qualname = target.partition(":")
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, layers: dict):
        self.targets = span_targets(layers)
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.call_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.call_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter_ns()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def adopt(self, spans, counters, parent: int) -> None:
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, up, _ in spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up, self.call_id])
        for name, amount in counters.items():
            self.count(name, amount)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.count(counter[0], counter[1](args, kwargs, result))
            return result

        self._wrappers.append(traced)
        return traced

    @staticmethod
    def _modules():
        return [module for name, module in list(sys.modules.items())
                if name == "cycshift" or name.startswith("cycshift.") or name == "numpy.fft"]

    def _bindings(self, original):
        """Every (module, attribute) of cycshift.* and numpy.fft bound to ``original``."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr

    @contextlib.contextmanager
    def installed(self):
        # Resolve (and so import) every target before patching any, so no
        # module imported on the way binds a wrapper that restore would miss.
        resolved = [(name, _resolve(target)) for name, binds in self.targets.items()
                    for target in binds]
        try:
            for name, (owner, attr, original) in resolved:
                wrapper = self._wrap(name, original)
                sites = {(id(owner), attr): (owner, attr)}
                if isinstance(owner, types.ModuleType):
                    sites.update({(id(m), a): (m, a) for m, a in self._bindings(original)})
                for site, site_attr in sites.values():
                    self._patched.append((site, site_attr, original))
                    setattr(site, site_attr, wrapper)
            yield self
        finally:
            while self._patched:
                site, attr, original = self._patched.pop()
                setattr(site, attr, original)
            self._check_restored()

    def _check_restored(self) -> None:
        wrappers = {id(w) for w in self._wrappers}
        leftover = [f"{module.__name__}.{attr}" for module in self._modules()
                    for attr, value in vars(module).items() if id(value) in wrappers]
        leftover += [target for binds in self.targets.values() for target in binds
                     if id(_resolve(target)[2]) in wrappers]
        self._wrappers.clear()
        if leftover:
            raise RuntimeError(f"tracing wrappers left in place: {leftover}")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans) -> dict[str, tuple[int, int]]:
    """Span name -> (calls, self time in ns).

    Self time is a span's duration minus the durations of its direct
    children. Spans of one thread nest, so children never overlap and
    their summed durations equal the part of the parent they cover.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, tuple[int, int]] = {}
    for (name, start, end, _, _), inner in zip(spans, child_ns):
        calls, ns = out.get(name, (0, 0))
        out[name] = (calls + 1, ns + (end - start - inner))
    return out

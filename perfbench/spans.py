"""Span tracer that wraps satqkd's public functions from outside the library.

`Tracer.install` replaces every public function of the traced layers with
a wrapper, at every place the function is looked up: the defining module,
every satqkd module that imported it by name (``from .strategy import
evaluate_block`` in ``harness`` and ``cli``), and the package namespace.
Each call records one span ``(name, parent span, start, end)``; self time
is derived from the parent links afterwards.  A few wrappers also count
work at the boundary (satellite-seconds propagated, transmissivity
elements evaluated, linked seconds, bytes written and read).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("orbit", "channel", "harness", "strategy", "finite_key", "config")

# Methods traced besides module-level functions: (layer, class, method).
METHODS = (("config", "ExperimentConfig", "hash"),)


# Work counted at a traced boundary: function -> (count name, counter).  A
# counter gets the bound arguments and the return value of one call.
COUNTERS = {
    "orbit.propagate_positions": (
        "orbit.sat_seconds",
        lambda a, result: len(np.atleast_1d(a["times"])) * a["config"].n_sats,
    ),
    "channel.arm_transmissivity": (
        "channel.transmissivity_evals",
        lambda a, result: int(np.size(a["range_m"])),
    ),
    "harness.run_trace": (
        "harness.linked_seconds",
        lambda a, result: sum(1 for s in result.samples if s.fidelity is not None),
    ),
    "harness.emit_trace_csv": (
        "harness.emit_trace_csv.bytes",
        lambda a, result: os.path.getsize(a["path"]),
    ),
    "harness.read_trace_csv": (
        "harness.read_trace_csv.bytes",
        lambda a, result: os.path.getsize(a["path"]),
    ),
}


class Tracer:
    """In-memory span recorder over the satqkd layers."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # index = span id; (name id, parent id, start, end)
        self.counts = {key: 0 for key, _ in COUNTERS.values()}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        count_key, counter = COUNTERS.get(qualname, (None, None))
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_id, parent, start, end)
            if counter is not None:
                counts[count_key] += counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of LAYERS wherever satqkd binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"satqkd.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "satqkd" and not modname.startswith("satqkd."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"satqkd.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, inclusive seconds `s`, and `self_s`."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        if not self.spans:
            return out
        arr = np.array(self.spans, dtype=float)
        name_ids = arr[:, 0].astype(np.int64)
        parents = arr[:, 1].astype(np.int64)
        duration = arr[:, 3] - arr[:, 2]
        child = np.zeros(len(arr))
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        n = len(self.names)
        calls = np.bincount(name_ids, minlength=n)
        total = np.bincount(name_ids, weights=duration, minlength=n)
        own = np.bincount(name_ids, weights=duration - child, minlength=n)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
        return out

    def write(self, path) -> None:
        """Dump every span as CSV: id, parent, name, start and end seconds."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (name_id, parent, start, end) in enumerate(self.spans):
                fh.write(
                    f"{sid},{parent},{self.names[name_id]},"
                    f"{start - origin:.9f},{end - origin:.9f}\n"
                )

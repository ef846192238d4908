"""Spans around calls into the public functions of each quadprimes module.

The wrappers live here, outside the program. ``install`` replaces every public
function and public method of the ten layer modules with a wrapper, in the
defining module and in every package module that bound the same object with
``from .x import name``. Calls made inside a module go through its globals, so
they are traced too. Untraced runs never import this module.

Two modes:

* ``spans`` records each call as (name, start, end, parent) in flat arrays kept
  in memory; ``write`` saves them at the end of the run.
* ``rss`` records, per name, the most that one call (children included)
  raised the process's peak resident set size, ``ru_maxrss``. tracemalloc
  would give allocation peaks, but it slows these integer loops 10 to 30
  times, which no run length here can absorb.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import resource
import time
from array import array

import numpy as np

LAYERS = ("arith", "congruence", "sums", "primes", "stats", "nagell",
          "lcmpsi", "verify", "report", "cli")


def _fi_values(x, *_):
    xi, m, total = int(x), 1, 0
    while m ** 4 + 1 <= xi:
        total += math.isqrt(xi - m ** 4)
        m += 1
    return total


def _pi_values(x, d, *_):
    return math.isqrt(int(x) - d) if x >= d + 1 else 0


# Values n**2 + d (or n**2 + m**4) each primes function examines, counted from
# its arguments.
VALUE_COUNTS = {
    "primes.quadratic_primes": lambda n_max, *_: n_max,
    "primes.pi_f": _pi_values,
    "primes.twin_quadratic_pairs": lambda n_max, *_: n_max,
    "primes.fouvry_iwaniec_sum": _fi_values,
    "primes.largest_prime_factor_records": lambda n_max, *_: n_max,
}

# Results kept for the child to read after the run.
KEEP = ("verify.run_suite",)


def public_callables(module):
    """Yield (name, owner, attribute, function) for each public function and
    public method defined in ``module``. The constructor of a class that is not
    a dataclass is named after the class itself."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, fn in list(vars(obj).items()):
                if not inspect.isfunction(fn):
                    continue
                if attr == "__init__" and not dataclasses.is_dataclass(obj):
                    yield f"{layer}.{name}", obj, attr, fn
                elif not attr.startswith("_"):
                    yield f"{layer}.{name}.{attr}", obj, attr, fn


class Tracer:
    def __init__(self, mode: str):
        if mode not in ("spans", "rss"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.names: list = []
        # spans mode
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.value_spans = array("q")
        self.value_counts = array("q")
        self.kept: dict = {}
        self.built_bytes = 0
        # rss mode
        self.rss_rise_kb: dict = {}

    def install(self, package):
        """Wrap every public callable of the layer modules."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS]
        wrapped = {}
        for module in modules:
            for qual, owner, attr, fn in public_callables(module):
                wrapper = self._wrap(qual, fn, inspect.isclass(owner) and attr == "__init__")
                setattr(owner, attr, wrapper)
                wrapped[id(fn)] = (fn, wrapper)
        for module in [package] + modules:
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def _wrap(self, qual: str, fn, constructor: bool):
        nid = len(self.names)
        self.names.append(qual)
        if self.mode == "rss":
            wrapper = self._rss_wrapper(nid, fn)
        elif qual in VALUE_COUNTS or qual in KEEP or constructor:
            wrapper = self._hooked_wrapper(nid, fn, qual, constructor)
        else:
            wrapper = self._span_wrapper(nid, fn)
        return functools.wraps(fn)(wrapper)

    def _span_wrapper(self, nid, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return wrapper

    def _hooked_wrapper(self, nid, fn, qual, constructor):
        """A span wrapper that also records what the call's arguments or
        result say: values examined, a kept result, or array bytes built."""
        span = self._span_wrapper(nid, fn)
        count = VALUE_COUNTS.get(qual)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            i = len(self.start)
            result = span(*args, **kwargs)
            if count is not None:
                self.value_spans.append(i)
                bound = signature.bind(*args, **kwargs)
                self.value_counts.append(count(*bound.arguments.values()))
            if qual in KEEP:
                self.kept[qual] = result
            if constructor:
                self.built_bytes += sum(
                    v.nbytes for v in vars(args[0]).values()
                    if isinstance(getattr(v, "nbytes", None), int))
            return result
        return wrapper

    def _rss_wrapper(self, nid, fn):
        rises = self.rss_rise_kb
        usage, me = resource.getrusage, resource.RUSAGE_SELF

        def wrapper(*args, **kwargs):
            before = usage(me).ru_maxrss
            try:
                return fn(*args, **kwargs)
            finally:
                rise = usage(me).ru_maxrss - before
                if rise > rises.get(nid, 0):
                    rises[nid] = rise
        return wrapper

    def write(self, path: str, run_id: str):
        """Save the spans (spans mode) to an .npz file."""
        np.savez(path, run_id=run_id, names=json.dumps(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 value_spans=np.frombuffer(self.value_spans, dtype=np.int64),
                 value_counts=np.frombuffer(self.value_counts, dtype=np.int64))

    def rss_rise_by_name(self) -> dict:
        """Largest rise of ru_maxrss in one call, in KiB, per name."""
        return {self.names[nid]: kb for nid, kb in self.rss_rise_kb.items()}


def span_summary(path: str) -> dict:
    """Per-name calls, inclusive seconds and self seconds from a spans file;
    self time is a span's duration minus the durations of its child spans."""
    with np.load(path) as f:
        names = json.loads(str(f["names"]))
        name, parent = f["name"].astype(np.int64), f["parent"]
        dur = (f["end"] - f["start"]).astype(np.float64) / 1e9
        value_spans, value_counts = f["value_spans"], f["value_counts"]
        run_id = str(f["run_id"])
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_s = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_s, minlength=k)
    return {
        "run_id": run_id,
        "spans": int(len(dur)),
        "by_name": {n: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                        "self_s": float(own[i])} for i, n in enumerate(names)},
        "values": int(value_counts.sum()),
        "values_s": float(dur[value_spans].sum()) if len(value_spans) else 0.0,
    }

"""In-memory call spans around the public cfomimo functions.

While a Tracer is installed, every function named in ``cfomimo.__all__`` is
replaced, in each ``cfomimo.*`` module namespace where it is bound, by one
shared wrapper that records a span per call.  Calls made by the sweep runners
and calls nested inside the estimator and the bounds are therefore both seen,
and no source file of the package changes.  ``uninstall`` puts the original
objects back.

A span is (name, start, end, parent, sweep point, rss growth).  ``parent`` is
the index of the enclosing span (-1 at top level).  The sweep point counts
the runner's direct calls to ``make_model``, which both sweep runners make
first for every point.  ``rss growth`` is the rise of the process's
``ru_maxrss`` high-water mark across the call, in KiB.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

import numpy as np

import cfomimo
from cfomimo import simcli

RUNNERS = ("run_mse_vs_snr", "run_bounds_vs_rho")
POINT_MARKER = "channel.make_model"
SPAN_FIELDS = ("name", "start", "end", "parent", "point", "rss_growth_kb")
TAIL_SAMPLES = 10


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def traced_functions() -> list:
    """The public functions of the package, plus the sweep runners."""
    found = [getattr(cfomimo, name) for name in cfomimo.__all__]
    found += [getattr(simcli, name) for name in RUNNERS]
    return [fn for fn in found if inspect.isfunction(fn)]


class Tracer:
    """Records one span per call of every public cfomimo function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # (span index, name) of the open spans
        self._point = -1
        self._patched: list = []  # (module, attribute, original)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(fn) for fn in traced_functions()}
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "")
            if modname != "cfomimo" and not modname.startswith("cfomimo."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn):
        name = span_name(fn)
        is_runner = fn.__name__ in RUNNERS
        spans, stack = self.spans, self._stack
        clock, usage, who = time.perf_counter, resource.getrusage, resource.RUSAGE_SELF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_runner:
                self._point = -1
            elif name == POINT_MARKER and stack and stack[-1][1].startswith("simcli."):
                self._point += 1
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            rss0 = usage(who).ru_maxrss
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                rss1 = usage(who).ru_maxrss
                stack.pop()
                spans[index] = (name, start, end, parent, self._point, rss1 - rss0)

        return traced

    def write_csv(self, path: str):
        with open(path, "w") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in span) + "\n")


def tail_percentile(count: int) -> float:
    """Highest percentile (at most 99) with TAIL_SAMPLES samples beyond it;
    the median when there are too few samples for any higher one."""
    if count == 0:
        return 50.0
    return max(50.0, min(99.0, 100.0 * (1.0 - TAIL_SAMPLES / count)))


def summarize(spans: list, names) -> dict:
    """Per-function calls, self time, p50/tail duration and rss growth.

    Self time is a span's duration minus the time its child spans cover;
    calls run on one thread, so children never overlap.  Functions that
    were never called report zeros.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(names, 0.0)
    rss_kb = dict.fromkeys(names, 0)
    durations = {name: [] for name in names}
    for index, (name, start, end, _, _, growth) in enumerate(spans):
        self_s[name] += (end - start) - child_time[index]
        rss_kb[name] += growth
        durations[name].append(end - start)
    out = {}
    for name, samples in durations.items():
        tail = tail_percentile(len(samples))
        p50, p_tail = np.percentile(samples, [50.0, tail]) * 1e6 if samples else (0.0, 0.0)
        out[name] = {"calls": len(samples), "self_s": self_s[name],
                     "p50_us": float(p50), "p99_us": float(p_tail),
                     "tail_percentile": tail, "rss_growth_mb": rss_kb[name] / 1024.0}
    return out

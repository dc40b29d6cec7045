"""Spans around a package's functions, recorded from outside the package.

`traced` rebinds every module attribute of the package that holds a target
function (``risopt.harness.rmo_optimize``, ``risopt.manifold.svd_bundle``,
...) to a wrapper that opens a span, so a call is seen whichever import
site it goes through.  The originals are put back on exit, also when the
traced code raises.  Spans nest on one stack, so the traced code must run
on a single thread.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Per-name call counts, inclusive time and self time of nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[list] = []        # [start, seconds covered by children]

    @contextmanager
    def span(self, name: str):
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            duration = self.clock() - frame[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration


def _wrap(tracer: Tracer, name: str, fn, observer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = tracer.clock()
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observer is not None:
            observer(result, args, kwargs, tracer.clock() - start)
        return result
    return wrapper


@contextmanager
def traced(tracer: Tracer, package: str, targets, observers=None):
    """Record a span named ``module.function`` around each target's calls.

    targets are ``"module.function"`` names relative to package.  An
    observer, keyed by target, is called after each call as
    observer(result, args, kwargs, seconds).
    """
    observers = observers or {}
    swaps = []
    try:
        for target in targets:
            module_name, fn_name = target.rsplit(".", 1)
            home = importlib.import_module(f"{package}.{module_name}")
            original = getattr(home, fn_name)
            wrapper = _wrap(tracer, target, original, observers.get(target))
            modules = [m for n, m in list(sys.modules.items())
                       if n == package or n.startswith(package + ".")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        swaps.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(swaps):
            setattr(module, attr, original)


def percentile(values, q: float) -> float:
    """q-th percentile (0-100) by linear interpolation between ranks.

    One sample is its own every percentile; with two, p90 lies nine
    tenths of the way from the smaller to the larger.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def parallel_efficiency(serial_s: float, parallel_s: float, workers: int) -> float:
    """Serial wall time over (workers x parallel wall time); 1.0 is ideal."""
    if serial_s <= 0 or parallel_s <= 0 or workers < 1:
        raise ValueError("wall times and workers must be positive")
    return serial_s / (workers * parallel_s)

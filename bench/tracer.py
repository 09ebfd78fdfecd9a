"""Per-layer spans recorded from outside the package.

Tracer.installed() replaces every public module-level function of the layer
modules with a timing wrapper, in every loaded module of the package that
holds a reference to it: `from .x import y` copies the binding, so
core.materialize and streamer.materialize are two names for one function
and both are rebound. On exit every original object is put back.

A span's self time is its duration minus the time of the spans it called.
A layer's busy time counts only its outermost spans, so recursion and
re-entry are not counted twice. Work counters are taken from the arguments
and results at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from types import ModuleType

PACKAGE = "vdwitness"
LAYERS = ("wnumbers", "cubesearch", "core", "extractor", "tower", "streamer")

# (layer, stats reported for it). Times are shares of the traced pass time:
# a layer a workload never calls then reads 0 rather than a zero duration.
REPORTED = (
    ("wnumbers.vdw_number", ("calls", "errors", "busy_frac")),
    ("cubesearch.cube_number", ("calls", "errors", "busy_frac")),
    ("cubesearch.find_cube", ("calls", "busy_frac", "cells", "hit_ratio")),
    ("core.materialize", ("calls", "busy_frac", "cells")),
    ("extractor.compress", ("calls", "busy_frac", "blocks", "patterns", "pattern_ratio")),
    ("wnumbers.find_ap", ("calls", "busy_frac")),
    ("extractor.extract", ("calls", "busy_frac", "self_frac")),
    ("extractor.extract_nonuniform", ("calls", "busy_frac", "self_frac")),
    ("tower.tower_params_seq", ("calls", "busy_frac")),
    ("streamer.solve_window", ("calls", "busy_frac", "failed", "fail_ratio")),
    ("streamer.stabilize", ("calls", "busy_frac")),
    ("streamer.run_stream", ("calls", "busy_frac", "self_frac")),
    ("core.verify_witness", ("calls", "busy_frac", "positions")),
    ("core.cube_positions", ("calls", "busy_frac")),
)
TRACE_STATS = (
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)
RATIO_STATS = {"busy_frac", "self_frac", "hit_ratio", "pattern_ratio", "fail_ratio"}
HIGHER_IS_BETTER = {"hit_ratio"}


class LayerStats:
    __slots__ = ("calls", "errors", "busy_s", "self_s", "active", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _coloring_arg(args: tuple, kwargs: dict):
    return args[0] if args else kwargs["coloring"]


def _observe_find_cube(tracer: "Tracer", args, kwargs, result) -> None:
    st = tracer.stats["cubesearch.find_cube"]
    st.add("cells", len(_coloring_arg(args, kwargs).colors))
    st.add("hits", result is not None)


def _observe_materialize(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.stats["core.materialize"].add("cells", len(result.colors))


def _observe_compress(tracer: "Tracer", args, kwargs, result) -> None:
    st = tracer.stats["extractor.compress"]
    st.add("blocks", result.num_blocks)
    st.add("patterns", result.palette_size)


def _observe_cube_positions(tracer: "Tracer", args, kwargs, result) -> None:
    verify = tracer.stats["core.verify_witness"]
    if verify.active:
        verify.add("positions", len(result))


OBSERVERS = {
    "cubesearch.find_cube": _observe_find_cube,
    "core.materialize": _observe_materialize,
    "extractor.compress": _observe_compress,
    "core.cube_positions": _observe_cube_positions,
}


class Tracer:
    """Span statistics per layer, accumulated over every installed period."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.top_s = 0.0  # time inside outermost spans, i.e. attributed to some layer
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[ModuleType, str, object]] = []

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._restore()

    def _install(self) -> None:
        holders = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for short in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, fn))

    def _restore(self) -> None:
        while self._patched:
            holder, attr, fn = self._patched.pop()
            setattr(holder, attr, fn)

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, LayerStats())
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                st.errors += 1
                raise
            finally:
                dt = clock() - t0
                st.self_s += dt - stack.pop()
                st.calls += 1
                st.active -= 1
                if not st.active:
                    st.busy_s += dt
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return span

    def metrics(self, traced_s: float, passes: int) -> dict[str, float]:
        """Reported per-layer values: counts per traced pass, times as shares
        of the traced pass time traced_s summed over `passes` passes."""
        out: dict[str, float] = {}
        for layer, stats in REPORTED:
            st = self.stats.get(layer, LayerStats())
            values = {
                "calls": st.calls / passes,
                "errors": st.errors / passes,
                "failed": st.errors / passes,
                "busy_frac": st.busy_s / traced_s,
                "self_frac": st.self_s / traced_s,
                "hit_ratio": st.counts.get("hits", 0) / st.calls if st.calls else 0.0,
                "fail_ratio": st.errors / st.calls if st.calls else 0.0,
                "pattern_ratio": (st.counts.get("patterns", 0) / st.counts["blocks"]
                                  if st.counts.get("blocks") else 0.0),
            }
            for stat in stats:
                out[f"{layer}.{stat}"] = values[stat] if stat in values else st.counts.get(stat, 0) / passes
        return out


def metric_specs() -> list[dict]:
    """The per-layer metric list, in the form BENCHMARK.json declares it."""
    specs = []
    for layer, stats in REPORTED:
        for stat in stats:
            specs.append({
                "name": f"{layer}.{stat}",
                "unit": "ratio" if stat in RATIO_STATS else "count",
                "better": "higher" if stat in HIGHER_IS_BETTER else "lower",
            })
    specs += [{"name": name, "unit": unit, "better": "lower"} for name, unit in TRACE_STATS]
    return specs

"""Spans around holoinv's public functions, for the traced benchmark run.

`install` replaces each function in the namespace where the pipeline looks
it up (for example `holoinv.invariant.q_functor_inv`, not the definition in
`holoinv.sl2factor`), so the program itself is unchanged.  A span records
its name, start, end, parent span and whether an exception left it; spans
stay in memory until the run ends.  Self time is a span's duration minus
the time its direct children cover (children run one after another, so
their intervals do not overlap).
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    info: float = 0.0  # bytes of dense state, for evaluate_F
    failed: bool = False  # an exception left this span
    first_in_layer: bool = False  # ... and no span of this layer saw it before

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while `on` is true; a disabled wrapper costs one test."""

    def __init__(self):
        self.spans: list[Span] = []
        self.on = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable[..., float]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sp = Span(name, time.perf_counter(),
                      tracer._stack[-1] if tracer._stack else -1)
            if info is not None:
                sp.info = info(*args, **kwargs)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(sp)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                sp.failed = True
                seen = e.__dict__.setdefault("_perfbench_layers", set())
                sp.first_in_layer = sp.layer not in seen
                seen.add(sp.layer)
                raise
            finally:
                sp.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        out, self.spans = self.spans, []
        return out


def _state_bytes(d, provider, *args, **kwargs) -> float:
    """Computed size of evaluate_F's dense state: r^(width+1) complex128."""
    return 16.0 * provider.p.r ** (d.max_width() + 1)


def install(tracer: Tracer) -> None:
    """Wrap every measured function where the pipeline looks it up."""
    import holoinv.braiding as braiding
    import holoinv.cli as cli
    import holoinv.invariant as invariant

    provider = braiding.BraidingProvider
    targets = [
        (provider, "braiding", "braiding.braiding", None),
        (provider, "braiding_inv", "braiding.braiding_inv", None),
        (braiding, "sideways_matrices", "braiding.sideways_matrices", None),
        (braiding, "block_braiding", "braiding.block_braiding", None),
        (braiding, "steinberg_self_braiding", "braiding.steinberg", None),
        (braiding, "steinberg_pair_braiding", "braiding.steinberg", None),
        (braiding, "build_cyclic_module", "uqsl2.build_cyclic_module", None),
        (braiding, "casimir_block_structure", "uqsl2.casimir_block_structure",
         None),
        (braiding, "duality_tensors", "uqsl2.duality_tensors", None),
        (invariant, "evaluate_F", "invariant.evaluate_F", _state_bytes),
        (invariant, "q_functor_inv", "sl2factor.q_functor_inv", None),
        (invariant, "cut_edge", "diagram.cut_edge", None),
        (invariant, "modified_dim", "modtrace.modified_dim", None),
        (cli, "closure", "diagram.closure", None),
        (cli, "propagate_qcolors", "quandle.propagate_qcolors", None),
        (cli, "load_link", "cli.load_link", None),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, info in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), info))


# --- aggregation ----------------------------------------------------------

def span_rows(spans: list[Span]) -> list[list]:
    """Spans as JSON rows, for a child process to hand to its parent."""
    return [[s.name, s.start, s.end, s.parent, s.info, s.failed,
             s.first_in_layer] for s in spans]


def from_rows(rows: list[list]) -> list[Span]:
    return [Span(name, start, parent, end, info, failed, first)
            for name, start, end, parent, info, failed, first in rows]


# Additive totals over a list of spans.  Summing the totals of separate span
# lists (setup, each traced pass, each CLI child) is exact.
_SELF_TIMES = {
    "braiding.sideways_s": "braiding.sideways_matrices",
    "braiding.block_s": "braiding.block_braiding",
    "braiding.steinberg_s": "braiding.steinberg",
    "uqsl2.module_s": "uqsl2.build_cyclic_module",
    "uqsl2.casimir_s": "uqsl2.casimir_block_structure",
    "uqsl2.duality_s": "uqsl2.duality_tensors",
    "invariant.evaluate_s": "invariant.evaluate_F",
    "sl2factor.lift_s": "sl2factor.q_functor_inv",
    "diagram.cut_s": "diagram.cut_edge",
    "diagram.closure_s": "diagram.closure",
    "quandle.propagate_s": "quandle.propagate_qcolors",
    "modtrace.dim_s": "modtrace.modified_dim",
}


def totals(spans: list[Span]) -> dict[str, float]:
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)

    def self_time(i: int) -> float:
        return spans[i].duration - sum(spans[c].duration for c in children[i])

    def under_braiding(i: int) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == "braiding.braiding":
                return True
            p = spans[p].parent
        return False

    out = {key: 0.0 for key in _SELF_TIMES}
    out.update({k: 0.0 for k in (
        "braiding.calls", "braiding.misses", "braiding.resolve_s",
        "braiding.failures", "braiding.inv_calls", "braiding.inv_s",
        "uqsl2.module_builds", "invariant.gauge_attempts",
        "sl2factor.lift_failures")})
    by_name = {v: k for k, v in _SELF_TIMES.items()}
    for i, s in enumerate(spans):
        if s.name in by_name:
            out[by_name[s.name]] += self_time(i)
        if s.layer == "braiding" and s.first_in_layer:
            out["braiding.failures"] += 1
        if s.name == "braiding.braiding":
            out["braiding.calls"] += 1
            # a cache hit calls no wrapped function; a failed call counts
            if children[i] or s.failed:
                out["braiding.misses"] += 1
                if not under_braiding(i):
                    out["braiding.resolve_s"] += s.duration
        elif s.name == "braiding.braiding_inv":
            out["braiding.inv_calls"] += 1
            out["braiding.inv_s"] += s.duration
        elif s.name == "uqsl2.build_cyclic_module":
            out["uqsl2.module_builds"] += 1
        elif s.name == "sl2factor.q_functor_inv":
            out["invariant.gauge_attempts"] += 1
            out["sl2factor.lift_failures"] += s.failed
    return out


def state_bytes(spans: list[Span]) -> float:
    return max((s.info for s in spans if s.name == "invariant.evaluate_F"),
               default=0.0)


def median_duration(spans: list[Span], name: str) -> float:
    ds = [s.duration for s in spans if s.name == name]
    return statistics.median(ds) if ds else 0.0

"""The traced benchmark wraps functions where the pipeline looks them up.

`perfbench/spans.py` replaces module and class attributes by name; a
refactor that stops looking a function up there silently zeroes a layer
metric.  This test installs the spans with a counting tracer, runs one
invariant and checks that every measured layer fired.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import holoinv.braiding as braiding
import holoinv.cli as cli
import holoinv.invariant as invariant
from holoinv.params import root_params

from conftest import commuting_link

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


class CountingTracer:
    """Stands in for `spans.Tracer`: counts calls per span name."""

    def __init__(self):
        self.calls: Counter = Counter()

    def wrap(self, name, fn, info=None):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


def test_span_lookup_points_fire(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    owners = (braiding, cli, invariant, braiding.BraidingProvider)
    saved = [(owner, dict(vars(owner))) for owner in owners]
    tracer = CountingTracer()
    try:
        spans.install(tracer)
        provider = braiding.BraidingProvider(root_params(3))
        invariant.tilde_Fprime(commuting_link(3, [1, 1]), provider)
        # the pipeline calls neither the Steinberg names nor the Casimir
        # blocks, so call both: the Steinberg self pair and a resolved
        # generic pair's block pieces
        hb = next(iter(provider._braidings.values()))
        braiding.steinberg_self_braiding(provider)
        braiding.block_braiding(hb.y1, hb.y2, provider)
    finally:
        for owner, attrs in saved:
            for name, value in attrs.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)
    for name in ("sl2factor.q_functor_inv", "invariant.evaluate_F",
                 "diagram.cut_edge", "modtrace.modified_dim",
                 "braiding.braiding", "uqsl2.build_cyclic_module",
                 "braiding.steinberg", "braiding.block_braiding",
                 "uqsl2.casimir_block_structure",
                 "braiding.sideways_matrices"):
        assert tracer.calls[name] > 0, name
    for owner, attrs in saved:
        assert all(vars(owner).get(k) is v for k, v in attrs.items())

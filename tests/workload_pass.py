"""One seed-101 pass of each benchmark workload, with what three layers
were given, recorded once per test session.

The pass loads each workload's inputs (its set-up) and runs them, as
`perfbench/run.py` does, on memos and a pair record left cold by the
test that first asks for it.  It records every input the closure
`curves._vertex_canonical` gets, with the trace it came with; every
weight vector `curves._Tracer` traces; and every drawing of two curves,
with its crossing count and signed count.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

from cbgraph import curves, geom

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class Recorded(NamedTuple):
    closures: dict  # (tri, text) -> trace
    traced: dict  # (tri, weights) -> None, in traced order
    drawings: list  # (a, b, crossings, algebraic(0, 1))


@functools.lru_cache(maxsize=None)
def recorded() -> Recorded:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    got = Recorded({}, {}, [])
    closure, components, build = (
        curves._vertex_canonical,
        curves._Tracer.components,
        geom.Drawing._build,
    )

    def record_closure(tri, text, trace=None):
        got.closures.setdefault((tri, text), trace)
        return closure(tri, text, trace)

    def record_trace(self):
        got.traced[self.tri, tuple(self.w)] = None
        return components(self)

    def record_drawing(self):
        build(self)
        if len(self.curves) == 2:
            got.drawings.append((*self.curves, len(self.crossings), self.algebraic(0, 1)))

    for w in (workloads.Scale(), workloads.Acceptance(), workloads.FreshPairs()):
        data = json.loads(json.dumps(w.generate(101, 0)))
        curves._vertex_canonical = record_closure
        curves._Tracer.components = record_trace
        geom.Drawing._build = record_drawing
        try:
            w.run(w.load(data))
        finally:
            curves._vertex_canonical = closure
            curves._Tracer.components = components
            geom.Drawing._build = build
    return got

"""Outside-in tracing of cbgraph's layers.

`Tracer` keeps a stack of open spans and folds every finished span into
an aggregate keyed by (name, parent name), so memory stays flat however
many calls a run makes.  A span's self time is its duration minus the
time covered by its direct children.  `install` wraps the public
functions of each layer in place, from outside the package, and
`Installed.remove` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

ROOT = None  # parent name of spans opened outside any other span


class Tracer:
    """Span stack with per-(name, parent) aggregation and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # open spans: [name, start, time covered by children]
        self._open = {}  # name -> number of open spans with that name
        self.spans = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts = {}

    def enter(self, name: str) -> None:
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        depth = self._open[name] - 1
        self._open[name] = depth
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (name, parent[0] if parent is not None else ROOT)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        # A recursive call's duration is already inside the outer call's.
        if depth == 0:
            agg[1] += duration
        agg[2] += duration - covered

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def by_name(self) -> dict:
        """{name: (calls, total_s, self_s)} summed over parents."""
        out = {}
        for (name, _), (calls, total, own) in self.spans.items():
            c, t, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + calls, t + total, s + own)
        return out

    def self_time(self) -> float:
        return sum(own for _, _, own in self.spans.values())


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """`fn` inside a span; hooks run outside it, before and after."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = before(args) if before is not None else None
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, result, token)
        return result

    return traced


class Installed:
    """Every attribute replaced by `install`, so it can be put back."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)

    def replace(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _cbgraph_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "cbgraph" or name.startswith("cbgraph."))
    ]


def _patch_function(installed, modules, fn, traced) -> None:
    # A function is reachable under its own name from every module that
    # imported it; replace each of those bindings.
    name = fn.__name__
    hits = 0
    for m in modules:
        if m.__dict__.get(name) is fn:
            installed.replace(m, name, traced)
            hits += 1
    if not hits:
        raise LookupError(f"no module binds {fn.__module__}.{name}")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Layers:
    """The traced layer boundaries and the ratios read off them."""

    # (span name, module, attribute path); a class name means its
    # constructor, `Class.method` a method or classmethod.
    TARGETS = (
        ("geom.Drawing", "geom", "Drawing"),
        ("position.Reduced", "position", "Reduced"),
        ("dehn.is_trivial", "dehn", "is_trivial"),
        ("curves.vertex_canonical", "curves", "vertex_canonical"),
        ("curves.trace_components", "curves", "trace_components"),
        ("curves.CurveClass.from_words", "curves", "CurveClass.from_words"),
        ("kernel.canonical_cyclic", "kernel", "canonical_cyclic"),
        ("kernel.cyclic_reduce", "kernel", "cyclic_reduce"),
        ("kernel.min_rotation", "kernel", "min_rotation"),
        ("kernel.reverse_word", "kernel", "reverse_word"),
        ("farey.enumerate_slopes", "farey", "enumerate_slopes"),
        ("farey.once_intersectors", "farey", "once_intersectors"),
        ("farey.mn_constraint_solutions", "farey", "mn_constraint_solutions"),
        ("farey.mn_scan_has_large_solution", "farey", "mn_scan_has_large_solution"),
        ("oracles.lattice_cc", "oracles", "lattice_cc"),
        ("oracles.lattice_ca", "oracles", "lattice_ca"),
        ("oracles.lattice_aa", "oracles", "lattice_aa"),
        ("cut.CutComplex", "cut", "CutComplex"),
        ("cut.region_containing", "cut", "CutComplex.region_containing"),
        ("cb.MarkedCB", "cb", "MarkedCB"),
        ("cb.contains", "cb", "contains"),
        ("cb.meridian_of_small", "cb", "meridian_of_small"),
        ("projections.project", "projections", "project"),
        ("complexes.build_tc_fragment", "complexes", "build_tc_fragment"),
        ("complexes.build_cb_fragment", "complexes", "build_cb_fragment"),
        ("complexes.empty_triangle_family", "complexes", "empty_triangle_family"),
        ("complexes.verify_prop_intersection", "complexes", "verify_prop_intersection"),
        ("ops.intersect", "ops", "intersect"),
        ("ops.algebraic_intersect", "ops", "algebraic_intersect"),
        ("ops.twist", "ops", "twist"),
        ("ops.band_sum", "ops", "band_sum"),
        ("ops.neighborhood_profile", "ops", "neighborhood_profile"),
        ("ops.common_punctured_torus", "ops", "common_punctured_torus"),
        ("ops.orbit", "ops", "orbit"),
    )

    RATIOS = (
        "geom.drawings_per_pair",
        "farey.enumerate_slopes.repeat_share",
        "cut.CutComplex.repeat_share",
        "ops.intersect.fast_share",
        "dehn.trivial_share",
        "position.dehn_calls_per_bigon",
    )
    COUNTS = ("geom.crossings", "position.bigons_removed")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._pairs = set()  # curve sets drawn so far
        self._keys = {"farey.enumerate_slopes": set(), "cut.CutComplex": set()}

    # Hooks: `before` returns a token handed to `after`.

    def _drawing_after(self, args, result, token):
        drawing, tri, curves = args[0], args[1], args[2]
        self._pairs.add((tri.checksum, tuple(sorted(hash(c) for c in curves))))
        self.tracer.count("geom.crossings", len(drawing.crossings))

    def _reduced_after(self, args, result, token):
        dead = sum(1 for x in args[0].drawing.crossings if not x.alive)
        self.tracer.count("position.bigons_removed", dead // 2)

    def _is_trivial_after(self, args, result, token):
        t = self.tracer
        t.count("dehn.is_trivial.true", bool(result))
        if t.is_open("position.Reduced"):
            t.count("dehn.is_trivial.in_reduced")

    def _intersect_before(self, args):
        return self.tracer.counts.get("position.Reduced.opened", 0)

    def _intersect_after(self, args, result, token):
        if self.tracer.counts.get("position.Reduced.opened", 0) == token:
            self.tracer.count("ops.intersect.fast")

    def _reduced_before(self, args):
        self.tracer.count("position.Reduced.opened")

    def _repeat_before(self, name, key):
        seen = self._keys[name]
        if key in seen:
            self.tracer.count(name + ".repeat")
        else:
            seen.add(key)

    def _hooks(self, name):
        if name == "geom.Drawing":
            return None, self._drawing_after
        if name == "position.Reduced":
            return self._reduced_before, self._reduced_after
        if name == "dehn.is_trivial":
            return None, self._is_trivial_after
        if name == "ops.intersect":
            return self._intersect_before, self._intersect_after
        if name == "farey.enumerate_slopes":
            return lambda args: self._repeat_before(name, args), None
        if name == "cut.CutComplex":
            # args: (self, tri, system)
            return (
                lambda args: self._repeat_before(
                    name, (args[1].checksum, hash(args[2]))
                ),
                None,
            )
        return None, None

    def install(self) -> Installed:
        targets = [
            (name, importlib.import_module("cbgraph." + module), path)
            for name, module, path in self.TARGETS
        ]
        modules = _cbgraph_modules()
        installed = Installed()
        try:
            for name, mod, path in targets:
                before, after = self._hooks(name)
                head, _, method = path.partition(".")
                obj = getattr(mod, head)
                if isinstance(obj, type):
                    attr = method or "__init__"
                    raw = obj.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(
                            _wrap(self.tracer, name, raw.__func__, before, after)
                        )
                    else:
                        new = _wrap(self.tracer, name, raw, before, after)
                    installed.replace(obj, attr, new)
                else:
                    traced = _wrap(self.tracer, name, obj, before, after)
                    _patch_function(installed, modules, obj, traced)
        except BaseException:
            installed.remove()
            raise
        return installed

    def metrics(self) -> dict:
        """Per-layer calls/self/total, counts and waste ratios."""
        t = self.tracer
        c = t.counts.get
        per = t.by_name()
        out = {}
        for name, _, _ in self.TARGETS:
            calls, total, own = per.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
            out[f"{name}.total_s"] = total
        drawings = per.get("geom.Drawing", (0,))[0]
        slopes = per.get("farey.enumerate_slopes", (0,))[0]
        cuts = per.get("cut.CutComplex", (0,))[0]
        intersects = per.get("ops.intersect", (0,))[0]
        dehn_calls = per.get("dehn.is_trivial", (0,))[0]
        bigons = c("position.bigons_removed", 0)
        out["geom.crossings"] = c("geom.crossings", 0)
        out["position.bigons_removed"] = bigons
        out["geom.drawings_per_pair"] = _ratio(drawings, len(self._pairs))
        out["farey.enumerate_slopes.repeat_share"] = _ratio(
            c("farey.enumerate_slopes.repeat", 0), slopes
        )
        out["cut.CutComplex.repeat_share"] = _ratio(
            c("cut.CutComplex.repeat", 0), cuts
        )
        out["ops.intersect.fast_share"] = _ratio(c("ops.intersect.fast", 0), intersects)
        out["dehn.trivial_share"] = _ratio(c("dehn.is_trivial.true", 0), dehn_calls)
        out["position.dehn_calls_per_bigon"] = _ratio(
            c("dehn.is_trivial.in_reduced", 0), bigons
        )
        return out

    @classmethod
    def metric_names(cls) -> list[str]:
        names = []
        for name, _, _ in cls.TARGETS:
            names += [f"{name}.calls", f"{name}.self_s", f"{name}.total_s"]
        return names + list(cls.COUNTS) + list(cls.RATIOS)

"""Single-binary command line interface.

Subcommands cover the slope calculus, the curve engine, the
compression-body calculus, complex fragments, boundary projections and
the deterministic verification suites.  All outputs are JSON (sorted
keys) so identical invocations produce identical bytes.

A subcommand that fails on its input writes
`{"error": {"type", "message"}}` to stderr instead of a traceback and
exits 2 for a `ValueError` (bad input) or 3 for a `RuntimeError` (a
tripped guard).  A malformed command line is bad input too.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from cbgraph import complexes, ops, projections as pj
from cbgraph.cb import (
    CBType,
    MarkedCB,
    all_minimal_sequences,
    contains,
    height,
    types_of_height,
)
from cbgraph.curves import CurveClass, json_field, json_record, read_file
from cbgraph.farey import Slope, enumerate_slopes, farey_distance, intersect_cc
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.suites import SUITES, Recipe, report_json, run_suite
from cbgraph.surface import standard_triangulation


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_json(path):
    return json.loads(read_file(path))


def _write_files(directory, files) -> None:
    """Make `directory` and write each name: text of `files` in it; a
    path that cannot be made or written raises ValueError naming it."""
    path = directory
    try:
        os.makedirs(directory, exist_ok=True)
        for name, text in files.items():
            path = os.path.join(directory, name)
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _load_curve(path) -> CurveClass:
    return CurveClass.from_json(_load_json(path))


def _load_curves(path) -> list[CurveClass]:
    data = _load_json(path)
    if not isinstance(data, list):
        data = [data]
    return [CurveClass.from_json(d) for d in data]


def _load_body(path) -> MarkedCB:
    return MarkedCB.from_json(_load_json(path))


def _type_arg(text) -> CBType:
    if os.path.exists(text):
        return CBType.from_json(_load_json(text))
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        record = _load_json(text)  # neither JSON nor a path: name the path
    return CBType.from_json(record)


def _spec_index(spec, key, count) -> int:
    value = spec[key]
    if type(value) is not int or not 0 <= value < count:
        raise ValueError(f"bad {key} index {value!r}: expected an int in 0..{count - 1}")
    return value


def curve_from_spec(tri, spec) -> CurveClass:
    """Build a curve from a recipe entry.

    Entries are either serialized curves or small constructors:
    {"handle": i}, {"connector": k}, {"word": [letter, ...]},
    {"band_sum": [spec, spec]},
    {"twist": {"base": spec, "along": spec, "power": p}}.
    A malformed constructor raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"bad curve spec: {spec!r}")
    if "word" in spec:
        word, top = spec["word"], 3 * tri.num_triangles
        if not isinstance(word, list) or any(
            type(x) is not int or not 0 <= x < top for x in word
        ):
            raise ValueError(f"bad curve word: {word!r}")
        return CurveClass.from_word(tri, word)
    if "handle" in spec:
        return handle_curves(tri)[_spec_index(spec, "handle", 2 * tri.genus)]
    if "connector" in spec:
        return chain_connector(tri, _spec_index(spec, "connector", tri.genus - 1))
    if "band_sum" in spec:
        parts = spec["band_sum"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ValueError(f"band_sum needs a list of two curve specs, not {parts!r}")
        a, b = (curve_from_spec(tri, s) for s in parts)
        return ops.band_sum(a, b)
    if "twist" in spec:
        t = spec["twist"]
        if not isinstance(t, dict) or "base" not in t or "along" not in t:
            raise ValueError(f"twist needs an object with \"base\" and \"along\", not {t!r}")
        power = t.get("power", 1)
        if type(power) is not int:
            raise ValueError(f"bad twist power: {power!r}")
        return ops.twist(
            curve_from_spec(tri, t["base"]),
            curve_from_spec(tri, t["along"]),
            power,
        )
    return CurveClass.from_json(spec)


def _recipe_curves(tri, data) -> list[CurveClass]:
    curves = [curve_from_spec(tri, s) for s in json_field(data, "recipe", "curves", list, [])]
    orb = data.get("orbit")
    if orb:
        orb = json_record(orb, "orbit", "base", "twists")
        base = [curve_from_spec(tri, s) for s in json_field(orb, "orbit", "base", list, None)]
        twists = [curve_from_spec(tri, s) for s in json_field(orb, "orbit", "twists", list, None)]
        found = ops.orbit(base, twists, json_field(orb, "orbit", "max_word", int, 1))
        limit = json_field(orb, "orbit", "limit", int, 0)
        curves.extend(found[:limit] if limit else found)
    return list(dict.fromkeys(curves))


def cmd_farey(opts) -> int:
    if opts.farey_cmd == "i":
        _emit({"i": intersect_cc(Slope.parse(opts.a), Slope.parse(opts.b))})
    elif opts.farey_cmd == "dist":
        _emit({"distance": farey_distance(Slope.parse(opts.a), Slope.parse(opts.b))})
    else:
        # (q, p) is the order `Slope.__lt__` gives, read off a key.
        census = sorted(enumerate_slopes(opts.max_height), key=lambda s: (s.q, s.p))
        slopes = [str(s) for s in census]
        if opts.json:
            _emit(slopes)
        else:
            print("\n".join(slopes))
    return 0


def cmd_curve(opts) -> int:
    if opts.curve_cmd == "i":
        _emit({"i": ops.intersect(_load_curve(opts.a), _load_curve(opts.b))})
    elif opts.curve_cmd == "separating":
        _emit({"separating": _load_curve(opts.a).is_separating})
    else:
        base = _load_curves(opts.base)
        twists = _load_curves(opts.twists)
        found = ops.orbit(base, twists, opts.max_word)
        files = {
            f"orbit_{k:04d}.json": json.dumps(c.to_json(), indent=2, sort_keys=True)
            for k, c in enumerate(found)
        }
        files["index.json"] = json.dumps({"count": len(found), "files": list(files)}, indent=2)
        _write_files(opts.out, files)
        _emit({"count": len(found), "out": opts.out})
    return 0


def cmd_cb(opts) -> int:
    if opts.cb_cmd == "height":
        t = _type_arg(opts.type)
        _emit({"type": t.to_json(), "height": height(t)})
    elif opts.cb_cmd == "chains":
        t = _type_arg(opts.type)
        chains = sorted(all_minimal_sequences(t))
        _emit(
            {
                "type": t.to_json(),
                "count": len(chains),
                "chains": [[x.to_json() for x in chain] for chain in chains],
            }
        )
    elif opts.cb_cmd == "contains":
        verdict = contains(_load_body(opts.c), _load_body(opts.d))
        _emit({"contains": verdict.value})
    else:
        types = types_of_height(opts.genus, opts.height)
        _emit(
            {
                "genus": opts.genus,
                "height": opts.height,
                "types": [t.to_json() for t in types],
            }
        )
    return 0


def cmd_complex_build(opts) -> int:
    data = json_record(_load_json(opts.recipe), "recipe")
    tri = standard_triangulation(json_field(data, "recipe", "genus", int, 2))
    provenance = {
        "recipe": os.path.basename(opts.recipe),
        "seed": json_field(data, "recipe", "seed", int, 0),
    }
    if opts.kind == "cb":
        bodies = []
        json_record(data, "recipe", "bodies")
        for body in json_field(data, "recipe", "bodies", list, None):
            system = json_field(json_record(body, "body", "system"), "body", "system", list, None)
            bodies.append(MarkedCB(tri, [curve_from_spec(tri, s) for s in system]))
        frag = complexes.build_cb_fragment(bodies, provenance=provenance)
    else:
        curves = _recipe_curves(tri, data)
        if opts.kind == "tc":
            frag = complexes.build_tc_fragment(
                curves,
                max_dim=json_field(data, "recipe", "max_dim", int, 3),
                provenance=provenance,
            )
        else:
            frag = complexes.build_schmutz_fragment(curves, provenance=provenance)
    fragment = json.dumps(frag.to_json(), indent=2, sort_keys=True)
    _write_files(opts.out, {"fragment.json": fragment, "fragment.dot": frag.to_dot()})
    _emit(
        {
            "kind": frag.kind,
            "vertices": len(frag.vertices),
            "edges": len(frag.edges),
            "out": opts.out,
        }
    )
    return 0


def cmd_complex_analyze(opts) -> int:
    frag = complexes.ComplexFragment.from_json(
        _load_json(os.path.join(opts.in_dir, "fragment.json"))
    )
    checks = opts.checks.split(",")
    out: dict = {"kind": frag.kind}
    for check in checks:
        if check == "joins":
            if frag.kind != "cb":
                out[check] = {"skip": "joins are defined on cb fragments"}
                continue
            out[check] = {
                str(v): {
                    "up": lk["up"],
                    "down": lk["down"],
                    "is_join": complexes.is_join(frag, lk["up"], lk["down"]),
                }
                for v in range(len(frag.vertices))
                for lk in [complexes.links(frag, v)]
            }
        elif check == "chromatic":
            entry = {
                "clique": complexes.clique_number(frag),
                "chromatic": complexes.chromatic_number(frag),
            }
            if frag.kind == "cb":
                entry["height_coloring_proper"] = complexes.height_coloring_is_proper(
                    frag
                )
            out[check] = entry
        elif check == "empty-triangles":
            if frag.kind != "tc":
                out[check] = {"skip": "empty triangles are defined on tc fragments"}
                continue
            out[check] = sorted(complexes.empty_triangles(frag))
        elif check == "prop-intersection":
            if frag.kind != "tc":
                out[check] = {"skip": "intersection check runs on tc fragments"}
                continue
            out[check] = complexes.verify_prop_intersection(frag)
        else:
            raise ValueError(f"unknown check: {check}")
    _emit(out)
    return 0


def cmd_project(opts) -> int:
    sel = pj.SideSelector(_load_curve(opts.sep), opts.side)
    found = sorted(pj.project(sel, _load_curve(opts.curve)))
    _emit([c.to_json() for c in found])
    return 0


def cmd_surgery(opts) -> int:
    rec = pj.innermost_surgery(_load_curve(opts.a), _load_curve(opts.b))
    _emit([c.to_json() for c in rec["candidates"]])
    return 0


def cmd_suites(opts) -> int:
    _emit({name: claim for name, (claim, _) in SUITES.items()})
    return 0


def cmd_run(opts) -> int:
    overrides = {"checks": opts.suite, "seed": opts.seed, "out": opts.out}
    if opts.recipe:
        recipe = Recipe.from_file(opts.recipe, **overrides)
    else:
        recipe = Recipe(**{k: v for k, v in overrides.items() if v is not None})
    if recipe.out:
        _write_files(recipe.out, {})
    report = run_suite(recipe)
    if recipe.out:
        _write_files(recipe.out, {"report.json": report_json(report)})
    for check in report["checks"]:
        line = f"[{check['status']}] {check['name']}: {check['claim']}"
        if check["status"] == "skip":
            line += f" (skipped: {check['reason']})"
        print(line)
    print(
        f"{report['passed']} passed, {report['failed']} failed, "
        f"{report['skipped']} skipped"
    )
    return 0 if report["failed"] == 0 else 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative slope such as -1/2 is a value, as -1 is, in subparsers too.
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # a malformed command line is bad input
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cbgraph",
        description="Exact curve, compression-body and torus-complex calculus.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    farey = sub.add_parser("farey", help="slope arithmetic on the torus")
    fsub = farey.add_subparsers(dest="farey_cmd", required=True)
    fi = fsub.add_parser("i", help="intersection number of two slopes")
    fi.add_argument("--a", required=True)
    fi.add_argument("--b", required=True)
    fd = fsub.add_parser("dist", help="Farey graph distance")
    fd.add_argument("--a", required=True)
    fd.add_argument("--b", required=True)
    fc = fsub.add_parser("census", help="slopes of bounded height")
    fc.add_argument("--max-height", type=int, required=True)
    fc.add_argument("--json", action="store_true")
    farey.set_defaults(func=cmd_farey)

    curve = sub.add_parser("curve", help="curves on a closed surface")
    csub = curve.add_subparsers(dest="curve_cmd", required=True)
    ci = csub.add_parser("i", help="geometric intersection number")
    ci.add_argument("--a", required=True)
    ci.add_argument("--b", required=True)
    cs = csub.add_parser("separating", help="separation test")
    cs.add_argument("--a", required=True)
    co = csub.add_parser("orbit", help="twist orbit of base curves")
    co.add_argument("--base", required=True)
    co.add_argument("--twists", required=True)
    co.add_argument("--max-word", type=int, required=True)
    co.add_argument("--out", required=True)
    curve.set_defaults(func=cmd_curve)

    cb = sub.add_parser("cb", help="compression-body calculus")
    bsub = cb.add_subparsers(dest="cb_cmd", required=True)
    bh = bsub.add_parser("height", help="height of a type")
    bh.add_argument("--type", required=True)
    bc = bsub.add_parser("chains", help="all maximal chains to a type")
    bc.add_argument("--type", required=True)
    bco = bsub.add_parser("contains", help="certified containment of bodies")
    bco.add_argument("--c", required=True)
    bco.add_argument("--d", required=True)
    bcl = bsub.add_parser("classify", help="types of a given height")
    bcl.add_argument("--genus", type=int, required=True)
    bcl.add_argument("--height", type=int, required=True)
    cb.set_defaults(func=cmd_cb)

    cx = sub.add_parser("complex", help="complex fragments")
    xsub = cx.add_subparsers(dest="complex_cmd", required=True)
    xb = xsub.add_parser("build", help="build a fragment from a recipe")
    xb.add_argument("--kind", choices=("cb", "tc", "schmutz"), required=True)
    xb.add_argument("--recipe", required=True)
    xb.add_argument("--out", required=True)
    xb.set_defaults(func=cmd_complex_build)
    xa = xsub.add_parser("analyze", help="analyze a built fragment")
    xa.add_argument("--in", dest="in_dir", required=True)
    xa.add_argument(
        "--checks",
        default="joins,chromatic,empty-triangles,prop-intersection",
    )
    xa.set_defaults(func=cmd_complex_analyze)

    pr = sub.add_parser("project", help="interior boundary projection")
    pr.add_argument("--sep", required=True)
    pr.add_argument("--side", choices=("left", "right"), required=True)
    pr.add_argument("--curve", required=True)
    pr.set_defaults(func=cmd_project)

    sg = sub.add_parser("surgery", help="innermost surgery candidates")
    sg.add_argument("--a", required=True)
    sg.add_argument("--b", required=True)
    sg.set_defaults(func=cmd_surgery)

    st = sub.add_parser("suites", help="list verification suites")
    st.set_defaults(func=cmd_suites)

    rn = sub.add_parser("run", help="run verification suites")
    rn.add_argument("--recipe")
    rn.add_argument("--suite", action="append")
    rn.add_argument("--seed", type=int)
    rn.add_argument("--out")
    rn.set_defaults(func=cmd_run)

    return parser


def _fail(exc: Exception, code: int) -> int:
    error = {"type": type(exc).__name__, "message": str(exc)}
    print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        opts = build_parser().parse_args(argv)
        return opts.func(opts)
    except ValueError as exc:
        return _fail(exc, 2)
    except RuntimeError as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())

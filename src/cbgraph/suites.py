"""Deterministic verification suites and the recipe/report plumbing.

Each suite re-checks one quantitative claim of the calculus against an
independent oracle or an exhaustive scan at desk scale.  A recipe fully
determines a run: identical recipes produce identical reports apart from
the timing block.
"""

from __future__ import annotations

import json
import random
import time
from datetime import datetime, timezone
from functools import lru_cache

from cbgraph import complexes, ops, oracles, projections as pj
from cbgraph.cb import (
    CBType,
    Containment,
    MarkedCB,
    all_minimal_sequences,
    classify_short,
    composable_pairs,
    contains,
    enumerate_types,
    glue,
    height,
    meridian_of_small,
    purely_separating,
    small_cb,
)
from cbgraph.curves import json_record, read_file
from cbgraph.farey import (
    ArcSlope,
    Slope,
    enumerate_slopes,
    farey_distance,
    intersect_aa,
    intersect_ca,
    intersect_cc,
    mn_constraint_solutions,
    mn_scan,
    once_intersectors,
)
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation


# The seed of a run that names none.
DEFAULT_SEED = 7


class SuiteSkip(Exception):
    """Raised by a check whose guard preconditions are not met."""


class Recipe:
    """Deterministic description of a suite run."""

    FIELDS = ("checks", "seed", "genus", "max_word", "out")

    def __init__(self, checks=None, seed=DEFAULT_SEED, genus=2, max_word=3, out=None):
        if checks is not None and not (
            isinstance(checks, list) and all(type(c) is str for c in checks)
        ):
            raise ValueError(f"recipe checks must be a list of suite names, not {checks!r}")
        for key, value in (("seed", seed), ("genus", genus), ("max_word", max_word)):
            if type(value) is not int:
                raise ValueError(f"recipe {key} must be an int, not {value!r}")
        if out is not None and type(out) is not str:
            raise ValueError(f"recipe out must be a path, not {out!r}")
        self.checks = list(checks) if checks is not None else list(SUITES)
        self.seed = seed
        self.genus = genus
        self.max_word = max_word
        self.out = out
        unknown = [c for c in self.checks if c not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")

    @classmethod
    def from_file(cls, path, **overrides):
        data = json_record(read_file(path), "recipe")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**{k: data[k] for k in cls.FIELDS if k in data})

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.FIELDS}


@lru_cache(maxsize=None)
def _fixtures(genus: int):
    tri = standard_triangulation(genus)
    return tri, handle_curves(tri), chain_connector(tri, 0)


def _random_twist_word(rng, gens, length):
    return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]


def _apply_word(word, c):
    for along, p in word:
        c = ops.twist(c, along, p)
    return c


def check_farey_oracle(rng, recipe):
    """Slope intersection formulas vs the lattice-counting oracle."""
    slopes = sorted(enumerate_slopes(20))
    arcs = [ArcSlope(s.p, s.q) for s in slopes]
    bad = []
    for i, a in enumerate(slopes):
        for b in slopes[i:]:
            if intersect_cc(a, b) != oracles.lattice_cc(a, b):
                bad.append(("cc", str(a), str(b)))
    for c in slopes:
        for arc in arcs:
            if intersect_ca(c, arc) != oracles.lattice_ca(c, arc):
                bad.append(("ca", str(c), str(arc)))
    # The segment-sweeping arc-arc oracle is quadratic in the slope
    # heights, so it is exhausted at height 6 and sampled at height 20.
    small = [ArcSlope(s.p, s.q) for s in sorted(enumerate_slopes(6))]
    aa_pairs = [(x, y) for i, x in enumerate(small) for y in small[i:]]
    for _ in range(500):
        aa_pairs.append((rng.choice(arcs), rng.choice(arcs)))
    for x, y in aa_pairs:
        if intersect_aa(x, y) != oracles.lattice_aa(x, y):
            bad.append(("aa", str(x), str(y)))
    counts = {
        "cc_pairs": len(slopes) * (len(slopes) + 1) // 2,
        "ca_pairs": len(slopes) * len(arcs),
        "aa_pairs": len(aa_pairs),
        "mismatches": len(bad),
    }
    return not bad, counts, bad[:5]


def check_census_bounds(rng, recipe):
    """At most three once-intersecting slopes; the integer census pairs."""
    slopes = sorted(enumerate_slopes(6))
    pairs = [(s.p, s.q) for s in slopes]
    bad = []
    checked = 0
    while checked < 1000:
        a = rng.choice(slopes)
        beta = ArcSlope(*rng.choice(pairs))
        if intersect_ca(a, beta) == 0:
            continue
        got = once_intersectors(a, beta, max_height=30)
        if len(got) > 3:
            bad.append((str(a), str(beta), sorted(map(str, got))))
        checked += 1
    exact = 0
    for p in range(-15, 16):
        got = once_intersectors(Slope(1, 0), ArcSlope(p, 1), max_height=20)
        want = {Slope(p - 1, 1), Slope(p, 1), Slope(p + 1, 1)}
        if got != want:
            bad.append(("1/0", f"{p}/1", sorted(map(str, got))))
        exact += 1
    # One exhaustive pass over the 10**6 domain answers both integer
    # facts: the solutions with |m| >= 2, and none with |m| >= 3.
    scanned = mn_scan(10**6)
    census = {(m, n) for m, n in scanned if abs(m) >= 2}
    mn_ok = (
        mn_constraint_solutions() == {(2, 1), (-2, -1)}
        and census == {(2, 1), (-2, -1)}
        and not any(abs(m) >= 3 for m, _ in scanned)
    )
    if not mn_ok:
        bad.append(("mn", sorted(census)))
    counts = {
        "instances": checked,
        "integer_arcs": exact,
        "mn_scan": 10**6,
        "violations": len(bad),
    }
    return not bad, counts, bad[:5]


def check_height_formula(rng, recipe):
    """Maximal chain lengths equal the height formula; gluing adds heights."""
    bad = []
    chains = 0
    for g in range(1, 6):
        for t in enumerate_types(g):
            h = height(t)
            if h != oracles.bfs_height(t):
                bad.append(("bfs", repr(t)))
            for chain in all_minimal_sequences(t):
                chains += 1
                if len(chain) != h:
                    bad.append(("chain", repr(t), len(chain)))
    glued = 0
    for c, f, d in composable_pairs(6):
        glued += 1
        if height(glue(c, f, d)) != height(c) + height(d):
            bad.append(("glue", repr(c), f, repr(d)))
    counts = {"chains": chains, "glued_pairs": glued, "violations": len(bad)}
    return not bad, counts, bad[:5]


def check_short_classification(rng, recipe):
    """Short-body classification vs the BFS level scan; the genus-2 picture."""
    bad = []
    for g in range(2, 7):
        got = classify_short(g)
        for h in (1, 2):
            if got[f"height{h}"] != oracles.scan_types_by_height(g, h):
                bad.append((g, h))
    nontrivial = {
        (t, height(t)) for t in enumerate_types(2) if not t.is_trivial
    }
    picture = {
        (CBType(2, (1, 1)), 1),
        (CBType(2, (1,)), 2),
        (CBType(2, ()), 3),
    }
    if nontrivial != picture:
        bad.append(("genus2", sorted(map(repr, nontrivial))))
    counts = {"genera": [2, 3, 4, 5, 6], "violations": len(bad)}
    return not bad, counts, bad[:5]


def check_sep_equivalence(rng, recipe):
    """#interior = height + 1 iff the interior genera sum to the genus."""
    bad = []
    total = 0
    for g in range(1, 7):
        for t in enumerate_types(g):
            total += 1
            lhs = len(t.interior_genera) == height(t) + 1
            rhs = purely_separating(t)
            if lhs != rhs:
                bad.append(repr(t))
    counts = {"types": total, "violations": len(bad)}
    return not bad, counts, bad[:5]


def check_small_disks(rng, recipe):
    """Meridians of a small body: the core and punctured-torus boundaries."""
    tri, handles, conn = _fixtures(2)
    a = handles[0]
    gens = handles + [conn]
    orb = ops.orbit(gens, gens, 4)
    if len(orb) < 200:
        raise SuiteSkip(f"orbit too small: {len(orb)}")
    bad = []
    for c in orb:
        if meridian_of_small(a, c) != (c == a):
            bad.append(("nonsep", repr(c)))
    band_checked = 0
    partners = [b for b in orb if ops.intersect(a, b) == 1]
    for b in partners[:30]:
        band_checked += 1
        if not meridian_of_small(a, ops.band_sum(a, b)):
            bad.append(("band", repr(b)))
    # On genus 2 both sides of a punctured-torus boundary are punctured
    # tori, so every disjoint band sum is a meridian of every small body;
    # negatives need a crossing curve or a higher-genus far side.
    far = ops.band_sum(handles[2], handles[3])
    if not meridian_of_small(a, far):
        bad.append(("two-sided-band", repr(far)))
    crossing = ops.twist(far, conn, 1)
    if ops.intersect(a, crossing) == 0 or meridian_of_small(a, crossing):
        bad.append(("crossing-band", repr(crossing)))
    tri3, handles3, _ = _fixtures(3)
    far3 = ops.band_sum(handles3[2], handles3[3])
    if meridian_of_small(handles3[0], far3):
        bad.append(("far-band-genus3", repr(far3)))
    counts = {
        "orbit": len(orb),
        "band_sums": band_checked,
        "violations": len(bad),
    }
    return not bad, counts, bad[:5]


def check_chain_containment(rng, recipe):
    """Trivial body inside the band-sum small body inside the small body."""
    tri, handles, conn = _fixtures(2)
    a0, b0 = handles[0], handles[1]
    gens = handles + [conn]
    trivial = MarkedCB(tri, [])
    bad = []
    for _ in range(50):
        word = _random_twist_word(rng, gens, rng.randint(0, 3))
        a, b = _apply_word(word, a0), _apply_word(word, b0)
        if ops.intersect(a, b) != 1:
            bad.append(("setup", [(repr(c), p) for c, p in word]))
            continue
        band = small_cb(ops.band_sum(a, b))
        if contains(trivial, band) is not Containment.TRUE:
            bad.append(("trivial", repr(band)))
        if contains(band, small_cb(a)) is not Containment.TRUE:
            bad.append(("band", repr(a)))
    counts = {"pairs": 50, "violations": len(bad)}
    return not bad, counts, bad[:5]


def _maximal_chain_bodies(genus):
    # Standardizing a full handlebody system orders it so every prefix is
    # itself a standard system; the prefixes realize all heights 1..2g-1.
    tri, handles, _ = _fixtures(genus)
    full = MarkedCB(tri, [handles[2 * k] for k in range(genus)])
    return [MarkedCB(tri, list(full.system[:k])) for k in range(1, full.height + 1)]


def check_link_chromatic(rng, recipe):
    """Links of chain vertices are joins with tight clique and color counts."""
    bad = []
    for g in (2, 3):
        bodies = _maximal_chain_bodies(g)
        if [b.height for b in bodies] != list(range(1, 2 * g)):
            bad.append((g, "chain", [b.height for b in bodies]))
            continue
        frag = complexes.build_cb_fragment(bodies)
        if not complexes.height_coloring_is_proper(frag):
            bad.append((g, "coloring"))
        if complexes.clique_number(frag) != 2 * g - 1:
            bad.append((g, "clique"))
        if complexes.chromatic_number(frag) != 2 * g - 1:
            bad.append((g, "chromatic"))
        for v, body in enumerate(bodies):
            lk = complexes.links(frag, v)
            if not complexes.is_join(frag, lk["up"], lk["down"]):
                bad.append((g, "join", v))
            h = body.height
            down = complexes.induced(frag, lk["down"])
            up = complexes.induced(frag, lk["up"])
            if complexes.clique_number(down) != complexes.chromatic_number(down):
                bad.append((g, "down-gap", v))
            if complexes.chromatic_number(down) != h - 1:
                bad.append((g, "down", v, complexes.chromatic_number(down)))
            if complexes.clique_number(up) != complexes.chromatic_number(up):
                bad.append((g, "up-gap", v))
            if complexes.chromatic_number(up) != 2 * g - 1 - h:
                bad.append((g, "up", v, complexes.chromatic_number(up)))
    counts = {"genera": [2, 3], "violations": len(bad)}
    return not bad, counts, bad[:5]


def check_empty_triangles(rng, recipe):
    """Twist families of empty triangles; no two high-intersection edges."""
    tri, handles, conn = _fixtures(2)
    a, b = handles[0], handles[1]
    # Each family triple is certified on construction: pairwise common
    # punctured tori, no common one.  Distinct third curves give 25
    # distinct empty triangles without building the quadratic fragment
    # over all high-power twists.
    triples = complexes.empty_triangle_family(a, b, conn, range(1, 26))
    thirds = {t[2] for t in triples}
    bad = []
    if len(thirds) < 25:
        bad.append(("family", len(thirds)))
    # Short-word families on both handles: every empty triangle generated
    # by twist words of length <= 5 keeps at most one edge above one.
    total = 0
    for base_a, base_b in ((a, b), (handles[2], handles[3])):
        fam = complexes.empty_triangle_family(base_a, base_b, conn, range(1, 6))
        fr = complexes.build_tc_fragment(
            [base_a, base_b] + sorted({t[2] for t in fam}), max_dim=2
        )
        report = complexes.verify_prop_intersection(fr)
        total += report["empty_triangles"]
        if not report["ok"]:
            bad.append(("intersection", report))
    counts = {
        "family_triangles": len(thirds),
        "checked_triangles": total,
        "violations": len(bad),
    }
    return not bad, counts, bad[:5]


def check_orientation_necessity(rng, recipe):
    """Inside a common punctured torus all crossings carry one sign."""
    tri, handles, conn = _fixtures(2)
    gens = handles + [conn]
    pool = ops.orbit(gens, gens, 2)
    bad = []
    hits = 0
    for _ in range(200):
        x, y = rng.choice(pool), rng.choice(pool)
        if x == y:
            continue
        if not ops.common_punctured_torus([x, y]):
            continue
        hits += 1
        if abs(ops.algebraic_intersect(x, y)) != ops.intersect(x, y):
            bad.append((repr(x), repr(y)))
    if hits < 30:
        raise SuiteSkip(f"too few punctured-torus pairs: {hits}")
    counts = {"pairs": hits, "violations": len(bad)}
    return not bad, counts, bad[:5]


def check_projection_diameter(rng, recipe):
    """Projections vs the ribbon oracle, distance-2 witnesses, disk checks."""
    tri, handles, conn = _fixtures(2)
    gens = handles + [conn]
    w = ops.band_sum(handles[0], handles[1])
    sel_l = pj.SideSelector(w, "left")
    sels = {"left": sel_l, "right": sel_l.other()}
    bases = {side: pj.TorusBasis(sel) for side, sel in sels.items()}
    bad = []
    instances = 0
    oracle_checked = 0
    disk_true = disk_false = 0
    while instances < 100:
        word = _random_twist_word(rng, gens, rng.randint(1, 4))
        b = _apply_word(word, conn)
        side = rng.choice(("left", "right"))
        sel, basis = sels[side], bases[side]
        instances += 1
        ps = pj.project(sel, b)
        n = ops.intersect(b, w)
        if len(ps) > max(n, 1):
            bad.append(("size", side, repr(b)))
        for m in ps:
            if (
                ops.intersect(m, w) != 0
                or m.is_separating
                or sel.complex.region_containing(m) != sel.region
            ):
                bad.append(("essential", side, repr(m)))
        if n == 2:
            # One arc per side: the boundary circles of the regular
            # neighborhood give an independent computation.
            prof = ops.neighborhood_profile([w, b])
            oracle = {
                m
                for m in prof.boundary_classes
                if m != w and sel.complex.region_containing(m) == sel.region
            }
            oracle_checked += 1
            if ps != oracle:
                bad.append(("oracle", side, repr(b)))
        slopes = pj.projection_slopes(sel, b, basis)
        witness = pj.diam_witness(sel, b, basis)
        if any(farey_distance(witness, s) < 2 for s in slopes):
            bad.append(("witness", side, str(witness)))
        # Disk witness in the glued configuration: marking on the left.
        left_slopes = pj.projection_slopes(sels["left"], b, bases["left"])
        if rng.random() < 0.5 and left_slopes:
            mark_slope = sorted(left_slopes)[0]
            expect_witness = True
        else:
            mark_slope = pj.diam_witness(sels["left"], b, bases["left"])
            expect_witness = False
        mark = bases["left"].realize(mark_slope)
        got = pj.surjdisc_witness(w, b, MarkedCB(tri, [w, mark]))
        if expect_witness:
            disk_true += 1
            if got != mark:
                bad.append(("disk-hit", str(mark_slope), repr(b)))
        else:
            disk_false += 1
            if got is not None:
                bad.append(("disk-miss", str(mark_slope), repr(b)))
    counts = {
        "instances": instances,
        "oracle_checked": oracle_checked,
        "disk_certified": disk_true,
        "disk_refuted": disk_false,
        "violations": len(bad),
    }
    return not bad, counts, bad[:5]


def check_equivariance(rng, recipe):
    """Simultaneous twisting preserves every predicate and invariant."""
    tri, handles, conn = _fixtures(2)
    gens = handles + [conn]
    curves = gens + [ops.band_sum(handles[0], handles[1])]
    frag = complexes.build_tc_fragment(gens, max_dim=2)
    bad = []
    for k in range(20):
        word = _random_twist_word(rng, gens, rng.randint(1, 3))
        moved = [_apply_word(word, c) for c in curves]
        for i, x in enumerate(curves):
            if moved[i].is_separating != x.is_separating:
                bad.append((k, "separating", i))
            for j in range(i + 1, len(curves)):
                y = curves[j]
                if ops.intersect(moved[i], moved[j]) != ops.intersect(x, y):
                    bad.append((k, "intersect", i, j))
                if abs(ops.algebraic_intersect(moved[i], moved[j])) != abs(
                    ops.algebraic_intersect(x, y)
                ):
                    bad.append((k, "algebraic", i, j))
                if not x.is_separating and not y.is_separating:
                    if ops.common_punctured_torus(
                        [moved[i], moved[j]]
                    ) != ops.common_punctured_torus([x, y]):
                        bad.append((k, "torus", i, j))
        a, ma = handles[0], moved[0]
        for i, c in enumerate(curves):
            if meridian_of_small(ma, moved[i]) != meridian_of_small(a, c):
                bad.append((k, "meridian", i))
        moved_frag = complexes.build_tc_fragment(moved[: len(gens)], max_dim=2)
        if moved_frag.edges != frag.edges or moved_frag.simplices != frag.simplices:
            bad.append((k, "fragment"))
        if small_cb(ma).height != small_cb(a).height:
            bad.append((k, "height"))
    counts = {"words": 20, "violations": len(bad)}
    return not bad, counts, bad[:5]


SUITES = {
    "farey-oracle": (
        "Torus slope intersection formulas agree with lattice counting on the unit square",
        check_farey_oracle,
    ),
    "census-bounds": (
        "At most three slopes cross a marked pair once; the integer census is {(2,1),(-2,-1)}",
        check_census_bounds,
    ),
    "height-formula": (
        "Every maximal compression chain realizes the closed height formula; gluing adds heights",
        check_height_formula,
    ),
    "short-classification": (
        "Height-1 and height-2 body types match the brute-force scan; genus 2 has heights 1,2,3",
        check_short_classification,
    ),
    "sep-equivalence": (
        "Interior count equals height+1 exactly when the interior genera sum to the genus",
        check_sep_equivalence,
    ),
    "small-disks": (
        "Meridians of a small body are its core and the punctured-torus boundaries around it",
        check_small_disks,
    ),
    "chain-containment": (
        "Trivial body inside band-sum small body inside small body, certified",
        check_chain_containment,
    ),
    "link-chromatic": (
        "Chain-fragment links are joins; clique and chromatic numbers match the height bounds",
        check_link_chromatic,
    ),
    "empty-triangles": (
        "Twist families give 25+ empty triangles; none has two edges crossing more than once",
        check_empty_triangles,
    ),
    "orientation-necessity": (
        "Inside a common punctured torus, |algebraic| equals geometric intersection",
        check_orientation_necessity,
    ),
    "projection-diameter": (
        "Boundary projections match the ribbon oracle, admit distance-2 witnesses, decide disks",
        check_projection_diameter,
    ),
    "equivariance": (
        "All predicates and invariants are preserved under simultaneous twisting",
        check_equivariance,
    ),
}


def run_check(name: str, seed: int = DEFAULT_SEED, recipe: Recipe | None = None) -> dict:
    """Run one named check with a fresh seeded generator."""
    claim, fn = SUITES[name]
    recipe = recipe or Recipe(checks=[name], seed=seed)
    rng = random.Random(f"{name}:{seed}")
    entry = {"name": name, "claim": claim}
    try:
        ok, counts, witnesses = fn(rng, recipe)
    except SuiteSkip as skip:
        entry.update(status="skip", reason=str(skip), counts={})
        return entry
    except (ValueError, RuntimeError) as exc:
        ok, counts, witnesses = False, {}, []
        entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
    entry["status"] = "pass" if ok else "fail"
    entry["counts"] = counts
    if not ok:
        entry["witnesses"] = witnesses
        entry["reproducer"] = f"cbgraph run --suite {name} --seed {seed}"
    return entry


def run_suite(recipe: Recipe) -> dict:
    """Run every check of the recipe and assemble the deterministic report."""
    checks = []
    seconds = {}
    for name in recipe.checks:
        t0 = time.perf_counter()
        checks.append(run_check(name, recipe.seed, recipe))
        seconds[name] = round(time.perf_counter() - t0, 3)
    return {
        "recipe": recipe.to_json(),
        "checks": checks,
        "passed": sum(1 for c in checks if c["status"] == "pass"),
        "failed": sum(1 for c in checks if c["status"] == "fail"),
        "skipped": sum(1 for c in checks if c["status"] == "skip"),
        "timing": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seconds": seconds,
        },
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)

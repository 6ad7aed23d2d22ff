"""The benchmark's workloads: inputs from a seed, timed passes, checks.

Every workload follows one protocol:

- `generate(seed, index)` builds the JSON-able inputs of pass `index`
  from the seed alone.  Curves travel as `CurveClass.to_json` records.
- `load(data)` turns those records back into program objects; this is
  the set-up a user pays before the first answer.
- `run(inputs)` makes the timed calls and returns a `Pass`: its wall
  time, the answers, and the seconds per kind of call.
- `check(inputs, done)` re-derives answers outside the timed calls and
  returns (attempted, failed); an exception counts as a failure.

The program is driven only through its public modules, always as
`module.function` so that a traced run sees the calls.
"""

from __future__ import annotations

import random
import time

from cbgraph import ops, suites
from cbgraph.curves import CurveClass
from cbgraph.geom import Drawing
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

clock = time.perf_counter


class Pass:
    """One timed pass: wall seconds, answers, seconds by kind of call."""

    def __init__(self, wall_s, answers, parts, samples=()):
        self.wall_s = wall_s
        self.answers = answers  # a call that raised answers None
        self.parts = parts
        self.samples = list(samples)  # per-query latencies in seconds


def _curve(data) -> CurveClass:
    return CurveClass.from_json(data)


class Checker:
    """Counts attempted and failed checks; an exception is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def expect(self, label, fn):
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as exc:  # any program error is a failed check
            ok = False
            label = f"{label}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(label)


def _algebraic_ok(alg: int, got: int, exact: bool = False) -> bool:
    """|algebraic| <= geometric with equal parity; equal when `exact`."""
    if exact:
        return abs(alg) == got
    return abs(alg) <= got and (got - alg) % 2 == 0


class Acceptance:
    """All twelve verification suites of `Recipe(seed=S)`.

    The suites run one by one through `suites.run_check`, as `run_suite`
    runs them, so that a suite which raises is recorded as a failure and
    the remaining suites still run and are timed.
    """

    name = "acceptance"
    MIN_SAMPLES = 0

    # Suites long enough to time steadily; the short ones vary by up to
    # a quarter between runs.
    TIMED_SUITES = (
        "projection-diameter",
        "empty-triangles",
        "equivariance",
        "census-bounds",
        "small-disks",
    )

    def generate(self, seed: int, index: int) -> dict:
        # A second pass would redraw the pairs of the first, so a run
        # makes exactly one.
        if index:
            raise IndexError("acceptance runs one pass")
        return {"recipe": {"seed": seed}, "genera": [2, 3]}

    def load(self, data):
        for g in data["genera"]:
            standard_triangulation(g)
        return suites.Recipe(**data["recipe"])

    def run(self, recipe) -> Pass:
        entries, seconds = [], {}
        t0 = clock()
        for name in recipe.checks:
            t = clock()
            try:
                entries.append(suites.run_check(name, recipe.seed, recipe))
            except Exception as exc:  # counted as a failure by `check`
                entries.append(
                    {"name": name, "status": "error", "error": f"{type(exc).__name__}: {exc}"}
                )
            seconds[name] = clock() - t
        wall = clock() - t0
        parts = {f"suite.{n}_s": seconds[n] for n in self.TIMED_SUITES}
        return Pass(wall, entries, parts)

    def check(self, recipe, done: Pass):
        chk = Checker()
        chk.expect("all suites ran", lambda: len(done.answers) == len(suites.SUITES))
        for entry in done.answers:
            chk.expect(
                f"suite {entry['name']} {entry['status']} {entry.get('error', '')}".strip(),
                lambda e=entry: e["status"] == "pass",
            )
        return chk


class Scale:
    """A twist-growth ladder at genus 2 and 3, every pair distinct.

    Each ladder alternates a right twist along the handle curve a_k with
    a left twist along the chain connector to the neighbouring handle j,
    starting from the dual curve b_k; lengths grow about 2.6x per pair of
    twists.  Every step whose curve has `MIN_LETTERS` up to the ladder's
    maximum is a rung.  On each rung the pass twists the curve to the
    next rung, rebuilds it from its words, intersects it with the one of
    a_k, b_k that lies in raw = |algebraic| position and with a_j, whose
    drawing has three times the minimal crossings and so needs bigon
    removal, and band-sums the images of a_j and b_j, which cross once.

    The ladders themselves are fixed: genus 2 grows on handle 0 up to
    5.5e3 letters, genus 3 on handle 1 up to 2.8e3.  The ladders on the
    other handles differ in cost by up to 5x, so letting the seed pick
    one would make the seed, not the program, set the figures.  The
    seed orders the rungs.
    """

    name = "scale"
    MIN_SAMPLES = 0

    MIN_LETTERS = 100
    # The identity i(T_d^p(c), c) = |p| i(d, c)^2 is checked on rungs up
    # to this length; beyond it i(d, c)^2 crossings make the check
    # dominate the run.
    IDENTITY_LETTERS = 200

    # (genus, handle, most letters): a 5.5e3-letter genus-3 rung would
    # add another 10 s intersect to every run.
    LADDERS = ((2, 0, 6000), (3, 1, 3000))

    def generate(self, seed: int, index: int) -> dict:
        # A second pass would repeat the pairs of the first.
        if index:
            raise IndexError("scale runs one pass")
        rungs = [r for ladder in self.LADDERS for r in self._ladder(*ladder)]
        random.Random(f"scale:{seed}").shuffle(rungs)
        return {"rungs": rungs}

    def _ladder(self, genus: int, k: int, most: int) -> list[dict]:
        tri = standard_triangulation(genus)
        hs = handle_curves(tri)
        j = k + 1 if k < genus - 1 else k - 1
        conn = chain_connector(tri, min(j, k))
        a, b = hs[2 * k], hs[2 * k + 1]
        x, y = hs[2 * j], hs[2 * j + 1]
        steps = ((a, 1), (conn, -1))
        c, n, rungs = b, 0, []
        while True:
            d, p = steps[n % 2]
            n += 1
            nxt = ops.twist(c, d, p)
            if len(c.word) >= self.MIN_LETTERS:
                rungs.append(
                    {
                        "curve": c.to_json(),
                        "along": d.to_json(),
                        "power": p,
                        "next": nxt.to_json(),
                        "fast": self._minimal_handle(tri, c, (a, b)).to_json(),
                        "slow": hs[2 * j].to_json(),
                        "pair": [x.to_json(), y.to_json()],
                    }
                )
            if len(nxt.word) > most:
                return rungs
            c, x, y = nxt, ops.twist(x, d, p), ops.twist(y, d, p)

    @staticmethod
    def _minimal_handle(tri, c, candidates):
        """The first candidate drawn with c in raw = |algebraic| > 0 position."""
        for h in candidates:
            drawing = Drawing(tri, [c, h])
            if drawing.raw_count(0, 1) == abs(drawing.algebraic(0, 1)) > 0:
                return h
        raise RuntimeError(f"no handle in minimal position on a {len(c.word)}-letter rung")

    def load(self, data):
        rungs = []
        for r in data["rungs"]:
            rungs.append(
                {
                    "curve": _curve(r["curve"]),
                    "along": _curve(r["along"]),
                    "power": r["power"],
                    "next": _curve(r["next"]),
                    "fast": _curve(r["fast"]),
                    "slow": _curve(r["slow"]),
                    "pair": [_curve(r["pair"][0]), _curve(r["pair"][1])],
                }
            )
        return rungs

    def run(self, rungs) -> Pass:
        parts = dict.fromkeys(
            ("scale.twist_s", "scale.canonicalize_s", "scale.intersect_s", "scale.band_sum_s"),
            0.0,
        )
        answers = []
        t0 = clock()
        for r in rungs:
            c = r["curve"]
            row = {}
            for key, part, fn, args in (
                ("next", "scale.twist_s", ops.twist, (c, r["along"], r["power"])),
                ("canon", "scale.canonicalize_s", CurveClass.from_words, (c.tri, c.words)),
                ("i_fast", "scale.intersect_s", ops.intersect, (c, r["fast"])),
                ("i_slow", "scale.intersect_s", ops.intersect, (c, r["slow"])),
                ("band", "scale.band_sum_s", ops.band_sum, tuple(r["pair"])),
            ):
                t = clock()
                try:
                    row[key] = fn(*args)
                except Exception:  # counted as a failure by `check`
                    row[key] = None
                parts[part] += clock() - t
            answers.append(row)
        wall = clock() - t0
        return Pass(wall, answers, parts)

    def check(self, rungs, done: Pass):
        chk = Checker()
        for r, row in zip(rungs, done.answers):
            c, d, p = r["curve"], r["along"], r["power"]
            tag = f"g{c.tri.genus} {len(c.word)} letters"
            chk.expect(f"{tag} twist", lambda: row["next"] == r["next"])
            chk.expect(f"{tag} canonical", lambda: row["canon"] == c)
            chk.expect(f"{tag} twist back", lambda: ops.twist(r["next"], d, -p) == c)
            for key in ("fast", "slow"):
                h, got = r[key], row["i_" + key]
                chk.expect(f"{tag} {key} symmetric", lambda: ops.intersect(h, c) == got)
                # In raw = |algebraic| position the drawing is minimal.
                chk.expect(
                    f"{tag} {key} algebraic",
                    lambda: _algebraic_ok(
                        ops.algebraic_intersect(c, h), got, exact=key == "fast"
                    ),
                )
            chk.expect(
                f"{tag} band sum bounds a torus",
                lambda: row["band"].is_connected and row["band"].is_separating,
            )
            if len(c.word) <= self.IDENTITY_LETTERS:
                chk.expect(
                    f"{tag} twist identity",
                    lambda: ops.intersect(r["next"], c)
                    == abs(p) * ops.intersect(d, c) ** 2,
                )
        return chk


class FreshPairs:
    """Distinct curve pairs at genus 2, 3 and 4, each queried once.

    The population is fixed: `POOL` short curves per genus, made by
    random words of at most three twists along the handle and connector
    curves, and every unordered pair of them.  The seed orders the pairs,
    decides which curve of a pair is twisted along the other, and the
    twist's sign; pass `index` takes the next `BATCH` pairs, so a run
    queries each pair exactly once.  A query is three reads and one
    write: intersect, algebraic_intersect, common_punctured_torus and a
    twist.

    A few queries take 30-100 times the median.  Drawing the pool from
    the seed made the mean query cost, and the peak memory, depend on
    whether the pool held such curves (a quarter apart between seeds);
    with a fixed population every run meets the same ones.  Short passes
    keep the median pass time off the slow queries.
    """

    name = "fresh-pairs"

    GENERA = (2, 3, 4)
    POOL = 27  # 3 * 27 * 26 / 2 = 1053 pairs
    BATCH = 81  # 13 passes
    MIN_SAMPLES = 1000
    # Twisting the image back costs about three queries, so it is checked
    # on every fourth query; the other checks run on all of them.
    TWIST_BACK_EVERY = 4

    def __init__(self):
        self._population = None  # {genus: [curve JSON]}
        self._orders = {}  # seed -> [[genus, i, k, power]]

    def _pools(self):
        if self._population is None:
            rng = random.Random("fresh-pairs:population")
            self._population = {
                g: [c.to_json() for c in self._pool(rng, g)] for g in self.GENERA
            }
        return self._population

    def _pool(self, rng, genus: int) -> list[CurveClass]:
        tri = standard_triangulation(genus)
        gens = handle_curves(tri) + [chain_connector(tri, k) for k in range(genus - 1)]
        pool = set()
        for _ in range(200 * self.POOL):
            c = rng.choice(gens)
            for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
                c = ops.twist(c, rng.choice(gens), rng.choice((1, -1)))
            pool.add(c)
            if len(pool) == self.POOL:
                return sorted(pool)
        raise RuntimeError(f"only {len(pool)} distinct curves at genus {genus}")

    def _order(self, seed: int):
        got = self._orders.get(seed)
        if got is None:
            rng = random.Random(f"fresh-pairs:{seed}")
            got = []
            for g in self.GENERA:
                for i in range(self.POOL):
                    for k in range(i + 1, self.POOL):
                        x, y = (i, k) if rng.random() < 0.5 else (k, i)
                        got.append([g, x, y, rng.choice((1, -1))])
            rng.shuffle(got)
            self._orders[seed] = got
        return got

    def generate(self, seed: int, index: int) -> dict:
        batch = self._order(seed)[index * self.BATCH : (index + 1) * self.BATCH]
        if not batch:
            raise IndexError("every pair has been queried")
        return {"curves": self._pools(), "queries": batch}

    def load(self, data):
        curves = {int(g): [_curve(c) for c in pool] for g, pool in data["curves"].items()}
        return [(curves[g][i], curves[g][k], p) for g, i, k, p in data["queries"]]

    def run(self, queries) -> Pass:
        answers, samples = [], []
        t0 = clock()
        for x, y, p in queries:
            t = clock()
            try:
                row = (
                    ops.intersect(x, y),
                    ops.algebraic_intersect(x, y),
                    ops.common_punctured_torus([x, y]),
                    ops.twist(x, y, p),
                )
            except Exception:  # counted as a failure by `check`
                row = None
            samples.append(clock() - t)
            answers.append(row)
        wall = clock() - t0
        return Pass(wall, answers, {}, samples)

    def check(self, queries, done: Pass):
        chk = Checker()
        for n, ((x, y, p), row) in enumerate(zip(queries, done.answers)):
            tag = f"g{x.tri.genus} {x!r} {y!r}"
            chk.expect(f"{tag} answered", lambda: row is not None)
            if row is None:
                continue
            got, alg, _, image = row
            chk.expect(f"{tag} symmetric", lambda: ops.intersect(y, x) == got)
            chk.expect(f"{tag} algebraic", lambda: _algebraic_ok(alg, got))
            if n % self.TWIST_BACK_EVERY == 0:
                chk.expect(f"{tag} twist back", lambda: ops.twist(image, y, -p) == x)
        return chk


WORKLOADS = {w.name: w for w in (Acceptance(), Scale(), FreshPairs())}

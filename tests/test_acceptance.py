"""Acceptance gate: every verification suite must pass end to end.

Each test runs one named suite from cbgraph.suites with the default seed
and prints its counters, so `pytest -v tests/test_acceptance.py` doubles
as the full verification report.  The suites re-check the quantitative
claims of the calculus against independent oracles and exhaustive scans
at desk scale; see `cbgraph suites` for the claim strings.

Each suite's entry is pinned by the sha256 of its sorted JSON, which
holds no timing: a change that alters any report at the default seed
fails here until its new digest is pinned, with the reason given in
`CHANGES.md`.
"""

import hashlib
import json

import pytest

from cbgraph import complexes, ops, oracles, suites
from cbgraph.suites import SUITES, Recipe, report_json, run_check, run_suite

DIGESTS = {
    "farey-oracle": "3658062c7136cbe5ba13fab6e2c023720a35cf032023b27db19927995170e854",
    "census-bounds": "d06683b29c599367c07f8225a91b7ac36de3a03d462f794c3a626d2ba0df3b1f",
    "height-formula": "acd8e42299eccde102beb3b2f03601ebc91630cc67e2e48afd52b1c14564b8e5",
    "short-classification": "19449f75d851200b217ed59e5fb47977af5dcd6e8a7063da586d2aa5beb6cfbe",
    "sep-equivalence": "1367ffbff6f36400cfdcf40009657929991406ce3df630f460b75a3a484b52e0",
    "small-disks": "f0dc6915d225c8d76d6fc4043fbad624ecce059b260ee27103a813f221e349f5",
    "chain-containment": "50a80b6b529ab197cbd79cd03146f1d61b7ea2a8ba9c3a17b2fb2660c8dc3586",
    "link-chromatic": "e3a8a8dec43e1e7050bef5a73f6a23fd72c278a863e30f30ca969cd8b2b5a0a2",
    "empty-triangles": "f5cb9fd09a49bc953d4acccec3c9a3e2076742e946033e57f5e09246677ec167",
    "orientation-necessity": "2bed970d1129f9199b16e845b90b158cee0b1de1b6600d3a9ec378b294ace067",
    "projection-diameter": "b5d062e6e1085139609cb3370d802bedc19b844f9a515ce81b5ebd69a9f17693",
    "equivariance": "9085edea4d0e6c72a8dc976d31393d27e2805957ca6074aaed5d978e0eaaf441",
}


def _check(name):
    report = run_check(name)
    assert report["status"] == "pass", report
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name], text
    print(f"criterion '{name}' pass: {report['counts']}")
    return report


def test_criterion_01_farey_oracle():
    report = _check("farey-oracle")
    assert report["counts"]["cc_pairs"] > 100000
    assert report["counts"]["mismatches"] == 0


def test_criterion_02_census_bounds():
    report = _check("census-bounds")
    assert report["counts"]["instances"] == 1000
    assert report["counts"]["mn_scan"] == 10**6


def test_criterion_03_height_formula():
    report = _check("height-formula")
    assert report["counts"]["chains"] > 200
    assert report["counts"]["glued_pairs"] > 100


def test_criterion_04_short_classification():
    report = _check("short-classification")
    assert report["counts"]["genera"] == [2, 3, 4, 5, 6]


def test_criterion_05_sep_equivalence():
    report = _check("sep-equivalence")
    assert report["counts"]["types"] >= 74


def test_criterion_06_small_disks():
    report = _check("small-disks")
    assert report["counts"]["orbit"] >= 200


def test_criterion_07_chain_containment():
    report = _check("chain-containment")
    assert report["counts"]["pairs"] == 50


def test_criterion_08_link_chromatic():
    report = _check("link-chromatic")
    assert report["counts"]["genera"] == [2, 3]


def test_criterion_09_empty_triangles():
    report = _check("empty-triangles")
    assert report["counts"]["family_triangles"] >= 25


def test_criterion_10_orientation_necessity():
    report = _check("orientation-necessity")
    assert report["counts"]["pairs"] >= 30


def test_criterion_11_projection_diameter():
    report = _check("projection-diameter")
    assert report["counts"]["instances"] == 100
    assert report["counts"]["oracle_checked"] > 0
    assert report["counts"]["disk_certified"] > 0
    assert report["counts"]["disk_refuted"] > 0


def test_criterion_12_equivariance():
    report = _check("equivariance")
    assert report["counts"]["words"] == 20


def test_every_suite_has_a_criterion():
    import sys

    names = {
        n.split("test_criterion_")[1][3:].replace("_", "-")
        for n in dir(sys.modules[__name__])
        if n.startswith("test_criterion_")
    }
    assert names == set(SUITES)


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_raising_suite_fails_with_reproducer(monkeypatch, error):
    def boom(rng, recipe):
        raise error("library failure")

    claim, _ = SUITES["farey-oracle"]
    monkeypatch.setitem(SUITES, "farey-oracle", (claim, boom))
    entry = run_check("farey-oracle", seed=104)
    assert entry["status"] == "fail"
    assert entry["error"] == {"type": error.__name__, "message": "library failure"}
    assert entry["reproducer"] == "cbgraph run --suite farey-oracle --seed 104"
    report = run_suite(Recipe(checks=["farey-oracle", "height-formula"], seed=104))
    assert [c["status"] for c in report["checks"]] == ["fail", "pass"]
    assert (report["passed"], report["failed"]) == (1, 1)


def _plant(monkeypatch, name):
    """Make suite `name` find violations by replacing what it checks."""
    wrong = {
        "farey-oracle": [
            (oracles, "lattice_cc", lambda a, b: -1),
            (oracles, "lattice_ca", lambda c, a: -1),
            (oracles, "lattice_aa", lambda a, b: -1),
        ],
        "census-bounds": [(suites, "mn_scan", lambda bound: set())],
        "height-formula": [(oracles, "bfs_height", lambda t: -1)],
        "short-classification": [(oracles, "scan_types_by_height", lambda g, h: None)],
        "sep-equivalence": [(suites, "purely_separating", lambda t: None)],
        "small-disks": [(suites, "meridian_of_small", lambda a, c: None)],
        "chain-containment": [(ops, "intersect", lambda a, b, real=ops.intersect: real(a, b) + 1)],
        "link-chromatic": [(complexes, "chromatic_number", lambda f: -1)],
        "empty-triangles": [(complexes, "empty_triangle_family", lambda *args: [])],
        "orientation-necessity": [(ops, "algebraic_intersect", lambda a, b: -1)],
        "projection-diameter": [(suites, "farey_distance", lambda a, b: 0)],
        "equivariance": [(suites, "meridian_of_small", lambda a, c: c)],
    }
    for module, attr, value in wrong[name]:
        monkeypatch.setattr(module, attr, value)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_failed_suite_report_is_written_with_reproducer(monkeypatch, name):
    # Every suite's failure branch: the report that `cbgraph run` writes
    # serialises each failed entry, with its witnesses and reproducer.
    _plant(monkeypatch, name)
    report = run_suite(Recipe(checks=[name], seed=7))
    (entry,) = json.loads(report_json(report))["checks"]
    assert entry["status"] == "fail"
    assert entry["witnesses"]
    assert entry["reproducer"] == f"cbgraph run --suite {name} --seed 7"
    if name == "chain-containment":
        kind, word = entry["witnesses"][0]
        assert kind == "setup"
        assert all(text.startswith("CurveClass(") and p in (1, -1) for text, p in word)

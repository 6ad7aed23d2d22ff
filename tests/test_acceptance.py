"""Acceptance gate: every verification suite must pass end to end.

Each test runs one named suite from cbgraph.suites with the default seed
and prints its counters, so `pytest -v tests/test_acceptance.py` doubles
as the full verification report.  The suites re-check the quantitative
claims of the calculus against independent oracles and exhaustive scans
at desk scale; see `cbgraph suites` for the claim strings.
"""

import pytest

from cbgraph.suites import SUITES, Recipe, run_check, run_suite


def _check(name):
    report = run_check(name)
    assert report["status"] == "pass", report
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

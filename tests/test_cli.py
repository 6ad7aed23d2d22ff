import json

import pytest

from cbgraph import cli, curves, ops
from cbgraph.cb import CBType, MarkedCB, small_cb
from cbgraph.curves import CurveClass
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.suites import SUITES
from cbgraph.surface import standard_triangulation

TRI = standard_triangulation(2)
A, B, C, D = handle_curves(TRI)
E = chain_connector(TRI, 0)
W = ops.band_sum(A, B)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 0, out
    return json.loads(out)


def _write_curve(path, c):
    path.write_text(json.dumps(c.to_json()))
    return str(path)


def test_farey_commands(capsys):
    assert _run_json(capsys, ["farey", "i", "--a", "1/2", "--b", "3/5"]) == {"i": 1}
    assert _run_json(capsys, ["farey", "dist", "--a", "1/0", "--b", "5/7"]) == {
        "distance": 3
    }
    census = _run_json(capsys, ["farey", "census", "--max-height", "1", "--json"])
    assert census == ["1/0", "-1/1", "0/1", "1/1"]
    code, out = _run(capsys, ["farey", "census", "--max-height", "1"])
    assert code == 0
    assert out.splitlines() == census


def test_curve_commands(capsys, tmp_path):
    fa = _write_curve(tmp_path / "a.json", A)
    fb = _write_curve(tmp_path / "b.json", B)
    fw = _write_curve(tmp_path / "w.json", W)
    assert _run_json(capsys, ["curve", "i", "--a", fa, "--b", fb]) == {"i": 1}
    assert _run_json(capsys, ["curve", "separating", "--a", fw]) == {
        "separating": True
    }
    assert _run_json(capsys, ["curve", "separating", "--a", fa]) == {
        "separating": False
    }


def test_curve_orbit_command(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps([A.to_json()]))
    twists = tmp_path / "twists.json"
    twists.write_text(json.dumps([A.to_json(), B.to_json()]))
    out_dir = tmp_path / "orbit"
    got = _run_json(
        capsys,
        [
            "curve",
            "orbit",
            "--base",
            str(base),
            "--twists",
            str(twists),
            "--max-word",
            "1",
            "--out",
            str(out_dir),
        ],
    )
    index = json.loads((out_dir / "index.json").read_text())
    assert got["count"] == index["count"] == len(index["files"])
    loaded = [
        CurveClass.from_json(json.loads((out_dir / name).read_text()))
        for name in index["files"]
    ]
    assert set(loaded) == set(ops.orbit([A], [A, B], 1))


def test_cb_commands(capsys, tmp_path):
    got = _run_json(capsys, ["cb", "height", "--type", '{"g": 2, "interior": []}'])
    assert got["height"] == 3
    chains = _run_json(capsys, ["cb", "chains", "--type", '{"g": 2, "interior": []}'])
    assert chains["count"] == 1
    assert [CBType.from_json(t) for t in chains["chains"][0]] == [
        CBType(2, (1, 1)),
        CBType(2, (1,)),
        CBType(2, ()),
    ]
    got = _run_json(capsys, ["cb", "classify", "--genus", "2", "--height", "2"])
    assert [CBType.from_json(t) for t in got["types"]] == [CBType(2, (1,))]

    fc = tmp_path / "c.json"
    fc.write_text(json.dumps(small_cb(W).to_json()))
    fd = tmp_path / "d.json"
    fd.write_text(json.dumps(small_cb(A).to_json()))
    got = _run_json(capsys, ["cb", "contains", "--c", str(fc), "--d", str(fd)])
    assert got == {"contains": "true"}
    got = _run_json(capsys, ["cb", "contains", "--c", str(fd), "--d", str(fc)])
    assert got == {"contains": "false"}


def test_complex_build_and_analyze(capsys, tmp_path):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        json.dumps(
            {
                "genus": 2,
                "curves": [
                    {"handle": 0},
                    {"handle": 1},
                    {"connector": 0},
                    {"twist": {"base": {"handle": 1}, "along": {"handle": 0}}},
                ],
                "max_dim": 2,
            }
        )
    )
    out_dir = tmp_path / "frag"
    built = _run_json(
        capsys,
        [
            "complex",
            "build",
            "--kind",
            "tc",
            "--recipe",
            str(recipe),
            "--out",
            str(out_dir),
        ],
    )
    assert built["kind"] == "tc"
    assert built["vertices"] == 4
    saved = json.loads((out_dir / "fragment.json").read_text())
    assert (out_dir / "fragment.dot").read_text().count("label") == 4
    assert saved["provenance"]["recipe"] == "recipe.json"

    analysis = _run_json(
        capsys,
        [
            "complex",
            "analyze",
            "--in",
            str(out_dir),
            "--checks",
            "chromatic,empty-triangles,prop-intersection",
        ],
    )
    assert analysis["prop-intersection"]["ok"]
    assert analysis["chromatic"]["clique"] >= 2


def test_complex_build_cb_and_joins(capsys, tmp_path):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        json.dumps(
            {
                "genus": 2,
                "bodies": [
                    {"system": [{"band_sum": [{"handle": 0}, {"handle": 1}]}]},
                    {"system": [{"handle": 0}]},
                ],
            }
        )
    )
    out_dir = tmp_path / "cbfrag"
    built = _run_json(
        capsys,
        [
            "complex",
            "build",
            "--kind",
            "cb",
            "--recipe",
            str(recipe),
            "--out",
            str(out_dir),
        ],
    )
    assert built["kind"] == "cb"
    analysis = _run_json(
        capsys, ["complex", "analyze", "--in", str(out_dir), "--checks", "joins"]
    )
    assert all(v["is_join"] for v in analysis["joins"].values())


def test_project_and_surgery_commands(capsys, tmp_path):
    fw = _write_curve(tmp_path / "w.json", W)
    fe = _write_curve(tmp_path / "e.json", E)
    for side in ("left", "right"):
        got = _run_json(
            capsys,
            ["project", "--sep", fw, "--side", side, "--curve", fe],
        )
        assert len(got) == 1
        m = CurveClass.from_json(got[0])
        assert ops.intersect(m, W) == 0
    got = _run_json(capsys, ["surgery", "--a", fw, "--b", fe])
    assert len(got) == 2
    for d in got:
        c = CurveClass.from_json(d)
        assert ops.intersect(c, W) == 0
        assert c != W


def test_suites_listing(capsys):
    got = _run_json(capsys, ["suites"])
    assert set(got) == set(SUITES)
    assert len(got) == 12
    assert all(isinstance(claim, str) and claim for claim in got.values())


def test_run_selected_suite_deterministic(capsys, tmp_path):
    argv = [
        "run",
        "--suite",
        "sep-equivalence",
        "--suite",
        "short-classification",
        "--seed",
        "3",
        "--out",
    ]
    code, out = _run(capsys, argv + [str(tmp_path / "r1")])
    assert code == 0
    assert "[pass] sep-equivalence" in out
    code, _ = _run(capsys, argv + [str(tmp_path / "r2")])
    assert code == 0
    r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    r1.pop("timing"), r2.pop("timing")
    r1["recipe"].pop("out"), r2["recipe"].pop("out")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_run_empty_recipe(capsys, tmp_path):
    recipe = tmp_path / "empty.json"
    recipe.write_text(json.dumps({"checks": []}))
    code, out = _run(capsys, ["run", "--recipe", str(recipe)])
    assert code == 0
    assert "0 passed, 0 failed, 0 skipped" in out


def _run_error(capsys, argv):
    """Exit code and the JSON error record of a failing command."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)["error"]


def test_run_rejects_unknown_suite(capsys):
    code, error = _run_error(capsys, ["run", "--suite", "no-such-suite"])
    assert code == 2
    assert error == {"type": "ValueError", "message": "unknown suites: ['no-such-suite']"}


def test_odd_weights_exit_with_typed_error(capsys, tmp_path):
    bad = tmp_path / "odd.json"
    weights = [1] + [0] * (TRI.num_edges - 1)
    bad.write_text(json.dumps({"genus": 2, "weights": weights, "checksum": TRI.checksum}))
    code, error = _run_error(capsys, ["curve", "separating", "--a", str(bad)])
    assert code == 2
    assert error == {"type": "ValueError", "message": "odd weight sum in a triangle"}


def test_wrong_checksum_exits_with_typed_error(capsys, tmp_path):
    bad = tmp_path / "a.json"
    bad.write_text(json.dumps(dict(A.to_json(), checksum="0" * 16)))
    fb = _write_curve(tmp_path / "b.json", B)
    code, error = _run_error(capsys, ["curve", "i", "--a", str(bad), "--b", fb])
    assert code == 2
    assert error == {
        "type": "ValueError",
        "message": "curve was saved against a different triangulation",
    }


def _build_tc(capsys, tmp_path, curves):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({"genus": 2, "curves": curves}))
    argv = ["complex", "build", "--kind", "tc", "--recipe", str(recipe)]
    return _run_error(capsys, argv + ["--out", str(tmp_path / "frag")])


def test_non_simple_word_exits_with_typed_error(capsys, tmp_path):
    # a.a runs twice around a: a valid dual path that no simple curve has.
    code, error = _build_tc(capsys, tmp_path, [{"word": list(A.word * 2)}])
    assert code == 2
    assert error == {
        "type": "ValueError",
        "message": "words are not an embedded multicurve (round trip failed)",
    }
    for word in (["x"], [-1, 3, 4], [3 * TRI.num_triangles]):
        code, error = _build_tc(capsys, tmp_path, [{"word": word}])
        assert (code, error["type"]) == (2, "ValueError")
    assert not (tmp_path / "frag").exists()


def test_tripped_guard_exits_3(capsys, tmp_path, monkeypatch):
    # A detour once around the vertex; its closure holds two words at least.
    link = tuple(TRI.vertex_link)
    j = next(
        j
        for j in range(len(link))
        if TRI.side_of(TRI.mate[link[j]])[0] == TRI.side_of(A.word[0])[0]
    )
    word = A.word[:1] + link[j:] + link[:j] + A.word[1:]
    monkeypatch.setattr(curves, "MAX_VERTEX_CLOSURE", 1)
    code, error = _build_tc(capsys, tmp_path, [{"word": list(word)}])
    assert code == 3
    assert error["type"] == "RuntimeError"
    assert error["message"].startswith("vertex reduction closure exceeded MAX_VERTEX_CLOSURE = 1:")

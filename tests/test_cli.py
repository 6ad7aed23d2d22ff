import json
import time

import pytest

from cbgraph import cb, cli, complexes, curves, farey, geom, ops, suites
from cbgraph.cb import CBType, Containment, MarkedCB, small_cb
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
    # Moving 1/2 to 1/0 takes 1000/1 to -1000/1999 = [-1; 2, 999], about
    # a thousand Stern-Brocot parents deep.
    argv = ["farey", "dist", "--a", "1/2", "--b", "1000/1"]
    assert _run_json(capsys, argv) == {"distance": 3}


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


def test_cb_classify_lists_one_height_only(capsys, monkeypatch):
    # Scanning every type of genus 50 took 27 s for these 25.
    def scan(g):
        raise AssertionError("cb classify scanned every type")

    # A name `cli` imported from `cb` would escape a patch of `cb` alone.
    for module in (cb, cli):
        monkeypatch.setattr(module, "enumerate_types", scan, raising=False)
    got = _run_json(capsys, ["cb", "classify", "--genus", "50", "--height", "1"])
    assert [CBType.from_json(t) for t in got["types"]] == [
        CBType(50, (j, 50 - j)) for j in range(1, 26)
    ]
    got = _run_json(capsys, ["cb", "classify", "--genus", "50", "--height", "1000000000"])
    assert got == {"genus": 50, "height": 1000000000, "types": []}


@pytest.mark.parametrize("genus", ["0", "-3"])
def test_cb_classify_genus_below_one_exits_2(capsys, genus):
    argv = ["cb", "classify", "--genus", genus, "--height", "1"]
    code, error = _run_error(capsys, argv)
    assert code == 2
    assert error == {"type": "ValueError", "message": "exterior genus must be >= 1"}


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


UNREADABLE = [("missing.json", "No such file or directory"), ("", "Is a directory")]


@pytest.mark.parametrize("name, reason", UNREADABLE)
@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "separating", "--a", "{path}"],
        ["curve", "i", "--a", "{curve}", "--b", "{path}"],
        ["project", "--sep", "{path}", "--side", "left", "--curve", "{curve}"],
        ["complex", "build", "--kind", "tc", "--recipe", "{path}", "--out", "{out}"],
        ["run", "--recipe", "{path}"],
    ],
)
def test_unreadable_file_argument_exits_2(capsys, tmp_path, argv, name, reason):
    # A missing file, or the directory tmp_path itself.
    path = tmp_path / name
    curve = _write_curve(tmp_path / "a.json", A)
    out = tmp_path / "frag"
    code = cli.main([a.format(path=path, curve=curve, out=out) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": {"type": "ValueError", "message": f"cannot read {path}: {reason}"}
    }
    assert not out.exists()


@pytest.mark.parametrize("is_dir, reason", [(False, "No such file or directory"), (True, "Is a directory")])
def test_unreadable_fragment_exits_2(capsys, tmp_path, is_dir, reason):
    # `complex analyze --in` reads fragment.json inside the directory.
    fragment = tmp_path / "fragment.json"
    if is_dir:
        fragment.mkdir()
    code, error = _run_error(capsys, ["complex", "analyze", "--in", str(tmp_path)])
    assert code == 2
    assert error == {"type": "ValueError", "message": f"cannot read {fragment}: {reason}"}


def test_type_argument_naming_a_directory_exits_2(capsys, tmp_path):
    code, error = _run_error(capsys, ["cb", "height", "--type", str(tmp_path)])
    assert code == 2
    assert error == {"type": "ValueError", "message": f"cannot read {tmp_path}: Is a directory"}


def test_type_argument_naming_a_missing_file_exits_2(capsys, tmp_path, monkeypatch):
    # Text that is neither a path nor JSON is read as a path.
    monkeypatch.chdir(tmp_path)
    code, error = _run_error(capsys, ["cb", "height", "--type", "missing.json"])
    assert code == 2
    assert error == {
        "type": "ValueError",
        "message": "cannot read missing.json: No such file or directory",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "orbit", "--base", "{curve}", "--twists", "{curve}", "--max-word", "1"],
        ["complex", "build", "--kind", "tc", "--recipe", "{recipe}"],
        ["run", "--suite", "height-formula"],
    ],
    ids=["curve-orbit", "complex-build", "run"],
)
def test_out_naming_a_file_exits_2(capsys, tmp_path, argv):
    # `run` makes its directory before the suites run: no output at all.
    curve = _write_curve(tmp_path / "a.json", A)
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({"genus": 2, "curves": [{"handle": 0}, {"handle": 1}]}))
    out = tmp_path / "taken"
    out.write_text("kept")
    argv = [a.format(curve=curve, recipe=recipe) for a in argv] + ["--out", str(out)]
    code, error = _run_error(capsys, argv)
    assert code == 2
    assert error == {"type": "ValueError", "message": f"cannot write {out}: File exists"}
    assert out.read_text() == "kept"


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


def test_float_weights_exit_2(capsys, tmp_path):
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps(dict(A.to_json(), weights=[float(x) for x in A.weights])))
    code, error = _run_error(capsys, ["curve", "separating", "--a", str(bad)])
    assert code == 2
    assert error["type"] == "ValueError"
    assert error["message"].startswith("weights must be ints")


def test_curve_record_without_weights_exits_2(capsys, tmp_path):
    bad = tmp_path / "g2.json"
    bad.write_text(json.dumps({"genus": 2}))
    code, error = _run_error(capsys, ["curve", "separating", "--a", str(bad)])
    assert code == 2
    assert error == {"type": "ValueError", "message": "curve record lacks the key 'weights'"}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("genus", "two", "curve genus must be an int, not 'two'"),
        ("genus", 2.0, "curve genus must be an int, not 2.0"),
        ("weights", 5, "curve weights must be a list, not 5"),
        ("weights", None, "curve weights must be a list, not None"),
    ],
)
def test_curve_record_field_of_wrong_type_exits_2(capsys, tmp_path, field, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(A.to_json(), **{field: value})))
    code, error = _run_error(capsys, ["curve", "separating", "--a", str(bad)])
    assert code == 2
    assert error == {"type": "ValueError", "message": message}


def test_malformed_type_and_body_records_exit_2(capsys, tmp_path):
    code, error = _run_error(capsys, ["cb", "height", "--type", '{"g": 3}'])
    assert code == 2
    assert error == {"type": "ValueError", "message": "type record lacks the key 'interior'"}
    code, error = _run_error(capsys, ["cb", "height", "--type", "[3, [1]]"])
    assert code == 2
    assert error == {
        "type": "ValueError",
        "message": "type record is a JSON list, not an object",
    }
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"type": {"g": 2, "interior": [1]}}))
    d = tmp_path / "d.json"
    d.write_text(json.dumps(small_cb(A).to_json()))
    code, error = _run_error(capsys, ["cb", "contains", "--c", str(body), "--d", str(d)])
    assert code == 2
    assert error == {"type": "ValueError", "message": "body record lacks the key 'system'"}


@pytest.mark.parametrize(
    "command, record, message",
    [
        ("height", {"g": "x", "interior": []}, "type g must be an int, not 'x'"),
        ("height", {"g": 2, "interior": 5}, "type interior must be a list of ints, not 5"),
        ("height", {"g": 2.5, "interior": []}, "type g must be an int, not 2.5"),
        ("height", {"g": True, "interior": []}, "type g must be an int, not True"),
        ("chains", {"g": 2, "interior": [1.5]}, "type interior must be a list of ints, not [1.5]"),
    ],
)
def test_type_record_field_of_wrong_type_exits_2(capsys, command, record, message):
    code, error = _run_error(capsys, ["cb", command, "--type", json.dumps(record)])
    assert code == 2
    assert error == {"type": "ValueError", "message": message}


def test_fragment_without_kind_exits_2(capsys, tmp_path):
    record = complexes.build_tc_fragment([A, C]).to_json()
    del record["kind"]
    (tmp_path / "fragment.json").write_text(json.dumps(record))
    code, error = _run_error(capsys, ["complex", "analyze", "--in", str(tmp_path)])
    assert code == 2
    assert error == {"type": "ValueError", "message": "fragment record lacks the key 'kind'"}


def test_fragment_graph_is_taken_as_given(capsys, tmp_path):
    # Edges are index-checked on load but not re-derived from the
    # vertices: three copies of a_0 joined in a triangle load as such.
    record = complexes.build_tc_fragment([A]).to_json()
    record["vertices"] *= 3
    record["edges"] = [[0, 1], [0, 2], [1, 2]]
    (tmp_path / "fragment.json").write_text(json.dumps(record))
    argv = ["complex", "analyze", "--in", str(tmp_path), "--checks", "chromatic"]
    assert _run_json(capsys, argv) == {"kind": "tc", "chromatic": {"clique": 3, "chromatic": 3}}


def test_joins_on_an_edge_without_containment_exit_3(capsys, tmp_path):
    # The record joins S[W] (height 1) and S[chain connector] (height 2),
    # though neither body contains the other; links ask the one
    # direction the heights allow and find no containment.
    frag = complexes.ComplexFragment("cb", [small_cb(W), small_cb(E)], [(0, 1)])
    assert [v.height for v in frag.vertices] == [1, 2]
    (tmp_path / "fragment.json").write_text(json.dumps(frag.to_json()))
    argv = ["complex", "analyze", "--in", str(tmp_path), "--checks", "joins"]
    code, error = _run_error(capsys, argv)
    assert code == 3
    assert error == {
        "type": "RuntimeError",
        "message": "fragment edge without a containment direction",
    }


def test_unknown_analyze_check_exits_2(capsys, tmp_path):
    record = complexes.build_tc_fragment([A, C]).to_json()
    (tmp_path / "fragment.json").write_text(json.dumps(record))
    argv = ["complex", "analyze", "--in", str(tmp_path), "--checks", "chromatic,bogus"]
    code, error = _run_error(capsys, argv)
    assert code == 2
    assert error == {"type": "ValueError", "message": "unknown check: bogus"}


@pytest.mark.parametrize(
    "recipe, message",
    [
        ({"genus": 2}, "recipe record lacks the key 'bodies'"),
        ({"genus": 2, "bodies": [{}]}, "body record lacks the key 'system'"),
    ],
)
def test_cb_recipe_without_bodies_or_system_exits_2(capsys, tmp_path, recipe, message):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    argv = ["complex", "build", "--kind", "cb", "--recipe", str(path)]
    code, error = _run_error(capsys, argv + ["--out", str(tmp_path / "frag")])
    assert code == 2
    assert error == {"type": "ValueError", "message": message}
    assert not (tmp_path / "frag").exists()


def test_run_recipe_list_exits_2(capsys, tmp_path):
    recipe = tmp_path / "list.json"
    recipe.write_text(json.dumps(["farey-oracle"]))
    code, error = _run_error(capsys, ["run", "--recipe", str(recipe)])
    assert code == 2
    assert error == {"type": "ValueError", "message": "recipe record is a JSON list, not an object"}


def test_run_recipe_checks_string_exits_2(capsys, tmp_path):
    recipe = tmp_path / "string.json"
    recipe.write_text(json.dumps({"checks": "farey-oracle"}))
    code, error = _run_error(capsys, ["run", "--recipe", str(recipe)])
    assert code == 2
    assert error == {
        "type": "ValueError",
        "message": "recipe checks must be a list of suite names, not 'farey-oracle'",
    }


@pytest.mark.parametrize(
    "recipe, message",
    [
        (
            {"genus": 2, "orbit": {"twists": [{"handle": 0}]}},
            "orbit record lacks the key 'base'",
        ),
        (
            {"genus": 2, "orbit": {"base": [{"handle": 0}], "twists": [{"handle": 1}], "max_word": "x"}},
            "orbit max_word must be an int, not 'x'",
        ),
        ({"genus": 2, "curves": [{"handle": 0}], "max_dim": "x"}, "recipe max_dim must be an int, not 'x'"),
        ({"genus": "two", "curves": [{"handle": 0}]}, "recipe genus must be an int, not 'two'"),
    ],
)
def test_tc_recipe_field_of_wrong_type_exits_2(capsys, tmp_path, recipe, message):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    argv = ["complex", "build", "--kind", "tc", "--recipe", str(path)]
    code, error = _run_error(capsys, argv + ["--out", str(tmp_path / "frag")])
    assert code == 2
    assert error == {"type": "ValueError", "message": message}
    assert not (tmp_path / "frag").exists()


def test_cb_recipe_bodies_not_a_list_exits_2(capsys, tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"genus": 2, "bodies": 5}))
    argv = ["complex", "build", "--kind", "cb", "--recipe", str(path)]
    code, error = _run_error(capsys, argv + ["--out", str(tmp_path / "frag")])
    assert code == 2
    assert error == {"type": "ValueError", "message": "recipe bodies must be a list, not 5"}
    assert not (tmp_path / "frag").exists()


def test_orbit_base_number_exits_2(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text("5")
    twists = _write_curve(tmp_path / "twists.json", A)
    argv = ["curve", "orbit", "--base", str(base), "--twists", twists, "--max-word", "1"]
    code, error = _run_error(capsys, argv + ["--out", str(tmp_path / "orbit")])
    assert code == 2
    assert error == {"type": "ValueError", "message": "curve record is a JSON int, not an object"}
    assert not (tmp_path / "orbit").exists()


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


def test_recipe_curve_spec_without_genus_exits_2(capsys, tmp_path):
    code, error = _build_tc(capsys, tmp_path, [{}])
    assert code == 2
    assert error == {"type": "ValueError", "message": "curve record lacks the key 'genus'"}
    assert not (tmp_path / "frag").exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"handle": 99}, "bad handle index 99: expected an int in 0..3"),
        ({"handle": -1}, "bad handle index -1: expected an int in 0..3"),
        ({"handle": "x"}, "bad handle index 'x': expected an int in 0..3"),
        ({"connector": 1}, "bad connector index 1: expected an int in 0..0"),
        (
            {"twist": {"along": {"handle": 0}}},
            'twist needs an object with "base" and "along", not {\'along\': {\'handle\': 0}}',
        ),
        (
            {"twist": {"base": {"handle": 1}}},
            'twist needs an object with "base" and "along", not {\'base\': {\'handle\': 1}}',
        ),
        (
            {"twist": {"base": {"handle": 1}, "along": {"handle": 0}, "power": 1.5}},
            "bad twist power: 1.5",
        ),
        (
            {"band_sum": [{"handle": 0}]},
            "band_sum needs a list of two curve specs, not [{'handle': 0}]",
        ),
    ],
)
def test_malformed_constructor_spec_exits_2(capsys, tmp_path, spec, message):
    code, error = _build_tc(capsys, tmp_path, [spec])
    assert code == 2
    assert error == {"type": "ValueError", "message": message}
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


def test_tripped_drawing_guard_exits_3(capsys, tmp_path, monkeypatch):
    # b_0 and the chain connector are drawn with two crossings.
    fb = _write_curve(tmp_path / "b.json", B)
    fe = _write_curve(tmp_path / "e.json", E)
    monkeypatch.setattr(geom, "MAX_DRAWN_CROSSINGS", 1)
    code, error = _run_error(capsys, ["curve", "i", "--a", fb, "--b", fe])
    assert code == 3
    assert error == {
        "type": "RuntimeError",
        "message": "drawing exceeded MAX_DRAWN_CROSSINGS = 1:"
        f" 2 crossings drawn between curves of {len(B.word)} and {len(E.word)} letters",
    }


def test_vertex_link_word_exits_2(capsys, tmp_path):
    # The vertex link is null-isotopic on the closed surface.
    code, error = _build_tc(capsys, tmp_path, [{"word": list(TRI.vertex_link)}])
    assert code == 2
    assert error == {
        "type": "ValueError",
        "message": "a component reduces to the trivial loop",
    }
    assert not (tmp_path / "frag").exists()


def test_raising_suite_exits_1_with_reproducer(capsys, tmp_path, monkeypatch):
    claim, _ = suites.SUITES["sep-equivalence"]

    def broken(rng, recipe):
        raise ValueError("planted library error")

    monkeypatch.setitem(suites.SUITES, "sep-equivalence", (claim, broken))
    argv = ["run", "--suite", "sep-equivalence", "--suite", "short-classification"]
    code, out = _run(capsys, argv + ["--seed", "5", "--out", str(tmp_path / "r")])
    assert code == 1
    assert f"[fail] sep-equivalence: {claim}" in out
    assert "1 passed, 1 failed, 0 skipped" in out
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    entry = report["checks"][0]
    assert entry["status"] == "fail"
    assert entry["error"] == {"type": "ValueError", "message": "planted library error"}
    assert entry["reproducer"] == "cbgraph run --suite sep-equivalence --seed 5"
    assert report["checks"][1]["status"] == "pass"


def test_census_lists_slopes_in_their_order(capsys):
    # The census sorts by the key (q, p); the listing must be the order
    # of `Slope.__lt__` at every height.
    for h in range(1, 41):
        census = _run_json(capsys, ["farey", "census", "--max-height", str(h), "--json"])
        assert census == [str(s) for s in sorted(farey.enumerate_slopes(h))]


def test_census_beyond_its_bound_exits_3(capsys):
    # The census holds about 1.2 h^2 slopes; 10^8 would never finish.
    start = time.perf_counter()
    code, error = _run_error(capsys, ["farey", "census", "--max-height", "100000000"])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert error == {
        "type": "RuntimeError",
        "message": f"census height exceeded MAX_CENSUS_HEIGHT = {farey.MAX_CENSUS_HEIGHT}:"
        " max_height 100000000 requested",
    }
    with pytest.raises(RuntimeError, match="max_height 501 requested"):
        farey.enumerate_slopes(farey.MAX_CENSUS_HEIGHT + 1)


def test_undecided_containment_fails_complex_build(capsys, tmp_path):
    # The handle pairs a_0, a_1 and b_0, b_1 span bodies that the
    # certifier decides in neither direction.
    systems = [[{"handle": 0}, {"handle": 2}], [{"handle": 1}, {"handle": 3}]]
    u, v = MarkedCB(TRI, [A, C]), MarkedCB(TRI, [B, D])
    assert cb.contains(u, v) is cb.contains(v, u) is Containment.UNDECIDED
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({"genus": 2, "bodies": [{"system": s} for s in systems]}))
    argv = ["complex", "build", "--kind", "cb", "--recipe", str(recipe)]
    code, error = _run_error(capsys, argv + ["--out", str(tmp_path / "frag")])
    assert code == 2
    assert error["type"] == "ValueError"
    prefix = "containment undecided between vertices 0 and 1: "
    assert error["message"].startswith(prefix)
    # Both bodies are CB(2;) with three system curves, so each is named
    # by its system's weights.
    named = [
        f"{body.derived_type!r} with system weights {[list(c.weights) for c in body.system]}"
        for body in (u, v)
    ]
    assert named[0] != named[1]
    assert error["message"] == prefix + " vs ".join(named)
    assert not (tmp_path / "frag").exists()
    paths = []
    for name, body in (("u", u), ("v", v)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(body.to_json()))
    for c, d in (paths, paths[::-1]):
        got = _run_json(capsys, ["cb", "contains", "--c", str(c), "--d", str(d)])
        assert got == {"contains": "undecided"}

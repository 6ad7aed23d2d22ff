"""Every leaf subcommand keeps the CLI contract on malformed input.

`cli.main` runs in process on one valid argument set per leaf
subcommand (`ROWS`), with one argument replaced, or one field of one
JSON record that an argument names.  The contract: the run exits 0, or
it exits 2 or 3 with exactly one `{"error": ...}` line on stderr, and no
exception escapes `main`.  A bool or a float where an int goes never
exits 0; a fragment's provenance is carried, not read, so its seed is
not such a place.

Argument values are replaced by a missing path, a directory, a file of
non-JSON text or of each JSON type, or a literal (`ARG_VALUES`); record
fields by each JSON type, `null`, a bool, a float, a negative int or an
empty list (`FIELD_VALUES`), and objects also gain an extra key.
Integers that set the amount of work get small values only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import cli, curves, ops
from cbgraph.cb import small_cb
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRI = standard_triangulation(2)
A, B, C, D = handle_curves(TRI)
E = chain_connector(TRI, 0)
W = ops.band_sum(A, B)


class Record:
    """A JSON record written to a file (or, `in_dir`, to `fragment.json`
    in a directory) whose path is the argument."""

    def __init__(self, data, in_dir=False):
        self.data = data
        self.in_dir = in_dir


class Int(int):
    """An integer argument."""


OUT = object()  # an output directory

TC_RECIPE = {
    "genus": 2,
    "seed": 1,
    "curves": [
        {"handle": 0},
        {"connector": 0},
        {"word": list(A.words[0])},
        {"twist": {"base": {"handle": 1}, "along": {"handle": 0}, "power": 1}},
    ],
    "orbit": {
        "base": [{"handle": 2}],
        "twists": [{"handle": 3}, {"band_sum": [{"handle": 0}, {"handle": 1}]}],
        "max_word": 1,
        "limit": 2,
    },
    "max_dim": 2,
}
FRAGMENT = {
    "kind": "tc",
    "vertices": [A.to_json(), B.to_json(), E.to_json()],
    "edges": [[0, 1], [1, 2]],
    "simplices": [[0, 1], [1, 2]],
    "provenance": {"recipe": "r.json", "seed": 0},
}
TYPE = {"g": 2, "interior": [1]}

# One valid argument set per leaf subcommand.
ROWS = {
    "farey i": ["farey", "i", "--a", "1/2", "--b", "3/5"],
    "farey dist": ["farey", "dist", "--a", "1/0", "--b", "5/7"],
    "farey census": ["farey", "census", "--max-height", Int(2), "--json"],
    "curve i": ["curve", "i", "--a", Record(A.to_json()), "--b", Record(B.to_json())],
    "curve separating": ["curve", "separating", "--a", Record(W.to_json())],
    "curve orbit": [
        "curve", "orbit",
        "--base", Record([A.to_json()]),
        "--twists", Record([B.to_json()]),
        "--max-word", Int(1),
        "--out", OUT,
    ],
    "cb height": ["cb", "height", "--type", Record(TYPE)],
    "cb chains": ["cb", "chains", "--type", Record(TYPE)],
    "cb contains": [
        "cb", "contains", "--c", Record(small_cb(W).to_json()), "--d", Record(small_cb(A).to_json())
    ],
    "cb classify": ["cb", "classify", "--genus", Int(2), "--height", Int(2)],
    "complex build": ["complex", "build", "--kind", "tc", "--recipe", Record(TC_RECIPE), "--out", OUT],
    "complex analyze": ["complex", "analyze", "--in", Record(FRAGMENT, in_dir=True), "--checks", "chromatic"],
    "project": ["project", "--sep", Record(W.to_json()), "--side", "left", "--curve", Record(E.to_json())],
    "surgery": ["surgery", "--a", Record(W.to_json()), "--b", Record(E.to_json())],
    "suites": ["suites"],
    "run": [
        "run",
        "--recipe",
        Record({"checks": ["sep-equivalence"], "seed": 3, "genus": 2, "max_word": 3, "out": "rep"}),
    ],
}

ARG_VALUES = (
    "missing path",
    "directory",
    "non-JSON text",
    "file 1",
    "file 1.5",
    'file "x"',
    "file true",
    "file null",
    "file []",
    "file {}",
    "-1",
    "1.5",
    "true",
    "null",
    "x",
)
FIELD_VALUES = (None, True, 1.5, -1, "x", [], {}, 1)
EXTRA_KEY = "extra key"


def _sites(value, path=()):
    """Paths to every field of a JSON value, itself included."""
    yield path
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _sites(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _sites(sub, path + (i,))


# A recipe without checks runs every suite: valid input, and seconds of work.
SLOW = [("run", 2, ("checks",), None), ("run", 2, (), {}), ("run", 2, None, "file {}")]


def cases():
    """Every (row, argument index, field path or None, replacement)."""
    for name, row in ROWS.items():
        for i, token in enumerate(row):
            flag = row[i - 1] if i else None
            if not (isinstance(flag, str) and flag.startswith("--")):
                continue
            for value in ARG_VALUES:
                if (name, i, None, value) not in SLOW:
                    yield name, i, None, value
            if isinstance(token, Record):
                for path in _sites(token.data):
                    for value in FIELD_VALUES:
                        if (name, i, path, value) not in SLOW:
                            yield name, i, path, value
                    if isinstance(_at(token.data, path), dict):
                        yield name, i, path, EXTRA_KEY


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    if value == EXTRA_KEY:
        _at(data, path)["extra"] = 1
        return data
    if not path:
        return value
    _at(data, path[:-1])[path[-1]] = value
    return data


def _write(root: Path, name: str, text: str) -> str:
    path = root / name
    path.write_text(text)
    return str(path)


def _argv(root: Path, name, index, path, value):
    """The argument list of a case, its files written under `root`."""
    argv = []
    for i, token in enumerate(ROWS[name]):
        if i == index and path is None:
            argv.append(_arg_value(root, value))
            continue
        if isinstance(token, Record):
            data = _replaced(token.data, path, value) if i == index else token.data
            text = json.dumps(data)
            if token.in_dir:
                where = root / f"frag{i}"
                where.mkdir(exist_ok=True)
                _write(where, "fragment.json", text)
                argv.append(str(where))
            else:
                argv.append(_write(root, f"record{i}.json", text))
        elif token is OUT:
            argv.append(str(root / f"out{i}"))
        else:
            argv.append(str(token))
    return argv


def _arg_value(root: Path, value: str) -> str:
    if value == "missing path":
        return str(root / "missing.json")
    if value == "directory":
        (root / "adir").mkdir(exist_ok=True)
        return str(root / "adir")
    if value == "non-JSON text":
        return _write(root, "text.json", "not json {")
    if value.startswith("file "):
        return _write(root, "typed.json", value[5:])
    return value


def _int_site(name, index, path) -> bool:
    token = ROWS[name][index]
    if path is None:
        return isinstance(token, Int)
    return type(_at(token.data, path)) is int and path[0] != "provenance"


def run_case(name, index, path, value):
    """Exit code and stderr of one case, run in a scratch directory (an
    `--out` replaced by a literal is a relative path); an exception
    fails the contract."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(Path(tmp), name, index, path, value)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{type(exc).__name__} escaped main on {argv}") from exc
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


def check_contract(name, index, path, value):
    code, err = run_case(name, index, path, value)
    where = (name, index, path, value)
    if code == 0:
        wrong_number = value is True or type(value) is float or value in ("true", "1.5")
        assert not (wrong_number and _int_site(name, index, path)), ("exit 0", where)
        return
    assert code in (2, 3), (code, err, where)
    lines = err.splitlines()
    assert len(lines) == 1, (err, where)
    record = json.loads(lines[0])
    assert list(record) == ["error"] and set(record["error"]) == {"type", "message"}, where


CASES = list(cases())

# One case of each input class found by this test and mended with it.
MENDED = [
    ("farey census", 3, None, "1.5"),  # an int option's value: argparse exited
    ("cb classify", 5, None, "true"),
    ("curve orbit", 7, None, "x"),
    ("project", 4, None, "x"),  # an unknown choice
    ("complex build", 3, None, "x"),
    ("cb contains", 3, ("system",), 1),  # a body system that is not a list
    ("run", 2, ("checks", 0), []),  # an unhashable suite name
    ("run", 2, ("seed",), True),  # recipe ints took any value
    ("run", 2, ("genus",), 1.5),
    ("run", 2, ("out",), 1),  # a recipe out that is not a path
    ("complex build", 5, ("seed",), True),
    ("complex analyze", 3, ("edges",), 1),  # fragment records went unchecked
    ("complex analyze", 3, ("edges", 0, 1), True),
    ("complex analyze", 3, ("edges", 0), -1),
    ("complex analyze", 3, ("simplices", 1, 0), 1.5),
    ("complex analyze", 3, ("vertices",), None),
    ("complex analyze", 3, ("provenance",), -1),
]


def test_every_row_runs_clean():
    for name in ROWS:
        code, err = run_case(name, -1, None, None)
        assert (code, err) == (0, ""), name
    assert len(ROWS) == 16


@pytest.mark.parametrize("case", MENDED, ids=lambda case: f"{case[0]}-{case[2] or case[3]}")
def test_mended_input_classes(case):
    assert case in CASES
    code, err = run_case(*case)
    assert code == 2, (case, err)
    check_contract(*case)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES))
def test_cli_contract(case):
    check_contract(*case)


def test_a_word_that_is_no_dual_path_names_its_fault():
    word = list(TRI.vertex_link[:10]) + [0]
    code, err = run_case("complex build", 5, ("curves", 2, "word"), word)
    assert code == 2
    message = "consecutive letters do not share a triangle"
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


def test_negative_slope_as_its_own_argument():
    assert run_case("farey i", 3, None, "-1/2") == (0, "")


def test_a_twist_power_past_the_letter_bound_exits_3():
    # The image's letter count is checked before the splice, so a power
    # of 10^12 ends in one error record naming the bound, not in a
    # MemoryError traceback.
    twist = {"base": {"handle": 0}, "along": {"handle": 1}, "power": 10**12}
    recipe = {"genus": 2, "checks": [], "curves": [{"twist": twist}]}
    code, err = run_case("complex build", 5, (), recipe)
    assert code == 3
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "RuntimeError"
    assert f"MAX_TWIST_LETTERS = {ops.MAX_TWIST_LETTERS}" in error["message"]
    assert "power 1000000000000" in error["message"]
    assert "3000000000002 letters" in error["message"]


def test_a_curve_record_past_the_letter_bound_exits_3(monkeypatch):
    # The weight sum is checked before tracing, so nine weights near
    # 10^7 end at once in one error record naming the bound.  With the
    # bound at 2, A (2 letters) loads and B (3 letters) does not.
    monkeypatch.setattr(curves, "MAX_CURVE_LETTERS", 2)
    code, err = run_case("curve i", -1, None, None)
    assert code == 3
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "RuntimeError"
    assert "MAX_CURVE_LETTERS = 2" in error["message"]
    assert "sum to 3 letters" in error["message"]


def test_a_fragment_past_the_exact_bound_names_it():
    # The one size guard of the exact searches names its bound and the
    # vertex count of the record that hit it.
    record = dict(FRAGMENT, vertices=[A.to_json()] * 65, edges=[], simplices=[])
    code, err = run_case("complex analyze", 3, (), record)
    assert code == 2
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ValueError"
    assert "MAX_EXACT_VERTICES = 64" in error["message"]
    assert "65 vertices" in error["message"]

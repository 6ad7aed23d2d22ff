"""Run the verification suites over a range of seeds in one process.

Run from the root of a source checkout:

    python3 tools/scan.py A B [--suite NAME ...] [--against FILE]

For each seed N in A..B (both included) it runs
`suites.run_suite(Recipe(seed=N, checks=...))` and prints one JSON line:

- `status`: each suite's status;
- `failed`: each failed entry's name, its error or witnesses, and its
  reproducer;
- `left_out`: the suites that `--suite` left out (empty for all suites);
- `digest`: the sha256 of the report with `timing` and `recipe.out`
  removed, as `suites.report_json` writes it.

Comparing two checkouts' lines shows whether their reports are
byte-identical on every seed of the range.  Memos stay warm from one
seed to the next; answers are exact, so that changes no report.

The exit status is 1 if any seed has a failed suite, else 0.  With
`--against FILE`, lines such as `tests/golden/scan_100_300.jsonl`, it
prints instead `seed N differs` for each seed whose line is not FILE's
line of that seed (a seed FILE lacks differs), and exits 1 if any
differs, else 0, failing seeds included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cbgraph import suites  # noqa: E402


def report_digest(report: dict) -> str:
    """sha256 of a `run_suite` report without `timing` and `recipe.out`."""
    kept = {k: v for k, v in report.items() if k != "timing"}
    kept["recipe"] = {k: v for k, v in report["recipe"].items() if k != "out"}
    return hashlib.sha256(suites.report_json(kept).encode()).hexdigest()


def scan_line(seed: int, checks: list[str] | None = None) -> dict:
    """The scan's record of one seed, over `checks` or every suite."""
    report = suites.run_suite(suites.Recipe(checks=checks, seed=seed))
    ran = report["recipe"]["checks"]
    failed = [
        {k: c[k] for k in ("name", "error", "witnesses", "reproducer") if k in c}
        for c in report["checks"]
        if c["status"] == "fail"
    ]
    return {
        "seed": seed,
        "status": {c["name"]: c["status"] for c in report["checks"]},
        "failed": failed,
        "left_out": [name for name in suites.SUITES if name not in ran],
        "digest": report_digest(report),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/scan.py", description="Run the verification suites over seeds A..B."
    )
    parser.add_argument("first", type=int, metavar="A")
    parser.add_argument("last", type=int, metavar="B")
    parser.add_argument("--suite", action="append", choices=list(suites.SUITES))
    parser.add_argument("--against", metavar="FILE", type=argparse.FileType())
    opts = parser.parse_args(argv)
    golden = None
    if opts.against:
        with opts.against:
            lines = opts.against.read().splitlines()
        golden = {json.loads(text)["seed"]: text for text in lines if text}
    bad = 0
    for seed in range(opts.first, opts.last + 1):
        line = scan_line(seed, opts.suite)
        text = json.dumps(line, sort_keys=True)
        if golden is None:
            bad += bool(line["failed"])
            print(text, flush=True)
        elif golden.get(seed) != text:
            bad += 1
            print(f"seed {seed} differs", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

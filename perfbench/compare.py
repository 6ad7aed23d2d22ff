"""Compare two sets of saved benchmark outputs, metric by metric.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the standard output of one or more runs of `run.py`
(a provenance line followed by a result line, per run).  For every metric
the medians of both sides and their ratio are printed.  The comparison
is flagged when the runs disagree on the word-kernel backend, the
workload or the trace setting, since their figures are then not
comparable.
"""

from __future__ import annotations

import json
import statistics
import sys

FLAGGED_KEYS = ("kernel_backend", "workload", "trace")


def read_runs(path):
    """[(provenance, result)] for every run saved in the file."""
    runs, provenance = [], None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "provenance" in obj:
                provenance = obj["provenance"]
            elif "metrics" in obj:
                runs.append((provenance or {}, obj))
                provenance = None
    if not runs:
        raise SystemExit(f"{path}: no benchmark result found")
    return runs


def mismatches(before, after) -> list[str]:
    out = []
    for key in FLAGGED_KEYS:
        a = {p.get(key) for p, _ in before}
        b = {p.get(key) for p, _ in after}
        if len(a | b) > 1:
            out.append(f"{key} differs: {sorted(map(str, a))} vs {sorted(map(str, b))}")
    return out


def medians(runs) -> dict:
    values = {}
    for _, result in runs:
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    before, after = read_runs(argv[0]), read_runs(argv[1])
    flags = mismatches(before, after)
    for flag in flags:
        print(f"NOT COMPARABLE: {flag}")
    mb, ma = medians(before), medians(after)
    for name in sorted(set(mb) & set(ma)):
        ratio = ma[name] / mb[name] if mb[name] else float("nan")
        print(f"{name:48} {mb[name]:>14.6g} {ma[name]:>14.6g} {ratio:>8.3f}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())

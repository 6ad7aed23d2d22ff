"""Outside-in benchmark of cbgraph.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 5 --trace 0

One client in one process and one thread drives the public API in a
closed loop: each call starts when the previous one has returned.  The
inputs are generated from the seed before any timing and handed to the
program as serialized curves.  Set-up (a fresh interpreter importing
cbgraph and loading those curves) is timed `SETUP_REPEATS` times in child
processes and reported as the median.  Whole passes then run until
`--seconds` of measurement have elapsed, each pass on inputs not used
before in the run, and the pass wall times are reported as a median.
A workload with no unused inputs left stops early: acceptance and scale
make one pass, since a second would repeat their pairs.

With `--trace 1` the run instead makes its passes untraced, then again
traced over the same inputs.  The traced passes wrap each layer's public
functions from outside the package and report calls, self time and
total time per function, counts and waste ratios; the run also checks
that tracing changed no answer and reports the traced/untraced ratio.

The last line of standard output is the result object; the line before
it records provenance and the per-part timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60

# End-to-end metrics, reported with tracing off on every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Workload-specific timings, reported from the untraced pass of a traced
# run; a workload that has no such part reports 0.
PARTS = {
    "suite.projection-diameter_s": "s",
    "suite.empty-triangles_s": "s",
    "suite.equivariance_s": "s",
    "suite.census-bounds_s": "s",
    "suite.small-disks_s": "s",
    "scale.intersect_s": "s",
    "scale.twist_s": "s",
    "scale.band_sum_s": "s",
    "scale.canonicalize_s": "s",
    "pairs.p50_ms": "ms",
    "pairs.p99_ms": "ms",
}
RUN_LEVEL = {"failed_share": "ratio", "trace_overhead": "ratio", "unattributed_s": "s"}


def per_layer_units() -> dict:
    from spans import Layers

    units = {}
    for name in Layers.metric_names():
        if name.endswith(("calls", "crossings", "bigons_removed")):
            units[name] = "count"
        elif name.endswith("_s"):
            units[name] = "s"
        else:
            units[name] = "ratio"
    units.update(RUN_LEVEL)
    units.update(PARTS)
    return units


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "cbgraph" / "__init__.py").is_file():
        raise SystemExit(
            "perfbench: run from the root of a cbgraph checkout (src/cbgraph not found)"
        )
    return root


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def setup_seconds(root: Path, workload: str, text: str) -> list[float]:
    """Set-up times measured in fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=root,
            input=text,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pair_latencies(samples) -> dict:
    from summary import percentile

    return {
        "pairs.p50_ms": 1000 * percentile(samples, 50),
        "pairs.p99_ms": 1000 * percentile(samples, 99),
    }


def measure(w, seed: int, seconds: float, root: Path):
    """Untraced passes until `seconds` elapse; returns metrics and detail."""
    data = w.generate(seed, 0)
    text = json.dumps(data)
    setups = setup_seconds(root, w.name, text)
    inputs = w.load(json.loads(text))
    passes = []
    index = 0
    while True:
        if index:
            try:
                data = w.generate(seed, index)
            except IndexError:  # the workload has no unused inputs left
                break
            inputs = w.load(json.loads(json.dumps(data)))
        passes.append((inputs, w.run(inputs)))
        index += 1
        walls = [done.wall_s for _, done in passes]
        samples = [x for _, done in passes for x in done.samples]
        if sum(walls) >= seconds and len(samples) >= w.MIN_SAMPLES:
            break
    # Read before the checks, which are not part of the workload.
    rss = peak_rss_mb()
    attempted = failed = 0
    notes = []
    for inputs, done in passes:
        chk = w.check(inputs, done)
        attempted += chk.attempted
        failed += chk.failed
        notes += chk.notes
    parts = [done.parts for _, done in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
    }
    detail = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_runs_s": setups,
        "parts": {k: statistics.median([p[k] for p in parts]) for k in parts[0]},
        "samples": {"setup_s": len(setups), "wall_s": len(walls)},
        "check_notes": notes,
    }
    if samples:
        detail["parts"].update(pair_latencies(samples))
        detail["samples"]["pairs"] = len(samples)
    return metrics, detail, attempted, failed


def traced(w, seed: int):
    """The same passes untraced, then traced; enough for `MIN_SAMPLES`."""
    from spans import Layers, Tracer

    inputs, plain = [], []
    attempted = failed = 0
    notes = []
    while not plain or sum(len(p.samples) for p in plain) < w.MIN_SAMPLES:
        inputs.append(w.load(json.loads(json.dumps(w.generate(seed, len(inputs))))))
        plain.append(w.run(inputs[-1]))
        chk = w.check(inputs[-1], plain[-1])
        attempted += chk.attempted
        failed += chk.failed
        notes += chk.notes
    tracer = Tracer()
    layers = Layers(tracer)
    installed = layers.install()
    try:
        with_trace = [w.run(x) for x in inputs]
    finally:
        installed.remove()
    same = [p.answers for p in with_trace] == [p.answers for p in plain]
    attempted += 1
    if not same:
        failed += 1
        notes.append("tracing changed an answer")
    untraced_s = sum(p.wall_s for p in plain)
    traced_s = sum(p.wall_s for p in with_trace)
    samples = [x for p in plain for x in p.samples]
    metrics = dict.fromkeys(PARTS, 0.0)
    for p in plain:
        for k, v in p.parts.items():
            metrics[k] += v
    if samples:
        metrics.update(pair_latencies(samples))
    metrics.update(layers.metrics())
    metrics["failed_share"] = failed / attempted
    metrics["trace_overhead"] = traced_s / untraced_s
    metrics["unattributed_s"] = traced_s - tracer.self_time()
    detail = {
        "passes": len(plain),
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "answers_identical": same,
        "samples": {"pairs": len(samples)},
        "check_notes": notes,
    }
    return metrics, detail, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    root = checkout_root()
    sys.path.insert(0, str(root / "src"))
    import workloads
    from cbgraph import kernel

    if opts.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {opts.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[opts.workload]
    if opts.trace:
        values, detail, attempted, failed = traced(w, opts.seed)
        units = per_layer_units()
    else:
        values, detail, attempted, failed = measure(w, opts.seed, opts.seconds, root)
        units = END_TO_END
    provenance = {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "kernel_backend": kernel.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": w.name,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "timestamp": time.time(),
    }
    print(json.dumps({"provenance": provenance, "detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time one set-up: import cbgraph and load a workload's serialized inputs.

Reads the inputs as JSON on standard input and prints the seconds from
interpreter start-up of this script to the loaded inputs.  `run.py`
starts it in a fresh interpreter for every set-up it measures.

    python3 perfbench/setup_probe.py <workload> < inputs.json
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, "src")
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].load(json.load(sys.stdin))
print(time.perf_counter() - t0)

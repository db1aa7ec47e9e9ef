"""Set-up probe: one fresh process from start to the end of its first pass.

Run by the benchmark as ``python setup_child.py <workload> <seed>`` with
the simulator's ``src`` on ``PYTHONPATH``.  It imports ``repro``, builds
the workload's cells and runs its first, untimed pass (the first direct
cell at a tenth of its length, once per engine) so every lazy path is
warm, then prints one JSON line with its own split and exits.
"""

import json
import sys
import time

_START = time.perf_counter()

import repro  # noqa: E402,F401  (the import being timed)

_IMPORTED = time.perf_counter()

from cells import WORKLOADS, run_pass  # noqa: E402

#: Share of the workload's record counts the first pass runs.
FIRST_PASS_SCALE = 0.1


def main(argv) -> int:
    workload = WORKLOADS[argv[1]]
    seed = int(argv[2])
    cell = workload.direct[0]
    for engine in ("scalar", "batched"):
        run_pass(workload, cell, engine, seed, scale=FIRST_PASS_SCALE)
    done = time.perf_counter()
    print(json.dumps({"import_s": _IMPORTED - _START, "first_pass_s": done - _IMPORTED}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

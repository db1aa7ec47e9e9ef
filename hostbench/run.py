"""Host-time benchmark of the PPF simulator: cost per simulated record.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload ppf-single --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``);
the lines before it give every metric with its sample count, quartiles
and tail.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from cells import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metric -> unit (all lower-is-better).
END_TO_END_UNITS = {
    "setup_s": "s",
    "scalar_us_per_rec": "us",
    "batched_us_per_rec": "us",
    "sweep_us_per_rec": "us",
    "resweep_us_per_cell": "us",
    "peak_rss_mb": "MB",
}

OUT_DIR = HERE / "out"


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        ("_us_per_rec", "us"),
        ("_us_per_cell", "us"),
        ("calls_per_rec", "calls/rec"),
        ("_per_krec", "1/krec"),
        ("_per_train", "1/train"),
        ("_cycles", "cycles"),
        ("_ns", "ns"),
        ("_ns_q1", "ns"),
        ("_ns_q3", "ns"),
        ("_s", "s"),
        ("records_consumed", "records"),
    ):
        if name.endswith(suffix):
            return unit
    return "ratio"


def _describe(name: str, unit: str, s) -> str:
    """One report line from a ``summarize`` result."""
    tail = "".join(f" {k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
    return (
        f"{name}: {s['median']:.6g} {unit} (median of n={s['n']};"
        f" q1={s['q1']:.6g} q3={s['q3']:.6g}{tail})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from measure import peak_rss_mb, run_workload
    from summary import summarize

    run, samples = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)

    for err in run.checker.errors:
        print(f"FAILED {err}")
    metrics = {}
    if args.trace:
        for name, value in run.per_layer().items():
            unit = layer_unit(name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name}: {value:.6g} {unit}")
        path = run.write_spans()
        if path is not None:
            print(f"spans written to {path}")
    else:
        for name, values in samples.items():
            unit = END_TO_END_UNITS[name]
            summary = summarize(values)
            print(_describe(name, unit, summary))
            metrics[name] = {"value": summary["median"], "unit": unit}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
        print(f"peak_rss_mb: {metrics['peak_rss_mb']['value']:.6g} MB")
        for name, value in run.host().items():
            print(f"{name}: {value:.6g}")
    result = {
        "correct": run.checker.failed == 0,
        "attempted": run.checker.attempted,
        "failed": run.checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run of one workload: set-up, references, timed rounds.

The run is a closed loop: each pass starts when the previous one ends.
A *round* is ``passes`` passes of every direct cell under each engine,
then, per workload of the sweep grid, one cold sweep of each of its
cells and ``WARM_SAMPLES`` warm resweep samples of the whole grid.  Every pass or
sweep is one calibrated sample (see :mod:`calib`).  Each round yields
one value per metric — summed host time at reference speed over summed
records — and a metric reports the median over rounds; warm resweep
samples, alike per cell, are each one value.  Rounds repeat while they
fit in ``seconds`` (at least one round runs).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import select
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from calib import Clock
from cells import (
    Cell,
    PassResult,
    Workload,
    config_for,
    exact_counts,
    mismatches,
    outcome_of_run_result,
    run_pass,
)
from spans import BOUNDARY_LAYERS, COMPONENT_LAYERS, SpanRecorder, self_times, write_chrome_trace
from summary import summarize

HERE = Path(__file__).resolve().parent

#: Fresh processes timed for ``setup_s`` (the metric is their median).
SETUP_CHILDREN = 5

#: A warm resweep sample repeats whole sweeps until it lasts this long;
#: each workload grid takes ``WARM_SAMPLES`` of them per round.  Warm
#: sweeps are file-system bound, which the reference loop does not
#: track, so they need many samples rather than long ones.
WARM_SAMPLE_NS = 50_000_000
WARM_SAMPLES = 3

#: Spans kept in memory for the Chrome trace written at exit.
KEEP_SPANS = 50_000

CHILD_TIMEOUT_S = 120


@dataclass
class Checker:
    """Counts checked operations and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {why}")

    def compare(self, what: str, expected: Dict, actual: Dict) -> bool:
        """One operation whose outcome must equal ``expected``."""
        self.attempted += 1
        diff = mismatches(expected, actual)
        if diff:
            self._fail(what, "mismatch in " + ", ".join(diff[:5]))
            return False
        return True

    def consumed(self, what: str, expected: int, actual: int) -> bool:
        """Consumed-record check of an operation ``compare`` passed."""
        if expected != actual:
            self._fail(what, f"consumed {actual} records, reference {expected}")
            return False
        return True

    def crashed(self, what: str, err: BaseException) -> None:
        self.attempted += 1
        self._fail(what, f"{type(err).__name__}: {err}")


def _python_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_setup_child(workload: Workload, seed: int):
    """Spawn one set-up probe; return it and the line it prints at the
    end of its first pass ("" if none came within the timeout)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_child.py"), workload.name, str(seed)],
        stdout=subprocess.PIPE,
        env=_python_env(),
        cwd=str(HERE.parent),
        text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    return proc, proc.stdout.readline() if ready else ""


def _reap(proc: subprocess.Popen) -> None:
    """Wait for a set-up probe to exit, killing it if it hangs."""
    try:
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


class Run:
    """State of one run: clock, checker, references and samples."""

    def __init__(self, workload: Workload, seed: int, trace: bool, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.out_dir = out_dir
        self.clock = Clock()
        self.checker = Checker()
        self.refs: Dict[Tuple[Cell, str], PassResult] = {}
        #: metric -> one value per round
        self.rounds: Dict[str, List[float]] = {}
        #: Warm resweeps are alike per cell, so each sample is a value.
        self.resweep_us: List[float] = []
        self.suite_resweep_us: List[float] = []
        #: (scaled seconds, reference-speed factor, child's own split)
        self.setup: List[Tuple[float, float, Dict[str, float]]] = []
        # Traced-run accumulators.
        self.recorder = SpanRecorder()
        self.layer_self_ns: Dict[str, float] = {}
        self.layer_calls: Dict[str, int] = {}
        self.traced_records = 0
        self.traced_wall_ns = 0
        self.component_self_ns = 0
        self.kept_spans: List[Tuple[str, int, int, int]] = []
        self.cache_hits = 0
        self.cache_served = 0

    # -- helpers ---------------------------------------------------------------

    def _add(self, values: Dict[str, float], key: str, value: float) -> None:
        values[key] = values.get(key, 0.0) + value

    def _timed(self, fn: Callable, layers: Tuple[str, ...] = (), settle: Optional[Callable] = None):
        """Calibrated sample of ``fn`` with ``layers`` traced (if any);
        ``settle`` as for :meth:`calib.Clock.time`.

        Returns ``(result, raw_ns, scaled_ns, per-layer span totals)``.
        """
        # Collect the previous sample's garbage outside the timed region:
        # the sims hold reference cycles, and leaving them to the cyclic
        # collector would make both timing and peak memory depend on
        # when it happens to run.
        gc.collect()
        rec = self.recorder
        rec.clear()
        with rec.install(layers):
            result, raw, scaled = self.clock.time(fn, settle)
        spans = rec.spans() if layers else []
        if spans and len(self.kept_spans) < KEEP_SPANS:
            self.kept_spans.extend(spans[: KEEP_SPANS - len(self.kept_spans)])
        rec.clear()
        return result, raw, scaled, self_times(spans)

    # -- set-up and references ---------------------------------------------------

    def measure_setup(self, children: int) -> None:
        """Time fresh processes from spawn to the end of their first pass
        (their exit is not part of set-up)."""
        for _ in range(children):
            (proc, line), raw, scaled, _ = self._timed(
                lambda: _spawn_setup_child(self.workload, self.seed),
                settle=lambda spawned: _reap(spawned[0]),
            )
            if not line:
                raise RuntimeError(f"set-up probe exited with {proc.returncode} before its first pass")
            self.setup.append((scaled / 1e9, scaled / raw, json.loads(line)))

    def references(self) -> None:
        """Scalar oracle pass of every cell; first batched pass of the
        direct cells, checked against it."""
        wl = self.workload
        cells = list(dict.fromkeys(wl.direct + wl.sweep_cells))
        for cell in cells:
            self.refs[(cell, "scalar")] = run_pass(wl, cell, "scalar", self.seed)
        for cell in wl.direct:
            res = run_pass(wl, cell, "batched", self.seed)
            self.checker.compare(
                f"{cell.label} batched reference", self.refs[(cell, "scalar")].outcome, res.outcome
            )
            self.refs[(cell, "batched")] = res

    # -- samples -----------------------------------------------------------------

    def direct_pass(self, cell: Cell, engine: str, layers: Tuple[str, ...] = ()):
        """One timed pass, checked; None when it failed."""
        what = f"{cell.label} {engine} pass"
        try:
            res, raw, scaled, layer_times = self._timed(
                lambda: run_pass(self.workload, cell, engine, self.seed), layers
            )
        except Exception as err:  # a crashing pass is a failed operation
            self.checker.crashed(what, err)
            return None
        ok = self.checker.compare(what, self.refs[(cell, "scalar")].outcome, res.outcome)
        if ok:
            self.checker.consumed(what, self.refs[(cell, engine)].consumed, res.consumed)
        return res, raw, scaled, layer_times

    def sweep_pair(self, values: Dict[str, float], name: str, layers: Tuple[str, ...] = ()) -> None:
        """Cold sweeps of one workload's cells into an empty cache, one
        cell per sweep (a short sample calibrates better than a long
        one), then warm resweeps of its whole grid by fresh runners."""
        from repro import SuiteRunner, find_workload

        wl = self.workload
        cells = [cell for cell in wl.sweep_cells if cell.workload == name]
        config = config_for(wl, cells[0], "batched")
        specs = [find_workload(name)]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.out_dir, prefix="sweep-") as tmp:

            def sweep(schemes):
                runner = SuiteRunner(
                    config=config,
                    seed=self.seed,
                    jobs=1,
                    cache_dir=Path(tmp) / "cache",
                    ledger_path=Path(tmp) / "ledger.jsonl",
                )
                return runner.sweep(specs, schemes, include_baseline=False)

            cold_outcomes: Dict[Cell, Dict] = {}
            for cell in cells:
                try:
                    cold, raw, scaled, layer_times = self._timed(
                        lambda: sweep([cell.prefetcher]), layers
                    )
                except Exception as err:
                    self.checker.crashed(f"cold sweep of {cell.label}", err)
                    continue
                cold_outcomes.update(self._check_sweep("cold", cold, [cell]))
                self._add(values, "sweep_ns", scaled)
                self._add(values, "sweep_records", self.refs[(cell, "scalar")].consumed)
                if layers:
                    suite = layer_times.get("sim.suite", {})
                    self._add(values, "suite_overhead_ns", suite.get("self_ns", 0) * scaled / raw)
                    self._add(values, "suite_cells", 1)

            schemes = [cell.prefetcher for cell in cells]

            def resweep():
                results = []
                start = time.perf_counter_ns()
                while not results or time.perf_counter_ns() - start < WARM_SAMPLE_NS:
                    results.append(sweep(schemes))
                return results

            for _ in range(WARM_SAMPLES):
                try:
                    warm, raw, scaled, layer_times = self._timed(resweep, layers)
                except Exception as err:
                    self.checker.crashed(f"warm sweep of {name}", err)
                    return
                for suite_result in warm:
                    self._check_sweep("warm", suite_result, cells, cold_outcomes)
                    self.cache_hits += suite_result.cache_hits
                    self.cache_served += suite_result.cache_hits + suite_result.executed
                served = len(cells) * len(warm)
                self.resweep_us.append(scaled / served / 1e3)
                if layers:
                    suite = layer_times.get("sim.suite", {})
                    self.suite_resweep_us.append(
                        suite.get("total_ns", 0) * scaled / raw / served / 1e3
                    )

    def _check_sweep(self, kind: str, suite_result, cells, expected=None) -> Dict[Cell, Dict]:
        outcomes = {}
        for cell in cells:
            what = f"{kind} sweep cell {cell.label}"
            want = (expected or {}).get(cell, self.refs[(cell, "scalar")].outcome)
            try:
                got = outcome_of_run_result(suite_result.run_for(cell.workload, cell.prefetcher))
            except KeyError as err:
                self.checker.crashed(what, err)
                continue
            self.checker.compare(what, want, got)
            outcomes[cell] = got
        return outcomes

    # -- rounds -------------------------------------------------------------------

    def round_untraced(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for cell in self.workload.direct:
            for engine in ("scalar", "batched") * self.workload.passes:
                out = self.direct_pass(cell, engine)
                if out is not None:
                    res, raw, scaled, _ = out
                    self._add(values, f"{engine}_ns", scaled)
                    self._add(values, f"{engine}_raw_ns", raw)
                    self._add(values, f"{engine}_records", res.consumed)
        for name in self.workload.sweep_workloads:
            self.sweep_pair(values, name)
        return values

    def round_traced(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        boundary = tuple(BOUNDARY_LAYERS)
        every = boundary + tuple(COMPONENT_LAYERS)
        for cell in self.workload.direct:
            for engine in ("scalar", "batched") * self.workload.passes:
                out = self.direct_pass(cell, engine, boundary)
                if out is None:
                    continue
                res, raw, scaled, layer_times = out
                self._add(values, f"{engine}_ns", scaled)
                self._add(values, f"{engine}_raw_ns", raw)
                self._add(values, f"{engine}_records", res.consumed)
                advance = layer_times.get(f"engine.{engine}", {}).get("total_ns", 0)
                self._add(values, f"{engine}_advance_ns", advance * scaled / raw)
            out = self.direct_pass(cell, "scalar", every)
            if out is None:
                continue
            res, raw, scaled, layer_times = out
            self._add(values, "traced_ns", scaled)
            factor = scaled / raw
            for layer, entry in layer_times.items():
                self.layer_self_ns[layer] = self.layer_self_ns.get(layer, 0) + entry["self_ns"] * factor
                self.layer_calls[layer] = self.layer_calls.get(layer, 0) + entry["calls"]
                if layer in COMPONENT_LAYERS:
                    self.component_self_ns += entry["self_ns"]
            self.traced_records += res.consumed
            self.traced_wall_ns += raw
        for name in self.workload.sweep_workloads:
            self.sweep_pair(values, name, boundary)
        return values

    def loop(self, seconds: float) -> None:
        """Run rounds for ``seconds``: at least one, and no round that
        the longest one so far says would end past the deadline."""
        step = self.round_traced if self.trace else self.round_untraced
        deadline = time.perf_counter() + seconds
        longest = 0.0
        while True:
            start = time.perf_counter()
            values = step()
            for key, value in values.items():
                self.rounds.setdefault(key, []).append(value)
            now = time.perf_counter()
            longest = max(longest, now - start)
            if now + longest > deadline:
                break

    # -- metrics ---------------------------------------------------------------------

    def per_round(self, num: str, den: str, times: float) -> List[float]:
        return [
            n * times / d
            for n, d in zip(self.rounds.get(num, []), self.rounds.get(den, []))
            if d
        ]

    def end_to_end(self) -> Dict[str, List[float]]:
        """Samples of every end-to-end metric (one per round, or child)."""
        return {
            "setup_s": [scaled for scaled, _, _ in self.setup],
            "scalar_us_per_rec": self.per_round("scalar_ns", "scalar_records", 1e-3),
            "batched_us_per_rec": self.per_round("batched_ns", "batched_records", 1e-3),
            "sweep_us_per_rec": self.per_round("sweep_ns", "sweep_records", 1e-3),
            "resweep_us_per_cell": self.resweep_us,
        }

    def host(self) -> Dict[str, float]:
        calib = summarize(self.clock.calibs)

        def raw(engine: str) -> float:
            return _median(self.per_round(f"{engine}_raw_ns", f"{engine}_records", 1e-3))

        return {
            "host.calib_ns": calib["median"],
            "host.calib_ns_q1": calib["q1"],
            "host.calib_ns_q3": calib["q3"],
            "host.raw_scalar_us_per_rec": raw("scalar"),
            "host.raw_batched_us_per_rec": raw("batched"),
        }

    def per_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        recs = self.traced_records or 1
        for layer in COMPONENT_LAYERS:
            out[f"{layer}.self_us_per_rec"] = self.layer_self_ns.get(layer, 0) / recs / 1e3
            out[f"{layer}.calls_per_rec"] = self.layer_calls.get(layer, 0) / recs
        for engine in ("scalar", "batched"):
            out[f"engine.{engine}.advance_us_per_rec"] = _median(
                self.per_round(f"{engine}_advance_ns", f"{engine}_records", 1e-3)
            )
        out["sim.suite.overhead_us_per_cell"] = _median(
            self.per_round("suite_overhead_ns", "suite_cells", 1e-3)
        )
        out["sim.suite.resweep_us_per_cell"] = _median(self.suite_resweep_us)
        out["sim.suite.cache_hit_rate"] = (
            self.cache_hits / self.cache_served if self.cache_served else 0.0
        )
        for part in ("import_s", "first_pass_s"):
            out[f"setup.{part}"] = _median([f * split[part] for _, f, split in self.setup])
        ref_passes = [(cell, self.refs[(cell, "scalar")]) for cell in self.workload.direct]
        out.update(exact_counts(ref_passes))
        out["trace.coverage_frac"] = (
            self.component_self_ns / self.traced_wall_ns if self.traced_wall_ns else 0.0
        )
        traced = sum(self.rounds.get("traced_ns", [])) / recs
        light_recs = sum(self.rounds.get("scalar_records", []))
        light = sum(self.rounds.get("scalar_ns", [])) / light_recs if light_recs else 0.0
        out["trace.overhead_frac"] = traced / light - 1.0 if light else 0.0
        out.update(self.host())
        return out

    def write_spans(self) -> Optional[Path]:
        if not self.kept_spans:
            return None
        path = self.out_dir / f"spans-{self.workload.name}-seed{self.seed}.json"
        write_chrome_trace(path, self.kept_spans)
        return path


def _median(values: List[float]) -> float:
    return summarize(values)["median"] if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
) -> Tuple[Run, Dict[str, List[float]]]:
    """Set up, take references, run timed rounds; returns the run and
    the end-to-end samples."""
    run = Run(workload, seed, trace, out_dir)
    run.measure_setup(SETUP_CHILDREN)
    run.references()
    run.loop(seconds)
    return run, run.end_to_end()

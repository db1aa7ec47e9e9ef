"""Microbenchmark definitions, one per hot-path layer.

Every benchmark precomputes its inputs *outside* the timed region, runs
a fixed deterministic operation count, and reports wall time over that
count.  Fixed counts (rather than adaptive iteration) keep the measured
work identical across code versions, so ``BENCH_sim.json`` ratios are
meaningful; ``scale`` shrinks the counts uniformly for the CI smoke job.

The operation each layer counts:

* ``trace_gen``            — synthetic trace records produced (streaming)
* ``trace_gen_batch``      — records produced by the numpy batch generator
* ``cache_lookup_fill``    — cache demand lookups (misses also fill)
* ``spp_train``            — SPP training events (L2 demand accesses)
* ``filter_inference``     — perceptron inferences
* ``filter_training``      — perceptron training updates
* ``filter_inference_pythia`` — Pythia RL decisions (Q lookup, action
  choice, EQ feedback) per L2 demand access
* ``end_to_end_single_core_pythia`` — trace records through a full
  Pythia run (the zoo's end-to-end cost vs the PPF pair)
* ``end_to_end_single_core`` — trace records through a full PPF run
* ``end_to_end_single_core_batched`` — the same run pinned to the
  batched engine (the ``batched_vs_scalar`` pair: its ops_per_sec over
  ``end_to_end_single_core`` is the engine speedup, gated ≥3× versus
  the committed baseline in ``tests/test_engine_equivalence.py``)
* ``end_to_end_no_prefetch`` — trace records through a no-prefetch run
* ``end_to_end_multi_core`` — trace records through a 4-core PPF mix
  (scalar heap-scheduled engine)
* ``end_to_end_multi_core_batched`` — the same mix pinned to the
  batched engine (quantum-scheduled, fused per-core runners; the
  pair's ops_per_sec ratio is the multi-core engine speedup, gated
  ≥2.5× versus the committed baseline in
  ``tests/test_engine_equivalence.py``)
* ``telemetry_disabled_overhead`` — the PPF run with telemetry forced off
  (its wall time vs ``end_to_end_single_core`` is the disabled-telemetry
  overhead; gated at ≤2% in ``tests/test_telemetry_overhead.py``)
* ``sweep_warmup_cold``    — records through one warmup-heavy sweep cell
* ``sweep_warmup_reuse``   — same cell served from a warmup snapshot
  (the ops_per_sec ratio of the pair is the warmup-reuse speedup)
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: name -> (builder, full-scale op count).  The builder receives the op
#: count and returns a zero-argument callable that performs the timed
#: work; input setup happens inside the builder, outside the timing.
BENCHMARKS: Dict[str, Tuple[Callable[[int], Callable[[], int]], int]] = {}

#: Engine override applied by ``run_benchmarks(engine=...)`` to the
#: end-to-end benchmarks (``repro bench --engine``).  ``None`` leaves
#: each benchmark on its own pinned/default engine, so the
#: ``end_to_end_single_core`` / ``end_to_end_single_core_batched`` pair
#: stays a same-process scalar-vs-batched comparison.
_ACTIVE_ENGINE: Optional[str] = None


@dataclass
class BenchResult:
    """One benchmark's measurement."""

    name: str
    ops: int
    best_wall_s: float
    mean_wall_s: float
    repeats: int

    @property
    def ops_per_sec(self) -> float:
        if self.best_wall_s <= 0.0:
            return 0.0
        return self.ops / self.best_wall_s

    @property
    def ns_per_op(self) -> float:
        if self.ops == 0:
            return 0.0
        return 1e9 * self.best_wall_s / self.ops

    def to_dict(self) -> Dict[str, float]:
        return {
            "ops": self.ops,
            "best_wall_s": self.best_wall_s,
            "mean_wall_s": self.mean_wall_s,
            "repeats": self.repeats,
            "ops_per_sec": self.ops_per_sec,
            "ns_per_op": self.ns_per_op,
        }


def _benchmark(name: str, ops: int):
    def decorate(builder: Callable[[int], Callable[[], int]]):
        BENCHMARKS[name] = (builder, ops)
        return builder

    return decorate


# -- layer 0: trace generation --------------------------------------------------


@_benchmark("trace_gen", ops=150_000)
def _bench_trace_gen(ops: int) -> Callable[[], int]:
    from ..workloads.spec2017 import workload_by_name

    workload = workload_by_name("605.mcf_s")

    def run() -> int:
        count = 0
        for _ in workload.trace(ops, seed=1):
            count += 1
        return count

    return run


@_benchmark("trace_gen_batch", ops=150_000)
def _bench_trace_gen_batch(ops: int) -> Callable[[], int]:
    from ..workloads.batch import batch_trace

    def run() -> int:
        count = 0
        for _ in batch_trace("605.mcf_s", ops, seed=1):
            count += 1
        return count

    return run


# -- layer 1: cache -------------------------------------------------------------


@_benchmark("cache_lookup_fill", ops=200_000)
def _bench_cache(ops: int) -> Callable[[], int]:
    from ..memory.cache import Cache

    rng = random.Random(7)
    addrs: List[int] = []
    base = 0
    for i in range(ops):
        if i % 4 == 3:  # every fourth access is a far jump (mostly misses)
            addrs.append(rng.randrange(1 << 22) << 6)
        else:  # strided stream with heavy reuse (mostly hits)
            base = (base + 64) % (1 << 18)
            addrs.append(base)

    def run() -> int:
        cache = Cache("bench-l2", 512 * 1024, 8, latency=10)
        lookup = cache.lookup
        fill = cache.fill
        for addr in addrs:
            if lookup(addr) is None:
                fill(addr, is_prefetch=False, cycle=0)
        return len(addrs)

    return run


# -- layer 2: SPP ---------------------------------------------------------------


@_benchmark("spp_train", ops=60_000)
def _bench_spp(ops: int) -> Callable[[], int]:
    from ..prefetchers.spp import SPP, SPPConfig
    from ..workloads.spec2017 import workload_by_name

    stream = [
        (rec.pc, rec.addr)
        for rec in workload_by_name("623.xalancbmk_s").trace(ops, seed=2)
    ]

    def run() -> int:
        spp = SPP(SPPConfig.aggressive())
        train = spp.train
        cycle = 0
        for pc, addr in stream:
            train(addr, pc, False, cycle)
            cycle += 10
        return len(stream)

    return run


@_benchmark("filter_inference_pythia", ops=60_000)
def _bench_pythia_train(ops: int) -> Callable[[], int]:
    """Pythia's per-access decision loop on the same stream as
    ``spp_train``, so the two learned prefetchers' hot-path costs are
    directly comparable in every BENCH_sim.json."""
    from ..workloads.spec2017 import workload_by_name
    from ..zoo.pythia import Pythia

    stream = [
        (rec.pc, rec.addr)
        for rec in workload_by_name("623.xalancbmk_s").trace(ops, seed=2)
    ]

    def run() -> int:
        pythia = Pythia()
        train = pythia.train
        cycle = 0
        for pc, addr in stream:
            train(addr, pc, False, cycle)
            cycle += 10
        return len(stream)

    return run


# -- layer 3: perceptron filter -------------------------------------------------


def _synthetic_contexts(count: int, seed: int = 3):
    from ..core.features import FeatureContext

    rng = random.Random(seed)
    contexts = []
    for _ in range(count):
        trigger = rng.randrange(1 << 30) & ~0x3F
        delta = rng.randrange(-32, 33) or 1
        contexts.append(
            FeatureContext(
                candidate_addr=(trigger + delta * 64) & ~0x3F,
                trigger_addr=trigger,
                pc=0x400000 + rng.randrange(64) * 4,
                pcs=(
                    0x400000 + rng.randrange(64) * 4,
                    0x400000 + rng.randrange(64) * 4,
                    0x400000 + rng.randrange(64) * 4,
                ),
                delta=delta,
                depth=rng.randrange(1, 12),
                signature=rng.randrange(1 << 12),
                last_signature=rng.randrange(1 << 12),
                confidence=rng.randrange(101),
            )
        )
    return contexts


@_benchmark("filter_inference", ops=150_000)
def _bench_filter_inference(ops: int) -> Callable[[], int]:
    from ..core.filter import PerceptronFilter

    contexts = _synthetic_contexts(4_096)
    n_ctx = len(contexts)

    def run() -> int:
        filt = PerceptronFilter()
        infer = filt.infer
        for i in range(ops):
            infer(contexts[i % n_ctx])
        return ops

    return run


@_benchmark("filter_training", ops=100_000)
def _bench_filter_training(ops: int) -> Callable[[], int]:
    from ..core.filter import PerceptronFilter

    contexts = _synthetic_contexts(4_096)
    setup = PerceptronFilter()
    index_sets = [setup.feature_indices(ctx) for ctx in contexts]
    n_idx = len(index_sets)

    def run() -> int:
        filt = PerceptronFilter()
        train = filt.train
        for i in range(ops):
            train(index_sets[i % n_idx], positive=(i & 3) != 0)
        return ops

    return run


# -- layer 4: full single-core runs ---------------------------------------------


def _end_to_end(prefetcher: str, ops: int, engine: Optional[str] = None) -> Callable[[], int]:
    import dataclasses

    from ..sim.config import SimConfig
    from ..sim.single_core import run_single_core
    from ..workloads.spec2017 import workload_by_name

    warmup = ops // 5
    config = SimConfig.quick(measure_records=ops - warmup, warmup_records=warmup)
    # A pinned engine (the batched_vs_scalar pair) wins over the CLI-wide
    # --engine override; an unpinned benchmark follows the override.
    engine = engine if engine is not None else _ACTIVE_ENGINE
    if engine is not None:
        config = dataclasses.replace(config, engine=engine)
    workload = workload_by_name("623.xalancbmk_s")

    def run() -> int:
        run_single_core(workload, prefetcher, config, seed=1)
        return ops

    return run


@_benchmark("end_to_end_single_core", ops=10_000)
def _bench_end_to_end_ppf(ops: int) -> Callable[[], int]:
    return _end_to_end("ppf", ops)


@_benchmark("end_to_end_single_core_batched", ops=10_000)
def _bench_end_to_end_ppf_batched(ops: int) -> Callable[[], int]:
    """The PPF run pinned to ``--engine batched`` (same trace, same
    config otherwise), so every BENCH_sim.json carries the
    scalar/batched pair measured back to back in one process."""
    return _end_to_end("ppf", ops, engine="batched")


@_benchmark("end_to_end_no_prefetch", ops=10_000)
def _bench_end_to_end_none(ops: int) -> Callable[[], int]:
    return _end_to_end("none", ops)


@_benchmark("end_to_end_single_core_pythia", ops=10_000)
def _bench_end_to_end_pythia(ops: int) -> Callable[[], int]:
    return _end_to_end("pythia", ops)


@_benchmark("telemetry_disabled_overhead", ops=10_000)
def _bench_telemetry_disabled(ops: int) -> Callable[[], int]:
    """``end_to_end_single_core`` with telemetry explicitly disabled.

    Passing ``telemetry=None`` is the exact call every sweep worker
    makes; the only extra work versus ``end_to_end_single_core`` is the
    one per-``advance`` attribute check that guards the instrumented
    branch.  The gate: this benchmark's wall time stays within 2% of
    ``end_to_end_single_core`` (asserted structurally in
    ``tests/test_telemetry_overhead.py``; measured numbers live in
    ``docs/performance.md``).
    """
    import dataclasses

    from ..sim.config import SimConfig
    from ..sim.single_core import run_single_core
    from ..workloads.spec2017 import workload_by_name

    warmup = ops // 5
    config = SimConfig.quick(measure_records=ops - warmup, warmup_records=warmup)
    if _ACTIVE_ENGINE is not None:
        config = dataclasses.replace(config, engine=_ACTIVE_ENGINE)
    workload = workload_by_name("623.xalancbmk_s")

    def run() -> int:
        run_single_core(workload, "ppf", config, seed=1, telemetry=None)
        return ops

    return run


# -- layer 4b: full multi-core runs ---------------------------------------------


def _end_to_end_multi(ops: int, engine: Optional[str] = None) -> Callable[[], int]:
    """A pinned 4-core PPF mix; ``ops`` counts nominal records (all cores).

    The mix pairs two memory-intensive workloads (605.mcf_s, 619.lbm_s)
    with two lighter ones so the shared LLC/DRAM see real contention and
    the cycle-quantum scheduler sees uneven per-core progress — the
    regime the batched multi-core engine is built for.
    """
    import dataclasses

    from ..sim.config import SimConfig
    from ..sim.multi_core import run_multi_core
    from ..workloads.mixes import WorkloadMix
    from ..workloads.spec2017 import workload_by_name

    names = ("605.mcf_s", "603.bwaves_s", "619.lbm_s", "623.xalancbmk_s")
    mix = WorkloadMix(
        name="bench4", workloads=tuple(workload_by_name(n) for n in names)
    )
    per_core = ops // len(names)
    warmup = per_core // 5
    config = dataclasses.replace(
        SimConfig.multicore(len(names)),
        warmup_records=warmup,
        measure_records=per_core - warmup,
    )
    # Same pin-beats-override rule as the single-core pair.
    engine = engine if engine is not None else _ACTIVE_ENGINE
    if engine is not None:
        config = dataclasses.replace(config, engine=engine)

    def run() -> int:
        run_multi_core(mix, "ppf", config, seed=3)
        return ops

    return run


@_benchmark("end_to_end_multi_core", ops=12_000)
def _bench_end_to_end_multi(ops: int) -> Callable[[], int]:
    return _end_to_end_multi(ops)


@_benchmark("end_to_end_multi_core_batched", ops=12_000)
def _bench_end_to_end_multi_batched(ops: int) -> Callable[[], int]:
    """The 4-core mix pinned to ``--engine batched``, completing the
    multi-core half of the scalar/batched pair in every BENCH_sim.json."""
    return _end_to_end_multi(ops, engine="batched")


# -- layer 5: sweep warmup reuse -------------------------------------------------


def _sweep_cell(ops: int, snapshot_dir: Optional[str] = None) -> Callable[[], int]:
    """One warmup-heavy sweep cell; 90% of its records are warmup.

    The skew mirrors real sweep economics (statistically meaningful
    warmup dwarfs each cell's measured region) and is what makes the
    cold/warm pair a meaningful speedup probe: reuse can at best
    eliminate the warmup fraction.
    """
    from ..sim.config import SimConfig
    from ..sim.suite import SuiteRunner
    from ..workloads.spec2017 import workload_by_name

    measure = max(1, ops // 10)
    config = SimConfig.quick(measure_records=measure, warmup_records=ops - measure)
    workload = workload_by_name("605.mcf_s")

    def run() -> int:
        # A fresh runner per repeat: no memory/result cache — only the
        # snapshot store (when given) carries work across runs.
        runner = SuiteRunner(config, seed=1, jobs=1, snapshot_dir=snapshot_dir)
        runner.sweep([workload], ["spp"], include_baseline=False)
        return ops

    return run


@_benchmark("sweep_warmup_cold", ops=20_000)
def _bench_sweep_cold(ops: int) -> Callable[[], int]:
    return _sweep_cell(ops)


@_benchmark("sweep_warmup_reuse", ops=20_000)
def _bench_sweep_warm(ops: int) -> Callable[[], int]:
    import tempfile

    store = tempfile.TemporaryDirectory(prefix="repro-bench-snap-")
    run = _sweep_cell(ops, snapshot_dir=store.name)
    run()  # untimed: publish the warmup snapshot the timed repeats reuse

    def timed() -> int:
        count = run()
        _ = store  # closure keeps the snapshot directory alive across repeats
        return count

    return timed


# -- driver ---------------------------------------------------------------------


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    repeats: int = 3,
    timer: Callable[[], float] = time.perf_counter,
    engine: Optional[str] = None,
) -> List[BenchResult]:
    """Run the selected benchmarks and return their measurements.

    ``scale`` shrinks every operation count (the smoke mode); ``repeats``
    re-runs each benchmark and keeps the best wall time (the least
    noise-disturbed run) alongside the mean.  ``engine`` overrides the
    simulation engine for the end-to-end benchmarks that aren't pinned
    to one (``repro bench --engine``); the name is validated through the
    registry so typos fail with the catalog, not mid-benchmark.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    if engine is not None:
        from .. import registry
        from ..engine import make_engine  # noqa: F401  (registers engines)

        registry.create("engine", engine)  # raises UnknownComponentError
    selected = list(BENCHMARKS) if names is None else list(names)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {unknown}; available: {sorted(BENCHMARKS)}"
        )
    global _ACTIVE_ENGINE
    previous_engine = _ACTIVE_ENGINE
    _ACTIVE_ENGINE = engine
    try:
        results = []
        for name in selected:
            builder, full_ops = BENCHMARKS[name]
            ops = max(1_000, int(full_ops * scale))
            run = builder(ops)
            walls = []
            for _ in range(repeats):
                start = timer()
                run()
                walls.append(timer() - start)
            results.append(
                BenchResult(
                    name=name,
                    ops=ops,
                    best_wall_s=min(walls),
                    mean_wall_s=sum(walls) / len(walls),
                    repeats=repeats,
                )
            )
    finally:
        _ACTIVE_ENGINE = previous_engine
    return results

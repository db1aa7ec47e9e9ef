"""Workloads, the cells they run, and the outcome checker.

Every simulation goes through the simulator's public entry points:
``SingleCoreSim`` / ``MultiCoreSim`` phases for direct passes and
``SuiteRunner.sweep`` for sweeps.  A pass returns a :class:`PassResult`
whose ``outcome`` is what the checker compares against the scalar
oracle's pass over the same cell and seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

#: Stats keys (by suffix) that make up a cell's checked outcome, next to
#: each core's instructions and cycles (so IPC): per-level demand hits
#: and misses, issued/useful prefetches and filter decisions.
OUTCOME_SUFFIXES = (
    ".demand_hits",
    ".demand_misses",
    "prefetch.issued",
    "prefetch.useful",
    "filter.accepted_l2",
    "filter.accepted_llc",
    "filter.rejected",
)


@dataclass(frozen=True)
class Cell:
    """One simulation: a workload (or a mix of ``members``) and a scheme."""

    workload: str
    prefetcher: str
    members: Tuple[str, ...] = ()

    @property
    def cores(self) -> int:
        return len(self.members) or 1

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.prefetcher}"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: direct cells plus one sweep grid."""

    name: str
    direct: Tuple[Cell, ...]
    sweep_workloads: Tuple[str, ...]
    sweep_prefetchers: Tuple[str, ...]
    #: Warmup/measure records per core of every pass and sweep cell.
    warmup: int
    measure: int
    #: Passes of each direct cell per engine per round.
    passes: int = 1

    @property
    def sweep_cells(self) -> Tuple[Cell, ...]:
        names = list(self.sweep_prefetchers)
        if "none" not in names:
            names.insert(0, "none")  # SuiteRunner.sweep adds the baseline
        return tuple(Cell(w, p) for w in self.sweep_workloads for p in names)


_PPF_TRIO = ("623.xalancbmk_s", "603.bwaves_s", "605.mcf_s")
_MIX4 = ("623.xalancbmk_s", "605.mcf_s", "603.bwaves_s", "619.lbm_s")
_ZOO_WORKLOADS = ("623.xalancbmk_s", "470.lbm", "471.omnetpp", "classification")
_ZOO_SCHEMES = ("none", "spp", "pythia", "two-level", "filtered:pythia")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's mechanism on phase-varying, streaming and
        # pointer-chasing traces; the batched engine's fused PPF kernel.
        Workload(
            name="ppf-single",
            direct=tuple(Cell(w, "ppf") for w in _PPF_TRIO),
            sweep_workloads=_PPF_TRIO,
            sweep_prefetchers=("ppf",),
            warmup=1000,
            measure=3000,
        ),
        # MultiCoreSim: generator runners, heap scheduler, shared LLC/DRAM
        # and replayed records.  Longer mixes replay more, but the replay
        # mix then moves the per-record cost by up to 17% between seeds.
        Workload(
            name="ppf-mix4",
            direct=(Cell("mix4", "ppf", _MIX4),),
            sweep_workloads=_MIX4,
            sweep_prefetchers=("ppf",),
            warmup=250,
            measure=750,
            # One short cell: three passes per round keep the engine
            # metrics' rounds as well averaged as the other workloads'.
            passes=3,
        ),
        # Zoo prefetchers over four families, swept cold and warm: the
        # batched generic loop, bypassing the PPF kernel.  These four build
        # their traces in under 20 ms; cassandra and 429.mcf take ~85 ms
        # per cell, which would swamp cells this short.
        Workload(
            name="zoo-sweep",
            direct=tuple(Cell(w, p) for w in _ZOO_WORKLOADS for p in _ZOO_SCHEMES),
            sweep_workloads=_ZOO_WORKLOADS,
            sweep_prefetchers=_ZOO_SCHEMES,
            warmup=500,
            measure=1500,
        ),
    )
}


def config_for(workload: Workload, cell: Cell, engine: str, scale: float = 1.0):
    """The ``SimConfig`` of one pass (``scale`` shrinks the record counts)."""
    from repro import SimConfig

    base = SimConfig.multicore(cell.cores) if cell.members else SimConfig.default()
    return dataclasses.replace(
        base,
        warmup_records=max(1, int(workload.warmup * scale)),
        measure_records=max(1, int(workload.measure * scale)),
        engine=engine,
    )


@dataclass
class PassResult:
    """What one pass produced."""

    consumed: int
    nominal: int
    #: Records stepped after the warmup boundary (replays included).
    measured: int
    outcome: Dict[str, float]
    #: Per measured core: scoped stats plus instructions and cycles.
    cores: List[Dict[str, float]]
    #: Shared LLC and DRAM stats.
    shared: Dict[str, float]


def _project(cores: Sequence[Mapping[str, float]], shared: Mapping[str, float]) -> Dict[str, float]:
    outcome: Dict[str, float] = {}
    for i, view in enumerate(cores):
        for key in sorted(view):
            if key in ("instructions", "cycles") or key.endswith(OUTCOME_SUFFIXES):
                outcome[f"core{i}.{key}"] = view[key]
    for key in sorted(shared):
        if key.endswith(OUTCOME_SUFFIXES):
            outcome[key] = shared[key]
    return outcome


def split_run_result(result) -> Tuple[List[Dict[str, float]], Dict[str, float]]:
    """A single-core ``RunResult`` as (core views, shared stats)."""
    prefix = f"core{result.core}."
    view = {k[len(prefix):]: v for k, v in result.stats.items() if k.startswith(prefix)}
    view["instructions"] = result.instructions
    view["cycles"] = result.cycles
    shared = {k: v for k, v in result.stats.items() if not k.startswith("core")}
    return [view], shared


def outcome_of_run_result(result) -> Dict[str, float]:
    """The checked outcome of a single-core ``RunResult``."""
    return _project(*split_run_result(result))


def run_pass(workload: Workload, cell: Cell, engine: str, seed: int, scale: float = 1.0) -> PassResult:
    """Simulate ``cell`` once through the sim phase API."""
    from repro import WorkloadMix, find_workload
    from repro.sim.multi_core import MultiCoreSim
    from repro.sim.single_core import SingleCoreSim

    config = config_for(workload, cell, engine, scale)
    nominal = cell.cores * (config.warmup_records + config.measure_records)
    if not cell.members:
        sim = SingleCoreSim(find_workload(cell.workload), cell.prefetcher, config, seed)
        sim.warmup()
        sim.begin_measurement()
        sim.measure()
        cores, shared = split_run_result(sim.result())
        return PassResult(
            sim.consumed, nominal, config.measure_records, _project(cores, shared), cores, shared
        )
    mix = WorkloadMix(cell.workload, tuple(find_workload(m) for m in cell.members))
    sim = MultiCoreSim(mix, cell.prefetcher, config, seed)
    sim.warmup()
    sim.begin_measurement()
    result = sim.measure()
    cores = []
    for outcome in result.cores:
        view = dict(outcome.stats)
        view["instructions"] = outcome.instructions
        view["cycles"] = outcome.cycles
        cores.append(view)
    shared = {
        k: v for k, v in sim.hierarchy.snapshot().items() if k.startswith(("llc.", "dram."))
    }
    # The checked outcome is MultiCoreResult: every core's counters as
    # captured at its own last measured record.  The shared LLC/DRAM
    # counters read after measure() also hold the replays that ran
    # before the last capture, and the batched engine's L1-hit
    # run-ahead can reach that capture before the scalar schedule has
    # stepped the other cores as far (seed 2 of ppf-mix4: 4 LLC demand
    # accesses fewer), so they are reported, not checked.
    return PassResult(
        sim.consumed, nominal, sum(sim.steps), _project(cores, {}), cores, shared
    )


def mismatches(expected: Mapping[str, float], actual: Mapping[str, float]) -> List[str]:
    """Keys whose values differ (or exist on one side only)."""
    keys = sorted(set(expected) | set(actual))
    return [k for k in keys if expected.get(k) != actual.get(k)]


def exact_counts(passes: Sequence[Tuple[Cell, PassResult]]) -> Dict[str, float]:
    """Simulated-behaviour counts over the reference passes.

    They depend only on the cells and the seed, so they repeat exactly;
    a change in one means the simulated behaviour changed.
    """
    tot: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        tot[key] = tot.get(key, 0) + value

    for cell, res in passes:
        for view in res.cores:
            get = view.get
            add("instructions", get("instructions", 0))
            add("cycles", get("cycles", 0))
            add("loads", get("cpu.loads", 0))
            add("rob_stalls", get("cpu.rob_stalls", 0))
            for level in ("l1", "l2"):
                add(f"{level}.hits", get(f"{level}.demand_hits", 0))
                add(f"{level}.accesses", get(f"{level}.demand_accesses", 0))
            # SPP is trained on every L2 demand access, bare or under PPF.
            spp_key = {
                "spp": "prefetcher.prefetch.candidates",
                "ppf": "prefetcher.underlying.prefetch.candidates",
                "filtered:spp": "prefetcher.underlying.prefetch.candidates",
            }.get(cell.prefetcher)
            if spp_key is not None:
                add("spp.candidates", get(spp_key, 0))
                add("spp.trains", get("l2.demand_accesses", 0))
            if "prefetcher.filter.inferences" in view:
                add("filter.accepted", get("prefetcher.filter.accepted_l2", 0) + get("prefetcher.filter.accepted_llc", 0))
                add("filter.inferences", get("prefetcher.filter.inferences", 0))
            if "prefetcher.ppf.displacement_trainings" in view:
                add("ppf.issued", get("prefetcher.prefetch.issued", 0))
                add("ppf.useful", get("prefetcher.prefetch.useful", 0))
        shared = res.shared
        add("llc.hits", shared.get("llc.demand_hits", 0))
        add("llc.accesses", shared.get("llc.demand_accesses", 0))
        add("llc.misses", shared.get("llc.demand_misses", 0))
        add("dram.row_hits", shared.get("dram.row_hits", 0))
        add("dram.accesses", shared.get("dram.accesses", 0))
        add("dram.queue_delay", shared.get("dram.total_queue_delay", 0))
        add("consumed", res.consumed)
        add("nominal", res.nominal)
        add("measured", res.measured)

    def ratio(num: str, den: str, times: float = 1.0) -> float:
        d = tot.get(den, 0)
        return times * tot.get(num, 0) / d if d else 0.0

    return {
        "cpu.ipc": ratio("instructions", "cycles"),
        "cpu.o3core.rob_stalls_per_krec": ratio("rob_stalls", "loads", 1000),
        "memory.l1.hit_rate": ratio("l1.hits", "l1.accesses"),
        "memory.l2.hit_rate": ratio("l2.hits", "l2.accesses"),
        "memory.llc.hit_rate": ratio("llc.hits", "llc.accesses"),
        "memory.llc.misses_per_krec": ratio("llc.misses", "measured", 1000),
        "memory.dram.row_hit_rate": ratio("dram.row_hits", "dram.accesses"),
        "memory.dram.queue_delay_cycles": ratio("dram.queue_delay", "dram.accesses"),
        "prefetchers.spp.candidates_per_train": ratio("spp.candidates", "spp.trains"),
        "core.filter.accept_rate": ratio("filter.accepted", "filter.inferences"),
        "core.ppf.useful_frac": ratio("ppf.useful", "ppf.issued"),
        "sim.records_consumed": tot.get("consumed", 0),
        "sim.replay_frac": 1.0 - ratio("nominal", "consumed"),
    }

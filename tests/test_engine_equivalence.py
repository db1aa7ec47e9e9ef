"""Scalar/batched engine equivalence: one contract, two implementations.

The engine seam (``repro.engine``) promises that ``batched`` is
*bit-identical* with ``scalar`` — not approximately equal: the fused
kernel replays the exact scalar event order, so every counter in the
stats snapshot must match to the last unit (see docs/performance.md,
"Batched engine").  This suite enforces the contract four ways:

* every golden-stats cell (none/spp/ppf × two workloads) re-run under
  ``--engine batched`` must match the committed golden file exactly —
  the same oracle the scalar path is pinned to;
* checkpoints cross engines: a snapshot taken under one engine restores
  under the other and finishes bit-identical with a straight run, in
  both directions;
* telemetry instrumentation is a pure observability knob — it may not
  perturb results;
* a derandomized property test draws workload family, scheme, phase
  lengths and a cut point, and holds single-core batched to scalar on
  the full stats and on ``state_dict()`` at the cut.

The final test is the performance gate: ``end_to_end_single_core``
under the batched engine must beat the committed pre-PR baseline by at
least 3×.  It is skipped under CI (shared hosts make wall-clock gates
flaky there) but enforced locally.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.bench.micro import BENCHMARKS, run_benchmarks
from repro.bench.report import default_baseline_path, load_baseline
from repro.engine.batched import BatchedEngine
from repro.engine.multi_core import _core_mode
from repro.sim.config import SimConfig
from repro.sim.single_core import SingleCoreSim, run_single_core
from repro.telemetry import Telemetry, activate
from repro.workloads import find_workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "single_core_stats.json"

#: Must mirror tests/test_golden_stats.py — same cells, same oracle.
MEASURE_RECORDS = 2_000
WARMUP_RECORDS = 500
SEED = 3


def _config(engine: str = "scalar", **overrides) -> SimConfig:
    config = SimConfig.quick(
        measure_records=MEASURE_RECORDS, warmup_records=WARMUP_RECORDS
    )
    return dataclasses.replace(config, engine=engine, **overrides)


def _load_golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _assert_results_identical(result, other, context: str) -> None:
    assert result.instructions == other.instructions, context
    assert result.cycles == other.cycles, context
    assert result.average_lookahead_depth == other.average_lookahead_depth, context
    mismatched = {
        stat: (result.stats.get(stat), other.stats.get(stat))
        for stat in set(result.stats) | set(other.stats)
        if result.stats.get(stat) != other.stats.get(stat)
    }
    assert not mismatched, f"{context}: {len(mismatched)} stat(s): {mismatched}"


class TestGoldenCellsUnderBothEngines:
    """The batched engine answers to the same oracle as the scalar one.

    Tolerance is *zero*: the seam contract documents bit-identity, so a
    single off-by-one counter is a real kernel bug, not noise.
    """

    @pytest.mark.parametrize("cell", sorted(_load_golden()))
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_cell_matches_golden(self, cell, engine):
        workload_name, scheme = cell.split("/")
        expect = _load_golden()[cell]
        result = run_single_core(
            find_workload(workload_name), scheme, _config(engine), seed=SEED
        )
        assert result.instructions == expect["instructions"], (cell, engine)
        assert result.cycles == expect["cycles"], (cell, engine)
        assert result.average_lookahead_depth == pytest.approx(
            expect["average_lookahead_depth"], abs=0
        )
        mismatched = {
            stat: (result.stats.get(stat), value)
            for stat, value in expect["stats"].items()
            if result.stats.get(stat) != value
        }
        assert not mismatched, (
            f"{cell} under {engine}: {len(mismatched)} stat(s) diverged: {mismatched}"
        )

    def test_ppf_cell_uses_the_fused_kernel(self):
        """Guard against the fused path silently falling back to generic
        (the golden comparison would still pass, but the 3× gate is won
        by the fused runner — losing it is a performance regression)."""
        sim = SingleCoreSim(find_workload("605.mcf_s"), "ppf", _config("batched"), seed=SEED)
        assert isinstance(sim._engine, BatchedEngine)
        assert _core_mode(sim, 0) == "ppf"
        spp_sim = SingleCoreSim(find_workload("605.mcf_s"), "spp", _config("batched"), seed=SEED)
        assert _core_mode(spp_sim, 0) == "generic"


class TestCrossEngineCheckpoints:
    """``state_dict`` is engine-portable: the seam contract requires all
    state flushed when ``advance`` returns, so a snapshot taken under
    either engine restores under the other at the same record boundary.
    """

    @pytest.mark.parametrize(
        "warmup_engine,resume_engine",
        [("scalar", "batched"), ("batched", "scalar")],
    )
    def test_round_trip_finishes_bit_identical(self, warmup_engine, resume_engine):
        workload = find_workload("623.xalancbmk_s")
        reference = run_single_core(workload, "ppf", _config("scalar"), seed=SEED)

        first = SingleCoreSim(workload, "ppf", _config(warmup_engine), seed=SEED)
        first.warmup()
        state = first.state_dict()

        second = SingleCoreSim(workload, "ppf", _config(resume_engine), seed=SEED)
        second.load_state(state)
        second.begin_measurement()
        second.measure()
        _assert_results_identical(
            second.result(), reference, f"{warmup_engine}->{resume_engine}"
        )

    def test_mid_measure_snapshot_crosses_engines(self):
        """Chunk-interior boundaries too: a batched sim snapshotted after
        an odd number of measured records resumes scalar, and vice versa
        back — two hops, still bit-identical."""
        workload = find_workload("605.mcf_s")
        reference = run_single_core(workload, "ppf", _config("scalar"), seed=SEED)

        sim = SingleCoreSim(workload, "ppf", _config("batched"), seed=SEED)
        sim.warmup()
        sim.begin_measurement()
        sim.advance(777)
        hop = SingleCoreSim(workload, "ppf", _config("scalar"), seed=SEED)
        hop.load_state(sim.state_dict())
        hop.advance(400)
        final = SingleCoreSim(workload, "ppf", _config("batched"), seed=SEED)
        final.load_state(hop.state_dict())
        final.measure()
        _assert_results_identical(final.result(), reference, "batched->scalar->batched")


class TestKnobsDoNotPerturbResults:
    def test_probe_sampling_shim_is_read_only(self):
        """Instrumented batched runs sample probes at chunk boundaries;
        every non-telemetry stat must match the uninstrumented run."""
        workload = find_workload("605.mcf_s")
        plain = run_single_core(workload, "ppf", _config("batched"), seed=SEED)
        session = Telemetry(probe_every=300)
        with activate(session):
            probed = run_single_core(workload, "ppf", _config("batched"), seed=SEED)
        assert any(key.startswith("telemetry.") for key in probed.stats)
        assert plain.instructions == probed.instructions
        assert plain.cycles == probed.cycles
        mismatched = {
            stat: (plain.stats.get(stat), probed.stats.get(stat))
            for stat in plain.stats
            if plain.stats.get(stat) != probed.stats.get(stat)
        }
        assert not mismatched, mismatched


@pytest.mark.skipif(
    os.environ.get("CI") is not None,
    reason="wall-clock gate is advisory under CI (shared hosts); enforced locally",
)
def test_batched_engine_is_at_least_3x_over_committed_baseline():
    """``end_to_end_single_core`` under ``--engine batched`` vs the
    committed pre-PR baseline (benchmarks/baseline_pre_pr.json).

    Best-of-N with whole-comparison retries, same noise discipline as
    tests/test_telemetry_overhead.py.  The committed baseline was
    recorded on the pre-optimization scalar path, so the batched engine
    clears 3× with margin on any comparable host.
    """
    assert "end_to_end_single_core_batched" in BENCHMARKS
    baseline = load_baseline(default_baseline_path())
    assert baseline is not None, "committed baseline missing"
    base_ns = baseline["results"]["end_to_end_single_core"]["ns_per_op"]
    speedups = []
    for _ in range(3):
        (result,) = run_benchmarks(
            ["end_to_end_single_core_batched"], scale=0.3, repeats=3
        )
        assert result.ns_per_op > 0
        speedup = base_ns / result.ns_per_op
        speedups.append(speedup)
        if speedup >= 3.0:
            return
    pytest.fail(
        f"batched engine missed the 3x gate in every attempt: "
        f"speedups {[f'{s:.2f}x' for s in speedups]} vs baseline "
        f"{base_ns:.0f} ns/op"
    )


@pytest.mark.skipif(
    os.environ.get("CI") is not None,
    reason="wall-clock gate is advisory under CI (shared hosts); enforced locally",
)
def test_batched_multi_core_is_at_least_2_5x_over_scalar():
    """``end_to_end_multi_core_batched`` vs the live scalar multi-core
    engine, measured back-to-back in the same process.

    Unlike the single-core gate (which compares against the committed
    pre-PR baseline and clears 3x with ~20% margin), the multi-core
    gate's margin over a *recorded* baseline is thin enough that the
    ambient slowdown of a long-lived test process — allocator and GC
    state after hundreds of prior tests — can eat it.  Pairing both
    engines in one ``run_benchmarks`` call cancels that slowdown from
    the ratio, the same discipline tests/test_telemetry_overhead.py
    uses for its overhead bound.  The committed
    ``end_to_end_multi_core`` baseline entry still anchors the
    ``python -m repro bench`` regression comparison; here we assert it
    exists and was recorded on the same op count so the two views stay
    comparable.  Runs at scale 1.0: the multi-core benchmark's fixed
    per-run setup is a larger fraction of a scaled-down run, which
    would understate the steady-state speedup.
    """
    names = ["end_to_end_multi_core", "end_to_end_multi_core_batched"]
    assert all(name in BENCHMARKS for name in names)
    baseline = load_baseline(default_baseline_path())
    assert baseline is not None, "committed baseline missing"
    base = baseline["results"]["end_to_end_multi_core"]
    assert base["ops"] == BENCHMARKS["end_to_end_multi_core"][1]
    speedups = []
    for _ in range(3):
        results = {
            r.name: r for r in run_benchmarks(names, scale=1.0, repeats=3)
        }
        batched = results["end_to_end_multi_core_batched"].best_wall_s
        scalar = results["end_to_end_multi_core"].best_wall_s
        assert batched > 0
        speedup = scalar / batched
        speedups.append(speedup)
        if speedup >= 2.5:
            return
    pytest.fail(
        f"batched multi-core engine missed the 2.5x gate in every attempt: "
        f"speedups {[f'{s:.2f}x' for s in speedups]} vs the live scalar "
        f"engine"
    )

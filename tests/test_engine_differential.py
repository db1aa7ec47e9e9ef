"""Differential test: single-core batched against the scalar oracle.

The golden cells pin a handful of hand-picked (workload, scheme)
pairs.  This property test draws the cell instead — a workload from
every family, short phases, a seed and a cut point — under each scheme
that selects a distinct batched path (the fused PPF runner, the generic
runner around plain and zoo prefetchers, the filter seam), and holds
the batched engine to the scalar one on the full ``RunResult`` and on
``state_dict()`` at the cut.  Derandomized, so a failure reproduces on
every run and the tier-1 cost is fixed.

A multi-core companion pins what the batched engine promises after
``measure()`` on a 4-core mix where its L1-hit run-ahead makes the
shared counters diverge: every captured per-core outcome stays exact.
"""

import dataclasses
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.config import SimConfig
from repro.sim.multi_core import MultiCoreSim
from repro.sim.single_core import SingleCoreSim
from repro.workloads import WorkloadMix, find_workload, full_catalog

SCHEMES = ("none", "spp", "ppf", "pythia", "two-level", "filtered:pythia")


def _families():
    families = defaultdict(list)
    for spec in full_catalog():
        families[spec.suite].append(spec)
    return [families[name] for name in sorted(families)]


@st.composite
def cells(draw):
    family = draw(st.sampled_from(_families()))
    workload = draw(st.sampled_from(family))
    warmup = draw(st.integers(0, 300))
    measure = draw(st.integers(1, 500))
    cut = draw(st.integers(0, warmup + measure))
    seed = draw(st.integers(1, 3))
    return workload, warmup, measure, cut, seed


def _run_to_cut(workload, scheme, config, seed, cut):
    """Run one sim, returning (state_dict at ``cut`` records, result)."""
    sim = SingleCoreSim(workload, scheme, config, seed)
    warmup = config.warmup_records
    sim.advance(min(cut, warmup))
    if cut <= warmup:
        state = sim.state_dict()
    sim.warmup()
    sim.begin_measurement()
    if cut > warmup:
        sim.advance(cut - warmup)
        state = sim.state_dict()
    sim.measure()
    return state, sim.result()


# The scheme is a parameter, not a draw, so every runner is exercised
# whatever the derandomized draws favour.
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(
    derandomize=True,
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cell=cells())
def test_single_core_batched_matches_scalar(scheme, cell):
    workload, warmup, measure, cut, seed = cell
    base = SimConfig.quick(measure_records=measure, warmup_records=warmup)
    runs = {
        engine: _run_to_cut(
            workload, scheme, dataclasses.replace(base, engine=engine), seed, cut
        )
        for engine in ("scalar", "batched")
    }
    (scalar_state, scalar), (batched_state, batched) = runs["scalar"], runs["batched"]
    context = (workload.name, scheme, warmup, measure, cut, seed)
    assert batched_state == scalar_state, context
    assert batched.instructions == scalar.instructions, context
    assert batched.cycles == scalar.cycles, context
    assert batched.average_lookahead_depth == scalar.average_lookahead_depth, context
    assert batched.stats == scalar.stats, context


MIX4 = ("623.xalancbmk_s", "605.mcf_s", "603.bwaves_s", "619.lbm_s")


def _measure_mix4(engine, seed):
    mix = WorkloadMix("mix4", tuple(find_workload(name) for name in MIX4))
    config = dataclasses.replace(
        SimConfig.multicore(4), warmup_records=250, measure_records=750, engine=engine
    )
    sim = MultiCoreSim(mix, "ppf", config, seed)
    sim.warmup()
    sim.begin_measurement()
    result = sim.measure()
    return result, sim.consumed, sim.hierarchy.snapshot()["llc.demand_accesses"]


def test_multi_core_captures_are_exact_where_shared_counters_diverge():
    """L1-hit run-ahead can reach the final capture with the replaying
    cores ahead of or behind the scalar schedule (seed 2: 14 records
    and 4 LLC demand accesses fewer), so ``consumed`` and the shared
    counters after ``measure()`` may differ — but every captured
    per-core outcome must not (contract point 2, engine/base.py)."""
    diverged = []
    for seed in (1, 2, 3):
        scalar, scalar_consumed, scalar_llc = _measure_mix4("scalar", seed)
        batched, batched_consumed, batched_llc = _measure_mix4("batched", seed)
        assert batched == scalar, seed
        if (batched_consumed, batched_llc) != (scalar_consumed, scalar_llc):
            diverged.append(seed)
    # Keeps this test on the case it exists for; should run-ahead ever
    # stop diverging here, the relaxed contract text can be tightened.
    assert diverged, "no seed diverged after measure(): tighten contract point 2"

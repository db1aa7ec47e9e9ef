"""The engine seam: pluggable drivers for the per-access simulation loop.

An *engine* owns the inner loop that turns trace records into simulator
events.  :class:`~repro.sim.single_core.SingleCoreSim` delegates every
``advance`` to its engine, so the rest of the stack (phases, telemetry,
checkpoints, sweeps) never sees which driver is running:

* ``scalar`` — the original record-at-a-time loop.  Bit-identical with
  every previous release; the golden-stats oracle.
* ``batched`` — runs each core through a per-core runner; for the
  production PPF configuration that is one fused generator inlining the
  hot trace/core/cache/SPP/perceptron/DRAM path, used at any core count
  (single-core is the one-core schedule).  Event-order equivalent with
  scalar (see docs/performance.md, "Batched engine").

Engines are registry components (kind ``"engine"``), so ``--engine``
names resolve — and fail — through the same catalog machinery as
prefetchers and workloads, and the engine name folds into
``config_fingerprint`` via :class:`~repro.sim.config.SimConfig`.

The contract every engine must honor:

1. ``advance(sim, n)`` steps at most ``n`` records, increments
   ``sim.consumed`` by the number actually stepped, and returns it.
2. When ``advance`` returns, *all* simulator state is flushed: stats
   counters, core clock, tables.  ``state_dict()`` between two
   ``advance`` calls must be byte-equal across engines, which is what
   keeps snapshots engine-portable and telemetry probes honest.
3. Engines never reorder events within or across records relative to
   the scalar loop — equivalence is exact, not approximate.

Multi-core simulations add a fourth point.  ``advance_multi(sim, n)``
drives :class:`~repro.sim.multi_core.MultiCoreSim` under the same three
rules, plus:

4. The *global interleaving* observable at the shared resources (LLC,
   DRAM channels) is the scalar schedule's: the next core to step is
   always the one with the minimum ``(cycle, core_index)`` key.  An
   engine may run one core for a bounded *cycle quantum* without
   re-consulting the schedule only while that key provably stays the
   minimum (see :mod:`repro.engine.multi_core`), and it must capture a
   core's measurement outcome at exactly the record where the scalar
   loop would (``sim._capture_core``), with that core's state flushed
   first.

In the multi-core case point 2 holds exactly at warmup end and *per
core* at every capture (each captured ``CoreOutcome`` is the scalar
engine's, to the last counter).  Elsewhere it is relaxed in two
documented ways (enforced by the cross-engine checkpoint, golden and
differential tests):

* ``advance_multi`` drains whole scheduling turns, so it may overshoot
  ``n`` by the records already committed to the in-flight quantum (the
  return value reports the true count); a record pulled from the trace
  but suspended pre-execution stays parked in the trace's pending slot,
  where ``state_dict`` already serializes it.
* A batched engine may run records *ahead* of the global schedule when
  they provably touch no shared state (private-L1 hits in the
  non-inclusive hierarchy).  A **mid-measure** ``state_dict()`` is then
  a valid per-core record boundary that can sit a few records away
  from the scalar engine's at the same call; restoring it (under either
  engine) still captures every core's outcome bit-identically.  Run-ahead
  can also reach the *final* capture before the scalar schedule would
  have stepped the other (already captured, replaying) cores as far, or
  after it stepped them further, so after ``measure()`` the sim's
  ``consumed``, the shared LLC/DRAM counters and the private state of
  replaying cores may differ from the scalar engine's by those
  run-ahead records.  With telemetry attached the driver runs *exact*
  (run-ahead disabled) so probe samples land on scalar-identical record
  counts.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .. import registry


@runtime_checkable
class Engine(Protocol):
    """Driver for the per-access loop of one simulation."""

    name: str

    def advance(self, sim, n_records: int) -> int:
        """Step up to ``n_records`` of ``sim``'s trace; return the count."""
        ...

    def advance_multi(self, sim, n_records: int) -> int:
        """Step up to ``n_records`` of a multi-core sim's current phase.

        Cores are interleaved by the scalar ``(cycle, index)`` schedule
        (contract point 4); the call returns early when the phase
        completes (all cores warmed, or every measurement captured).
        """
        ...


def make_engine(config) -> Engine:
    """Resolve ``config.engine`` through the registry.

    Unknown names raise the registry's
    :class:`~repro.registry.UnknownComponentError` (with the sorted
    catalog in the message), which the CLI surfaces as a did-you-mean
    error.
    """
    return registry.create("engine", getattr(config, "engine", "scalar"))

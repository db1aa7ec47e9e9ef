"""The per-core trace cursor both simulation drivers step through.

The multi-core driver needs its laps (finished cores replay for
contention); the single-core driver is the ``core=0`` case (offset 0,
one lap of ``warmup + measure`` records) and never leaves its first
lap, so it reads exactly the finite trace ``workload.trace(n, seed)``.
The batched engine's runners (:mod:`repro.engine.multi_core`) read the
cursor's fields directly to produce records inline; a change to the lap
semantics here must be mirrored there.
"""

from __future__ import annotations

from typing import Optional

from ..checkpoint import SnapshotError
from ..cpu.trace import TraceRecord
from ..workloads.spec2017 import WorkloadSpec


class _EndlessTrace:
    """Replay the workload forever (fresh seed per lap) for contention.

    Each core's addresses are relocated into a disjoint physical region
    (as the OS would map separate processes) — otherwise two copies of
    the same benchmark would constructively share the LLC.  The class
    form exists so the lap position can be snapshotted.

    ``_pending`` holds at most one *raw* (un-relocated) record that was
    pulled from the stream but never simulated: the batched engine's
    run-ahead can complete a measurement while a suspended core still
    holds a just-pulled record the scalar schedule never reached.  It is
    replayed before the stream resumes, and it rides along in snapshots,
    so a post-completion checkpoint round-trips exactly.  The scalar
    engine never parks anything here.
    """

    def __init__(self, workload: WorkloadSpec, chunk: int, seed: int, core: int) -> None:
        self._workload = workload
        self._chunk = chunk
        self._offset = core << 44
        self.lap_seed = seed
        self._stream = workload.trace(chunk, seed=seed)
        self._it = iter(self._stream)
        self._pending: Optional[TraceRecord] = None

    def __iter__(self) -> "_EndlessTrace":
        return self

    def __next__(self) -> TraceRecord:
        rec = self._pending
        if rec is not None:
            self._pending = None
        else:
            try:
                rec = next(self._it)
            except StopIteration:
                self.lap_seed += 1
                self._stream = self._workload.trace(self._chunk, seed=self.lap_seed)
                self._it = iter(self._stream)
                rec = next(self._it)
        if self._offset:
            return TraceRecord(pc=rec.pc, addr=rec.addr + self._offset, bubble=rec.bubble)
        return rec

    def state_dict(self) -> dict:
        pending = self._pending
        return {
            "lap_seed": self.lap_seed,
            "stream": self.lap_state(),
            "pending": None
            if pending is None
            else [pending.pc, pending.addr, pending.bubble],
        }

    def load_state(self, state: dict) -> None:
        lap_seed = int(state["lap_seed"])
        if lap_seed != self.lap_seed:
            self.lap_seed = lap_seed
            self._stream = self._workload.trace(self._chunk, seed=lap_seed)
            self._it = iter(self._stream)
        self.load_lap_state(state["stream"])
        pending = state["pending"]
        self._pending = (
            None
            if pending is None
            else TraceRecord(pc=pending[0], addr=pending[1], bubble=pending[2])
        )

    def lap_state(self) -> dict:
        """The current lap's stream state (its checkpoint cursor)."""
        stream_state = getattr(self._stream, "state_dict", None)
        if stream_state is None:
            raise SnapshotError(
                f"trace of workload {self._workload.name!r} is not checkpointable"
            )
        return stream_state()

    def load_lap_state(self, state: dict) -> None:
        """Reposition the current lap's stream (inverse of :meth:`lap_state`)."""
        self._stream.load_state(state)

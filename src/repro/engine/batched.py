"""The batched engine: fused per-core runners at any core count.

Both entry points drive the per-core runners of
:mod:`repro.engine.multi_core`; a single-core advance is core 0's runner
for one turn with no cycle bound.  For the production configuration
(``MemoryHierarchy``, ``PPF`` over ``SPP`` with the stock flags, LRU
everywhere, production feature catalog) that is the *fused* runner:
trace production, O3 core bookkeeping, L1/L2/LLC lookup and fill, DRAM
row-buffer timing, SPP's signature/pattern updates and lookahead walk,
and the perceptron's nine-feature index/sum/train inlined into one
generator frame, every counter held in locals until the runner closes.
Anything else runs the *generic* runner (inlined core bookkeeping around
the real ``hierarchy.access``, bit-identical for any
hierarchy/prefetcher); non-``O3Core`` cores fall back to ``core.step``.

The runners replay the scalar engine's events in the *same order*, so
results are bit-identical, and they flush everything when they close
before ``advance`` returns (contract in :mod:`repro.engine.base`).
Cross-record vectorization of the *decisions* is impossible by design:
a demand access's timing depends on the prefetches issued by earlier
accesses, and — with ``train_on_displacement`` — inserting one accepted
candidate can move perceptron weights before the next candidate of the
*same trigger* is scored.  What fusing buys is the removal of ~15
function calls and several transient objects (``TraceRecord``,
``FeatureContext``, ``PrefetchCandidate``, ``AccessResult``) per access.
"""

from __future__ import annotations

from ..registry import register
from .multi_core import batched_advance, batched_advance_multi


@register("engine", "batched")
class BatchedEngine:
    """Fused per-core runners; single-core is the one-core schedule."""

    name = "batched"

    def advance(self, sim, n_records: int) -> int:
        # Core 0's runner for one unbounded turn.
        return batched_advance(sim, n_records)

    def advance_multi(self, sim, n_records: int) -> int:
        # The cycle-quantum driver over per-core suspended runners; see
        # repro.engine.multi_core for the schedule-preservation argument.
        return batched_advance_multi(sim, n_records)

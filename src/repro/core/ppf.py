"""PPF: the perceptron prefetch filter wrapped around a prefetcher (§3, §4).

:class:`PPF` is itself a :class:`~repro.prefetchers.base.Prefetcher`, so
the hierarchy drives it exactly like any other prefetcher.  Internally
it owns an *aggressively tuned* underlying prefetcher (SPP by default,
with its internal thresholds discarded per §4.1) and filters the
candidate stream through the hashed perceptron:

1. **Inferencing** — every candidate's features index the weight tables;
   the sum decides L2 fill / LLC fill / reject.
2. **Recording** — accepted candidates go to the Prefetch Table,
   rejected ones to the Reject Table, each with the feature indices
   needed to find the same weights again.
3. **Feedback & retrieval** — every L2 demand access and eviction is
   looked up in both tables.
4. **Training** — demand hit on a recorded prefetch → positive update;
   eviction of a never-used prefetch → negative update; demand access to
   a *rejected* block → positive update (false-negative recovery via the
   Reject Table).

An optional ``recorder`` receives every resolved training event, which
is how the §5.5 feature-correlation study observes outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..checkpoint.state import group_state, load_group
from ..prefetchers.base import PrefetchCandidate, Prefetcher
from ..prefetchers.spp import SPP, SPPConfig
from ..registry import register
from ..stats import GroupAdapter, StatGroup, StatsNode
from .features import Feature
from .filter import PREFETCH_L2_CODE, FilterConfig, PerceptronFilter
from .tables import DecisionTable, PrefetchTable, RejectTable

#: Receives (feature_indices, positive_outcome) for each resolved event.
TrainingRecorder = Callable[[Tuple[int, ...], bool], None]


@dataclass
class PPFStats(StatGroup):
    """Filter-level outcome counters beyond the shared prefetcher set."""

    #: Demand accesses that hit the Reject Table — false negatives the
    #: filter recovered from (trained positively) instead of losing.
    reject_recoveries: int = 0
    #: Accepted-but-displaced entries trained as useless prefetches.
    displacement_trainings: int = 0


class _CandidateContext:
    """Mutable stand-in for :class:`~repro.core.features.FeatureContext`.

    Feature extractors only *read* attributes, so the per-candidate loop
    reuses one of these instead of constructing a frozen dataclass per
    candidate (aggressive SPP emits several candidates per access).
    """

    __slots__ = (
        "candidate_addr",
        "trigger_addr",
        "pc",
        "pcs",
        "delta",
        "depth",
        "signature",
        "last_signature",
        "confidence",
    )

    def __init__(self) -> None:
        self.candidate_addr = 0
        self.trigger_addr = 0
        self.pc = 0
        self.pcs = (0, 0, 0)
        self.delta = 0
        self.depth = 1
        self.signature = 0
        self.last_signature = 0
        self.confidence = 0


def _table_adapter(table: DecisionTable) -> GroupAdapter:
    """Mount a decision table's event counters without resetting its
    recorded entries at the warmup boundary (state outlives stats)."""

    def snapshot():
        return {
            "inserts": table.inserts,
            "hits": table.hits,
            "conflicts": table.conflicts,
            "occupancy": table.occupancy(),
        }

    return GroupAdapter(snapshot, table.reset_counters)


class PPF(Prefetcher):
    """Perceptron-based Prefetch Filter over an underlying prefetcher."""

    name = "ppf"

    def __init__(
        self,
        underlying: Optional[Prefetcher] = None,
        features: Optional[Sequence[Feature]] = None,
        filter_config: Optional[FilterConfig] = None,
        use_reject_table: bool = True,
        train_on_displacement: bool = True,
        recorder: Optional[TrainingRecorder] = None,
    ) -> None:
        super().__init__()
        self.underlying = underlying if underlying is not None else SPP(SPPConfig.aggressive())
        self.filter = PerceptronFilter(features, filter_config)
        self.prefetch_table = PrefetchTable()
        self.reject_table = RejectTable()
        self.use_reject_table = use_reject_table
        #: When a still-unresolved Prefetch Table entry is displaced, treat
        #: it as a useless prefetch and train negatively.  At this
        #: reproduction's trace scale the L2-lifetime ≫ table-lifetime, so
        #: waiting for the eviction (as the paper describes) would starve
        #: the filter of negative feedback; the displaced metadata is the
        #: same information one table-lifetime earlier (see DESIGN.md).
        self.train_on_displacement = train_on_displacement
        self.recorder = recorder
        self.ppf_stats = PPFStats()
        self._pcs: Tuple[int, int, int] = (0, 0, 0)
        self._ctx = _CandidateContext()  # reused across candidates

    # -- main hook ---------------------------------------------------------------

    def train(
        self, addr: int, pc: int, cache_hit: bool, cycle: int
    ) -> List[PrefetchCandidate]:
        # Step 3/4 first: consume feedback for this address before the
        # demand access triggers the next set of prefetches (§3.1).
        self._train_on_demand(addr)
        pcs = (pc, self._pcs[0], self._pcs[1])
        self._pcs = pcs

        candidates = self.underlying.train(addr, pc, cache_hit, cycle)
        if not candidates:
            return candidates
        self.underlying.note_candidates(len(candidates))
        accepted: List[PrefetchCandidate] = []
        append = accepted.append
        ctx = self._ctx
        ctx.trigger_addr = addr
        ctx.pcs = pcs
        ctx.last_signature = getattr(self.underlying, "last_signature", 0)
        decide = self.filter.decide
        prefetch_insert = self.prefetch_table.insert
        use_reject = self.use_reject_table
        reject_insert = self.reject_table.insert if use_reject else None
        train_on_displacement = self.train_on_displacement
        for candidate in candidates:
            meta = candidate.meta
            meta_get = meta.get
            candidate_addr = candidate.addr
            ctx.candidate_addr = candidate_addr
            ctx.pc = meta_get("pc", pc)
            ctx.delta = meta_get("delta", 0)
            ctx.depth = meta_get("depth", 1)
            ctx.signature = meta_get("signature", 0)
            ctx.confidence = meta_get("confidence", 0)
            code, total, indices = decide(ctx)
            if code:  # accepted (L2 or LLC fill)
                displaced = prefetch_insert(candidate_addr, indices, True, total)
                if (
                    train_on_displacement
                    and displaced is not None
                    and not displaced.useful
                ):
                    self.ppf_stats.displacement_trainings += 1
                    self._apply_training(displaced.feature_indices, positive=False)
                # The filter, not SPP, owns the fill level from here on.
                candidate.fill_l2 = code == PREFETCH_L2_CODE
                append(candidate)
            elif use_reject:
                reject_insert(candidate_addr, indices, False, total)
        return accepted

    # -- feedback ----------------------------------------------------------------

    def _train_on_demand(self, addr: int) -> None:
        entry = self.prefetch_table.lookup(addr)
        if entry is not None:
            # The filter let this prefetch through and it was demanded:
            # correct positive — reinforce.
            entry.useful = True
            self._apply_training(entry.feature_indices, positive=True)
            self.prefetch_table.invalidate(addr)
        if self.use_reject_table:
            rejected = self.reject_table.lookup(addr)
            if rejected is not None:
                # False negative: the filter rejected a prefetch that the
                # program went on to demand.
                self.ppf_stats.reject_recoveries += 1
                self._apply_training(rejected.feature_indices, positive=True)
                self.reject_table.invalidate(addr)

    def on_eviction(self, addr: int, was_prefetch: bool, was_used: bool) -> None:
        super().on_eviction(addr, was_prefetch, was_used)
        self.underlying.on_eviction(addr, was_prefetch, was_used)
        if was_prefetch and not was_used:
            entry = self.prefetch_table.lookup(addr)
            if entry is not None and not entry.useful:
                # The filter accepted a prefetch that died unused:
                # misprediction — push the weights down.
                self._apply_training(entry.feature_indices, positive=False)
                self.prefetch_table.invalidate(addr)

    def _apply_training(self, indices: Tuple[int, ...], positive: bool) -> None:
        self.filter.train(indices, positive)
        if self.recorder is not None:
            self.recorder(indices, positive)

    # -- forwarding so the underlying prefetcher's state (SPP's alpha) stays live --

    def on_prefetch_issued(self, candidate: PrefetchCandidate) -> None:
        super().on_prefetch_issued(candidate)
        self.underlying.on_prefetch_issued(candidate)

    def on_useful_prefetch(self, addr: int) -> None:
        super().on_useful_prefetch(addr)
        self.underlying.on_useful_prefetch(addr)

    # -- engine seam -----------------------------------------------------------

    def engine_view(self):
        """Raw mutable state for the batched engine's fused runner.

        Returns ``(underlying, filter, prefetch_table, reject_table,
        ppf_stats, stats, use_reject_table, train_on_displacement,
        recorder)``.  ``_pcs`` is part of the seam contract as well: the
        runner reads it when it starts and writes it back when it closes
        (it is a tuple, so it cannot be shared in place).
        """
        return (
            self.underlying,
            self.filter,
            self.prefetch_table,
            self.reject_table,
            self.ppf_stats,
            self.stats,
            self.use_reject_table,
            self.train_on_displacement,
            self.recorder,
        )

    # -- diagnostics ----------------------------------------------------------------

    @property
    def average_lookahead_depth(self) -> float:
        """Average speculation depth of the underlying prefetcher."""
        return getattr(self.underlying, "average_lookahead_depth", 0.0)

    def reset_stats(self) -> None:
        super().reset_stats()
        self.underlying.reset_stats()
        self.ppf_stats.reset()
        self.filter.stats.reset()
        self.prefetch_table.reset_counters()
        self.reject_table.reset_counters()

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self):
        """Compose the whole mechanism: SPP, perceptron, both tables.

        ``_ctx`` is deliberately absent — it is a scratch buffer fully
        rewritten before each candidate decision.
        """
        state = super().state_dict()
        state.update(
            underlying=self.underlying.state_dict(),
            filter=self.filter.state_dict(),
            prefetch_table=self.prefetch_table.state_dict(),
            reject_table=self.reject_table.state_dict(),
            pcs=list(self._pcs),
            ppf_stats=group_state(self.ppf_stats),
        )
        return state

    def load_state(self, state) -> None:
        super().load_state(state)
        self.underlying.load_state(state["underlying"])
        self.filter.load_state(state["filter"])
        self.prefetch_table.load_state(state["prefetch_table"])
        self.reject_table.load_state(state["reject_table"])
        self._pcs = tuple(int(pc) for pc in state["pcs"])
        load_group(self.ppf_stats, state["ppf_stats"])

    def attach_stats(self, node: StatsNode) -> None:
        """Mount the filter's whole stats surface: shared prefetcher
        counters, PPF outcomes, perceptron activity and both tables."""
        super().attach_stats(node)
        node.attach("ppf", self.ppf_stats)
        node.attach("filter", self.filter.stats)
        node.attach("prefetch_table", _table_adapter(self.prefetch_table))
        node.attach("reject_table", _table_adapter(self.reject_table))
        self.underlying.attach_stats(node.child("underlying"))


@register("prefetcher", "ppf")
def make_ppf_spp(
    spp_config: Optional[SPPConfig] = None,
    features: Optional[Sequence[Feature]] = None,
    filter_config: Optional[FilterConfig] = None,
    use_reject_table: bool = True,
) -> PPF:
    """The paper's case-study configuration: PPF over aggressive SPP."""
    return PPF(
        underlying=SPP(spp_config or SPPConfig.aggressive()),
        features=features,
        filter_config=filter_config,
        use_reject_table=use_reject_table,
    )

"""Signature Path Prefetcher (SPP), Kim et al., MICRO 2016.

SPP is the underlying prefetcher for the paper's PPF case study.  The
implementation follows §2.1 of the ISCA'19 paper:

* **Signature Table** — 256 entries tracking recently used pages; each
  holds the last block offset and a 12-bit signature compressing the
  page's delta history (``sig' = (sig << 3) XOR delta``).
* **Pattern Table** — 512 entries indexed by signature; each holds up to
  4 delta predictions with confidence counters ``C_delta`` against a
  per-signature counter ``C_sig``.
* **Lookahead** — on each trigger SPP walks its own predictions: the
  highest-confidence delta extends the speculative signature and the
  path confidence compounds as ``P_d = alpha * C_d * P_{d-1}`` where
  ``alpha`` is the measured global prefetch accuracy.
* **Thresholds** — candidates with ``P_d >= T_f`` (90) fill the L2,
  candidates with ``P_d >= T_p`` (25) fill the LLC, the rest are
  dropped.  PPF discards these thresholds and re-tunes SPP aggressively
  (:meth:`SPPConfig.aggressive`).
* **Global History Register** — 8 entries used to re-bootstrap patterns
  that cross a page boundary.

Candidates carry the metadata PPF's features need: the triggering PC,
the predicted delta, the signature used to index the pattern table, the
path confidence and the lookahead depth.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..memory.address import BLOCKS_PER_PAGE, encode_delta
from ..registry import register
from .base import PrefetchCandidate, Prefetcher

SIGNATURE_MASK = (1 << 12) - 1
SIGNATURE_SHIFT = 3


def update_signature(signature: int, delta: int) -> int:
    """SPP's signature compression: ``(sig << 3) XOR encode(delta)``."""
    return ((signature << SIGNATURE_SHIFT) ^ encode_delta(delta)) & SIGNATURE_MASK


@dataclass
class SPPConfig:
    """Structure sizes and thresholds from the paper (Table 3 / §2.1)."""

    signature_table_entries: int = 256
    pattern_table_entries: int = 512
    deltas_per_entry: int = 4
    counter_max: int = 15  # 4-bit C_sig / C_delta
    prefetch_threshold: int = 25  # T_p, percent
    fill_threshold: int = 90  # T_f, percent
    max_depth: int = 12
    ghr_entries: int = 8
    accuracy_counter_max: int = 1023  # 10-bit C_total / C_useful
    emit_all_candidates: bool = False
    lookahead_threshold: Optional[int] = None  # defaults to prefetch_threshold
    #: When False, path confidence does not compound across depths (the
    #: Figure 1 "fixed lookahead depth" tuning): each level is judged on
    #: its own C_d and the walk runs to max_depth regardless.
    compound_confidence: bool = True

    def __post_init__(self) -> None:
        if self.lookahead_threshold is None:
            self.lookahead_threshold = self.prefetch_threshold

    @classmethod
    def default(cls) -> "SPPConfig":
        """Stock SPP, thresholds T_p=25 / T_f=90 (§2.1)."""
        return cls()

    @classmethod
    def aggressive(cls) -> "SPPConfig":
        """SPP re-tuned for PPF (§4.1): internal throttling mostly discarded.

        The confidence gate drops from 25 to 10 and the lookahead walks
        twice as deep, so far more (and far less certain) candidates
        reach the perceptron, which now owns the accept/reject and
        fill-level decisions.
        """
        return cls(
            prefetch_threshold=10,
            fill_threshold=101,  # never used: PPF decides the fill level
            max_depth=24,
            lookahead_threshold=10,
        )

    @classmethod
    def fixed_depth(cls, depth: int) -> "SPPConfig":
        """Figure-1 style tuning: force lookahead to a fixed depth.

        The confidence throttle is disabled so the walk always runs
        ``depth`` levels deep (when pattern-table state allows).
        """
        return cls(
            prefetch_threshold=1,
            fill_threshold=90,
            max_depth=depth,
            lookahead_threshold=0,
            compound_confidence=False,
        )


@dataclass
class _SignatureEntry:
    __slots__ = ("last_offset", "signature")

    last_offset: int
    signature: int


@dataclass
class _PatternEntry:
    c_sig: int = 0
    deltas: Dict[int, int] = field(default_factory=dict)  # delta -> C_delta


@dataclass
class _GHREntry:
    __slots__ = ("signature", "confidence", "last_offset", "delta")

    signature: int
    confidence: int
    last_offset: int
    delta: int


@register("prefetcher", "spp")
class SPP(Prefetcher):
    """Signature Path Prefetcher with confidence-based lookahead."""

    name = "spp"

    def __init__(self, config: Optional[SPPConfig] = None) -> None:
        super().__init__()
        self.config = config or SPPConfig.default()
        self._signature_table: "OrderedDict[int, _SignatureEntry]" = OrderedDict()
        self._pattern_table: Dict[int, _PatternEntry] = {}
        self._ghr: List[_GHREntry] = []
        self._c_total = 0
        self._c_useful = 0
        #: signature the trigger page held *before* the latest update —
        #: exported to PPF for the (rejected) Last-Signature feature.
        self.last_signature = 0
        # depth accounting for the paper's "average lookahead depth"
        self.depth_sum = 0
        self.depth_count = 0

    # -- accuracy (alpha) -----------------------------------------------------

    @property
    def alpha_percent(self) -> int:
        """Global accuracy alpha on a 0-100 scale; optimistic until warm."""
        if self._c_total < 32:
            return 100
        return min(100, (100 * self._c_useful) // self._c_total)

    def on_prefetch_issued(self, candidate: PrefetchCandidate) -> None:
        super().on_prefetch_issued(candidate)
        self._c_total += 1
        if self._c_total >= self.config.accuracy_counter_max:
            self._c_total //= 2
            self._c_useful //= 2

    def on_useful_prefetch(self, addr: int) -> None:
        super().on_useful_prefetch(addr)
        self._c_useful = min(self._c_useful + 1, self.config.accuracy_counter_max)

    # -- training ---------------------------------------------------------------

    def train(
        self, addr: int, pc: int, cache_hit: bool, cycle: int
    ) -> List[PrefetchCandidate]:
        page = addr >> 12  # page_number, inlined (PAGE_BITS)
        offset = (addr >> 6) & 63  # page_offset_block, inlined
        table = self._signature_table
        entry = table.get(page)
        if entry is not None:
            table.move_to_end(page)
            signature = entry.signature
            self.last_signature = signature
            delta = offset - entry.last_offset
            if delta == 0:
                return self._lookahead(page, offset, signature, pc)
            self._update_pattern(signature, delta)
            signature = update_signature(signature, delta)
            entry.signature = signature
            entry.last_offset = offset
        else:
            self.last_signature = 0
            signature = self._bootstrap_from_ghr(offset)
            self._insert_signature_entry(page, offset, signature)
        return self._lookahead(page, offset, signature, pc)

    def _insert_signature_entry(self, page: int, offset: int, signature: int) -> None:
        table = self._signature_table
        if len(table) >= self.config.signature_table_entries:
            table.popitem(last=False)
        table[page] = _SignatureEntry(last_offset=offset, signature=signature)

    def _bootstrap_from_ghr(self, offset: int) -> int:
        """First touch of a page: continue a pattern that crossed into it."""
        for entry in self._ghr:
            predicted = entry.last_offset + entry.delta
            if predicted >= BLOCKS_PER_PAGE and predicted - BLOCKS_PER_PAGE == offset:
                return update_signature(entry.signature, entry.delta)
            if predicted < 0 and predicted + BLOCKS_PER_PAGE == offset:
                return update_signature(entry.signature, entry.delta)
        return 0

    def _record_ghr(self, signature: int, confidence: int, offset: int, delta: int) -> None:
        entry = _GHREntry(
            signature=signature, confidence=confidence, last_offset=offset, delta=delta
        )
        self._ghr.append(entry)
        if len(self._ghr) > self.config.ghr_entries:
            self._ghr.pop(0)

    def _update_pattern(self, signature: int, delta: int) -> None:
        cfg = self.config
        index = signature % cfg.pattern_table_entries
        entry = self._pattern_table.get(index)
        if entry is None:
            entry = _PatternEntry()
            self._pattern_table[index] = entry
        if entry.c_sig >= cfg.counter_max:
            entry.c_sig //= 2
            for known in list(entry.deltas):
                entry.deltas[known] //= 2
                if entry.deltas[known] == 0:
                    del entry.deltas[known]
        entry.c_sig += 1
        if delta in entry.deltas:
            entry.deltas[delta] = min(entry.deltas[delta] + 1, cfg.counter_max)
        elif len(entry.deltas) < cfg.deltas_per_entry:
            entry.deltas[delta] = 1
        else:
            weakest = min(entry.deltas, key=entry.deltas.get)
            del entry.deltas[weakest]
            entry.deltas[delta] = 1

    # -- prediction ---------------------------------------------------------------

    def _lookahead(
        self, page: int, offset: int, signature: int, pc: int
    ) -> List[PrefetchCandidate]:
        cfg = self.config
        max_depth = cfg.max_depth
        table_entries = cfg.pattern_table_entries
        compound = cfg.compound_confidence
        emit_all = cfg.emit_all_candidates
        prefetch_threshold = cfg.prefetch_threshold
        fill_threshold = cfg.fill_threshold
        lookahead_threshold = cfg.lookahead_threshold
        pattern_get = self._pattern_table.get
        page_base = page << 12  # block_in_page, inlined (PAGE_BITS)
        candidates: List[PrefetchCandidate] = []
        append = candidates.append
        path_confidence = 100
        current_offset = offset
        current_signature = signature
        alpha = self.alpha_percent
        depth = 1
        while depth <= max_depth:
            entry = pattern_get(current_signature % table_entries)
            if entry is None or entry.c_sig == 0 or not entry.deltas:
                break
            c_sig = entry.c_sig
            best_delta = None
            best_confidence = -1
            for delta, c_delta in entry.deltas.items():
                conf = (100 * c_delta) // c_sig
                if compound:
                    if depth > 1:
                        conf = (conf * alpha) // 100
                    p_d = (path_confidence * conf) // 100
                else:
                    p_d = conf
                if p_d > best_confidence:
                    best_confidence = p_d
                    best_delta = delta
                if not (emit_all or p_d >= prefetch_threshold):
                    continue
                target = current_offset + delta
                if 0 <= target < 64:  # BLOCKS_PER_PAGE
                    append(
                        PrefetchCandidate(
                            page_base | (target << 6),
                            p_d >= fill_threshold,
                            {
                                "pc": pc,
                                "delta": delta,
                                "signature": current_signature,
                                "confidence": 0 if p_d < 0 else (100 if p_d > 100 else p_d),
                                "depth": depth,
                            },
                        )
                    )
                else:
                    self._record_ghr(
                        current_signature, p_d, current_offset, delta
                    )
            if best_delta is None or best_confidence < lookahead_threshold:
                break
            next_offset = current_offset + best_delta
            if not 0 <= next_offset < 64:
                break
            current_offset = next_offset
            # update_signature, inlined with encode_delta
            magnitude = best_delta if best_delta >= 0 else -best_delta
            if magnitude > 63:
                magnitude = 63
            encoded = (64 | magnitude) if best_delta < 0 else magnitude
            current_signature = ((current_signature << 3) ^ encoded) & 0xFFF
            path_confidence = best_confidence
            depth += 1
        if depth > 1:
            self.depth_sum += depth - 1
            self.depth_count += 1
        return candidates

    # -- engine seam -----------------------------------------------------------

    def engine_view(self):
        """Raw mutable state for the batched engine's fused runner.

        Returns ``(config, signature_table, pattern_table, ghr)``.  The
        containers are mutated in place by the runner using the same
        structural rules as :meth:`train`/:meth:`_lookahead`.  The scalar
        counters that are *not* containers — ``_c_total``, ``_c_useful``,
        ``last_signature``, ``depth_sum``, ``depth_count`` and the
        inherited ``stats`` fields — are part of the seam contract too:
        the runner reads them when it starts and writes them back when it
        closes, so ``state_dict`` is always consistent between advances.
        """
        return (self.config, self._signature_table, self._pattern_table, self._ghr)

    # -- diagnostics ---------------------------------------------------------------

    @property
    def average_lookahead_depth(self) -> float:
        """Mean depth the lookahead walk reached across triggers."""
        if self.depth_count == 0:
            return 0.0
        return self.depth_sum / self.depth_count

    def pattern_entry_count(self) -> int:
        return len(self._pattern_table)

    def confidence_summary(self) -> Dict[str, float]:
        """Mean/max per-delta confidence over the live pattern table.

        Read-only telemetry: confidences are computed exactly as the
        lookahead walk does (``100 * C_delta // C_sig``) but nothing is
        touched, so sampling this mid-run cannot perturb a simulation.
        """
        total = 0
        count = 0
        highest = 0
        for entry in self._pattern_table.values():
            c_sig = entry.c_sig
            if c_sig <= 0:
                continue
            for c_delta in entry.deltas.values():
                conf = (100 * c_delta) // c_sig
                total += conf
                count += 1
                if conf > highest:
                    highest = conf
        return {
            "mean_confidence": (total / count) if count else 0.0,
            "max_confidence": float(highest),
            "tracked_deltas": float(count),
        }

    def signature_entry_count(self) -> int:
        return len(self._signature_table)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self):
        """Tables, GHR, alpha counters and depth accounting.

        Order is semantic twice over: signature-table pair order is the
        LRU eviction order, and delta pair order within a pattern entry
        decides both candidate emission order and the ``min()`` tie-break
        when a fifth delta displaces one.
        """
        state = super().state_dict()
        state.update(
            signature_table=[
                [page, [entry.last_offset, entry.signature]]
                for page, entry in self._signature_table.items()
            ],
            pattern_table=[
                [index, [entry.c_sig, [[delta, count] for delta, count in entry.deltas.items()]]]
                for index, entry in self._pattern_table.items()
            ],
            ghr=[
                [entry.signature, entry.confidence, entry.last_offset, entry.delta]
                for entry in self._ghr
            ],
            c_total=self._c_total,
            c_useful=self._c_useful,
            last_signature=self.last_signature,
            depth_sum=self.depth_sum,
            depth_count=self.depth_count,
        )
        return state

    def load_state(self, state) -> None:
        super().load_state(state)
        self._signature_table = OrderedDict(
            (int(page), _SignatureEntry(int(last_offset), int(signature)))
            for page, (last_offset, signature) in state["signature_table"]
        )
        self._pattern_table = {
            int(index): _PatternEntry(
                c_sig=int(c_sig),
                deltas={int(delta): int(count) for delta, count in deltas},
            )
            for index, (c_sig, deltas) in state["pattern_table"]
        }
        self._ghr = [
            _GHREntry(int(sig), int(conf), int(offset), int(delta))
            for sig, conf, offset, delta in state["ghr"]
        ]
        self._c_total = int(state["c_total"])
        self._c_useful = int(state["c_useful"])
        self.last_signature = int(state["last_signature"])
        self.depth_sum = int(state["depth_sum"])
        self.depth_count = int(state["depth_count"])

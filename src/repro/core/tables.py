"""PPF's Prefetch Table and Reject Table (§3.1, Tables 2–3).

Both are 1,024-entry direct-mapped structures indexed by ten bits of the
prefetch block address with a six-bit tag.  The Prefetch Table records
candidates the perceptron *accepted* (so that later demand hits train
positively and unused evictions train negatively); the Reject Table
records candidates it *rejected* (so that a later demand access to a
rejected block — a false negative — can train positively).  Each entry
keeps the feature indices needed to re-address the weight tables at
training time, which is the "metadata required for perceptron training"
of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

INDEX_BITS = 10
TAG_BITS = 6
TABLE_ENTRIES = 1 << INDEX_BITS


@dataclass
class TableEntry:
    """One recorded prefetch decision."""

    __slots__ = ("valid", "tag", "useful", "perc_decision", "feature_indices", "perc_sum")

    valid: bool
    tag: int
    useful: bool
    perc_decision: bool
    feature_indices: Tuple[int, ...]
    perc_sum: int


def split_address(addr: int) -> Tuple[int, int]:
    """Map a byte address to (table index, tag) at block granularity."""
    block = addr >> 6
    index = block & (TABLE_ENTRIES - 1)
    tag = (block >> INDEX_BITS) & ((1 << TAG_BITS) - 1)
    return index, tag


class DecisionTable:
    """Direct-mapped decision-history table (base for both tables)."""

    def __init__(self, entries: int = TABLE_ENTRIES) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"table entries must be a power of two, got {entries}")
        self.entries = entries
        self._index_mask = entries - 1
        self._slots: List[Optional[TableEntry]] = [None] * entries
        self.inserts = 0
        self.hits = 0
        self.conflicts = 0

    def _locate(self, addr: int) -> Tuple[int, int]:
        block = addr >> 6
        index = block & self._index_mask
        tag = (block >> INDEX_BITS) & ((1 << TAG_BITS) - 1)
        return index, tag

    def insert(
        self,
        addr: int,
        feature_indices: Tuple[int, ...],
        perc_decision: bool,
        perc_sum: int,
    ) -> Optional[TableEntry]:
        """Record a decision; returns any valid entry this displaces.

        The displaced entry never received feedback — the caller may
        treat an accepted-but-never-demanded displacement as a useless
        prefetch (see :class:`repro.core.ppf.PPF`).  Re-recording the
        same block (same index *and* tag — e.g. the lookahead suggesting
        a block it already suggested) is a refresh, not a displacement,
        and returns ``None``.
        """
        block = addr >> 6
        index = block & self._index_mask
        tag = (block >> INDEX_BITS) & 63
        slots = self._slots
        displaced = slots[index]
        if displaced is not None and displaced.valid:
            if displaced.tag == tag:
                displaced = None  # same block: refresh in place
            else:
                self.conflicts += 1
        else:
            displaced = None
        slots[index] = TableEntry(True, tag, False, perc_decision, feature_indices, perc_sum)
        self.inserts += 1
        return displaced

    def lookup(self, addr: int) -> Optional[TableEntry]:
        """Return the valid, tag-matching entry for ``addr`` (or None)."""
        block = addr >> 6
        entry = self._slots[block & self._index_mask]
        if entry is not None and entry.valid and entry.tag == (block >> INDEX_BITS) & 63:
            self.hits += 1
            return entry
        return None

    def invalidate(self, addr: int) -> bool:
        """Drop the entry for ``addr`` after its feedback is consumed."""
        block = addr >> 6
        entry = self._slots[block & self._index_mask]
        if entry is not None and entry.valid and entry.tag == (block >> INDEX_BITS) & 63:
            entry.valid = False
            return True
        return False

    def occupancy(self) -> int:
        return sum(1 for entry in self._slots if entry is not None and entry.valid)

    def reset(self) -> None:
        self._slots = [None] * self.entries
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the event counters while keeping the recorded entries."""
        self.inserts = 0
        self.hits = 0
        self.conflicts = 0

    # -- engine seam ---------------------------------------------------------

    def engine_view(self):
        """Raw mutable state for the batched engine's fused runner.

        Returns ``(slots, index_mask)``.  ``slots`` is mutated in place
        with the same :class:`TableEntry` layout the scalar methods use;
        the ``inserts``/``hits``/``conflicts`` counters are part of the
        seam contract (read at runner start, written back at close).
        Note the tag is always ``(block >> INDEX_BITS) & 63`` regardless
        of ``entries`` — :meth:`_locate` fixes INDEX_BITS at 10.
        """
        return self._slots, self._index_mask

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        # Only live entries serialize: an invalidated slot behaves
        # exactly like an empty one on every code path.
        return {
            "entries": [
                [index, [entry.tag, entry.useful, entry.perc_decision,
                         list(entry.feature_indices), entry.perc_sum]]
                for index, entry in enumerate(self._slots)
                if entry is not None and entry.valid
            ],
            "inserts": self.inserts,
            "hits": self.hits,
            "conflicts": self.conflicts,
        }

    def load_state(self, state: dict) -> None:
        slots: List[Optional[TableEntry]] = [None] * self.entries
        for index, (tag, useful, perc_decision, feature_indices, perc_sum) in state["entries"]:
            slots[int(index)] = TableEntry(
                True,
                int(tag),
                bool(useful),
                bool(perc_decision),
                tuple(int(i) for i in feature_indices),
                int(perc_sum),
            )
        self._slots = slots
        self.inserts = int(state["inserts"])
        self.hits = int(state["hits"])
        self.conflicts = int(state["conflicts"])


class PrefetchTable(DecisionTable):
    """Accepted prefetches awaiting ground truth (demand hit or evict)."""


class RejectTable(DecisionTable):
    """Rejected candidates; a later demand access means a false negative.

    The Reject Table omits the "useful" bit (Table 3, footnote 2) — an
    entry here was never prefetched, so the only feedback it can receive
    is a demand access proving the rejection wrong.
    """

"""PPF's perceptron features (§4.2) and the wider exploration catalog (§5.5).

A feature maps the metadata of one prefetch candidate to an index into
its own weight table.  The production configuration uses the paper's
nine features with the Table 3 size split (four 4096-entry tables, two
2048, two 1024, one 128).  The paper reports starting from 23 candidate
features and trimming them with a Pearson-correlation methodology; the
full catalog is kept here so :mod:`repro.analysis.feature_selection` can
re-run that study, including the rejected "Last Signature" feature shown
in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..memory.address import encode_delta
from ..registry import register


@dataclass(frozen=True)
class FeatureContext:
    """Everything a feature may look at for one prefetch candidate.

    ``trigger_addr``/``pc`` describe the L2 demand access that triggered
    the prefetch chain; ``candidate_addr`` is the block being considered;
    ``pcs`` holds the last three demand PCs (most recent first); the rest
    is SPP metadata exported to PPF (§4.1).
    """

    candidate_addr: int
    trigger_addr: int
    pc: int
    pcs: Tuple[int, int, int]
    delta: int
    depth: int
    signature: int
    last_signature: int
    confidence: int


#: Extractors return an un-masked hash; the weight table masks it.
FeatureFn = Callable[[FeatureContext], int]


@dataclass(frozen=True)
class Feature:
    """A named feature with its weight-table size."""

    name: str
    table_entries: int
    extract: FeatureFn

    def index(self, ctx: FeatureContext) -> int:
        return self.extract(ctx) & (self.table_entries - 1)


# -- primitive extractors ------------------------------------------------------


def _phys_address(ctx: FeatureContext) -> int:
    """Lower bits of the candidate's physical address (block-aligned)."""
    return ctx.candidate_addr >> 6


def _cache_line(ctx: FeatureContext) -> int:
    """The candidate address shifted by the block size — a second view of
    the same address with different bit alignment (§4.2)."""
    return ctx.candidate_addr >> 12


def _page_address(ctx: FeatureContext) -> int:
    """The candidate address shifted by the page size."""
    return ctx.candidate_addr >> 18


def _pc_xor_depth(ctx: FeatureContext) -> int:
    return ctx.pc ^ ctx.depth


def _pc_path_hash(ctx: FeatureContext) -> int:
    """PC1 XOR (PC2 >> 1) XOR (PC3 >> 2): the branch-path hash."""
    pc1, pc2, pc3 = ctx.pcs
    return pc1 ^ (pc2 >> 1) ^ (pc3 >> 2)


def _pc_xor_delta(ctx: FeatureContext) -> int:
    return ctx.pc ^ encode_delta(ctx.delta)


def _confidence(ctx: FeatureContext) -> int:
    return ctx.confidence


def _page_xor_confidence(ctx: FeatureContext) -> int:
    return (ctx.trigger_addr >> 12) ^ ctx.confidence


def _signature_xor_delta(ctx: FeatureContext) -> int:
    return ctx.signature ^ encode_delta(ctx.delta)


# -- rejected / exploratory extractors (for the §5.5 study) ---------------------


def _last_signature(ctx: FeatureContext) -> int:
    return ctx.last_signature


def _pc_alone(ctx: FeatureContext) -> int:
    return ctx.pc


def _depth_alone(ctx: FeatureContext) -> int:
    return ctx.depth


def _delta_alone(ctx: FeatureContext) -> int:
    return encode_delta(ctx.delta)


def _confidence_xor_depth(ctx: FeatureContext) -> int:
    return ctx.confidence ^ ctx.depth


def _page_offset(ctx: FeatureContext) -> int:
    return (ctx.candidate_addr >> 6) & 0x3F


def _pc_xor_page(ctx: FeatureContext) -> int:
    return ctx.pc ^ (ctx.trigger_addr >> 12)


def _address_fold(ctx: FeatureContext) -> int:
    block = ctx.candidate_addr >> 6
    return block ^ (block >> 12)


def _signature_alone(ctx: FeatureContext) -> int:
    return ctx.signature


def _signature_xor_depth(ctx: FeatureContext) -> int:
    return ctx.signature ^ ctx.depth


def _delta_xor_depth(ctx: FeatureContext) -> int:
    return encode_delta(ctx.delta) ^ (ctx.depth << 7)


def _pc2_xor_delta(ctx: FeatureContext) -> int:
    return ctx.pcs[1] ^ encode_delta(ctx.delta)


def _trigger_offset_xor_delta(ctx: FeatureContext) -> int:
    return ((ctx.trigger_addr >> 6) & 0x3F) ^ (encode_delta(ctx.delta) << 6)


def _page_xor_depth(ctx: FeatureContext) -> int:
    return (ctx.trigger_addr >> 12) ^ ctx.depth


# -- catalogs --------------------------------------------------------------------


@register("features", "production")
def production_features() -> List[Feature]:
    """The paper's nine features with the Table 3 entry split.

    Higher-correlation address features get full 12-bit indexing; the
    low-P-value PC⊕depth and PC⊕delta features get 10-bit tables; the
    confidence feature only needs 128 entries for its 0–100 range.
    """
    return [
        Feature("phys_address", 4096, _phys_address),
        Feature("cache_line", 4096, _cache_line),
        Feature("page_address", 4096, _page_address),
        Feature("page_xor_confidence", 4096, _page_xor_confidence),
        Feature("pc_path_hash", 2048, _pc_path_hash),
        Feature("signature_xor_delta", 2048, _signature_xor_delta),
        Feature("pc_xor_depth", 1024, _pc_xor_depth),
        Feature("pc_xor_delta", 1024, _pc_xor_delta),
        Feature("confidence", 128, _confidence),
    ]


@register("features", "exploration")
def exploration_features() -> List[Feature]:
    """The wider 23-feature catalog PPF's selection study started from."""
    extras = [
        Feature("last_signature", 4096, _last_signature),
        Feature("pc", 4096, _pc_alone),
        Feature("depth", 128, _depth_alone),
        Feature("delta", 128, _delta_alone),
        Feature("confidence_xor_depth", 128, _confidence_xor_depth),
        Feature("page_offset", 64, _page_offset),
        Feature("pc_xor_page", 4096, _pc_xor_page),
        Feature("address_fold", 4096, _address_fold),
        Feature("signature", 4096, _signature_alone),
        Feature("signature_xor_depth", 4096, _signature_xor_depth),
        Feature("delta_xor_depth", 2048, _delta_xor_depth),
        Feature("pc2_xor_delta", 2048, _pc2_xor_delta),
        Feature("offset_xor_delta", 4096, _trigger_offset_xor_delta),
        Feature("page_xor_depth", 4096, _page_xor_depth),
    ]
    return production_features() + extras


@register("features", "scaled")
def scaled_production_features(budget_factor: float) -> List[Feature]:
    """The nine features with weight tables scaled to a hardware budget.

    §5.6: "The newly added perceptron tables can be scaled to increase /
    decrease features depending on the permitted budget."  A factor of
    0.5 halves every table (≈56,640 weight bits), 2.0 doubles them.
    Sizes snap to the nearest power of two and never drop below 64
    entries (the confidence feature still needs its 0–100 range to fit
    after masking).
    """
    if budget_factor <= 0:
        raise ValueError("budget factor must be positive")
    scaled = []
    for feature in production_features():
        target = max(64, int(feature.table_entries * budget_factor))
        entries = 1 << (target.bit_length() - 1)
        if entries * 2 - target < target - entries:
            entries *= 2
        scaled.append(Feature(feature.name, entries, feature.extract))
    return scaled


def feature_by_name(name: str, catalog: Sequence[Feature] | None = None) -> Feature:
    """Look a feature up by name in a catalog (production by default)."""
    for feature in catalog if catalog is not None else exploration_features():
        if feature.name == name:
            return feature
    raise KeyError(f"no feature named {name!r}")


def feature_names(catalog: Sequence[Feature]) -> List[str]:
    return [feature.name for feature in catalog]

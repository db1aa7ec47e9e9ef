"""Address arithmetic shared by the cache hierarchy and the prefetchers.

All simulated addresses are plain Python integers (physical byte
addresses).  The helpers here centralize the block/page decompositions
used throughout the paper:

* 64-byte cache blocks (``BLOCK_BITS = 6``),
* 4 KB pages (``PAGE_BITS = 12``), so a page holds 64 blocks,
* SPP block deltas encoded as 7-bit sign+magnitude values.
"""

from __future__ import annotations

BLOCK_BITS = 6
BLOCK_SIZE = 1 << BLOCK_BITS

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS

BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE

#: SPP stores deltas as 1 sign bit + 6 magnitude bits.
DELTA_MAGNITUDE_BITS = 6
MAX_DELTA_MAGNITUDE = (1 << DELTA_MAGNITUDE_BITS) - 1


def block_number(addr: int) -> int:
    """Return the cache-block number (address without the block offset)."""
    return addr >> BLOCK_BITS


def block_address(addr: int) -> int:
    """Return the address of the first byte of the block containing ``addr``."""
    return (addr >> BLOCK_BITS) << BLOCK_BITS


def page_number(addr: int) -> int:
    """Return the page number of ``addr``."""
    return addr >> PAGE_BITS


def page_address(addr: int) -> int:
    """Return the address of the first byte of the page containing ``addr``."""
    return (addr >> PAGE_BITS) << PAGE_BITS


def page_offset_block(addr: int) -> int:
    """Return the block offset within the page (0..63), as SPP tracks it."""
    return (addr >> BLOCK_BITS) & (BLOCKS_PER_PAGE - 1)


def same_page(a: int, b: int) -> bool:
    """True when the two byte addresses fall in the same 4 KB page."""
    return (a >> PAGE_BITS) == (b >> PAGE_BITS)


def block_in_page(page: int, offset: int) -> int:
    """Compose a byte address from a page number and a block offset.

    ``offset`` must be in ``[0, BLOCKS_PER_PAGE)``; it is the caller's
    job to check page-boundary crossings before calling this.
    """
    if not 0 <= offset < BLOCKS_PER_PAGE:
        raise ValueError(f"block offset {offset} outside page (0..{BLOCKS_PER_PAGE - 1})")
    return (page << PAGE_BITS) | (offset << BLOCK_BITS)


def encode_delta(delta: int) -> int:
    """Encode a signed block delta into SPP's 7-bit sign+magnitude form.

    The magnitude saturates at 63 (6 bits); the sign lives in bit 6.
    ``encode_delta(0)`` is 0 — SPP never stores zero deltas, but the
    encoding is total so that hash features behave on any input.
    """
    magnitude = min(abs(delta), MAX_DELTA_MAGNITUDE)
    sign = 1 if delta < 0 else 0
    return (sign << DELTA_MAGNITUDE_BITS) | magnitude


def decode_delta(encoded: int) -> int:
    """Invert :func:`encode_delta` (for magnitudes within 6 bits)."""
    magnitude = encoded & MAX_DELTA_MAGNITUDE
    if encoded >> DELTA_MAGNITUDE_BITS:
        return -magnitude
    return magnitude

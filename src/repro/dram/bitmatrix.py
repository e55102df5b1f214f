"""Table-driven bit-matrix engine for the Figure 4 transfer layouts.

Every pack/unpack in the functional datapath is a *fixed permutation* of
bits: data bit ``p`` always lands at chip ``i``, lane ``l``, bit ``k`` for
the same ``(p, i, l, k)`` regardless of the data.  Instead of walking the
triple-nested per-bit loops on every line, we precompute the permutation
once per ``(layout, chip count)`` as an index matrix and move whole lines
with three numpy ops: unpack to a bit vector, gather through the index
matrix, pack back to words.

The scalar loops in :mod:`repro.dram.datapath` and
:mod:`repro.dram.iobuffer` (the ``*_scalar`` functions) remain the
reference oracle; the hypothesis round-trip tests assert bit-for-bit
equality between the two implementations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

#: per-chip block geometry (mirrors :mod:`repro.dram.iobuffer`)
LANES = 4
LANE_BITS = 8
BLOCK_BITS = 32


@lru_cache(maxsize=None)
def _pack_index(layout: str, n_chips: int):
    """Index matrix ``idx[i, b]`` = which data bit feeds chip ``i``'s block
    bit ``b`` (``b = 8*lane + beat`` for the default layout, ``8*lane +
    symbol_bit`` for the transposed one)."""
    if layout not in ("default", "transposed"):
        raise ValueError(f"unknown layout {layout!r}")
    idx = np.empty((n_chips, BLOCK_BITS), dtype=np.intp)
    for i in range(n_chips):
        for b in range(BLOCK_BITS):
            hi, lo = b >> 3, b & 7  # (lane, bit-within-lane)
            if layout == "default":
                # data bit 4*n_chips*k + 4i + l -> chip i, lane l, bit k
                idx[i, b] = 4 * n_chips * lo + 4 * i + hi
            else:
                # data bit 8*n_chips*n + n_chips*k + i -> chip i, lane n,
                # bit k (lane n is a symbol of sector n)
                idx[i, b] = 8 * n_chips * hi + n_chips * lo + i
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _unpack_index(layout: str, n_chips: int):
    """Inverse permutation: flat block bit -> data bit position."""
    idx = _pack_index(layout, n_chips).reshape(-1)
    inv = np.empty(idx.size, dtype=np.intp)
    inv[idx] = np.arange(idx.size, dtype=np.intp)
    inv.setflags(write=False)
    return inv


def pack_blocks(data: bytes, layout: str, n_chips: int) -> List[int]:
    """Distribute ``n_chips * 4`` bytes over per-chip 32-bit blocks."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         bitorder="little")
    gathered = bits[_pack_index(layout, n_chips)]
    words = np.packbits(gathered, axis=1, bitorder="little").view("<u4")
    return [int(w) for w in words.ravel()]


def unpack_blocks(blocks: Sequence[int], layout: str, n_chips: int) -> bytes:
    """Inverse of :func:`pack_blocks`."""
    arr = np.asarray(blocks, dtype="<u4").view(np.uint8)
    bits = np.unpackbits(arr, bitorder="little")
    return np.packbits(
        bits[_unpack_index(layout, n_chips)], bitorder="little"
    ).tobytes()

"""Functional model of the DRAM chip I/O path (Figures 3, 7, 8, 9).

A x4 DDR4 chip built on the common die contains four 32-bit I/O buffers
(128 bits total -- the x16 configuration's worth), sixteen drivers, and a
serializer per driver.  Regular x4 operation uses one buffer and four
drivers; SAM's stride modes (``Sx4_n``) fill all four buffers in one column
access and transmit lane ``n`` of each buffer through the four bonded DQ
pins.

This module is *functional*, not timed: it moves actual bits so that the
gather semantics of SAM-IO, SAM-en (2-D buffer) and the fine-granularity
(4-bit symbol) extension can be verified end to end against plain strided
reads of the memory image.  Timing lives in :mod:`repro.dram.controller`.

Conventions
-----------
* A per-chip *block* is the 32 bits a x4 chip contributes to one cacheline:
  4 lanes x 8 bits, stored as an int; lane ``l`` is bits ``[8l, 8l+8)``.
* Serialization: in x4 mode, beat ``k`` drives DQ ``l`` with bit ``k`` of
  lane ``l``; a burst is 8 beats, so one burst moves one block.
* A 64B cacheline is distributed over 16 chips so that line bit
  ``64k + 4i + l`` travels on chip ``i``, DQ ``l``, beat ``k`` (the default
  layout of Figure 4(b): one 16B ECC codeword occupies two beats across all
  chips).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .bitmatrix import pack_blocks, unpack_blocks

BLOCK_BITS = 32
LANES = 4
LANE_BITS = 8
BEATS = 8
DATA_CHIPS = 16
LINE_BYTES = 64
SECTOR_BYTES = 16
SECTORS_PER_LINE = LINE_BYTES // SECTOR_BYTES

#: bit-matrix tables for the serializers: ``_SPREAD4[n]`` places the four
#: bits of nibble ``n`` at bit 0 of each 8-bit lane of a 32-bit word;
#: ``_COMPRESS4`` is the exact inverse.  One masked shift plus one lookup
#: replaces the per-lane loop of the scalar serializers.
_SPREAD4 = tuple(
    (n & 1)
    | (((n >> 1) & 1) << 8)
    | (((n >> 2) & 1) << 16)
    | (((n >> 3) & 1) << 24)
    for n in range(16)
)
_COMPRESS4 = {v: n for n, v in enumerate(_SPREAD4)}


def lane(block: int, l: int) -> int:
    """Extract lane ``l`` (an 8-bit value) from a 32-bit block."""
    if not 0 <= l < LANES:
        raise ValueError(f"lane index {l} out of range")
    return (block >> (LANE_BITS * l)) & 0xFF


def with_lane(block: int, l: int, value: int) -> int:
    """Return ``block`` with lane ``l`` replaced by ``value``."""
    mask = 0xFF << (LANE_BITS * l)
    return (block & ~mask) | ((value & 0xFF) << (LANE_BITS * l))


def block_column(block: int, n: int) -> int:
    """Column ``n`` of a block: bits ``{2n, 2n+1}`` of each lane (Fig. 8(b)).

    This is the 8-bit per-chip slice of sector ``n`` under the default
    layout -- what the SAM-en z-direction serializer reads.
    """
    if n >= LANES:
        return 0  # the pair shifts out of every 8-bit lane
    # each lane's pair sits at bits {8l+2n, 8l+2n+1}; mask, then fold the
    # four pairs down to bits {2l, 2l+1} (2n <= 6, so pairs never straddle
    # lane boundaries and the folds cannot collide inside the 0xFF mask)
    x = (block >> (2 * n)) & 0x03030303
    return (x | (x >> 6) | (x >> 12) | (x >> 18)) & 0xFF


# --------------------------------------------------------------------------
# Line <-> per-chip block packing (default layout, Figure 4(b))
# --------------------------------------------------------------------------

def _line_bits(line: bytes) -> int:
    if len(line) != LINE_BYTES:
        raise ValueError(f"a cacheline is {LINE_BYTES} bytes, got {len(line)}")
    return int.from_bytes(line, "little")


def _bits_to_line(bits: int) -> bytes:
    return bits.to_bytes(LINE_BYTES, "little")


def pack_line_default_scalar(line: bytes) -> List[int]:
    """Reference implementation of :func:`pack_line_default`."""
    bits = _line_bits(line)
    blocks = [0] * DATA_CHIPS
    for k in range(BEATS):
        beat = (bits >> (64 * k)) & ((1 << 64) - 1)
        for i in range(DATA_CHIPS):
            nibble = (beat >> (4 * i)) & 0xF
            for l in range(LANES):
                if (nibble >> l) & 1:
                    blocks[i] |= 1 << (LANE_BITS * l + k)
    return blocks


def pack_line_default(line: bytes) -> List[int]:
    """Distribute a 64B line over 16 chips in the default layout.

    Line bit ``64k + 4i + l`` becomes chip ``i``, lane ``l``, bit ``k``.
    """
    if len(line) != LINE_BYTES:
        raise ValueError(
            f"a cacheline is {LINE_BYTES} bytes, got {len(line)}"
        )
    return pack_blocks(line, "default", DATA_CHIPS)


def unpack_line_default_scalar(blocks: Sequence[int]) -> bytes:
    """Reference implementation of :func:`unpack_line_default`."""
    if len(blocks) != DATA_CHIPS:
        raise ValueError(f"need {DATA_CHIPS} blocks, got {len(blocks)}")
    bits = 0
    for i, block in enumerate(blocks):
        for l in range(LANES):
            lane_bits = lane(block, l)
            for k in range(BEATS):
                if (lane_bits >> k) & 1:
                    bits |= 1 << (64 * k + 4 * i + l)
    return _bits_to_line(bits)


def unpack_line_default(blocks: Sequence[int]) -> bytes:
    """Inverse of :func:`pack_line_default`."""
    if len(blocks) != DATA_CHIPS:
        raise ValueError(f"need {DATA_CHIPS} blocks, got {len(blocks)}")
    return unpack_blocks(blocks, "default", DATA_CHIPS)


def pack_line_transposed_scalar(line: bytes) -> List[int]:
    """Reference implementation of :func:`pack_line_transposed`."""
    bits = _line_bits(line)
    blocks = [0] * DATA_CHIPS
    for n in range(SECTORS_PER_LINE):
        sector = (bits >> (128 * n)) & ((1 << 128) - 1)
        for i in range(DATA_CHIPS):
            symbol = 0
            for k in range(BEATS):
                if (sector >> (16 * k + i)) & 1:
                    symbol |= 1 << k
            blocks[i] = with_lane(blocks[i], n, symbol)
    return blocks


def pack_line_transposed(line: bytes) -> List[int]:
    """Distribute a 64B line in SAM-IO's transposed layout (Figure 4(c)).

    Lane ``n`` of chip ``i`` holds an 8-bit symbol of sector ``n``: symbol
    bit ``k`` is sector bit ``16k + i``.  One lane is one SSC-variant symbol,
    so a strided (lane-wise) transfer still moves whole codewords.
    """
    if len(line) != LINE_BYTES:
        raise ValueError(
            f"a cacheline is {LINE_BYTES} bytes, got {len(line)}"
        )
    return pack_blocks(line, "transposed", DATA_CHIPS)


def unpack_line_transposed_scalar(blocks: Sequence[int]) -> bytes:
    """Reference implementation of :func:`unpack_line_transposed`."""
    if len(blocks) != DATA_CHIPS:
        raise ValueError(f"need {DATA_CHIPS} blocks, got {len(blocks)}")
    bits = 0
    for n in range(SECTORS_PER_LINE):
        for i, block in enumerate(blocks):
            symbol = lane(block, n)
            for k in range(BEATS):
                if (symbol >> k) & 1:
                    bits |= 1 << (128 * n + 16 * k + i)
    return _bits_to_line(bits)


def unpack_line_transposed(blocks: Sequence[int]) -> bytes:
    """Inverse of :func:`pack_line_transposed`."""
    if len(blocks) != DATA_CHIPS:
        raise ValueError(f"need {DATA_CHIPS} blocks, got {len(blocks)}")
    return unpack_blocks(blocks, "transposed", DATA_CHIPS)


# --------------------------------------------------------------------------
# Serialization through the I/O path.
#
# The public serializers are table-driven: gathering "bit k of each lane"
# is a mask at 0x01010101 followed by a 16-entry compress lookup, and the
# deserializers spread nibbles back with the inverse table.  The
# ``*_scalar`` versions keep the original per-lane loops as the oracle.
# --------------------------------------------------------------------------

def serialize_x4_scalar(block: int) -> List[int]:
    """Reference implementation of :func:`serialize_x4`."""
    beats = []
    for k in range(BEATS):
        nibble = 0
        for l in range(LANES):
            nibble |= ((lane(block, l) >> k) & 1) << l
        beats.append(nibble)
    return beats


def serialize_x4(block: int) -> List[int]:
    """Regular x4 burst: 8 beats, each a 4-bit value (DQ3..DQ0)."""
    block &= 0xFFFFFFFF  # lane() reads bits 0..31 only
    return [_COMPRESS4[(block >> k) & 0x01010101] for k in range(BEATS)]


def deserialize_x4_scalar(beats: Sequence[int]) -> int:
    """Reference implementation of :func:`deserialize_x4`."""
    if len(beats) != BEATS:
        raise ValueError(f"a burst is {BEATS} beats, got {len(beats)}")
    block = 0
    for k, nibble in enumerate(beats):
        for l in range(LANES):
            if (nibble >> l) & 1:
                block |= 1 << (LANE_BITS * l + k)
    return block


def deserialize_x4(beats: Sequence[int]) -> int:
    """Reassemble a 32-bit block from 8 beats of 4 bits."""
    if len(beats) != BEATS:
        raise ValueError(f"a burst is {BEATS} beats, got {len(beats)}")
    block = 0
    for k, nibble in enumerate(beats):
        block |= _SPREAD4[nibble & 0xF] << k
    return block


def serialize_stride_scalar(buffers: Sequence[int], n: int) -> List[int]:
    """Reference implementation of :func:`serialize_stride`."""
    if len(buffers) != 4:
        raise ValueError("stride mode uses all four I/O buffers")
    beats = []
    lanes = [lane(buf, n) for buf in buffers]
    for k in range(BEATS):
        nibble = 0
        for j in range(4):
            nibble |= ((lanes[j] >> k) & 1) << j
        beats.append(nibble)
    return beats


def serialize_stride(buffers: Sequence[int], n: int) -> List[int]:
    """Stride mode ``Sx4_n`` (Figure 7): DQ ``j`` carries lane ``n`` of
    I/O buffer ``j`` (driver ``4j + n``), one bit per beat."""
    if len(buffers) != 4:
        raise ValueError("stride mode uses all four I/O buffers")
    word = (
        lane(buffers[0], n)
        | (lane(buffers[1], n) << 8)
        | (lane(buffers[2], n) << 16)
        | (lane(buffers[3], n) << 24)
    )
    return [_COMPRESS4[(word >> k) & 0x01010101] for k in range(BEATS)]


def serialize_stride_2d_scalar(buffers: Sequence[int], n: int) -> List[int]:
    """Reference implementation of :func:`serialize_stride_2d`."""
    if len(buffers) != 4:
        raise ValueError("stride mode uses all four I/O buffers")
    beats = []
    columns = [block_column(buf, n) for buf in buffers]
    for k in range(BEATS):
        nibble = 0
        for j in range(4):
            nibble |= ((columns[j] >> k) & 1) << j
        beats.append(nibble)
    return beats


def serialize_stride_2d(buffers: Sequence[int], n: int) -> List[int]:
    """SAM-en 2-D buffer access (Figure 8): the z-direction serializers read
    *column* ``n`` of each buffer, so data stored in the default layout is
    gathered without transposition."""
    if len(buffers) != 4:
        raise ValueError("stride mode uses all four I/O buffers")
    word = (
        block_column(buffers[0], n)
        | (block_column(buffers[1], n) << 8)
        | (block_column(buffers[2], n) << 16)
        | (block_column(buffers[3], n) << 24)
    )
    return [_COMPRESS4[(word >> k) & 0x01010101] for k in range(BEATS)]


def serialize_stride_fine(buffers: Sequence[int], n_pair: int) -> List[int]:
    """Fine-granularity (4-bit symbol) stride access (Figure 9).

    The interleaved MUX aggregates four 4-bit symbols -- the low half of
    lane ``2*n_pair`` from each of the four I/O buffers -- onto two DQs:
    DQ ``j`` (j in {0,1}) sends the symbols of buffers ``2j`` and ``2j+1``
    back to back over the 8-beat burst.  The chip's other two DQ positions
    idle; a second rank fills them at channel level (Figure 9(e)).
    """
    if len(buffers) != 4:
        raise ValueError("stride mode uses all four I/O buffers")
    if n_pair not in (0, 1):
        raise ValueError("n_pair selects one of two lane pairs")
    symbols = [lane(buf, 2 * n_pair) & 0xF for buf in buffers]
    beats = [0] * BEATS
    for dq in range(2):
        stream = []
        for buf_idx in (2 * dq, 2 * dq + 1):
            stream.extend(((symbols[buf_idx] >> b) & 1) for b in range(4))
        for k in range(BEATS):
            beats[k] |= stream[k] << dq
    return beats


def deserialize_stride_fine(beats: Sequence[int]) -> List[int]:
    """Recover the four 4-bit symbols sent by :func:`serialize_stride_fine`."""
    if len(beats) != BEATS:
        raise ValueError(f"a burst is {BEATS} beats, got {len(beats)}")
    symbols = []
    for dq in range(2):
        stream = [(beat >> dq) & 1 for beat in beats]
        for half in range(2):
            symbol = 0
            for b in range(4):
                symbol |= stream[4 * half + b] << b
            symbols.append(symbol)
    # symbols arrive as [dq0-buf0, dq0-buf1, dq1-buf2, dq1-buf3]
    return symbols


@dataclass
class IOModeRegister:
    """The 7-bit I/O mode register of Figure 7.

    One bit per configuration: x4, x8, x16, Sx4_0..Sx4_3.  Exactly one bit
    may be set; the register reports which drivers are enabled.
    """

    mode: str = "x4"

    _DRIVERS = {
        "x4": (0, 1, 2, 3),
        "x8": (0, 1, 2, 3, 4, 5, 6, 7),
        "x16": tuple(range(16)),
        "Sx4_0": (0, 4, 8, 12),
        "Sx4_1": (1, 5, 9, 13),
        "Sx4_2": (2, 6, 10, 14),
        "Sx4_3": (3, 7, 11, 15),
    }

    def set_mode(self, mode: str) -> None:
        if mode not in self._DRIVERS:
            raise ValueError(f"unknown I/O mode {mode!r}")
        self.mode = mode

    @property
    def enabled_drivers(self) -> tuple:
        return self._DRIVERS[self.mode]

    @property
    def is_stride(self) -> bool:
        return self.mode.startswith("Sx4")

    @property
    def stride_lane(self) -> int:
        if not self.is_stride:
            raise ValueError(f"mode {self.mode} is not a stride mode")
        return int(self.mode.split("_")[1])

    @property
    def bits(self) -> int:
        """Encoded register value (one-hot over the 7 modes)."""
        order = ("x4", "x8", "x16", "Sx4_0", "Sx4_1", "Sx4_2", "Sx4_3")
        return 1 << order.index(self.mode)

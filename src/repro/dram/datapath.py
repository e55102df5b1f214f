"""Rank-level functional datapath: 18 chips moving real bits.

This model stores actual data in per-chip blocks and serves regular and
stride-mode bursts through the I/O path of :mod:`repro.dram.iobuffer`.  It
exists to *prove* the gather semantics: a SAM-IO / SAM-en strided transfer
must return, bit for bit, the 16B sectors a software strided read would
load, and must keep every ECC codeword intact (each chip contributes whole
symbols).

Two storage layouts are supported (Section 5.4.1):

* ``default``  -- Figure 4(b): a 16B codeword spans all chips in two beats;
  critical-word-first works; SAM-en gathers via the 2-D buffer.
* ``transposed`` -- Figure 4(c): each lane holds an 8-bit symbol; SAM-IO
  gathers lane-wise; regular reads return a permuted line that the CPU must
  transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .bitmatrix import pack_blocks, unpack_blocks
from .geometry import Geometry
from .iobuffer import (
    BEATS,
    LANES,
    deserialize_x4,
    lane,
    serialize_stride,
    serialize_stride_2d,
    serialize_x4,
    with_lane,
)

Layout = str  # "default" | "transposed"


# --------------------------------------------------------------------------
# Generic packers (parameterized by chip count so parity chips reuse them).
#
# The public names dispatch to the table-driven bit-matrix engine of
# :mod:`repro.dram.bitmatrix`; the ``*_scalar`` versions are the original
# per-bit loops, kept as the reference oracle for the round-trip tests.
# --------------------------------------------------------------------------

def pack_default_scalar(data: bytes, n_chips: int) -> List[int]:
    """Reference implementation of :func:`pack_default`."""
    if len(data) * 8 != n_chips * 32:
        raise ValueError(
            f"{n_chips} chips hold {n_chips * 4} bytes, got {len(data)}"
        )
    bits = int.from_bytes(data, "little")
    per_beat = 4 * n_chips
    blocks = [0] * n_chips
    for k in range(BEATS):
        beat = (bits >> (per_beat * k)) & ((1 << per_beat) - 1)
        for i in range(n_chips):
            nibble = (beat >> (4 * i)) & 0xF
            for l in range(LANES):
                if (nibble >> l) & 1:
                    blocks[i] |= 1 << (8 * l + k)
    return blocks


def pack_default(data: bytes, n_chips: int) -> List[int]:
    """Default layout: data bit ``(4*n_chips)*k + 4i + l`` goes to chip
    ``i``, lane ``l``, bit ``k``."""
    if len(data) * 8 != n_chips * 32:
        raise ValueError(
            f"{n_chips} chips hold {n_chips * 4} bytes, got {len(data)}"
        )
    return pack_blocks(data, "default", n_chips)


def unpack_default_scalar(blocks: Sequence[int], n_chips: int) -> bytes:
    """Reference implementation of :func:`unpack_default`."""
    bits = 0
    per_beat = 4 * n_chips
    for i, block in enumerate(blocks):
        for l in range(LANES):
            lane_bits = lane(block, l)
            for k in range(BEATS):
                if (lane_bits >> k) & 1:
                    bits |= 1 << (per_beat * k + 4 * i + l)
    return bits.to_bytes(n_chips * 4, "little")


def unpack_default(blocks: Sequence[int], n_chips: int) -> bytes:
    return unpack_blocks(blocks, "default", n_chips)


def pack_transposed_scalar(data: bytes, n_chips: int) -> List[int]:
    """Reference implementation of :func:`pack_transposed`."""
    if len(data) * 8 != n_chips * 32:
        raise ValueError(
            f"{n_chips} chips hold {n_chips * 4} bytes, got {len(data)}"
        )
    bits = int.from_bytes(data, "little")
    sector_bits = n_chips * 8
    blocks = [0] * n_chips
    for n in range(LANES):
        sector = (bits >> (sector_bits * n)) & ((1 << sector_bits) - 1)
        for i in range(n_chips):
            symbol = 0
            for k in range(BEATS):
                if (sector >> (n_chips * k + i)) & 1:
                    symbol |= 1 << k
            blocks[i] = with_lane(blocks[i], n, symbol)
    return blocks


def pack_transposed(data: bytes, n_chips: int) -> List[int]:
    """Transposed layout: lane ``n`` of chip ``i`` is a symbol of sector
    ``n``; symbol bit ``k`` is sector bit ``n_chips*k + i``."""
    if len(data) * 8 != n_chips * 32:
        raise ValueError(
            f"{n_chips} chips hold {n_chips * 4} bytes, got {len(data)}"
        )
    return pack_blocks(data, "transposed", n_chips)


def unpack_transposed_scalar(blocks: Sequence[int], n_chips: int) -> bytes:
    """Reference implementation of :func:`unpack_transposed`."""
    bits = 0
    sector_bits = n_chips * 8
    for n in range(LANES):
        for i, block in enumerate(blocks):
            symbol = lane(block, n)
            for k in range(BEATS):
                if (symbol >> k) & 1:
                    bits |= 1 << (sector_bits * n + n_chips * k + i)
    return bits.to_bytes(n_chips * 4, "little")


def unpack_transposed(blocks: Sequence[int], n_chips: int) -> bytes:
    return unpack_blocks(blocks, "transposed", n_chips)


# --------------------------------------------------------------------------
# Storage
# --------------------------------------------------------------------------

@dataclass
class ChipStorage:
    """One chip's cell array: sparse map of (bank, row) -> column blocks."""

    columns_per_row: int
    rows: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)

    def row(self, bank: int, row: int) -> List[int]:
        key = (bank, row)
        if key not in self.rows:
            self.rows[key] = [0] * self.columns_per_row
        return self.rows[key]


class RankDatapath:
    """Functional model of one rank: 16 data chips + 2 parity chips."""

    def __init__(
        self,
        geometry: Optional[Geometry] = None,
        layout: Layout = "default",
    ) -> None:
        self.geometry = geometry or Geometry()
        if layout not in ("default", "transposed"):
            raise ValueError(f"unknown layout {layout!r}")
        self.layout = layout
        g = self.geometry
        columns = g.chip_row_bits // 32
        self.data_chips = [ChipStorage(columns) for _ in range(g.data_chips)]
        self.parity_chips = [
            ChipStorage(columns) for _ in range(g.parity_chips)
        ]

    # ------------------------------------------------------------- writes

    def write_line(
        self,
        bank: int,
        row: int,
        column: int,
        line: bytes,
        parity: Optional[bytes] = None,
    ) -> None:
        """Store a 64B line (and optionally its 8B chipkill parity)."""
        pack = pack_default if self.layout == "default" else pack_transposed
        blocks = pack(line, self.geometry.data_chips)
        for chip, block in zip(self.data_chips, blocks):
            chip.row(bank, row)[column] = block
        if parity is not None:
            pblocks = pack(parity, self.geometry.parity_chips)
            for chip, block in zip(self.parity_chips, pblocks):
                chip.row(bank, row)[column] = block

    # -------------------------------------------------------------- reads

    def read_line(self, bank: int, row: int, column: int) -> bytes:
        """Regular x4 burst: each chip serializes buffer 0.

        With the transposed layout this returns the line as it appears *on
        the bus* -- a bit-permutation of the stored line (the CPU-side
        transpose cost of SAM-IO, Section 4.2.2).  Use
        :meth:`read_line_logical` for the stored value.
        """
        blocks = [
            deserialize_x4(serialize_x4(chip.row(bank, row)[column]))
            for chip in self.data_chips
        ]
        return unpack_default(blocks, self.geometry.data_chips)

    def read_line_logical(self, bank: int, row: int, column: int) -> bytes:
        """The line as originally written, undoing the storage layout."""
        blocks = [chip.row(bank, row)[column] for chip in self.data_chips]
        unpack = (
            unpack_default if self.layout == "default" else unpack_transposed
        )
        return unpack(blocks, self.geometry.data_chips)

    def read_parity(self, bank: int, row: int, column: int) -> bytes:
        blocks = [chip.row(bank, row)[column] for chip in self.parity_chips]
        unpack = (
            unpack_default if self.layout == "default" else unpack_transposed
        )
        return unpack(blocks, self.geometry.parity_chips)

    # ------------------------------------------------------------- gathers

    def gather_sectors(
        self,
        bank: int,
        row: int,
        columns: Sequence[int],
        sector: int,
        with_parity: bool = False,
    ) -> List[bytes]:
        """One stride-mode burst: sector ``sector`` of four lines.

        ``columns`` are the four line columns filled into the four I/O
        buffers.  Depending on the storage layout, the chips use the plain
        lane-wise serializer (SAM-IO on the transposed layout) or the 2-D
        buffer serializer (SAM-en on the default layout).  Returns four 16B
        sectors, or four ``(sector, parity)`` pairs when ``with_parity`` --
        the full 18-symbol chipkill codeword of each strided element.
        """
        if len(columns) != 4:
            raise ValueError("a stride burst gathers four columns")
        if not 0 <= sector < LANES:
            raise ValueError(f"sector {sector} out of range")
        chips = list(self.data_chips)
        if with_parity:
            chips += list(self.parity_chips)
        # Each chip fills its 4 buffers from the 4 columns, then serializes.
        per_chip_beats = []
        for chip in chips:
            row_blocks = chip.row(bank, row)
            buffers = [row_blocks[c] for c in columns]
            if self.layout == "transposed":
                beats = serialize_stride(buffers, sector)
            else:
                beats = serialize_stride_2d(buffers, sector)
            per_chip_beats.append(beats)
        # DQ position j of every chip carries strided element j.
        n_data = self.geometry.data_chips
        assemble = (
            self._assemble_transposed
            if self.layout == "transposed"
            else self._assemble_default
        )
        results: List = []
        for j in range(4):
            chip_bytes = []
            for beats in per_chip_beats:
                value = 0
                for k in range(BEATS):
                    value |= ((beats[k] >> j) & 1) << k
                chip_bytes.append(value)
            data = assemble(chip_bytes[:n_data])
            if with_parity:
                results.append((data, assemble(chip_bytes[n_data:])))
            else:
                results.append(data)
        return results

    @staticmethod
    def _assemble_transposed(chip_bytes: Sequence[int]) -> bytes:
        """Sector bit ``16k + i`` came from chip ``i`` beat ``k``."""
        n = len(chip_bytes)
        bits = 0
        for i, value in enumerate(chip_bytes):
            for k in range(BEATS):
                if (value >> k) & 1:
                    bits |= 1 << (n * k + i)
        return bits.to_bytes(n, "little")

    @staticmethod
    def _assemble_default(chip_columns: Sequence[int]) -> bytes:
        """Sector bit ``64b + 4i + l`` came from chip ``i`` column-value bit
        ``2l + b`` (the 2-bit blocks of Figure 8(b))."""
        n = len(chip_columns)
        bits = 0
        for i, value in enumerate(chip_columns):
            for l in range(LANES):
                for b in range(2):
                    if (value >> (2 * l + b)) & 1:
                        bits |= 1 << (4 * n * b + 4 * i + l)
        return bits.to_bytes(n, "little")

    def expected_sector(
        self, bank: int, row: int, column: int, sector: int
    ) -> bytes:
        """Ground truth: bytes ``[16*sector, 16*sector+16)`` of the stored
        line -- what a software strided read would load."""
        line = self.read_line_logical(bank, row, column)
        return line[16 * sector : 16 * (sector + 1)]

    def expected_parity_sector(
        self, bank: int, row: int, column: int, sector: int
    ) -> bytes:
        """Ground truth for the 2 parity bytes of codeword ``sector``."""
        parity = self.read_parity(bank, row, column)
        return parity[2 * sector : 2 * (sector + 1)]

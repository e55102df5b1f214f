"""Chipkill codecs over memory-transfer data (Section 2.3).

Three organizations are modelled:

* :class:`SSCCodec` -- Figure 4(b): one codeword per two beats; symbol =
  the 8 bits chip *i* contributes in those beats.  18 symbols (16 data +
  2 parity), RS(18, 16) over GF(256): corrects one failed chip.
* The *SSC variant* of Figure 4(c) -- same code, but the symbol is the 8
  bits one DQ carries over the whole 8-beat burst.  SAM-IO stores data so a
  strided transfer moves whole variant codewords; byte-level the codec is
  identical, only the (chip, beat) -> symbol mapping differs (see
  :mod:`repro.ecc.layout`).
* :class:`SSCDSDCodec` -- the 36-chip wide channel: 32 data + 4 parity
  chips, distance 5 (single-chip correct, double-chip detect).

All codecs speak bytes: a codeword is ``symbol_bytes * n`` bytes, one byte
per chip (per 4-bit chips we group the two beats of a codeword interval so
each chip still contributes exactly one byte -- see :mod:`repro.ecc.rs` for
why the field stays GF(256)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rs import DecodeFailure, DecodeResult, ReedSolomon


@dataclass(frozen=True)
class CorrectionReport:
    """What a codec did to one codeword."""

    data: bytes
    corrected_chips: Tuple[int, ...]
    detected_uncorrectable: bool


class _RSCodecBase:
    """Shared RS-backed chipkill machinery (one byte symbol per chip)."""

    def __init__(self, data_chips: int, parity_chips: int) -> None:
        self.data_chips = data_chips
        self.parity_chips = parity_chips
        self.n = data_chips + parity_chips
        self.rs = ReedSolomon(self.n, data_chips, 8)

    @property
    def data_bytes(self) -> int:
        return self.data_chips

    @property
    def parity_bytes(self) -> int:
        return self.parity_chips

    def encode(self, data: bytes) -> bytes:
        """Return the parity bytes for ``data`` (one byte per data chip)."""
        if len(data) != self.data_chips:
            raise ValueError(
                f"codeword data is {self.data_chips} bytes, got {len(data)}"
            )
        codeword = self.rs.encode(list(data))
        return bytes(codeword[self.data_chips :])

    def decode(self, data: bytes, parity: bytes) -> CorrectionReport:
        """Correct the codeword; never raises -- failures are reported."""
        if len(data) != self.data_chips or len(parity) != self.parity_chips:
            raise ValueError(
                f"codeword is {self.data_chips}B data + "
                f"{self.parity_chips}B parity, got {len(data)}B + "
                f"{len(parity)}B"
            )
        try:
            result: DecodeResult = self.rs.decode(list(data) + list(parity))
        except DecodeFailure:
            return CorrectionReport(data, (), True)
        return CorrectionReport(
            bytes(result.data), result.corrected_positions, False
        )

    def check(self, data: bytes, parity: bytes) -> bool:
        """True when (data, parity) is a valid codeword."""
        if len(data) != self.data_chips or len(parity) != self.parity_chips:
            raise ValueError(
                f"codeword is {self.data_chips}B data + "
                f"{self.parity_chips}B parity, got {len(data)}B + "
                f"{len(parity)}B"
            )
        return not any(self.rs.syndromes(list(data) + list(parity)))

    # ------------------------------------------------------------- batches

    def encode_many(self, datas: Sequence[bytes]) -> List[bytes]:
        """Batch :meth:`encode`: one vectorized RS pass over many words."""
        if not datas:
            return []
        for d in datas:
            if len(d) != self.data_chips:
                raise ValueError(
                    f"codeword data is {self.data_chips} bytes, got {len(d)}"
                )
        arr = np.frombuffer(b"".join(datas), dtype=np.uint8)
        codewords = self.rs.encode_batch(arr.reshape(-1, self.data_chips))
        parity = codewords[:, self.data_chips:].astype(np.uint8)
        return [row.tobytes() for row in parity]

    def check_many(
        self, datas: Sequence[bytes], paritys: Sequence[bytes]
    ) -> List[bool]:
        """Batch :meth:`check` over parallel data/parity sequences."""
        if not datas:
            return []
        if len(datas) != len(paritys):
            raise ValueError("data and parity sequences differ in length")
        words = [
            d + p for d, p in zip(datas, paritys)
            if len(d) == self.data_chips and len(p) == self.parity_chips
        ]
        if len(words) != len(datas):
            raise ValueError(
                f"codeword is {self.data_chips}B data + "
                f"{self.parity_chips}B parity"
            )
        arr = np.frombuffer(b"".join(words), dtype=np.uint8)
        synd = self.rs.syndromes_batch(arr.reshape(-1, self.n))
        return [not bool(row.any()) for row in synd]


class SSCCodec(_RSCodecBase):
    """Single Symbol Correct chipkill: 16 data chips + 2 parity chips.

    One codeword covers two beats of the 18-chip channel (144 bits = 16B
    data + 2B parity); a whole failed chip corrupts exactly one symbol and
    is always corrected.
    """

    def __init__(self) -> None:
        super().__init__(data_chips=16, parity_chips=2)


class SSCDSDCodec(_RSCodecBase):
    """Single Symbol Correct - Double Symbol Detect: 36-chip wide channel
    (32 data + 4 parity), distance 5."""

    def __init__(self) -> None:
        super().__init__(data_chips=32, parity_chips=4)

    def decode(self, data: bytes, parity: bytes) -> CorrectionReport:
        """Correct one chip; explicitly *detect* two.

        The underlying RS code could correct two symbols, but SSC-DSD as
        deployed treats double-chip faults as detected-uncorrectable (the
        second "chip" is usually the broken bus, and miscorrection risk
        rises), so we cap correction at one symbol.
        """
        report = super().decode(data, parity)
        if len(report.corrected_chips) > 1:
            return CorrectionReport(data, (), True)
        return report


# ---------------------------------------------------------------------------
# Chip-aligned symbol extraction
#
# The SSC symbol is "the eight bits a chip contributes to the codeword",
# which is *not* a consecutive byte of the sector: the transfer layouts of
# Figure 4 interleave chips at nibble (default) or bit (transposed)
# granularity.  Correcting a chip failure therefore requires mapping the
# sector to chip-aligned symbols first.
# ---------------------------------------------------------------------------

def sector_chip_symbols(data: bytes, parity: bytes,
                        layout: str = "default") -> List[int]:
    """18 chip-aligned GF(256) symbols of one (16B data, 2B parity) sector.

    ``default`` (Figure 4(b)): chip ``i`` holds sector bits
    ``{64*b + 4*i + l : b in 0..1, l in 0..3}`` -- two nibbles, one per
    beat.  ``transposed`` (Figure 4(c)): chip ``i`` holds bits
    ``{16*k + i : k in 0..7}``.
    """
    if len(data) != 16 or len(parity) != 2:
        raise ValueError("a sector is 16B of data + 2B of parity")
    dbits = int.from_bytes(data, "little")
    pbits = int.from_bytes(parity, "little")
    symbols = []
    if layout == "default":
        for i in range(16):
            lo = (dbits >> (4 * i)) & 0xF
            hi = (dbits >> (64 + 4 * i)) & 0xF
            symbols.append(lo | (hi << 4))
        for c in range(2):
            lo = (pbits >> (4 * c)) & 0xF
            hi = (pbits >> (8 + 4 * c)) & 0xF
            symbols.append(lo | (hi << 4))
    elif layout == "transposed":
        for i in range(16):
            symbol = 0
            for k in range(8):
                symbol |= ((dbits >> (16 * k + i)) & 1) << k
            symbols.append(symbol)
        for c in range(2):
            symbol = 0
            for k in range(8):
                symbol |= ((pbits >> (2 * k + c)) & 1) << k
            symbols.append(symbol)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return symbols


@lru_cache(maxsize=None)
def _symbol_bit_index(layout: str):
    """``(18, 8)`` index matrix: symbol ``s`` bit ``k`` -> bit position in
    the 144-bit sector codeword (128 data bits, then 16 parity bits).

    This is :func:`sector_chip_symbols` as a fixed bit permutation, so
    whole batches of sectors reduce to unpack-gather-pack (same engine as
    :mod:`repro.dram.bitmatrix`)."""
    idx = np.empty((18, 8), dtype=np.intp)
    for s in range(18):
        for k in range(8):
            if layout == "default":
                if s < 16:
                    idx[s, k] = (
                        4 * s + k if k < 4 else 64 + 4 * s + (k - 4)
                    )
                else:
                    c = s - 16
                    idx[s, k] = 128 + (
                        4 * c + k if k < 4 else 8 + 4 * c + (k - 4)
                    )
            elif layout == "transposed":
                idx[s, k] = (
                    16 * k + s if s < 16 else 128 + 2 * k + (s - 16)
                )
            else:
                raise ValueError(f"unknown layout {layout!r}")
    idx.setflags(write=False)
    return idx


def _chip_symbols_batch(data_arr, parity_arr, layout: str):
    """``(batch, 18)`` chip-aligned symbols from ``(batch, 16)`` data and
    ``(batch, 2)`` parity byte arrays."""
    raw = np.concatenate([data_arr, parity_arr], axis=1)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    idx = _symbol_bit_index(layout)
    sym_bits = bits[:, idx.reshape(-1)].reshape(-1, 18, 8)
    packed = np.packbits(sym_bits, axis=2, bitorder="little")
    return packed[:, :, 0].astype(np.int64)


def _parity_from_symbols_batch(parity_syms, layout: str):
    """Scatter ``(batch, 2)`` parity symbols back to parity bytes."""
    bits = np.unpackbits(
        parity_syms.astype(np.uint8), axis=1, bitorder="little"
    )
    fwd = (_symbol_bit_index(layout)[16:] - 128).reshape(-1)
    out = np.zeros_like(bits)
    out[:, fwd] = bits
    return np.packbits(out, axis=1, bitorder="little")


def sector_from_chip_symbols(symbols: Sequence[int],
                             layout: str = "default") -> Tuple[bytes, bytes]:
    """Inverse of :func:`sector_chip_symbols`."""
    if len(symbols) != 18:
        raise ValueError("a sector codeword has 18 chip symbols")
    dbits = 0
    pbits = 0
    if layout == "default":
        for i in range(16):
            dbits |= (symbols[i] & 0xF) << (4 * i)
            dbits |= ((symbols[i] >> 4) & 0xF) << (64 + 4 * i)
        for c in range(2):
            pbits |= (symbols[16 + c] & 0xF) << (4 * c)
            pbits |= ((symbols[16 + c] >> 4) & 0xF) << (8 + 4 * c)
    elif layout == "transposed":
        for i in range(16):
            for k in range(8):
                if (symbols[i] >> k) & 1:
                    dbits |= 1 << (16 * k + i)
        for c in range(2):
            for k in range(8):
                if (symbols[16 + c] >> k) & 1:
                    pbits |= 1 << (2 * k + c)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return dbits.to_bytes(16, "little"), pbits.to_bytes(2, "little")


class ChipAlignedSSC:
    """SSC over chip-aligned symbols: the codec that actually survives a
    whole-chip failure under the Figure 4 transfer layouts."""

    def __init__(self, layout: str = "default") -> None:
        if layout not in ("default", "transposed"):
            raise ValueError(f"unknown layout {layout!r}")
        self.layout = layout
        self.rs = ReedSolomon(18, 16, 8)

    def encode_sector(self, data: bytes) -> bytes:
        """Parity bytes such that the 18 *chip* symbols form a codeword."""
        if len(data) != 16:
            raise ValueError("a sector is 16 bytes")
        data_symbols = sector_chip_symbols(data, b"\x00\x00",
                                           self.layout)[:16]
        codeword = self.rs.encode(data_symbols)
        _, parity = sector_from_chip_symbols(codeword, self.layout)
        return parity

    def decode_sector(self, data: bytes, parity: bytes) -> CorrectionReport:
        symbols = sector_chip_symbols(data, parity, self.layout)
        try:
            result = self.rs.decode(symbols)
        except DecodeFailure:
            return CorrectionReport(data, (), True)
        # re-encode the corrected data symbols: yields a clean codeword
        # even when the corrupted symbol was a parity chip's
        codeword = self.rs.encode(list(result.data))
        fixed_data, _ = sector_from_chip_symbols(codeword, self.layout)
        return CorrectionReport(
            fixed_data, result.corrected_positions, False
        )

    def check_sector(self, data: bytes, parity: bytes) -> bool:
        return not any(
            self.rs.syndromes(sector_chip_symbols(data, parity, self.layout))
        )

    # ------------------------------------------------------------- batches

    def encode_sectors(self, datas: Sequence[bytes]) -> List[bytes]:
        """Batch :meth:`encode_sector`: symbol extraction and RS encoding
        of many sectors in one vectorized pass."""
        if not datas:
            return []
        for d in datas:
            if len(d) != 16:
                raise ValueError("a sector is 16 bytes")
        arr = np.frombuffer(b"".join(datas), dtype=np.uint8).reshape(-1, 16)
        zeros = np.zeros((arr.shape[0], 2), dtype=np.uint8)
        symbols = _chip_symbols_batch(arr, zeros, self.layout)[:, :16]
        codewords = self.rs.encode_batch(symbols)
        parity = _parity_from_symbols_batch(codewords[:, 16:], self.layout)
        return [row.tobytes() for row in parity]

    def check_sectors(
        self, datas: Sequence[bytes], paritys: Sequence[bytes]
    ) -> List[bool]:
        """Batch :meth:`check_sector` over parallel sequences."""
        if not datas:
            return []
        if len(datas) != len(paritys):
            raise ValueError("data and parity sequences differ in length")
        for d, p in zip(datas, paritys):
            if len(d) != 16 or len(p) != 2:
                raise ValueError("a sector is 16B of data + 2B of parity")
        darr = np.frombuffer(b"".join(datas), dtype=np.uint8).reshape(-1, 16)
        parr = np.frombuffer(b"".join(paritys), dtype=np.uint8).reshape(-1, 2)
        symbols = _chip_symbols_batch(darr, parr, self.layout)
        synd = self.rs.syndromes_batch(symbols)
        return [not bool(row.any()) for row in synd]


def codeword_split(line: bytes, codec: _RSCodecBase) -> List[bytes]:
    """Split a 64B line into the per-codeword data chunks of ``codec``."""
    step = codec.data_bytes
    if len(line) % step:
        raise ValueError(f"line of {len(line)}B does not split into {step}B")
    return [line[i : i + step] for i in range(0, len(line), step)]


def encode_line(line: bytes, codec: Optional[_RSCodecBase] = None) -> bytes:
    """Chipkill parity for a 64B line: 2B per 16B codeword -> 8B total."""
    codec = codec or SSCCodec()
    return b"".join(codec.encode_many(codeword_split(line, codec)))


def decode_line(
    line: bytes, parity: bytes, codec: Optional[_RSCodecBase] = None
) -> Tuple[bytes, List[CorrectionReport]]:
    """Correct a 64B line given its 8B parity; returns (data, reports)."""
    codec = codec or SSCCodec()
    chunks = codeword_split(line, codec)
    pstep = codec.parity_bytes
    reports = []
    corrected = []
    for i, chunk in enumerate(chunks):
        report = codec.decode(chunk, parity[i * pstep : (i + 1) * pstep])
        reports.append(report)
        corrected.append(report.data)
    return b"".join(corrected), reports

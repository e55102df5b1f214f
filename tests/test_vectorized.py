"""Bit-exactness of the vectorized hot paths against their scalar oracles.

The PR-7 hot-path overhaul keeps every original per-bit/per-symbol loop as
a ``*_scalar`` reference implementation.  These properties assert the
table-driven / numpy paths are indistinguishable from them across layouts,
chip counts and random payloads -- and that the incremental FR-FCFS
readiness index issues the exact command stream of the full-recompute
scheduler on fuzzed traces.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.dram.commands as dram_commands
from repro.check.fuzz import SALP_SCHEMES, FuzzCase, generate_case, run_case
from repro.dram import datapath as dp
from repro.dram import iobuffer as io
from repro.ecc.chipkill import ChipAlignedSSC, SSCCodec, SSCDSDCodec
from repro.ecc.rs import ReedSolomon

CHIP_COUNTS = (1, 2, 4, 16, 18)
LAYOUTS = ("default", "transposed")

blocks = st.integers(min_value=0, max_value=(1 << 32) - 1)
lines = st.binary(min_size=64, max_size=64)


# ----------------------------------------------------------- pack / unpack

@pytest.mark.parametrize("n_chips", CHIP_COUNTS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pack_default_matches_scalar(n_chips, data):
    payload = data.draw(
        st.binary(min_size=4 * n_chips, max_size=4 * n_chips)
    )
    got = dp.pack_default(payload, n_chips)
    assert got == dp.pack_default_scalar(payload, n_chips)
    assert dp.unpack_default(got, n_chips) == payload
    assert dp.unpack_default_scalar(got, n_chips) == payload


@pytest.mark.parametrize("n_chips", CHIP_COUNTS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pack_transposed_matches_scalar(n_chips, data):
    payload = data.draw(
        st.binary(min_size=4 * n_chips, max_size=4 * n_chips)
    )
    got = dp.pack_transposed(payload, n_chips)
    assert got == dp.pack_transposed_scalar(payload, n_chips)
    assert dp.unpack_transposed(got, n_chips) == payload
    assert dp.unpack_transposed_scalar(got, n_chips) == payload


@given(lines)
@settings(max_examples=60, deadline=None)
def test_line_packers_match_scalar(line):
    bd = io.pack_line_default(line)
    assert bd == io.pack_line_default_scalar(line)
    assert io.unpack_line_default(bd) == line
    assert io.unpack_line_default_scalar(bd) == line
    bt = io.pack_line_transposed(line)
    assert bt == io.pack_line_transposed_scalar(line)
    assert io.unpack_line_transposed(bt) == line
    assert io.unpack_line_transposed_scalar(bt) == line


def test_pack_rejects_wrong_length():
    with pytest.raises(ValueError):
        dp.pack_default(b"\x00" * 63, 16)
    with pytest.raises(ValueError):
        dp.pack_transposed(b"\x00" * 65, 16)
    with pytest.raises(ValueError):
        io.pack_line_default(b"\x00" * 16)
    with pytest.raises(ValueError):
        io.pack_line_transposed(b"")


# -------------------------------------------------------------- serializers

@given(blocks)
@settings(max_examples=80, deadline=None)
def test_serialize_x4_matches_scalar(block):
    beats = io.serialize_x4(block)
    assert beats == io.serialize_x4_scalar(block)
    assert io.deserialize_x4(beats) == block
    assert io.deserialize_x4_scalar(beats) == block


@given(st.lists(blocks, min_size=4, max_size=4),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_stride_serializers_match_scalar(buffers, n):
    assert io.serialize_stride(buffers, n) == \
        io.serialize_stride_scalar(buffers, n)
    assert io.serialize_stride_2d(buffers, n) == \
        io.serialize_stride_2d_scalar(buffers, n)


@given(blocks, st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_block_column_matches_lane_loop(block, n):
    expected = 0
    for l in range(io.LANES):
        expected |= ((io.lane(block, l) >> (2 * n)) & 0b11) << (2 * l)
    assert io.block_column(block, n) == expected


# ------------------------------------------------------------ ECC batches

RS_PARAMS = ((18, 16, 8), (36, 32, 8), (15, 11, 4))


@pytest.mark.parametrize("n,k,m", RS_PARAMS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_rs_encode_batch_matches_scalar(n, k, m, data):
    rs = ReedSolomon(n, k, m)
    batch = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1),
                 min_size=k, max_size=k),
        min_size=1, max_size=6,
    ))
    encoded = rs.encode_batch(batch)
    for row, symbols in zip(encoded, batch):
        assert list(row) == rs.encode(symbols)


@pytest.mark.parametrize("n,k,m", RS_PARAMS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_rs_syndromes_batch_matches_scalar(n, k, m, data):
    rs = ReedSolomon(n, k, m)
    batch = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1),
                 min_size=n, max_size=n),
        min_size=1, max_size=6,
    ))
    syndromes = rs.syndromes_batch(batch)
    for row, codeword in zip(syndromes, batch):
        assert list(row) == rs.syndromes(codeword)


def test_rs_batch_rejects_bad_shapes():
    rs = ReedSolomon(18, 16, 8)
    with pytest.raises(ValueError):
        rs.encode_batch([[0] * 17])
    with pytest.raises(ValueError):
        rs.encode_batch([[256] + [0] * 15])
    with pytest.raises(ValueError):
        rs.syndromes_batch([[0] * 17])


@pytest.mark.parametrize("codec_cls", (SSCCodec, SSCDSDCodec))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_codec_batches_match_scalar(codec_cls, data):
    codec = codec_cls()
    datas = data.draw(st.lists(
        st.binary(min_size=codec.data_bytes, max_size=codec.data_bytes),
        min_size=1, max_size=5,
    ))
    paritys = codec.encode_many(datas)
    assert paritys == [codec.encode(d) for d in datas]
    flips = data.draw(st.lists(
        st.integers(min_value=0, max_value=255),
        min_size=len(datas), max_size=len(datas),
    ))
    corrupted = [
        bytes([p[0] ^ flip]) + p[1:] for p, flip in zip(paritys, flips)
    ]
    assert codec.check_many(datas, corrupted) == [
        codec.check(d, p) for d, p in zip(datas, corrupted)
    ]


@pytest.mark.parametrize("layout", LAYOUTS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_chip_aligned_batches_match_scalar(layout, data):
    codec = ChipAlignedSSC(layout)
    sectors = data.draw(st.lists(
        st.binary(min_size=16, max_size=16), min_size=1, max_size=6,
    ))
    paritys = codec.encode_sectors(sectors)
    assert paritys == [codec.encode_sector(s) for s in sectors]
    flips = data.draw(st.lists(
        st.integers(min_value=0, max_value=255),
        min_size=len(sectors), max_size=len(sectors),
    ))
    corrupted = [
        bytes([p[0] ^ flip, p[1]]) for p, flip in zip(paritys, flips)
    ]
    assert codec.check_sectors(sectors, corrupted) == [
        codec.check_sector(s, p) for s, p in zip(sectors, corrupted)
    ]
    for sector, parity in zip(sectors, paritys):
        report = codec.decode_sector(sector, parity)
        assert not report.detected_uncorrectable
        assert report.data == sector


# ------------------------------------------------- scheduler equivalence

def _command_stream(case, reference=False):
    """One fuzz case replayed under the fast scheduler or the reference.

    Returns ``(command_log, final_cycle, ledger_entries)`` so the
    equivalence tests can diff the full observable behavior: every issued
    command with its operands (refresh-path and implicit precharges
    included), the cycle the trace drained at, and the controller's
    stall attribution."""
    from repro.obs.stalls import StallLedger

    # req_ids must line up between the two replays
    dram_commands._request_ids = itertools.count()
    log = []

    def observe(now, command, request, *, rank, bank, subarray, implicit):
        log.append((
            now, command.value,
            None if request is None else request.req_id,
            rank, bank, subarray, implicit,
        ))

    ledger = StallLedger()
    result = run_case(case, oracle_data=False, reference=reference,
                      stall_ledger=ledger, on_command=observe)
    assert not result.failed, result.summary()
    return log, result.cycles, [tuple(e) for e in ledger.entries]


@pytest.mark.parametrize("index", range(12))
def test_readiness_index_matches_full_recompute(index):
    """The incremental readiness index must issue the exact command
    stream (cycle, command, request) of the full-recompute reference."""
    case = generate_case(seed=20260808, index=index)
    fast, _, _ = _command_stream(case)
    slow, _, _ = _command_stream(case, reference=True)
    assert fast == slow
    assert fast  # a silent empty stream would vacuously pass


@pytest.mark.parametrize("index", range(12))
def test_readiness_index_matches_recompute_under_salp(index):
    """Same equivalence over the subarray-aware schemes: the per-subarray
    version keys and the SA_SEL path must invalidate exactly like the
    full recompute."""
    case = generate_case(seed=20260808, index=index, schemes=SALP_SCHEMES)
    fast, _, _ = _command_stream(case)
    slow, _, _ = _command_stream(case, reference=True)
    assert fast == slow
    assert fast


@pytest.mark.parametrize("index", range(12))
def test_event_wheel_matches_polling(index):
    """Wake-ups must be *exact* against the reference: identical command
    stream, final cycle count, and stall ledger, on the same fuzzed
    traces the readiness battery replays (refresh-heavy cases included
    -- generate_case mixes them in)."""
    case = generate_case(seed=20260808, index=index)
    fast = _command_stream(case)
    slow = _command_stream(case, reference=True)
    assert fast == slow
    assert fast[0]


@pytest.mark.parametrize("index", range(12))
def test_event_wheel_matches_polling_under_salp(index):
    """Same exactness over the subarray-aware schemes, where wake-up
    times must agree with SA_SEL designation and per-subarray readiness
    churn."""
    case = generate_case(seed=20260808, index=index, schemes=SALP_SCHEMES)
    fast = _command_stream(case)
    slow = _command_stream(case, reference=True)
    assert fast == slow
    assert fast[0]


def _same_row_case(scheme):
    """A queue that fills with requests to one row: 96 reads and 8
    writes to consecutive lines, salted with reads to the next row of
    the same bank (row conflicts) and to a row in another subarray (MASA
    re-designation).  Nearly every stale readiness entry in a scan
    shares its terms with its neighbours."""
    row = 4096  # 64B records per row, across every bank and rank
    subarray = 512 * row
    ops = []
    for i in range(96):
        ops.append(("load", i, 0))
        if i % 8 == 3:
            ops.append(("load", row + i, 0))
        if i % 8 == 6:
            ops.append(("load", subarray + i, 0))
        if i % 12 == 5:
            ops.append(("store", i, 0))
    return FuzzCase(
        seed=0, index=0, scheme=scheme, gather_factor=8, record_bytes=64,
        n_records=subarray + 128, refresh=False, ops=tuple(ops),
    )


@pytest.mark.parametrize("scheme", ("baseline", "masa"))
def test_same_row_queue_matches_reference(scheme):
    """Shared readiness terms per scan stay exact when most queued
    requests want the same row (salp="none" and MASA)."""
    case = _same_row_case(scheme)
    fast = _command_stream(case)
    slow = _command_stream(case, reference=True)
    assert fast == slow
    assert len(fast[0]) > 100


@pytest.mark.parametrize("scheme", ("salp1", "masa"))
def test_salp_checked_fuzz_stays_clean(scheme):
    """Short per-scheme checked-fuzz runs (protocol checker + data
    oracles attached); the long stream lives in CI's fuzz job."""
    for index in range(6):
        case = generate_case(seed=1804, index=index, schemes=(scheme,))
        result = run_case(case)
        assert not result.failed, result.summary()

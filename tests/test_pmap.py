"""Binary map-set codec: header layout, round trips, error offsets."""
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from posepartition.errors import MapFormatError
from posepartition.maps import ConfidenceMapSet, RegressionMapSet
from posepartition.pmap import (
    HEADER_SIZE,
    KIND_CONFIDENCE,
    KIND_REGRESSION,
    MAGIC,
    decode_map_set,
    encode_map_set,
    read_confidence,
    read_map_set,
    read_regression,
    write_map_set,
)


def sample_confidence(rng, k=3, h=5, w=7):
    return ConfidenceMapSet(rng.uniform(0, 1, size=(k, h, w)).astype(np.float32))


def sample_regression(rng, k=2, h=4, w=6):
    return RegressionMapSet(rng.normal(size=(k, h, w, 2)).astype(np.float32))


def test_header_layout():
    conf = ConfidenceMapSet(np.zeros((2, 3, 4), dtype=np.float32))
    data = encode_map_set(conf)
    assert data[:5] == b"PMAP1"
    assert data[5] == KIND_CONFIDENCE
    k, h, w = struct.unpack_from("<III", data, 6)
    assert (k, h, w) == (2, 3, 4)
    assert len(data) == HEADER_SIZE + 2 * 3 * 4 * 4
    assert HEADER_SIZE == 18
    with pytest.raises(MapFormatError, match="cannot encode 'ndarray' as a map set"):
        encode_map_set(conf.values)


def test_regression_header_and_payload_size():
    reg = RegressionMapSet(np.zeros((2, 3, 4, 2), dtype=np.float32))
    data = encode_map_set(reg)
    assert data[5] == KIND_REGRESSION
    assert len(data) == HEADER_SIZE + 2 * 3 * 4 * 2 * 4


# Every float32 class the payload must carry bit for bit: quiet and
# signalling NaNs of both signs, infinities, signed zeros, subnormals.
SPECIAL_FLOAT32 = np.array(
    [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFBFFFFF, 0x7F800000, 0xFF800000,
     0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF, 0x3F800000],
    dtype=np.uint32,
).view(np.float32)


def float32_maps(tail=()):
    """Small (K, H, W, *tail) float32 arrays, NaN, infinities and -0.0 included."""
    shapes = st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)).map(
        lambda khw: khw + tail
    )
    return arrays(np.float32, shapes, elements=st.floats(width=32))


@settings(max_examples=60, deadline=None)
@given(values=float32_maps())
@example(values=sample_confidence(np.random.default_rng(29)).values)
@example(values=SPECIAL_FLOAT32.reshape(1, 3, 4))
def test_confidence_round_trip_is_byte_identical(values):
    data = encode_map_set(ConfidenceMapSet(values))
    back = decode_map_set(data)
    assert isinstance(back, ConfidenceMapSet)
    assert back.values.tobytes() == values.astype("<f4").tobytes()
    assert encode_map_set(back) == data


@settings(max_examples=60, deadline=None)
@given(values=float32_maps((2,)))
@example(values=sample_regression(np.random.default_rng(31)).values)
@example(values=SPECIAL_FLOAT32.reshape(2, 1, 3, 2))
def test_regression_round_trip_is_byte_identical(values):
    data = encode_map_set(RegressionMapSet(values))
    back = decode_map_set(data)
    assert isinstance(back, RegressionMapSet)
    assert back.values.tobytes() == values.astype("<f4").tobytes()
    assert encode_map_set(back) == data


def test_payload_order_is_joint_row_col():
    values = np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3)
    data = encode_map_set(ConfidenceMapSet(values))
    flat = np.frombuffer(data, dtype="<f4", offset=HEADER_SIZE)
    assert list(flat) == list(range(12))
    # Regression interleaves the (x, y) components last.
    rv = np.zeros((1, 1, 2, 2), dtype=np.float32)
    rv[0, 0, 0] = (1.5, 2.5)
    rv[0, 0, 1] = (3.5, 4.5)
    rdata = encode_map_set(RegressionMapSet(rv))
    rflat = np.frombuffer(rdata, dtype="<f4", offset=HEADER_SIZE)
    assert list(rflat) == [1.5, 2.5, 3.5, 4.5]


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    conf = sample_confidence(rng)
    reg = sample_regression(rng)
    cpath = tmp_path / "maps.conf.pmap"
    rpath = tmp_path / "maps.reg.pmap"
    write_map_set(conf, cpath)
    write_map_set(reg, rpath)
    assert cpath.read_bytes() == encode_map_set(conf)
    assert np.array_equal(read_confidence(cpath).values, conf.values)
    assert np.array_equal(read_regression(rpath).values, reg.values)


def test_writing_a_map_set_copies_no_payload(tmp_path):
    # An 8 MB regression set goes to the file from its own buffer.
    reg = RegressionMapSet(np.zeros((16, 256, 256, 2), dtype=np.float32))
    path = tmp_path / "maps.reg.pmap"
    tracemalloc.start()
    try:
        write_map_set(reg, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert path.stat().st_size == HEADER_SIZE + reg.values.nbytes


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_maps_are_read_from_a_pipe(tmp_path):
    conf = sample_confidence(np.random.default_rng(59))
    path = tmp_path / "maps.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=write_map_set, args=(conf, path))
    writer.start()
    try:
        back = read_map_set(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(back.values, conf.values)


def test_bad_magic_names_offset_zero():
    rng = np.random.default_rng(41)
    data = bytearray(encode_map_set(sample_confidence(rng)))
    data[:5] = b"XMAP1"
    with pytest.raises(MapFormatError, match="offset 0"):
        decode_map_set(bytes(data))


def test_unknown_kind_names_offset_five():
    rng = np.random.default_rng(43)
    data = bytearray(encode_map_set(sample_confidence(rng)))
    data[5] = 7
    with pytest.raises(MapFormatError, match="offset 5"):
        decode_map_set(bytes(data))


def test_truncated_payload_is_rejected():
    rng = np.random.default_rng(47)
    data = encode_map_set(sample_confidence(rng))
    with pytest.raises(MapFormatError, match="payload"):
        decode_map_set(data[:-4])
    with pytest.raises(MapFormatError, match="payload"):
        decode_map_set(data + b"\x00\x00\x00\x00")


def test_short_header_is_rejected():
    with pytest.raises(MapFormatError, match="header"):
        decode_map_set(b"PMAP1\x00")
    with pytest.raises(MapFormatError, match="header"):
        decode_map_set(b"")


def test_degenerate_dimensions_are_rejected():
    header = struct.pack("<5sBIII", MAGIC, KIND_CONFIDENCE, 0, 4, 4)
    with pytest.raises(MapFormatError, match="degenerate"):
        decode_map_set(header)
    header = struct.pack("<5sBIII", MAGIC, KIND_REGRESSION, 1, 0, 4)
    with pytest.raises(MapFormatError, match="degenerate"):
        decode_map_set(header)


def test_kind_specific_readers_enforce_the_kind(tmp_path):
    rng = np.random.default_rng(53)
    cpath = tmp_path / "c.pmap"
    rpath = tmp_path / "r.pmap"
    write_map_set(sample_confidence(rng), cpath)
    write_map_set(sample_regression(rng), rpath)
    with pytest.raises(MapFormatError, match="expected confidence"):
        read_confidence(rpath)
    with pytest.raises(MapFormatError, match="expected regression"):
        read_regression(cpath)


def test_read_errors_name_the_file(tmp_path):
    path = tmp_path / "broken.pmap"
    path.write_bytes(b"NOPE!" + b"\x00" * 20)
    with pytest.raises(MapFormatError, match="broken.pmap"):
        read_map_set(path)
    path.write_bytes(b"")
    with pytest.raises(MapFormatError, match="broken.pmap.*header"):
        read_map_set(path)

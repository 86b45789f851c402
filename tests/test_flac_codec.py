"""FLAC codec tests: roundtrips + hand-built streams for decoder-only paths.

No libFLAC in this container; conformance is evidenced by (a) exact
encode->decode roundtrips with STREAMINFO-MD5 verification, (b)
hand-assembled frames for paths the encoder does not emit (LPC, all
three stereo decorrelation modes, multi-partition + rice2 + escape
residuals, wasted bits), cross-checked against independently computed
expected samples, and (c) CRC/MD5 corruption rejection.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oar_ocr_ray.flac_codec import (
    _BitReader,
    _BitWriter,
    _read_utf8_num,
    _restore_lpc,
    _write_utf8_num,
    crc8,
    crc16,
    decode_flac,
    encode_flac,
)

rng = np.random.default_rng(21)


# ---------------------------------------------------------------------------
# roundtrips


@pytest.mark.parametrize("label", [
    "sine", "noise_stereo", "silence", "constant", "short", "ramps", "extremes",
])
def test_roundtrip(label):
    t = np.arange(20000)
    cases = {
        "sine": ((10000 * np.sin(t / 30)).astype(np.int16), 16000),
        "noise_stereo": (rng.integers(-32768, 32768, (10000, 2), dtype=np.int16), 44100),
        "silence": (np.zeros(5000, np.int16), 8000),
        "constant": (np.full(4096, 123, np.int16), 8000),
        "short": ((1000 * np.sin(t[:100] / 3)).astype(np.int16), 16000),
        "ramps": ((np.arange(9000) % 4000 - 2000).astype(np.int16), 22050),
        "extremes": (np.array([32767, -32768, 0, -1], np.int16), 8000),
    }
    x, rate = cases[label]
    out, r2 = decode_flac(encode_flac(x, rate))
    want = x if x.ndim == 2 else x[:, None]
    assert r2 == rate and out.shape == want.shape and (out == want).all()


def test_compression_is_real():
    t = np.arange(40000)
    sine = (12000 * np.sin(t / 25)).astype(np.int16)
    data = encode_flac(sine, 16000)
    assert len(data) < 0.5 * sine.size * 2  # smooth signal compresses >2x


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5000), ch=st.integers(1, 3), seed=st.integers(0, 2**31))
def test_roundtrip_property(n, ch, seed):
    r = np.random.default_rng(seed)
    x = r.integers(-32768, 32768, (n, ch), dtype=np.int16)
    out, _ = decode_flac(encode_flac(x, 8000))
    assert (out == x).all()


@settings(max_examples=100, deadline=None)
@given(v=st.integers(0, (1 << 31) - 1))
def test_utf8_number_roundtrip(v):
    bw = _BitWriter()
    _write_utf8_num(bw, v)
    assert _read_utf8_num(_BitReader(bw.bytes())) == v


def test_crc_vectors():
    # CRC-8 poly 0x07 and CRC-16 poly 0x8005 (unreflected, init 0) over
    # the standard '123456789' check string
    assert crc8(b"123456789") == 0xF4
    assert crc16(b"123456789") == 0xFEE8


# ---------------------------------------------------------------------------
# hand-built frames (decoder-only paths)


def _wrap_stream(frame_bytes: bytes, n: int, nch: int, rate: int = 8000,
                 md5: bytes = b"\x00" * 16) -> bytes:
    streaminfo = (
        struct.pack(">HH", 4096, 4096)
        + b"\x00\x00\x00" * 2
        + ((rate << 44) | ((nch - 1) << 41) | (15 << 36) | n).to_bytes(8, "big")
        + md5
    )
    return (b"fLaC" + bytes([0x80]) + len(streaminfo).to_bytes(3, "big")
            + streaminfo + frame_bytes)


def _frame_header(blocksize: int, chan_code: int) -> bytes:
    bw = _BitWriter()
    bw.write(0x3FFE, 14)
    bw.write(0, 2)
    bw.write(0b0111, 4)   # 16-bit blocksize follows
    bw.write(0, 4)        # rate from STREAMINFO
    bw.write(chan_code, 4)
    bw.write(0b100, 3)    # 16 bps
    bw.write(0, 1)
    _write_utf8_num(bw, 0)
    bw.write(blocksize - 1, 16)
    h = bw.bytes()
    return h + bytes([crc8(h)])


def _verbatim_subframe(bw: _BitWriter, samples, bps: int) -> None:
    bw.write(0, 1)
    bw.write(1, 6)
    bw.write(0, 1)
    for v in samples:
        bw.write(int(v) & ((1 << bps) - 1), bps)


def _finish_frame(header: bytes, bw: _BitWriter) -> bytes:
    bw.align()
    framed = header + bw.bytes()
    return framed + struct.pack(">H", crc16(framed))


def _decode_one(frame: bytes, n: int, nch: int):
    out, rate = decode_flac(_wrap_stream(frame, n, nch), verify_md5=False)
    return out


def test_lpc_subframe_decodes():
    order, prec, shift = 2, 5, 2
    coeffs = [3, -1]
    warm = np.array([100, -50], np.int64)
    res = rng.integers(-40, 40, 62).astype(np.int64)
    expected = _restore_lpc(warm, res, coeffs, shift)
    assert (np.abs(expected) < 32768).all()
    bw = _BitWriter()
    bw.write(0, 1)
    bw.write(0b100000 | (order - 1), 6)  # LPC order 2
    bw.write(0, 1)
    for v in warm:
        bw.write(int(v) & 0xFFFF, 16)
    bw.write(prec - 1, 4)
    bw.write(shift & 0x1F, 5)
    for c in coeffs:
        bw.write(c & ((1 << prec) - 1), prec)
    bw.write(0, 2)  # rice 4-bit
    bw.write(0, 4)  # partition order 0
    bw.write(4, 4)  # param
    for v in res.tolist():
        u = (abs(v) << 1) - (1 if v < 0 else 0)
        bw.write_unary(u >> 4)
        bw.write(u & 15, 4)
    frame = _finish_frame(_frame_header(64, 0), bw)
    out = _decode_one(frame, 64, 1)
    assert (out[:, 0] == expected.astype(np.int16)).all()


@pytest.mark.parametrize("mode", ["left_side", "right_side", "mid_side"])
def test_stereo_decorrelation_decodes(mode):
    left = rng.integers(-20000, 20000, 48).astype(np.int64)
    right = rng.integers(-20000, 20000, 48).astype(np.int64)
    side = left - right
    bw = _BitWriter()
    if mode == "left_side":
        header = _frame_header(48, 8)
        _verbatim_subframe(bw, left, 16)
        _verbatim_subframe(bw, side, 17)
    elif mode == "right_side":
        header = _frame_header(48, 9)
        _verbatim_subframe(bw, side, 17)
        _verbatim_subframe(bw, right, 16)
    else:
        header = _frame_header(48, 10)
        mid = (left + right) >> 1
        _verbatim_subframe(bw, mid, 16)
        _verbatim_subframe(bw, side, 17)
    out = _decode_one(_finish_frame(header, bw), 48, 2)
    assert (out[:, 0] == left.astype(np.int16)).all()
    assert (out[:, 1] == right.astype(np.int16)).all()


def test_multipartition_rice2_and_escape():
    # fixed order-0 subframe: residual IS the signal; 4 partitions of 16,
    # partitions use rice2 params, the third escapes to raw 7-bit
    x = rng.integers(-60, 60, 64).astype(np.int64)
    bw = _BitWriter()
    bw.write(0, 1)
    bw.write(8, 6)  # fixed order 0
    bw.write(0, 1)
    bw.write(1, 2)  # rice2: 5-bit params
    bw.write(2, 4)  # partition order 2 -> 4 partitions
    for p in range(4):
        seg = x[p * 16:(p + 1) * 16]
        if p == 2:
            bw.write(31, 5)  # escape
            bw.write(7, 5)   # 7 raw bits per sample
            for v in seg.tolist():
                bw.write(v & 0x7F, 7)
        else:
            k = 3
            bw.write(k, 5)
            for v in seg.tolist():
                u = (abs(v) << 1) - (1 if v < 0 else 0)
                bw.write_unary(u >> k)
                bw.write(u & ((1 << k) - 1), k)
    out = _decode_one(_finish_frame(_frame_header(64, 0), bw), 64, 1)
    assert (out[:, 0] == x.astype(np.int16)).all()


def test_wasted_bits_decode():
    x = (rng.integers(-500, 500, 32) * 4).astype(np.int64)  # multiples of 4
    bw = _BitWriter()
    bw.write(0, 1)
    bw.write(1, 6)        # verbatim
    bw.write(1, 1)        # wasted-bits flag
    bw.write_unary(1)     # unary 1 -> wasted = 2
    for v in (x >> 2).tolist():
        bw.write(v & 0x3FFF, 14)  # bps - wasted = 14
    out = _decode_one(_finish_frame(_frame_header(32, 0), bw), 32, 1)
    assert (out[:, 0] == x.astype(np.int16)).all()


# ---------------------------------------------------------------------------
# integrity + errors


def test_md5_and_crc_rejection():
    x = rng.integers(-1000, 1000, 300, dtype=np.int16)
    data = bytearray(encode_flac(x, 8000))
    decode_flac(bytes(data))  # sanity
    # corrupt one audio byte -> frame CRC-16 must catch it
    data[-40] ^= 0x01
    with pytest.raises(ValueError):
        decode_flac(bytes(data))
    # corrupt the STREAMINFO MD5 -> md5 verification must catch it
    good = bytearray(encode_flac(x, 8000))
    good[8 + 18] ^= 0xFF  # first MD5 byte inside STREAMINFO
    with pytest.raises(ValueError):
        decode_flac(bytes(good))
    assert decode_flac(bytes(good), verify_md5=False)[0].shape == (300, 1)


def test_errors():
    with pytest.raises(ValueError):
        decode_flac(b"not flac")
    with pytest.raises(ValueError):
        encode_flac(np.zeros((0, 1), np.int16), 8000)
    with pytest.raises(ValueError):
        encode_flac(np.zeros(10, np.float32), 8000)
    # 32-bit STREAMINFO -> honest NotImplementedError (8/16/24 supported)
    si = (struct.pack(">HH", 4096, 4096) + b"\x00" * 6
          + ((8000 << 44) | (0 << 41) | (31 << 36) | 10).to_bytes(8, "big")
          + b"\x00" * 16)
    data = b"fLaC" + bytes([0x80]) + len(si).to_bytes(3, "big") + si
    with pytest.raises(NotImplementedError):
        decode_flac(data)


def test_streaminfo_md5_matches_reference_hash():
    x = rng.integers(-32768, 32768, (777, 2), dtype=np.int16)
    data = encode_flac(x, 44100)
    si_md5 = data[8 + 18:8 + 34]
    assert si_md5 == hashlib.md5(x.astype("<i2").tobytes()).digest()


def test_8_and_24_bit_roundtrip():
    """bps-parametric streams: 8-bit widens to int16<<8, 24-bit keeps the
    top 16 bits; MD5 verifies over the raw stream-width samples."""
    rng = np.random.default_rng(3)
    s8 = rng.integers(-128, 128, (5000, 2)).astype(np.int16)
    dec, rate = decode_flac(encode_flac(s8, 16000, bps=8))
    assert rate == 16000
    assert np.array_equal(dec, (s8 << 8).astype(np.int16))
    s24 = rng.integers(-(1 << 23), 1 << 23, (5000, 1)).astype(np.int32)
    dec, _ = decode_flac(encode_flac(s24, 44100, bps=24))
    assert np.array_equal(dec[:, 0], (s24[:, 0] >> 8).astype(np.int16))
    with pytest.raises(ValueError, match="8-bit range"):
        encode_flac(np.array([200], np.int16), 8000, bps=8)

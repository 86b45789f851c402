"""MJPEG-AVI container codec tests: roundtrip, structure, FrameSampler wiring."""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
import pytest

from oar_ocr_ray.avi_codec import decode_avi_frames, encode_avi_mjpeg
from oar_ocr_ray.jpeg_codec import decode_jpeg, encode_jpeg

rng = np.random.default_rng(7)


def _jpeg_frames(n=5, h=32, w=48):
    imgs = [
        (np.full((h, w), 40 + 30 * k, np.uint8) + rng.integers(0, 8, (h, w)).astype(np.uint8))
        for k in range(n)
    ]
    return imgs, [encode_jpeg(im, 90) for im in imgs]


def test_avi_roundtrip_bytes_exact():
    imgs, frames = _jpeg_frames()
    avi = encode_avi_mjpeg(frames, 48, 32, fps=12)
    out = decode_avi_frames(avi)
    assert out == frames  # container is lossless over the JPEG payloads
    # and each payload decodes as a baseline JPEG near the original
    for im, f in zip(imgs, out):
        dec = decode_jpeg(f)
        assert dec.shape == im.shape
        assert np.abs(dec.astype(int) - im.astype(int)).mean() < 4


def test_avi_structure_and_idx1():
    _, frames = _jpeg_frames(3)
    avi = encode_avi_mjpeg(frames, 48, 32)
    assert avi[:4] == b"RIFF" and avi[8:12] == b"AVI "
    (riff_size,) = struct.unpack_from("<I", avi, 4)
    assert 8 + riff_size == len(avi)
    # locate movi + idx1 and verify every index entry points at its frame
    pos, movi_body, idx_body, idx_size = 12, None, None, 0
    while pos + 8 <= len(avi):
        fourcc = avi[pos:pos + 4]
        (size,) = struct.unpack_from("<I", avi, pos + 4)
        if fourcc == b"LIST" and avi[pos + 8:pos + 12] == b"movi":
            movi_body = pos + 8  # points at the 'movi' type fourcc
        elif fourcc == b"idx1":
            idx_body, idx_size = pos + 8, size
        pos += 8 + size + (size & 1)
    assert movi_body is not None and idx_body is not None
    assert idx_size == 16 * len(frames)
    for k in range(len(frames)):
        ckid, flags, off, ln = struct.unpack_from("<4sIII", avi, idx_body + 16 * k)
        assert ckid == b"00dc" and flags == 0x10
        chunk_at = movi_body + off
        assert avi[chunk_at:chunk_at + 4] == b"00dc"
        (csize,) = struct.unpack_from("<I", avi, chunk_at + 4)
        assert csize == ln == len(frames[k])
        assert avi[chunk_at + 8:chunk_at + 8 + ln] == frames[k]


def test_avi_rec_grouped_frames_decoded():
    # hand-build a movi list whose frames sit inside a 'rec ' LIST
    _, frames = _jpeg_frames(2)
    avi = encode_avi_mjpeg(frames, 48, 32)

    def chunk(fcc, payload):
        pad = b"\x00" if len(payload) & 1 else b""
        return fcc + struct.pack("<I", len(payload)) + payload + pad

    rec = chunk(b"LIST", b"rec " + b"".join(chunk(b"00dc", f) for f in frames))
    movi = chunk(b"LIST", b"movi" + rec)
    # reuse the real header from the encoder, swap the movi list
    pos = 12
    hdrl_end = None
    while pos + 8 <= len(avi):
        fourcc = avi[pos:pos + 4]
        (size,) = struct.unpack_from("<I", avi, pos + 4)
        nxt = pos + 8 + size + (size & 1)
        if fourcc == b"LIST" and avi[pos + 8:pos + 12] == b"hdrl":
            hdrl_end = nxt
        pos = nxt
    body = avi[12:hdrl_end] + movi
    rebuilt = chunk(b"RIFF", b"AVI " + body)
    assert decode_avi_frames(rebuilt) == frames


def test_avi_non_mjpg_rejected():
    _, frames = _jpeg_frames(1)
    avi = bytearray(encode_avi_mjpeg(frames, 48, 32))
    i = avi.find(b"MJPG", 12)  # strh handler; the next hit is strf compression
    j = avi.find(b"MJPG", i + 4)
    avi[j:j + 4] = b"H264"
    with pytest.raises(NotImplementedError):
        decode_avi_frames(bytes(avi))


def test_avi_errors():
    with pytest.raises(ValueError):
        decode_avi_frames(b"RIFFxxxxWAVE")
    with pytest.raises(ValueError):
        decode_avi_frames(b"nope")
    _, frames = _jpeg_frames(1)
    avi = encode_avi_mjpeg(frames, 48, 32)
    with pytest.raises(ValueError):
        decode_avi_frames(avi[:40])  # truncated inside hdrl
    with pytest.raises(ValueError):
        encode_avi_mjpeg([], 48, 32)

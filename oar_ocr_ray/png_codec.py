"""Minimal pure-python PNG codec (zlib + struct, no external imaging libs).

Stands in for the reference's image decode path
(/root/reference/src/utils/image.rs:65 load_image_from_memory — bytes ->
RGB raster) since PIL/cv2 are not available in this environment. Encodes
8-bit RGB (color type 2) with filter type 0 scanlines; decodes the same
subset plus filter 1 (Sub) and 2 (Up) for safety. Fully deterministic.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"

# what decode_png raises on a corrupt or truncated blob: a bad header or
# chunk (ValueError, struct.error), a broken IDAT stream (zlib.error) or
# scanlines shorter than IHDR promises (IndexError)
DECODE_ERRORS = (ValueError, zlib.error, IndexError, struct.error)


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray, level: int = 1) -> bytes:
    """(H, W, 3) uint8 RGB -> PNG bytes (filter 0, zlib `level`)."""
    a = np.ascontiguousarray(img, dtype=np.uint8)
    if a.ndim == 2:
        a = np.repeat(a[:, :, None], 3, axis=2)
    h, w, c = a.shape
    assert c == 3, "RGB only"
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    # prepend filter byte 0 per scanline, vectorized
    raw = np.zeros((h, w * 3 + 1), dtype=np.uint8)
    raw[:, 1:] = a.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), level)
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes -> (H, W, 3) uint8 RGB. Supports 8-bit RGB, filters 0/1/2."""
    if data[:8] != _SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or color != 2 or interlace != 0:
                raise ValueError("unsupported PNG (need 8-bit RGB non-interlaced)")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("missing IHDR")
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    stride = w * 3 + 1
    raw = raw.reshape(h, stride)
    filters = raw[:, 0]
    out = raw[:, 1:].copy()
    if (filters == 0).all():
        return out.reshape(h, w, 3)
    # scanline-at-a-time defilter for Sub/Up
    for y in range(h):
        f = filters[y]
        if f == 0:
            continue
        if f == 2:  # Up
            if y > 0:
                out[y] = (out[y].astype(np.int16) + out[y - 1]).astype(np.uint8)
        elif f == 1:  # Sub (bpp=3)
            row = out[y].astype(np.int16)
            for x in range(3, len(row)):
                row[x] = (row[x] + row[x - 3]) & 0xFF
            out[y] = row.astype(np.uint8)
        else:
            raise ValueError(f"unsupported PNG filter {f}")
    return out.reshape(h, w, 3)

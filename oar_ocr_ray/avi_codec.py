"""Pure-python MJPEG-in-AVI container codec (RIFF, no external libs).

A real video-container codec: AVI is a plain
RIFF structure (public Microsoft 'AVI RIFF File Reference') and Motion
JPEG stores each frame as an independent baseline JPEG — which our own
jpeg_codec encodes and decodes. Together they make video frame-sampling
a genuinely decodable modality in this container; compressed codecs
(H.264 etc., any non-'MJPG' biCompression) still raise
NotImplementedError.

Reference analogue: the payload boundary of src/utils/image.rs:65
(bytes -> raster) extended to video frames. No pipeline reads video.

Layout written: RIFF('AVI ') { LIST('hdrl'){ avih, LIST('strl'){ strh,
strf } }, LIST('movi'){ '00dc'... }, 'idx1' }. The decoder also accepts
frames grouped in 'rec ' LISTs and '00db' chunks.
"""

from __future__ import annotations

import struct

_AVIF_HASINDEX = 0x10
_AVIIF_KEYFRAME = 0x10


def _chunk(fourcc: bytes, payload: bytes) -> bytes:
    pad = b"\x00" if len(payload) & 1 else b""
    return fourcc + struct.pack("<I", len(payload)) + payload + pad


def _list(list_type: bytes, payload: bytes) -> bytes:
    return _chunk(b"LIST", list_type + payload)


def encode_avi_mjpeg(
    frames: list[bytes], width: int, height: int, fps: int = 10
) -> bytes:
    """JPEG frame payloads -> MJPEG AVI bytes (with an idx1 index)."""
    if not frames:
        raise ValueError("AVI needs at least one frame")
    if fps <= 0:
        raise ValueError("fps must be positive")
    max_bytes = max(len(f) for f in frames)
    avih = struct.pack(
        "<IIIIIIIIII4I",
        1_000_000 // fps,       # dwMicroSecPerFrame
        max_bytes * fps,        # dwMaxBytesPerSec
        0,                      # dwPaddingGranularity
        _AVIF_HASINDEX,         # dwFlags
        len(frames),            # dwTotalFrames
        0,                      # dwInitialFrames
        1,                      # dwStreams
        max_bytes,              # dwSuggestedBufferSize
        width,
        height,
        0, 0, 0, 0,             # dwReserved
    )
    strh = (
        b"vids"
        + b"MJPG"
        + struct.pack(
            "<IHHIIIIIIII4h",
            0,                  # dwFlags
            0, 0,               # wPriority, wLanguage
            0,                  # dwInitialFrames
            1,                  # dwScale
            fps,                # dwRate (rate/scale = fps)
            0,                  # dwStart
            len(frames),        # dwLength (frames)
            max_bytes,          # dwSuggestedBufferSize
            0xFFFFFFFF,         # dwQuality (-1 default)
            0,                  # dwSampleSize (0: varying)
            0, 0, width, height,  # rcFrame
        )
    )
    strf = struct.pack(
        "<IiiHH4sIiiII",
        40,                     # biSize
        width,
        height,
        1,                      # biPlanes
        24,                     # biBitCount
        b"MJPG",                # biCompression
        width * height * 3,     # biSizeImage
        0, 0, 0, 0,
    )
    hdrl = _list(
        b"hdrl",
        _chunk(b"avih", avih)
        + _list(b"strl", _chunk(b"strh", strh) + _chunk(b"strf", strf)),
    )
    movi_payload = bytearray()
    idx_entries = []
    for f in frames:
        # idx1 offsets are relative to the start of the 'movi' list type
        idx_entries.append((len(movi_payload) + 4, len(f)))
        movi_payload += _chunk(b"00dc", f)
    movi = _list(b"movi", bytes(movi_payload))
    idx1 = _chunk(
        b"idx1",
        b"".join(
            b"00dc" + struct.pack("<III", _AVIIF_KEYFRAME, off, ln)
            for off, ln in idx_entries
        ),
    )
    return _chunk(b"RIFF", b"AVI " + hdrl + movi + idx1)


def _iter_chunks(data: bytes, pos: int, end: int):
    while pos + 8 <= end:
        fourcc = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if body + size > end:
            raise ValueError("AVI: truncated chunk")
        yield fourcc, body, size
        pos = body + size + (size & 1)


def _find_compression(data: bytes, pos: int, end: int) -> bytes | None:
    """Depth-first scan for the first 'strf' BITMAPINFOHEADER compression."""
    for fourcc, body, size in _iter_chunks(data, pos, end):
        if fourcc == b"LIST":
            found = _find_compression(data, body + 4, body + size)
            if found is not None:
                return found
        elif fourcc == b"strf" and size >= 20:
            return data[body + 16:body + 20]
    return None


def _collect_frames(data: bytes, pos: int, end: int, out: list[bytes]) -> None:
    for fourcc, body, size in _iter_chunks(data, pos, end):
        if fourcc == b"LIST" and data[body:body + 4] == b"rec ":
            _collect_frames(data, body + 4, body + size, out)
        elif fourcc[2:4] in (b"dc", b"db"):
            out.append(data[body:body + size])


def decode_avi_frames(data: bytes) -> list[bytes]:
    """MJPEG AVI bytes -> list of per-frame JPEG payloads."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"AVI ":
        raise ValueError("not an AVI RIFF container")
    (riff_size,) = struct.unpack_from("<I", data, 4)
    end = min(8 + riff_size, len(data))
    comp = _find_compression(data, 12, end)
    if comp is None:
        raise ValueError("AVI: no stream format header found")
    if comp not in (b"MJPG", b"mjpg"):
        raise NotImplementedError(
            f"AVI compression {comp!r} needs video codecs not present in "
            "this container; only Motion JPEG ('MJPG') is implemented"
        )
    frames: list[bytes] = []
    for fourcc, body, size in _iter_chunks(data, 12, end):
        if fourcc == b"LIST" and data[body:body + 4] == b"movi":
            _collect_frames(data, body + 4, body + size, frames)
    if not frames:
        raise ValueError("AVI: no movi frames found")
    return frames

"""Pure-python FLAC codec (RFC 9639 / the public FLAC format spec).

FLAC is lossless, so the decode is exact and verifiable against the
STREAMINFO MD5 of the raw samples.

Decoder: full subset needed for real 8/16/24-bit files — constant / verbatim /
fixed(0-4) / LPC subframes, rice + rice2 residual methods with arbitrary
partition orders and the raw-bits escape, wasted bits, all four channel
assignments (independent, left/side, right/side, mid/side), UTF-8-coded
frame numbers, CRC-8 header + CRC-16 frame validation, and the
STREAMINFO MD5 check.

Encoder: spec-valid subset — fixed 4096-sample frames, per-channel best
of constant / verbatim / fixed-order(0-2) prediction with single-
partition rice residuals, independent channels, correct CRCs and MD5.
Decoder-only paths (LPC, mid/side, multi-partition rice, wasted bits)
are exercised by hand-assembled streams in tests/test_flac_codec.py.

No pipeline reads audio; the codec is exercised only by its tests.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_BLOCKSIZE = 4096

# ---------------------------------------------------------------------------
# CRCs (FLAC: CRC-8 poly 0x07, CRC-16 poly 0x8005, both init 0, unreflected)


def _make_crc_table(poly: int, width: int):
    table = []
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    for b in range(256):
        r = b << (width - 8)
        for _ in range(8):
            r = ((r << 1) ^ poly) if r & top else (r << 1)
        table.append(r & mask)
    return table


_CRC8_TABLE = _make_crc_table(0x07, 8)
_CRC16_TABLE = _make_crc_table(0x8005, 16)


def crc8(data: bytes) -> int:
    r = 0
    for b in data:
        r = _CRC8_TABLE[r ^ b]
    return r


def crc16(data: bytes) -> int:
    r = 0
    for b in data:
        r = ((r << 8) ^ _CRC16_TABLE[((r >> 8) ^ b) & 0xFF]) & 0xFFFF
    return r


# ---------------------------------------------------------------------------
# MSB-first bit I/O


class _BitReader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos_bits: int = 0):
        self.data = data
        self.pos = pos_bits

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        byte_i, bit_o = divmod(self.pos, 8)
        end = byte_i + ((bit_o + n + 7) >> 3)
        if end > len(self.data):
            raise ValueError("FLAC: read past end of stream")
        chunk = int.from_bytes(self.data[byte_i:end], "big")
        total = (end - byte_i) * 8
        self.pos += n
        return (chunk >> (total - bit_o - n)) & ((1 << n) - 1)

    def read_signed(self, n: int) -> int:
        v = self.read(n)
        return v - (1 << n) if v >= (1 << (n - 1)) else v

    def read_unary(self) -> int:
        # count of 0 bits before the terminating 1
        q = 0
        while self.read(1) == 0:
            q += 1
            if q > 1 << 24:
                raise ValueError("FLAC: runaway unary code")
        return q

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7


class _BitWriter:
    __slots__ = ("buf", "acc", "n")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, v: int, n: int) -> None:
        self.acc = (self.acc << n) | (v & ((1 << n) - 1))
        self.n += n
        while self.n >= 8:
            self.n -= 8
            self.buf.append((self.acc >> self.n) & 0xFF)
        self.acc &= (1 << self.n) - 1

    def write_signed(self, v: int, n: int) -> None:
        self.write(v & ((1 << n) - 1), n)

    def write_unary(self, q: int) -> None:
        while q >= 32:
            self.write(0, 32)
            q -= 32
        self.write(1, q + 1)  # q zeros then a one

    def align(self) -> None:
        if self.n:
            self.write(0, 8 - self.n)

    def bytes(self) -> bytes:
        assert self.n == 0, "writer not byte-aligned"
        return bytes(self.buf)


# ---------------------------------------------------------------------------
# UTF-8-style coded numbers (frame header)


def _read_utf8_num(br: _BitReader) -> int:
    b0 = br.read(8)
    if b0 < 0x80:
        return b0
    n = 0
    while (b0 << n) & 0x80:
        n += 1
    if n < 2 or n > 7:
        raise ValueError("FLAC: bad UTF-8 coded number")
    v = b0 & (0x7F >> n)
    for _ in range(n - 1):
        c = br.read(8)
        if c & 0xC0 != 0x80:
            raise ValueError("FLAC: bad UTF-8 continuation")
        v = (v << 6) | (c & 0x3F)
    return v


def _write_utf8_num(bw: _BitWriter, v: int) -> None:
    if v < 0x80:
        bw.write(v, 8)
        return
    # count how many 6-bit continuation payloads are needed
    for n in range(2, 8):
        if v < (1 << (5 * n + 1)):
            break
    bw.write((0xFF00 >> n) & 0xFF | (v >> (6 * (n - 1))), 8)
    for k in range(n - 2, -1, -1):
        bw.write(0x80 | ((v >> (6 * k)) & 0x3F), 8)


# ---------------------------------------------------------------------------
# residual coding


def _zigzag_decode(u: np.ndarray) -> np.ndarray:
    return (u >> 1) ^ -(u & 1)


def _read_residual(br: _BitReader, blocksize: int, pred_order: int) -> np.ndarray:
    method = br.read(2)
    if method > 1:
        raise ValueError("FLAC: reserved residual method")
    pbits = 4 if method == 0 else 5
    escape = (1 << pbits) - 1
    porder = br.read(4)
    nparts = 1 << porder
    if blocksize % nparts:
        raise ValueError("FLAC: partition order does not divide block size")
    psize = blocksize // nparts
    if psize <= pred_order and nparts == 1:
        raise ValueError("FLAC: first partition smaller than predictor order")
    out = np.empty(blocksize - pred_order, dtype=np.int64)
    w = 0
    for p in range(nparts):
        count = psize - (pred_order if p == 0 else 0)
        param = br.read(pbits)
        if param == escape:
            nbits = br.read(5)
            for i in range(count):
                out[w + i] = br.read_signed(nbits) if nbits else 0
        else:
            for i in range(count):
                q = br.read_unary()
                u = (q << param) | br.read(param)
                out[w + i] = (u >> 1) ^ -(u & 1)
        w += count
    return out


def _write_residual_rice0(bw: _BitWriter, res: np.ndarray, param: int) -> None:
    """Single-partition (order 0) rice; param must be < 15."""
    bw.write(0, 2)   # method: rice, 4-bit params
    bw.write(0, 4)   # partition order 0
    bw.write(param, 4)
    u = (np.abs(res.astype(np.int64)) << 1) - (res < 0).astype(np.int64)
    # zigzag: n>=0 -> 2n, n<0 -> -2n-1
    for uv in u.tolist():
        bw.write_unary(uv >> param)
        if param:
            bw.write(uv & ((1 << param) - 1), param)


def _rice_cost(res: np.ndarray, param: int) -> int:
    u = (np.abs(res.astype(np.int64)) << 1) - (res < 0).astype(np.int64)
    return int((u >> param).sum()) + len(u) * (1 + param)


def _best_rice_param(res: np.ndarray) -> tuple[int, int]:
    best_k, best_c = 0, None
    for k in range(15):
        c = _rice_cost(res, k)
        if best_c is None or c < best_c:
            best_k, best_c = k, c
    return best_k, best_c


# ---------------------------------------------------------------------------
# prediction

_FIXED_COEFFS = {
    0: [],
    1: [1],
    2: [2, -1],
    3: [3, -3, 1],
    4: [4, -6, 4, -1],
}


def _fixed_residual(x: np.ndarray, order: int) -> np.ndarray:
    r = x.astype(np.int64)
    for _ in range(order):
        r = np.diff(r)
    return r


def _restore_fixed(warmup: np.ndarray, res: np.ndarray, order: int) -> np.ndarray:
    n = len(warmup) + len(res)
    out = np.empty(n, dtype=np.int64)
    out[: len(warmup)] = warmup
    c = _FIXED_COEFFS[order]
    for i in range(len(warmup), n):
        acc = res[i - order]
        for j, cj in enumerate(c):
            acc += cj * out[i - 1 - j]
        out[i] = acc
    return out


def _restore_lpc(warmup, res, coeffs, shift) -> np.ndarray:
    n = len(warmup) + len(res)
    out = np.empty(n, dtype=np.int64)
    out[: len(warmup)] = warmup
    order = len(coeffs)
    for i in range(order, n):
        acc = 0
        for j, cj in enumerate(coeffs):
            acc += cj * out[i - 1 - j]
        out[i] = res[i - order] + (acc >> shift)
    return out


# ---------------------------------------------------------------------------
# subframes


def _read_subframe(br: _BitReader, blocksize: int, bps: int) -> np.ndarray:
    if br.read(1):
        raise ValueError("FLAC: subframe padding bit set")
    ftype = br.read(6)
    wasted = 0
    if br.read(1):
        wasted = br.read_unary() + 1
        bps -= wasted
    if ftype == 0:  # constant
        v = br.read_signed(bps)
        out = np.full(blocksize, v, dtype=np.int64)
    elif ftype == 1:  # verbatim
        out = np.array([br.read_signed(bps) for _ in range(blocksize)], np.int64)
    elif 8 <= ftype <= 12:  # fixed
        order = ftype - 8
        warm = np.array([br.read_signed(bps) for _ in range(order)], np.int64)
        res = _read_residual(br, blocksize, order)
        out = _restore_fixed(warm, res, order)
    elif ftype >= 32:  # LPC
        order = (ftype & 0x1F) + 1
        warm = np.array([br.read_signed(bps) for _ in range(order)], np.int64)
        prec = br.read(4) + 1
        if prec == 16:
            raise ValueError("FLAC: invalid LPC precision")
        shift = br.read_signed(5)
        if shift < 0:
            raise ValueError("FLAC: negative LPC shift")
        coeffs = [br.read_signed(prec) for _ in range(order)]
        res = _read_residual(br, blocksize, order)
        out = _restore_lpc(warm, res, coeffs, shift)
    else:
        raise ValueError(f"FLAC: reserved subframe type {ftype}")
    return out << wasted if wasted else out


def _write_subframe(bw: _BitWriter, x: np.ndarray, bps: int) -> None:
    """Best of constant / fixed(0-2)-rice / verbatim, no wasted bits."""
    if (x == x[0]).all():
        bw.write(0, 1)
        bw.write(0, 6)
        bw.write(0, 1)
        bw.write_signed(int(x[0]), bps)
        return
    best = None  # (cost, order, res, param)
    for order in (0, 1, 2):
        if len(x) <= order:
            continue
        res = _fixed_residual(x, order)
        if len(res) == 0:
            continue
        k, cost = _best_rice_param(res)
        cost += order * bps
        if best is None or cost < best[0]:
            best = (cost, order, res, k)
    verbatim_cost = len(x) * bps
    if best is None or best[0] >= verbatim_cost:
        bw.write(0, 1)
        bw.write(1, 6)  # verbatim
        bw.write(0, 1)
        for v in x.tolist():
            bw.write_signed(v, bps)
        return
    _, order, res, k = best
    bw.write(0, 1)
    bw.write(8 + order, 6)
    bw.write(0, 1)
    for v in x[:order].tolist():
        bw.write_signed(v, bps)
    _write_residual_rice0(bw, res, k)


# ---------------------------------------------------------------------------
# frames

_BS_CODE_16BIT = 0b0111
_RATE_FROM_STREAMINFO = 0b0000
_SS_16 = 0b100


def _read_frame(br: _BitReader, streaminfo: dict):
    start_byte = br.pos // 8
    if br.read(14) != 0x3FFE:
        raise ValueError("FLAC: bad frame sync")
    br.read(1)  # reserved
    br.read(1)  # blocking strategy
    bs_code = br.read(4)
    rate_code = br.read(4)
    chan_code = br.read(4)
    ss_code = br.read(3)
    br.read(1)  # reserved
    _read_utf8_num(br)
    if bs_code == 0:
        raise ValueError("FLAC: reserved block size code")
    elif bs_code == 1:
        blocksize = 192
    elif bs_code <= 5:
        blocksize = 576 << (bs_code - 2)
    elif bs_code == 6:
        blocksize = br.read(8) + 1
    elif bs_code == 7:
        blocksize = br.read(16) + 1
    else:
        blocksize = 256 << (bs_code - 8)
    if rate_code == 12:
        br.read(8)
    elif rate_code in (13, 14):
        br.read(16)
    ss_map = {1: 8, 2: 12, 4: 16, 5: 20, 6: 24, 7: 32}
    bps = streaminfo["bps"] if ss_code == 0 else ss_map.get(ss_code)
    if bps is None:
        raise ValueError("FLAC: reserved sample size code")
    br.align()  # all header fields are whole bytes; guard anyway
    hdr_end = br.pos // 8
    if crc8(br.data[start_byte:hdr_end]) != br.read(8):
        raise ValueError("FLAC: frame header CRC-8 mismatch")
    if chan_code <= 7:
        nch = chan_code + 1
        chans = [_read_subframe(br, blocksize, bps) for _ in range(nch)]
    elif chan_code == 8:  # left/side
        left = _read_subframe(br, blocksize, bps)
        side = _read_subframe(br, blocksize, bps + 1)
        chans = [left, left - side]
    elif chan_code == 9:  # right/side
        side = _read_subframe(br, blocksize, bps + 1)
        right = _read_subframe(br, blocksize, bps)
        chans = [right + side, right]
    elif chan_code == 10:  # mid/side
        mid = _read_subframe(br, blocksize, bps)
        side = _read_subframe(br, blocksize, bps + 1)
        m2 = (mid << 1) | (side & 1)
        chans = [(m2 + side) >> 1, (m2 - side) >> 1]
    else:
        raise ValueError("FLAC: reserved channel assignment")
    br.align()
    frame_bytes = br.data[start_byte:br.pos // 8]
    footer = (br.read(8) << 8) | br.read(8)
    if crc16(frame_bytes) != footer:
        raise ValueError("FLAC: frame CRC-16 mismatch")
    return np.stack(chans, axis=1)


def _write_frame(frame_idx: int, block: np.ndarray, bps: int) -> bytes:
    blocksize, nch = block.shape
    bw = _BitWriter()
    bw.write(0x3FFE, 14)
    bw.write(0, 1)
    bw.write(0, 1)  # fixed blocksize strategy
    bw.write(_BS_CODE_16BIT, 4)
    bw.write(_RATE_FROM_STREAMINFO, 4)
    bw.write(nch - 1, 4)  # independent channels
    bw.write({8: 1, 16: _SS_16, 24: 6}[bps], 3)
    bw.write(0, 1)
    _write_utf8_num(bw, frame_idx)
    bw.write(blocksize - 1, 16)
    header = bw.bytes()
    bw = _BitWriter()
    for c in range(nch):
        _write_subframe(bw, block[:, c].astype(np.int64), bps)
    bw.align()
    body = bw.bytes()
    framed = header + bytes([crc8(header)]) + body
    return framed + struct.pack(">H", crc16(framed))


# ---------------------------------------------------------------------------
# top level


def _md5_bytes(x: np.ndarray, bps: int) -> bytes:
    """FLAC's MD5 runs over the raw little-endian samples at stream bps."""
    if bps == 8:
        return x.astype(np.int8).tobytes()
    if bps == 16:
        return x.astype("<i2").tobytes()
    return x.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


def encode_flac(samples: np.ndarray, rate: int, bps: int = 16) -> bytes:
    """(N, C) int samples -> FLAC bytes (fixed 4096 frames).

    bps selects the stream sample size (8 / 16 / 24); input values must
    fit the chosen width (int16 input for 8/16, int32 for 24)."""
    x = np.asarray(samples)
    if x.ndim == 1:
        x = x[:, None]
    if bps not in (8, 16, 24):
        raise NotImplementedError(f"{bps}-bit FLAC unsupported")
    if bps == 16 and x.dtype != np.int16:
        raise ValueError("16-bit streams need int16 samples")
    lim = 1 << (bps - 1)
    if (x.astype(np.int64) >= lim).any() or (x.astype(np.int64) < -lim).any():
        raise ValueError(f"samples out of {bps}-bit range")
    n, nch = x.shape
    if not 1 <= nch <= 8:
        raise ValueError("1..8 channels")
    if n == 0:
        raise ValueError("FLAC needs at least one sample")
    md5 = hashlib.md5(_md5_bytes(x, bps)).digest()
    streaminfo = (
        struct.pack(">HH", _BLOCKSIZE, _BLOCKSIZE)
        + b"\x00\x00\x00" * 2  # min/max frame size unknown
        + ((rate << 44) | ((nch - 1) << 41) | ((bps - 1) << 36) | n).to_bytes(8, "big")
        + md5
    )
    out = bytearray(b"fLaC")
    out += bytes([0x80]) + len(streaminfo).to_bytes(3, "big")  # last block
    out += streaminfo
    for f, start in enumerate(range(0, n, _BLOCKSIZE)):
        out += _write_frame(f, x[start:start + _BLOCKSIZE], bps)
    return bytes(out)


def decode_flac(data: bytes, verify_md5: bool = True):
    """FLAC bytes -> ((N, C) int16 samples, rate)."""
    if data[:4] != b"fLaC":
        raise ValueError("not a FLAC stream")
    pos = 4
    streaminfo = None
    while True:
        if pos + 4 > len(data):
            raise ValueError("FLAC: truncated metadata")
        hdr = data[pos]
        size = int.from_bytes(data[pos + 1:pos + 4], "big")
        btype = hdr & 0x7F
        body = data[pos + 4:pos + 4 + size]
        if btype == 0:
            if size < 34:
                raise ValueError("FLAC: short STREAMINFO")
            packed = int.from_bytes(body[10:18], "big")
            streaminfo = {
                "rate": packed >> 44,
                "channels": ((packed >> 41) & 0x7) + 1,
                "bps": ((packed >> 36) & 0x1F) + 1,
                "total": packed & ((1 << 36) - 1),
                "md5": body[18:34],
            }
        pos += 4 + size
        if hdr & 0x80:
            break
    if streaminfo is None:
        raise ValueError("FLAC: missing STREAMINFO")
    if streaminfo["bps"] not in (8, 16, 24):
        raise NotImplementedError(
            f"{streaminfo['bps']}-bit FLAC unsupported (8/16/24 only)")
    br = _BitReader(data, pos * 8)
    frames = []
    got = 0
    total = streaminfo["total"]
    while (total and got < total) or (not total and br.pos < len(data) * 8 - 15):
        frame = _read_frame(br, streaminfo)
        frames.append(frame)
        got += len(frame)
    x = np.concatenate(frames, axis=0) if frames else np.zeros((0, 1), np.int64)
    if total:
        x = x[:total]
    bps = streaminfo["bps"]
    lim = 1 << (bps - 1)
    if (x >= lim).any() or (x < -lim).any():
        raise ValueError(f"FLAC: sample out of {bps}-bit range")
    if verify_md5 and streaminfo["md5"] != b"\x00" * 16:
        if hashlib.md5(_md5_bytes(x, bps)).digest() != streaminfo["md5"]:
            raise ValueError("FLAC: decoded-sample MD5 mismatch")
    # widen/narrow to the pipeline's int16 surface
    if bps == 8:
        x16 = (x << 8).astype(np.int16)
    elif bps == 24:
        x16 = (x >> 8).astype(np.int16)
    else:
        x16 = x.astype(np.int16)
    return x16, streaminfo["rate"]

"""Minimal pure-numpy baseline JPEG codec (grayscale + color JFIF).

Companion to `png_codec.py` for environments without an imaging library.
This module implements the ITU-T.81 baseline sequential process for the
single-component (grayscale) case from the public spec: Annex K
standard Huffman tables, libjpeg's quality→quant scaling, DCT-II via an
orthonormal matrix product, byte stuffing, DC prediction, run-length AC
coding.

Scope (documented, verified in tests/test_jpeg_codec.py):
  - encode: 8-bit grayscale, and RGB color via JFIF full-range BT.601
    YCbCr at 4:4:4 or 4:2:0 (box-mean chroma downsampling); optional
    DRI/RSTn restart intervals; optional progressive (SOF2) output as a
    spectral-selection two-scan stream (DC scan + full-band AC scans);
  - decode: baseline sequential AND progressive (SOF2: spectral
    selection + successive approximation, incl. EOBn run coding and
    AC/DC refinement scans), 8- and 16-bit quant tables, interleaved and
    single-component scans with arbitrary sampling factors (4:4:4 /
    4:2:0 / 4:2:2), 1- or 3-component, DRI/RSTn restart markers;
    nearest-neighbor chroma upsampling. 12-bit / arithmetic / lossless
    / hierarchical modes raise NotImplementedError.

JPEG is lossy: the pipeline's pixel-text fixture contract stays on PNG,
and no pipeline reads JPEG; the codec is exercised only by its tests.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Constants (ITU-T.81 Annex K — public spec tables)
# ---------------------------------------------------------------------------

ZIGZAG = np.array([
    0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63], dtype=np.int64)

# Annex K.1 luminance quantization table (natural order via zigzag below)
STD_LUM_QUANT = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)

# Annex K.2 chrominance quantization table
STD_CHROMA_QUANT = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# Annex K.3: luminance DC — BITS (codes per length 1..16) and HUFFVAL
DC_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_VALS = list(range(12))
# Annex K.4: chrominance DC
DCC_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DCC_VALS = list(range(12))
# Annex K.6: chrominance AC
ACC_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
ACC_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]
# Annex K.5: luminance AC
AC_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8x8 DCT-II matrix: fdct = D @ B @ D.T, idct = D.T @ C @ D."""
    k = np.arange(8)
    D = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16) / 2.0
    D[0, :] = 1.0 / (2.0 * np.sqrt(2.0))
    return D


_D = _dct_matrix()


def _quality_scale(quality: int) -> int:
    """libjpeg quality→scale (public formula), clamped to [1, 100] once so
    every table (luma AND chroma) shares the same clamped scale."""
    quality = min(max(int(quality), 1), 100)
    return 5000 // quality if quality < 50 else 200 - quality * 2


def _quant_table(quality: int, base: np.ndarray | None = None) -> np.ndarray:
    """Scale a base quant table (default luma) by the clamped quality."""
    if base is None:
        base = STD_LUM_QUANT
    q = (base * _quality_scale(quality) + 50) // 100
    return np.clip(q, 1, 255)


def _build_huffman(bits, vals):
    """BITS/HUFFVAL -> {symbol: (code, length)} (canonical codes, F.1.2)."""
    table = {}
    code = 0
    idx = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            table[vals[idx]] = (code, length)
            idx += 1
            code += 1
        code <<= 1
    return table


def _build_decoder(bits, vals):
    """BITS/HUFFVAL -> {(length, code): symbol}."""
    enc = _build_huffman(bits, vals)
    return {(ln, code): sym for sym, (code, ln) in enc.items()}


DC_ENC, AC_ENC = _build_huffman(DC_BITS, DC_VALS), _build_huffman(AC_BITS, AC_VALS)
DCC_ENC, ACC_ENC = _build_huffman(DCC_BITS, DCC_VALS), _build_huffman(ACC_BITS, ACC_VALS)


def _category(v: int) -> int:
    return int(v).bit_length() if v > 0 else int(-v).bit_length() if v < 0 else 0


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)  # byte stuffing
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> None:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # 1-fill per spec


def _plane_zigzag(plane: np.ndarray, q88: np.ndarray,
                  pad_to: tuple[int, int] | None = None) -> np.ndarray:
    """(H, W) float plane -> (n_blocks, 64) quantized zigzag rows (8-pad —
    or pad to the given block-multiple dims — by edge replication, FDCT all
    blocks in one einsum)."""
    h, w = plane.shape
    ph, pw = pad_to if pad_to else (-(-h // 8) * 8, -(-w // 8) * 8)
    padded = np.empty((ph, pw), dtype=np.float64)
    padded[:h, :w] = plane
    padded[h:, :w] = plane[h - 1:h, :]
    padded[:, w:] = padded[:, w - 1:w]
    padded -= 128.0
    blocks = (padded.reshape(ph // 8, 8, pw // 8, 8)
              .transpose(0, 2, 1, 3).reshape(-1, 8, 8))
    coefs = np.einsum("ij,njk,lk->nil", _D, blocks, _D)
    return np.round(coefs / q88).astype(np.int64).reshape(-1, 64)[:, ZIGZAG]


def _write_dc(bw: "_BitWriter", dc: int, prev_dc: int, dc_enc: dict) -> int:
    diff = dc - prev_dc
    cat = _category(diff)
    code, ln = dc_enc[cat]
    bw.write(code, ln)
    if cat:
        bw.write(diff if diff > 0 else diff + (1 << cat) - 1, cat)
    return dc


def _write_ac_band(bw: "_BitWriter", row: np.ndarray, ac_enc: dict) -> None:
    """AC coefficients 1..63 with ZRL/EOB — the baseline AC layout, which
    is also a valid spectral-selection-only progressive scan (EOB = EOB0)."""
    run = 0
    last_nz = np.nonzero(row[1:])[0]
    last = int(last_nz[-1]) + 1 if len(last_nz) else 0
    for i in range(1, last + 1):
        v = int(row[i])
        if v == 0:
            run += 1
            continue
        while run > 15:
            c, l2 = ac_enc[0xF0]  # ZRL
            bw.write(c, l2)
            run -= 16
        cat = _category(v)
        c, l2 = ac_enc[(run << 4) | cat]
        bw.write(c, l2)
        bw.write(v if v > 0 else v + (1 << cat) - 1, cat)
        run = 0
    if last < 63:
        c, l2 = ac_enc[0x00]  # EOB
        bw.write(c, l2)


def _write_block(bw: "_BitWriter", row: np.ndarray, prev_dc: int,
                 dc_enc: dict, ac_enc: dict) -> int:
    dc = _write_dc(bw, int(row[0]), prev_dc, dc_enc)
    _write_ac_band(bw, row, ac_enc)
    return dc


class _Restart:
    """Emit RSTn every `ri` MCUs into the entropy stream (baseline)."""

    def __init__(self, bw: "_BitWriter", ri: int):
        self.bw = bw
        self.ri = ri
        self.cnt = 0
        self.m = 0

    def tick(self) -> bool:
        """Call before each MCU; True means reset the DC predictors."""
        if not self.ri:
            return False
        fire = self.cnt == self.ri
        if fire:
            self.bw.flush()
            self.bw.out += bytes([0xFF, 0xD0 + self.m])
            self.m = (self.m + 1) % 8
            self.cnt = 0
        self.cnt += 1
        return fire


def _marker(m, payload=b""):
    return bytes([0xFF, m]) + (
        (len(payload) + 2).to_bytes(2, "big") + payload if payload else b"")


def encode_jpeg(img: np.ndarray, quality: int = 90, subsample: bool = False,
                progressive: bool = False, restart_interval: int = 0) -> bytes:
    """(H, W) grayscale or (H, W, 3) RGB uint8 -> JFIF bytes.

    Color uses the JFIF full-range BT.601 YCbCr transform with Annex K
    chroma quant/Huffman tables; 4:4:4 by default, 4:2:0 (2x2 box-mean
    chroma downsampling) when subsample=True. progressive=True emits a
    spectral-selection SOF2 stream (one interleaved DC scan + one AC scan
    per component) that decodes to the IDENTICAL pixels as the baseline
    stream. restart_interval>0 inserts RSTn markers every that many MCUs
    (baseline only)."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("encode_jpeg expects uint8")
    if progressive and restart_interval:
        raise ValueError("restart intervals implemented for baseline only")
    color = img.ndim == 3 and img.shape[2] == 3
    if img.ndim == 3 and not color:
        img = img[:, :, 0]
    h, w = img.shape[:2]
    ql = _quant_table(quality)
    ql88 = ql.reshape(8, 8).astype(np.float64)

    # per-component plan: zigzag grid at MCU-padded dims + geometry + tables
    plan = []  # dicts: cid, zz, hs, vs, bw_pad, bw_real, bh_real, encoders
    if color:
        r = img[:, :, 0].astype(np.float64)
        g = img[:, :, 1].astype(np.float64)
        b = img[:, :, 2].astype(np.float64)
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = 128.0 - 0.168735892 * r - 0.331264108 * g + 0.5 * b
        cr = 128.0 + 0.5 * r - 0.418687589 * g - 0.081312411 * b
        qc = _quant_table(quality, STD_CHROMA_QUANT)
        qc88 = qc.reshape(8, 8).astype(np.float64)
        if subsample:
            eh, ew = -(-h // 2) * 2, -(-w // 2) * 2

            def down(p):
                q = np.empty((eh, ew), dtype=np.float64)
                q[:h, :w] = p
                q[h:, :w] = p[h - 1:h, :]
                q[:, w:] = q[:, w - 1:w]
                return q.reshape(eh // 2, 2, ew // 2, 2).mean(axis=(1, 3))

            mcuy, mcux = -(-h // 16), -(-w // 16)
            plan.append(dict(cid=1, hs=2, vs=2, dc=DC_ENC, ac=AC_ENC,
                             dct=0, act=0,
                             zz=_plane_zigzag(y, ql88, pad_to=(mcuy * 16, mcux * 16)),
                             bw_pad=mcux * 2, bw_real=-(-w // 8), bh_real=-(-h // 8)))
            for cid, p in ((2, down(cb)), (3, down(cr))):
                plan.append(dict(cid=cid, hs=1, vs=1, dc=DCC_ENC, ac=ACC_ENC,
                                 dct=1, act=1,
                                 zz=_plane_zigzag(p, qc88, pad_to=(mcuy * 8, mcux * 8)),
                                 bw_pad=mcux, bw_real=-(-w // 16), bh_real=-(-h // 16)))
            y_hv = 0x22
        else:
            mcuy, mcux = -(-h // 8), -(-w // 8)
            for cid, p, q88, dce, ace, tid in (
                    (1, y, ql88, DC_ENC, AC_ENC, 0),
                    (2, cb, qc88, DCC_ENC, ACC_ENC, 1),
                    (3, cr, qc88, DCC_ENC, ACC_ENC, 1)):
                plan.append(dict(cid=cid, hs=1, vs=1, dc=dce, ac=ace,
                                 dct=tid, act=tid, zz=_plane_zigzag(p, q88),
                                 bw_pad=mcux, bw_real=mcux, bh_real=mcuy))
            y_hv = 0x11
    else:
        mcuy, mcux = -(-h // 8), -(-w // 8)
        plan.append(dict(cid=1, hs=1, vs=1, dc=DC_ENC, ac=AC_ENC,
                         dct=0, act=0,
                         zz=_plane_zigzag(img.astype(np.float64), ql88),
                         bw_pad=mcux, bw_real=mcux, bh_real=mcuy))
        y_hv = 0x11

    out = bytearray()
    out += bytes([0xFF, 0xD8])  # SOI
    out += _marker(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += _marker(0xDB, bytes([0]) + bytes(int(ql[z]) for z in ZIGZAG))
    out += _marker(0xC4, bytes([0x00]) + bytes(DC_BITS) + bytes(DC_VALS))
    out += _marker(0xC4, bytes([0x10]) + bytes(AC_BITS) + bytes(AC_VALS))
    if color:
        out += _marker(0xDB, bytes([1]) + bytes(int(qc[z]) for z in ZIGZAG))
        out += _marker(0xC4, bytes([0x01]) + bytes(DCC_BITS) + bytes(DCC_VALS))
        out += _marker(0xC4, bytes([0x11]) + bytes(ACC_BITS) + bytes(ACC_VALS))
    sof = 0xC2 if progressive else 0xC0
    if color:
        out += _marker(sof, bytes([8]) + h.to_bytes(2, "big")
                       + w.to_bytes(2, "big")
                       + bytes([3, 1, y_hv, 0, 2, 0x11, 1, 3, 0x11, 1]))
    else:
        out += _marker(sof, bytes([8]) + h.to_bytes(2, "big")
                       + w.to_bytes(2, "big") + bytes([1, 1, 0x11, 0]))
    if restart_interval:
        out += _marker(0xDD, int(restart_interval).to_bytes(2, "big"))

    def mcu_blocks():
        for m in range(mcuy * mcux):
            my, mx = divmod(m, mcux)
            blocks = []
            for ci, c in enumerate(plan):
                for by in range(c["vs"]):
                    for bx in range(c["hs"]):
                        n = (my * c["vs"] + by) * c["bw_pad"] + mx * c["hs"] + bx
                        blocks.append((ci, n))
            yield blocks

    if not progressive:
        bw = _BitWriter()
        rst = _Restart(bw, restart_interval)
        prev = [0] * len(plan)
        for blocks in mcu_blocks():
            if rst.tick():
                prev = [0] * len(plan)
            for ci, n in blocks:
                c = plan[ci]
                prev[ci] = _write_block(bw, c["zz"][n], prev[ci], c["dc"], c["ac"])
        bw.flush()
        hdr = bytes([len(plan)])
        for c in plan:
            hdr += bytes([c["cid"], (c["dct"] << 4) | c["act"]])
        hdr += bytes([0, 63, 0])
        out += _marker(0xDA, hdr) + bw.out
    else:
        # scan 1: interleaved DC (Ss=Se=0, Ah=Al=0)
        bw = _BitWriter()
        prev = [0] * len(plan)
        for blocks in mcu_blocks():
            for ci, n in blocks:
                c = plan[ci]
                prev[ci] = _write_dc(bw, int(c["zz"][n][0]), prev[ci], c["dc"])
        bw.flush()
        hdr = bytes([len(plan)])
        for c in plan:
            hdr += bytes([c["cid"], c["dct"] << 4])
        hdr += bytes([0, 0, 0])
        out += _marker(0xDA, hdr) + bw.out
        # scans 2..: one non-interleaved AC scan per component (band 1-63)
        for c in plan:
            bw = _BitWriter()
            for n_lin in range(c["bh_real"] * c["bw_real"]):
                by, bx = divmod(n_lin, c["bw_real"])
                _write_ac_band(bw, c["zz"][by * c["bw_pad"] + bx], c["ac"])
            bw.flush()
            out += _marker(0xDA, bytes([1, c["cid"], c["act"], 1, 63, 0])) + bw.out
    out += bytes([0xFF, 0xD9])  # EOI
    return bytes(out)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def _fill(self) -> None:
        while self.nbits <= 24:
            if self.pos >= len(self.data):
                self.acc = (self.acc << 8) | 0  # pad past end (EOB territory)
                self.nbits += 8
                continue
            b = self.data[self.pos]
            self.pos += 1
            if b == 0xFF:
                nxt = self.data[self.pos] if self.pos < len(self.data) else 0
                if nxt == 0x00:
                    self.pos += 1  # stuffed byte
                else:
                    # a real marker (EOI/RST): stop consuming, emit zeros
                    self.pos -= 1
                    self.acc = (self.acc << 8) | 0
                    self.nbits += 8
                    continue
            self.acc = (self.acc << 8) | b
            self.nbits += 8

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        self._fill()
        v = (self.acc >> (self.nbits - n)) & ((1 << n) - 1)
        self.nbits -= n
        self.acc &= (1 << self.nbits) - 1
        return v


def _read_symbol(br: _BitReader, dec: dict) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.read(1)
        sym = dec.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("invalid huffman code")


def _extend(v: int, cat: int) -> int:
    return v if v >= (1 << (cat - 1)) else v - (1 << cat) + 1


def _restart_sync(br: _BitReader) -> None:
    """Byte-align past a RSTn marker: discard buffered bits, consume FFD0-7."""
    br.acc = 0
    br.nbits = 0
    if (br.pos + 1 >= len(br.data) or br.data[br.pos] != 0xFF
            or not 0xD0 <= br.data[br.pos + 1] <= 0xD7):
        raise ValueError("expected restart marker")
    br.pos += 2


def _decode_band_first(br, dec_dc, dec_ac, coef, prev_dc, ss, se, al, eobrun):
    """First-pass (Ah=0) decode of zigzag coefficients ss..se into `coef`.
    Baseline is the ss=0, se=63, al=0 special case; progressive DC scans
    are ss=se=0 and AC scans carry EOB runs (T.81 G.1.2.2)."""
    if ss == 0:
        cat = _read_symbol(br, dec_dc)
        diff = _extend(br.read(cat), cat) if cat else 0
        prev_dc += diff
        coef[0] = prev_dc << al
        k = 1
    else:
        k = ss
    if k <= se:
        if eobrun > 0:
            eobrun -= 1
        else:
            while k <= se:
                sym = _read_symbol(br, dec_ac)
                r, s = sym >> 4, sym & 0xF
                if s == 0:
                    if r == 15:  # ZRL
                        k += 16
                        continue
                    eobrun = (1 << r) - 1 + (br.read(r) if r else 0)
                    break
                k += r
                if k > se:
                    raise ValueError("AC run past band end")
                coef[k] = _extend(br.read(s), s) << al
                k += 1
    return prev_dc, eobrun


def _refine_nonzero(br, coef, k, p1):
    # correction bit for a coefficient that already has history
    # (two's-complement & p1 test works for negatives, same as libjpeg)
    if br.read(1) and (int(coef[k]) & p1) == 0:
        coef[k] += p1 if coef[k] > 0 else -p1


def _decode_band_refine(br, dec_ac, coef, ss, se, al, eobrun):
    """AC successive-approximation refinement scan (Ah>0), T.81 G.1.2.3."""
    p1 = 1 << al
    k = ss
    if eobrun == 0:
        while k <= se:
            sym = _read_symbol(br, dec_ac)
            r, s = sym >> 4, sym & 0xF
            val = 0
            if s == 0:
                if r < 15:
                    eobrun = (1 << r) + (br.read(r) if r else 0)
                    break
                # r == 15: ZRL — skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("bad refinement magnitude category")
                val = p1 if br.read(1) else -p1
            while k <= se:
                if coef[k] != 0:
                    _refine_nonzero(br, coef, k, p1)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if val and k <= se:
                coef[k] = val
            k += 1
    if eobrun > 0:
        while k <= se:
            if coef[k] != 0:
                _refine_nonzero(br, coef, k, p1)
            k += 1
        eobrun -= 1
    return eobrun


def _find_scan_end(data: bytes, start: int) -> int:
    """Index of the first marker after `start` that ends entropy data
    (anything but stuffed 0x00, RSTn, or fill 0xFF)."""
    i = start
    n = len(data)
    while i < n - 1:
        if data[i] != 0xFF:
            i += 1
        elif data[i + 1] == 0x00 or 0xD0 <= data[i + 1] <= 0xD7:
            i += 2
        elif data[i + 1] == 0xFF:
            i += 1
        else:
            return i
    return n


def _decode_scan(data, start, end, scan_comps, params, geo, grids,
                 huff_dc, huff_ac, ri):
    ss, se, ah, al = params
    br = _BitReader(data[start:end])
    prev = {ci: 0 for ci, _, _ in scan_comps}
    eobrun = 0
    cnt = 0

    def do_block(ci, dct, act, n):
        nonlocal eobrun
        coef = grids[ci][n]
        if ah == 0:
            prev[ci], eobrun = _decode_band_first(
                br, huff_dc.get(dct), huff_ac.get(act), coef, prev[ci],
                ss, se, al, eobrun)
        elif ss == 0:  # DC refinement: one raw bit per block
            coef[0] = int(coef[0]) | (br.read(1) << al)
        else:
            eobrun = _decode_band_refine(br, huff_ac.get(act), coef,
                                         ss, se, al, eobrun)

    def restart():
        nonlocal eobrun, cnt
        _restart_sync(br)
        for ci in prev:
            prev[ci] = 0
        eobrun = 0
        cnt = 0

    if len(scan_comps) == 1:
        # non-interleaved: the component's own raster over its REAL dims
        ci, dct, act = scan_comps[0]
        g = geo[ci]
        for n_lin in range(g["bh_real"] * g["bw_real"]):
            if ri and cnt == ri:
                restart()
            by, bx = divmod(n_lin, g["bw_real"])
            do_block(ci, dct, act, by * g["bw_pad"] + bx)
            cnt += 1
    else:
        if ss != 0:
            raise ValueError("interleaved AC scan is not allowed")
        for m in range(geo["mcuy"] * geo["mcux"]):
            if ri and cnt == ri:
                restart()
            my, mx = divmod(m, geo["mcux"])
            for ci, dct, act in scan_comps:
                g = geo[ci]
                for by in range(g["vs"]):
                    for bx in range(g["hs"]):
                        do_block(ci, dct, act,
                                 (my * g["vs"] + by) * g["bw_pad"]
                                 + mx * g["hs"] + bx)
            cnt += 1


def _idct_plane(zz: np.ndarray, q88: np.ndarray, bh: int, bw_: int) -> np.ndarray:
    blocks = np.zeros((bh * bw_, 64), dtype=np.float64)
    blocks[:, ZIGZAG] = zz
    blocks = blocks.reshape(-1, 8, 8) * q88
    pix = np.einsum("ji,njk,kl->nil", _D, blocks, _D) + 128.0
    pix = np.clip(np.round(pix), 0, 255).astype(np.uint8)
    return (pix.reshape(bh, bw_, 8, 8).transpose(0, 2, 1, 3)
            .reshape(bh * 8, bw_ * 8))


def decode_jpeg(data: bytes) -> np.ndarray:
    """JFIF bytes -> (H, W) uint8 grayscale or (H, W, 3) RGB.

    Handles baseline AND progressive (SOF2: spectral selection +
    successive approximation, EOB runs) DCT processes, interleaved and
    non-interleaved scans with arbitrary sampling factors (4:4:4, 4:2:0,
    4:2:2, ...), restart intervals, multi-scan table redefinition; chroma
    is nearest-neighbor upsampled, JFIF full-range BT.601 back to RGB.
    12-bit / arithmetic / lossless / hierarchical raise
    NotImplementedError."""
    if len(data) < 4 or data[0] != 0xFF or data[1] != 0xD8:
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    quant: dict[int, np.ndarray] = {}
    huff_dc: dict[int, dict] = {}
    huff_ac: dict[int, dict] = {}
    h = w = None
    comps: list[tuple[int, int, int, int]] = []  # (cid, hs, vs, tq)
    geo: dict = {}
    grids: dict[int, np.ndarray] = {}
    ri = 0
    got_scan = False
    while pos + 2 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError("marker expected")
        m = data[pos + 1]
        if m == 0xFF:  # fill byte
            pos += 1
            continue
        if m == 0xD9:
            break
        if m == 0x01 or 0xD0 <= m <= 0xD7:  # standalone markers
            pos += 2
            continue
        seglen = int.from_bytes(data[pos + 2:pos + 4], "big")
        seg = data[pos + 4:pos + 2 + seglen]
        pos += 2 + seglen
        if m == 0xDB:
            i = 0
            while i < len(seg):
                pq_tq = seg[i]
                tbl = np.zeros(64, dtype=np.int64)
                if pq_tq >> 4:  # Pq=1: 16-bit big-endian entries (T.81 B.2.4.1)
                    tbl[ZIGZAG] = np.frombuffer(
                        seg[i + 1:i + 129], dtype=">u2").astype(np.int64)
                    quant[pq_tq & 0xF] = tbl
                    i += 129
                else:
                    tbl[ZIGZAG] = np.frombuffer(seg[i + 1:i + 65],
                                                dtype=np.uint8)
                    quant[pq_tq & 0xF] = tbl
                    i += 65
        elif m == 0xC4:
            i = 0
            while i < len(seg):
                tc_th = seg[i]
                bits = list(seg[i + 1:i + 17])
                n = sum(bits)
                vals = list(seg[i + 17:i + 17 + n])
                dec = _build_decoder(bits, vals)
                (huff_ac if tc_th >> 4 else huff_dc)[tc_th & 0xF] = dec
                i += 17 + n
        elif m in (0xC0, 0xC1, 0xC2):
            if seg[0] != 8:
                raise NotImplementedError("only 8-bit precision")
            h = int.from_bytes(seg[1:3], "big")
            w = int.from_bytes(seg[3:5], "big")
            ncomp = seg[5]
            comps = []
            for c in range(ncomp):
                cid, hv, tq = seg[6 + 3 * c], seg[7 + 3 * c], seg[8 + 3 * c]
                comps.append((cid, hv >> 4, hv & 0xF, tq))
            hmax = max(c[1] for c in comps)
            vmax = max(c[2] for c in comps)
            mcux = -(-w // (8 * hmax))
            mcuy = -(-h // (8 * vmax))
            geo = {"mcux": mcux, "mcuy": mcuy, "hmax": hmax, "vmax": vmax}
            grids = {}
            for ci, (_, hs, vs, tq) in enumerate(comps):
                geo[ci] = {
                    "hs": hs, "vs": vs, "tq": tq,
                    "bw_pad": mcux * hs, "bh_pad": mcuy * vs,
                    "bw_real": -(-(w * hs) // (8 * hmax)),
                    "bh_real": -(-(h * vs) // (8 * vmax)),
                }
                grids[ci] = np.zeros((mcuy * vs * mcux * hs, 64), np.int64)
        elif m in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                   0xCC, 0xCD, 0xCE, 0xCF, 0xDE):
            raise NotImplementedError(
                "arithmetic/lossless/hierarchical JPEG process")
        elif m == 0xDD:
            ri = int.from_bytes(seg[:2], "big")
        elif m == 0xDA:
            if h is None:
                raise ValueError("SOS before SOF")
            ns = seg[0]
            scan_comps = []
            for s in range(ns):
                cs, tables = seg[1 + 2 * s], seg[2 + 2 * s]
                ci = next(i for i, c in enumerate(comps) if c[0] == cs)
                scan_comps.append((ci, tables >> 4, tables & 0xF))
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ahal = seg[3 + 2 * ns]
            end = _find_scan_end(data, pos)
            _decode_scan(data, pos, end, scan_comps,
                         (ss, se, ahal >> 4, ahal & 0xF),
                         geo, grids, huff_dc, huff_ac, ri)
            got_scan = True
            pos = end
        # APPn/COM: skipped
    if h is None or not got_scan:
        raise ValueError("truncated JPEG (no SOF/SOS)")

    planes = {}
    for ci, (_, hs, vs, tq) in enumerate(comps):
        planes[ci] = _idct_plane(
            grids[ci], quant[tq].reshape(8, 8).astype(np.float64),
            geo[ci]["bh_pad"], geo[ci]["bw_pad"])

    if len(comps) == 1:
        return planes[0][:h, :w]
    if len(comps) != 3:
        raise NotImplementedError(f"{len(comps)}-component JPEG unsupported")
    hmax, vmax = geo["hmax"], geo["vmax"]
    full = []
    for ci, (_, hs, vs, _) in enumerate(comps):
        p = planes[ci]
        if hs != hmax or vs != vmax:
            p = np.repeat(np.repeat(p, vmax // vs, axis=0), hmax // hs, axis=1)
        full.append(p[:h, :w].astype(np.float64))
    y, cb, cr = full
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136286 * (cb - 128.0) - 0.714136286 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, b], axis=2)), 0, 255).astype(np.uint8)

"""Pure-numpy baseline JPEG codec: roundtrip properties and spec edges,
plus the WAV PCM roundtrip."""

import numpy as np
import pytest

from oar_ocr_ray.jpeg_codec import _D, _quant_table, decode_jpeg, encode_jpeg


def test_dct_matrix_is_orthonormal():
    assert np.allclose(_D @ _D.T, np.eye(8), atol=1e-12)


def test_flat_image_roundtrips_exactly():
    for v in (0, 1, 127, 128, 254, 255):
        img = np.full((24, 40), v, dtype=np.uint8)
        out = decode_jpeg(encode_jpeg(img, 90))
        assert out.shape == img.shape
        assert (out == img).all(), v


def test_non_multiple_of_8_dims_crop_back():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (37, 53), dtype=np.uint8)
    out = decode_jpeg(encode_jpeg(img, 95))
    assert out.shape == (37, 53)


def test_smooth_image_high_quality_near_lossless():
    y, x = np.mgrid[0:64, 0:64]
    img = (96 + 0.5 * x + 0.3 * y).astype(np.uint8)  # gentle gradient
    out = decode_jpeg(encode_jpeg(img, 95))
    err = np.abs(out.astype(int) - img.astype(int))
    assert err.max() <= 2


def test_noise_bounded_error_and_quality_ordering():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (48, 48), dtype=np.uint8)
    e95 = np.abs(decode_jpeg(encode_jpeg(img, 95)).astype(int) - img).mean()
    e30 = np.abs(decode_jpeg(encode_jpeg(img, 30)).astype(int) - img).mean()
    assert e95 < e30  # lossier quality -> larger error
    assert e95 < 4


def test_fixture_page_text_legible_at_q95():
    """The pixel-text patches survive q95 well enough to decode: row-1
    values shift by at most a few levels, below read_crop_text's margin
    only if exact — so assert PIXEL closeness, not text equality (PNG
    stays the lossless pipeline path; this documents the boundary)."""
    from oar_ocr_ray.fixtures import _gen_image
    from oar_ocr_ray.png_codec import decode_png

    png, *_ = _gen_image(np.random.default_rng(4))
    page = decode_png(png)
    page = page if page.ndim == 2 else page[:, :, 0]
    out = decode_jpeg(encode_jpeg(page, 95))
    err = np.abs(out.astype(int) - page.astype(int))
    assert err.mean() < 6

def test_quality_scaling_table():
    from oar_ocr_ray.jpeg_codec import STD_LUM_QUANT

    assert (_quant_table(50) == STD_LUM_QUANT).all()  # scale 100% = Annex K
    assert (_quant_table(100) == 1).all()  # lossless-ish quant
    assert (_quant_table(1) >= _quant_table(50)).all()


def test_decoder_rejects_garbage_and_truncation():
    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")
    good = encode_jpeg(np.full((16, 16), 99, dtype=np.uint8))
    with pytest.raises((ValueError, NotImplementedError, IndexError)):
        decode_jpeg(good[:20])  # cut before SOF/SOS


# ---------------------------------------------------------------------------
# Color (multi-component) JPEG: 4:4:4 and 4:2:0
# ---------------------------------------------------------------------------

def _smooth_rgb(h=50, w=70):
    y, x = np.mgrid[0:h, 0:w]
    return np.stack([(x * 2).astype(np.uint8), (y * 3).astype(np.uint8),
                     (x + y).astype(np.uint8)], axis=2)


def test_color_444_roundtrip():
    img = _smooth_rgb()
    out = decode_jpeg(encode_jpeg(img, 95))
    assert out.shape == img.shape
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 3


def test_color_420_roundtrip_and_odd_dims():
    img = _smooth_rgb()
    out = decode_jpeg(encode_jpeg(img, 95, subsample=True))
    assert out.shape == img.shape
    # chroma is 2x2-averaged: smooth content stays close
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 8
    rng = np.random.default_rng(3)
    odd = rng.integers(0, 256, (33, 41, 3), dtype=np.uint8)
    out = decode_jpeg(encode_jpeg(odd, 90, subsample=True))
    assert out.shape == (33, 41, 3)


def test_color_flat_exact():
    img = np.full((24, 24, 3), [120, 60, 200], dtype=np.uint8)
    for sub in (False, True):
        out = decode_jpeg(encode_jpeg(img, 95, subsample=sub))
        # flat color: DCT is a pure DC term, error only from YCbCr rounding
        assert np.abs(out.astype(int) - img.astype(int)).max() <= 2, sub


def test_grayscale_path_unchanged_by_color_support():
    img = np.full((16, 16), 73, dtype=np.uint8)
    out = decode_jpeg(encode_jpeg(img, 90))
    assert out.ndim == 2 and (out == img).all()


def test_out_of_range_quality_clamped_consistently():
    """quality<=0 / >100 must clamp once for BOTH luma and chroma tables:
    q=0 used to ZeroDivisionError mid-encode on color images and q=150
    produced a negative chroma scale (ref: libjpeg clamps to [1,100])."""
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8)
    for q, q_eq in [(0, 1), (-5, 1), (150, 100), (1000, 100)]:
        blob = encode_jpeg(img, quality=q)
        assert blob == encode_jpeg(img, quality=q_eq)
        out = decode_jpeg(blob)
        assert out.shape[:2] == (24, 24)
    # grayscale path too
    g = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    assert encode_jpeg(g, quality=0) == encode_jpeg(g, quality=1)


# --- progressive (SOF2) + restart intervals -------------------------------

def test_progressive_decodes_identical_to_baseline():
    rng = np.random.default_rng(7)
    for shape, kw in [((41, 67, 3), {}), ((41, 67, 3), {"subsample": True}),
                      ((33, 50), {})]:
        img = rng.integers(0, 256, shape).astype(np.uint8)
        base = decode_jpeg(encode_jpeg(img, quality=85, **kw))
        prog = decode_jpeg(encode_jpeg(img, quality=85, progressive=True, **kw))
        assert np.array_equal(base, prog)


def test_restart_interval_decodes_identical_to_baseline():
    rng = np.random.default_rng(11)
    for shape, kw in [((41, 67, 3), {}), ((41, 67, 3), {"subsample": True}),
                      ((17, 120), {})]:
        img = rng.integers(0, 256, shape).astype(np.uint8)
        base = decode_jpeg(encode_jpeg(img, quality=85, **kw))
        for ri in (1, 3, 7):
            rst = decode_jpeg(encode_jpeg(img, quality=85,
                                          restart_interval=ri, **kw))
            assert np.array_equal(base, rst)


def test_progressive_stream_is_sof2():
    img = np.full((16, 16), 200, dtype=np.uint8)
    data = encode_jpeg(img, progressive=True)
    assert b"\xff\xc2" in data and b"\xff\xc0" not in data
    with pytest.raises(ValueError):
        encode_jpeg(img, progressive=True, restart_interval=2)


def _sa_encode_gray(img, quality=85):
    """Hand-rolled successive-approximation (Ah/Al) progressive encoder for
    grayscale — exists only to exercise the decoder's refinement paths
    (T.81 G.1.2.3), which the library encoder (spectral selection only,
    Ah=Al=0) never emits."""
    from oar_ocr_ray.jpeg_codec import (
        AC_BITS, AC_ENC, AC_VALS, DC_BITS, DC_ENC, DC_VALS, ZIGZAG,
        _BitWriter, _category, _marker, _plane_zigzag)

    h, w = img.shape
    ql = _quant_table(quality)
    zz = _plane_zigzag(img.astype(np.float64), ql.reshape(8, 8).astype(float))

    out = bytearray(b"\xff\xd8")
    out += _marker(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += _marker(0xDB, bytes([0]) + bytes(int(ql[z]) for z in ZIGZAG))
    out += _marker(0xC4, bytes([0x00]) + bytes(DC_BITS) + bytes(DC_VALS))
    out += _marker(0xC4, bytes([0x10]) + bytes(AC_BITS) + bytes(AC_VALS))
    out += _marker(0xC2, bytes([8]) + h.to_bytes(2, "big")
                   + w.to_bytes(2, "big") + bytes([1, 1, 0x11, 0]))

    def scan(hdr, body):
        out.extend(_marker(0xDA, bytes([1, 1]) + hdr) + body)

    # scan 1: DC first, Al=1 (arithmetic shift per T.81 point transform)
    bw = _BitWriter()
    prev = 0
    for row in zz:
        dc = int(row[0]) >> 1
        diff = dc - prev
        prev = dc
        cat = _category(diff)
        code, ln = DC_ENC[cat]
        bw.write(code, ln)
        if cat:
            bw.write(diff if diff > 0 else diff + (1 << cat) - 1, cat)
    bw.flush()
    scan(bytes([0x00, 0, 0, 0x01]), bw.out)

    # scan 2: AC first, band 1..63, Al=1, with EOB runs
    bw = _BitWriter()
    for row in zz:
        t = [int(v) // 2 if v >= 0 else -((-int(v)) // 2) for v in row]
        run = 0
        nz = [k for k in range(1, 64) if t[k]]
        last = nz[-1] if nz else 0
        for k in range(1, last + 1):
            if t[k] == 0:
                run += 1
                continue
            while run > 15:
                c, l2 = AC_ENC[0xF0]
                bw.write(c, l2)
                run -= 16
            cat = _category(t[k])
            c, l2 = AC_ENC[(run << 4) | cat]
            bw.write(c, l2)
            bw.write(t[k] if t[k] > 0 else t[k] + (1 << cat) - 1, cat)
            run = 0
        if last < 63:
            c, l2 = AC_ENC[0x00]  # EOB0 (eobrun = 1 block)
            bw.write(c, l2)
    bw.flush()
    scan(bytes([0x00, 1, 63, 0x01]), bw.out)

    # scan 3: DC refinement, Ah=1 Al=0 — raw bit 0 of each DC value
    bw = _BitWriter()
    for row in zz:
        bw.write(int(row[0]) & 1, 1)
    bw.flush()
    scan(bytes([0x00, 0, 0, 0x10]), bw.out)

    # scan 4: AC refinement, band 1..63, Ah=1 Al=0 (G.1.2.3)
    bw = _BitWriter()
    for row in zz:
        v = [int(x) for x in row]
        hist = [abs(v[k]) >> 1 != 0 for k in range(64)]  # nonzero after scan 2
        newly = [k for k in range(1, 64) if abs(v[k]) == 1]
        last_new = newly[-1] if newly else 0
        k = 1
        pending = []  # correction bits owed for history coeffs passed over
        run = 0
        while k <= last_new:
            if hist[k]:
                pending.append(abs(v[k]) & 1)
            elif v[k] == 0:
                run += 1
            else:  # newly nonzero (|v| == 1): emit (run, s=1) + sign + pending
                while run > 15:
                    c, l2 = AC_ENC[0xF0]
                    bw.write(c, l2)
                    run -= 16
                    for b in pending:
                        bw.write(b, 1)
                    pending = []
                c, l2 = AC_ENC[(run << 4) | 1]
                bw.write(c, l2)
                bw.write(1 if v[k] > 0 else 0, 1)
                for b in pending:
                    bw.write(b, 1)
                pending = []
                run = 0
            k += 1
        if last_new < 63 or pending:
            c, l2 = AC_ENC[0x00]  # EOB0: rest of band is corrections only
            bw.write(c, l2)
            for b in pending:
                bw.write(b, 1)
            for kk in range(k, 64):
                if hist[kk]:
                    bw.write(abs(v[kk]) & 1, 1)
    bw.flush()
    scan(bytes([0x00, 1, 63, 0x10]), bw.out)

    out += b"\xff\xd9"
    return bytes(out)


def test_successive_approximation_refinement_scans():
    """A 4-scan Ah/Al stream (DC first/refine + AC first/refine) must decode
    bit-identically to the baseline stream of the same coefficients."""
    rng = np.random.default_rng(3)
    smooth = np.clip(
        rng.integers(0, 256, (24, 40)).astype(float)
        + np.linspace(0, 80, 40)[None, :], 0, 255).astype(np.uint8)
    for img in (smooth, rng.integers(0, 256, (16, 24)).astype(np.uint8)):
        base = decode_jpeg(encode_jpeg(img, quality=85))
        sa = decode_jpeg(_sa_encode_gray(img, quality=85))
        assert np.array_equal(base, sa)


def test_16bit_quant_tables_decode():
    """Pq=1 DQT segments (16-bit big-endian entries, T.81 B.2.4.1) decode
    identically to the same values stored 8-bit."""
    import numpy as np

    from oar_ocr_ray.jpeg_codec import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(2)
    img = rng.integers(0, 255, (48, 64)).astype(np.uint8)
    data = bytes(encode_jpeg(img))
    out = bytearray(data[:2])
    pos = 2
    while pos < len(data):
        m = data[pos + 1]
        if m in (0xD9, 0xDA):
            out += data[pos:]
            break
        seglen = int.from_bytes(data[pos + 2:pos + 4], "big")
        seg = data[pos + 4:pos + 2 + seglen]
        if m == 0xDB:
            new = bytearray()
            i = 0
            while i < len(seg):
                new.append(0x10 | (seg[i] & 0xF))
                for b in seg[i + 1:i + 65]:
                    new += int(b).to_bytes(2, "big")
                i += 65
            out += b"\xff\xdb" + (len(new) + 2).to_bytes(2, "big") + new
        else:
            out += data[pos:pos + 2 + seglen]
        pos += 2 + seglen
    assert np.array_equal(decode_jpeg(data), decode_jpeg(bytes(out)))

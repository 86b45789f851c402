"""WAV compressed formats — IMA ADPCM (17), MS-ADPCM (2), G.711
mu-law/A-law (7/6) and 8-bit PCM: each blockwise-vectorized
decoder verified bit-exact against an INDEPENDENT per-sample reference
decoder (straight from the IMA 1992 / RFC 3551 DVI4 tables), roundtrip
SNR, tail padding, and the honest gates for still-unsupported formats."""

import struct

import numpy as np
import pytest

# independent per-sample reference (no shared code with the codec)
STEPS = [7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34,
         37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
         157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494,
         544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552,
         1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428,
         4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487,
         12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086,
         29794, 32767]
ADJ = [-1, -1, -1, -1, 2, 4, 6, 8]


def naive_decode(body, ch, ba):
    out = []
    for boff in range(0, len(body) // ba * ba, ba):
        blk = body[boff:boff + ba]
        preds, idxs = [], []
        chans = [[] for _ in range(ch)]
        for c in range(ch):
            preds.append(int.from_bytes(blk[c * 4:c * 4 + 2], "little",
                                        signed=True))
            idxs.append(blk[c * 4 + 2])
            chans[c].append(preds[c])
        data = blk[4 * ch:]
        for w in range(len(data) // 4):
            c = w % ch
            for b in data[w * 4:w * 4 + 4]:
                for nib in (b & 0xF, b >> 4):
                    step = STEPS[idxs[c]]
                    diff = step >> 3
                    if nib & 4:
                        diff += step
                    if nib & 2:
                        diff += step >> 1
                    if nib & 1:
                        diff += step >> 2
                    p = preds[c] - diff if nib & 8 else preds[c] + diff
                    p = max(-32768, min(32767, p))
                    idxs[c] = max(0, min(88, idxs[c] + ADJ[nib & 7]))
                    preds[c] = p
                    chans[c].append(p)
        n = min(len(x) for x in chans)
        for t in range(n):
            out.append([chans[c][t] for c in range(ch)])
    return np.array(out, dtype=np.int16)


def _data_chunk(enc):
    pos = 12
    body = ba = None
    while pos + 8 <= len(enc):
        cid = enc[pos:pos + 4]
        size = struct.unpack("<I", enc[pos + 4:pos + 8])[0]
        if cid == b"fmt ":
            ba = struct.unpack("<H", enc[pos + 8 + 12:pos + 8 + 14])[0]
        if cid == b"data":
            body = enc[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    return body, ba


def _sig(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    s = 8000 * np.sin(2 * np.pi * 440 * t / 16000) + rng.normal(0, 300, n)
    return np.clip(s, -32768, 32767).astype(np.int16)


@pytest.mark.parametrize("ch", [1, 2])
def test_adpcm_decoder_matches_reference(ch):
    from oar_ocr_ray.wav_codec import decode_wav, encode_wav_adpcm

    s = _sig(505 * 3)
    x = s if ch == 1 else np.stack([s, np.roll(s, 7)], axis=1)
    enc = encode_wav_adpcm(x, 16000)
    dec, rate = decode_wav(enc)
    assert rate == 16000
    body, ba = _data_chunk(enc)
    # decode_wav trims to the fact chunk; the raw stream decodes identically
    assert np.array_equal(dec, naive_decode(body, ch, ba)[:len(dec)])
    x2 = x if x.ndim == 2 else x[:, None]
    err = dec.astype(np.float64) - x2.astype(np.float64)
    snr = 10 * np.log10((x2.astype(np.float64) ** 2).mean()
                        / (err ** 2).mean())
    assert snr > 28, snr
    assert len(enc) < x2.size * 2 * 0.3  # ~4:1 vs 16-bit PCM


def test_adpcm_tail_padding():
    """A non-multiple-of-block length pads by repeating the last sample;
    the decoded prefix still tracks the input."""
    from oar_ocr_ray.wav_codec import decode_wav, encode_wav_adpcm

    s = _sig(700)  # 505 + 195
    dec, _ = decode_wav(encode_wav_adpcm(s, 8000))
    assert dec.shape == (700, 1)  # the fact chunk trims the block pad
    err = dec[:700, 0].astype(np.float64) - s.astype(np.float64)
    assert 10 * np.log10((s.astype(np.float64) ** 2).mean()
                         / (err ** 2).mean()) > 28


def test_8bit_pcm_decodes():
    from oar_ocr_ray.wav_codec import decode_wav

    raw = np.array([0, 128, 255, 64], dtype=np.uint8)
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)
    wav = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + 4) + b"WAVE"
           + b"fmt " + struct.pack("<I", len(fmt)) + fmt
           + b"data" + struct.pack("<I", 4) + raw.tobytes())
    dec, rate = decode_wav(wav)
    assert rate == 8000
    assert dec[:, 0].tolist() == [-32768, 0, 32512, -16384]


def test_unsupported_formats_still_gate():
    from oar_ocr_ray.wav_codec import decode_wav

    for tag, bits in ((85, 0), (65534, 16)):  # mp3-in-wav, extensible
        fmt = struct.pack("<HHIIHH", tag, 1, 8000, 8000, 2, bits)
        wav = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8) + b"WAVE"
               + b"fmt " + struct.pack("<I", len(fmt)) + fmt
               + b"data" + struct.pack("<I", 0))
        with pytest.raises(NotImplementedError):
            decode_wav(wav)


def test_block_align_validation():
    from oar_ocr_ray.wav_codec import encode_wav_adpcm

    with pytest.raises(ValueError, match="multiple of 8"):
        encode_wav_adpcm(np.zeros(10, np.int16), samples_per_block=10)


# ---- MS-ADPCM (format 2): independent per-sample reference decoder ----

MS_C1 = [256, 512, 0, 192, 240, 460, 392]
MS_C2 = [0, -256, 0, 64, 0, -208, -232]
MS_AD = [230, 230, 230, 230, 307, 409, 512, 614,
         768, 614, 512, 409, 307, 230, 230, 230]


def naive_ms_decode(body, ch, ba):
    out = []
    for boff in range(0, len(body) // ba * ba, ba):
        blk = body[boff:boff + ba]
        pi = [blk[c] for c in range(ch)]
        def i16(off, c):
            return int.from_bytes(blk[off + 2 * c:off + 2 * c + 2],
                                  "little", signed=True)
        idelta = [i16(ch, c) for c in range(ch)]
        s1 = [i16(3 * ch, c) for c in range(ch)]
        s2 = [i16(5 * ch, c) for c in range(ch)]
        chans = [[s2[c], s1[c]] for c in range(ch)]
        nibs = []
        for b in blk[7 * ch:]:
            nibs.append(b >> 4)
            nibs.append(b & 0xF)
        for t, nib in enumerate(nibs[:len(nibs) // ch * ch]):
            c = t % ch
            signed = nib - 16 if nib >= 8 else nib
            pred = (s1[c] * MS_C1[pi[c]] + s2[c] * MS_C2[pi[c]]) >> 8
            v = max(-32768, min(32767, pred + idelta[c] * signed))
            chans[c].append(v)
            s2[c], s1[c] = s1[c], v
            idelta[c] = max(16, (MS_AD[nib] * idelta[c]) >> 8)
        n = min(len(x) for x in chans)
        for t in range(n):
            out.append([chans[c][t] for c in range(ch)])
    return np.array(out, dtype=np.int16)


@pytest.mark.parametrize("ch", [1, 2])
def test_msadpcm_decoder_matches_reference(ch):
    from oar_ocr_ray.wav_codec import decode_wav, encode_wav_msadpcm

    s = _sig(500 * 3, seed=3)
    x = s if ch == 1 else np.stack([s, np.roll(s, 11)], axis=1)
    enc = encode_wav_msadpcm(x, 16000)
    dec, rate = decode_wav(enc)
    assert rate == 16000
    body, ba = _data_chunk(enc)
    assert np.array_equal(dec, naive_ms_decode(body, ch, ba)[:len(dec)])
    assert len(dec) == len(x)  # fact chunk trims the block pad
    x2 = x if x.ndim == 2 else x[:, None]
    err = dec[:len(x2)].astype(np.float64) - x2.astype(np.float64)
    snr = 10 * np.log10((x2.astype(np.float64) ** 2).mean()
                        / (err ** 2).mean())
    assert snr > 22, snr


def test_g711_known_values_and_roundtrip():
    from oar_ocr_ray.wav_codec import (_ALAW_LUT, _MULAW_LUT, decode_wav,
                                       encode_wav_g711)

    # ITU-T G.711 extremes (Sun g711.c expansion)
    assert _MULAW_LUT[0x80] == 32124 and _MULAW_LUT[0x00] == -32124
    assert _MULAW_LUT[0xFF] == 0 and _MULAW_LUT[0x7F] == 0
    assert int(_ALAW_LUT.max()) == 32256 and int(_ALAW_LUT.min()) == -32256
    for lut, law in ((_MULAW_LUT, "mu"), (_ALAW_LUT, "a")):
        dec, rate = decode_wav(encode_wav_g711(lut.astype(np.int16), 8000,
                                               law=law))
        assert rate == 8000
        assert np.array_equal(dec[:, 0], lut)   # exact on decoder outputs
    s = _sig(4000, seed=5)
    for law in ("mu", "a"):
        dec, _ = decode_wav(encode_wav_g711(s, 8000, law=law))
        err = dec[:, 0].astype(np.float64) - s.astype(np.float64)
        snr = 10 * np.log10((s.astype(np.float64) ** 2).mean()
                            / (err ** 2).mean())
        assert snr > 30, (law, snr)


def _wav(tag, bits, payload, ch=1, rate=8000):
    fmt = struct.pack("<HHIIHH", tag, ch, rate, rate * ch * max(bits, 8) // 8,
                      ch * max(bits, 8) // 8, bits)
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload))
            + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)


def test_wide_pcm_and_float_decode():
    from oar_ocr_ray.wav_codec import decode_wav

    # float32: full scale maps to int16 full scale
    f32 = np.array([0.0, 1.0, -1.0, 0.5], dtype="<f4")
    dec, _ = decode_wav(_wav(3, 32, f32.tobytes()))
    assert dec[:, 0].tolist() == [0, 32767, -32767, 16384]
    # float64
    dec, _ = decode_wav(_wav(3, 64, f32.astype("<f8").tobytes()))
    assert dec[:, 0].tolist() == [0, 32767, -32767, 16384]
    # 24-bit: top 16 bits survive, sign extends
    v24 = [0x000100, 0x7FFFFF, 0x800000, 0xFFFFFF]  # 1<<8, max, min, -1
    raw = b"".join(x.to_bytes(3, "little") for x in v24)
    dec, _ = decode_wav(_wav(1, 24, raw))
    assert dec[:, 0].tolist() == [1, 32767, -32768, -1]
    # 32-bit int: top 16 bits
    i32 = np.array([1 << 16, (1 << 31) - 1, -(1 << 31), -65536], dtype="<i4")
    dec, _ = decode_wav(_wav(1, 32, i32.tobytes()))
    assert dec[:, 0].tolist() == [1, 32767, -32768, -1]


def test_mp3_in_wav_still_gates():
    from oar_ocr_ray.wav_codec import decode_wav

    with pytest.raises(NotImplementedError):
        decode_wav(_wav(85, 0, b""))

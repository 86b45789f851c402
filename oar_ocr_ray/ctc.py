"""CTC greedy decode + word-box geometry, numpy-vectorized over batches.

Reimplements the decode semantics of
/root/reference/src/processors/decode.rs:434-640 (CTCLabelDecode::
apply_with_positions — per-timestep argmax, collapse consecutive repeats,
drop blanks (index 0), mean confidence over kept timesteps, column indices
retained) and /root/reference/src/oarocr/ocr.rs:862-985 (ctc_word_boxes:
CTC column index -> per-character bounding boxes with CJK handling).

The charset convention matches the reference dictionary handling
(/root/reference/src/oarocr/ocr.rs:214-223): index 0 is the CTC blank,
characters start at index 1.
"""

from __future__ import annotations

import numpy as np

# Default charset: printable ASCII 32..126 at indices 1..95; blank = 0.
DEFAULT_CHARSET = "".join(chr(c) for c in range(32, 127))
_DEFAULT_CHAR_TO_IDX = {ch: i + 1 for i, ch in enumerate(DEFAULT_CHARSET)}


def ctc_greedy_decode(logits: np.ndarray, charset: str = DEFAULT_CHARSET):
    """Decode one (T, C) logits/prob matrix.

    Returns (text, mean_conf, col_indices):
      - argmax per timestep -> collapse consecutive duplicates -> drop
        blank (index 0);
      - mean_conf = mean prob of kept timesteps (0.0 when none kept,
        decode.rs:507-510 conf_list fallback);
      - col_indices = raw timesteps of kept characters.
    """
    p = np.asarray(logits)
    if p.size == 0:
        return "", 0.0, np.zeros(0, dtype=np.int64)
    idx = p.argmax(axis=1)
    prob = p[np.arange(len(idx)), idx]
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = idx[1:] != idx[:-1]  # collapse repeats
    keep &= idx != 0  # drop blank
    kept_idx = idx[keep]
    kept_prob = prob[keep]
    kept_ts = np.flatnonzero(keep)
    chars = [charset[i - 1] for i in kept_idx if 1 <= i <= len(charset)]
    text = "".join(chars)
    conf = float(kept_prob.mean()) if len(kept_prob) else 0.0
    return text, conf, kept_ts.astype(np.int64)


def encode_ctc_logits(text: str, charset: str = DEFAULT_CHARSET, conf: float = 0.9) -> np.ndarray:
    """Build a (T, C) prob matrix whose greedy CTC decode yields `text`.

    Used by the deterministic stub recognizer (FIXTURES.md F3) so the REAL
    decoder runs in the pipeline: each char occupies two timesteps, with a
    blank separator inserted between repeated characters.
    """
    c_dim = len(charset) + 1
    if charset is DEFAULT_CHARSET:
        lut = _DEFAULT_CHAR_TO_IDX
    else:
        lut = {ch: i + 1 for i, ch in enumerate(charset)}
    rows = []
    prev = None
    for ch in text:
        i = lut[ch]
        if prev == i:
            rows.append(0)
        rows.append(i)
        rows.append(i)
        prev = i
    if not rows:
        rows = [0]
    t = len(rows)
    out = np.full((t, c_dim), (1.0 - conf) / max(1, c_dim - 1), dtype=np.float32)
    out[np.arange(t), rows] = conf
    return out


def is_cjk(ch: str) -> bool:
    """CJK codepoint ranges (ocr.rs:988-995)."""
    u = ord(ch)
    return (
        0x4E00 <= u <= 0x9FFF
        or 0x3400 <= u <= 0x4DBF
        or 0x20000 <= u <= 0x2A6DF
        or 0x2A700 <= u <= 0x2B73F
        or 0x2B740 <= u <= 0x2B81F
    )


def ctc_word_boxes(
    line_bbox,
    text: str,
    col_indices,
    seq_len: int,
    wh_ratio: float,
    max_wh_ratio: float,
) -> np.ndarray:
    """Per-character boxes from CTC column indices (ocr.rs:862-933).

    line_bbox = (x0, y0, x1, y1). Non-CJK boundaries are midpoints between
    adjacent character centers; CJK chars get avg-char-width boxes centered
    on their column. Returns (N,4) float32.
    """
    col_indices = np.asarray(col_indices, dtype=np.float64)
    if len(col_indices) == 0 or seq_len == 0 or not text:
        return np.zeros((0, 4), dtype=np.float32)
    effective_cols = seq_len * (wh_ratio / max_wh_ratio)
    if effective_cols <= np.finfo(np.float32).eps:
        return np.zeros((0, 4), dtype=np.float32)
    x_min, y_min, x_max, y_max = (float(v) for v in line_bbox)
    width = x_max - x_min
    cell_w = width / max(effective_cols, np.finfo(np.float32).eps)
    chars = list(text)
    avg_w = width / max(len(chars), 1)
    # clamp centers into the detection box: column indices at/past
    # effective_cols (possible when this crop is narrower than the batch
    # max wh_ratio) would otherwise map beyond x_max and produce INVERTED
    # boxes (lo > hi) once the neighbors' midpoint clamps meet
    centers = np.clip(x_min + (col_indices + 0.5) * cell_w, x_min, x_max)
    n = len(col_indices)
    out = np.zeros((n, 4), dtype=np.float32)
    for i in range(n):
        ch = chars[i] if i < len(chars) else "?"
        cx = centers[i]
        if is_cjk(ch):
            lo = max(cx - avg_w / 2.0, x_min)
            hi = min(cx + avg_w / 2.0, x_max)
        else:
            lo = x_min if i == 0 else max((centers[i - 1] + cx) / 2.0, x_min)
            hi = x_max if i == n - 1 else min((cx + centers[i + 1]) / 2.0, x_max)
        out[i] = (lo, y_min, hi, y_max)
    return out

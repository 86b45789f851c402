"""Model-boundary preprocessing: resize policies, normalization, batch
padding — pure numpy, used inside model stages' `__call__`.

Reimplements (semantics, not code) the reference's:
  - DetResizeForTest Type0 limit-side policy with /32 snapping and
    max-side cap (/root/reference/src/processors/resize_detection.rs:244-308;
    constants /root/reference/src/core/constants.rs:11-23). The reference
    resamples with Lanczos3; we use bilinear (deterministic, model-free).
  - small-image guard: pad to at least 32x32
    (/root/reference/src/processors/resize_detection.rs:183-215).
  - OCRResize recognition resize: height fixed, width = h * max_wh_ratio
    capped at max_img_w, right-pad (/root/reference/src/processors/
    resize_recognition.rs:19-160).
  - NormalizeImage: scale + per-channel mean/std, HWC->CHW, optional
    RGB->BGR (/root/reference/src/processors/normalization.rs).
  - ToBatch: pad variable-size CHW images to batch max dims
    (/root/reference/src/core/batch/mod.rs:227-465).
"""

from __future__ import annotations

import functools
import math

import numpy as np

DEFAULT_LIMIT_SIDE_LEN = 736
DEFAULT_MAX_SIDE_LIMIT = 4000
DEFAULT_REC_SHAPE = (3, 48, 320)
DEFAULT_MAX_IMG_W = 3200
IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)


# a media_seams pass meets about 200 distinct (n, out_n) pairs; an entry
# holds 32 bytes per output sample, so a rec geometry is a few KB
@functools.lru_cache(maxsize=256)
def _axis_samples(n: int, out_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-pixel-centre bilinear samples along one axis of length n
    resized to out_n, both neighbours stacked: the source indices
    [i0 | i1] and their weights [1 - f | f]. Read-only, since they are
    shared between calls."""
    s = (np.arange(out_n) + 0.5) * n / out_n - 0.5
    i0 = np.clip(np.floor(s).astype(np.int64), 0, n - 1)
    f = np.clip(s - i0, 0, 1)
    idx = np.concatenate([i0, np.minimum(i0 + 1, n - 1)])
    wts = np.concatenate([1 - f, f])
    idx.flags.writeable = wts.flags.writeable = False
    return idx, wts


def _resize_gray_into(img: np.ndarray, out: np.ndarray) -> None:
    """Bilinear resample of a (h, w) uint8 image into the (out_h, out_w)
    uint8 view `out`; either may have any strides. Each output pixel is
    ((A(1-fy))(1-fx) + (B(1-fy))fx) + (C fy)(1-fx) + (D fy)fx in float64,
    with A, B the (x0, x1) samples of source row y0 and C, D those of row
    y1. The y weights go onto the gathered source rows, and the rest runs
    transposed, (out_w, out_h), so that the x gathers copy whole rows. A
    convex blend of 0..255 rounds into 0..255, so the result needs no
    clip."""
    h, w = img.shape
    out_h, out_w = out.shape
    if (h, w) == (out_h, out_w):
        out[...] = img
        return
    ys, wy = _axis_samples(h, out_h)
    xs, wx = _axis_samples(w, out_w)
    wx = wx[:, None]
    rows = np.multiply(img[ys].T, wy)  # (w, 2 out_h): [row y0 (1-fy) | row y1 fy]
    terms = rows[:, :out_h].take(xs, axis=0)  # (2 out_w, out_h): A, B rows
    terms *= wx
    acc = np.add(terms[:out_w], terms[out_w:])
    rows[:, out_h:].take(xs, axis=0, out=terms, mode="clip")  # C, D rows
    terms *= wx
    acc += terms[:out_w]
    acc += terms[out_w:]
    np.rint(acc, out=out.T, casting="unsafe")


def _resize_into(img: np.ndarray, out: np.ndarray) -> None:
    """_resize_gray_into per channel of an (H,W[,C]) image."""
    if img.ndim == 2:
        _resize_gray_into(img, out)
    else:
        for c in range(img.shape[2]):
            _resize_gray_into(img[..., c], out[..., c])


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic bilinear resample, (H,W[,C]) uint8 -> (out_h,out_w[,C])."""
    out = np.empty((out_h, out_w) + img.shape[2:], dtype=np.uint8)
    _resize_into(img, out)
    return out


def pad_to_min_size(img: np.ndarray, min_side: int = 32) -> np.ndarray:
    """Pad (white) so both sides are >= min_side (resize_detection.rs:183-215)."""
    h, w = img.shape[:2]
    if h >= min_side and w >= min_side:
        return img
    nh, nw = max(h, min_side), max(w, min_side)
    out_shape = (nh, nw) + img.shape[2:]
    out = np.full(out_shape, 255, dtype=img.dtype)
    out[:h, :w] = img
    return out


def det_resize(
    img: np.ndarray,
    limit_side_len: int = DEFAULT_LIMIT_SIDE_LEN,
    limit_type: str = "min",
    max_side_limit: int = DEFAULT_MAX_SIDE_LIMIT,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Type0 limit-side resize: compute ratio per limit_type
    ('max': shrink if long side > limit; 'min': grow if short side < limit;
    'resize_long': long side == limit), cap at max_side_limit, snap dims to
    multiples of 32 ((r + 16) // 32 * 32, min 32). Returns
    (resized, (ratio_h, ratio_w))."""
    h, w = img.shape[:2]
    if limit_type == "max":
        ratio = limit_side_len / max(h, w) if max(h, w) > limit_side_len else 1.0
    elif limit_type == "min":
        ratio = limit_side_len / min(h, w) if min(h, w) < limit_side_len else 1.0
    elif limit_type == "resize_long":
        ratio = limit_side_len / max(h, w)
    else:
        raise ValueError(f"unknown limit_type {limit_type}")
    rh, rw = int(h * ratio), int(w * ratio)
    if max(rh, rw) > max_side_limit:
        lr = max_side_limit / max(rh, rw)
        rh, rw = int(rh * lr), int(rw * lr)
    rh = max((rh + 16) // 32 * 32, 32)
    rw = max((rw + 16) // 32 * 32, 32)
    if (rh, rw) == (h, w):
        return img, (1.0, 1.0)
    out = resize_bilinear(img, rh, rw)
    return out, (rh / h, rw / w)


def rec_tensor_width(target_h: int, max_wh_ratio: float,
                     max_img_w: int = DEFAULT_MAX_IMG_W) -> int:
    """The recognition tensor width: target_h * max_wh_ratio, rounded up
    and capped at max_img_w."""
    return min(math.ceil(target_h * max_wh_ratio), max_img_w)


def ocr_resize_and_pad(
    img: np.ndarray,
    target_h: int = DEFAULT_REC_SHAPE[1],
    max_img_w: int = DEFAULT_MAX_IMG_W,
    max_wh_ratio: float | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Recognition resize: height -> target_h keeping aspect; batch tensor
    width = target_h * max_wh_ratio (capped at max_img_w); image right-padded
    with zeros to that width. `out`, if given, is a ZEROED
    (target_h, tensor width[, C]) uint8 row (of a batch buffer) that
    the resize is written into. Returns (padded, actual_content_width)."""
    h, w = img.shape[:2]
    if max_wh_ratio is None:
        max_wh_ratio = DEFAULT_REC_SHAPE[2] / DEFAULT_REC_SHAPE[1]
    tensor_w = rec_tensor_width(target_h, max_wh_ratio, max_img_w)
    actual_w = max(min(math.ceil(target_h * (w / max(h, 1))), tensor_w), 1)
    out_shape = (target_h, tensor_w) + img.shape[2:]
    if out is None:
        out = np.zeros(out_shape, dtype=np.uint8)
    elif out.shape != out_shape or out.dtype != np.uint8:
        raise ValueError(f"out must be {out_shape} uint8, got {out.shape} {out.dtype}")
    _resize_into(img, out[:, :actual_w])
    return out, actual_w


def normalize_image(
    img: np.ndarray,
    scale: float = 1.0 / 255.0,
    mean: np.ndarray = IMAGENET_MEAN,
    std: np.ndarray = IMAGENET_STD,
    to_chw: bool = True,
    rgb_to_bgr: bool = False,
) -> np.ndarray:
    """(H,W,3) uint8 -> float32 (3,H,W): x*scale then (x - mean) / std per
    channel; optional channel swap (normalization.rs semantics)."""
    f = img.astype(np.float32)
    if f.ndim == 2:
        f = np.repeat(f[:, :, None], 3, axis=2)
    if rgb_to_bgr:
        f = f[:, :, ::-1]
    f = f * scale
    f = (f - mean[None, None, :]) / std[None, None, :]
    return np.ascontiguousarray(f.transpose(2, 0, 1)) if to_chw else f


def gray_batch_tensor(
    imgs: list[np.ndarray] | np.ndarray,
    scale: float = 1.0 / 255.0,
    mean: np.ndarray = IMAGENET_MEAN,
    std: np.ndarray = IMAGENET_STD,
) -> np.ndarray:
    """Fused `to_batch([normalize_image(g) for g in imgs])` for
    EQUAL-SHAPE GRAYSCALE images: one (B, 3, H, W) float32 allocation,
    the x*scale -> (x - mean[c]) / std[c] chain applied channel-broadcast
    in place. Bit-identical to the per-image path (same float32
    elementwise ops in the same order) with ~3x less float work and no
    per-image channel repeat / transpose / contiguous copy, nor any
    temporary per channel."""
    arr = np.asarray(imgs) if not isinstance(imgs, np.ndarray) else imgs
    if arr.ndim != 3:
        raise ValueError(f"expected (B, H, W) grayscale stack, got {arr.shape}")
    out = np.empty((arr.shape[0], 3) + arr.shape[1:], dtype=np.float32)
    g = out[:, 0]
    np.multiply(arr, np.float32(scale), out=g, dtype=np.float32)
    for c in (2, 1, 0):  # channel 0 holds x*scale until last
        np.subtract(g, mean[c], out=out[:, c])
        np.divide(out[:, c], std[c], out=out[:, c])
    return out


def to_batch(imgs: list[np.ndarray]) -> np.ndarray:
    """Pad CHW float32 images to common (B, C, Hmax, Wmax), zero-filled;
    contiguous fast path when all dims equal (batch/mod.rs:227-465)."""
    if not imgs:
        return np.zeros((0, 0, 0, 0), dtype=np.float32)
    shapes = {im.shape for im in imgs}
    if len(shapes) == 1:
        return np.ascontiguousarray(np.stack(imgs)).astype(np.float32, copy=False)
    c = imgs[0].shape[0]
    hmax = max(im.shape[1] for im in imgs)
    wmax = max(im.shape[2] for im in imgs)
    out = np.zeros((len(imgs), c, hmax, wmax), dtype=np.float32)
    for i, im in enumerate(imgs):
        out[i, :, :im.shape[1], :im.shape[2]] = im
    return out


# ---------------------------------------------------------------------------
# UniMERNet formula preprocess: crop-margin
# (processors/unimernet_preprocess.rs:48-110)
# ---------------------------------------------------------------------------

def crop_margin(img: np.ndarray, threshold: int = 200) -> np.ndarray:
    """UniMERNet crop-margin (unimernet_preprocess.rs:48-110): min-max
    normalize the gray image, binarize BELOW threshold as content, crop to
    the content bbox (inclusive ends). Uniform images returned unchanged."""
    gray = img if img.ndim == 2 else img[..., 0]
    mn, mx = int(gray.min()), int(gray.max())
    if mn == mx:
        return img
    norm = ((gray.astype(np.float64) - mn) / (mx - mn) * 255.0).astype(np.uint8)
    content = norm < threshold
    if not content.any():
        return img
    ys, xs = np.nonzero(content)
    return img[ys.min():ys.max() + 1, xs.min():xs.max() + 1]

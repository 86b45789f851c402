"""The recognition session tensor is built in place: each crop is resized
straight into its row of one zeroed uint8 buffer, which is normalized
once. These properties hold it bit for bit to the chain it replaced,
whose formulas are frozen below as the oracle: `resize_bilinear` (gray and
RGB), `ocr_resize_and_pad` into a row (`out=`), and the tensor
`Recognize._session_logits` hands its session."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oar_ocr_ray.preprocess import (
    DEFAULT_MAX_IMG_W,
    IMAGENET_MEAN,
    IMAGENET_STD,
    ocr_resize_and_pad,
    rec_tensor_width,
    resize_bilinear,
)


def oracle_resize_bilinear(img, out_h, out_w):
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.copy()
    gray = img.ndim == 2
    src = img[..., None] if gray else img
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0, 1)[:, None, None]
    fx = np.clip(xs - x0, 0, 1)[None, :, None]
    f = src.astype(np.float64)
    out = (
        f[y0][:, x0] * (1 - fy) * (1 - fx)
        + f[y0][:, x1] * (1 - fy) * fx
        + f[y1][:, x0] * fy * (1 - fx)
        + f[y1][:, x1] * fy * fx
    )
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out[..., 0] if gray else out


def oracle_ocr_resize_and_pad(img, target_h, max_img_w, max_wh_ratio):
    h, w = img.shape[:2]
    tensor_w = min(int(np.ceil(target_h * max_wh_ratio)), max_img_w)
    actual_w = max(min(int(np.ceil(target_h * (w / max(h, 1)))), tensor_w), 1)
    out = np.zeros((target_h, tensor_w) + img.shape[2:], dtype=img.dtype)
    out[:, :actual_w] = oracle_resize_bilinear(img, target_h, actual_w)
    return out, actual_w


def oracle_gray_batch_tensor(arr, scale=1.0 / 255.0, mean=IMAGENET_MEAN, std=IMAGENET_STD):
    g = arr.astype(np.float32) * np.float32(scale)
    out = np.empty((arr.shape[0], 3) + arr.shape[1:], dtype=np.float32)
    for c in range(3):
        out[:, c] = (g - mean[c]) / std[c]
    return out


def _crop(seed, h, w, channels=0):
    shape = (h, w, channels) if channels else (h, w)
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


seeds = st.integers(0, 2**32 - 1)
heights = st.integers(1, 89)
widths = st.integers(1, 399)


@settings(max_examples=150, deadline=None)
@given(seeds, heights, widths, st.integers(1, 120), st.integers(1, 400),
       st.sampled_from([0, 3]))
@example(0, 1, 1, 48, 7, 0)      # a 1-px source
@example(1, 48, 200, 48, 200, 3)  # same shape: a copy
@example(2, 48, 90, 48, 300, 0)  # already 48 high, wider
@example(3, 89, 399, 7, 3, 3)    # down both ways
def test_resize_bilinear_matches_oracle(seed, h, w, out_h, out_w, channels):
    img = _crop(seed, h, w, channels)
    assert _same(resize_bilinear(img, out_h, out_w),
                 oracle_resize_bilinear(img, out_h, out_w))


ratios = st.floats(0.02, 100.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(seeds, heights, widths, ratios, st.booleans(), st.booleans())
@example(0, 48, 160, 10.0, False, False)  # already 48 high
@example(1, 1, 1, 1.0, True, False)       # a 1-px crop
@example(2, 10, 399, 2.0, False, False)   # content wider than the tensor
@example(3, 9, 399, 90.0, True, True)     # past the 3,200-px cap
def test_ocr_resize_and_pad_into_row_matches_oracle(seed, h, w, max_wh, flip, rgb):
    img = _crop(seed, h, w, 3 if rgb else 0)
    if flip:
        img = np.rot90(img, 2)  # negative strides
    want, want_w = oracle_ocr_resize_and_pad(np.ascontiguousarray(img), 48,
                                             DEFAULT_MAX_IMG_W, max_wh)
    got, got_w = ocr_resize_and_pad(img, max_wh_ratio=max_wh)
    assert got_w == want_w and _same(got, want)
    buf = np.zeros((2,) + want.shape, dtype=np.uint8)
    row, row_w = ocr_resize_and_pad(img, max_wh_ratio=max_wh, out=buf[1])
    assert np.shares_memory(row, buf[1])
    assert row_w == want_w and _same(buf[1], want) and not buf[0].any()


def test_ocr_resize_and_pad_rejects_a_mis_shaped_row():
    img = _crop(0, 10, 30)
    with pytest.raises(ValueError):
        ocr_resize_and_pad(img, max_wh_ratio=3.0, out=np.zeros((48, 100), np.uint8))


class _TensorSpy:
    def __call__(self, tensor):
        self.tensor = tensor
        return np.zeros((tensor.shape[0], 1, 2), np.float32)


crop_lists = st.lists(st.tuples(seeds, heights, widths, st.booleans()),
                      min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(crop_lists, st.one_of(st.none(), ratios))
@example([(0, 48, 480, False), (1, 48, 30, True)], None)  # already 48 high
@example([(2, 1, 1, False), (3, 1, 5, False)], None)      # 1-px crops
@example([(4, 12, 399, False), (5, 20, 40, True)], 3.0)   # content wider than the tensor
@example([(6, 8, 399, True)], 75.0)                       # past the 3,200-px cap
def test_rec_session_tensor_matches_oracle(crops, max_wh):
    from oar_ocr_ray.stages.media import Recognize

    arrs = []
    for seed, h, w, flip in crops:
        a = _crop(seed, h, w)
        arrs.append(np.rot90(a, 2) if flip else a)
    if max_wh is None:  # read_sorted's width: the sub-batch's max ratio
        max_wh = max(Recognize.wh_ratio(a) for a in arrs)
    spy = _TensorSpy()
    Recognize(model_input=True, rec_session=spy)._session_logits(arrs, max_wh)
    rows = [oracle_ocr_resize_and_pad(np.ascontiguousarray(a), 48, DEFAULT_MAX_IMG_W,
                                      max_wh)[0] for a in arrs]
    want = oracle_gray_batch_tensor(np.stack(rows))
    assert spy.tensor.shape[3] == rec_tensor_width(48, max_wh)
    assert _same(spy.tensor, want)

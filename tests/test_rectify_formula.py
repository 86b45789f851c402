"""Round-2 operators: normalize_latex (formula_preprocess.rs:269-374),
UVDoc warp math (uvdoc.rs + uvdoc_postprocess.rs), UniMERNet crop-margin."""

import numpy as np

from oar_ocr_ray.formula import normalize_latex
from oar_ocr_ray.preprocess import crop_margin
from oar_ocr_ray.rectify import (
    UVDocRectifier,
    grid_sample_bilinear,
    identity_grid,
    resize_bilinear,
)


# --- normalize_latex (LaTeX-OCR post_process parity) ---

def test_normalize_latex_removes_spaces_between_symbols():
    assert normalize_latex("a + b = c") == "a+b=c"
    assert normalize_latex("x ^ { 2 }") == "x^{2}"


def test_normalize_latex_command_space_collapse():
    assert normalize_latex(r"\mathrm { d } x") == r"\mathrm{d}x"
    assert normalize_latex(r"\operatorname { sin } ( x )") == r"\operatorname{sin}(x)"


def test_normalize_latex_cjk_text_unwrap():
    assert normalize_latex(r"\text{中文} + 1") == "中文+1"


def test_normalize_latex_strips_quotes_and_trims():
    assert normalize_latex('  "x" = 1  ') == "x=1"


def test_normalize_latex_keeps_letter_spacing():
    # letter followed by letter keeps its (single) space
    assert "a b" in normalize_latex("a b")


# --- UVDoc warp math ---

def test_identity_grid_sample_is_noop():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 255, size=(12, 17), dtype=np.uint8)
    grid = identity_grid(12, 17)
    assert (grid_sample_bilinear(img, grid) == img).all()


def test_grid_sample_translation():
    img = np.zeros((10, 10), dtype=np.uint8)
    img[2, 3] = 200
    grid = identity_grid(10, 10)
    grid[..., 0] += 1.0  # sample one pixel to the right -> image shifts left
    out = grid_sample_bilinear(img, grid)
    assert out[2, 2] == 200 and out[2, 3] == 0


def test_grid_sample_bilinear_midpoint():
    img = np.array([[0, 100]], dtype=np.uint8)
    grid = np.array([[[0.5, 0.0]]])  # halfway between the two pixels
    assert grid_sample_bilinear(img, grid)[0, 0] == 50


def test_uvdoc_rectifier_identity_roundtrip():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 255, size=(30, 40), dtype=np.uint8)
    rect = UVDocRectifier(input_hw=(30, 40))  # same size: no resize legs
    assert (rect.forward(img) == img).all()


def test_uvdoc_rectifier_resizes_back_to_original():
    img = np.full((50, 70), 128, dtype=np.uint8)
    rect = UVDocRectifier(input_hw=(32, 48))
    out = rect.forward(img)
    assert out.shape == (50, 70)
    assert (out == 128).all()  # constant image survives both resize legs


# --- UniMERNet preprocess ---

def test_crop_margin_crops_to_content():
    img = np.full((20, 30), 255, dtype=np.uint8)
    img[5:10, 8:20] = 0
    out = crop_margin(img)
    assert out.shape == (5, 12)


def test_crop_margin_uniform_unchanged():
    img = np.full((10, 10), 77, dtype=np.uint8)
    assert crop_margin(img).shape == (10, 10)


def test_resize_bilinear_identity():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 255, size=(15, 22), dtype=np.uint8)
    assert (resize_bilinear(img, 15, 22) == img).all()

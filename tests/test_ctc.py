"""CTC decode tests — word-box vector from
/root/reference/src/oarocr/ocr.rs:1083-1117 plus decode semantics of
/root/reference/src/processors/decode.rs:434-640."""

import numpy as np

from oar_ocr_ray.ctc import (
    DEFAULT_CHARSET,
    ctc_greedy_decode,
    ctc_word_boxes,
    encode_ctc_logits,
    is_cjk,
)


def test_ctc_word_boxes_reference_vector():
    # seq_len=10, wh_ratio=5, max=5 -> cell 10; indices 1,4,7 -> centers 15,45,75
    boxes = ctc_word_boxes((0.0, 0.0, 100.0, 20.0), "ABC", [1, 4, 7], 10, 5.0, 5.0)
    assert boxes.shape == (3, 4)
    np.testing.assert_allclose(boxes[:, 0], [0.0, 30.0, 60.0], atol=1e-5)
    np.testing.assert_allclose(boxes[:, 2], [30.0, 60.0, 100.0], atol=1e-5)


def test_ctc_word_boxes_empty():
    assert ctc_word_boxes((0, 0, 100, 20), "", [], 10, 5.0, 5.0).shape == (0, 4)


def test_greedy_decode_collapse_and_blank():
    # charset index: 'a' = ord('a')-32+1
    def oh(i, c=100):
        v = np.zeros(c)
        v[i] = 1.0
        return v

    ia = DEFAULT_CHARSET.index("a") + 1
    ib = DEFAULT_CHARSET.index("b") + 1
    logits = np.stack([oh(ia), oh(ia), oh(0), oh(ia), oh(ib), oh(ib), oh(0)])
    text, conf, cols = ctc_greedy_decode(logits)
    assert text == "aab"
    assert conf == 1.0
    assert list(cols) == [0, 3, 4]


def test_decode_empty_gives_zero_conf():
    logits = np.zeros((3, 5))
    logits[:, 0] = 1.0  # all blanks
    text, conf, cols = ctc_greedy_decode(logits)
    assert text == "" and conf == 0.0 and len(cols) == 0


def test_encode_roundtrip():
    for s in ["hello world", "a", "aa bb", "Line-42 #7!", ""]:
        text, conf, _ = ctc_greedy_decode(encode_ctc_logits(s))
        assert text == s
        if s:
            assert abs(conf - 0.9) < 1e-6


def test_is_cjk():
    assert is_cjk("中")
    assert not is_cjk("a")

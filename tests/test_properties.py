"""Property-based tests (hypothesis) for the correctness-critical kernels.

The north-rule invariant is exact sequence reconstruction through
explode/shuffle/reassemble — so the key properties are permutation
invariance and scalar/vectorized agreement.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oar_ocr_ray.ctc import ctc_greedy_decode, encode_ctc_logits
from oar_ocr_ray.functions.text_analysis import word_ngrams
from oar_ocr_ray.sorting import sort_quad_boxes_indices
from oar_ocr_ray.stages.reassemble import merge_partials, pack_partial, rebuild_partition
from oar_ocr_ray.textproc import (
    strip_boilerplate,
    strip_boilerplate_arrow,
)

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30
)


@settings(max_examples=60, deadline=None)
@given(st.lists(printable, max_size=6).map("\n".join))
def test_strip_scalar_equals_vectorized(text):
    got = strip_boilerplate_arrow(pa.array([text], pa.string())).to_pylist()[0]
    assert got == strip_boilerplate(text)


# what the text strip meets: whole boilerplate lines, words, the
# whitespace the Arrow passes rewrite, NBSP, and runs of newlines and spaces
strip_pieces = st.one_of(
    st.sampled_from(["Advertisement", "back to TOP", "home | about | contact",
                     "© 2024 Corp", "Log in", "share this post", "[ ad ]",
                     "cookie policy"]),
    st.text(alphabet="abcXYZ019.|", min_size=1, max_size=6),
    st.sampled_from(["\t", "\r", "\f", "\v", "\xa0"]),
    st.integers(1, 3).map("\n".__mul__),
    st.integers(1, 3).map(" ".__mul__),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(strip_pieces, max_size=12).map("".join))
def test_strip_scalar_equals_arrow(text):
    got = strip_boilerplate_arrow(pa.array([text], pa.string()))[0].as_py()
    assert got == strip_boilerplate(text)


# what the word tokenizer meets: missing texts, and words of mixed case
# between runs of spaces, tabs and newlines, at either edge too
ngram_texts = st.one_of(
    st.none(),
    st.lists(st.one_of(st.sampled_from([" ", "\t", "\n", "  ", " \t\n"]),
                       st.text(alphabet="abAB", min_size=1, max_size=3)),
             max_size=8).map("".join),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ngram_texts, max_size=6), st.sampled_from([1, 2, 3]))
@example([None, " \t\n ", "one", "\tA b\nc D\n"], 1)
@example([None, " \t\n ", "one", "\tA b\nc D\n"], 2)
@example([None, " \t\n ", "one", "\tA b\nc D\n"], 3)
def test_word_ngrams_equal_per_row_reference(texts, n):
    g = word_ngrams(pd.Series(texts, dtype=object), n)
    want = []
    for row, t in enumerate(texts):
        w = (t or "").lower().split()
        want += [(row, i + 1, " ".join(w[i:i + n])) for i in range(len(w) - n + 1)]
    assert list(zip(g["row"], g["pos"], g["gram"])) == want


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
def test_ctc_encode_decode_roundtrip(s):
    text, conf, cols = ctc_greedy_decode(encode_ctc_logits(s))
    assert text == s
    assert len(cols) == len(s)


box_strategy = st.tuples(
    st.integers(0, 300), st.integers(0, 300), st.integers(1, 60), st.integers(1, 30)
).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


@settings(max_examples=40, deadline=None)
@given(st.lists(box_strategy, min_size=0, max_size=12), st.randoms(use_true_random=False))
def test_sort_quad_boxes_permutation_invariant(boxes, rnd):
    """The raster order must not depend on input order (the detector emits
    boxes in arbitrary order, FIXTURES.md F3). Boxes sharing an exact
    (y_min, x_min) are excluded: the reference sorts on those two keys only
    (sorting.rs:43-56), so tie order is input-order-dependent there too —
    and physically impossible for disjoint detection boxes."""
    seen = set()
    uniq = []
    for bx in boxes:
        if (bx[0], bx[1]) not in seen:
            seen.add((bx[0], bx[1]))
            uniq.append(bx)
    b = np.array(uniq, dtype=float).reshape(-1, 4)
    perm = list(range(len(b)))
    rnd.shuffle(perm)
    shuffled = b[perm]
    a_sorted = [tuple(x) for x in b[sort_quad_boxes_indices(b)]]
    s_sorted = [tuple(x) for x in shuffled[sort_quad_boxes_indices(shuffled)]]
    assert a_sorted == s_sorted


def _span_rows_strategy():
    span = st.tuples(
        st.sampled_from(["text", "image"]),
        printable,
        st.integers(0, 3),  # det_idx
    )
    doc = st.tuples(st.integers(0, 5), st.lists(span, min_size=0, max_size=6))
    return st.lists(doc, min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(_span_rows_strategy(), st.randoms(use_true_random=False))
def test_pack_merge_equals_direct_rebuild(docs, rnd):
    """Combiner path (pack per block -> merge) must equal the direct
    rebuild, for ANY split of rows into blocks and any row order."""
    rows = []
    for di, spans in docs:
        doc_id = f"doc-{di:04d}"
        part = di % 3
        rows.append((doc_id, -1, -1, "__doc__", "", "", part))  # anchor
        for off, (kind, text, det) in enumerate(spans):
            rows.append((doc_id, off, det, kind, text or "x", "", part))
    rnd.shuffle(rows)
    names = ["doc_id", "offset", "det_idx", "kind", "text", "media_ref", "part"]

    def tbl(rs):
        cols = list(zip(*rs)) if rs else [[] for _ in names]
        return pa.table(
            {
                "doc_id": pa.array(cols[0], pa.string()),
                "offset": pa.array(cols[1], pa.int32()),
                "det_idx": pa.array(cols[2], pa.int32()),
                "kind": pa.array(cols[3], pa.string()),
                "text": pa.array(cols[4], pa.string()),
                "media_ref": pa.array(cols[5], pa.string()),
                "part": pa.array(cols[6], pa.int32()),
            }
        )

    direct = rebuild_partition(tbl(rows)).to_pylist()

    cut = rnd.randrange(len(rows) + 1)
    blocks = [rows[:cut], rows[cut:]]
    packed = [pack_partial(tbl(b)) for b in blocks if True]
    merged = merge_partials(pa.concat_tables(packed)).to_pylist()

    key = lambda out: {r["doc_id"]: r["spans"] for r in out}
    assert key(direct) == key(merged)


# --- round-2 operator properties ---

boxes_strategy = st.lists(box_strategy, min_size=1, max_size=12).map(
    lambda bs: np.array(bs, dtype=float)
)


@settings(max_examples=60, deadline=None)
@given(boxes_strategy, st.data())
def test_sort_layout_enhanced_is_permutation(boxes, data):
    from oar_ocr_ray.sorting import sort_layout_enhanced

    labels = data.draw(st.lists(
        st.sampled_from(["text", "table", "image", "header", "footer",
                         "doc_title", "paragraph_title", "list", "seal"]),
        min_size=len(boxes), max_size=len(boxes)))
    order = sort_layout_enhanced(boxes, labels, 400.0, 400.0)
    assert sorted(order.tolist()) == list(range(len(boxes)))


@settings(max_examples=60, deadline=None)
@given(boxes_strategy, boxes_strategy)
def test_region_hierarchy_is_permutation(elems, regions):
    from oar_ocr_ray.sorting import sort_with_region_hierarchy

    order = sort_with_region_hierarchy(elems, regions, 0.1)
    assert sorted(order.tolist()) == list(range(len(elems)))


@settings(max_examples=60, deadline=None)
@given(box_strategy.map(lambda b: np.array(b, dtype=float)), boxes_strategy)
def test_split_by_containers_segments_within_original(det, containers):
    from oar_ocr_ray.structure import split_boxes_by_containers

    out = split_boxes_by_containers(det.reshape(1, 4), containers)
    assert len(out) >= 1
    for seg in out:
        if len(out) == 1:
            break  # kept whole
        assert seg[0] >= det[0] and seg[1] >= det[1]
        assert seg[2] <= det[2] and seg[3] <= det[3]


@settings(max_examples=60, deadline=None)
@given(box_strategy.map(lambda b: np.array(b, dtype=float)), boxes_strategy)
def test_split_by_cells_segments_cover_within_box(ocr, cells):
    from oar_ocr_ray.structure import split_ocr_by_table_cells

    out, src, was_split = split_ocr_by_table_cells(ocr.reshape(1, 4), cells)
    assert (src == 0).all()
    for seg, ws in zip(out, was_split):
        if ws:
            assert seg[1] == ocr[1] and seg[3] == ocr[3]  # vertical extent kept
            assert seg[0] >= ocr[0] - 1e-9 and seg[2] <= ocr[2] + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(1, 10))
def test_combine_rectangles_kmeans_count_bound(n, k):
    from oar_ocr_ray.table import combine_rectangles_kmeans

    rng = np.random.default_rng(n * 31 + k)
    x0 = rng.uniform(0, 100, n); y0 = rng.uniform(0, 100, n)
    rects = np.stack([x0, y0, x0 + rng.uniform(1, 20, n), y0 + rng.uniform(1, 20, n)], axis=1)
    out = combine_rectangles_kmeans(rects, k)
    assert 1 <= len(out) <= max(k, n if k >= n else k)
    # every output is a union of inputs: within global extent
    assert out[:, 0].min() >= rects[:, 0].min() - 1e-9
    assert out[:, 2].max() <= rects[:, 2].max() + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=50))
def test_normalize_latex_idempotent(s):
    from oar_ocr_ray.formula import normalize_latex

    once = normalize_latex(s)
    assert normalize_latex(once) == once


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40))
def test_grid_sample_identity_property(h, w):
    from oar_ocr_ray.rectify import grid_sample_bilinear, identity_grid

    rng = np.random.default_rng(h * 97 + w)
    img = rng.integers(0, 255, size=(h, w), dtype=np.uint8)
    assert (grid_sample_bilinear(img, identity_grid(h, w)) == img).all()


# ---------------------------------------------------------------------------
# Cross-algorithm / brute-force checks for the distributed join & dedup ops
# ---------------------------------------------------------------------------

def test_ngram_jaccard_equals_minhash_pair_set(ray_session):
    """Two independent distributed algorithms (LSH-banding candidates vs
    exact shingle inverted index) must produce the identical exact
    jaccard>=0.8 pair set."""
    from oar_ocr_ray.queries import minhash_dup_pairs, ngram_jaccard_dup_pairs

    a = ngram_jaccard_dup_pairs("/root/testdata/sf0.001").reset_index(drop=True)
    b = minhash_dup_pairs("/root/testdata/sf0.001").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a.astype({"doc_a": "int64", "doc_b": "int64"}),
        b.astype({"doc_a": "int64", "doc_b": "int64"}),
    )


def test_asof_join_matches_per_user_bruteforce(ray_session):
    import pyarrow.parquet as pq

    from oar_ocr_ray.queries import events_asof_join

    got = events_asof_join("/root/testdata/sf0.001").to_pandas()
    ev = pq.read_table("/root/testdata/sf0.001/events.parquet").to_pandas()
    rows = []
    clicks = ev[ev["event_type"] == "click"]
    for _, p in ev[ev["event_type"] == "purchase"].iterrows():
        c = clicks[(clicks["user_id"] == p["user_id"]) & (clicks["ts"] <= p["ts"])]
        if len(c):
            best = c.loc[c["ts"].idxmax()]
            rows.append((p["event_id"], p["user_id"], p["ts"], best["ts"],
                         int((p["ts"] - best["ts"]).value // 1000)))
    want = pd.DataFrame(rows, columns=["purchase_id", "user_id", "purchase_ts",
                                       "click_ts", "gap_us"])
    got = got.sort_values("purchase_id").reset_index(drop=True)
    want = want.sort_values("purchase_id").reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["purchase_id"].to_numpy() == want["purchase_id"].to_numpy()).all()
    assert (got["click_ts"].to_numpy() == want["click_ts"].astype("datetime64[us]").to_numpy()).all()
    assert (got["gap_us"].to_numpy() == want["gap_us"].to_numpy()).all()


# ---------------------------------------------------------------------------
# Codec properties (hypothesis): lossy roundtrips bounded
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st


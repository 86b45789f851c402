"""Seeded corpora for the benchmark workloads, cached on disk.

A corpus is a pure function of (workload, seed, size, the fixture encoding
version and GEN_VERSION), and its directory name carries all of them, so a
cached corpus is reused only when it would be regenerated byte for byte.
`meta.json` is written last and marks a complete corpus.

Run as a script to generate one corpus:

    python3 -m perfbench.corpus --workload media_seams --seed 1 --work .perfbench_work
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from oar_ocr_ray import fixtures

GEN_VERSION = 3  # bump when a generator below changes what it writes

# Corpus sizes, fixed per workload so that one pass takes 3-5 s on one CPU.
# Below that, Ray's fixed cost per dataset execution is most of a pass, and
# it swings with the host's load far more than the stages' own work does.
SIZES = {"media_seams": 120, "text_heavy": 6000, "structure_seams": 120}

# media_seams: fixtures.gen_document draws a heavy document (64-128 spans,
# 80% images) with probability 2%, else a light one (1-24 spans, 25%
# images). At this corpus size the number of heavy documents drawn, and
# the images and text lines the documents carry, move a pass's work by
# tens of percent from seed to seed. The corpus keeps the generator's
# mix instead: exactly HEAVY_SHARE heavy documents, and a drawn document
# is skipped when keeping it would move the corpus more than a few images
# or lines away from the generator's expected totals. The seed picks
# which documents; it does not change how much work the corpus holds.
HEAVY_SHARE = 0.02
HEAVY_MIN_SPANS = 64   # gen_document's heavy documents have 64-128 spans
MEAN_IMAGES = {True: 96 * 0.8, False: 12.5 * 0.25}  # per heavy / light doc
LINES_PER_IMAGE = 3.89  # gen_document's mean, measured over 15k images
IMAGE_SLACK = {True: 6, False: 3}
LINE_SLACK = 8

# text_heavy: image spans are this rare among the documents
TEXT_HEAVY_IMAGE_DOCS = 3
# text_heavy: span texts are drawn from a per-seed pool of this many
# fixtures._gen_text outputs; drawing every span's text anew would make
# generation take longer than the timed passes
TEXT_POOL = 4096

# documents files per extract corpus: run_extract shards by file, so this
# caps the shard count
N_DOC_FILES = 16


def corpus_dir(work: str, workload: str, seed: int) -> str:
    return os.path.join(
        work, "corpus",
        f"{workload}-s{seed}-n{SIZES[workload]}"
        f"-e{fixtures.ENCODING_VERSION}-g{GEN_VERSION}")


def _media_seams_docs(seed: int, n_docs: int):
    """n_docs flagship documents drawn in order from fixtures.gen_document,
    kept as described at HEAVY_SHARE."""
    want = {True: round(HEAVY_SHARE * n_docs)}
    want[False] = n_docs - want[True]
    kept = {True: [], False: []}
    images = {True: 0, False: 0}
    light_lines = 0
    i = 0
    while len(kept[True]) < want[True] or len(kept[False]) < want[False]:
        row, media = fixtures.gen_document(seed, i)
        i += 1
        heavy = len(row["spans"]) >= HEAVY_MIN_SPANS
        n_img = len(media)
        n_lines = sum(len(m["boxes"]) for m in media)
        if len(kept[heavy]) == want[heavy]:
            continue
        img_dev = images[heavy] + n_img - MEAN_IMAGES[heavy] * (len(kept[heavy]) + 1)
        # lines are held to the mean on light documents only: the few heavy
        # ones would need a slack of tens of lines
        line_dev = light_lines + n_lines - LINES_PER_IMAGE * (images[False] + n_img)
        if abs(img_dev) <= IMAGE_SLACK[heavy] and (heavy or abs(line_dev) <= LINE_SLACK):
            kept[heavy].append((row, media))
            images[heavy] += n_img
            if not heavy:
                light_lines += n_lines
    return sorted(kept[True] + kept[False], key=lambda d: d[0]["doc_id"])


def _image_row(ref: str, rng: np.random.Generator) -> dict:
    png, w, h, rot, boxes = fixtures._gen_image(rng)
    return {
        "media_ref": ref, "width": w, "height": h, "rot": rot, "png": png,
        "boxes": [{"x0": b[0], "y0": b[1], "x1": b[2], "y1": b[3], "text": b[4]}
                  for b in boxes],
    }


def _text_heavy_docs(seed: int, n_docs: int, n_image_docs: int):
    """n_docs interleaved documents of 1-24 text spans each (the flagship's
    light-document span count). n_image_docs of them, evenly spaced, also
    carry one image span, so about one span in 25,000 is an image."""
    stride = n_docs // n_image_docs
    pool_rng = np.random.default_rng([seed, 0, 2])
    pool = [fixtures._gen_text(pool_rng) for _ in range(TEXT_POOL)]
    docs = []
    for i in range(n_docs):
        rng = np.random.default_rng([seed, i, 1])
        doc_id = f"doc-{i:08d}"
        n_spans = int(rng.integers(1, 25))
        with_image = i % stride == 0 and i // stride < n_image_docs
        image_at = int(rng.integers(0, n_spans + 1)) if with_image else -1
        spans, media = [], []
        for k in range(n_spans + (image_at >= 0)):
            if k == image_at:
                ref = f"media://{doc_id}/{k}"
                media.append(_image_row(ref, rng))
                spans.append({"kind": "image", "text": "", "media_ref": ref, "offset": k})
            else:
                spans.append({"kind": "text", "text": pool[int(rng.integers(TEXT_POOL))],
                              "media_ref": "", "offset": k})
        perm = rng.permutation(len(spans))
        docs.append(({"doc_id": doc_id, "spans": [spans[j] for j in perm]}, media))
    return docs


def _write_extract(out_dir: str, docs) -> dict:
    """documents/, media/ and golden.parquet in write_corpus's layout."""
    doc_dir = os.path.join(out_dir, "documents")
    media_dir = os.path.join(out_dir, "media")
    os.makedirs(doc_dir)
    os.makedirs(media_dir)
    rows = [row for row, _ in docs]
    media = [m for _, ms in docs for m in ms]
    truth = {m["media_ref"]: m for m in media}
    golden = [fixtures.golden_extract(row, truth) for row in rows]

    per = -(-len(rows) // N_DOC_FILES)
    doc_files = []
    for f in range(0, len(rows), per):
        path = os.path.join(doc_dir, f"part-{f // per:05d}.parquet")
        pq.write_table(pa.Table.from_pylist(rows[f:f + per], schema=fixtures.DOCUMENTS_SCHEMA),
                       path)
        doc_files.append(path)
    n_buckets = fixtures.DEFAULT_MEDIA_BUCKETS
    buckets: dict[int, list] = {}
    for m in media:
        buckets.setdefault(fixtures.media_bucket(m["media_ref"], n_buckets), []).append(m)
    for b in range(n_buckets):
        pq.write_table(pa.Table.from_pylist(buckets.get(b, []), schema=fixtures.MEDIA_SCHEMA),
                       os.path.join(media_dir, f"bucket-{b:03d}.parquet"))
    golden_path = os.path.join(out_dir, "golden.parquet")
    pq.write_table(pa.Table.from_pylist(golden, schema=fixtures.OUTPUT_SCHEMA), golden_path)
    return {
        "doc_files": doc_files, "media_dir": media_dir, "golden_path": golden_path,
        "n_docs": len(rows), "n_pages": len(media),
        "n_spans": sum(len(r["spans"]) for r in rows),
    }


def generate(workload: str, seed: int, out_dir: str) -> dict:
    size = SIZES[workload]
    if workload == "media_seams":
        meta = _write_extract(out_dir, _media_seams_docs(seed, size))
    elif workload == "text_heavy":
        meta = _write_extract(
            out_dir, _text_heavy_docs(seed, size, TEXT_HEAVY_IMAGE_DOCS))
    else:
        m = fixtures.write_structure_corpus(out_dir, size, seed=seed)
        meta = {"refs_path": m["refs_path"], "media_dir": m["media_dir"],
                "golden_path": m["golden_path"], "n_buckets": m["n_buckets"],
                "n_docs": size, "n_pages": size}
    meta.update(workload=workload, seed=seed, size=size,
                encoding_version=fixtures.ENCODING_VERSION, gen_version=GEN_VERSION)
    return meta


def ensure(work: str, workload: str, seed: int) -> dict:
    """The cached corpus's meta, generating the corpus on a miss."""
    d = corpus_dir(work, workload, seed)
    meta_path = os.path.join(d, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return json.load(f)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    meta = generate(workload, seed, d)
    with open(meta_path + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(meta_path + ".tmp", meta_path)
    return meta


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    a = p.parse_args(argv)
    ensure(a.work, a.workload, a.seed)


if __name__ == "__main__":
    main()

"""Deduplication operators over the flat documents table.

Ray-Data-first designs (see /opt-documented public patterns: MinHash-LSH as
shingle->minhash->band-bucket groupby):

  exact_dedup      — content-hash in map_batches, then hash-partitioned
                     per-group keep-min(doc_id). The hash column (not the
                     text) is the shuffle key, so the exchange moves 8-byte
                     keys, not payloads.
  minhash_lsh      — per-batch vectorized shingle minhash signatures,
                     explode to (band, band_hash) rows, groupby bands ->
                     candidate pairs -> exact n-gram Jaccard verify.
  simhash          — 64-bit simhash per doc, bucket by 16-bit quadrants
                     (Hamming<=3 within quadrant match guarantee).
  embedding near-dup — cosine against hash-bucketed neighbors.

All per-batch math is numpy; shuffles are groupbys on small key columns.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd

_MERSENNE = (1 << 61) - 1


def md5_lower64_batch(strs) -> np.ndarray:
    """Lower 64 bits of each string's md5, as a uint64 array, exactly as
    DuckDB's ``md5_number_lower`` computes them (little-endian of digest
    bytes 8..16) — the oracle-parity feature hash: every query whose
    semantics depend on hash VALUES (simhash signatures, minhash
    permutations, fingerprints, md5 buckets) uses this so a DuckDB oracle
    can reproduce the numbers bit-for-bit.

    The md5 itself is necessarily one C call per string (hashlib),
    but everything around it is batched: digests concatenate into ONE
    buffer and the bytes-8..16 little-endian decode is a single
    ``np.frombuffer`` view (a per-item struct.unpack + int boxing would be
    the dominant Python overhead in hash-heavy stages).
    Callers with repeated inputs should ``pd.factorize`` first so each
    DISTINCT string hashes once."""
    md5 = hashlib.md5
    buf = b"".join(md5(s.encode()).digest() for s in strs)
    if not buf:
        return np.empty(0, dtype=np.uint64)
    # each digest is 16 bytes = two little-endian u64 words; lower-64 of
    # the md5 NUMBER (big-endian 128-bit) is bytes 8..16 = the odd words
    return np.frombuffer(buf, dtype="<u8")[1::2]


def md5_buckets(values, n: int) -> np.ndarray:
    """Each value's md5 bucket, the md5 lower 64 bits of str(value) mod n,
    as int64, hashed once per DISTINCT value (``pd.factorize``; a missing
    value hashes as its str, e.g. "None"). The one stable hash bucket of
    the query library: hash() varies by process and pd.util.hash_array by
    pandas version."""
    codes, uniq = pd.factorize(values, use_na_sentinel=False)
    return (md5_lower64_batch(str(u) for u in uniq)
            % np.uint64(n)).astype(np.int64)[codes]


def _norm_text(s: pd.Series) -> pd.Series:
    return s.fillna("").str.lower().str.replace(r"\s+", " ", regex=True).str.strip()


def content_hash(df: pd.DataFrame, col: str = "text") -> pd.DataFrame:
    """Exact-dup key: crc32(normalized text) (cheap, deterministic)."""
    t = _norm_text(df[col])
    df = df.copy()
    df["content_hash"] = np.fromiter(
        (zlib.crc32(x.encode()) for x in t), dtype=np.int64, count=len(t)
    )
    return df


def shingle_set(text: str, n: int = 3) -> np.ndarray:
    """Word n-gram shingles hashed to int64 (crc32)."""
    words = text.split()
    if len(words) < n:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]
    return np.unique(
        np.fromiter((zlib.crc32(g.encode()) for g in grams), dtype=np.int64, count=len(grams))
    )


def shingle_hashes_md5(text: str, n: int = 3) -> np.ndarray:
    """Distinct word n-gram shingles hashed by md5_lower64_batch (uint64).

    Same gram convention as ``shingle_set`` (whole text as one gram below n
    words, empty -> none), but DuckDB-reproducible: unnest + list_transform
    over ``string_split`` + ``md5_number_lower`` yields identical values."""
    words = text.split()
    if len(words) < n:
        grams = [" ".join(words)] if words else []
    else:
        grams = {" ".join(words[i:i + n]) for i in range(len(words) - n + 1)}
    if not grams:
        return np.empty(0, dtype=np.uint64)
    return np.unique(md5_lower64_batch(grams))


class MinHasher:
    """Stateful minhash signer (actor pool): permutation params built once.

    num_perm universal-hash permutations over a Mersenne prime; signature
    split into `bands` bands of `rows` rows for LSH banding.
    """

    def __init__(self, num_perm: int = 64, bands: int = 16, ngram: int = 3, seed: int = 7):
        assert num_perm % bands == 0
        rng = np.random.default_rng(seed)
        # a < 2^31 and shingle hashes < 2^32 keep a*h+b < 2^63 + 2^61: exact
        # in uint64 here and in the oracle's HUGEINT arithmetic
        self.a = rng.integers(1, 1 << 31, size=num_perm, dtype=np.int64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands
        self.ngram = ngram

    def signature(self, text: str) -> np.ndarray:
        # md5-based shingles (>>32: 32-bit domain) so a DuckDB oracle
        # reproduces signatures exactly (MINHASH_BANDS_SQL); every product
        # a*h+b < 2^63 + 2^61 is exact in uint64
        sh = shingle_hashes_md5(text, self.ngram) >> np.uint64(32)
        if len(sh) == 0:
            return np.full(self.num_perm, _MERSENNE, dtype=np.int64)
        a = self.a.astype(np.uint64)[:, None]
        b = self.b.astype(np.uint64)[:, None]
        v = (a * sh[None, :] + b) % np.uint64(_MERSENNE)
        return v.min(axis=1).astype(np.int64)

    def band_hashes(self, sig: np.ndarray) -> np.ndarray:
        """Collapse each band to one int64 bucket key: the md5 lower 64 bits
        of the comma-joined decimal band values (>>1 to stay in int64), which
        DuckDB reproduces via md5_number_lower(array_to_string(...))."""
        keys = (",".join(str(int(v)) for v in sig[i * self.rows:(i + 1) * self.rows])
                for i in range(self.bands))
        return (md5_lower64_batch(keys) >> np.uint64(1)).astype(np.int64)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        """map_batches: emit one row per (doc, band) — the LSH explode."""
        t = _norm_text(df["text"])
        ids, bands, hashes = [], [], []
        for doc_id, text in zip(df["doc_id"], t):
            bh = self.band_hashes(self.signature(text))
            ids.extend([doc_id] * self.bands)
            bands.extend(range(self.bands))
            hashes.extend(bh.tolist())
        return pd.DataFrame(
            {"doc_id": ids, "band": np.asarray(bands, np.int32), "band_hash": np.asarray(hashes, np.int64)}
        )


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def simhash64(text: str, ngram: int = 3) -> int:
    """64-bit simhash over distinct word n-gram md5 lower-64 features —
    DuckDB-reproducible (SIMHASH_BUCKETS_SQL computes the same bit votes
    from md5_number_lower of the same grams)."""
    x = shingle_hashes_md5(text, ngram)
    if len(x) == 0:
        return 0
    bits = ((x[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    votes = (2 * bits - 1).sum(axis=0)
    return int(((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash_batch(df: pd.DataFrame, ngram: int = 3) -> pd.DataFrame:
    t = _norm_text(df["text"])
    out = pd.DataFrame({"doc_id": df["doc_id"].values})
    sh = np.fromiter((simhash64(x, ngram) for x in t), dtype=np.uint64, count=len(t))
    out["simhash"] = sh.astype(np.int64)  # arrow-friendly
    # 4x16-bit quadrant keys: two docs with Hamming distance <= 3 share at
    # least one quadrant (pigeonhole) -> groupby candidate buckets
    for q in range(4):
        out[f"quad{q}"] = ((sh >> np.uint64(16 * q)) & np.uint64(0xFFFF)).astype(np.int64)
    return out


def cluster_pairs(pairs: list[tuple], all_ids=None) -> dict:
    """Union-find over verified duplicate pairs -> {id: cluster_rep} with
    the minimum member as representative. Driver-side final step over the
    (small) verified-pair set; at larger scale this becomes a few rounds of
    min-label propagation via groupby."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if str(ra) <= str(rb) else (rb, ra)
            parent[hi] = lo
    ids = set(parent)
    if all_ids is not None:
        ids |= set(all_ids)
    out = {}
    for x in ids:
        r = find(x)
        # path-compress to the minimum representative
        out[x] = r
    # second pass: representative = min member of each cluster
    clusters: dict = {}
    for x, r in out.items():
        clusters.setdefault(r, []).append(x)
    final = {}
    for members in clusters.values():
        rep = min(members)
        for m in members:
            final[m] = rep
    return final

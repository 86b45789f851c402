"""Top-k similarity search over an embedding column (list<float>).

  TopkScorer — the one actor-pool stage of every top-k ANN query. It holds
      the query ids and matrix (passed once per actor, never re-shipped per
      batch) and, per batch, emits each query's partial top-k
      (query_id, vec_id, score) rows; topk_reduce keeps the global top-k.
      The index supplies only the batch's score matrix and an optional
      candidate mask:

        brute_scores — exact cosine against every vector;
        lsh_scores   — cosine against the vectors in a probed
                       random-hyperplane bucket (approximate, shuffle-free);
        ivf_scores   — quantized dot against the vectors of the clusters
                       each query probes (ivf_parity_fit centroids);
        pq_scores    — product-quantization ADC sums (pq_parity_fit
                       codebooks), exact integer micro-units.

Cosine convention: vectors L2-normalized; zero vectors score 0.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..numeric import round_half_away


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def embedding_matrix(df: pd.DataFrame, col: str = "embedding") -> np.ndarray:
    return np.stack(df[col].to_numpy()).astype(np.float64)


class TopkScorer:
    """Actor-pool stage: `index(matrix, **fit)` is built once per actor and
    maps a batch to (scores (Q, B), candidate mask (Q, B) or None). The cut
    keeps each query's k best candidates in the SAME ordering as
    topk_reduce and the DuckDB oracles — round(6) desc, vec_id asc — so a
    rounded-equal pair straddling the k boundary keeps the vec_id the
    oracle keeps."""

    def __init__(self, ids, matrix, index, k: int = 10, **fit):
        self.qids = np.asarray(ids)
        self.score = index(np.asarray(matrix, dtype=np.float64), **fit)
        self.k = k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"query_id": pd.Series(dtype="int64"),
                 "vec_id": pd.Series(dtype="int64"),
                 "score": pd.Series(dtype="float64")}
            )
        scores, mask = self.score(df)
        rounded = round_half_away(scores, 6)
        vec_ids = df["vec_id"].to_numpy()
        everyone = np.arange(len(vec_ids))
        keep = []
        for qi in range(len(self.qids)):
            cand = everyone if mask is None else np.flatnonzero(mask[qi])
            keep.append(cand[np.lexsort((vec_ids[cand], -rounded[qi, cand]))[: self.k]])
        return pd.DataFrame({
            "query_id": np.repeat(self.qids, [len(c) for c in keep]),
            "vec_id": np.concatenate([vec_ids[c] for c in keep]),
            "score": np.concatenate([rounded[qi, c] for qi, c in enumerate(keep)]),
        })


def topk_reduce(df: pd.DataFrame, k: int = 10) -> pd.DataFrame:
    """Final reduce over partial top-k rows (small: Q * k * n_batches).

    Ranks on scores ROUNDED to 6 decimals with vec_id tiebreak — the same
    ordering the DuckDB oracle's QUALIFY uses, so boundary ties resolve
    identically on both sides."""
    df = df.copy()
    df["score"] = round_half_away(df["score"], 6)
    df = df.sort_values(["query_id", "score", "vec_id"], ascending=[True, False, True])
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)


def brute_scores(qm: np.ndarray):
    """Exact cosine of every query against every vector of the batch."""
    qm = _normalize(qm)
    return lambda df: (qm @ _normalize(embedding_matrix(df)).T, None)


class HyperplaneLsh:
    """Random-hyperplane signature (nbits-bit bucket id) per vector."""

    def __init__(self, dim: int, nbits: int = 12, seed: int = 11):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((nbits, dim))
        self.nbits = nbits

    def bucket(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes.T) > 0
        return (bits.astype(np.uint64) << np.arange(self.nbits, dtype=np.uint64)).sum(axis=1).astype(np.int64)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bucket"] = self.bucket(_normalize(embedding_matrix(df)))
        return df


def lsh_scores(qm: np.ndarray, nbits: int, multiprobe: bool):
    """Cosine against only the vectors whose bucket some query probes: its
    own bucket and, with multiprobe, every 1-bit-flip neighbour (Lv et al.
    2007). The probed set is the union over the queries, as in the
    oracle; the queries are normalized twice, as they always were."""
    lsh = HyperplaneLsh(qm.shape[1], nbits=nbits)
    qm = _normalize(qm)
    probed = {int(b) for b in lsh.bucket(qm)}
    if multiprobe:
        probed |= {b ^ (1 << i) for b in probed for i in range(nbits)}
    probed = np.array(sorted(probed))
    qm = _normalize(qm)

    def score(df: pd.DataFrame):
        m = embedding_matrix(df)
        hit = np.isin(lsh.bucket(m), probed)
        scores = np.zeros((len(qm), len(m)))
        scores[:, hit] = qm @ _normalize(m[hit]).T
        return scores, np.broadcast_to(hit, scores.shape)

    return score


# ---------------------------------------------------------------------------
# Oracle-parity IVF: every arithmetic step quantized to 6 decimals so the
# whole index build + search is reproducible bit-for-bit in ANSI SQL
# (see queries.ANN_IVF_SQL). The fit is deterministic: init = the K
# lowest-vec_id sample vectors, then fixed Lloyd iterations over quantized
# unit vectors. Cross-engine float parity: sums/means differ from SQL only
# in final-ulp error, and every intermediate is rounded half-away to 6
# decimals immediately after, so both engines carry identical doubles.
# ---------------------------------------------------------------------------

def quantized_unit(m: np.ndarray) -> np.ndarray:
    """L2-normalize rows then round half-away to 6 decimals (float64)."""
    m = np.asarray(m, dtype=np.float64)
    n = np.sqrt((m * m).sum(axis=1, keepdims=True))
    return round_half_away(m / n, 6)


def nearest_centroid(nv: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Per row, the centroid of highest round(dot, 6), lowest cluster id
    on ties (numpy argmax returns the first max — identical to SQL's
    ORDER BY sim DESC, cid ASC)."""
    return round_half_away(nv @ centroids.T, 6).argmax(axis=1)


def ivf_parity_fit(nv_sample: np.ndarray, k: int = 8, iters: int = 2) -> np.ndarray:
    """Deterministic Lloyd over quantized unit vectors.

    nv_sample must be quantized_unit() rows ordered by vec_id ascending.
    Init: first k rows. Assignment: nearest_centroid. Update:
    quantized_unit of the element-wise member mean; empty clusters keep
    their centroid.
    """
    c = nv_sample[: min(k, len(nv_sample))].copy()
    for _ in range(iters):
        assign = nearest_centroid(nv_sample, c)
        for j in range(len(c)):
            members = nv_sample[assign == j]
            if len(members):
                # Round the raw mean to 6 decimals BEFORE normalizing so the
                # numpy pairwise sum and SQL sequential avg land on the same
                # grid point (last-ulp divergence otherwise cascades through
                # the normalize→round step at exact tie boundaries).
                m = round_half_away(members.mean(axis=0), 6)
                c[j] = quantized_unit(m[None, :])[0]
    return c


def ivf_parity_probe(nq: np.ndarray, centroids: np.ndarray, nprobe: int) -> list[np.ndarray]:
    """Per-query nprobe nearest clusters by (round(dot,6) DESC, cid ASC)."""
    sims = round_half_away(nq @ centroids.T, 6)
    out = []
    for qi in range(len(nq)):
        order = np.lexsort((np.arange(centroids.shape[0]), -sims[qi]))[:nprobe]
        out.append(order)
    return out


def ivf_scores(qm: np.ndarray, centroids: np.ndarray, nprobe: int):
    """Dot of quantized unit vectors, each query against only the vectors
    whose final-centroid cluster it probes (ivf_parity_probe)."""
    nq = quantized_unit(qm)
    probes = ivf_parity_probe(nq, centroids, nprobe)

    def score(df: pd.DataFrame):
        nv = quantized_unit(embedding_matrix(df))
        cluster = nearest_centroid(nv, centroids)
        mask = np.stack([np.isin(cluster, p) for p in probes])
        scores = np.zeros(mask.shape)
        for qi, hit in enumerate(mask):
            scores[qi, hit] = nq[qi] @ nv[hit].T
        return scores, mask

    return score


# ---------------------------------------------------------------------------
# Oracle-parity PRODUCT QUANTIZATION (Jegou, Douze, Schmid 2011, public):
# per-subspace deterministic Lloyd on the round6 grid (the same technique
# as ivf_parity_fit, with L2 distance and un-normalized subvector means),
# so the whole codebook build + encode + ADC scoring reproduces bit-for-bit
# in ANSI SQL (queries._pq_sql). ADC sums run in integer micro-units, so
# they are exact and summation-order independent across engines.
# ---------------------------------------------------------------------------

def nearest_codeword(sv: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Per subvector, the codeword of lowest round(L2, 6), lowest code on
    ties (numpy argmin-first == SQL ORDER BY dist, cid)."""
    return round_half_away(
        np.sqrt(((sv[:, None, :] - words[None, :, :]) ** 2).sum(-1)), 6).argmin(axis=1)


def pq_parity_fit(nv_sample: np.ndarray, m_sub: int = 4, k_codes: int = 8,
                  iters: int = 2) -> np.ndarray:
    """Per-subspace deterministic Lloyd codebooks: (m_sub, k_codes, sd).

    nv_sample: quantized_unit rows ordered by vec_id. Init per subspace =
    first k_codes subvectors; assignment = nearest_codeword; update =
    member mean rounded to 6 (NOT re-normalized — subvectors are not
    unit); empty codes keep their word."""
    d = nv_sample.shape[1]
    if d % m_sub != 0:
        raise ValueError(
            f"pq_parity_fit: dim {d} not divisible by m_sub={m_sub}; a "
            f"silent truncation would drop trailing dimensions from every "
            f"codebook and encode.")
    if len(nv_sample) < k_codes:
        raise ValueError(
            f"pq_parity_fit: sample has {len(nv_sample)} vectors < k_codes="
            f"{k_codes}; PQ codebooks need at least k_codes sample rows "
            f"(use brute-force ann_topk on corpora this small).")
    sd = d // m_sub
    books = np.empty((m_sub, k_codes, sd), dtype=np.float64)
    for m in range(m_sub):
        sv = nv_sample[:, m * sd:(m + 1) * sd]
        c = sv[: k_codes].copy()
        for _ in range(iters):
            assign = nearest_codeword(sv, c)
            for j in range(len(c)):
                mem = sv[assign == j]
                if len(mem):
                    c[j] = round_half_away(mem.mean(axis=0), 6)
        books[m] = c
    return books


def pq_encode(nv: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Nearest-codeword indices per subspace: (N, m_sub) int64."""
    m_sub, _k, sd = books.shape
    codes = np.empty((len(nv), m_sub), dtype=np.int64)
    for m in range(m_sub):
        codes[:, m] = nearest_codeword(nv[:, m * sd:(m + 1) * sd], books[m])
    return codes


def pq_scores(qm: np.ndarray, books: np.ndarray):
    """Asymmetric-distance scores: each batch's vectors are encoded to PQ
    codes and scored by one int64 gather + sum per subspace from a lookup
    table — never a matmul against raw vectors.

    The LUT is built ONCE per actor: entry [q, m, c] = round6(dot(q_m,
    codeword)) in integer micro-units, so the ADC sum over subspaces is
    exact integer math (order-independent across engines — the rev_c4
    cents trick applied to similarities)."""
    nq = quantized_unit(qm)
    m_sub, k_codes, sd = books.shape
    lut = np.empty((len(nq), m_sub, k_codes), dtype=np.int64)
    for m in range(m_sub):
        lut[:, m, :] = np.rint(
            round_half_away(nq[:, m * sd:(m + 1) * sd] @ books[m].T, 6) * 1e6
        ).astype(np.int64)
    m_idx = np.arange(m_sub)

    def score(df: pd.DataFrame):
        codes = pq_encode(quantized_unit(embedding_matrix(df)), books)
        return lut[:, m_idx, codes].sum(axis=2) / 1e6, None

    return score

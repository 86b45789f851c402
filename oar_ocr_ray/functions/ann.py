"""Similarity search over an embedding column (list<float>).

  brute_force_topk — baseline: per-batch numpy matmul of the batch's
      embedding matrix against a BROADCAST query matrix (ray.put once, read
      per actor — never re-shipped per batch), emitting per-batch partial
      top-k; a final tiny reduce keeps global top-k per query. Exact.

  lsh_topk — scale path: random-hyperplane LSH bucket per vector computed in
      map_batches; queries only score vectors in their own (multi-probe)
      buckets. Approximate, shuffle-free (bucket id is a narrow column).

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


class BruteForceScorer:
    """Actor-pool stage: holds the (broadcast) query matrix; emits partial
    top-k (query_id, vec_id, score) rows per batch."""

    def __init__(self, queries_ref, k: int = 10):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.qids = np.asarray(q["ids"])
        self.qm = _normalize(np.asarray(q["matrix"], dtype=np.float64))
        self.k = k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:  # bucket-filtered blocks can be empty
            return pd.DataFrame(
                {"query_id": pd.Series(dtype="int64"),
                 "vec_id": pd.Series(dtype="int64"),
                 "score": pd.Series(dtype="float64")}
            )
        m = _normalize(embedding_matrix(df))
        scores = self.qm @ m.T  # (Q, B)
        vec_ids = df["vec_id"].to_numpy()
        k = min(self.k, scores.shape[1])
        # Per-batch cut uses the SAME ordering as topk_reduce and the DuckDB
        # oracle — round(6) desc, vec_id asc — so a rounded-equal pair
        # straddling the k boundary keeps the vec_id the oracle keeps.
        rounded = round_half_away(scores, 6)
        out_ids = np.empty((scores.shape[0], k), dtype=vec_ids.dtype)
        out_scores = np.empty((scores.shape[0], k), dtype=np.float64)
        for qi in range(scores.shape[0]):
            order = np.lexsort((vec_ids, -rounded[qi]))[:k]
            out_ids[qi] = vec_ids[order]
            out_scores[qi] = scores[qi, order]
        rows = {
            "query_id": np.repeat(self.qids, k),
            "vec_id": out_ids.ravel(),
            "score": out_scores.ravel(),
        }
        return pd.DataFrame(rows)


def topk_reduce(df: pd.DataFrame, k: int = 10) -> pd.DataFrame:
    """Final reduce over partial top-k rows (small: Q * k * n_batches).

    Ranks on scores ROUNDED to 6 decimals with vec_id tiebreak — the same
    ordering the DuckDB oracle's QUALIFY uses, so boundary ties resolve
    identically on both sides."""
    df = df.copy()
    df["score"] = round_half_away(df["score"], 6)
    df = df.sort_values(["query_id", "score", "vec_id"], ascending=[True, False, True])
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)


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
        df["bucket"] = self.bucket(embedding_matrix(df))
        return df


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


def ivf_parity_fit(nv_sample: np.ndarray, k: int = 8, iters: int = 2) -> np.ndarray:
    """Deterministic Lloyd over quantized unit vectors.

    nv_sample must be quantized_unit() rows ordered by vec_id ascending.
    Init: first k rows. Assignment: argmax of round(dot, 6) with lowest-
    cluster-id tiebreak (numpy argmax returns the first max — identical to
    SQL's ORDER BY sim DESC, cid ASC). Update: quantized_unit of the
    element-wise member mean; empty clusters keep their centroid.
    """
    c = nv_sample[: min(k, len(nv_sample))].copy()
    for _ in range(iters):
        sims = round_half_away(nv_sample @ c.T, 6)
        assign = sims.argmax(axis=1)
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


class IvfParityScorer:
    """Actor-pool stage: assigns each batch vector to its final-centroid
    cluster, then scores it against only the queries probing that cluster.
    Emits partial top-k (query_id, vec_id, score) rows; scores are
    round(dot of quantized unit vectors, 6) for oracle parity."""

    def __init__(self, queries_ref, centroids_ref, probe_lists, k: int = 10):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.qids = np.asarray(q["ids"])
        self.qm = np.asarray(q["matrix"], dtype=np.float64)  # already quantized
        self.cent = ray.get(centroids_ref) if not isinstance(centroids_ref, np.ndarray) else centroids_ref
        self.probe = [np.asarray(p) for p in probe_lists]  # per query, tiny
        self.k = k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"query_id": pd.Series(dtype="int64"),
             "vec_id": pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64")}
        )
        if len(df) == 0:
            return empty
        nv = quantized_unit(embedding_matrix(df))
        cluster = round_half_away(nv @ self.cent.T, 6).argmax(axis=1)
        vec_ids = df["vec_id"].to_numpy()
        out = []
        for qi in range(len(self.qids)):
            mask = np.isin(cluster, self.probe[qi])
            if not mask.any():
                continue
            ids = vec_ids[mask]
            scores = round_half_away(self.qm[qi] @ nv[mask].T, 6)
            kk = min(self.k, len(ids))
            order = np.lexsort((ids, -scores))[:kk]
            out.append(pd.DataFrame(
                {"query_id": np.full(kk, self.qids[qi]),
                 "vec_id": ids[order], "score": scores[order]}
            ))
        return pd.concat(out, ignore_index=True) if out else empty


# ---------------------------------------------------------------------------
# Oracle-parity PRODUCT QUANTIZATION (Jegou, Douze, Schmid 2011, public):
# per-subspace deterministic Lloyd on the round6 grid (the same technique
# as ivf_parity_fit, with L2 distance and un-normalized subvector means),
# so the whole codebook build + encode + ADC scoring reproduces bit-for-bit
# in ANSI SQL (queries._pq_sql). ADC sums run in integer micro-units, so
# they are exact and summation-order independent across engines.
# ---------------------------------------------------------------------------

def pq_parity_fit(nv_sample: np.ndarray, m_sub: int = 4, k_codes: int = 8,
                  iters: int = 2) -> np.ndarray:
    """Per-subspace deterministic Lloyd codebooks: (m_sub, k_codes, sd).

    nv_sample: quantized_unit rows ordered by vec_id. Init per subspace =
    first k_codes subvectors; assignment = argmin of round(L2, 6) with
    lowest-code tiebreak (numpy argmin-first == SQL ORDER BY dist, cid);
    update = member mean rounded to 6 (NOT re-normalized — subvectors are
    not unit); empty codes keep their word."""
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
            dist = round_half_away(
                np.sqrt(((sv[:, None, :] - c[None, :, :]) ** 2).sum(-1)), 6)
            assign = dist.argmin(axis=1)
            for j in range(len(c)):
                mem = sv[assign == j]
                if len(mem):
                    c[j] = round_half_away(mem.mean(axis=0), 6)
        books[m] = c
    return books


def pq_encode(nv: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Nearest-codeword indices per subspace: (N, m_sub) int64, same
    round6-L2 + lowest-code rule as the fit."""
    m_sub, _k, sd = books.shape
    codes = np.empty((len(nv), m_sub), dtype=np.int64)
    for m in range(m_sub):
        sv = nv[:, m * sd:(m + 1) * sd]
        dist = round_half_away(
            np.sqrt(((sv[:, None, :] - books[m][None, :, :]) ** 2).sum(-1)), 6)
        codes[:, m] = dist.argmin(axis=1)
    return codes


class PqAdcScorer:
    """Actor-pool stage: encode each batch's vectors to PQ codes, score
    every query against the codes via the asymmetric-distance lookup
    table (one int64 gather + sum per subspace — never a matmul against
    raw vectors), emit per-batch partial top-k rows.

    The LUT is built ONCE per actor from the broadcast codebooks: entry
    [q, m, c] = round6(dot(q_m, codeword)) in integer micro-units, so the
    ADC sum over subspaces is exact integer math (order-independent
    across engines — the rev_c4 cents trick applied to similarities)."""

    def __init__(self, queries_ref, books_ref, k: int = 10):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.qids = np.asarray(q["ids"])
        qm = np.asarray(q["matrix"], dtype=np.float64)  # quantized units
        self.books = ray.get(books_ref) if not isinstance(books_ref, np.ndarray) else books_ref
        m_sub, k_codes, sd = self.books.shape
        self.lut = np.empty((len(qm), m_sub, k_codes), dtype=np.int64)
        for m in range(m_sub):
            qs = qm[:, m * sd:(m + 1) * sd]
            self.lut[:, m, :] = np.rint(
                round_half_away(qs @ self.books[m].T, 6) * 1e6
            ).astype(np.int64)
        self.k = k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"query_id": pd.Series(dtype="int64"),
             "vec_id": pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64")}
        )
        if len(df) == 0:
            return empty
        nv = quantized_unit(embedding_matrix(df))
        codes = pq_encode(nv, self.books)
        vec_ids = df["vec_id"].to_numpy()
        m_idx = np.arange(codes.shape[1])[None, :]
        out = []
        for qi in range(len(self.qids)):
            micro = self.lut[qi][m_idx, codes].sum(axis=1)  # exact int64
            kk = min(self.k, len(vec_ids))
            order = np.lexsort((vec_ids, -micro))[:kk]
            out.append(pd.DataFrame(
                {"query_id": np.full(kk, self.qids[qi]),
                 "vec_id": vec_ids[order],
                 "score": round_half_away(micro[order] / 1e6, 6)}
            ))
        return pd.concat(out, ignore_index=True) if out else empty

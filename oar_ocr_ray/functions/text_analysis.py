"""Text analysis stages for training-data pipelines.

All of these run as vectorized `map_batches` transforms over the flat
`documents(doc_id, text, lang, source, n_chars)` table; stateful variants
(compiled regexes, stopword tables) are callable classes = actor pools.
The token split / quality definitions are written to be exactly expressible
in ANSI SQL so each has a DuckDB oracle (see oar_ocr_ray.queries).

`word_ngrams` is the one word tokenizer of the text-curation queries and
of `LangId`: lowercase, split on whitespace, explode to (row, pos, gram).
Three definitions stay apart because their oracles pin them:
`token_count` (regex `\\s+` split), `repetition_score` (split on " ") and
the Gopher cascade in queries.py (no lowercasing).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..numeric import round_half_away

TOKEN_RE = r"\s+"

# Tiny per-language stopword profiles for the n-gram/stopword language-ID
# heuristic. Deterministic, dependency-free.
LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for", "with", "was", "on"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "den", "nicht", "ein", "eine", "zu"},
    "fr": {"le", "la", "les", "et", "de", "des", "un", "une", "est", "que", "pour", "dans"},
    "es": {"el", "la", "los", "las", "y", "de", "que", "un", "una", "es", "por", "con"},
}


def word_ngrams(text: pd.Series, n: int) -> pd.DataFrame:
    """(row, pos, gram) for every word n-gram of each text: words are
    `text.lower().split()` (a missing text has none), the SQL oracles'
    regexp_split_to_array(lower(trim(text)), '\\s+') with empty tokens
    dropped. `row` is the text's position in `text`, `pos` the 1-based
    index of the gram's first word (= the oracles' renumbered row_number).
    One shifted concat over the batch's flat word array, no per-row
    Python; a window is kept only when its last word is in the same text."""
    toks = text.fillna("").str.lower().str.split()
    lens = toks.str.len().to_numpy(dtype=np.int64)
    total = int(lens.sum())
    words = toks.explode().dropna().to_numpy(dtype=object)
    row = np.repeat(np.arange(len(lens)), lens)
    pos = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens) + 1
    m = max(total - n + 1, 0)
    grams = words[:m]
    for i in range(1, n):
        grams = grams + " " + words[i:m + i]
    valid = row[:m] == row[n - 1:n - 1 + m]
    return pd.DataFrame({"row": row[:m][valid], "pos": pos[:m][valid],
                         "gram": grams[valid]})


def token_count(df: pd.DataFrame, col: str = "text") -> pd.DataFrame:
    """Whitespace token count; '' counts 0. SQL-oracle-compatible:
    len(regexp_split_to_array(trim(text), '\\s+')) with empty-string guard."""
    t = df[col].fillna("").str.strip()
    n = t.str.split(TOKEN_RE).str.len()
    n = n.where(t != "", 0)
    df = df.copy()
    df["n_tokens"] = n.astype("int64")
    return df


def quality_score(df: pd.DataFrame, col: str = "text") -> pd.DataFrame:
    """Length / punctuation / uppercase / whitespace ratios + a composite.

    Each ratio is an exact character-class count over the raw text so the
    DuckDB oracle (length + regexp_replace lengths) matches bit-for-bit
    after rounding.
    """
    t = df[col].fillna("")
    n = t.str.len().astype("int64")
    alpha = t.str.count(r"[A-Za-z]").astype("int64")
    digit = t.str.count(r"[0-9]").astype("int64")
    punct = t.str.count(r"[^\w\s]").astype("int64")
    space = t.str.count(r"\s").astype("int64")
    denom = n.replace(0, 1)
    df = df.copy()
    df["n_chars_m"] = n
    df["alpha_ratio"] = round_half_away(alpha / denom, 6)
    df["digit_ratio"] = round_half_away(digit / denom, 6)
    df["punct_ratio"] = round_half_away(punct / denom, 6)
    df["space_ratio"] = round_half_away(space / denom, 6)
    return df


class LangId:
    """Stopword-vote language ID (actor-pool stage: profiles compiled once).

    Scores each language by the fraction of whitespace-lowercase tokens in
    its stopword set; 'und' (unknown) when the best score is below
    min_score. Deterministic; ties broken by language-code order.

    Fully vectorized: one `word_ngrams(text, 1)` explode, one isin() per
    language, scatter-add into a (rows x langs) count matrix — no per-row
    Python. SQL-oracle-parity: counts/len(tokens) with first-max tie order
    de < en < es < fr, threshold on the unrounded best score.
    """

    def __init__(self, min_score: float = 0.03):
        self.min_score = min_score
        self.profiles = sorted(LANG_PROFILES.items())  # deterministic order
        # dtype=object: a fixed-width '<U2' array would truncate 'und'->'un'
        self.codes = np.array([c for c, _ in self.profiles], dtype=object)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        words = word_ngrams(df["text"], 1)
        pos = words["row"].to_numpy()
        n = np.bincount(pos, minlength=len(df))
        counts = np.zeros((len(df), len(self.profiles)), dtype=np.int64)
        for k, (_, sw) in enumerate(self.profiles):
            np.add.at(counts[:, k], pos, words["gram"].isin(sw).to_numpy())
        scores = counts / np.maximum(n, 1)[:, None]
        best_idx = scores.argmax(axis=1)  # first max = language-code order
        best = scores[np.arange(len(df)), best_idx]
        pred = self.codes[best_idx].copy()
        pred[best < self.min_score] = "und"
        out = df.copy()
        out["pred_lang"] = pred
        out["lang_score"] = round_half_away(best, 6)
        return out


def fingerprint(df: pd.DataFrame, col: str = "text", window: int = 8) -> pd.DataFrame:
    """Document fingerprint: md5 lower 64 bits of the full
    whitespace-normalized text plus a winnowing-style min over rolling `window`-char md5 hashes
    (whole string when shorter) — a cheap content fingerprint for near-dup
    candidate grouping, exactly reproducible by the DuckDB oracle
    (FINGERPRINTS_SQL: md5_number_lower(substr(txt, i, window))).

    Vectorized shape: all rolling windows of the batch flatten into one
    array, ``pd.factorize`` collapses repeats (8-char windows of natural
    text are heavily Zipfian) so each DISTINCT window is md5'd once, and
    the per-doc min is one ``np.minimum.reduceat`` — no per-window Python
    beyond the required hashlib call per distinct window."""
    from .dedup import md5_lower64_batch

    texts = df[col].fillna("").str.replace(r"\s+", " ", regex=True).str.strip()
    full = (md5_lower64_batch(texts) >> np.uint64(1)).astype(np.int64)

    wins: list[str] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        if len(t) <= window:
            wins.append(t)
            counts[i] = 1
        else:
            k = len(t) - window + 1
            wins.extend(t[j:j + window] for j in range(k))
            counts[i] = k
    codes, uniq = pd.factorize(np.asarray(wins, dtype=object))
    hv = (md5_lower64_batch(uniq) >> np.uint64(1)).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    mins = (np.minimum.reduceat(hv[codes], offsets)
            if len(codes) else np.empty(0, dtype=np.int64))

    out = df.copy()
    out["fp_full"] = full
    out["fp_min_shingle"] = mins
    return out


def repetition_score(df: pd.DataFrame, col: str = "text") -> pd.DataFrame:
    """Gopher-style repetition metrics (Rae et al. 2021, App. A1.1 repeated
    n-gram filters — public): duplicate-word ratio (1 - distinct/total) and
    the fraction of bigram occurrences taken by the single most frequent
    bigram. Fully vectorized: one explode over space-split tokens, C-level
    groupbys — no per-row Python. Rounded half-away(6) for oracle parity.
    """
    t = df[col].fillna("").str.split(" ")
    counts = t.str.len().to_numpy(dtype=np.int64)
    doc_idx = np.repeat(np.arange(len(df)), counts)
    words = np.concatenate(t.to_numpy()) if len(df) else np.array([], dtype=object)
    ex = pd.DataFrame({"d": doc_idx, "w": words})
    n_distinct = ex.groupby("d")["w"].nunique().reindex(
        np.arange(len(df)), fill_value=0).to_numpy(dtype=np.int64)

    same = doc_idx[1:] == doc_idx[:-1] if len(doc_idx) else np.zeros(0, dtype=bool)
    bg = pd.DataFrame({
        "d": doc_idx[:-1][same],
        "b": pd.Series(words[:-1][same]) + " " + pd.Series(words[1:][same]),
    })
    per = bg.groupby(["d", "b"]).size().groupby(level=0).agg(["max", "sum"])
    top_c = per["max"].reindex(np.arange(len(df)), fill_value=0).to_numpy(dtype=np.float64)
    n_bg = per["sum"].reindex(np.arange(len(df)), fill_value=0).to_numpy(dtype=np.float64)

    out = df.copy()
    nw = counts.astype(np.float64)
    out["n_words"] = counts
    out["n_distinct"] = n_distinct
    out["dup_word_ratio"] = round_half_away(
        np.where(counts > 0, 1.0 - n_distinct / np.where(counts > 0, nw, 1.0), 0.0), 6)
    out["top_bigram_ratio"] = round_half_away(
        np.where(n_bg > 0, top_c / np.where(n_bg > 0, n_bg, 1.0), 0.0), 6)
    return out

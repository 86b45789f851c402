"""Window aggregates over the `events` stream table.

Ray Data has no event-time windowing; the reference is strictly batch too
(SURVEY.md §2.9). These express windows the Ray-idiomatic way: partition by
key, order by ts within the group, window with vectorized pandas inside
`map_groups` — ordering assumption is intra-group only.
"""

from __future__ import annotations

import pandas as pd


def tumbling_window(df: pd.DataFrame, minutes: int = 60) -> pd.DataFrame:
    """Per (event_type, window_start): count + sum(value). Pre-aggregates
    inside each batch (partial), so the groupby that follows only shuffles
    one row per (type, window, batch) — the combiner pattern."""
    w = df["ts"].dt.floor(f"{minutes}min")
    g = (
        df.assign(window_start=w)
        .groupby(["event_type", "window_start"], sort=False, as_index=False)
        .agg(n_events=("event_id", "count"), sum_value=("value", "sum"))
    )
    return g


def sessionize_partition(g: pd.DataFrame, gap_minutes: int = 30) -> pd.DataFrame:
    """Sessionize EVERY user in one coarse partition with a single
    vectorized pass: sort by (user_id, ts, event_id), flag a session break
    on user change OR gap > gap_minutes, cumsum to session ids, one pandas
    groupby: one Python invocation per partition instead of per user."""
    g = g.sort_values(["user_id", "ts", "event_id"])
    new_user = g["user_id"].ne(g["user_id"].shift())
    gap = g["ts"].diff() > pd.Timedelta(minutes=gap_minutes)
    sid = (new_user | gap).cumsum()
    out = (
        g.assign(_sid=sid)
        .groupby("_sid", sort=True)
        .agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("event_id", "count"),
            sum_value=("value", "sum"),
        )
        .reset_index(drop=True)
    )
    return out[["user_id", "session_start", "session_end", "n_events", "sum_value"]]


def sliding_window(df: pd.DataFrame, size_minutes: int = 60, hop_minutes: int = 15) -> pd.DataFrame:
    """Per (event_type, window_start) over sliding windows of `size` hopping
    by `hop`: each event contributes to size/hop windows. Partial-aggregate
    per batch (combiner), exact alignment: window starts are epoch-aligned
    multiples of the hop."""
    assert size_minutes % hop_minutes == 0
    k = size_minutes // hop_minutes
    hop = pd.Timedelta(minutes=hop_minutes)
    base = df["ts"].dt.floor(f"{hop_minutes}min")
    frames = []
    for i in range(k):
        frames.append(
            pd.DataFrame(
                {
                    "event_type": df["event_type"].to_numpy(),
                    "window_start": (base - i * hop).to_numpy(),
                    "n_events": 1,
                    "sum_value": df["value"].to_numpy(),
                }
            )
        )
    allf = pd.concat(frames, ignore_index=True)
    return allf.groupby(["event_type", "window_start"], sort=False, as_index=False).agg(
        n_events=("n_events", "sum"), sum_value=("sum_value", "sum")
    )

"""Text-span processing: boilerplate strip, whitespace normalize, smart join.

The boilerplate-strip path is the Ray-idiomatic analogue of the reference's
text assembly/cleanup semantics:
  - /root/reference/src/oarocr/stitching.rs:603-697 sort_and_join_texts
    (smart joining with needs_space_after, paragraph-break heuristic,
    trailing-whitespace trim);
  - /root/reference/src/oarocr/stitching.rs:731-733 needs_space_after
    (space only after ASCII letters — CJK concatenates);
  - empty/low-score text filtering (/root/reference/src/oarocr/structure.rs:2200).

`strip_boilerplate` is the per-string reference implementation (used by the
golden oracle); `strip_boilerplate_series` is the vectorized pandas version
used inside `map_batches` — tests assert they agree byte-for-byte.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

# Rule-based boilerplate blocklist (nav / footer / cookie chrome), the
# small-side "lookup table" of this pipeline. At cluster scale this would be
# broadcast via ray.put once; it is a compiled regex constant here.
BOILERPLATE_PATTERNS = [
    r"home\s*\|\s*about\s*\|\s*contact",
    r"skip to (?:main )?content",
    r"(?:main )?menu",
    r"navigation",
    r"sign (?:in|up)\s*\|?\s*(?:log ?in|register)?",
    r"log ?in",
    r"subscribe to our newsletter",
    r"accept (?:all )?cookies",
    r"cookie policy",
    r"privacy policy\s*(?:\|\s*terms of service)?",
    r"terms of service",
    r"all rights reserved\.?",
    r"©\s*\d{4}.*",
    r"copyright\s*\d{4}.*",
    r"share (?:this|on).*",
    r"follow us on.*",
    r"related articles?:?",
    r"advertisement",
    r"back to top",
    r"\[\s*ad\s*\]",
]

_BOILER_FULL = re.compile(
    r"^\s*(?:" + "|".join(BOILERPLATE_PATTERNS) + r")\s*$",
    re.IGNORECASE,
)
# multiline variant for the vectorized path: match whole boilerplate lines
# (trailing [\r] so CRLF inputs strip identically to the scalar path, whose
# \s*$ consumes the \r)
_BOILER_LINE_ML = re.compile(
    r"(?im)^[ \t]*(?:" + "|".join(BOILERPLATE_PATTERNS) + r")[ \t\r]*$"
)
_WS = re.compile(r"[ \t\r\f\v]+")
_NL_WS = re.compile(r"[ \t]*\n[ \t]*")
_MULTI_NL = re.compile(r"\n{2,}")


def is_boilerplate_line(line: str) -> bool:
    return bool(_BOILER_FULL.match(line))


def strip_boilerplate(text: str) -> str:
    """Per-string reference implementation (golden-oracle path).

    Rules: drop lines matching the boilerplate blocklist, collapse runs of
    horizontal whitespace to one space, trim each line, drop empty lines,
    join surviving lines with '\n', trim the result.
    """
    if not text:
        return ""
    out_lines = []
    for line in text.split("\n"):
        if _BOILER_FULL.match(line):
            continue
        norm = _WS.sub(" ", line).strip()
        if norm:
            out_lines.append(norm)
    return "\n".join(out_lines)


def strip_boilerplate_series(s: pd.Series) -> pd.Series:
    """Vectorized pandas equivalent of `strip_boilerplate` (hot path)."""
    s = s.fillna("")
    s = s.str.replace(_BOILER_LINE_ML, "", regex=True)
    s = s.str.replace(_WS, " ", regex=True)
    s = s.str.replace(_NL_WS, "\n", regex=True)
    s = s.str.replace(_MULTI_NL, "\n", regex=True)
    return s.str.strip()


# RE2 class equal to Python re's Unicode \s without \n (a line never
# holds one): ASCII whitespace + the file separators \x1c-\x1f + NEL \x85 +
# space separators \p{Zs} (NBSP, em/en spaces, ideographic space, ...) +
# line/paragraph separators. RE2's own \s is ASCII-only, which silently
# diverges from the Python-re golden implementations on e.g. NBSP inside
# a boilerplate line.
_LINE_WS = r"\t\v\f\r\x1c-\x1f \x85\p{Zs}\x{2028}\x{2029}"
_RE2_BOILER_LINE = (r"(?im)^[" + _LINE_WS + "]*(?:"
                    + "|".join(BOILERPLATE_PATTERNS).replace(r"\s", "[" + _LINE_WS + "]")
                    + ")[" + _LINE_WS + "]*$")
# the rest of _WS's job: a lone space is already what it would become
_RE2_WS = r"[ \t\r\f\v]{2,}|[\t\r\f\v]"
# one pass for the line trims and the empty lines: whitespace around a
# newline and any newlines after it; a bare "\n" is left alone
_RE2_LINE_BREAK = ("[" + _LINE_WS + r"]+\n[\n" + _LINE_WS + r"]*|\n[\n" + _LINE_WS + "]+")


def strip_boilerplate_arrow(arr):
    """Arrow-native strip_boilerplate, for the flagship text-span path:
    three pyarrow.compute replace_substring_regex kernels (RE2, no pandas
    round-trip) and a trim. Boilerplate lines go first; then runs of
    horizontal whitespace collapse to one space, and whitespace next to a
    line break goes with any empty lines after it. No pass rewrites a
    match into itself (a lone space, a bare newline). Property-tested
    equal to the scalar implementation, NBSP and CRLF included."""
    import pyarrow.compute as pc

    x = pc.fill_null(arr, "")
    x = pc.replace_substring_regex(x, pattern=_RE2_BOILER_LINE, replacement="")
    x = pc.replace_substring_regex(x, pattern=_RE2_WS, replacement=" ")
    x = pc.replace_substring_regex(x, pattern=_RE2_LINE_BREAK, replacement="\n")
    return pc.utf8_trim_whitespace(x)


def needs_space_after(ch: str) -> bool:
    """Space only after ASCII letters (stitching.rs:731-733)."""
    return len(ch) == 1 and ch.isascii() and ch.isalpha()


def smart_join(
    texts: list[str],
    boxes: np.ndarray,
    container: tuple[float, float, float, float] | None = None,
    y_tol: float = 10.0,
) -> str:
    """Smart text joining per sort_and_join_texts (stitching.rs:603-697).

    Sorts spans by box center (y then x with `y_tol` same-line tolerance),
    then joins: same visual line -> space only after an ASCII letter; new
    visual line -> '\n' when the previous line ended > 30% of container
    width from the right edge (paragraph break), else soft wrap.
    """
    boxes = np.atleast_2d(np.asarray(boxes, dtype=np.float64))
    if len(texts) == 0:
        return ""
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0

    import functools

    def cmp(i, j):
        if abs(cy[i] - cy[j]) < y_tol:
            return -1 if cx[i] < cx[j] else (1 if cx[i] > cx[j] else 0)
        return -1 if cy[i] < cy[j] else (1 if cy[i] > cy[j] else 0)

    order = sorted(range(len(texts)), key=functools.cmp_to_key(cmp))

    result = ""
    prev_y: float | None = None
    prev_idx: int | None = None
    for i in order:
        t = texts[i]
        if not t:
            continue
        cur_y = cy[i]
        if prev_y is not None:
            if abs(cur_y - prev_y) > y_tol:
                add_newline = False
                if container is not None and prev_idx is not None:
                    cw = container[2] - container[0]
                    right_gap = container[2] - boxes[prev_idx, 2]
                    if right_gap > cw * 0.3:
                        add_newline = True
                if add_newline:
                    if not result.endswith("\n"):
                        result += "\n"
                else:
                    if result and result[-1] != "\n" and needs_space_after(result[-1]):
                        result += " "
            else:
                if result and result[-1] != "\n" and needs_space_after(result[-1]):
                    result += " "
        result += t
        prev_y = cur_y
        prev_idx = i
    return result.rstrip()

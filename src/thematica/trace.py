"""Quote traceability: verify supporting quotes against their cited pages.

Each quote is checked at graded strictness.  Exact means literal substring of
the cited page.  Normalized retries after case folding, whitespace collapse,
and quote/dash unification.  Fuzzy scores the normalized quote by edit
distance against every window of the normalized cited page and accepts
similarity (1 - distance / quote length) at or above a threshold.  Anything
else is Failed with score 0.  A quote that only matches some other page stays
Failed with a "found on page k" note; it is never re-homed.

Fuzzy scoring uses Myers' bit-parallel approximate string matching (Myers
1999, J. ACM 46(3), in Hyyrö's 2001 formulation) on the transposed
edit-distance table: an n-bit Python int holds a row, one bit per character
of the normalized cited page, and each of the m normalized quote characters
is one round of big-int operations.  A quote costs m rounds over an n-bit
int, not n rounds.  Each round reads the bit mask of its quote character
(bit j set where the text holds that character), built once per distinct
quote character with one ``str.translate`` and one ``int(…, 2)``, whose
cost hardly grows with the text.

A partition (pigeonhole) filter runs before any row (Baeza-Yates &
Navarro 1999, Algorithmica 23(2); Navarro 2001, ACM Comput. Surv. 33(1)):
a window within k edits of the quote holds one of k + 1 pieces of the quote
unchanged.  The first and last occurrences of the quote's two halves, found
by ``str.find`` and ``str.rfind``, bound a span holding every window within
one edit.  When every occurrence agrees on one placement, the span is at
most m + 2 characters wide and holds at most nine windows of m - 1 to m + 1
characters; at k = 1 the filter's verification is then a string comparison
of each with the quote, not an alignment.  Rows run over the whole page
only for a wider span (a half at several placements), for a quote with no
window within one edit, or when no half occurs.

The matched window's start is recovered only when the similarity reaches
the threshold.  At distance d of 0 or 1, the windows ending at each best
end are compared with the quote, longest first; at d > 1, reverse global
passes of the same kernel run over at most m + d characters before each
best end.  Ties resolve to the lowest distance, then the leftmost start,
then the leftmost end.

The "found on page k" scan and the per-sentence diagnostics only need the
Exact and Normalized levels, so they check substrings and never align.  A
page builds its :attr:`Page.match_text` once, on first use, and its span map
only for a Normalized or Fuzzy hit (:meth:`Page.source_span`).
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .corpus import Corpus, Page
from .errors import EmptyCodebook
from .outparse import CodeRecord
from .textnorm import normalize_for_match

logger = logging.getLogger(__name__)

EXACT = "Exact"
NORMALIZED = "Normalized"
FUZZY = "Fuzzy"
FAILED = "Failed"
LEVELS = (EXACT, NORMALIZED, FUZZY, FAILED)

DEFAULT_THRESHOLD = 0.85

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?…])\s+")


@dataclass(frozen=True, init=False)
class TraceResult:
    record: CodeRecord
    level: str
    score: float
    matched_span: tuple[int, int] | None = None
    notes: tuple[str, ...] = ()

    def __init__(self, record: CodeRecord, level: str, score: float,
                 matched_span: tuple[int, int] | None = None, notes: tuple[str, ...] = ()) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown trace level {level!r}")
        try:
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score must be in [0, 1], got {score}")
        except TypeError:
            raise ValueError(f"score must be a number, got {score!r}") from None
        self.__dict__.update(record=record, level=level, score=score,
                             matched_span=matched_span, notes=notes)


@dataclass(frozen=True)
class TraceabilityReport:
    results: tuple[TraceResult, ...]
    threshold: float = DEFAULT_THRESHOLD

    @property
    def counts(self) -> dict[str, int]:
        tally = {level: 0 for level in LEVELS}
        for result in self.results:
            tally[result.level] += 1
        return tally

    @property
    def summary(self) -> str:
        """The count of each level, such as ``Exact 59, Normalized 0, Fuzzy 0, Failed 0``."""
        return ", ".join(f"{level} {count}" for level, count in self.counts.items())

    @property
    def failures(self) -> tuple[TraceResult, ...]:
        return tuple(r for r in self.results if r.level == FAILED)

    @property
    def verified_share(self) -> float:
        """Percentage of quotes matched at any level above Failed."""
        if not self.results:
            return 100.0
        verified = sum(1 for r in self.results if r.level != FAILED)
        return verified * 100.0 / len(self.results)


def _bottom_row(pattern: str, text: str, global_mode: bool) -> list[int]:
    """Bottom row of the edit-distance table of pattern against text.

    Returns D[m][j] for j = 0..len(text), where D[i][j] is the distance between
    pattern[:i] and text[:j] (global mode) or its best suffix (search mode,
    D[0][j] = 0).  Myers' algorithm in Hyyrö's formulation on the transposed
    table: Pv/Mv hold a row's horizontal +1/-1 deltas, one bit per text
    position, and each pattern character is one round.  The deltas start all
    0 (search) or all +1 (global); the carry in, D[i][0] - D[i-1][0], is +1.
    """
    n = len(text)
    full = (1 << n) - 1
    masks: dict[str, int] = {}  # bit j set where text[j] is the character
    bits = dict.fromkeys(map(ord, set(text)), "0")
    reversed_text = text[::-1]
    # The text as "0"/"1" for one character, read in base 2.
    for char in [char for char in set(pattern) if char in text]:
        bits[ord(char)] = "1"
        masks[char] = int(reversed_text.translate(bits), 2)
        bits[ord(char)] = "0"
    pv, mv = (full if global_mode else 0), 0
    for char in pattern:
        eq = masks.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full ^ (xh | pv))  # a carry into bit n is shifted out below
        mh = pv & xh
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (full ^ (xv | ph))
        mv = ph & xv
    # A sentinel bit above the row keeps its leading zeros; [:0:-1] drops it
    # and puts position 1 first.
    plus = format(pv | 1 << n, "b")[:0:-1].encode()
    minus = format(mv | 1 << n, "b")[:0:-1].encode()
    return list(accumulate(map(sub, plus, minus), initial=len(pattern)))


def _halves_span(pattern: str, text: str) -> tuple[int, int] | None:
    """The span of text holding every window within one edit of pattern.

    A window within one edit contains one of the pattern's two halves (cut
    at m // 2) unchanged, so it lies within one character of that half's
    aligned place.  Returns None when neither half occurs in text.
    """
    m = len(pattern)
    lowest, highest = len(text), -1
    for offset, half in ((0, pattern[:m // 2]), (m // 2, pattern[m // 2:])):
        first = text.find(half)
        if first >= 0:
            lowest = min(lowest, first - offset - 1)
            highest = max(highest, text.rfind(half) - offset + m + 1)
    if highest < 0:
        return None
    return max(0, lowest), min(len(text), highest)


def _edits_within_one(pattern: str, window: str) -> int:
    """The edit distance between pattern and window if it is 0 or 1, else 2.

    The common prefix's length k is found by halving slice comparisons; the
    first difference is then a substitution, an insertion or a deletion at
    k exactly when the rest after it compares equal.
    """
    m, n = len(pattern), len(window)
    if abs(m - n) > 1:
        return 2
    k, hi = 0, min(m, n)
    if pattern[:1] != window[:1]:
        hi = 0  # most windows of a span differ from the first character
    while k < hi:
        mid = (k + hi + 1) // 2
        if pattern[:mid] == window[:mid]:
            k = mid
        else:
            hi = mid - 1
    if k == m == n:
        return 0
    # Past the first difference, a substitution skips one character of
    # each, a deletion one of the pattern, an insertion one of the window.
    return 1 if pattern[k + (m >= n):] == window[k + (n >= m):] else 2


def _best_ends(pattern: str, text: str) -> tuple[int, list[int]]:
    """Lowest edit distance from pattern to any window of text.

    Returns the distance and, ascending, every end j such that some window
    text[s:j] reaches it (j = 0, the empty window, counts at distance m).

    When :func:`_halves_span` is at most m + 2 characters wide (the halves
    agree on one placement, or on two that an end of the text cuts short),
    it holds at most nine windows of m - 1 to m + 1 characters.  Each is
    compared with the pattern directly (:func:`_edits_within_one`); if one
    is within one edit, that distance and every end reaching it are the
    page's, and no row runs.  A wider span, a short span with no window
    within one edit, no half, or a pattern shorter than 2 runs the row over
    the whole text.
    """
    m = len(pattern)
    span = _halves_span(pattern, text) if m > 1 else None
    if span is not None and span[1] - span[0] <= m + 2:
        lo, hi = span
        ends_at: list[set[int]] = [set(), set()]  # at distance 0, 1
        for length in (m - 1, m, m + 1):
            for start in range(lo, hi - length + 1):
                distance = _edits_within_one(pattern, text[start:start + length])
                if distance < 2:
                    ends_at[distance].add(start + length)
        for best in (0, 1):
            if ends_at[best]:
                return best, sorted(ends_at[best])
    row = _bottom_row(pattern, text, global_mode=False)
    best = min(row)
    ends = [row.index(best)]
    for _ in range(row.count(best) - 1):
        ends.append(row.index(best, ends[-1] + 1))
    return best, ends


def _leftmost_window(pattern: str, text: str, distance: int, ends: list[int]) -> tuple[int, int]:
    """The leftmost-starting window at ``distance``, then the leftmost end.

    ``distance`` and ``ends`` come from :func:`_best_ends`.  A window at
    distance d is m - d to m + d characters long.  At d <= 1 each end's
    windows are compared with the pattern directly, longest first; at d > 1
    a reverse global pass over the m + d characters before each end finds
    its lowest start: the longest suffix of text[:end] whose distance to the
    pattern is d.
    """
    m = len(pattern)
    reversed_pattern = pattern[::-1]
    best_start, best_end = len(text) + 1, 0
    for end in ends:
        lowest = max(0, end - m - distance)
        if lowest >= best_start:
            break  # ends ascend, so no later window can start further left
        if distance <= 1:
            longest = next(length for length in range(end - lowest, m - distance - 1, -1)
                           if _edits_within_one(pattern, text[end - length:end]) == distance)
        else:
            row = _bottom_row(reversed_pattern, text[lowest:end][::-1], global_mode=True)
            longest = len(row) - 1 - row[::-1].index(distance)
        if end - longest < best_start:
            best_start, best_end = end - longest, end
    return best_start, best_end


def _cheap_level(quote: str, norm_quote: str, page: Page) -> str | None:
    """Exact or Normalized, whichever holds first on this page; never aligns.

    The literal check comes first: a quote of only whitespace normalizes to
    nothing yet can still be an Exact hit.
    """
    if quote in page.text:
        return EXACT
    if norm_quote and norm_quote in page.match_text:
        return NORMALIZED
    return None


def verify_quote(record: CodeRecord, corpus: Corpus,
                 threshold: float = DEFAULT_THRESHOLD) -> TraceResult:
    """Verify one record's quote against its cited page at the strongest level.

    Out-of-range cited pages produce a Failed result with an explanatory
    note; the quote is still checked against every page so the note can say
    where it actually lives.
    """
    notes: list[str] = []
    quote = record.quote
    cited: Page | None = None
    if record.page is not None and 1 <= record.page <= corpus.page_count:
        cited = corpus.pages[record.page - 1]
    elif record.page is None:
        notes.append("record cites no page")
    else:
        notes.append(f"cited page {record.page} outside corpus range 1..{corpus.page_count}")

    if cited is not None:
        position = cited.text.find(quote)
        if position >= 0:
            return TraceResult(record=record, level=EXACT, score=1.0,
                               matched_span=(position, position + len(quote)), notes=tuple(notes))
    norm_quote = normalize_for_match(quote)
    if cited is not None:
        best_similarity = 0.0
        if norm_quote:
            match_text = cited.match_text
            position = match_text.find(norm_quote)
            if position >= 0:
                return TraceResult(record=record, level=NORMALIZED, score=1.0,
                                   matched_span=cited.source_span(position, position + len(norm_quote)),
                                   notes=tuple(notes))
            distance, ends = _best_ends(norm_quote, match_text)
            best_similarity = max(0.0, 1.0 - distance / len(norm_quote))
            if best_similarity >= threshold:
                start, end = _leftmost_window(norm_quote, match_text, distance, ends)
                return TraceResult(record=record, level=FUZZY, score=best_similarity,
                                   matched_span=cited.source_span(start, end),
                                   notes=tuple(notes))
        notes.append(f"best similarity on cited page {best_similarity:.4f} below threshold {threshold}")

    for page in corpus.pages:
        if page is cited:
            continue
        level = _cheap_level(quote, norm_quote, page)
        if level is not None:
            notes.append(f"found on page {page.number} ({level.lower()})")
            break

    pieces = [piece for piece in _SENTENCE_SPLIT.split(quote.strip()) if piece]
    if cited is not None and len(pieces) > 1:
        for position, piece in enumerate(pieces, start=1):
            level = _cheap_level(piece, normalize_for_match(piece), cited)
            if level is not None:
                notes.append(f"sentence {position}/{len(pieces)} matches at {level.lower()} level")
            else:
                notes.append(f"sentence {position}/{len(pieces)} not found on cited page")

    return TraceResult(record=record, level=FAILED, score=0.0,
                       matched_span=None, notes=tuple(notes))


def verify_codebook(codebook, corpus: Corpus,
                    threshold: float = DEFAULT_THRESHOLD) -> TraceabilityReport:
    """Verify every record of a codebook; result order matches record order.

    Logs the level counts and the wall time at info level.
    """
    started = time.perf_counter()
    records = tuple(codebook.codes) if hasattr(codebook, "codes") else tuple(codebook)
    if not records:
        raise EmptyCodebook("cannot verify an empty codebook")
    results = tuple(verify_quote(record, corpus, threshold) for record in records)
    report = TraceabilityReport(results=results, threshold=threshold)
    if logger.isEnabledFor(logging.INFO):
        logger.info("trace: %s (%.1f ms)", report.summary, (time.perf_counter() - started) * 1000)
    return report

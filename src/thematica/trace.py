"""Quote traceability: verify supporting quotes against their cited pages.

Each quote is checked at graded strictness.  Exact means literal substring of
the cited page.  Normalized retries after case folding, whitespace collapse,
and quote/dash unification.  Fuzzy scores the normalized quote by edit
distance against every window of the normalized cited page and accepts
similarity (1 - distance / quote length) at or above a threshold.  Anything
else is Failed with score 0.  A quote that only matches some other page stays
Failed with a "found on page k" note; it is never re-homed.

Fuzzy scoring uses Myers' bit-parallel approximate string matching (Myers
1999, J. ACM 46(3)): one Python int holds a column of the edit-distance
table, so a page of n characters costs n rounds of big-int operations.  The
matched window's start is recovered only when the similarity reaches the
threshold, by reverse passes over at most m + d characters before each best
end (m the normalized quote length, d its distance).  Ties resolve to the
lowest distance, then the leftmost start, then the leftmost end.

The "found on page k" scan and the per-sentence diagnostics only need the
Exact and Normalized levels, so they check substrings and never align.  Each
page is normalized at most once, on first use (:attr:`Page.normalized`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .corpus import Corpus, Page
from .errors import EmptyCodebook
from .outparse import CodeRecord
from .textnorm import normalize_for_match

EXACT = "Exact"
NORMALIZED = "Normalized"
FUZZY = "Fuzzy"
FAILED = "Failed"
LEVELS = (EXACT, NORMALIZED, FUZZY, FAILED)

DEFAULT_THRESHOLD = 0.85

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?…])\s+")


@dataclass(frozen=True)
class TraceResult:
    record: CodeRecord
    level: str
    score: float
    matched_span: tuple[int, int] | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"unknown trace level {self.level!r}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


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
    def failures(self) -> tuple[TraceResult, ...]:
        return tuple(r for r in self.results if r.level == FAILED)

    @property
    def verified_share(self) -> float:
        """Percentage of quotes matched at any level above Failed."""
        if not self.results:
            return 100.0
        verified = sum(1 for r in self.results if r.level != FAILED)
        return verified * 100.0 / len(self.results)


def _last_row(pattern: str, text: str, global_mode: bool) -> Iterator[int]:
    """Bottom row of the edit-distance table of pattern against text.

    Yields D[m][j] for j = 1..len(text), where D[i][j] is the distance between
    pattern[:i] and text[:j] (global mode) or its best suffix (search mode,
    D[0][j] = 0).  Myers' bit-parallel algorithm in Hyyrö's formulation:
    Pv/Mv hold the column's vertical +1/-1 deltas, Ph/Mh the horizontal ones,
    one bit per pattern position; ``masks`` maps each pattern character to
    the bits of its positions.
    """
    m = len(pattern)
    masks: dict[str, int] = {}
    for position, char in enumerate(pattern):
        masks[char] = masks.get(char, 0) | (1 << position)
    full = (1 << m) - 1
    high = (full + 1) >> 1  # the last pattern row's bit; 0 for an empty pattern
    carry = 1 if global_mode else 0
    pv, mv, score = full, 0, m
    for char in text:
        eq = masks.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | carry) & full
        mh = (mh << 1) & full
        pv = mh | (~(xv | ph) & full)
        mv = ph & xv
        yield score


def _best_ends(pattern: str, text: str) -> tuple[int, list[int]]:
    """Lowest edit distance from pattern to any window of text.

    Returns the distance and, ascending, every end j such that some window
    text[s:j] reaches it (j = 0, the empty window, counts at distance m).
    """
    best, ends = len(pattern), [0]
    rows = _last_row(pattern, text, global_mode=False)
    for end, distance in enumerate(rows, start=1):
        if distance < best:
            best, ends = distance, [end]
        elif distance == best:
            ends.append(end)
    return best, ends


def _leftmost_window(pattern: str, text: str, distance: int, ends: list[int]) -> tuple[int, int]:
    """The leftmost-starting window at ``distance``, then the leftmost end.

    ``distance`` and ``ends`` come from :func:`_best_ends`.  A window at
    distance d is at most m + d characters long, so for each end a reverse
    global pass over that many characters finds its lowest start: the
    longest suffix of text[:end] whose distance to the pattern is d.
    """
    reversed_pattern = pattern[::-1]
    best_start, best_end = len(text) + 1, 0
    for end in ends:
        lowest = max(0, end - len(pattern) - distance)
        if lowest >= best_start:
            break  # ends ascend, so no later window can start further left
        longest = 0  # the empty suffix, at distance m
        rows = _last_row(reversed_pattern, text[lowest:end][::-1], global_mode=True)
        for length, suffix_distance in enumerate(rows, start=1):
            if suffix_distance == distance:
                longest = length
        if end - longest < best_start:
            best_start, best_end = end - longest, end
    return best_start, best_end


def _map_span(index_map: Sequence[int], start: int, end: int, source_len: int) -> tuple[int, int]:
    if start >= len(index_map):
        return source_len, source_len
    source_start = index_map[start]
    source_end = index_map[end - 1] + 1 if end > start else source_start
    return source_start, min(source_end, source_len)


def _normalized_span(norm_quote: str, page: Page) -> tuple[int, int] | None:
    """Span of the normalized quote inside the page's normalized text, if any."""
    if not norm_quote:
        return None
    norm_text, index_map = page.normalized
    position = norm_text.find(norm_quote)
    if position < 0:
        return None
    return _map_span(index_map, position, position + len(norm_quote), len(page.text))


def _cheap_level(quote: str, norm_quote: str, page: Page) -> str | None:
    """Exact or Normalized, whichever holds first on this page; never aligns.

    The literal check comes first: a quote of only whitespace normalizes to
    nothing yet can still be an Exact hit.
    """
    if quote in page.text:
        return EXACT
    if _normalized_span(norm_quote, page) is not None:
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
        span = _normalized_span(norm_quote, cited)
        if span is not None:
            return TraceResult(record=record, level=NORMALIZED, score=1.0,
                               matched_span=span, notes=tuple(notes))
        best_similarity = 0.0
        if norm_quote:
            norm_text, index_map = cited.normalized
            distance, ends = _best_ends(norm_quote, norm_text)
            best_similarity = max(0.0, 1.0 - distance / len(norm_quote))
            if best_similarity >= threshold:
                start, end = _leftmost_window(norm_quote, norm_text, distance, ends)
                return TraceResult(record=record, level=FUZZY, score=best_similarity,
                                   matched_span=_map_span(index_map, start, end, len(cited.text)),
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
    """Verify every record of a codebook; result order matches record order."""
    records = tuple(codebook.codes) if hasattr(codebook, "codes") else tuple(codebook)
    if not records:
        raise EmptyCodebook("cannot verify an empty codebook")
    results = tuple(verify_quote(record, corpus, threshold) for record in records)
    return TraceabilityReport(results=results, threshold=threshold)

"""Quote verification levels, fallback notes, and the strictness ordering."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thematica.corpus
import thematica.trace
from conftest import make_corpus, oracle_min_edit, oracle_trace_level
from thematica.codebook import Codebook
from thematica.corpus import load_corpus
from thematica.errors import EmptyCodebook
from thematica.outparse import CodeRecord
from thematica.textnorm import normalize_for_match
from thematica.trace import (
    DEFAULT_THRESHOLD,
    EXACT,
    FAILED,
    FUZZY,
    NORMALIZED,
    TraceabilityReport,
    TraceResult,
    _best_ends,
    _bottom_row,
    _halves_span,
    _leftmost_window,
    verify_codebook,
    verify_quote,
)

PAGE_ONE = (
    "Interviewer: thank you for making time today.",
    "Respondent: I chanced on midwifery and I fell in love with it.",
    "Interviewer: what happened after your training?",
)
PAGE_TWO = (
    "Respondent: the first winter was harder than I expected.",
    "Respondent: my cousin had moved two years earlier and kept encouraging me.",
)


def two_page_corpus():
    return make_corpus(list(PAGE_ONE + PAGE_TWO), page_size=3)


def record(quote: str, page: int | None = 1, label: str = "Probe") -> CodeRecord:
    return CodeRecord(label=label, quote=quote, page=page)


def test_exact_match_scores_one_with_source_span() -> None:
    corpus = two_page_corpus()
    result = verify_quote(record("I chanced on midwifery and I fell in love with it."), corpus)
    assert result.level == EXACT
    assert result.score == 1.0
    start, end = result.matched_span
    assert corpus.pages[0].text[start:end] == "I chanced on midwifery and I fell in love with it."
    assert result.notes == ()


def test_case_and_curly_quote_variants_match_at_normalized() -> None:
    corpus = make_corpus(["She said “we can’t wait forever” and left."])
    result = verify_quote(record('we can\'t wait FOREVER'), corpus)
    assert result.level == NORMALIZED
    assert result.score == 1.0
    start, end = result.matched_span
    covered = corpus.pages[0].text[start:end]
    assert normalize_for_match(covered) == normalize_for_match("we can't wait forever")


def test_single_token_mutation_matches_at_fuzzy() -> None:
    corpus = two_page_corpus()
    mutated = "I changed to midwifery and I fell in love with it."
    result = verify_quote(record(mutated), corpus)
    assert result.level == FUZZY
    assert result.score >= 0.9
    expected = 1.0 - 3 / len(normalize_for_match(mutated))
    assert result.score == pytest.approx(expected, abs=1e-9)


def test_foreign_quote_fails_with_zero_score_and_diagnostic() -> None:
    corpus = two_page_corpus()
    result = verify_quote(record("The committee approved the budget amendment yesterday."), corpus)
    assert result.level == FAILED
    assert result.score == 0.0
    assert result.matched_span is None
    assert any("below threshold" in note for note in result.notes)


def test_quote_on_wrong_page_stays_failed_with_location_note() -> None:
    corpus = two_page_corpus()
    result = verify_quote(record("the first winter was harder than I expected.", page=1), corpus)
    assert result.level == FAILED
    assert any(note == "found on page 2 (exact)" for note in result.notes)


def test_out_of_range_page_gets_range_note_and_location() -> None:
    corpus = two_page_corpus()
    result = verify_quote(record("the first winter was harder than I expected.", page=9), corpus)
    assert result.level == FAILED
    assert any("outside corpus range 1..2" in note for note in result.notes)
    assert any("found on page 2" in note for note in result.notes)


def test_missing_page_reference_is_noted() -> None:
    corpus = two_page_corpus()
    result = verify_quote(record("my cousin had moved two years earlier", page=None), corpus)
    assert result.level == FAILED
    assert "record cites no page" in result.notes
    assert any("found on page 2" in note for note in result.notes)


def test_multi_sentence_failure_reports_per_sentence_diagnostics() -> None:
    corpus = two_page_corpus()
    quote = ("I chanced on midwifery and I fell in love with it. "
             "Afterwards I flew straight to the academy of stars.")
    result = verify_quote(record(quote), corpus)
    assert result.level == FAILED
    assert any("sentence 1/2 matches at exact level" in note for note in result.notes)
    assert any("sentence 2/2 not found on cited page" in note for note in result.notes)


def test_threshold_boundary_is_inclusive() -> None:
    corpus = make_corpus(["abcdefghij"])
    probe = "abcdeXghij"
    norm = normalize_for_match(probe)
    assert oracle_min_edit(norm, normalize_for_match(corpus.pages[0].text)) == 1
    similarity = 1.0 - 1 / len(norm)
    result = verify_quote(record(probe), corpus, threshold=similarity)
    assert result.level == FUZZY
    assert result.score == pytest.approx(similarity)
    stricter = verify_quote(record(probe), corpus, threshold=similarity + 1e-6)
    assert stricter.level == FAILED


@pytest.mark.parametrize("level, score, message", [
    ("Bogus", 0.5, "unknown trace level 'Bogus'"),
    (EXACT, -0.1, "score must be in [0, 1], got -0.1"),
    (FUZZY, 1.5, "score must be in [0, 1], got 1.5"),
])
def test_trace_result_rejects_unknown_level_and_out_of_range_score(
        level: str, score: float, message: str) -> None:
    with pytest.raises(ValueError) as raised:
        TraceResult(record=record("a quote"), level=level, score=score)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_trace_result_is_a_frozen_value() -> None:
    probe = record("a quote", page=2)
    result = TraceResult(probe, FUZZY, 0.9, (4, 11), ("close",))
    twin = TraceResult(record=probe, level=FUZZY, score=0.9, matched_span=(4, 11), notes=("close",))
    assert result == twin and result is not twin
    assert hash(result) == hash(twin) == hash((probe, FUZZY, 0.9, (4, 11), ("close",)))
    assert result != TraceResult(probe, FUZZY, 0.8, (4, 11), ("close",))
    assert TraceResult(probe, FAILED, 0.0) == TraceResult(probe, FAILED, 0.0, None, ())
    assert repr(result) == (f"TraceResult(record={probe!r}, level='Fuzzy', score=0.9, "
                            "matched_span=(4, 11), notes=('close',))")
    assert [(f.name, f.init) for f in fields(result)] == [
        ("record", True), ("level", True), ("score", True), ("matched_span", True), ("notes", True),
    ]
    with pytest.raises(FrozenInstanceError):
        result.level = EXACT
    assert result.level == FUZZY


def test_verify_codebook_preserves_order_and_counts() -> None:
    corpus = two_page_corpus()
    codebook = Codebook(coder_id="genai", provenance="llm", codes=(
        record("I chanced on midwifery and I fell in love with it.", label="Found Calling"),
        record("my cousin had moved two years earlier and kept encouraging me.",
               page=2, label="Family Example"),
        record("nothing of the sort appears anywhere", page=2, label="Phantom"),
    ))
    report = verify_codebook(codebook, corpus)
    assert [r.record.label for r in report.results] == [
        "Found Calling", "Family Example", "Phantom",
    ]
    assert report.counts == {EXACT: 2, NORMALIZED: 0, FUZZY: 0, FAILED: 1}
    assert report.failures[0].record.label == "Phantom"
    assert report.verified_share == pytest.approx(200 / 3)


def test_verify_codebook_accepts_plain_record_sequences() -> None:
    corpus = two_page_corpus()
    report = verify_codebook([record("what happened after your training?")], corpus)
    assert report.counts[EXACT] == 1


def test_verify_codebook_rejects_empty_input() -> None:
    corpus = two_page_corpus()
    with pytest.raises(EmptyCodebook):
        verify_codebook([], corpus)


def test_verification_is_deterministic() -> None:
    corpus = two_page_corpus()
    probe = record("I changed to midwifery and I fell in love with it.")
    first = verify_quote(probe, corpus)
    second = verify_quote(probe, corpus)
    assert first == second


def test_empty_report_counts_as_fully_verified() -> None:
    assert TraceabilityReport(results=()).verified_share == 100.0


def test_edit_distance_oracle_agrees_with_naive_enumeration() -> None:
    def full_levenshtein(a: str, b: str) -> int:
        row = list(range(len(b) + 1))
        for i, ca in enumerate(a, start=1):
            new = [i]
            for j, cb in enumerate(b, start=1):
                new.append(min(row[j - 1] + (ca != cb), row[j] + 1, new[j - 1] + 1))
            row = new
        return row[-1]

    def naive(pattern: str, text: str) -> int:
        best = len(pattern)
        for i in range(len(text) + 1):
            for j in range(i, len(text) + 1):
                best = min(best, full_levenshtein(pattern, text[i:j]))
        return best

    rng = random.Random(11)
    for _ in range(200):
        pattern = "".join(rng.choice("abc") for _ in range(rng.randint(0, 7)))
        text = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        assert oracle_min_edit(pattern, text) == naive(pattern, text)


_WORDS = ("migration", "family", "winter", "hope", "shift", "nurse", "visa",
          "money", "train", "home", "don’t", "“quoted”")


@st.composite
def _quote_and_page(draw):
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=5, max_size=18))
    page = " ".join(words)
    kind = draw(st.sampled_from(("exact", "cased", "mutated", "foreign")))
    if kind == "foreign":
        quote = draw(st.text(alphabet="xyz ", min_size=1, max_size=30))
    else:
        start = draw(st.integers(0, max(0, len(page) - 2)))
        length = draw(st.integers(3, 40))
        quote = page[start:start + length]
        if kind == "cased":
            quote = quote.upper()
        elif kind == "mutated":
            for _ in range(draw(st.integers(1, 3))):
                pos = draw(st.integers(0, max(0, len(quote) - 1)))
                quote = quote[:pos] + draw(st.sampled_from("qering ")) + quote[pos + 1:]
    return quote, page


@settings(max_examples=300, deadline=None)
@given(data=_quote_and_page())
def test_levels_agree_with_reference_grading(data: tuple[str, str]) -> None:
    quote, page = data
    if not quote.strip():
        return
    corpus = make_corpus([page], page_size=5)
    result = verify_quote(CodeRecord(label="Probe", quote=quote, page=1), corpus)
    expected_level, expected_score = oracle_trace_level(quote, page, DEFAULT_THRESHOLD)
    assert result.level == expected_level
    assert result.score == pytest.approx(expected_score, abs=1e-9)


def reference_align(pattern: str, text: str) -> tuple[int, int, int]:
    """Best infix alignment of pattern inside text, by the full O(m*n) table.

    Returns (edit_distance, start, end) where text[start:end] is the aligned
    window.  Prefix and suffix of the text are free; ties resolve to the
    lowest distance, then the leftmost start, then the leftmost end.  This is
    the aligner the tracer used before Myers' bit-parallel scoring.
    """
    m, n = len(pattern), len(text)
    if m == 0:
        return 0, 0, 0
    if n == 0:
        return m, 0, 0
    prev_cost = [0] * (n + 1)
    prev_start = list(range(n + 1))
    for i in range(1, m + 1):
        char = pattern[i - 1]
        cur_cost = [i] + [0] * n
        cur_start = [0] * (n + 1)
        for j in range(1, n + 1):
            cost = prev_cost[j - 1] + (0 if char == text[j - 1] else 1)
            start = prev_start[j - 1]
            alt = prev_cost[j] + 1
            if alt < cost or (alt == cost and prev_start[j] < start):
                cost, start = alt, prev_start[j]
            alt = cur_cost[j - 1] + 1
            if alt < cost or (alt == cost and cur_start[j - 1] < start):
                cost, start = alt, cur_start[j - 1]
            cur_cost[j] = cost
            cur_start[j] = start
        prev_cost, prev_start = cur_cost, cur_start
    best_j = 0
    for j in range(1, n + 1):
        if prev_cost[j] < prev_cost[best_j] or (
            prev_cost[j] == prev_cost[best_j] and prev_start[j] < prev_start[best_j]
        ):
            best_j = j
    return prev_cost[best_j], prev_start[best_j], best_j


def myers_align(pattern: str, text: str) -> tuple[int, int, int]:
    distance, ends = _best_ends(pattern, text)
    return (distance, *_leftmost_window(pattern, text, distance, ends))


def test_myers_aligner_equals_reference_table() -> None:
    edge_cases = [
        ("", ""), ("", "abc"), ("abc", ""), ("a", "a"), ("a", "b"),
        ("aa", "aaaaaa"), ("b", "aaaa"), ("ab", "aaaa"), ("aba", "abababab"),
        ("xyz", "aaaaaaaa"), ("ss", "ß"), ("ß", "strasse"),
    ]
    for pattern, text in edge_cases:
        assert myers_align(pattern, text) == reference_align(pattern, text), (pattern, text)

    # Small alphabets force many tied distances, starts and ends; "ß", "ﬁ"
    # and "İ" casefold to two characters, so normalized text is longer than
    # its source.
    rng = random.Random(3)
    alphabets = ("a", "ab", "abc", "ab ", "aßﬁİ s", "abcdefgh")
    for _ in range(3000):
        alphabet = rng.choice(alphabets)
        pattern = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        if rng.random() < 0.5:
            pattern, text = normalize_for_match(pattern), normalize_for_match(text)
        assert myers_align(pattern, text) == reference_align(pattern, text), (pattern, text)


def test_myers_aligner_equals_reference_table_on_long_patterns() -> None:
    rng = random.Random(5)
    for _ in range(40):
        text = "".join(rng.choice("abcd ") for _ in range(rng.randint(60, 200)))
        start = rng.randrange(len(text))
        pattern = list(text[start:start + rng.randint(40, 90)])
        for _ in range(rng.randint(0, 6)):
            if pattern:
                pattern[rng.randrange(len(pattern))] = rng.choice("abcdx")
        pattern = "".join(pattern)
        assert myers_align(pattern, text) == reference_align(pattern, text), (pattern, text)


# Reference kernel: the column-wise Myers scorer that the transposed kernel
# replaced.  It runs one round per text character, with the pattern in the
# bit vector; the new kernel must give the same distances, ends and windows.
def reference_last_row(pattern: str, text: str, global_mode: bool) -> Iterator[int]:
    m = len(pattern)
    masks: dict[str, int] = {}
    for position, char in enumerate(pattern):
        masks[char] = masks.get(char, 0) | (1 << position)
    full = (1 << m) - 1
    high = (full + 1) >> 1
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


def reference_best_ends(pattern: str, text: str) -> tuple[int, list[int]]:
    best, ends = len(pattern), [0]
    rows = reference_last_row(pattern, text, global_mode=False)
    for end, distance in enumerate(rows, start=1):
        if distance < best:
            best, ends = distance, [end]
        elif distance == best:
            ends.append(end)
    return best, ends


def reference_leftmost_window(pattern: str, text: str, distance: int,
                              ends: list[int]) -> tuple[int, int]:
    reversed_pattern = pattern[::-1]
    best_start, best_end = len(text) + 1, 0
    for end in ends:
        lowest = max(0, end - len(pattern) - distance)
        if lowest >= best_start:
            break
        longest = 0
        rows = reference_last_row(reversed_pattern, text[lowest:end][::-1], global_mode=True)
        for length, suffix_distance in enumerate(rows, start=1):
            if suffix_distance == distance:
                longest = length
        if end - longest < best_start:
            best_start, best_end = end - longest, end
    return best_start, best_end


def assert_kernel_equals_reference(pattern: str, text: str) -> None:
    distance, ends = _best_ends(pattern, text)
    assert (distance, ends) == reference_best_ends(pattern, text), (pattern, text)
    assert _leftmost_window(pattern, text, distance, ends) == \
        reference_leftmost_window(pattern, text, distance, ends), (pattern, text)


def mutate(rng: random.Random, text: str, alphabet: str, edits: int) -> str:
    chars = list(text)
    for _ in range(edits):
        position = rng.randrange(len(chars) + 1)
        kind = rng.randrange(3)
        if kind == 0 or not chars or position == len(chars):
            chars.insert(position, rng.choice(alphabet))
        elif kind == 1:
            chars[position] = rng.choice(alphabet)
        else:
            del chars[position]
    return "".join(chars)


def test_transposed_kernel_equals_the_column_wise_reference_on_small_alphabets() -> None:
    edge_cases = [
        ("", ""), ("", "abc"), ("abc", ""), (" ", ""), ("", " "), ("a", "a"),
        ("ß", "ss"), ("ss", "ß"), ("ﬁ", "fi"), ("i̇", "İ"), ("aa", "aaaaaa"),
    ]
    for pattern, text in edge_cases:
        assert_kernel_equals_reference(pattern, text)
        assert_kernel_equals_reference(normalize_for_match(pattern), normalize_for_match(text))
    # Small alphabets force many tied distances, starts and ends.
    rng = random.Random(17)
    alphabets = ("a", "ab", "ab ", "abc", "aßﬁİ s", "aßﬁİ s".casefold(), "abcdefgh")
    for _ in range(6000):
        alphabet = rng.choice(alphabets)
        pattern = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        if rng.random() < 0.5:
            pattern, text = normalize_for_match(pattern), normalize_for_match(text)
        assert_kernel_equals_reference(pattern, text)


def test_transposed_kernel_equals_the_column_wise_reference_on_long_patterns() -> None:
    # Texts of 60 to 512 characters; the first cases are 255, 256 and 257 long.
    rng = random.Random(19)
    around = (256 - 1, 256, 256 + 1)
    for case in range(300):
        alphabet = rng.choice(("ab ", "abcd ", "aßﬁİ bc"))
        length = around[case % 3] if case < 30 else rng.randint(60, 2 * 256)
        text = "".join(rng.choice(alphabet) for _ in range(length))
        start = rng.randrange(len(text))
        pattern = mutate(rng, text[start:start + rng.randint(40, 90)], alphabet + "x",
                         rng.randint(0, 8))
        assert_kernel_equals_reference(pattern, text)
        if pattern:
            for global_mode in (False, True):
                assert _bottom_row(pattern, text, global_mode) == \
                    [len(pattern), *reference_last_row(pattern, text, global_mode)], (pattern, text)


def test_transposed_kernel_equals_the_column_wise_reference_on_real_pages(
        samples_dir: Path) -> None:
    pages = [page.match_text for page in load_corpus(samples_dir / "transcript.txt").pages]
    assert all(500 <= len(text) <= 1300 for text in pages)
    rng = random.Random(23)
    for text in pages:
        for edits in (0, 1, 3, 8, 25):
            start = rng.randrange(len(text) - 40)
            pattern = mutate(rng, text[start:start + rng.randint(40, 90)],
                             "abcdefghijklmnopqrstuvwxyz ,.'", edits)
            assert_kernel_equals_reference(pattern, text)
        foreign = normalize_for_match("Quantum zebras orbit the flute concerto at dawn.")
        assert_kernel_equals_reference(foreign, text)


def test_piece_filter_gives_the_full_page_distance_and_ends() -> None:
    edge_cases = [
        ("", ""), ("", "abc"), ("a", ""), ("ab", ""), ("abc", ""), ("a", "bab"),
        ("ab", "ba"), ("ab", "xaby"), ("ab", "ab"), ("abab", "abababab"),
        ("aaab", "aaaaaaaa"), ("abcd", "cdxxab"), ("ss", "ß"), ("ß", "strasse"),
        ("fi", "ﬁ"), ("i̇", "İ"),
    ]
    for pattern, text in edge_cases:
        for pair in ((pattern, text), (normalize_for_match(pattern), normalize_for_match(text))):
            assert _best_ends(*pair) == reference_best_ends(*pair), pair

    rng = random.Random(29)
    alphabets = ("ab", "abc", "ab ", "aßﬁİ s", "abcdefgh ")
    for case in range(4000):
        alphabet = rng.choice(alphabets)
        kind = case % 4
        if kind == 0:  # repeated, overlapping pieces
            unit = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            text = mutate(rng, unit * rng.randint(1, 12), alphabet, rng.randint(0, 3))
            pattern = mutate(rng, unit * rng.randint(1, 6), alphabet, rng.randint(0, 3))
        elif kind == 1:  # a half at each edge of the page, windows clipped by it
            pattern = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 16)))
            middle = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            half = len(pattern) // 2
            text = pattern[half:] + middle + pattern[:half]
            pattern = mutate(rng, pattern, alphabet, rng.randint(0, 2))
        elif kind == 2:  # patterns of length 0, 1 and 2
            pattern = "".join(rng.choice(alphabet) for _ in range(case % 3))
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        else:  # a mutated window of a random page
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            start = rng.randrange(len(text) + 1)
            pattern = mutate(rng, text[start:start + rng.randint(1, 30)], alphabet + "x",
                             rng.randint(0, 6))
        if rng.random() < 0.5:
            pattern, text = normalize_for_match(pattern), normalize_for_match(text)
        assert _best_ends(pattern, text) == reference_best_ends(pattern, text), (pattern, text)

    # The first half sits verbatim at a 3-edit window, so the halves' row
    # reads 3; the best window is 2 edits away with one edit in each half,
    # and only the full-page row finds it.
    pattern = "abcdefghijklmnop"
    three_edits = "abcdefgh" + "iXkYmZop"
    two_edits = "abcdeQgh" + "ijkRmnop"
    text = "zz " + two_edits + " " * 30 + three_edits + " zz"
    lo, hi = _halves_span(pattern, text)
    assert text[lo:hi] == " " + three_edits + " "
    assert min(_bottom_row(pattern, text[lo:hi], global_mode=False)) == 3
    assert _best_ends(pattern, text) == reference_best_ends(pattern, text)
    assert _best_ends(pattern, text) == (2, [3 + len(two_edits)])


@st.composite
def _cut_and_edited(draw) -> tuple[str, str]:
    """A text and a pattern cut from it, then edited up to twice.

    Small alphabets and repeated units put a half at several placements and
    tie ends; "ß", "İ" and "ﬁ" casefold to two characters each.
    """
    alphabet = draw(st.sampled_from(("ab", "abc", "ab ", "abcdefgh", "aßﬁİ s")))
    if draw(st.booleans()):
        text = draw(st.text(alphabet, min_size=1, max_size=4)) * draw(st.integers(1, 12))
    else:
        text = draw(st.text(alphabet, min_size=1, max_size=40))
    if "ß" in alphabet:
        text = normalize_for_match(text) or "ss"
    start = draw(st.integers(0, len(text) - 1))
    chars = list(text[start:start + draw(st.integers(1, 12))])
    for _ in range(draw(st.integers(0, 2))):
        position = draw(st.integers(0, len(chars)))
        kind = draw(st.sampled_from(("insert", "substitute", "delete")))
        if kind == "insert" or position == len(chars):
            chars.insert(position, draw(st.sampled_from(alphabet)))
        elif kind == "substitute":
            chars[position] = draw(st.sampled_from(alphabet))
        else:
            del chars[position]
    return "".join(chars), text


@settings(max_examples=400, deadline=None)
@given(data=_cut_and_edited())
def test_comparison_and_rows_place_a_quote_as_the_column_wise_reference(
        data: tuple[str, str]) -> None:
    pattern, text = data
    assert_kernel_equals_reference(pattern, text)


def test_piece_filter_aligns_a_one_edit_quote_only_around_its_intact_half(
        monkeypatch: pytest.MonkeyPatch) -> None:
    page = normalize_for_match(" ".join(PAGE_ONE + PAGE_TWO))
    quote = normalize_for_match("I chanced on midwifery and I fell in love with it.")
    lengths: list[int] = []
    original_bottom_row = thematica.trace._bottom_row

    def recording_bottom_row(pattern: str, text: str, global_mode: bool) -> list[int]:
        lengths.append(len(text))
        return original_bottom_row(pattern, text, global_mode)

    monkeypatch.setattr(thematica.trace, "_bottom_row", recording_bottom_row)
    m = len(quote)
    one_edit = [quote[:position] + edit + quote[position + 1:]
                for position in (4, m // 2 + 4) for edit in ("#", "", "#" + quote[position])]
    # The intact half occurs once, so its span is about m + 2 characters
    # wide and comparison settles the quote without a row.
    for pattern in one_edit:
        lengths.clear()
        result = _best_ends(pattern, page)
        assert result == reference_best_ends(pattern, page)
        assert result[0] == 1
        assert lengths == [], pattern
    # An edit in each half leaves no half intact: one row over the whole page.
    no_intact_half = "#" + quote[1:-1] + "#"
    lengths.clear()
    assert _best_ends(no_intact_half, page) == reference_best_ends(no_intact_half, page)
    assert lengths == [len(page)]
    # Two edits in the second half: no window of the first half's span is
    # within one edit, so the whole page follows once, and only it.
    two_edits_in_one_half = quote[:-4] + "#" + quote[-3] + "#" + quote[-1]
    lengths.clear()
    result = _best_ends(two_edits_in_one_half, page)
    assert result == reference_best_ends(two_edits_in_one_half, page)
    assert result[0] == 2
    assert lengths == [len(page)]
    # The leftmost window of a one-edit quote is found by comparison too.
    for pattern in one_edit:
        distance, ends = _best_ends(pattern, page)
        lengths.clear()
        assert _leftmost_window(pattern, page, distance, ends) == \
            reference_leftmost_window(pattern, page, distance, ends)
        assert lengths == []
    # With the first half also just before the quote, the halves give two
    # placements and a span wider than m + 2, which the whole-page row
    # settles.
    half = m // 2
    echo_page = page.replace(quote, quote[:half] + " " + quote)
    pattern = quote[:half + 4] + "#" + quote[half + 5:]
    lo, hi = _halves_span(pattern, echo_page)
    assert hi - lo == m + 2 + half + 1
    result = _best_ends(pattern, echo_page)
    assert result == reference_best_ends(pattern, echo_page)
    assert result[0] == 1


def test_aligner_runs_once_per_quote_and_pages_normalize_at_most_once(
        monkeypatch: pytest.MonkeyPatch) -> None:
    paragraphs = list(PAGE_ONE + PAGE_TWO) + [
        "Respondent: later the visa office lost my papers twice.",
        "Interviewer: and how did you feel about that?",
    ]
    corpus = make_corpus(paragraphs, page_size=2)
    records = [
        record("the first winter was harder than I expected.", page=1, label="Wrong page"),
        record("Thank you for making time today. We never met again.", page=1,
               label="Two sentences"),
        record("I changed to midwifery and I fell in love with it.", page=1, label="Mutated"),
        record("the visa office lost my papers twice.", page=3, label="Exact"),
        record("The VISA office  lost my papers", page=3, label="Cased"),
        record("nothing like this was ever said", page=4, label="Foreign"),
        record("THE FIRST WINTER was harder", page=4, label="Cased elsewhere"),
    ]

    aligned: list[str] = []
    original_best_ends = thematica.trace._best_ends

    def counting_best_ends(pattern: str, text: str):
        aligned.append(text)
        return original_best_ends(pattern, text)

    match_texts: Counter[str] = Counter()
    original_normalize = thematica.corpus.normalize_for_match

    def counting_normalize(text: str) -> str:
        match_texts[text] += 1
        return original_normalize(text)

    span_maps: Counter[str] = Counter()
    original_source_index = thematica.corpus.source_index

    def counting_source_index(text: str, normalized: str):
        span_maps[text] += 1
        return original_source_index(text, normalized)

    monkeypatch.setattr(thematica.trace, "_best_ends", counting_best_ends)
    monkeypatch.setattr(thematica.corpus, "normalize_for_match", counting_normalize)
    monkeypatch.setattr(thematica.corpus, "source_index", counting_source_index)

    report = verify_codebook(records, corpus)
    levels = {r.record.label: r.level for r in report.results}
    assert levels == {"Wrong page": FAILED, "Two sentences": FAILED, "Mutated": FUZZY,
                      "Exact": EXACT, "Cased": NORMALIZED, "Foreign": FAILED,
                      "Cased elsewhere": FAILED}
    assert "found on page 2 (normalized)" in report.results[-1].notes
    # Each page's match text is built at most once, and only a page's own.
    assert sorted(match_texts.values()) == [1] * len(match_texts)
    assert set(match_texts) <= {page.text for page in corpus.pages}
    assert len(match_texts) > 1
    # A span map is built once for each page that reports a Normalized or
    # Fuzzy span, and for no other page.
    spanned = {corpus.pages[r.record.page - 1].text for r in report.results
               if r.level in (NORMALIZED, FUZZY)}
    assert span_maps == Counter(dict.fromkeys(spanned, 1))
    assert len(spanned) == 2

    for item in records:
        aligned.clear()
        verify_quote(item, corpus)
        cited_text = corpus.pages[item.page - 1].match_text
        assert aligned in ([], [cited_text]), item.label
    assert sorted(match_texts.values()) == [1] * len(match_texts)
    assert span_maps == Counter(dict.fromkeys(spanned, 1))


def test_exact_quotes_never_normalize_a_page(monkeypatch: pytest.MonkeyPatch) -> None:
    corpus = two_page_corpus()
    calls: list[str] = []
    monkeypatch.setattr(thematica.corpus, "normalize_for_match",
                        lambda text: calls.append(text) or "")
    monkeypatch.setattr(thematica.corpus, "source_index",
                        lambda text, normalized: calls.append(text) or (lambda position: 0))
    report = verify_codebook([record(text, page=2) for text in PAGE_TWO], corpus)
    assert report.counts[EXACT] == 2
    assert calls == []


def test_whitespace_quote_is_exact_although_it_normalizes_to_nothing() -> None:
    corpus = two_page_corpus()
    result = verify_quote(record(" ", page=1), corpus)
    assert result.level == EXACT
    assert normalize_for_match(" ") == ""
    elsewhere = verify_quote(record("\n", page=None), corpus)
    assert elsewhere.level == FAILED
    assert "found on page 1 (exact)" in elsewhere.notes

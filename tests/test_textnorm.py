"""Label and quote normalization rules."""

from __future__ import annotations

import csv
import re
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thematica import textnorm
from thematica.corpus import load_corpus
from thematica.textnorm import (
    label_key,
    label_tokens,
    normalize_for_match,
    normalize_label,
    normalize_with_map,
    source_index,
)

# Reference implementations: the regex versions that the table-driven label
# functions replaced.  The tests below require equal results on every input.
_REF_FOLD_TABLE = str.maketrans(textnorm._CHAR_FOLD)
_REF_NUMBER_PREFIX = re.compile(r"^\s*\d+\s*[.)]\s*")
_REF_EMPHASIS = re.compile(r"(\*\*|\*|__|_)")
_REF_WS_RUN = re.compile(r"\s+")
_REF_EDGE_PUNCT = re.compile(r"^[\s\"'.,:;!?()-]+|[\s\"'.,:;!?()-]+$")
_REF_NON_WORD = re.compile(r"[^\w\s]")


def reference_normalize_label(raw: str) -> str:
    text = _REF_NUMBER_PREFIX.sub("", raw)
    text = _REF_EMPHASIS.sub("", text)
    text = text.translate(_REF_FOLD_TABLE)
    text = _REF_EDGE_PUNCT.sub("", text)
    return _REF_WS_RUN.sub(" ", text).strip()


def reference_label_key(label: str) -> str:
    text = _REF_NON_WORD.sub(" ", label.translate(_REF_FOLD_TABLE).casefold())
    return _REF_WS_RUN.sub(" ", text).strip()


def reference_label_tokens(label: str) -> frozenset[str]:
    return frozenset(reference_label_key(label).split())


def reference_normalize_with_map(text: str) -> tuple[str, list[int]]:
    """Match normalization one character at a time, with each output
    character's source index: the loop that ``normalize_for_match`` and
    ``source_index`` replaced on the tracer's path."""
    out: list[str] = []
    positions: list[int] = []
    pending_space = False
    for src_index, ch in enumerate(text):
        folded = textnorm._CHAR_FOLD.get(ch, ch)
        if folded.isspace():
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
            positions.append(src_index)
        pending_space = False
        for piece in folded.casefold():
            out.append(piece)
            positions.append(src_index)
    return "".join(out), positions


def reference_source_span(index_map: list[int], source_len: int,
                          start: int, end: int) -> tuple[int, int]:
    """The source span of a normalized span, read off the reference map."""
    if start >= len(index_map):
        return source_len, source_len
    source_end = index_map[end - 1] + 1 if end > start else index_map[start]
    return index_map[start], min(source_end, source_len)


def assert_match_normalization_equals_the_reference(text: str) -> None:
    expected, expected_map = reference_normalize_with_map(text)
    normalized = normalize_for_match(text)
    assert normalized == expected
    index = source_index(text, normalized)
    assert list(map(index, range(len(normalized)))) == expected_map


def test_normalize_label_strips_numbering_and_emphasis() -> None:
    assert normalize_label("1. **Curiosity-driven Migration**:") == "Curiosity-driven Migration"
    assert normalize_label("12) *Peer Influence*") == "Peer Influence"
    assert normalize_label("- Mandatory Continuing Education") == "Mandatory Continuing Education"


def test_normalize_label_folds_typographic_characters() -> None:
    assert normalize_label("“Nurses’ Mobility”") == "Nurses' Mobility"
    assert normalize_label("Work–Life—Balance") == "Work-Life-Balance"
    assert normalize_label("Spaced Out") == "Spaced Out"


def test_normalize_label_collapses_internal_whitespace() -> None:
    assert normalize_label("  Too   many\tspaces  ") == "Too many spaces"


def test_label_key_is_case_and_punctuation_insensitive() -> None:
    assert label_key("Peer Influence on Migration Decision") == label_key(
        "peer influence on migration decision"
    )
    assert label_key("**Desire to Return**") == label_key("Desire to Return")
    assert label_key("Work–life balance") == label_key("work life balance")


def test_label_key_distinguishes_different_words() -> None:
    assert label_key("Peer Influence") != label_key("Peer Pressure")


def test_label_tokens_are_a_frozen_word_set() -> None:
    tokens = label_tokens("Desire to Return Under Improved Conditions")
    assert tokens == frozenset({"desire", "to", "return", "under", "improved", "conditions"})
    assert label_tokens("Return, desire; RETURN") == frozenset({"return", "desire"})


def test_normalize_for_match_collapses_case_and_quotes() -> None:
    original = "I’ll  Never “Forget”"
    assert normalize_for_match(original) == "i'll never \"forget\""


def test_normalize_with_map_indices_point_into_source() -> None:
    source = "A  “b”—c"
    normalized, index_map = normalize_with_map(source)
    assert len(index_map) == len(normalized)
    for out_index, src_index in enumerate(index_map):
        assert 0 <= src_index < len(source)
        folded_char = normalized[out_index]
        if folded_char.isalnum():
            assert source[src_index].casefold() == folded_char


def test_normalize_with_map_matches_plain_normalization() -> None:
    source = "Mixed   “Quoting” and–dashes"
    normalized, _ = normalize_with_map(source)
    assert normalized == normalize_for_match(source)


@given(st.text(max_size=80))
def test_normalize_with_map_invariants(source: str) -> None:
    normalized, index_map = normalize_with_map(source)
    assert len(index_map) == len(normalized)
    assert index_map == sorted(index_map)
    assert all(0 <= idx < len(source) for idx in index_map)
    assert "  " not in normalized
    assert normalized == normalized.casefold()


@given(st.text(max_size=80))
def test_label_key_is_idempotent(label: str) -> None:
    assert label_key(label_key(label) or "x") == (label_key(label) or label_key("x"))


def test_normalize_label_deletes_every_emphasis_character() -> None:
    # Every * and _ goes, interior ones too; label_key keeps _ as a word character.
    assert normalize_label("Work_life") == "Worklife"
    assert normalize_label("snake_case label*s*") == "snakecase labels"
    assert normalize_label("__Dunder__ and **bold** and _it_") == "Dunder and bold and it"
    assert label_key("Work_life") == "work_life"


@pytest.fixture(scope="module")
def every_code_point() -> str:
    return "".join(map(chr, range(sys.maxunicode + 1)))


@pytest.fixture
def fresh_key_table(monkeypatch: pytest.MonkeyPatch) -> None:
    # label_key's table remembers each character it classifies; a fresh one
    # per test lets the whole-Unicode runs drop their million entries after.
    monkeypatch.setattr(textnorm, "_KEY_TABLE", textnorm._KeyTable())


LABEL_FUNCTIONS = pytest.mark.parametrize("function, reference", [
    (normalize_label, reference_normalize_label),
    (label_key, reference_label_key),
], ids=["normalize_label", "label_key"])


@LABEL_FUNCTIONS
@pytest.mark.usefixtures("fresh_key_table")
def test_label_functions_equal_the_reference_on_every_code_point(
    function, reference, every_code_point: str,
) -> None:
    # One character's classification or fold differing shows in the output
    # however its neighbours are classified.
    step = len(every_code_point) // 4 + 1
    for start in range(0, len(every_code_point), step):
        chunk = every_code_point[start:start + step]
        assert function(chunk) == reference(chunk)


_EDGE_CATEGORIES = {"Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Zs", "Zl", "Zp", "Cc", "Cf"}


@LABEL_FUNCTIONS
def test_label_functions_equal_the_reference_at_the_edges(
    function, reference, every_code_point: str,
) -> None:
    # Edge trimming sees only the ends, so each ASCII, whitespace, punctuation,
    # separator and control character is tried alone and at either end.
    for char in every_code_point:
        if char.isascii() or char.isspace() or unicodedata.category(char) in _EDGE_CATEGORIES:
            for text in (char, f"{char}a b", f"a b{char}", f"{char}.a b.{char}",
                         f".{char}a b{char}.", f"{char} 1. x{char}"):
                assert function(text) == reference(text), repr(text)


@LABEL_FUNCTIONS
@given(st.text())
def test_label_functions_equal_the_reference_on_any_text(function, reference, text: str) -> None:
    assert function(text) == reference(text)


@LABEL_FUNCTIONS
@pytest.mark.parametrize("sample, columns", [
    ("coder1.csv", ("theme", "code_label")),
    ("coder2.csv", ("theme", "code_label")),
    ("alias_map.csv", ("from_label", "to_label")),
])
def test_label_functions_equal_the_reference_on_the_shipped_labels(
    function, reference, sample: str, columns: tuple[str, ...], samples_dir: Path,
) -> None:
    with (samples_dir / sample).open(encoding="utf-8", newline="") as handle:
        cells = [row[column] for row in csv.DictReader(handle) for column in columns]
    assert cells
    for cell in cells:
        assert function(cell) == reference(cell)
        assert function(normalize_label(cell)) == reference(reference_normalize_label(cell))


@pytest.fixture(scope="module")
def expanding(every_code_point: str) -> str:
    """Every character that casefolds to several."""
    return "".join(char for char in every_code_point if len(char.casefold()) > 1)


def test_match_normalization_equals_the_reference_on_every_code_point(
    every_code_point: str, expanding: str,
) -> None:
    # Characters that casefold to several send source_index down its other
    # path, so a chunk that has any is also tried without them.
    step = 1024
    for start in range(0, len(every_code_point), step):
        chunk = every_code_point[start:start + step]
        assert_match_normalization_equals_the_reference(chunk)
        solid = chunk.translate(dict.fromkeys(map(ord, expanding)))
        if solid != chunk:
            assert_match_normalization_equals_the_reference(solid)


def test_match_normalization_equals_the_reference_at_the_edges(
    every_code_point: str, expanding: str,
) -> None:
    # Whitespace collapses and trims only next to other characters, so each
    # whitespace, separator, control, fold, expanding and ASCII character is
    # tried alone and at either end.
    chars = {char for char in every_code_point
             if char.isascii() or char.isspace()
             or unicodedata.category(char) in {"Zs", "Zl", "Zp", "Cc", "Cf"}}
    chars |= set(textnorm._CHAR_FOLD) | set(expanding)
    for char in sorted(chars):
        for text in (char, f"{char}a b", f"a b{char}", f"{char} a{char}b {char}",
                     f" {char}\u00a0ß{char}\n", f"{char}{char}"):
            assert_match_normalization_equals_the_reference(text)


@given(st.text())
def test_match_normalization_equals_the_reference_on_any_text(text: str) -> None:
    assert_match_normalization_equals_the_reference(text)


def test_page_match_text_and_spans_equal_the_reference_on_the_shipped_sample(
    samples_dir: Path,
) -> None:
    for page in load_corpus(samples_dir / "transcript.txt").pages:
        assert_match_normalization_equals_the_reference(page.text)
        expected, index_map = reference_normalize_with_map(page.text)
        assert page.match_text == expected
        length = len(expected)
        for start in range(length + 2):
            for end in {start, start + 1, start + 37, length}:
                if start <= end <= length:
                    assert page.source_span(start, end) == \
                        reference_source_span(index_map, len(page.text), start, end)


# ASCII text takes each function's byte-table path, any other text the general
# one; both must equal the references.
EVERY_FUNCTION = pytest.mark.parametrize("function, reference", [
    (normalize_label, reference_normalize_label),
    (label_key, reference_label_key),
    (label_tokens, reference_label_tokens),
    (normalize_for_match, lambda text: reference_normalize_with_map(text)[0]),
], ids=["normalize_label", "label_key", "label_tokens", "normalize_for_match"])

ascii_text = st.text(st.characters(max_codepoint=127))


@st.composite
def ascii_text_with_one_other_character(draw: st.DrawFn) -> str:
    text = draw(ascii_text)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.characters(min_codepoint=128)) + text[at:]


@EVERY_FUNCTION
@given(ascii_text)
def test_every_function_equals_the_reference_on_ascii_text(function, reference, text: str) -> None:
    assert function(text) == reference(text)


@EVERY_FUNCTION
@given(ascii_text_with_one_other_character())
def test_every_function_equals_the_reference_on_ascii_text_with_one_other_character(
    function, reference, text: str,
) -> None:
    assert not text.isascii()
    assert function(text) == reference(text)


@EVERY_FUNCTION
@pytest.mark.parametrize("text", [
    # str.split takes these for whitespace; bytes.split does not.
    "\x1c", "a\x1cb", "\x1dA b\x1e", "x\x1f", "\x0bWord\x0cword\x0b", "a \x1c\x1d\x1e\x1f b",
    "\x1c1. x", "\x0b2) y", "\x0c 3 . z",
    # A leading digit or space before "." or ")".
    "1.", "1)", " .", " )", "1.x", "12) x", " 4 . Label", "  7)Label.", "1 2. x", "x 1. y",
    " . x", ") x", "0.5 days", "3rd) x",
    # Runs of "*" and "_".
    "*", "_", "**", "__", "***x***", "___x___", "**_x_**", "a__b**c", "*_*_*", "_1. x", "* 1. x",
    "",
], ids=repr)
def test_every_function_equals_the_reference_on_the_ascii_edges(
    function, reference, text: str,
) -> None:
    assert text.isascii()
    assert function(text) == reference(text)

"""Document loading and pagination behavior."""

from __future__ import annotations

import codecs
import copy
import dataclasses
import hashlib
import math
import pickle
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thematica.corpus import (
    Corpus,
    Page,
    _read_texts,
    content_hash,
    load_corpus,
)
from thematica.errors import DecodeError, EmptyDocument, InvalidPageSize, PageOutOfRange

from conftest import make_corpus, write_docx, write_plain_text


def paragraph_texts(path: Path) -> list[str]:
    """The paragraph texts of the transcript at ``path``: with one paragraph
    per page, each page's text."""
    return [page.text for page in load_corpus(path, page_size=1).pages]


def test_plain_text_blocks_joined_across_soft_wraps(tmp_path: Path) -> None:
    source = tmp_path / "a.txt"
    source.write_text(
        "First paragraph spans\ntwo source lines.\n\n\nSecond paragraph.\n\n  \nThird.\n",
        encoding="utf-8",
    )
    pages = load_corpus(source, page_size=1).pages
    assert [page.text for page in pages] == [
        "First paragraph spans two source lines.",
        "Second paragraph.",
        "Third.",
    ]
    assert [page.number for page in pages] == [1, 2, 3]


def test_plain_text_strips_surrounding_whitespace(tmp_path: Path) -> None:
    source = tmp_path / "a.txt"
    source.write_text("\n\n   padded line   \n\n", encoding="utf-8")
    assert paragraph_texts(source) == ["padded line"]


def test_docx_paragraphs_concatenate_runs_and_drop_empties(tmp_path: Path) -> None:
    source = tmp_path / "a.docx"
    write_docx(source, ["Interviewer: welcome.", "", "Respondent: thank you.", "   "])
    assert paragraph_texts(source) == ["Interviewer: welcome.", "Respondent: thank you."]


def test_format_auto_detects_by_suffix(tmp_path: Path) -> None:
    docx = write_docx(tmp_path / "b.DOCX", ["From word processor."])
    txt = tmp_path / "b.txt"
    txt.write_text("From plain text.\n", encoding="utf-8")
    assert paragraph_texts(docx)[0] == "From word processor."
    assert paragraph_texts(txt)[0] == "From plain text."


def test_the_files_bytes_not_its_suffix_pick_the_reader(tmp_path: Path) -> None:
    text_named_docx = tmp_path / "actually_text.docx"
    text_named_docx.write_text("plain content\n", encoding="utf-8")
    assert paragraph_texts(text_named_docx) == ["plain content"]
    docx_named_txt = write_docx(tmp_path / "actually_docx.txt", ["From word processor.", "Two."])
    assert paragraph_texts(docx_named_txt) == ["From word processor.", "Two."]
    # The ZIP signature alone makes a package, and a broken one is no text.
    broken = tmp_path / "broken.txt"
    broken.write_bytes(b"PK\x03\x04 plain content\n")
    with pytest.raises(DecodeError, match="is not a valid OOXML package"):
        load_corpus(broken)
    empty = tmp_path / "empty.docx"
    empty.write_bytes(b"")
    with pytest.raises(EmptyDocument):
        load_corpus(empty)


def test_missing_file_raises_file_not_found(tmp_path: Path) -> None:
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "absent.txt")


def test_invalid_utf8_raises_decode_error(tmp_path: Path) -> None:
    source = tmp_path / "a.txt"
    source.write_bytes(b"\xff\xfe broken")
    with pytest.raises(DecodeError):
        load_corpus(source)


def test_docx_without_document_part_raises_decode_error(tmp_path: Path) -> None:
    import zipfile

    source = tmp_path / "a.docx"
    with zipfile.ZipFile(source, "w") as package:
        package.writestr("word/other.xml", "<x/>")
    with pytest.raises(DecodeError, match="document.xml"):
        load_corpus(source)


def test_blank_document_raises_empty_document(tmp_path: Path) -> None:
    source = tmp_path / "a.txt"
    source.write_text("\n\n   \n", encoding="utf-8")
    with pytest.raises(EmptyDocument):
        load_corpus(source)


def test_page_size_must_be_positive(tmp_path: Path) -> None:
    source = write_plain_text(tmp_path / "a.txt", ["alpha"])
    for bad in (0, -3):
        with pytest.raises(InvalidPageSize):
            load_corpus(source, page_size=bad)
        with pytest.raises(InvalidPageSize):
            Corpus(source_path="x", pages=(Page(1, "alpha"),), page_size=bad)


def test_pagination_chunks_match_slicing_oracle(tmp_path: Path) -> None:
    texts = [f"paragraph {i}" for i in range(25)]
    corpus = load_corpus(write_plain_text(tmp_path / "a.txt", texts), page_size=10)
    assert corpus.page_count == 3
    assert [len(page.text.split("\n")) for page in corpus.pages] == [10, 10, 5]
    for k, page in enumerate(corpus.pages, start=1):
        assert page.text.split("\n") == texts[(k - 1) * 10:k * 10]
        assert page.number == k


def test_page_text_joins_with_newlines(tmp_path: Path) -> None:
    corpus = load_corpus(write_plain_text(tmp_path / "a.txt", ["one", "two", "three"]),
                         page_size=2)
    assert corpus.pages[0].text == "one\ntwo"
    assert corpus.pages[1].text == "three"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Page(0, "alpha"), PageOutOfRange, "page number must be >= 1, got 0"),
    (lambda: Page(2, ""), EmptyDocument, "page 2 has no text"),
    (lambda: Page(2, "  \n "), EmptyDocument, "page 2 has no text"),
], ids=["number-0", "empty", "blank"])
def test_page_rejects_invalid_fields(build, error: type, message: str) -> None:
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_page_is_a_frozen_value() -> None:
    page = Page(1, "one\ntwo")
    twin = Page(number=1, text="one\ntwo")
    assert page == twin and page is not twin
    assert hash(page) == hash(twin) == hash((1, "one\ntwo"))
    assert page != Page(2, "one\ntwo") and page != Page(1, "one")
    assert repr(page) == "Page(number=1, text='one\\ntwo')"
    assert [f.name for f in fields(page) if f.init] == ["number", "text"]
    with pytest.raises(FrozenInstanceError):
        page.number = 2
    with pytest.raises(FrozenInstanceError):
        page.text = "other"
    assert (page.number, page.text) == (1, "one\ntwo")


def test_corpus_rejects_noncontiguous_pages() -> None:
    page_one = Page(1, "a")
    page_three = Page(3, "b")
    with pytest.raises(PageOutOfRange):
        Corpus(source_path="x", pages=(page_one, page_three), page_size=1)


def test_content_hash_is_format_independent(tmp_path: Path) -> None:
    texts = ["Opening remark.", "A longer middle paragraph.", "Closing."]
    txt = write_plain_text(tmp_path / "doc.txt", texts)
    docx = write_docx(tmp_path / "doc.docx", texts)
    hash_txt = content_hash(load_corpus(txt, page_size=2))
    hash_docx = content_hash(load_corpus(docx, page_size=2))
    assert hash_txt == hash_docx
    assert content_hash(load_corpus(txt, page_size=1)) == hash_txt
    # A UTF-8 byte-order mark is not text.
    marked = tmp_path / "marked.txt"
    marked.write_bytes(codecs.BOM_UTF8 + txt.read_bytes())
    assert load_corpus(marked, page_size=1).pages[0].text == texts[0]
    assert content_hash(load_corpus(marked, page_size=2)) == hash_txt
    assert len(hash_txt) == 64 and set(hash_txt) <= set("0123456789abcdef")
    # The documented definition: SHA-256 of the paragraph texts joined by
    # newlines. Every stored analysis.json carries this value.
    assert hash_txt == hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()
    seven = [f"Paragraph {i} of seven." for i in range(7)]
    short_last = make_corpus(seven, page_size=3)
    assert [len(page.text.split("\n")) for page in short_last.pages] == [3, 3, 1]
    assert content_hash(short_last) == hashlib.sha256("\n".join(seven).encode("utf-8")).hexdigest()


def test_content_hash_changes_with_content(tmp_path: Path) -> None:
    first = make_corpus(["alpha", "beta"])
    second = make_corpus(["alpha", "gamma"])
    assert content_hash(first) != content_hash(second)


# Paragraph texts that the plain-text reader returns as written: one line,
# with no surrounding whitespace and no byte-order mark.
_paragraph_texts = st.lists(
    st.text(min_size=1, max_size=40).map(lambda s: " ".join(s.replace("\ufeff", "").split()))
    .filter(bool),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(texts=_paragraph_texts, page_size=st.integers(min_value=1, max_value=12))
def test_pagination_laws(tmp_path_factory, texts: list[str], page_size: int) -> None:
    path = write_plain_text(tmp_path_factory.mktemp("laws") / "transcript.txt", texts)
    corpus = load_corpus(path, page_size=page_size)
    assert corpus.page_count == math.ceil(len(texts) / page_size)
    assert [page.number for page in corpus.pages] == list(range(1, corpus.page_count + 1))
    paragraphs = [page.text.split("\n") for page in corpus.pages]
    assert [text for page in paragraphs for text in page] == texts
    for page in paragraphs[:-1]:
        assert len(page) == page_size
    assert 1 <= len(paragraphs[-1]) <= page_size


_line = st.one_of(
    st.just(""),
    st.sampled_from([" ", "\t", "\u00a0", " \u00a0\t "]),
    st.text(alphabet="ab c.\u00a0\tß", min_size=1, max_size=16),
)
_line_break = st.sampled_from(["\n", "\n\n", "\n \n\n", "\r\n", "\r\n\r\n", "\r", "\x0c",
                               "\u2028"])
_block = st.lists(st.tuples(_line, _line_break), min_size=1, max_size=6).map(
    lambda lines: "".join(line + end for line, end in lines))
_transcripts = st.builds(lambda bom, blocks: bom + "\n\n".join(blocks),
                         st.sampled_from(["", "\ufeff"]), st.lists(_block, max_size=40))


def assert_loaded_as_paginated(path: Path, page_size: int) -> None:
    """load_corpus equals the reference paging of the reader's paragraph texts."""
    try:
        reference = make_corpus(_read_texts(path), page_size, str(path))
    except EmptyDocument as error:
        with pytest.raises(EmptyDocument) as raised:
            load_corpus(path, page_size)
        assert str(raised.value) == str(error)
        return
    loaded = load_corpus(path, page_size)
    assert content_hash(loaded) == content_hash(reference)
    assert (loaded.source_path, loaded.page_size) == (reference.source_path, reference.page_size)
    assert len(loaded.pages) == len(reference.pages)
    for page, expected in zip(loaded.pages, reference.pages):
        assert (page.number, page.text) == (expected.number, expected.text)
        assert page == expected and expected == page
        assert hash(page) == hash(expected)
        assert repr(page) == repr(expected)
    assert loaded == reference and reference == loaded


@settings(max_examples=200, deadline=None)
@given(transcript=_transcripts, page_size=st.integers(min_value=1, max_value=12))
def test_load_corpus_equals_paginated_paragraphs(tmp_path_factory, transcript: str,
                                                  page_size: int) -> None:
    path = tmp_path_factory.mktemp("loaded") / "transcript.txt"
    path.write_bytes(transcript.encode("utf-8"))
    assert_loaded_as_paginated(path, page_size)


@pytest.mark.parametrize("page_size", [1, 2, 3])
def test_load_corpus_equals_paginated_paragraphs_of_a_docx(tmp_path: Path,
                                                            page_size: int) -> None:
    # A run with a line break inside stays one paragraph of the loaded page.
    path = write_docx(tmp_path / "doc.docx",
                      ["Opening.", "  ", "Line one\nline two", "Middle.", "Closing."])
    assert_loaded_as_paginated(path, page_size)


def test_a_loaded_page_copies_pickles_and_stays_frozen(samples_dir: Path) -> None:
    path = samples_dir / "transcript.txt"
    built = make_corpus(_read_texts(path), 3, str(path)).pages[1]

    def loaded() -> Page:
        return load_corpus(path, page_size=3).pages[1]

    assert dataclasses.asdict(loaded()) == dataclasses.asdict(built)
    for twin in (copy.copy(loaded()), copy.deepcopy(loaded()),
                 pickle.loads(pickle.dumps(loaded()))):
        assert twin == built and repr(twin) == repr(built) and twin.text == built.text
    moved = dataclasses.replace(loaded(), number=7)
    assert moved == dataclasses.replace(built, number=7) and moved.text == built.text
    page = loaded()
    with pytest.raises(FrozenInstanceError):
        page.text = ""
    with pytest.raises(FrozenInstanceError):
        page.number = 2
    with pytest.raises(AttributeError, match="'Page' object has no attribute 'paragraphs'"):
        page.paragraphs
    assert page == built


@pytest.mark.parametrize("content, error", [
    (b"\n \n", EmptyDocument),
    (b"\xff broken\n", DecodeError),
    (b"content\n", InvalidPageSize),
], ids=["empty", "not-utf-8", "valid"])
def test_load_corpus_reports_a_bad_file_before_a_bad_page_size(
        tmp_path: Path, content: bytes, error: type) -> None:
    path = tmp_path / "a.txt"
    path.write_bytes(content)
    with pytest.raises(error):
        load_corpus(path, page_size=0)


"""Transcript loading and fixed-size paging.

A document is an ordered list of non-empty paragraphs.  Paging groups every
``page_size`` consecutive paragraphs into one page; the page is the unit of
text sent to the model.  Two input formats are supported: UTF-8 plain text
with blank-line paragraph delimiters, and OOXML word documents (``.docx``),
from which only body paragraph text is extracted (no tables, headers, or
comments).

Plain-text blocks that span several physical lines are treated as one
soft-wrapped paragraph; the lines are rejoined with single spaces so quotes
never straddle an artificial line break.

A corpus from :func:`load_corpus` builds each page's text straight from the
paragraph texts; the page's :class:`Paragraph` objects are built on first
access of :attr:`Page.paragraphs`, since the pipeline reads only page numbers
and texts.  The pages equal those :func:`paginate` builds from
:func:`load_document`.
"""

from __future__ import annotations

import hashlib
import math
import zipfile
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

from .errors import DecodeError, EmptyDocument, InvalidPageSize, PageOutOfRange
from .textnorm import normalize_for_match, source_index

_WORD_NS = "{http://schemas.openxmlformats.org/wordprocessingml/2006/main}"

PLAIN_TEXT = "plain_text"
OOXML_DOCX = "ooxml_docx"
FORMATS = ("auto", PLAIN_TEXT, OOXML_DOCX)


@dataclass(frozen=True, init=False)
class Paragraph:
    """One non-empty paragraph; ``index`` is the 0-based ordinal among kept paragraphs."""

    index: int
    text: str

    def __init__(self, index: int, text: str) -> None:
        if not text.strip():
            raise EmptyDocument("paragraph text must be non-empty")
        if index < 0:
            raise ValueError("paragraph index must be >= 0")
        self.__dict__.update(index=index, text=text)


@dataclass(frozen=True, init=False)
class Page:
    """An ordered block of paragraphs with a 1-based page number.

    :attr:`text`, the paragraphs joined by single newlines, is built with the
    page.  Quote tracing reads its :attr:`match_text` and maps spans back to
    :attr:`text` with :meth:`source_span`; each of those builds its state
    once, lazily, on first use.  So does :attr:`paragraphs` on a page that
    :func:`load_corpus` built: it keeps the paragraph texts and builds the
    :class:`Paragraph` objects on first access.
    """

    number: int
    paragraphs: tuple[Paragraph, ...]
    text: str = field(init=False, compare=False, repr=False)

    def __init__(self, number: int, paragraphs: tuple[Paragraph, ...]) -> None:
        if number < 1:
            raise PageOutOfRange(f"page number must be >= 1, got {number}")
        if not paragraphs:
            raise EmptyDocument(f"page {number} has no paragraphs")
        self.__dict__.update(number=number, paragraphs=paragraphs,
                             text="\n".join([p.text for p in paragraphs]))

    @classmethod
    def _from_texts(cls, number: int, first_index: int, texts: tuple[str, ...]) -> Page:
        """A page of trimmed, non-empty reader texts whose paragraphs are built on first access."""
        page = cls.__new__(cls)
        page.__dict__.update(number=number, text="\n".join(texts),
                             _first_index=first_index, _texts=texts)
        return page

    def __getattr__(self, name: str) -> tuple[Paragraph, ...]:
        # Normal lookup failed: only a page from _from_texts lacks a field,
        # its paragraphs until their first access.
        state = self.__dict__
        if name != "paragraphs" or "_texts" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        paragraphs = tuple(Paragraph(index, text)
                           for index, text in enumerate(state["_texts"], state["_first_index"]))
        state["paragraphs"] = paragraphs
        return paragraphs

    @cached_property
    def match_text(self) -> str:
        """:func:`normalize_for_match` of :attr:`text`, built on first use and kept."""
        return normalize_for_match(self.text)

    @cached_property
    def _source_index(self) -> Callable[[int], int]:
        return source_index(self.text, self.match_text)

    def source_span(self, start: int, end: int) -> tuple[int, int]:
        """The span of :attr:`text` that ``match_text[start:end]`` came from;
        the position map behind it is built on the first call and kept."""
        if start >= len(self.match_text):
            return len(self.text), len(self.text)
        source_start = self._source_index(start)
        return source_start, (self._source_index(end - 1) + 1 if end > start else source_start)


@dataclass(frozen=True)
class Corpus:
    """A paged document: contiguous pages, each of ``page_size`` paragraphs except possibly the last."""

    source_path: str
    pages: tuple[Page, ...]
    page_size: int = 10

    def __post_init__(self) -> None:
        _check_page_size(self.page_size)
        for position, page in enumerate(self.pages, start=1):
            if page.number != position:
                raise PageOutOfRange(
                    f"pages must be contiguous from 1; found number {page.number} at position {position}"
                )

    @property
    def page_count(self) -> int:
        return len(self.pages)

    def paragraphs(self) -> tuple[Paragraph, ...]:
        """All paragraphs in original document order."""
        return tuple(p for page in self.pages for p in page.paragraphs)


def load_document(path: str | Path, format: str = "auto") -> list[Paragraph]:
    """Load trimmed, non-empty paragraphs from a transcript file.

    ``format`` is ``plain_text``, ``ooxml_docx``, or ``auto`` (decided by the
    ``.docx`` suffix).  Each reader trims its paragraphs and drops the empty
    ones; indices number the kept paragraphs.
    """
    return [Paragraph(index, text) for index, text in enumerate(_read_texts(Path(path), format))]


def paginate(paragraphs: list[Paragraph], page_size: int = 10, source_path: str = "") -> Corpus:
    """Group paragraphs into pages of ``page_size``; the last page may be short."""
    _check_page_size(page_size)
    if not paragraphs:
        raise EmptyDocument("cannot paginate an empty paragraph list")
    pages = tuple(
        Page(number=i // page_size + 1, paragraphs=tuple(paragraphs[i:i + page_size]))
        for i in range(0, len(paragraphs), page_size)
    )
    assert len(pages) == math.ceil(len(paragraphs) / page_size)
    return Corpus(source_path=source_path, pages=pages, page_size=page_size)


def load_corpus(path: str | Path, page_size: int = 10, format: str = "auto") -> Corpus:
    """Load a document and paginate it in one call.

    The corpus equals ``paginate(load_document(path, format), page_size,
    str(path))``, but its pages build their :class:`Paragraph` objects on
    first access of :attr:`Page.paragraphs`.
    """
    texts = tuple(_read_texts(Path(path), format))
    _check_page_size(page_size)
    pages = tuple(Page._from_texts(number, first, texts[first:first + page_size])
                  for number, first in enumerate(range(0, len(texts), page_size), start=1))
    return Corpus(source_path=str(path), pages=pages, page_size=page_size)


def content_hash(corpus: Corpus) -> str:
    """Lowercase hex SHA-256 of the paragraph texts, newline-joined.

    Stable across input formats and page sizes that carry identical paragraph
    content, so an artifact can be checked against a re-loaded corpus.  The
    pages' :attr:`Page.text`, newline-joined, are those same bytes.
    """
    joined = "\n".join([page.text for page in corpus.pages])
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def read_utf8(path: Path) -> str:
    """The text of the file at ``path``, without a leading UTF-8 byte-order
    mark; bytes that are not UTF-8 raise DecodeError."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{path} is not valid UTF-8: {exc}") from exc


def _check_page_size(page_size: int) -> None:
    if page_size < 1:
        raise InvalidPageSize(f"page_size must be >= 1, got {page_size}")


def _read_texts(path: Path, format: str) -> list[str]:
    """The trimmed, non-empty paragraph texts of the transcript at ``path``."""
    if format == "auto":
        format = OOXML_DOCX if path.suffix.lower() == ".docx" else PLAIN_TEXT
    if format == PLAIN_TEXT:
        texts = _read_plain_text(path)
    elif format == OOXML_DOCX:
        texts = _read_docx(path)
    else:
        raise ValueError(f"unknown format {format!r}; expected {PLAIN_TEXT!r} or {OOXML_DOCX!r}")
    if not texts:
        raise EmptyDocument(f"{path} contains no non-empty paragraphs")
    return texts


def _read_plain_text(path: Path) -> list[str]:
    blocks: list[str] = []
    current: list[str] = []
    for line in read_utf8(path).splitlines():
        line = line.strip()
        if line:
            current.append(line)
        elif current:
            blocks.append(" ".join(current))
            current = []
    if current:
        blocks.append(" ".join(current))
    return blocks


def _read_docx(path: Path) -> list[str]:
    from xml.etree import ElementTree  # only a .docx needs the XML parser
    try:
        with zipfile.ZipFile(path) as package:
            try:
                document_xml = package.read("word/document.xml")
            except KeyError as exc:
                raise DecodeError(f"{path} has no word/document.xml part") from exc
    except zipfile.BadZipFile as exc:
        raise DecodeError(f"{path} is not a valid OOXML package: {exc}") from exc
    try:
        root = ElementTree.fromstring(document_xml)
    except ElementTree.ParseError as exc:
        raise DecodeError(f"{path} has malformed document XML: {exc}") from exc
    body = root.find(f"{_WORD_NS}body")
    if body is None:
        raise DecodeError(f"{path} document XML has no body element")
    texts: list[str] = []
    for child in body:
        # Only direct body paragraphs; skips tables and section properties.
        if child.tag == f"{_WORD_NS}p":
            text = "".join(node.text or "" for node in child.iter(f"{_WORD_NS}t")).strip()
            if text:
                texts.append(text)
    return texts

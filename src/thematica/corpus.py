"""Transcript loading and fixed-size paging.

A transcript is an ordered list of trimmed, non-empty paragraph texts.
:func:`load_corpus` reads them and groups every ``page_size`` consecutive
paragraphs into one :class:`Page`: its 1-based number and its text, the
paragraphs joined by single newlines.  The page is the unit of text sent to
the model.  The file's first bytes pick its reader: a file that starts
with the ZIP local-file-header signature ``PK\x03\x04`` is read as an OOXML
word document (``.docx``), of which only body paragraph text is extracted
(no tables, headers, or comments), and any other file as UTF-8 plain text
with blank-line paragraph delimiters.  The file name plays no part.

Plain-text blocks that span several physical lines are treated as one
soft-wrapped paragraph; the lines are rejoined with single spaces so quotes
never straddle an artificial line break.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

from .errors import DecodeError, EmptyDocument, InvalidPageSize, PageOutOfRange
from .textnorm import normalize_for_match, source_index

_WORD_NS = "{http://schemas.openxmlformats.org/wordprocessingml/2006/main}"
# Every ZIP archive, so every OOXML package, starts with this signature.
_ZIP_SIGNATURE = b"PK\x03\x04"


@dataclass(frozen=True, init=False)
class Page:
    """A 1-based page number and the page's text, its paragraphs joined by
    single newlines.

    Quote tracing reads its :attr:`match_text` and maps spans back to
    :attr:`text` with :meth:`source_span`; each of those builds its state
    once, lazily, on first use.
    """

    number: int
    text: str

    def __init__(self, number: int, text: str) -> None:
        if number < 1:
            raise PageOutOfRange(f"page number must be >= 1, got {number}")
        if not text or text.isspace():
            raise EmptyDocument(f"page {number} has no text")
        self.__dict__.update(number=number, text=text)

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


def load_corpus(path: str | Path, page_size: int = 10) -> Corpus:
    """Load a transcript and group its paragraphs into pages of ``page_size``;
    the last page may be short.

    Each reader trims its paragraphs and drops the empty ones.
    """
    texts = _read_texts(Path(path))
    _check_page_size(page_size)
    pages = tuple(Page(number, "\n".join(texts[first:first + page_size]))
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


def _read_texts(path: Path) -> list[str]:
    """The trimmed, non-empty paragraph texts of the transcript at ``path``,
    read as a ``.docx`` package if the file starts with the ZIP signature."""
    with path.open("rb") as file:
        is_package = file.read(len(_ZIP_SIGNATURE)) == _ZIP_SIGNATURE
    texts = _read_docx(path) if is_package else _read_plain_text(path)
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

"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import math
import os
import shutil
import zipfile
from pathlib import Path

import pytest

import thematica
from thematica.corpus import Corpus, Page
from thematica.outparse import CodeRecord, ThemeRecord
from test_textnorm import reference_normalize_with_map

_DOCX_CONTENT_TYPES = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
  <Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
  <Default Extension="xml" ContentType="application/xml"/>
  <Override PartName="/word/document.xml" ContentType="application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"/>
</Types>
"""

_DOCX_RELS = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
  <Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="word/document.xml"/>
</Relationships>
"""


def make_corpus(texts: list[str], page_size: int = 10, source_path: str = "memory") -> Corpus:
    """Corpus built straight from paragraph texts, skipping file IO: the
    reference paging that load_corpus must equal.  Page k holds texts
    (k-1)*page_size up to k*page_size, joined by newlines."""
    pages = tuple(Page(k, "\n".join(texts[(k - 1) * page_size:k * page_size]))
                  for k in range(1, math.ceil(len(texts) / page_size) + 1))
    return Corpus(source_path=source_path, pages=pages, page_size=page_size)


def source_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this checkout's thematica."""
    source_root = Path(thematica.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(source_root), env.get("PYTHONPATH"))))
    return env


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_plain_text(path: Path, paragraphs: list[str]) -> Path:
    """Write a plain-text transcript with one blank-line-delimited block per paragraph."""
    path.write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")
    return path


def write_docx(path: Path, paragraphs: list[str]) -> Path:
    """Write a minimal OOXML word-processing package with one run per paragraph."""
    body = "".join(
        f"<w:p><w:r><w:t xml:space=\"preserve\">{_xml_escape(text)}</w:t></w:r></w:p>"
        for text in paragraphs
    )
    document = (
        "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>"
        "<w:document xmlns:w=\"http://schemas.openxmlformats.org/wordprocessingml/2006/main\">"
        f"<w:body>{body}</w:body></w:document>"
    )
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as package:
        package.writestr("[Content_Types].xml", _DOCX_CONTENT_TYPES)
        package.writestr("_rels/.rels", _DOCX_RELS)
        package.writestr("word/document.xml", document)
    return path


_LABEL_WORDS = (
    "Adaptation", "Ambition", "Barriers", "Belonging", "Career", "Climate",
    "Community", "Confidence", "Culture", "Development", "Distance", "Family",
    "Growth", "Identity", "Isolation", "Language", "Mobility", "Motivation",
    "Opportunity", "Pressure", "Recognition", "Resilience", "Support", "Workload",
)

_QUOTE_WORDS = (
    "we", "felt", "the", "change", "every", "day", "and", "nobody", "told",
    "us", "what", "to", "expect", "but", "it", "slowly", "became", "home",
    "after", "some", "months", "of", "adjusting", "together",
)


def random_label(rng) -> str:
    """A label that survives display normalization unchanged."""
    count = rng.randint(1, 4)
    return " ".join(rng.choice(_LABEL_WORDS) for _ in range(count))


def random_quote(rng) -> str:
    count = rng.randint(3, 12)
    return " ".join(rng.choice(_QUOTE_WORDS) for _ in range(count)) + "."


def random_code_records(rng) -> list[CodeRecord]:
    """Records grouped by ascending pages, as the canonical digest expects."""
    records: list[CodeRecord] = []
    page = 0
    for _ in range(rng.randint(1, 4)):
        page += rng.randint(1, 3)
        for _ in range(rng.randint(1, 5)):
            records.append(CodeRecord(label=random_label(rng),
                                      quote=random_quote(rng), page=page))
    return records


def random_themes(rng) -> list[ThemeRecord]:
    themes: list[ThemeRecord] = []
    for _ in range(rng.randint(1, 5)):
        members = tuple(random_label(rng) for _ in range(rng.randint(1, 6)))
        description = random_quote(rng) if rng.random() < 0.8 else ""
        themes.append(ThemeRecord(name=random_label(rng), member_labels=members,
                                  description=description))
    return themes


def oracle_min_edit(pattern: str, text: str) -> int:
    """Minimum edit distance from pattern to any contiguous slice of text."""
    previous = [0] * (len(text) + 1)
    for i, p_char in enumerate(pattern, start=1):
        current = [i]
        for j, t_char in enumerate(text, start=1):
            current.append(min(previous[j - 1] + (p_char != t_char),
                               previous[j] + 1,
                               current[j - 1] + 1))
        previous = current
    return min(previous)


def oracle_trace_level(quote: str, text: str, threshold: float = 0.85) -> tuple[str, float]:
    """Reference grading of one quote against one page text.

    Match normalization comes from the per-character reference loop in
    ``test_textnorm``, not from the code under test.
    """
    if quote in text:
        return "Exact", 1.0
    norm_quote = reference_normalize_with_map(quote)[0]
    norm_text = reference_normalize_with_map(text)[0]
    if not norm_quote:
        return "Failed", 0.0
    if norm_quote in norm_text:
        return "Normalized", 1.0
    similarity = max(0.0, 1.0 - oracle_min_edit(norm_quote, norm_text) / len(norm_quote))
    if similarity >= threshold:
        return "Fuzzy", similarity
    return "Failed", 0.0


@pytest.fixture(scope="session")
def samples_dir() -> Path:
    return Path(thematica.__file__).parent / "samples"


@pytest.fixture()
def sample_workspace(samples_dir: Path, tmp_path: Path) -> Path:
    """Fresh copy of the bundled sample data for tests that write next to it."""
    target = tmp_path / "samples"
    shutil.copytree(samples_dir, target)
    return target


@pytest.fixture()
def fixture_opens(monkeypatch: pytest.MonkeyPatch) -> dict[str, list]:
    """The (path, descriptor) of every ``os.open`` call and the descriptor of
    every ``os.close`` call, in order."""
    calls: dict[str, list] = {"opened": [], "closed": []}
    real_open, real_close = os.open, os.close

    def counting_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        calls["opened"].append((Path(path), fd))
        return fd

    def counting_close(fd: int) -> None:
        calls["closed"].append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(os, "close", counting_close)
    return calls

"""Parsers for the free-text replies produced by the analysis prompts.

The extraction step yields code lists in (at least) three dialects:

* D1, one line per code: ``1. **Label**: "quote" - Page N``
* D2, block form: ``Emerging Code: **Label**`` followed by
  ``- Supporting Sentence: "quote"`` and ``- Page: Page N`` lines
* D3, a numbered label line followed by ``- "quote"`` and ``- Page N`` lines

:func:`parse_code_block` reads them in one loop: an ``Emerging Code:`` or
numbered line starts an entry, which dash lines fill; a D1 line is complete.

The theme step yields ``### Theme K: Name`` blocks with member bullets and a
``**Description**:`` paragraph; the interpretation step yields prose sections
under ``Theme K: Name`` headings.  Both share one heading grammar, split by
one function: ``#`` and ``**`` decorations are optional, prompt-cue echoes
before the first heading are skipped, and other lines there are preamble,
reported in one warning.  All parsers are tolerant: malformed entries and
unrecognized lines become warnings, never failures.  A code that
:class:`CodeRecord` rejects (an empty or overlong label, page 0), or a theme
that :class:`ThemeRecord` rejects (a name that normalizes to nothing), is
such an entry: it is excluded with an ``invalid_code`` or ``invalid_theme``
warning that gives the reason.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .errors import NoRecordsFound
from .textnorm import label_key, normalize_label

LIST_DELIMITER = re.compile(r"^\s*-{2,}\s*List of All Emerging Codes\s*-{2,}\s*$", re.IGNORECASE)

# Structural lines: section headers the prompts ask for, and page headers.
_BOILERPLATE = re.compile(
    r"^\s*(?:(?:All )?Emerging Codes with Supporting Sentences and Page Numbers?\s*:?"
    r"|Page\s+\d+\s*:"
    r"|Generated Themes\s*:?"
    r"|Interpretation of Themes\s*:?)\s*$",
    re.IGNORECASE,
)

_NUMBERED = re.compile(r"^\s*(\d+)[.)]\s+(?P<rest>\S.*)$")
_D2_START = re.compile(r"^\s*Emerging Code\s*:\s*(?P<rest>\S.*)$", re.IGNORECASE)
_DASH = re.compile(r"^\s*-\s+(?P<rest>\S.*)$")
_SUPPORTING = re.compile(r"^Supporting Sentence\s*:\s*(?P<rest>.*)$", re.IGNORECASE)
_PAGE_VALUE = re.compile(r"page\s*:?\s*(?:page\s+)?(\d+)", re.IGNORECASE)
_PAGE_LINE = re.compile(r"^\s*Page\b", re.IGNORECASE)
_THEME_HEADER = re.compile(
    r"^\s*(?:#{1,6}\s*)?(?:\*{2,3}\s*)?Theme\s+(?P<number>\d+)\s*:\s*(?P<name>.+?)\s*(?:\*{2,3})?\s*:?\s*$",
    re.IGNORECASE,
)
_DESCRIPTION = re.compile(r"^\s*(?:\*\*)?Description(?:\*\*)?\s*:\s*(?P<rest>.*)$", re.IGNORECASE)

_QUOTE_CHARS = "\"“”"

MAX_LABEL_LENGTH = 200  # of a code label; compare matches human theme names as labels too


@dataclass(frozen=True)
class CodeRecord:
    """One inductive code with its supporting quote and page reference.

    ``key`` is the label's matching key (:func:`label_key`), computed once
    here and read by codebooks, matching, merging and the presence matrix.
    """

    label: str
    quote: str
    page: int | None
    provenance: str = "llm"
    raw_span: tuple[int, int] | None = None
    aliases: tuple[str, ...] = ()
    key: str = field(init=False, repr=False, compare=False, default="")

    def __post_init__(self) -> None:
        if not self.label.strip():
            raise ValueError("code label must be non-empty")
        if len(self.label) > MAX_LABEL_LENGTH:
            raise ValueError(f"code label exceeds {MAX_LABEL_LENGTH} characters: {self.label[:40]}...")
        if self.page is not None and self.page < 1:
            raise ValueError(f"page must be >= 1, got {self.page}")
        object.__setattr__(self, "key", label_key(self.label))


@dataclass(frozen=True)
class ThemeRecord:
    """A named grouping of code labels with a description and optional interpretation."""

    name: str
    member_labels: tuple[str, ...] = ()
    description: str = ""
    interpretation: str | None = None
    raw_span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("theme name must be non-empty")


@dataclass(frozen=True)
class ParseWarning:
    """A non-fatal parse finding; ``line`` is 1-based (0 for whole-reply notes)."""

    line: int
    kind: str
    detail: str


@dataclass(frozen=True)
class ParseReport:
    """Parsed records plus the warning channel.

    Malformed entries and unrecognized lines become ``warnings``, never
    failures.  ``has_code_list`` tells whether a code-extraction reply has
    the emerging-code list delimiter, so callers need not scan it again.
    """

    records: tuple = ()
    warnings: tuple[ParseWarning, ...] = ()
    has_code_list: bool = False


@dataclass
class _OpenCode:
    label: str
    start_line: int
    last_line: int
    quote: str = ""
    page: int | None = None


def _is_boilerplate(line: str) -> bool:
    return _BOILERPLATE.match(line) is not None


def _strip_quote_pair(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] in _QUOTE_CHARS and text[-1] in _QUOTE_CHARS:
        return text[1:-1]
    return text


def _find_quoted_segment(text: str) -> tuple[int, int] | None:
    """Index range [start, end) spanning the first through last quote char."""
    starts = [i for i in map(text.find, _QUOTE_CHARS) if i >= 0]
    if not starts:
        return None
    first = min(starts)
    last = max(map(text.rfind, _QUOTE_CHARS))
    if last == first:
        return None
    return first, last + 1


def parse_code_block(reply: str, expected_page: int) -> ParseReport:
    """Parse one page's extraction reply into CodeRecords.

    Codes missing a page reference fall back to ``expected_page`` with a
    warning; codes missing a quote, or whose quote is blank once its quote
    marks are stripped, and codes :class:`CodeRecord` rejects are excluded
    with a warning.  Content from the emerging-code list delimiter onward
    belongs to :func:`parse_emerging_code_list` and is skipped here.
    """
    if not reply.strip():
        raise NoRecordsFound("empty reply")
    if expected_page < 1:
        raise ValueError(f"expected_page must be >= 1, got {expected_page}")

    records: list[CodeRecord] = []
    warnings: list[ParseWarning] = []

    def finish(entry: _OpenCode) -> None:
        if not entry.quote.strip():
            warnings.append(ParseWarning(entry.start_line, "missing_quote",
                                         f"code {entry.label!r} has no supporting sentence; excluded"))
            return
        label = normalize_label(entry.label)
        try:
            record = CodeRecord(label=label, quote=entry.quote,
                                page=expected_page if entry.page is None else entry.page,
                                raw_span=(entry.start_line, entry.last_line))
        except ValueError as exc:
            warnings.append(ParseWarning(entry.start_line, "invalid_code", f"{exc}; excluded"))
            return
        if entry.page is None:
            warnings.append(ParseWarning(entry.start_line, "missing_page",
                                         f"code {label!r} cites no page; assuming page {expected_page}"))
        records.append(record)

    entry: _OpenCode | None = None
    found = has_code_list = False
    for lineno, line in enumerate(reply.splitlines(), start=1):
        if not line.strip() or _is_boilerplate(line):
            continue
        if LIST_DELIMITER.match(line):  # never a boilerplate line
            has_code_list = True
            break

        d2 = _D2_START.match(line)
        numbered = None if d2 else _NUMBERED.match(line)
        if d2 or numbered:
            if entry is not None:
                finish(entry)
            found = True
            rest = (d2 or numbered).group("rest")
            segment = _find_quoted_segment(rest) if numbered else None
            if segment is None:
                entry = _OpenCode(label=rest, start_line=lineno, last_line=lineno)
            else:  # D1: label, quote and page on this one line
                start, end = segment
                page = _PAGE_VALUE.search(rest, end)
                finish(_OpenCode(label=rest[:start].rstrip().removesuffix(":"), start_line=lineno,
                                 last_line=lineno, quote=_strip_quote_pair(rest[start:end]),
                                 page=int(page.group(1)) if page else None))
                entry = None
            continue

        dash = _DASH.match(line) if entry is not None else None
        if dash:
            rest = dash.group("rest")
            entry.last_line = lineno
            supporting = _SUPPORTING.match(rest)
            if supporting:
                entry.quote = _strip_quote_pair(supporting.group("rest"))
            elif _PAGE_LINE.match(rest) and (page := _PAGE_VALUE.search(rest)):
                entry.page = int(page.group(1))
            elif rest[0] in _QUOTE_CHARS:  # a "Page" line never starts with a quote
                entry.quote = _strip_quote_pair(rest)
            else:
                warnings.append(ParseWarning(lineno, "unrecognized_attribute", rest))
            continue

        warnings.append(ParseWarning(lineno, "unrecognized_line", line.strip()))

    if entry is not None:
        finish(entry)
    if not found:
        if not has_code_list:
            raise NoRecordsFound("reply contained no recognizable code structure")
        warnings.append(ParseWarning(0, "list_only_reply",
                                     "reply contains only an emerging-code list"))
    return ParseReport(records=tuple(records), warnings=tuple(warnings),
                       has_code_list=has_code_list)


def parse_emerging_code_list(reply: str) -> list[str]:
    """Parse the consolidated emerging-code list into deduplicated labels.

    Labels keep first-appearance order; duplicates are removed
    case-insensitively.  The reply either contains the list delimiter or is
    itself a bulleted/numbered label list.
    """
    if not reply.strip():
        raise NoRecordsFound("empty reply")
    lines = reply.splitlines()
    start = 0
    for index, line in enumerate(lines):
        if LIST_DELIMITER.match(line):
            start = index + 1
            break
    labels: list[str] = []
    seen: set[str] = set()
    for line in lines[start:]:
        if not line.strip():
            continue
        bullet = _DASH.match(line) or _NUMBERED.match(line)
        if not bullet:
            continue
        label = normalize_label(bullet.group("rest"))
        if not label:
            continue
        key = label_key(label)
        if key not in seen:
            seen.add(key)
            labels.append(label)
    if not labels:
        raise NoRecordsFound("no emerging-code list entries found")
    return labels


def render_code_line(record: CodeRecord, index: int) -> str:
    """Canonical one-line rendering of a code: numbered, bold label, quote, page."""
    return f'{index}. **{record.label}**: "{record.quote}" - Page {record.page}'


def render_codes_digest(records: list[CodeRecord] | tuple[CodeRecord, ...]) -> str:
    """Canonical multi-page code digest: a Page header per page, numbered lines.

    Numbering restarts on each page; page groups follow record order and are
    separated by blank lines.  :func:`parse_code_block` inverts each page
    group exactly.
    """
    blocks: list[str] = []
    current_page: int | None = None
    lines: list[str] = []
    for record in records:
        if record.page != current_page:
            if lines:
                blocks.append("\n".join(lines))
            current_page = record.page
            lines = [f"Page {record.page}:"]
        lines.append(render_code_line(record, len(lines)))
    if lines:
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_theme_digest(themes: list[ThemeRecord] | tuple[ThemeRecord, ...]) -> str:
    """Canonical theme digest: header, member bullets, description line."""
    blocks: list[str] = []
    for number, theme in enumerate(themes, start=1):
        lines = [f"### Theme {number}: {theme.name}"]
        lines.extend(f"- **{label}**" for label in theme.member_labels)
        if theme.description:
            lines.append(f"**Description**: {theme.description}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _theme_sections(reply: str, heading: str) -> tuple[
        list[tuple[int, int, str, list[tuple[int, str]]]], list[ParseWarning]]:
    """Split a theme or interpretation reply on its ``Theme K: Name`` headers.

    Returns the sections as (header line, number, normalized name, numbered
    body lines) and at most one ``preamble`` warning for the prose before the
    first header; prompt-cue echoes there are skipped.  ``heading`` names the
    header in that warning.
    """
    if not reply.strip():
        raise NoRecordsFound("empty reply")
    sections: list[tuple[int, int, str, list[tuple[int, str]]]] = []
    prose: list[int] = []
    for lineno, line in enumerate(reply.splitlines(), start=1):
        header = _THEME_HEADER.match(line)
        if header:
            sections.append((lineno, int(header.group("number")),
                             normalize_label(header.group("name")), []))
        elif sections:
            sections[-1][3].append((lineno, line))
        elif line.strip() and not _is_boilerplate(line):
            prose.append(lineno)
    note = f"{len(prose)} line(s) before the first {heading} ignored"
    return sections, [ParseWarning(prose[0], "preamble", note)] if prose else []


def parse_theme_block(reply: str) -> ParseReport:
    """Parse a theme-generation reply into ThemeRecords.

    Recognizes ``### Theme K: Name`` headers, ``- **Label**`` member bullets,
    and ``**Description**:`` paragraphs.  Prose before the first header is
    ignored with a note.  Themes without member bullets are kept but flagged;
    a theme :class:`ThemeRecord` rejects (a name that normalizes to nothing)
    is excluded with a warning.
    """
    sections, warnings = _theme_sections(reply, "theme header")
    records: list[ThemeRecord] = []
    for start_line, _, name, body in sections:
        last_line = start_line
        members: list[str] = []
        description_parts: list[str] = []
        in_description = False
        for lineno, line in body:
            if not line.strip():
                continue
            last_line = lineno
            if _is_boilerplate(line):
                continue
            desc = _DESCRIPTION.match(line)
            if desc:
                in_description = True
                description_parts.append(desc.group("rest").strip())
                continue
            bullet = _DASH.match(line)
            if bullet:
                in_description = False
                member = normalize_label(bullet.group("rest"))
                if member:
                    members.append(member)
                else:
                    warnings.append(ParseWarning(lineno, "empty_member", line.strip()))
                continue
            if in_description:
                description_parts.append(line.strip())
                continue
            warnings.append(ParseWarning(lineno, "unrecognized_line", line.strip()))
        try:
            record = ThemeRecord(name=name, member_labels=tuple(members),
                                 description=" ".join(filter(None, description_parts)),
                                 raw_span=(start_line, last_line))
        except ValueError as exc:
            warnings.append(ParseWarning(start_line, "invalid_theme", f"{exc}; excluded"))
            continue
        if not members:
            warnings.append(ParseWarning(start_line, "empty_members",
                                         f"theme {name!r} lists no member codes"))
        records.append(record)

    if not records:
        raise NoRecordsFound("reply contained no named theme header" if sections
                             else "reply contained no theme headers")
    return ParseReport(records=tuple(records), warnings=tuple(warnings))


def parse_interpretation_block(reply: str, themes: list[ThemeRecord] | tuple[ThemeRecord, ...]) -> ParseReport:
    """Attach interpretation prose to themes from an interpretation reply.

    The reply is split on ``Theme K:`` headings (optionally decorated with
    ``###`` or ``***``); sections match themes by number first, then by name.
    Returns a report whose records are the full theme list with
    interpretations filled where matched; unmatched sections and themes left
    uncovered become warnings.
    """
    sections, warnings = _theme_sections(reply, "heading")
    if not sections:
        raise NoRecordsFound("reply contained no theme interpretation headings")

    by_key = {label_key(theme.name): index for index, theme in enumerate(themes)}
    texts: dict[int, str] = {}
    for line, number, section_name, body in sections:
        text = "\n".join(body_line for _, body_line in body).strip()
        target = number - 1 if 1 <= number <= len(themes) else by_key.get(label_key(section_name))
        if target is None:
            warnings.append(ParseWarning(line, "unmatched_section",
                                         f"no theme matches section {number} ({section_name!r})"))
            continue
        if target in texts:
            warnings.append(ParseWarning(line, "duplicate_section",
                                         f"theme {themes[target].name!r} interpreted twice; keeping first"))
            continue
        if not text:
            warnings.append(ParseWarning(line, "empty_interpretation",
                                         f"section for {themes[target].name!r} has no prose"))
            continue
        texts[target] = text

    updated = []
    for index, theme in enumerate(themes):
        if index in texts:
            updated.append(replace(theme, interpretation=texts[index]))
        else:
            warnings.append(ParseWarning(0, "missing_interpretation",
                                         f"theme {theme.name!r} received no interpretation"))
            updated.append(theme)

    return ParseReport(records=tuple(updated), warnings=tuple(warnings))

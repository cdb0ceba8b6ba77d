"""Parsers for the free-text replies produced by the analysis prompts.

The extraction step yields code lists in (at least) three dialects:

* D1, one line per code: ``1. **Label**: "quote" - Page N``
* D2, block form: ``Emerging Code: **Label**`` followed by
  ``- Supporting Sentence: "quote"`` and ``- Page: Page N`` lines
* D3, a numbered label line followed by ``- "quote"`` and ``- Page N`` lines

The theme step yields ``### Theme K: Name`` blocks with member bullets and a
``**Description**:`` paragraph; the interpretation step yields prose sections
under ``Theme K: Name`` headings.  All parsers are tolerant: malformed
entries degrade into warnings, never hard failures, and every input line is
accounted for as a record span, boilerplate, or a warning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import NoRecordsFound
from .textnorm import label_key, normalize_label

LIST_DELIMITER = re.compile(r"^\s*-{2,}\s*List of All Emerging Codes\s*-{2,}\s*$", re.IGNORECASE)

_BOILERPLATE = (
    re.compile(r"^\s*Emerging Codes with Supporting Sentences and Page Numbers?\s*:?\s*$", re.IGNORECASE),
    re.compile(r"^\s*All Emerging Codes with Supporting Sentences and Page Numbers?\s*:?\s*$", re.IGNORECASE),
    re.compile(r"^\s*Page\s+\d+\s*:\s*$", re.IGNORECASE),
    re.compile(r"^\s*Generated Themes\s*:?\s*$", re.IGNORECASE),
    re.compile(r"^\s*Interpretation of Themes\s*:?\s*$", re.IGNORECASE),
)

_NUMBERED = re.compile(r"^\s*(\d+)[.)]\s+(?P<rest>\S.*)$")
_D2_START = re.compile(r"^\s*Emerging Code\s*:\s*(?P<label>\S.*)$", re.IGNORECASE)
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
        if len(self.label) > 200:
            raise ValueError(f"code label exceeds 200 characters: {self.label[:40]}...")
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
    """Parsed records plus the warning channel and detected dialect tag.

    ``boilerplate_lines`` lists structural lines (page headers, prompt-cue
    echoes, list-section content) so that, together with record spans and
    warning lines, every non-blank input line is accounted for.
    """

    records: tuple = ()
    warnings: tuple[ParseWarning, ...] = ()
    dialect: str = "none"
    boilerplate_lines: tuple[int, ...] = ()


@dataclass
class _OpenCode:
    label: str
    start_line: int
    last_line: int
    dialect: str
    quote: str | None = None
    page: int | None = None
    stray: list[tuple[int, str]] = field(default_factory=list)


def _is_boilerplate(line: str) -> bool:
    return any(pattern.match(line) for pattern in _BOILERPLATE)


def _strip_quote_pair(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] in _QUOTE_CHARS and text[-1] in _QUOTE_CHARS:
        return text[1:-1]
    return text


def _find_quoted_segment(text: str) -> tuple[int, int] | None:
    """Index range [start, end) spanning the first through last quote char."""
    first = next((i for i, ch in enumerate(text) if ch in _QUOTE_CHARS), None)
    if first is None:
        return None
    last = max(i for i, ch in enumerate(text) if ch in _QUOTE_CHARS)
    if last == first:
        return None
    return first, last + 1


def parse_code_block(reply: str, expected_page: int, provenance: str = "llm") -> ParseReport:
    """Parse one page's extraction reply into CodeRecords.

    Codes missing a page reference fall back to ``expected_page`` with a
    warning; codes missing a quote are excluded with a warning.  Content from
    the emerging-code list delimiter onward belongs to
    :func:`parse_emerging_code_list` and is treated as boilerplate here.
    """
    if not reply.strip():
        raise NoRecordsFound("empty reply")
    if expected_page < 1:
        raise ValueError(f"expected_page must be >= 1, got {expected_page}")

    records: list[CodeRecord] = []
    warnings: list[ParseWarning] = []
    boilerplate: list[int] = []
    dialects: set[str] = set()
    recognized = 0
    open_record: _OpenCode | None = None
    in_list_section = False

    def close_open() -> None:
        nonlocal open_record, recognized
        if open_record is None:
            return
        recognized += 1
        for stray_line, stray_text in open_record.stray:
            warnings.append(ParseWarning(stray_line, "unrecognized_attribute", stray_text))
        if open_record.quote is None:
            warnings.append(ParseWarning(
                open_record.start_line, "missing_quote",
                f"code {open_record.label!r} has no supporting sentence; excluded",
            ))
        else:
            _finalize(open_record.label, open_record.quote, open_record.page,
                      (open_record.start_line, open_record.last_line), open_record.dialect)
        open_record = None

    def _finalize(label: str, quote: str, page: int | None,
                  span: tuple[int, int], dialect: str) -> None:
        nonlocal recognized
        clean = normalize_label(label)
        if not clean:
            warnings.append(ParseWarning(span[0], "empty_label", "code label empty after cleanup; excluded"))
            return
        if page is None:
            warnings.append(ParseWarning(
                span[0], "missing_page",
                f"code {clean!r} cites no page; assuming page {expected_page}",
            ))
            page = expected_page
        records.append(CodeRecord(label=clean, quote=quote, page=page,
                                  provenance=provenance, raw_span=span))
        dialects.add(dialect)

    lines = reply.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if in_list_section:
            boilerplate.append(lineno)
            continue
        if not line.strip():
            continue
        if LIST_DELIMITER.match(line):
            close_open()
            in_list_section = True
            boilerplate.append(lineno)
            continue
        if _is_boilerplate(line):
            boilerplate.append(lineno)
            continue

        d2 = _D2_START.match(line)
        if d2:
            close_open()
            open_record = _OpenCode(label=d2.group("label"), start_line=lineno,
                                    last_line=lineno, dialect="d2")
            continue

        numbered = _NUMBERED.match(line)
        if numbered:
            close_open()
            rest = numbered.group("rest")
            segment = _find_quoted_segment(rest)
            if segment:
                start, end = segment
                label_part = rest[:start].rstrip()
                if label_part.endswith(":"):
                    label_part = label_part[:-1]
                quote = _strip_quote_pair(rest[start:end])
                tail = rest[end:]
                page_match = _PAGE_VALUE.search(tail)
                page = int(page_match.group(1)) if page_match else None
                recognized += 1
                _finalize(label_part, quote, page, (lineno, lineno), "d1")
            else:
                open_record = _OpenCode(label=rest, start_line=lineno,
                                        last_line=lineno, dialect="d3")
            continue

        dash = _DASH.match(line)
        if dash and open_record is not None:
            rest = dash.group("rest")
            open_record.last_line = lineno
            supporting = _SUPPORTING.match(rest)
            if supporting:
                open_record.quote = _strip_quote_pair(supporting.group("rest"))
            elif _PAGE_LINE.match(rest):
                page_match = _PAGE_VALUE.search(rest)
                if page_match:
                    open_record.page = int(page_match.group(1))
                else:
                    open_record.stray.append((lineno, rest))
            elif rest and rest[0] in _QUOTE_CHARS:
                open_record.quote = _strip_quote_pair(rest)
            else:
                open_record.stray.append((lineno, rest))
            continue

        warnings.append(ParseWarning(lineno, "unrecognized_line", line.strip()))

    close_open()

    if recognized == 0:
        if in_list_section:
            warnings.append(ParseWarning(0, "list_only_reply",
                                         "reply contains only an emerging-code list"))
        else:
            raise NoRecordsFound("reply contained no recognizable code structure")

    dialect = dialects.pop() if len(dialects) == 1 else ("mixed" if dialects else "none")
    return ParseReport(records=tuple(records), warnings=tuple(warnings),
                       dialect=dialect, boilerplate_lines=tuple(boilerplate))


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


def render_emerging_code_list(labels: list[str] | tuple[str, ...]) -> str:
    """Canonical list rendering: the delimiter line plus one dash bullet per label."""
    body = "\n".join(f"- {label}" for label in labels)
    return f"--- List of All Emerging Codes ---\n{body}"


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


def parse_theme_block(reply: str) -> ParseReport:
    """Parse a theme-generation reply into ThemeRecords.

    Recognizes ``### Theme K: Name`` headers, ``- **Label**`` member bullets,
    and ``**Description**:`` paragraphs.  Prose before the first header is
    ignored with a note.  Themes without member bullets are kept but flagged.
    """
    if not reply.strip():
        raise NoRecordsFound("empty reply")

    records: list[ThemeRecord] = []
    warnings: list[ParseWarning] = []
    boilerplate: list[int] = []
    preamble_lines: list[int] = []

    name: str | None = None
    start_line = 0
    last_line = 0
    members: list[str] = []
    description_parts: list[str] = []
    in_description = False

    def close_theme() -> None:
        nonlocal name, members, description_parts, in_description
        if name is None:
            return
        if not members:
            warnings.append(ParseWarning(start_line, "empty_members",
                                         f"theme {name!r} lists no member codes"))
        records.append(ThemeRecord(
            name=name,
            member_labels=tuple(members),
            description=" ".join(part for part in description_parts if part).strip(),
            raw_span=(start_line, last_line),
        ))
        name = None
        members = []
        description_parts = []
        in_description = False

    for lineno, line in enumerate(reply.splitlines(), start=1):
        if not line.strip():
            if in_description:
                description_parts.append("")
            continue
        header = _THEME_HEADER.match(line)
        if header:
            close_theme()
            name = normalize_label(header.group("name"))
            start_line = lineno
            last_line = lineno
            continue
        if name is None:
            preamble_lines.append(lineno)
            continue
        last_line = lineno
        if _is_boilerplate(line):
            boilerplate.append(lineno)
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

    close_theme()

    if not records:
        raise NoRecordsFound("reply contained no theme headers")
    if preamble_lines:
        boilerplate.extend(preamble_lines)
        warnings.append(ParseWarning(
            preamble_lines[0], "preamble",
            f"{len(preamble_lines)} line(s) before the first theme header ignored",
        ))
    return ParseReport(records=tuple(records), warnings=tuple(warnings),
                       dialect="theme", boilerplate_lines=tuple(sorted(boilerplate)))


def parse_interpretation_block(reply: str, themes: list[ThemeRecord] | tuple[ThemeRecord, ...]) -> ParseReport:
    """Attach interpretation prose to themes from an interpretation reply.

    The reply is split on ``Theme K:`` headings (optionally decorated with
    ``###`` or ``***``); sections match themes by number first, then by name.
    Returns a report whose records are the full theme list with
    interpretations filled where matched; unmatched sections and themes left
    uncovered become warnings.
    """
    if not reply.strip():
        raise NoRecordsFound("empty reply")

    sections: list[tuple[int, int, str, list[str]]] = []  # line, number, name, body lines
    preamble_lines: list[int] = []
    boilerplate: list[int] = []
    current: tuple[int, int, str, list[str]] | None = None

    for lineno, line in enumerate(reply.splitlines(), start=1):
        header = _THEME_HEADER.match(line)
        if header:
            if current:
                sections.append(current)
            current = (lineno, int(header.group("number")),
                       normalize_label(header.group("name")), [])
            continue
        if current is None:
            if line.strip():
                if _is_boilerplate(line):
                    boilerplate.append(lineno)
                else:
                    preamble_lines.append(lineno)
            continue
        current[3].append(line)
    if current:
        sections.append(current)
    if not sections:
        raise NoRecordsFound("reply contained no theme interpretation headings")

    warnings: list[ParseWarning] = []
    if preamble_lines:
        boilerplate.extend(preamble_lines)
        warnings.append(ParseWarning(
            preamble_lines[0], "preamble",
            f"{len(preamble_lines)} line(s) before the first heading ignored",
        ))

    by_key = {label_key(theme.name): index for index, theme in enumerate(themes)}
    texts: dict[int, str] = {}
    for line, number, section_name, body in sections:
        text = "\n".join(body).strip()
        target: int | None = None
        if 1 <= number <= len(themes):
            target = number - 1
        elif label_key(section_name) in by_key:
            target = by_key[label_key(section_name)]
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
            updated.append(ThemeRecord(
                name=theme.name, member_labels=theme.member_labels,
                description=theme.description, interpretation=texts[index],
                raw_span=theme.raw_span,
            ))
        else:
            warnings.append(ParseWarning(0, "missing_interpretation",
                                         f"theme {theme.name!r} received no interpretation"))
            updated.append(theme)

    return ParseReport(records=tuple(updated), warnings=tuple(warnings),
                       dialect="interpretation", boilerplate_lines=tuple(sorted(boilerplate)))

"""Parsers for the free-text replies produced by the analysis prompts.

The extraction step yields code lists in (at least) three dialects:

* D1, one line per code: ``1. **Label**: "quote" - Page N``
* D2, block form: ``Emerging Code: **Label**`` followed by
  ``- Supporting Sentence: "quote"`` and ``- Page: Page N`` lines
* D3, a numbered label line followed by ``- "quote"`` and ``- Page N`` lines

A D2 or D3 page line may cite its page as ``(p. N)`` too, as a D1 line may.

Each reply kind has one grammar: a compiled pattern whose alternatives are
the kinds of its lines, tried in order.  Each line is classified by one match
against it; the alternative that matched names the line's kind, and its groups
hold what the parser reads, so no line is matched again.  A code reply's kinds
are blank, boilerplate, list delimiter, a whole D1 code (label, quote and cited
page), the label line that opens a D2 or D3 entry, and the dash lines that fill
the entry: its quote, its page, or an unrecognized attribute.

The theme step yields ``### Theme K: Name`` blocks with member bullets and a
``**Description**:`` paragraph; the interpretation step yields prose sections
under ``Theme K: Name`` headings.  One function splits both on their headers,
classifying each line by the theme grammar (header, blank, boilerplate,
description, dash); the interpretation parser reads only the headers.  ``#``
and ``**`` decorations are optional, prompt-cue echoes before the first
heading are skipped, and other lines there are preamble, reported in one
warning.

All parsers are tolerant: malformed entries and unrecognized lines become
warnings, never failures.  A code that :class:`CodeRecord` rejects (an empty
or overlong label, page 0), or a theme that :class:`ThemeRecord` rejects (a
name that normalizes to nothing), is such an entry: it is excluded with an
``invalid_code`` or ``invalid_theme`` warning that gives the reason.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter

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
_DASH = re.compile(r"^\s*-\s+(?P<rest>\S.*)$")
_QUOTE_CHARS = "\"“”"
_PAGE_CITED = r"page\s*:?\s*(?:page\s+)?(?P<{}>\d+)"  # a cited page; format() names its group
_P_CITED = r"\(p\.\s*(?P<{}>\d+)\)"  # a page cited as "(p. N)"
_LABEL_P_CITED = re.compile(rf"\s*{_P_CITED.format('page')}$", re.IGNORECASE)


def _line_grammar(**alternatives: str) -> re.Pattern:
    """One pattern trying the ``alternatives`` sources in order, each named by
    its keyword.

    A source's ``rest`` group takes its name; a source without one is
    wrapped in a group of that name.  Either way the named group closes
    last, so ``lastgroup`` of a match names the alternative that matched.
    """
    return re.compile("|".join(
        source.replace("(?P<rest>", f"(?P<{name}>") if "(?P<rest>" in source
        else f"(?P<{name}>{source})" for name, source in alternatives.items()), re.IGNORECASE)


# A code reply's line kinds, first match wins; no match is an unrecognized line.
# ``code`` is a whole D1 entry.  Its label is a bold label that holds a quote
# character, read up to its closing ``**``, or else the text before the first
# quote character; its quote runs from there to the last quote character, and
# its page is the first one cited after that, as ``Page N`` or ``(p. N)``.  A
# ``(p. N)`` that ends the label cites its page too.
# ``entry`` opens a D2 or D3 entry, which ``quote``, ``page`` and ``dash`` lines
# fill; a ``page`` line starts with ``Page`` or ``(p.`` and names the first page
# it cites, in either form.
_CODE_LINE = _line_grammar(
    blank=r"\s*$", boilerplate=_BOILERPLATE.pattern, delimiter=LIST_DELIMITER.pattern,
    code=rf"^\s*\d+[.)]\s+(?P<label>\*\*[^*{_QUOTE_CHARS}]*[{_QUOTE_CHARS}][^*]*\*\*[^{_QUOTE_CHARS}]*"
         rf"|[^{_QUOTE_CHARS}]*)[{_QUOTE_CHARS}](?P<said>.*)[{_QUOTE_CHARS}]"
         rf"(?:.*?(?:{_PAGE_CITED.format('cited')}|{_P_CITED.format('cited_p')}))?.*$",
    entry=r"^\s*(?:Emerging Code\s*:\s*|\d+[.)]\s+)(?P<rest>\S.*)$",
    quote=rf"^\s*-\s+(?:Supporting Sentence\s*:\s*|(?=[{_QUOTE_CHARS}]))(?P<rest>.*)$",
    page=rf"^\s*-\s+(?=page\b|\(p\.).*?(?:{_PAGE_CITED.format('page_cited')}"
         rf"|{_P_CITED.format('page_p')}).*$",
    dash=_DASH.pattern)

# A theme or interpretation reply's line kinds, first match wins.
_THEME_LINE = _line_grammar(
    header=r"^\s*(?:#{1,6}\s*)?(?:\*{2,3}\s*)?Theme\s+(?P<number>\d+)\s*:\s*(?P<rest>.+?)\s*"
           r"(?:\*{2,3})?\s*:?\s*$",
    blank=r"\s*$", boilerplate=_BOILERPLATE.pattern,
    description=r"^\s*(?:\*\*)?Description(?:\*\*)?\s*:\s*(?P<rest>.*)$", dash=_DASH.pattern)

MAX_LABEL_LENGTH = 200  # of a code label; compare matches human theme names as labels too


@dataclass(frozen=True, init=False)
class CodeRecord:
    """One inductive code with its supporting quote and page reference.

    ``key`` is the label's matching key (:func:`label_key`), computed once
    here and read by codebooks, matching, merging and the presence matrix.
    The constructor checks its arguments, then fills the record with one
    ``__dict__`` update: every artifact load builds records by the thousand.
    """

    label: str
    quote: str
    page: int | None
    provenance: str = "llm"
    raw_span: tuple[int, int] | None = None
    aliases: tuple[str, ...] = ()
    key: str = field(init=False, repr=False, compare=False, default="")

    def __init__(self, label: str, quote: str, page: int | None, provenance: str = "llm",
                 raw_span: tuple[int, int] | None = None, aliases: tuple[str, ...] = ()) -> None:
        try:
            if not label.strip():
                raise ValueError("code label must be non-empty")
            if len(label) > MAX_LABEL_LENGTH:
                raise ValueError(f"code label exceeds {MAX_LABEL_LENGTH} characters: {label[:40]}...")
            if page is not None and type(page) is not int:
                raise ValueError(f"page must be an int or None, got {page!r}")
            if page is not None and page < 1:
                raise ValueError(f"page must be >= 1, got {page}")
            if not isinstance(quote, str):
                raise ValueError(f"quote must be a string, got {quote!r}")
        except AttributeError:
            raise ValueError(f"code label must be a string, got {label!r}") from None
        self.__dict__.update(label=label, quote=quote, page=page, provenance=provenance,
                             raw_span=raw_span, aliases=aliases, key=label_key(label))


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


def _strip_quote_pair(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] in _QUOTE_CHARS and text[-1] in _QUOTE_CHARS:
        return text[1:-1]
    return text


def _close_code(records: list[CodeRecord], warnings: list[ParseWarning], expected_page: int,
                label: str, quote: str, page: int | None, start: int, last: int) -> None:
    """Add the code of lines ``start`` to ``last`` to ``records``, or say in
    ``warnings`` why it is excluded."""
    if not quote.strip():
        warnings.append(ParseWarning(start, "missing_quote",
                                     f"code {label!r} has no supporting sentence; excluded"))
        return
    label = normalize_label(label)
    try:
        record = CodeRecord(label, quote, expected_page if page is None else page,
                            raw_span=(start, last))
    except ValueError as exc:
        warnings.append(ParseWarning(start, "invalid_code", f"{exc}; excluded"))
        return
    if page is None:
        warnings.append(ParseWarning(start, "missing_page",
                                     f"code {label!r} cites no page; assuming page {expected_page}"))
    records.append(record)


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
    # The open entry: its label (None when no entry is open), first and last
    # line, quote and page.
    label, start, last, quote, page = None, 0, 0, "", None
    found = has_code_list = False
    for lineno, line in enumerate(reply.splitlines(), start=1):
        match = _CODE_LINE.match(line)
        kind = match and match.lastgroup
        if kind == "blank" or kind == "boilerplate":
            continue
        if kind == "delimiter":
            has_code_list = True
            break
        if kind == "code" or kind == "entry":
            if label is not None:
                _close_code(records, warnings, expected_page, label, quote, page, start, last)
            found = True
            if kind == "entry":
                label, start, last, quote, page = match["entry"], lineno, lineno, "", None
                continue
            label, cited = match["label"].rstrip().removesuffix(":"), match["cited"] or match["cited_p"]
            if label.endswith(")") and (before := _LABEL_P_CITED.search(label)):
                label, cited = label[:before.start()], before["page"]
            _close_code(records, warnings, expected_page, label, match["said"],
                        int(cited) if cited else None, lineno, lineno)
            label = None
        elif label is None or kind is None:
            warnings.append(ParseWarning(lineno, "unrecognized_line", line.strip()))
        else:
            last = lineno
            if kind == "quote":
                quote = _strip_quote_pair(match["quote"])
            elif kind == "page":
                page = int(match["page_cited"] or match["page_p"])
            else:
                warnings.append(ParseWarning(lineno, "unrecognized_attribute", match["dash"]))

    if label is not None:
        _close_code(records, warnings, expected_page, label, quote, page, start, last)
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


def page_header(page: int | None) -> str:
    """The header of a group of codes that cite one page."""
    return "No page:" if page is None else f"Page {page}:"


def render_codes_digest(records: list[CodeRecord] | tuple[CodeRecord, ...]) -> str:
    """Canonical multi-page code digest: a Page header per page, numbered lines.

    Numbering restarts on each page; page groups follow record order and are
    separated by blank lines.  Codes with no page are grouped under
    ``No page:``.  :func:`parse_code_block` inverts each Page group exactly.
    """
    blocks: list[str] = []
    for page, group in groupby(records, key=attrgetter("page")):
        lines = [page_header(page)]
        lines.extend(render_code_line(record, index) for index, record in enumerate(group, start=1))
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
        list[tuple[int, int, str, list[tuple[int, str, str | None, re.Match | None]]]],
        list[ParseWarning]]:
    """Split a theme or interpretation reply on its ``Theme K: Name`` headers.

    Returns the sections as (header line, number, normalized name, body
    lines) and at most one ``preamble`` warning for the prose before the
    first header; prompt-cue echoes there are skipped.  A body line is its
    number, its text, and its kind and match in :data:`_THEME_LINE`.
    ``heading`` names the header in the warning.
    """
    if not reply.strip():
        raise NoRecordsFound("empty reply")
    sections: list[tuple[int, int, str, list]] = []
    prose: list[int] = []
    for lineno, line in enumerate(reply.splitlines(), start=1):
        match = _THEME_LINE.match(line)
        kind = match and match.lastgroup
        if kind == "header":
            sections.append((lineno, int(match["number"]), normalize_label(match["header"]), []))
        elif sections:
            sections[-1][3].append((lineno, line, kind, match))
        elif kind != "blank" and kind != "boilerplate":
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
        for lineno, line, kind, match in body:
            if kind == "blank":
                continue
            last_line = lineno
            if kind == "boilerplate":
                continue
            if kind == "description":
                in_description = True
                description_parts.append(match["description"].strip())
            elif kind == "dash":
                in_description = False
                member = normalize_label(match["dash"])
                if member:
                    members.append(member)
                else:
                    warnings.append(ParseWarning(lineno, "empty_member", line.strip()))
            elif in_description:
                description_parts.append(line.strip())
            else:
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
        text = "\n".join(body_line for _, body_line, _, _ in body).strip()
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

"""Reply parsing across the three code-listing dialects, plus rendering."""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import permutations

import pytest

from conftest import random_code_records, random_themes
from thematica.errors import NoRecordsFound
from thematica.textnorm import label_key, normalize_label
from thematica.outparse import (
    LIST_DELIMITER,
    CodeRecord,
    ParseReport,
    ParseWarning,
    ThemeRecord,
    _D2_START,
    _DASH,
    _DESCRIPTION,
    _NUMBERED,
    _PAGE_LINE,
    _PAGE_VALUE,
    _QUOTE_CHARS,
    _SUPPORTING,
    _THEME_HEADER,
    _find_quoted_segment,
    _is_boilerplate,
    _strip_quote_pair,
    parse_code_block,
    parse_emerging_code_list,
    parse_interpretation_block,
    parse_theme_block,
    render_code_line,
    render_codes_digest,
    render_theme_digest,
)

INLINE_WITH_CUE = """Emerging Codes with Supporting Sentences and Page Number:

1. **Academic Background of Researcher**: "My name is Mary, a first year Mphil midwifery student at the University of Ghana." - Page 1
"""

LABELED_FIELDS = """Emerging Code: **Confidentiality Assurance**
- Supporting Sentence: "So this interview is purely for academic purposes, and so whatever you would say would just be within the academic space. Your name and your identity will not be revealed."
- Page: Page 2

Emerging Code: **Permission for Participation**
- Supporting Sentence: "So, do I still have your permission to start with the interview."
- Page: Page 2

Emerging Code: **Migration Focus**
- Supporting Sentence: "As I spoke to you earlier on, today our interview is going to be about migration, I'll basically be asking for the reasons that informed your decision to go to the UK, the experiences that you've gotten so far, and basically the differences, or the similarities between the healthcare system that you were practicing here in Ghana and that of the UK."
- Page: Page 2
"""

INLINE_MISSING_PAGE = """1. **Accidental Career Discovery**: "I chanced on midwifery and I fell in love with it." - Page 3
2. **Influence of Childhood Experience**: "I had opportunity to see a traditional birth attendant doing a delivery for a lady."
"""

NUMBERED_MULTILINE = """3. Personal growth and exposure
- "It is good to travel, if you can afford it, you travel, go on holidays even while in Ghana working, but if you cannot and you think you can migrate, do it. Travelling opens your mind's eye, it exposes you to so many things, it helps you build your intelligence as well."
- Page 15

4. Live Life Fully and Independently
- "So do that, as young as you are, live your life to the fullest and don't be a slave to money, I would say that again."
- Page 15
"""

NUMBERED_MULTILINE_WITH_LIST = """Page 16:
1. Bureaucratic Barriers in Professional Verification
- "you know when you are doing this process and you go to the Ghana NMC, you have to pay for verification"
- Page 16

2. Underutilization of Skilled Workforce
- "we have so many midwives and nurses in the house who have not been posted"
- Page 16

3. Lack of Professional Development Opportunities
- "If there was a chance for everybody to develop their skills, there wouldn't be any crying about skills"
- Page 16

4. Mandatory Continuing Education
- "here there are a lot of mandatory training, you have to renew your skills every year, some of them, every six months"
- Page 16

5. Retention vs. Mobility Conflict
- "don't keep anybody in the country because you think that you need them, let the young people breathe, leave them to make their mistakes"
- Page 16

6. Desire to Return Under Improved Conditions
- "Like I said if the country was better, a lot of people will run back home without hesitation"
- Page 16

--- List of All Emerging Codes ---
- Accidental Career Discovery
- Curiosity-driven migration
- Peer Influence on Migration Decision
- Delayed Professional Advancement in Home Country
- Peer Influence on Migration Decision
- Certification Requirements for Migration
- Financial Burden and Reimbursement
- Initial Climate Shock
- Cultural Isolation and Loneliness
- Career Progression Impact
- Financial Misestimation
- Cultural and Dietary Adjustments
- Motivation Beyond Financial Gain
- Bureaucratic Barriers in Professional Verification
"""

THEME_REPLY = """Generated Themes:

Based on the provided codes, several overarching themes can be identified that capture the primary ideas related to the migration experiences of nurses and midwives. These themes encompass personal motivations, professional development, cultural and social adjustments, and systemic challenges and supports. Here are the grouped themes with descriptions:

### Theme 1: Personal and Professional Motivations for Migration
- **Academic Background of Researcher**
- **Migration Focus**
- **Curiosity-driven Migration**
- **Non-financial Motivation**
- **Peer Influence on Migration Decision**
- **Motivation Through Social Support**
- **Motivation Beyond Financial Gain**

**Description**: This theme explores the various personal and professional reasons that motivate individuals to migrate. It includes curiosity about life and work conditions abroad, academic pursuits, peer influences, and intrinsic motivations beyond financial gains.

### Theme 2: Ethical Considerations and Participant Engagement
"""

INTERPRETATION_REPLY = """Interpretation of Themes:

*** Theme 1: Personal and Professional Motivations for Migration

This theme is central to understanding why nurses and midwives from developing countries choose to migrate to developed countries. The motivations are multifaceted, encompassing both personal and professional dimensions. Curiosity about life in different settings, influenced by academic pursuits or peer discussions, highlights a proactive approach to seeking new experiences and knowledge. This curiosity often extends beyond mere financial incentives, indicating a deeper desire for personal growth and development. The influence of peers and social support networks also plays a crucial role, as these individuals often rely on the advice and experiences of others who have migrated before them. This theme underscores the complex interplay of factors that drive migration decisions, which are not solely based on economic benefits but also on professional enrichment and personal fulfillment.

*** Theme 2: Ethical Considerations and Participant Engagement
"""


def triples(report) -> list[tuple[str, str, int]]:
    return [(r.label, r.quote, r.page) for r in report.records]


def test_inline_dialect_with_prompt_cue_echo() -> None:
    report = parse_code_block(INLINE_WITH_CUE, expected_page=1)
    assert triples(report) == [(
        "Academic Background of Researcher",
        "My name is Mary, a first year Mphil midwifery student at the University of Ghana.",
        1,
    )]
    assert report.warnings == ()


def test_labeled_field_dialect() -> None:
    report = parse_code_block(LABELED_FIELDS, expected_page=2)
    assert [r.label for r in report.records] == [
        "Confidentiality Assurance",
        "Permission for Participation",
        "Migration Focus",
    ]
    assert all(r.page == 2 for r in report.records)
    assert report.records[0].quote.startswith("So this interview is purely for academic purposes")
    assert report.records[2].quote.startswith("As I spoke to you earlier on")
    assert report.warnings == ()


def test_inline_dialect_missing_page_falls_back_to_expected() -> None:
    report = parse_code_block(INLINE_MISSING_PAGE, expected_page=3)
    assert triples(report) == [
        ("Accidental Career Discovery", "I chanced on midwifery and I fell in love with it.", 3),
        ("Influence of Childhood Experience",
         "I had opportunity to see a traditional birth attendant doing a delivery for a lady.", 3),
    ]
    kinds = [w.kind for w in report.warnings]
    assert kinds == ["missing_page"]
    assert "assuming page 3" in report.warnings[0].detail


def test_numbered_multiline_dialect() -> None:
    report = parse_code_block(NUMBERED_MULTILINE, expected_page=15)
    assert triples(report) == [
        ("Personal growth and exposure",
         "It is good to travel, if you can afford it, you travel, go on holidays even while in "
         "Ghana working, but if you cannot and you think you can migrate, do it. Travelling opens "
         "your mind's eye, it exposes you to so many things, it helps you build your intelligence "
         "as well.", 15),
        ("Live Life Fully and Independently",
         "So do that, as young as you are, live your life to the fullest and don't be a slave to "
         "money, I would say that again.", 15),
    ]
    assert report.warnings == ()


def test_list_section_is_excluded_from_code_records() -> None:
    report = parse_code_block(NUMBERED_MULTILINE_WITH_LIST, expected_page=16)
    assert len(report.records) == 6
    assert [r.label for r in report.records] == [
        "Bureaucratic Barriers in Professional Verification",
        "Underutilization of Skilled Workforce",
        "Lack of Professional Development Opportunities",
        "Mandatory Continuing Education",
        "Retention vs. Mobility Conflict",
        "Desire to Return Under Improved Conditions",
    ]
    assert all(r.page == 16 for r in report.records)
    assert report.warnings == ()
    assert report.has_code_list
    assert not parse_code_block(LABELED_FIELDS, expected_page=2).has_code_list


def test_emerging_list_dedupes_case_insensitively() -> None:
    labels = parse_emerging_code_list(NUMBERED_MULTILINE_WITH_LIST)
    assert len(labels) == 13
    assert labels.count("Peer Influence on Migration Decision") == 1
    assert labels[0] == "Accidental Career Discovery"
    assert labels[-1] == "Bureaucratic Barriers in Professional Verification"


def test_emerging_list_without_delimiter_parses_bullets() -> None:
    assert parse_emerging_code_list("- First Code\n- Second Code\n- first code\n") == [
        "First Code", "Second Code",
    ]


def test_emerging_list_requires_entries() -> None:
    with pytest.raises(NoRecordsFound):
        parse_emerging_code_list("prose without any bullets")
    with pytest.raises(NoRecordsFound):
        parse_emerging_code_list("   \n")


def test_list_only_reply_yields_zero_records_with_flag() -> None:
    reply = "--- List of All Emerging Codes ---\n- Alpha\n- Beta\n"
    report = parse_code_block(reply, expected_page=4)
    assert report.records == ()
    assert [w.kind for w in report.warnings] == ["list_only_reply"]
    assert report.has_code_list


def test_unparseable_reply_raises_no_records_found() -> None:
    with pytest.raises(NoRecordsFound):
        parse_code_block("The transcript was uneventful.", expected_page=1)
    with pytest.raises(NoRecordsFound):
        parse_code_block("   \n\n", expected_page=1)


def test_code_missing_quote_is_excluded_with_warning() -> None:
    reply = "Emerging Code: **Silent Code**\n- Page: Page 2\n"
    report = parse_code_block(reply, expected_page=2)
    assert report.records == ()
    assert [w.kind for w in report.warnings] == ["missing_quote"]


@pytest.mark.parametrize("blank", ['""', '" "', "“  ”"])
@pytest.mark.parametrize("template", [
    '1. **Blank Code**: {blank} - Page 1\n2. **Kept Code**: "real words" - Page 1\n',
    "Emerging Code: **Blank Code**\n- Supporting Sentence: {blank}\n- Page: Page 1\n"
    'Emerging Code: **Kept Code**\n- Supporting Sentence: "real words"\n- Page: Page 1\n',
    "Emerging Code: **Blank Code**\n- Supporting Sentence:\t\n- Page: Page 1\n"
    'Emerging Code: **Kept Code**\n- Supporting Sentence: "real words"\n- Page: Page 1\n',
    '1. Blank Code\n- {blank}\n- Page 1\n2. Kept Code\n- "real words"\n- Page 1\n',
], ids=["d1", "d2", "d2-bare", "d3"])
def test_blank_quote_counts_as_missing_in_every_dialect(template: str, blank: str) -> None:
    report = parse_code_block(template.format(blank=blank), expected_page=1)
    assert [(r.label, r.quote) for r in report.records] == [("Kept Code", "real words")]
    assert [(w.line, w.kind) for w in report.warnings] == [(1, "missing_quote")]


def test_unrecognized_lines_are_reported_not_fatal() -> None:
    reply = INLINE_WITH_CUE + "\nstray commentary line\n"
    report = parse_code_block(reply, expected_page=1)
    assert len(report.records) == 1
    assert [w.kind for w in report.warnings] == ["unrecognized_line"]


def test_render_code_line_golden() -> None:
    record = CodeRecord(label="Initial Climate Shock",
                        quote="the cold hit me the moment I landed", page=7)
    assert render_code_line(record, 2) == (
        '2. **Initial Climate Shock**: "the cold hit me the moment I landed" - Page 7'
    )


def test_render_code_line_reparses_with_trailing_badge() -> None:
    record = CodeRecord(label="Initial Climate Shock",
                        quote="the cold hit me the moment I landed", page=7)
    line = render_code_line(record, 1) + " [Exact]"
    report = parse_code_block(line, expected_page=7)
    assert triples(report) == [("Initial Climate Shock",
                                "the cold hit me the moment I landed", 7)]


def test_codes_digest_groups_by_page_and_renumbers() -> None:
    records = [
        CodeRecord(label="First", quote="one", page=1),
        CodeRecord(label="Second", quote="two", page=1),
        CodeRecord(label="Third", quote="three", page=2),
    ]
    assert render_codes_digest(records) == (
        'Page 1:\n1. **First**: "one" - Page 1\n2. **Second**: "two" - Page 1\n'
        '\n'
        'Page 2:\n1. **Third**: "three" - Page 2'
    )


def test_render_parse_round_trip_is_fixpoint_on_random_codebooks() -> None:
    rng = random.Random(20240817)
    for _ in range(100):
        records = random_code_records(rng)
        digest = render_codes_digest(records)
        report = parse_code_block(digest, expected_page=records[0].page)
        assert triples(report) == [(r.label, r.quote, r.page) for r in records]
        assert report.warnings == ()
        again = render_codes_digest(report.records)
        assert again == digest


def render_emerging_code_list(labels: list[str]) -> str:
    """Reference rendering: the delimiter line plus one dash bullet per label."""
    body = "\n".join(f"- {label}" for label in labels)
    return f"--- List of All Emerging Codes ---\n{body}"


def test_emerging_list_round_trip() -> None:
    rng = random.Random(7)
    for _ in range(50):
        labels: list[str] = []
        seen: set[str] = set()
        while len(labels) < rng.randint(1, 10):
            candidate = f"{rng.choice(('Early', 'Late', 'Dual'))} {rng.choice(('Shift', 'Path', 'Role'))}"
            if label_key(candidate) not in seen:
                seen.add(label_key(candidate))
                labels.append(candidate)
        assert parse_emerging_code_list(render_emerging_code_list(labels)) == labels


def test_theme_reply_parses_headers_members_description() -> None:
    report = parse_theme_block(THEME_REPLY)
    assert [t.name for t in report.records] == [
        "Personal and Professional Motivations for Migration",
        "Ethical Considerations and Participant Engagement",
    ]
    first = report.records[0]
    assert first.member_labels == (
        "Academic Background of Researcher",
        "Migration Focus",
        "Curiosity-driven Migration",
        "Non-financial Motivation",
        "Peer Influence on Migration Decision",
        "Motivation Through Social Support",
        "Motivation Beyond Financial Gain",
    )
    assert first.description.startswith("This theme explores the various personal")
    kinds = {w.kind for w in report.warnings}
    assert kinds == {"preamble", "empty_members"}
    empty = [w for w in report.warnings if w.kind == "empty_members"]
    assert "Ethical Considerations" in empty[0].detail


def test_theme_header_decorations_are_tolerated() -> None:
    reply = "## Theme 1: Alpha\n- **One**\n\n*** Theme 2: Beta ***\n- **Two**\n"
    report = parse_theme_block(reply)
    assert [t.name for t in report.records] == ["Alpha", "Beta"]
    assert report.records[1].member_labels == ("Two",)


def test_theme_reply_without_headers_raises() -> None:
    with pytest.raises(NoRecordsFound):
        parse_theme_block("just prose, no structure")


def test_theme_digest_round_trip_is_fixpoint() -> None:
    rng = random.Random(42)
    for _ in range(100):
        themes = random_themes(rng)
        digest = render_theme_digest(themes)
        report = parse_theme_block(digest)
        assert [(t.name, t.member_labels, t.description) for t in report.records] == [
            (t.name, t.member_labels, t.description) for t in themes
        ]
        assert render_theme_digest(report.records) == digest


def test_interpretation_sections_attach_by_number() -> None:
    themes = parse_theme_block(THEME_REPLY).records
    report = parse_interpretation_block(INTERPRETATION_REPLY, themes)
    first, second = report.records
    assert first.interpretation is not None
    assert first.interpretation.startswith("This theme is central to understanding")
    assert first.interpretation.endswith("professional enrichment and personal fulfillment.")
    assert first.member_labels == themes[0].member_labels
    assert second.interpretation is None
    kinds = [w.kind for w in report.warnings]
    assert "empty_interpretation" in kinds or "missing_interpretation" in kinds


def test_interpretation_sections_match_by_name_when_number_is_off() -> None:
    themes = (ThemeRecord(name="Alpha"), ThemeRecord(name="Beta"))
    reply = "Theme 9: beta\n\nProse about beta.\n"
    report = parse_interpretation_block(reply, themes)
    assert report.records[0].interpretation is None
    assert report.records[1].interpretation == "Prose about beta."


def test_interpretation_duplicate_section_keeps_first() -> None:
    themes = (ThemeRecord(name="Alpha"),)
    reply = "Theme 1: Alpha\n\nFirst pass.\n\nTheme 1: Alpha\n\nSecond pass.\n"
    report = parse_interpretation_block(reply, themes)
    assert report.records[0].interpretation == "First pass."
    assert [w.kind for w in report.warnings] == ["duplicate_section"]


def test_interpretation_unmatched_section_is_flagged() -> None:
    themes = (ThemeRecord(name="Alpha"),)
    reply = "Theme 1: Alpha\n\nGood prose.\n\nTheme 5: Gamma\n\nOrphan prose.\n"
    report = parse_interpretation_block(reply, themes)
    assert report.records[0].interpretation == "Good prose."
    assert [w.kind for w in report.warnings] == ["unmatched_section"]


def test_interpretation_missing_theme_reported_per_theme() -> None:
    themes = (ThemeRecord(name="Alpha"), ThemeRecord(name="Beta"), ThemeRecord(name="Gamma"))
    reply = "Theme 2: Beta\n\nOnly beta got prose.\n"
    report = parse_interpretation_block(reply, themes)
    missing = [w for w in report.warnings if w.kind == "missing_interpretation"]
    assert len(missing) == 2
    assert report.records[1].interpretation == "Only beta got prose."


# The five boilerplate patterns that one alternation replaced, kept as the oracle.
_OLD_BOILERPLATE = (
    re.compile(r"^\s*Emerging Codes with Supporting Sentences and Page Numbers?\s*:?\s*$", re.IGNORECASE),
    re.compile(r"^\s*All Emerging Codes with Supporting Sentences and Page Numbers?\s*:?\s*$", re.IGNORECASE),
    re.compile(r"^\s*Page\s+\d+\s*:\s*$", re.IGNORECASE),
    re.compile(r"^\s*Generated Themes\s*:?\s*$", re.IGNORECASE),
    re.compile(r"^\s*Interpretation of Themes\s*:?\s*$", re.IGNORECASE),
)

_HEADERS = (
    "Emerging Codes with Supporting Sentences and Page Number",
    "Emerging Codes with Supporting Sentences and Page Numbers",
    "All Emerging Codes with Supporting Sentences and Page Numbers",
    "Page 12", "Page  3", "Page\t7", "Page", "Page x", "Page 4 5",
    "Generated Themes", "Interpretation of Themes", "All  Emerging Codes",
    "Themes", "Emerging Code: **Page 3**", "1. Page 3: quote",
)


def _variant(rng: random.Random, header: str) -> str:
    cased = "".join(ch.upper() if rng.random() < 0.3 else ch.lower() if rng.random() < 0.3 else ch
                    for ch in header)
    spaced = re.sub(" ", lambda _: rng.choice((" ", " ", " ", "  ", "\t", "")), cased)
    colon = rng.choice(("", ":", ":", " :", ": ", "::", ":\n"))
    lead = rng.choice(("", "", " ", "\t", "  ", "- "))
    trail = rng.choice(("", "", " ", "\t", " x", "\r"))
    return lead + spaced + colon + trail


def test_boilerplate_pattern_agrees_with_the_five_it_replaced() -> None:
    rng = random.Random(808)
    alphabet = "Page 0123456789:AaEeGgIiTt -\t*#"
    lines = [_variant(rng, header) for header in _HEADERS for _ in range(200)]
    lines += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
              for _ in range(3000)]
    matched = 0
    for line in lines:
        expected = any(pattern.match(line) for pattern in _OLD_BOILERPLATE)
        assert _is_boilerplate(line) == expected, repr(line)
        matched += expected
    # Both outcomes are well represented.
    assert 300 < matched < len(lines) - 300


def test_code_list_flag_equals_a_delimiter_scan_of_the_reply() -> None:
    rng = random.Random(17)
    delimiters = ("--- List of All Emerging Codes ---", "-- list of all emerging codes --",
                  "  ---List of All Emerging Codes---  ", "- List of All Emerging Codes -",
                  "--- List of Emerging Codes ---")
    for _ in range(100):
        records = random_code_records(rng)
        page = records[0].page
        lines = render_codes_digest([r for r in records if r.page == page]).splitlines()
        if rng.random() < 0.6:
            lines.insert(rng.randint(1, len(lines)), rng.choice(delimiters))
            lines.append(f"- {records[0].label}")
        reply = "\n".join(lines)
        report = parse_code_block(reply, expected_page=page)
        assert report.has_code_list == any(LIST_DELIMITER.match(line)
                                           for line in reply.splitlines())


def _scan_quoted_segment(text: str) -> tuple[int, int] | None:
    """The per-character scan that str.find/str.rfind replaced, kept as the oracle."""
    first = next((i for i, ch in enumerate(text) if ch in _QUOTE_CHARS), None)
    if first is None:
        return None
    last = max(i for i, ch in enumerate(text) if ch in _QUOTE_CHARS)
    if last == first:
        return None
    return first, last + 1


def test_quoted_segment_agrees_with_the_character_scan_it_replaced() -> None:
    rng = random.Random(4242)
    alphabet = "ab -.:" + _QUOTE_CHARS + "\u201e'"
    spans = 0
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        expected = _scan_quoted_segment(text)
        assert _find_quoted_segment(text) == expected, repr(text)
        spans += expected is not None
    # Texts with no quote, one quote and a quoted span all occur.
    assert 500 < spans < 4500


OVERLONG_LABEL = " ".join(["Overlong"] * 25)


@pytest.mark.parametrize("label, page, reason", [
    ("**...**", "1", "code label must be non-empty"),
    (OVERLONG_LABEL, "1", f"code label exceeds 200 characters: {OVERLONG_LABEL[:40]}..."),
    ("Page Zero Code", "0", "page must be >= 1, got 0"),
], ids=["empty-label", "overlong-label", "page-0"])
@pytest.mark.parametrize("template", [
    '1. {label}: "rejected words" - Page {page}\n2. **Kept Code**: "real words" - Page 1\n',
    'Emerging Code: {label}\n- Supporting Sentence: "rejected words"\n- Page: Page {page}\n'
    'Emerging Code: **Kept Code**\n- Supporting Sentence: "real words"\n- Page: Page 1\n',
    '1. {label}\n- "rejected words"\n- Page {page}\n2. Kept Code\n- "real words"\n- Page 1\n',
], ids=["d1", "d2", "d3"])
def test_a_code_that_code_record_rejects_is_excluded_with_its_reason(
        template: str, label: str, page: str, reason: str) -> None:
    report = parse_code_block(template.format(label=label, page=page), expected_page=1)
    assert [(r.label, r.quote) for r in report.records] == [("Kept Code", "real words")]
    assert [(w.line, w.kind, w.detail) for w in report.warnings] == [
        (1, "invalid_code", f"{reason}; excluded")]


def test_a_rejected_code_that_cites_no_page_gets_one_warning() -> None:
    report = parse_code_block('1. **...**: "words"\n2. **Kept Code**: "real words" - Page 4\n',
                              expected_page=4)
    assert [r.label for r in report.records] == ["Kept Code"]
    assert [(w.line, w.kind, w.detail) for w in report.warnings] == [
        (1, "invalid_code", "code label must be non-empty; excluded")]


@pytest.mark.parametrize("header", ["### Theme 2: ...", "### Theme 2: **"])
def test_a_nameless_theme_header_is_excluded_with_one_warning(header: str) -> None:
    reply = f"### Theme 1: Alpha\n- **One**\n\n{header}\n- **Two**\n"
    report = parse_theme_block(reply)
    assert [(t.name, t.member_labels, t.raw_span) for t in report.records] == [
        ("Alpha", ("One",), (1, 2))]
    assert [(w.line, w.kind, w.detail) for w in report.warnings] == [
        (4, "invalid_theme", "theme name must be non-empty; excluded")]
    with pytest.raises(NoRecordsFound, match="no named theme header"):
        parse_theme_block(f"{header}\n- **Two**\n")
    # The interpretation parser matches the section by its number, as before.
    themes = (ThemeRecord(name="Alpha"), ThemeRecord(name="Beta"))
    interpreted = parse_interpretation_block(f"{header}\n\nProse about beta.\n", themes)
    assert interpreted.records[1].interpretation == "Prose about beta."


# The theme and interpretation parsers before they shared one section
# splitter, kept as the reference for the differential test below.
def _reference_parse_theme_block(reply: str) -> ParseReport:
    if not reply.strip():
        raise NoRecordsFound("empty reply")

    records: list[ThemeRecord] = []
    warnings: list[ParseWarning] = []
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
        warnings.append(ParseWarning(
            preamble_lines[0], "preamble",
            f"{len(preamble_lines)} line(s) before the first theme header ignored",
        ))
    return ParseReport(records=tuple(records), warnings=tuple(warnings))


def _reference_parse_interpretation_block(reply: str, themes) -> ParseReport:
    if not reply.strip():
        raise NoRecordsFound("empty reply")

    sections: list[tuple[int, int, str, list[str]]] = []
    preamble_lines: list[int] = []
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
            if line.strip() and not _is_boilerplate(line):
                preamble_lines.append(lineno)
            continue
        current[3].append(line)
    if current:
        sections.append(current)
    if not sections:
        raise NoRecordsFound("reply contained no theme interpretation headings")

    warnings: list[ParseWarning] = []
    if preamble_lines:
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
            updated.append(replace(theme, interpretation=texts[index]))
        else:
            warnings.append(ParseWarning(0, "missing_interpretation",
                                         f"theme {theme.name!r} received no interpretation"))
            updated.append(theme)

    return ParseReport(records=tuple(updated), warnings=tuple(warnings))


_THEME_NAMES = ("Alpha", "beta", "Family Support", "Work-life Balance", "Gamma", "**")
# (header line, whether its name normalizes to nothing)
_HEADER_LINES = tuple(
    (form.format(n=n, name=name), not normalize_label(name))
    for form in ("### Theme {n}: {name}", "## Theme {n}: {name}", "**Theme {n}: {name}**",
                 "*** Theme {n}: {name} ***", "Theme {n}: {name}", "#### **Theme {n}: {name}**:")
    for n in range(5) for name in _THEME_NAMES)
_PROSE = ("Here are the themes:", "More prose about work.", "It covers migration.", "- ")
_BOILERPLATE_LINES = ("Generated Themes:", "Interpretation of Themes", "Page 2:")
_BODY_LINES = (
    tuple(form.format(member) for form in ("- **{}**", "- {}", "  - {}")
          for member in ("Curiosity", "Peer Influence", "**Family**", "1. Night Shifts", "**  **"))
    + tuple(form.format(prose) for form in ("**Description**: {}", "Description: {}", "{}")
            for prose in _PROSE)
    + _BOILERPLATE_LINES + ("**Description**:", "", "", "  "))
_THEME_LISTS = tuple(tuple(ThemeRecord(name=name, member_labels=("Curiosity",)) for name in names)
                     for count in range(4) for names in permutations(_THEME_NAMES[:4], count))


def _random_theme_reply(rng: random.Random) -> tuple[str, bool, bool]:
    """A reply, whether a line before its first header is boilerplate, and
    whether a header's name normalizes to nothing."""
    lines = rng.choices(_PROSE[:2] + ("",) * 2 + _BOILERPLATE_LINES[:1], k=rng.randrange(3))
    head_boilerplate = _BOILERPLATE_LINES[0] in lines
    nameless = False
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        header, empty_name = rng.choice(_HEADER_LINES)
        nameless |= empty_name
        lines.append(header)
        lines.extend(rng.choices(_BODY_LINES, k=rng.randrange(4)))
    return "\n".join(lines) + rng.choice(("", "\n")), head_boilerplate, nameless


def _outcome(parse, *args):
    try:
        return parse(*args)
    except NoRecordsFound as exc:
        return str(exc)


def test_theme_sections_parse_as_the_two_scanners_they_replaced() -> None:
    rng = random.Random(1906)
    theme_replies = 0
    for index in range(12_000):
        reply, head_boilerplate, nameless = _random_theme_reply(rng)
        if index % 2:
            themes = rng.choice(_THEME_LISTS)
            expected = _outcome(_reference_parse_interpretation_block, reply, themes)
            assert _outcome(parse_interpretation_block, reply, themes) == expected, reply
            continue
        # A prompt-cue echo before the first header is boilerplate now, not
        # preamble, and the reference raised ValueError on a nameless header.
        if head_boilerplate or nameless:
            continue
        theme_replies += 1
        expected = _outcome(_reference_parse_theme_block, reply)
        actual = _outcome(parse_theme_block, reply)
        if isinstance(expected, str):
            assert actual == expected, reply
            continue
        assert actual.records == expected.records, reply
        # The preamble warning comes first now, so only the order may differ.
        assert Counter(actual.warnings) == Counter(expected.warnings), reply
    assert theme_replies > 3_500


# The code-reply parser before it became one entry loop, kept as the
# reference for the differential test below.  It held unusable attribute
# lines of an entry back until the entry closed.
@dataclass
class _ReferenceOpenCode:
    label: str
    start_line: int
    last_line: int
    quote: str | None = None
    page: int | None = None
    stray: list[tuple[int, str]] = field(default_factory=list)


def _reference_parse_code_block(reply: str, expected_page: int) -> ParseReport:
    if not reply.strip():
        raise NoRecordsFound("empty reply")
    if expected_page < 1:
        raise ValueError(f"expected_page must be >= 1, got {expected_page}")

    records: list[CodeRecord] = []
    warnings: list[ParseWarning] = []
    recognized = 0
    open_record: _ReferenceOpenCode | None = None
    in_list_section = False

    def close_open() -> None:
        nonlocal open_record, recognized
        if open_record is None:
            return
        recognized += 1
        for stray_line, stray_text in open_record.stray:
            warnings.append(ParseWarning(stray_line, "unrecognized_attribute", stray_text))
        _finalize(open_record.label, open_record.quote or "", open_record.page,
                  (open_record.start_line, open_record.last_line))
        open_record = None

    def _finalize(label: str, quote: str, page: int | None, span: tuple[int, int]) -> None:
        if not quote.strip():
            warnings.append(ParseWarning(
                span[0], "missing_quote",
                f"code {label!r} has no supporting sentence; excluded",
            ))
            return
        clean = normalize_label(label)
        try:
            record = CodeRecord(label=clean, quote=quote,
                                page=expected_page if page is None else page,
                                raw_span=span)
        except ValueError as exc:
            warnings.append(ParseWarning(span[0], "invalid_code", f"{exc}; excluded"))
            return
        if page is None:
            warnings.append(ParseWarning(
                span[0], "missing_page",
                f"code {clean!r} cites no page; assuming page {expected_page}",
            ))
        records.append(record)

    for lineno, line in enumerate(reply.splitlines(), start=1):
        if in_list_section:
            continue
        if not line.strip():
            continue
        if LIST_DELIMITER.match(line):
            close_open()
            in_list_section = True
            continue
        if _is_boilerplate(line):
            continue

        d2 = _D2_START.match(line)
        if d2:
            close_open()
            open_record = _ReferenceOpenCode(label=d2.group("rest"), start_line=lineno,
                                             last_line=lineno)
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
                _finalize(label_part, quote, page, (lineno, lineno))
            else:
                open_record = _ReferenceOpenCode(label=rest, start_line=lineno,
                                                 last_line=lineno)
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

    return ParseReport(records=tuple(records), warnings=tuple(warnings),
                       has_code_list=in_list_section)


_CODE_LINES = (
    # D1 entries, whole on one line
    '1. **Family Support**: "we moved together" - Page 2',
    "2) Night Shifts: “the hours were long” - Page: Page 3",
    '3. **Curiosity**: "I wanted to see" [Exact]',
    '4. **Blank Quote**: " " - Page 1',
    '5. **Zero Page**: "words" - Page 0',
    '6. ***: "words" - Page 1',
    '9. **Page 4 Memories**: "the old house"',
    f'7. **{OVERLONG_LABEL}**: "words" - Page 1',
    # D2 and D3 entry headers
    "Emerging Code: **Confidentiality**", "emerging code: Peer Influence",
    'Emerging Code: **Inline Quote**: "said here" - Page 2', "Emerging Code: ***",
    f"Emerging Code: {OVERLONG_LABEL}",
    "3. Personal growth", '1) Label with "one quote', "12. ***", f"8. {OVERLONG_LABEL}",
    # attribute lines
    '- Supporting Sentence: "it was hard"', "- Supporting Sentence: “curly words”",
    '- Supporting Sentence: ""', "- Supporting Sentence:\t",
    "- Page: Page 4", "- page: 12", "- Page: none", "- Page 7", "- Page 0", "- Pages 3",
    '- "a bare straight quote"', "- “a bare curly quote”", '- "unterminated', '- " "',
    "- Theme: migration", "- **Bold stray**", "  - Note: indented",
    # structure, prose and blanks
    "Page 3:", "Emerging Codes with Supporting Sentences and Page Numbers:",
    "All Emerging Codes with Supporting Sentences and Page Number", "Generated Themes:",
    "Here are the codes.", "-not a dash line", "  indented prose", "Page 5 was quiet.",
    "", "", "   ", "\t",
    "--- List of All Emerging Codes ---", "-- list of all emerging codes --",
    "- Alpha", "1. Beta",
)


def _code_outcome(parse, reply: str, expected_page: int):
    try:
        report = parse(reply, expected_page)
    except NoRecordsFound as exc:
        return str(exc)
    return report.records, report.has_code_list, report.warnings


def test_code_block_parses_as_the_parser_it_replaced() -> None:
    rng = random.Random(2011)
    outcomes: Counter = Counter()
    reordered = 0
    for _ in range(10_000):
        reply = "\n".join(rng.choices(_CODE_LINES, k=rng.randint(1, 10))) + rng.choice(("", "\n"))
        page = rng.randint(1, 3)
        expected = _code_outcome(_reference_parse_code_block, reply, page)
        actual = _code_outcome(parse_code_block, reply, page)
        if isinstance(expected, str):
            assert actual == expected, reply
            outcomes["no records"] += 1
            continue
        assert actual[:2] == expected[:2], reply
        outcomes["records" if expected[0] else "no records kept"] += 1
        outcomes["code list"] += expected[1]
        # An unusable attribute line is reported where it stands now, not when
        # its entry closes, so only its place among the warnings may differ.
        assert Counter(actual[2]) == Counter(expected[2]), reply
        for keep in (lambda w: w.kind != "unrecognized_attribute",
                     lambda w: w.kind == "unrecognized_attribute"):
            assert list(filter(keep, actual[2])) == list(filter(keep, expected[2])), reply
        reordered += actual[2] != expected[2]
    assert min(outcomes.values()) > 500, outcomes
    assert 0 < reordered < 600

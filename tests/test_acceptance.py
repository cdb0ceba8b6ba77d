"""Release gate: one test per shipped guarantee, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
guarantee.  These tests exercise the public API end to end and lean on the
independent oracles in conftest rather than on the implementation under test.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import socket
import time
from dataclasses import replace
from pathlib import Path

import pytest

import thematica
from conftest import (make_corpus, oracle_trace_level, random_code_records, random_themes,
                      write_plain_text)
from thematica.agreement import (
    cohens_kappa,
    overlap_percentage,
    percentage_difference,
    percentage_similarity,
    share_percentage,
)
from thematica.codebook import (
    ALIAS_MAP,
    Codebook,
    Matcher,
    load_alias_map,
    load_human_codebook,
    match_codes,
    merge_codebooks,
)
from thematica.corpus import load_corpus
from thematica.errors import AnalysisInterrupted, FixtureMiss
from thematica.gateway import ModelConfig, ReplayTransport, request_digest
from thematica.outparse import (
    CodeRecord,
    parse_code_block,
    parse_emerging_code_list,
    parse_interpretation_block,
    parse_theme_block,
    render_codes_digest,
    render_theme_digest,
)
from thematica.pipeline import NOT_COVERED, compare, run_analysis, six_step_coverage
from thematica.promptkit import StudyFocus
from thematica.report import build_report
from thematica.trace import EXACT, FAILED, FUZZY, NORMALIZED, verify_codebook, verify_quote

from test_outparse import (
    INLINE_MISSING_PAGE,
    INLINE_WITH_CUE,
    INTERPRETATION_REPLY,
    LABELED_FIELDS,
    NUMBERED_MULTILINE,
    NUMBERED_MULTILINE_WITH_LIST,
    THEME_REPLY,
)

SAMPLES = Path(thematica.__file__).parent / "samples"


def replay_sample(out_dir: Path, transport=None):
    run_config = json.loads((SAMPLES / "run_config.json").read_text(encoding="utf-8"))
    corpus = load_corpus(SAMPLES / "transcript.txt", page_size=run_config["page_size"])
    focus = StudyFocus(focus_description=run_config["focus_description"],
                       research_question=run_config["research_question"])
    if transport is None:
        transport = ReplayTransport(SAMPLES / "session.json")
    return run_analysis(corpus, focus, ModelConfig(), transport, output_dir=out_dir)


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    return replay_sample(tmp_path_factory.mktemp("reference"))


def test_code_count_difference_and_similarity_formulas() -> None:
    assert percentage_difference(67, 59) == pytest.approx(11.94, abs=0.005)
    assert percentage_similarity(67, 59) == pytest.approx(88.06, abs=0.005)


def test_share_and_overlap_percentages_match_reference_tables() -> None:
    assert share_percentage(4, 19) == pytest.approx(21.05, abs=0.005)
    assert share_percentage(15, 19) == pytest.approx(78.95, abs=0.005)
    assert overlap_percentage(15, 23) == pytest.approx(65.22, abs=0.005)
    assert overlap_percentage(15, 26) == pytest.approx(57.69, abs=0.005)
    assert share_percentage(67, 126) == pytest.approx(53.17, abs=0.005)
    assert share_percentage(59, 126) == pytest.approx(46.83, abs=0.005)


def test_two_coder_merge_count_and_reference_discrepancy_footnote(reference_run) -> None:
    coder1 = load_human_codebook(SAMPLES / "coder1.csv")
    coder2 = load_human_codebook(SAMPLES / "coder2.csv")
    assert (len(coder1.codes), len(coder2.codes)) == (69, 102)

    matcher = Matcher(mode=ALIAS_MAP, alias_map=load_alias_map(SAMPLES / "alias_map.csv"))
    match = match_codes(coder1, coder2, matcher)
    assert len(match.pairs) == 67
    merged, merge_count = merge_codebooks(coder1, coder2, match)
    assert merge_count == 104
    assert len(merged.codes) == 104

    reference = json.loads((SAMPLES / "paper_reference.json").read_text(encoding="utf-8"))
    comparison = replace(compare(reference_run, [merged], Matcher()),
                         coders=(coder1, coder2), coder_match=match, merged=merged)
    bundle = build_report(reference_run, bundle=comparison, paper_reference=reference)
    assert "| Merged | 104 |" in bundle.markdown_report
    assert any(
        "table1.merged_codes: computed 104 differs from the reference value 106" in note
        for note in bundle.inconsistency_notes
    )


def test_replay_run_reproduces_reference_analysis_offline_and_fast(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during a replay run")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)

    started = time.perf_counter()
    first = replay_sample(tmp_path / "one")
    second = replay_sample(tmp_path / "two")
    elapsed = time.perf_counter() - started

    book = first.llm_codebook
    assert len(book.codes) == 59
    assert len(book.emerging_labels) == 15
    assert len(book.themes) == 4
    assert sum(1 for theme in book.themes if theme.interpretation) == 4
    assert second.llm_codebook is not None
    assert (tmp_path / "one" / "analysis.json").read_bytes() == \
        (tmp_path / "two" / "analysis.json").read_bytes()
    assert elapsed < 5.0


def test_reply_fragments_parse_and_rendering_is_a_fixpoint() -> None:
    cue = parse_code_block(INLINE_WITH_CUE, expected_page=1)
    assert [r.label for r in cue.records] == ["Academic Background of Researcher"]
    assert cue.records[0].page == 1

    labeled = parse_code_block(LABELED_FIELDS, expected_page=2)
    assert len(labeled.records) == 3
    assert labeled.records[0].label == "Confidentiality Assurance"
    assert all(r.page == 2 for r in labeled.records)

    fallback = parse_code_block(INLINE_MISSING_PAGE, expected_page=3)
    assert [r.page for r in fallback.records] == [3, 3]
    assert [w.kind for w in fallback.warnings] == ["missing_page"]

    multiline = parse_code_block(NUMBERED_MULTILINE, expected_page=15)
    assert [r.label for r in multiline.records] == [
        "Personal growth and exposure", "Live Life Fully and Independently",
    ]
    assert multiline.records[0].quote.startswith("It is good to travel")

    listed = parse_code_block(NUMBERED_MULTILINE_WITH_LIST, expected_page=16)
    assert len(listed.records) == 6
    emerging = parse_emerging_code_list(NUMBERED_MULTILINE_WITH_LIST)
    assert len(emerging) == 13
    assert emerging[0] == "Accidental Career Discovery"

    themes = parse_theme_block(THEME_REPLY)
    assert [t.name for t in themes.records] == [
        "Personal and Professional Motivations for Migration",
        "Ethical Considerations and Participant Engagement",
    ]
    assert len(themes.records[0].member_labels) == 7

    interpreted = parse_interpretation_block(INTERPRETATION_REPLY, themes.records)
    assert interpreted.records[0].interpretation.startswith(
        "This theme is central to understanding")
    assert interpreted.records[1].interpretation is None

    rng = random.Random(20260823)
    for _ in range(100):
        records = random_code_records(rng)
        digest = render_codes_digest(records)
        parsed = parse_code_block(digest, expected_page=records[0].page)
        assert [(r.label, r.quote, r.page) for r in parsed.records] == \
            [(r.label, r.quote, r.page) for r in records]
        assert render_codes_digest(parsed.records) == digest

        theme_digest = render_theme_digest(random_themes(rng))
        assert render_theme_digest(parse_theme_block(theme_digest).records) == theme_digest


def test_quote_tracing_grades_planted_mutated_and_foreign_quotes() -> None:
    vocabulary = ("we", "felt", "the", "shift", "every", "day", "and", "nobody",
                  "warned", "us", "but", "it", "slowly", "became", "home", "after",
                  "months", "of", "adjusting", "together", "at", "work")
    rng = random.Random(2024)
    paragraphs = [
        " ".join(rng.choice(vocabulary) for _ in range(12)) + "."
        for _ in range(29)
    ]
    paragraphs.append("She chanced on it.")
    corpus = make_corpus(paragraphs, page_size=10)

    planted = [
        CodeRecord(label=f"Planted {page.number}", quote=paragraphs[(page.number - 1) * 10],
                   page=page.number)
        for page in corpus.pages
    ]
    report = verify_codebook(planted, corpus)
    assert [r.level for r in report.results] == [EXACT] * len(planted)
    assert report.verified_share == pytest.approx(100.0)

    mutated = verify_quote(CodeRecord(label="m", quote="She changed on it.", page=3), corpus)
    assert mutated.level == FUZZY
    assert mutated.score >= 0.85
    assert mutated.score == pytest.approx(1 - 1 / len("she changed on it."))

    foreign = verify_quote(
        CodeRecord(label="f", quote="quantum zebras orbit the flute concerto", page=1), corpus)
    assert foreign.level == FAILED
    assert foreign.score == 0.0

    rank = {EXACT: 3, NORMALIZED: 2, FUZZY: 1, FAILED: 0}
    for _ in range(1000):
        page = corpus.pages[rng.randrange(corpus.page_count)]
        text = page.text
        words = text.split()
        start = rng.randrange(len(words) - 3)
        quote = " ".join(words[start:start + rng.randint(3, 8)])
        kind = rng.randrange(4)
        if kind == 1:
            quote = quote.upper()
        elif kind == 2:
            middle = len(quote) // 2
            replacement = "q" if quote[middle] != "q" else "z"
            quote = quote[:middle] + replacement + quote[middle + 1:]
        elif kind == 3:
            quote = " ".join(rng.choice(("zebra", "quantum", "flute", "orbit"))
                             for _ in range(rng.randint(3, 8)))
        result = verify_quote(CodeRecord(label="x", quote=quote, page=page.number), corpus)
        level, score = oracle_trace_level(quote, text)
        assert result.level == level
        assert result.score == pytest.approx(score, abs=1e-9)
        loose = verify_quote(CodeRecord(label="x", quote=quote, page=page.number),
                             corpus, threshold=0.6)
        strict = verify_quote(CodeRecord(label="x", quote=quote, page=page.number),
                              corpus, threshold=0.95)
        assert rank[loose.level] >= rank[strict.level]


def test_small_codebook_matching_equals_set_arithmetic_and_kappa_oracle() -> None:
    labels = [f"Label {letter}" for letter in "ABCDEFGHIJ"]
    first_records = {i: CodeRecord(label=labels[i], quote="said once", page=1,
                                   provenance="human") for i in range(10)}
    second_records = {i: CodeRecord(label=labels[i], quote="said twice", page=2,
                                    provenance="human") for i in range(10)}
    subsets = [combo for size in range(1, 7)
               for combo in itertools.combinations(range(10), size)]
    books_a = {s: Codebook(coder_id="one", provenance="human",
                           codes=tuple(first_records[i] for i in s)) for s in subsets}
    books_b = {s: Codebook(coder_id="two", provenance="human",
                           codes=tuple(second_records[i] for i in s)) for s in subsets}
    label_sets = {s: frozenset(labels[i] for i in s) for s in subsets}

    matcher = Matcher()
    for picks_a in subsets:
        book_a = books_a[picks_a]
        set_a = label_sets[picks_a]
        for picks_b in subsets:
            set_b = label_sets[picks_b]
            result = match_codes(book_a, books_b[picks_b], matcher)
            assert set(result.pairs) == {(label, label) for label in set_a & set_b}
            assert set(result.outliers_a) == set_a - set_b
            assert set(result.outliers_b) == set_b - set_a
            merged, count = merge_codebooks(book_a, books_b[picks_b], result)
            assert count == len(set_a | set_b)
            assert set(merged.labels) == set_a | set_b

    def confusion_matrix_kappa(x: list[int], y: list[int]) -> float:
        both = sum(1 for a, b in zip(x, y) if a == 1 and b == 1)
        neither = sum(1 for a, b in zip(x, y) if a == 0 and b == 0)
        only_x = sum(1 for a, b in zip(x, y) if a == 1 and b == 0)
        only_y = sum(1 for a, b in zip(x, y) if a == 0 and b == 1)
        n = both + neither + only_x + only_y
        p_o = (both + neither) / n
        p_e = (((both + only_x) / n) * ((both + only_y) / n)
               + ((neither + only_y) / n) * ((neither + only_x) / n))
        return (p_o - p_e) / (1 - p_e)

    rng = random.Random(99)
    checked = 0
    while checked < 100:
        x = [rng.randint(0, 1) for _ in range(40)]
        y = [rng.randint(0, 1) for _ in range(40)]
        if x == y and sum(x) in (0, len(x)):
            continue
        assert cohens_kappa(x, y) == pytest.approx(confusion_matrix_kappa(x, y), abs=1e-9)
        checked += 1


def test_six_stage_coverage_counts_for_model_and_human_outputs(reference_run) -> None:
    human = load_human_codebook(SAMPLES / "coder1.csv")
    coverages = six_step_coverage(reference_run, human=human)

    llm = coverages["llm"]
    covered = {stage for stage, detail in llm.stages.items() if detail != NOT_COVERED}
    assert covered == {"Keywords", "Coding", "ThemeIdentification", "Conceptualization"}
    assert llm.covered_count == 4

    coder = coverages[human.coder_id]
    assert coder.covered_count == 3
    assert coder.stages["ThemeIdentification"] != NOT_COVERED
    assert coder.stages["Conceptualization"] == NOT_COVERED


def test_pagination_laws_hold_on_random_documents(tmp_path: Path) -> None:
    rng = random.Random(977)
    words = ("river", "market", "night", "ward", "shift", "family", "letter")
    path = tmp_path / "transcript.txt"
    for _ in range(500):
        count = rng.randint(1, 180)
        size = rng.randint(1, 25)
        texts = [f"Paragraph {i} " + " ".join(rng.choice(words) for _ in range(3)) + "."
                 for i in range(count)]
        corpus = load_corpus(write_plain_text(path, texts), page_size=size)
        assert corpus.page_count == math.ceil(count / size)
        assert [page.number for page in corpus.pages] == list(range(1, corpus.page_count + 1))
        assert [text for page in corpus.pages for text in page.text.split("\n")] == texts


class LoggingTransport:
    """Replay wrapper that logs request digests and can fail after a quota."""

    kind = "replay"

    def __init__(self, fail_after: int | None = None) -> None:
        self.inner = ReplayTransport(SAMPLES / "session.json")
        self.fail_after = fail_after
        self.digests: list[str] = []

    def send(self, config, messages, context=None):
        if self.fail_after is not None and len(self.digests) >= self.fail_after:
            raise FixtureMiss(f"synthetic outage before {context}")
        self.digests.append(request_digest(config, messages))
        return self.inner.send(config, messages, context)


def test_interrupted_replay_resumes_without_repeating_requests(
        reference_run, tmp_path: Path) -> None:
    out_dir = tmp_path / "resumed"
    first_leg = LoggingTransport(fail_after=16)
    with pytest.raises(AnalysisInterrupted) as info:
        replay_sample(out_dir, transport=first_leg)
    assert info.value.stage == "theme_generation"

    second_leg = LoggingTransport()
    resumed = replay_sample(out_dir, transport=second_leg)
    assert resumed.status == "complete"
    assert len(second_leg.digests) == 2
    assert not set(first_leg.digests) & set(second_leg.digests)
    assert (out_dir / "analysis.json").read_bytes() == \
        Path(reference_run.path).read_bytes()

"""Markdown report assembly, CSV exports, and reference footnotes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from conftest import make_corpus
from thematica.agreement import format_percent
from thematica.cli import main
from thematica.codebook import Codebook, Matcher, load_alias_map, load_human_codebook
from thematica.corpus import load_corpus
from thematica.errors import EmptyCodebook
from thematica.gateway import ModelConfig, ReplayTransport
from thematica.outparse import CodeRecord
from thematica.pipeline import AnalysisArtifact, compare, run_analysis, six_step_coverage
from thematica.promptkit import StudyFocus
from thematica.report import (
    METRIC_KEYS,
    CoderMergeStats,
    build_report,
    render_code_listing,
    render_codes_csv,
    render_trace_summary,
    write_report_bundle,
)
from thematica.trace import verify_codebook

SAMPLE_MERGE_STATS = CoderMergeStats(
    coder_a_id="coder1", coder_a_codes=69,
    coder_b_id="coder2", coder_b_codes=102,
    similar_codes=67, merged_codes=104,
    coder_a_themes=23, coder_b_themes=26, similar_themes=15,
    coder_a_theme_overlap_pct=1500 / 23, coder_b_theme_overlap_pct=1500 / 26,
)


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory) -> dict:
    import thematica

    samples = Path(thematica.__file__).parent / "samples"
    run_config = json.loads((samples / "run_config.json").read_text(encoding="utf-8"))
    corpus = load_corpus(samples / "transcript.txt", page_size=run_config["page_size"])
    focus = StudyFocus(focus_description=run_config["focus_description"],
                       research_question=run_config["research_question"])
    artifact = run_analysis(corpus, focus, ModelConfig(),
                            ReplayTransport(samples / "session.json"),
                            output_dir=tmp_path_factory.mktemp("report_run"))
    matcher = Matcher(mode="alias_map",
                      alias_map=load_alias_map(samples / "alias_map.csv"))
    human = load_human_codebook(samples / "coder1.csv")
    reference = json.loads((samples / "paper_reference.json").read_text(encoding="utf-8"))
    return {
        "artifact": artifact,
        "bundle": compare(artifact, human, matcher),
        "coverages": six_step_coverage(artifact, human=human),
        "reference": reference,
    }


def tiny_artifact() -> AnalysisArtifact:
    corpus = make_corpus(["The road was long.", "But the welcome was warm."], page_size=1)
    codebook = Codebook(coder_id="genai", provenance="llm", codes=(
        CodeRecord(label="Long Road", quote="The road was long.", page=1),
        CodeRecord(label="Phantom", quote="this sentence appears nowhere at all", page=2),
    ))
    trace = verify_codebook(codebook, corpus)
    return AnalysisArtifact(
        corpus_fingerprint={"source_path": "tiny.txt", "content_hash": "deadbeef",
                            "page_count": 2, "page_size": 1},
        config_snapshot={"model": {"model_id": "gpt-4-turbo", "temperature": 0.3,
                                   "max_tokens": 1000}},
        status="complete",
        llm_codebook=codebook,
        trace=trace,
        notes=["synthetic note for testing"],
    )


def test_code_listing_groups_pages_and_badges() -> None:
    artifact = tiny_artifact()
    listing = render_code_listing(artifact.llm_codebook, artifact.trace)
    assert "Page 1:" in listing and "Page 2:" in listing
    assert '1. **Long Road**: "The road was long." - Page 1 [Exact]' in listing
    assert "### Unverified Quotes" in listing
    assert "- **Phantom** on page 2" in listing


def test_code_listing_opens_a_group_for_a_first_code_with_no_page() -> None:
    corpus = make_corpus(["The road was long.", "But the welcome was warm."], page_size=1)
    codebook = Codebook(coder_id="genai", provenance="llm", codes=(
        CodeRecord(label="Long Road", quote="The road was long.", page=None),
        CodeRecord(label="Warm Welcome", quote="But the welcome was warm.", page=2),
        CodeRecord(label="No Page Again", quote="The road was long.", page=None),
    ))
    listing = render_code_listing(codebook, verify_codebook(codebook, corpus))
    assert listing.splitlines()[:11] == [
        "## Emerging Codes by Page",
        "",
        "No page:",
        '1. **Long Road**: "The road was long." - Page None [Failed]',
        "",
        "Page 2:",
        '1. **Warm Welcome**: "But the welcome was warm." - Page 2 [Exact]',
        "",
        "No page:",
        '1. **No Page Again**: "The road was long." - Page None [Failed]',
        "",
    ]


def test_code_listing_requires_alignment() -> None:
    artifact = tiny_artifact()
    with pytest.raises(EmptyCodebook):
        render_code_listing(Codebook(coder_id="x", provenance="llm"), artifact.trace)
    short = Codebook(coder_id="x", provenance="llm",
                     codes=(artifact.llm_codebook.codes[0],))
    with pytest.raises(ValueError):
        render_code_listing(short, artifact.trace)


def test_codes_csv_lists_every_record() -> None:
    artifact = tiny_artifact()
    text = render_codes_csv(artifact.llm_codebook, artifact.trace)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["label", "quote", "page", "trace_level", "provenance"]
    assert rows[1] == ["Long Road", "The road was long.", "1", "Exact", "llm"]
    assert rows[2][3] == "Failed"


def test_trace_summary_counts_and_share() -> None:
    artifact = tiny_artifact()
    markdown, metric_rows = render_trace_summary(artifact.trace)
    assert "| Exact | 1 |" in markdown
    assert "| Failed | 1 |" in markdown
    assert "Verified quotes: 1 of 2 (50.00%)." in markdown
    keys = [row[0] for row in metric_rows]
    assert "trace.exact_count" in keys and "trace.verified_share_pct" in keys


def test_full_report_sections_for_sample_run(sample_run: dict) -> None:
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          coverages=sample_run["coverages"],
                          human_tables=SAMPLE_MERGE_STATS,
                          paper_reference=sample_run["reference"])
    report = bundle.markdown_report
    assert report.startswith("# Thematic Analysis Report")
    for heading in ("## Emerging Codes by Page", "## Emerging Code List", "## Themes",
                    "## Quote Traceability", "## Codebook Comparison",
                    "## Six-Step Coverage", "## Run Notes"):
        assert heading in report
    assert "| coder1 | 69 |" in report
    assert "| coder2 | 102 |" in report
    assert "| Similar (counted once) | 67 |" in report
    assert "| Merged | 104 |" in report
    assert "| Human | 69 | 53.91% |" in report
    assert "| Model | 59 | 46.09% |" in report
    assert "missing_page" in report
    assert set(bundle.csv_exports) == {
        "codes.csv", "matrix.csv", "summary.csv", "coverage.csv",
    }


def test_reference_mismatch_becomes_footnote_not_adjustment(sample_run: dict) -> None:
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          human_tables=SAMPLE_MERGE_STATS,
                          paper_reference=sample_run["reference"])
    notes = bundle.inconsistency_notes
    assert any(
        note == "table1.merged_codes: computed 104 differs from the reference value 106"
        for note in notes
    )
    assert "| Merged | 104 |" in bundle.markdown_report
    assert "## Inconsistency Notes" in bundle.markdown_report


def test_matching_reference_values_get_no_footnote(sample_run: dict) -> None:
    reference = {"table1": {"coder_1_codes": 69, "similar_codes": 67}}
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          human_tables=SAMPLE_MERGE_STATS, paper_reference=reference)
    assert not any("table1" in note for note in bundle.inconsistency_notes)


def test_float_reference_comparison_uses_display_rounding(sample_run: dict) -> None:
    reference = {"table4": {"human_share_pct": 53.91, "genai_share_pct": 40.0}}
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          paper_reference=reference)
    assert not any("human_share_pct" in note for note in bundle.inconsistency_notes)
    assert any("table4.genai_share_pct: computed 46.09 differs from the reference value 40.00"
               in note for note in bundle.inconsistency_notes)


def test_a_reference_key_that_names_no_metric_becomes_a_note(sample_run: dict) -> None:
    reference = {"table1": {"similar_cods": 67, "similar_codes": 67}, "tabel4": {"total": 1}}
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          human_tables=SAMPLE_MERGE_STATS, paper_reference=reference)
    assert [note for note in bundle.inconsistency_notes if "no metric" in note] == [
        "tabel4.total: names no metric, so its reference value is not checked",
        "table1.similar_cods: names no metric, so its reference value is not checked",
    ]


def test_a_reference_table_that_is_not_an_object_becomes_a_note(sample_run: dict) -> None:
    reference = {"table1": 106, "table4": {"total": 128}}
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          human_tables=SAMPLE_MERGE_STATS, paper_reference=reference)
    assert [note for note in bundle.inconsistency_notes if note.startswith("table")] == [
        "table1: must be an object of metric values, so its reference values are not checked",
    ]


@pytest.mark.parametrize("number, shown", [
    ("Infinity", None),
    ("-Infinity", None),
    ("NaN", None),
    ("1e400", None),
    ("1" + "0" * 400, None),
    ("1e26", "100000000000000004764729344"),
], ids=["infinity", "minus-infinity", "nan", "1e400", "integer-past-float", "1e26"])
def test_a_non_finite_reference_number_becomes_one_note(
        sample_run: dict, number: str, shown: str | None) -> None:
    # Read as --paper-reference reads it: Python's JSON parser takes Infinity and NaN.
    reference = json.loads(f'{{"table4": {{"total": {number}, "human_share_pct": {number}}}}}')
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          paper_reference=reference)
    notes = [note for note in bundle.inconsistency_notes if note.startswith("table4.")]
    if shown is None:
        assert notes == [
            f"table4.{key}: must be a finite number, so its reference value is not checked"
            for key in ("human_share_pct", "total")]
    else:
        assert notes == [
            f"table4.human_share_pct: computed 53.91 differs from the reference value {shown}.00",
            f"table4.total: computed 128 differs from the reference value {shown}",
        ]


@pytest.mark.parametrize("expected, note", [
    (-0.3203, None),
    (-0.32034, None),
    (-0.3174, "comparison.cohens_kappa: computed -0.3203 differs from the reference value -0.3174"),
    (0.5, "comparison.cohens_kappa: computed -0.3203 differs from the reference value 0.5000"),
    (-0.32, "comparison.cohens_kappa: computed -0.3203 differs from the reference value -0.3200"),
], ids=["equal", "equal-at-four-places", "differs-at-four-places", "printed-at-four-places",
        "equal-at-two-places"])
def test_a_ratio_reference_is_compared_and_printed_at_four_decimals(
        sample_run: dict, expected: float, note: str | None) -> None:
    # Kappa prints four decimals in report.md and summary.csv, and so in its footnote.
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          paper_reference={"comparison": {"cohens_kappa": expected}})
    assert "Cohen's kappa over the same matrix: -0.3203." in bundle.markdown_report
    kappa_notes = [n for n in bundle.inconsistency_notes if n.startswith("comparison.")]
    assert kappa_notes == ([note] if note else [])


def test_a_metric_this_comparison_does_not_compute_gets_no_note(sample_run: dict) -> None:
    # One coder and no merge statistics: table1 and table2 are not computed.
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          paper_reference=sample_run["reference"])
    assert not any(note.startswith(("table1.", "table2.")) for note in bundle.inconsistency_notes)


def test_metric_keys_are_the_metrics_a_full_comparison_computes(sample_run: dict) -> None:
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          human_tables=SAMPLE_MERGE_STATS)
    rows = list(csv.reader(io.StringIO(bundle.csv_exports["summary.csv"])))[1:]
    assert {row[0] for row in rows if not row[0].startswith("trace.")} == METRIC_KEYS


def test_summary_csv_display_column_matches_formatting(sample_run: dict) -> None:
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"])
    rows = list(csv.reader(io.StringIO(bundle.csv_exports["summary.csv"])))
    assert rows[0] == ["metric", "value", "display"]
    by_metric = {row[0]: row for row in rows[1:]}
    difference = by_metric["table4.percentage_difference"]
    assert difference[2] == format_percent(float(difference[1]))
    assert difference[2] == "14.49"
    assert by_metric["trace.exact_count"][2] == "59"


def test_matrix_csv_has_row_per_distinct_code(sample_run: dict) -> None:
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"])
    rows = list(csv.reader(io.StringIO(bundle.csv_exports["matrix.csv"])))
    assert rows[0] == ["code", "coder1", "genai"]
    matrix = sample_run["bundle"].matrix
    assert len(rows) - 1 == len(matrix.row_labels)
    for row in rows[1:]:
        assert row[1] in ("0", "1") and row[2] in ("0", "1")


def test_coverage_csv_lists_both_coders(sample_run: dict) -> None:
    bundle = build_report(sample_run["artifact"], bundle=sample_run["bundle"],
                          coverages=sample_run["coverages"])
    rows = list(csv.reader(io.StringIO(bundle.csv_exports["coverage.csv"])))
    coders = {row[0] for row in rows[1:]}
    assert coders == {"llm", "coder1"}
    assert len(rows) - 1 == 12


def test_report_without_comparison_still_exports_summary() -> None:
    bundle = build_report(tiny_artifact())
    assert set(bundle.csv_exports) == {"codes.csv", "summary.csv"}
    assert "## Codebook Comparison" not in bundle.markdown_report
    assert "synthetic note for testing" in bundle.markdown_report


def test_report_requires_parsed_codebook() -> None:
    hollow = AnalysisArtifact(corpus_fingerprint={}, config_snapshot={})
    with pytest.raises(EmptyCodebook):
        build_report(hollow)


def test_write_report_bundle_writes_all_files(tmp_path: Path) -> None:
    bundle = build_report(tiny_artifact())
    written = write_report_bundle(bundle, tmp_path / "out")
    names = {path.name for path in written}
    assert names == {"report.md", "codes.csv", "summary.csv"}
    assert (tmp_path / "out" / "report.md").read_text(encoding="utf-8") == bundle.markdown_report


# SHA-256 of every file `compare` or `report` writes in a copy of the samples,
# after `analyze`. They pin the bytes of report.md and its CSV twins.
PINNED_OUTPUTS = {
    "two-coders-reference": (
        ["compare", "--artifact", "out/analysis.json", "--human", "coder1.csv",
         "--human", "coder2.csv", "--paper-reference", "paper_reference.json"], {
            "report.md": "ab7f22962cba43f57aa8296b41170190bbb04cf538e542f07cb515483599e733",
            "summary.csv": "a352b19cfcc96e9c8c1aedfdb0c8b3e4cd60c22545de64a9250c7c804fd81c9d",
            "matrix.csv": "ff125c92cf772bfa0fe3c6c1abf1067565a639528b204eda854f255a0a893a6f",
            "coverage.csv": "2fe47729731557b4c9086552b2b78bf5bb29ad1cb0bf95a21804d5fe62d19b44",
            "codes.csv": "e906ce0006dbb27bdfaa5e87400260ef726303fd8b0b54a7b695087fb9c4cf08",
        }),
    "one-coder": (
        ["compare", "--artifact", "out/analysis.json", "--human", "coder1.csv"], {
            "report.md": "0564833b18d1465f8102c0738c732b8a73b633f76bb1dd907d8250b884b0409a",
            "summary.csv": "8d0c7753165ad5cb1016358dcf686d3c363ac9a5e47b32de3406dda03e9e7dd9",
            "matrix.csv": "018279c7b515fcbf39a881d544c5a3fb3f806129210a968f222b66228956a8c5",
            "coverage.csv": "72eaa73976dd6e9e08fd1fbdf610b1b83bde500222eabc6574869a621fee896c",
            "codes.csv": "e906ce0006dbb27bdfaa5e87400260ef726303fd8b0b54a7b695087fb9c4cf08",
        }),
    "two-coders-token-overlap": (
        ["compare", "--artifact", "out/analysis.json", "--human", "coder1.csv",
         "--human", "coder2.csv", "--matcher", "token_overlap"], {
            "report.md": "b343ad0170b01ef19ddd0cae7399c13c087d08aaafb0ba5e4070c7fdbc47e8c6",
            "summary.csv": "356bebea7c731c4423cf976eac45200f6379e238dca9e142b95795c64c85223a",
            "matrix.csv": "56de28cf68a1e2ceb736505911cc18529d94ee833bce0dce2558a0c42a5d959a",
            "coverage.csv": "2fe47729731557b4c9086552b2b78bf5bb29ad1cb0bf95a21804d5fe62d19b44",
            "codes.csv": "e906ce0006dbb27bdfaa5e87400260ef726303fd8b0b54a7b695087fb9c4cf08",
        }),
    "report": (
        ["report", "--artifact", "out/analysis.json"], {
            "report.md": "2dbf6d494401324940187b962c443b21a1c509c9f83530ff073855b8b7a47c33",
            "summary.csv": "9420d8e49a40c8a605c1faa25a1349841e80957fcabe0ad36f1c17681985954f",
            "coverage.csv": "91524cd37b7820903dc840f69a8c2741317634c8b2c0ffdde14eac5e5a4d486b",
            "codes.csv": "e906ce0006dbb27bdfaa5e87400260ef726303fd8b0b54a7b695087fb9c4cf08",
        }),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_report_outputs_keep_their_bytes(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, name: str) -> None:
    # Run where the config sits, as the README does, so the source reads transcript.txt.
    monkeypatch.chdir(sample_workspace)
    assert main(["--config", "run_config.json", "analyze"]) == 0
    argv, digests = PINNED_OUTPUTS[name]
    assert main(["--config", "run_config.json", "--output-dir", "pinned", *argv]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in Path("pinned").iterdir()}
    assert written == digests

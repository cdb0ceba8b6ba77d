"""Markdown report assembly, CSV exports, and reference footnotes."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from conftest import make_corpus
from thematica.agreement import format_percent
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

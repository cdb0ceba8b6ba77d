"""Render analysis results into markdown and CSV outputs.

The markdown report carries the page-by-page traceable code listing, the
theme and interpretation text, trace statistics, and the comparison tables;
every markdown table has a CSV twin (codes.csv, matrix.csv, summary.csv,
coverage.csv).  Percentages print with exactly 2 decimals; the CSV keeps an
extra full-precision column.  When a reference-values file is supplied,
computed numbers that differ from it gain footnotes instead of being
adjusted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

from .agreement import format_percent, round_display
from .codebook import Codebook
from .errors import EmptyCodebook
from .outparse import render_code_line
from .pipeline import AnalysisArtifact, ComparisonBundle, SixStepCoverage
from .trace import FAILED, LEVELS, TraceabilityReport


@dataclass(frozen=True)
class CoderMergeStats:
    """Two-coder statistics: code counts, merge results, and theme overlaps."""

    coder_a_id: str
    coder_a_codes: int
    coder_b_id: str
    coder_b_codes: int
    similar_codes: int
    merged_codes: int
    coder_a_themes: int = 0
    coder_b_themes: int = 0
    similar_themes: int = 0
    coder_a_theme_overlap_pct: float | None = None
    coder_b_theme_overlap_pct: float | None = None


@dataclass
class ReportBundle:
    markdown_report: str
    csv_exports: dict[str, str] = field(default_factory=dict)
    inconsistency_notes: list[str] = field(default_factory=list)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def render_code_listing(codebook: Codebook, trace: TraceabilityReport) -> str:
    """Page-grouped numbered code listing with a trace badge per entry."""
    if not codebook.codes:
        raise EmptyCodebook("cannot render an empty codebook")
    if len(trace.results) != len(codebook.codes):
        raise ValueError("trace results must align with codebook codes")
    lines: list[str] = ["## Emerging Codes by Page", ""]
    current_page: int | None = None
    index = 0
    for record, result in zip(codebook.codes, trace.results):
        if record.page != current_page:
            if current_page is not None:
                lines.append("")
            current_page = record.page
            index = 0
            lines.append(f"Page {record.page}:")
        index += 1
        lines.append(f"{render_code_line(record, index)} [{result.level}]")
    failures = trace.failures
    if failures:
        lines.extend(["", "### Unverified Quotes", ""])
        for result in failures:
            notes = f" ({'; '.join(result.notes)})" if result.notes else ""
            lines.append(f"- **{result.record.label}** on page {result.record.page}{notes}")
    return "\n".join(lines)


def render_codes_csv(codebook: Codebook, trace: TraceabilityReport) -> str:
    rows = [
        [record.label, record.quote, "" if record.page is None else record.page,
         result.level, record.provenance]
        for record, result in zip(codebook.codes, trace.results)
    ]
    return _csv_text(["label", "quote", "page", "trace_level", "provenance"], rows)


def render_trace_summary(trace: TraceabilityReport) -> tuple[str, list[list]]:
    counts = trace.counts
    lines = ["## Quote Traceability", "",
             "| Level | Count |", "| --- | --- |"]
    metric_rows: list[list] = []
    for level in LEVELS:
        lines.append(f"| {level} | {counts[level]} |")
        metric_rows.append([f"trace.{level.lower()}_count", counts[level], counts[level]])
    share = trace.verified_share
    lines.extend(["",
                  f"Verified quotes: {sum(counts[lv] for lv in LEVELS if lv != FAILED)}"
                  f" of {len(trace.results)} ({format_percent(share)}%)."])
    metric_rows.append(["trace.verified_share_pct", repr(share), format_percent(share)])
    return "\n".join(lines), metric_rows


def render_coverage(coverages: dict[str, SixStepCoverage]) -> tuple[str, str]:
    """Markdown section plus coverage.csv for the six-stage mapping."""
    lines = ["## Six-Step Coverage", ""]
    rows: list[list] = []
    for coder, coverage in coverages.items():
        lines.extend([f"### {coder}", "", "| Stage | Covered by |", "| --- | --- |"])
        for stage, value in coverage.stages.items():
            lines.append(f"| {stage} | {value} |")
            rows.append([coder, stage, value])
        lines.extend(["", f"Covered {coverage.covered_count} of 6 stages.", ""])
    return "\n".join(lines).rstrip(), _csv_text(["coder", "stage", "covered_by"], rows)


# Every metric a comparison can compute; which of them one comparison computes
# depends on its coders and themes.
METRIC_KEYS = frozenset(f"{table}.{name}" for table, names in (
    ("table1", "coder_1_codes coder_2_codes similar_codes merged_codes"),
    ("table2", "coder_1_themes coder_2_themes similar_themes coder_1_overlap_pct "
               "coder_2_overlap_pct"),
    ("table4", "human_codes genai_codes total human_share_pct genai_share_pct "
               "percentage_difference percentage_similarity similar_count"),
    ("comparison", "matched_pairs human_overlap_pct llm_overlap_pct cohens_kappa "
                   "positive_specific_agreement"),
    ("table6", "genai_themes genai_share_pct human_themes human_share_pct emerging_list_pct"),
) for name in names.split())


def _reference_check(metrics: dict[str, object], reference: dict | None,
                     notes: list[str]) -> None:
    if not reference:
        return
    for table, expected_map in sorted(reference.items()):
        if not isinstance(expected_map, dict):
            continue
        for metric, expected in sorted(expected_map.items()):
            key = f"{table}.{metric}"
            if key not in metrics:
                if key not in METRIC_KEYS:
                    notes.append(f"{key}: names no metric, so its reference value is not checked")
                continue
            computed = metrics[key]
            if isinstance(expected, (int, float)) and isinstance(computed, (int, float)):
                if round_display(computed) != round_display(expected):
                    notes.append(
                        f"{key}: computed {_display(computed)} differs from the "
                        f"reference value {_display(expected)}"
                    )
            elif str(computed) != str(expected):
                notes.append(f"{key}: computed {computed!r} differs from reference {expected!r}")


def _display(value: object) -> str:
    if isinstance(value, float):
        return format_percent(value)
    return str(value)


def render_comparison(bundle: ComparisonBundle,
                      human_tables: CoderMergeStats | None = None,
                      paper_reference: dict | None = None
                      ) -> tuple[str, str, list[list], list[str]]:
    """Comparison tables as markdown, matrix.csv, summary.csv rows, and notes."""
    notes: list[str] = list(bundle.notes)
    metrics: dict[str, object] = {}
    summary_rows: list[list] = []
    lines: list[str] = ["## Codebook Comparison", ""]

    def add_metric(key: str, value, display: str | None = None) -> None:
        metrics[key] = value
        shown = display if display is not None else _display(value)
        stored = repr(value) if isinstance(value, float) else value
        summary_rows.append([key, stored, shown])

    if human_tables is not None:
        lines.extend(["### Code Counts by Human Coder", "",
                      "| Coder | Codes |", "| --- | --- |",
                      f"| {human_tables.coder_a_id} | {human_tables.coder_a_codes} |",
                      f"| {human_tables.coder_b_id} | {human_tables.coder_b_codes} |",
                      f"| Similar (counted once) | {human_tables.similar_codes} |",
                      f"| Merged | {human_tables.merged_codes} |", ""])
        add_metric("table1.coder_1_codes", human_tables.coder_a_codes)
        add_metric("table1.coder_2_codes", human_tables.coder_b_codes)
        add_metric("table1.similar_codes", human_tables.similar_codes)
        add_metric("table1.merged_codes", human_tables.merged_codes)
        if human_tables.coder_a_theme_overlap_pct is not None:
            lines.extend(["### Theme Overlap Between Human Coders", "",
                          "| Coder | Themes | Similar | Overlap |", "| --- | --- | --- | --- |",
                          f"| {human_tables.coder_a_id} | {human_tables.coder_a_themes} | "
                          f"{human_tables.similar_themes} | "
                          f"{format_percent(human_tables.coder_a_theme_overlap_pct)}% |",
                          f"| {human_tables.coder_b_id} | {human_tables.coder_b_themes} | "
                          f"{human_tables.similar_themes} | "
                          f"{format_percent(human_tables.coder_b_theme_overlap_pct)}% |", ""])
            add_metric("table2.coder_1_themes", human_tables.coder_a_themes)
            add_metric("table2.coder_2_themes", human_tables.coder_b_themes)
            add_metric("table2.similar_themes", human_tables.similar_themes)
            add_metric("table2.coder_1_overlap_pct", human_tables.coder_a_theme_overlap_pct)
            add_metric("table2.coder_2_overlap_pct", human_tables.coder_b_theme_overlap_pct)

    summary = bundle.code_summary
    lines.extend(["### Code Counts: Human vs Model", "",
                  "| Source | Codes | Share |", "| --- | --- | --- |",
                  f"| Human | {summary.count_a} | {format_percent(summary.share_a)}% |",
                  f"| Model | {summary.count_b} | {format_percent(summary.share_b)}% |",
                  f"| Combined | {summary.total_combined} | 100.00% |",
                  "",
                  "| Measure | Count | Percent |", "| --- | --- | --- |",
                  f"| Percentage Difference | {summary.count_a - summary.count_b} | "
                  f"{format_percent(summary.percentage_difference)}% |",
                  f"| Percentage Similarity | {summary.similar_count} | "
                  f"{format_percent(summary.percentage_similarity)}% |", ""])
    add_metric("table4.human_codes", summary.count_a)
    add_metric("table4.genai_codes", summary.count_b)
    add_metric("table4.total", summary.total_combined)
    add_metric("table4.human_share_pct", summary.share_a)
    add_metric("table4.genai_share_pct", summary.share_b)
    add_metric("table4.percentage_difference", summary.percentage_difference)
    add_metric("table4.percentage_similarity", summary.percentage_similarity)
    add_metric("table4.similar_count", summary.similar_count)

    lines.extend(["### Matched Codes", "",
                  f"Matched pairs: {bundle.pair_count}; human-side overlap "
                  f"{format_percent(bundle.human_overlap_pct)}%, model-side overlap "
                  f"{format_percent(bundle.llm_overlap_pct)}%. "
                  "The full presence matrix is exported as matrix.csv.", ""])
    add_metric("comparison.matched_pairs", bundle.pair_count)
    add_metric("comparison.human_overlap_pct", bundle.human_overlap_pct)
    add_metric("comparison.llm_overlap_pct", bundle.llm_overlap_pct)
    add_metric("comparison.cohens_kappa", round(bundle.kappa, 6),
               f"{bundle.kappa:.4f}")
    add_metric("comparison.positive_specific_agreement",
               round(bundle.positive_specific_agreement, 6),
               f"{bundle.positive_specific_agreement:.4f}")
    lines.append(f"Positive specific agreement over the presence matrix, 2a / (2a + b + c) "
                 "with a the labels both coders used and b, c those only one used: "
                 f"{bundle.positive_specific_agreement:.4f}.")
    lines.append(f"Cohen's kappa over the same matrix: {bundle.kappa:.4f}. The matrix "
                 "has a row only for labels some coder used, so it holds no true "
                 "negatives, and kappa over it is at most 0 unless the two codebooks "
                 "are identical: it is not a chance-corrected agreement here.")
    lines.append("")

    if bundle.human_theme_share is not None and bundle.llm_theme_share is not None:
        total_themes = bundle.human_theme_count + bundle.llm_theme_count
        lines.extend(["### Theme Counts", "",
                      "| Source | Themes | Share |", "| --- | --- | --- |",
                      f"| Model | {bundle.llm_theme_count} | "
                      f"{format_percent(bundle.llm_theme_share)}% |",
                      f"| Human | {bundle.human_theme_count} | "
                      f"{format_percent(bundle.human_theme_share)}% |",
                      f"| Combined | {total_themes} | 100.00% |", ""])
        add_metric("table6.genai_themes", bundle.llm_theme_count)
        add_metric("table6.genai_share_pct", bundle.llm_theme_share)
        add_metric("table6.human_themes", bundle.human_theme_count)
        add_metric("table6.human_share_pct", bundle.human_theme_share)
        if bundle.emerging_vs_human_pct is not None:
            lines.append(f"Emerging-label list: {bundle.emerging_label_count} entries, "
                         f"{format_percent(bundle.emerging_vs_human_pct)}% of the human "
                         "theme count.")
            lines.append("")
            add_metric("table6.emerging_list_pct", bundle.emerging_vs_human_pct)

    _reference_check(metrics, paper_reference, notes)

    matrix_csv = _csv_text(
        ["code", *bundle.matrix.coder_ids],
        [[label, *row] for label, row in zip(bundle.matrix.row_labels, bundle.matrix.cells)],
    )
    return "\n".join(lines).rstrip(), matrix_csv, summary_rows, notes


def _render_themes(codebook: Codebook) -> str:
    lines = ["## Themes", ""]
    for number, theme in enumerate(codebook.themes, start=1):
        lines.append(f"### Theme {number}: {theme.name}")
        lines.append("")
        for label in theme.member_labels:
            lines.append(f"- **{label}**")
        if theme.member_labels:
            lines.append("")
        if theme.description:
            lines.extend([f"**Description**: {theme.description}", ""])
        if theme.interpretation:
            lines.extend([f"**Interpretation**: {theme.interpretation}", ""])
    return "\n".join(lines).rstrip()


def build_report(artifact: AnalysisArtifact,
                 bundle: ComparisonBundle | None = None,
                 coverages: dict[str, SixStepCoverage] | None = None,
                 human_tables: CoderMergeStats | None = None,
                 paper_reference: dict | None = None) -> ReportBundle:
    """Assemble the full markdown report and its CSV exports."""
    if artifact.llm_codebook is None or artifact.trace is None:
        raise EmptyCodebook("artifact carries no parsed codebook to report on")
    codebook = artifact.llm_codebook
    trace = artifact.trace

    fingerprint = artifact.corpus_fingerprint
    model = artifact.config_snapshot.get("model", {})
    sections = [
        "# Thematic Analysis Report",
        "",
        f"- Source: {fingerprint.get('source_path', '?')}",
        f"- Content hash: {fingerprint.get('content_hash', '?')}",
        f"- Pages: {fingerprint.get('page_count', '?')} "
        f"(page size {fingerprint.get('page_size', '?')} paragraphs)",
        f"- Model: {model.get('model_id', '?')} (temperature {model.get('temperature', '?')}, "
        f"max tokens {model.get('max_tokens', '?')})",
        f"- Status: {artifact.status}",
        f"- Codes: {len(codebook.codes)}; emerging labels: "
        f"{len(codebook.emerging_labels or ())}; themes: {len(codebook.themes)}",
        "",
    ]
    notes: list[str] = []

    sections.append(render_code_listing(codebook, trace))
    sections.append("")

    if codebook.emerging_labels:
        sections.extend(["## Emerging Code List", ""])
        sections.extend(f"- {label}" for label in codebook.emerging_labels)
        sections.append("")

    if codebook.themes:
        sections.append(_render_themes(codebook))
        sections.append("")

    trace_md, summary_rows = render_trace_summary(trace)
    sections.extend([trace_md, ""])

    exports: dict[str, str] = {"codes.csv": render_codes_csv(codebook, trace)}
    if bundle is not None:
        comparison_md, matrix_csv, comparison_rows, comparison_notes = render_comparison(
            bundle, human_tables=human_tables, paper_reference=paper_reference)
        sections.extend([comparison_md, ""])
        notes.extend(comparison_notes)
        exports["matrix.csv"] = matrix_csv
        summary_rows = comparison_rows + summary_rows
    exports["summary.csv"] = _csv_text(["metric", "value", "display"], summary_rows)

    if coverages:
        coverage_md, coverage_csv = render_coverage(coverages)
        sections.extend([coverage_md, ""])
        exports["coverage.csv"] = coverage_csv

    if artifact.notes:
        sections.extend(["## Run Notes", ""])
        sections.extend(f"- {note}" for note in artifact.notes)
        sections.append("")

    if notes:
        sections.extend(["## Inconsistency Notes", ""])
        sections.extend(f"- {note}" for note in notes)
        sections.append("")

    markdown = "\n".join(sections).rstrip() + "\n"
    return ReportBundle(markdown_report=markdown, csv_exports=exports,
                        inconsistency_notes=notes)


def write_report_bundle(bundle: ReportBundle, output_dir: str | Path) -> list[Path]:
    """Write report.md and every CSV export; returns the written paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"report.md": bundle.markdown_report, **bundle.csv_exports}
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in files]

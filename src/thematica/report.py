"""Render analysis results into markdown and CSV outputs.

The markdown report carries the page-by-page traceable code listing, the
theme and interpretation text, trace statistics, and the comparison tables.
Each number they show is a ``Metric``, made once as (key, value, display);
a ``Table`` is a title, a header and rows of text and metric cells, and one
renderer writes every table and sentence. summary.csv is the list of the
metrics; every other table has a CSV twin (codes.csv, matrix.csv,
coverage.csv). Percentages print with exactly 2 decimals and kappa-like
statistics with 4. A reference value that differs from its metric at the
precision the metric shows becomes a footnote; neither is adjusted.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from pathlib import Path
from typing import Iterable, NamedTuple

from .agreement import format_percent, round_display
from .codebook import Codebook
from .errors import EmptyCodebook
from .outparse import page_header, render_code_line
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


def _csv_text(header: list[str], rows: Iterable[Iterable]) -> str:
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
    lines: list[str] = ["## Emerging Codes by Page"]
    for page, group in groupby(zip(codebook.codes, trace.results), key=lambda pair: pair[0].page):
        lines.extend(["", page_header(page)])
        lines.extend(f"{render_code_line(record, index)} [{result.level}]"
                     for index, (record, result) in enumerate(group, start=1))
    failures = trace.failures
    if failures:
        lines.extend(["", "### Unverified Quotes", ""])
        for result in failures:
            notes = f" ({'; '.join(result.notes)})" if result.notes else ""
            lines.append(f"- **{result.record.label}** on page {result.record.page}{notes}")
    return "\n".join(lines)


def render_codes_csv(codebook: Codebook, trace: TraceabilityReport) -> str:
    return _csv_text(["label", "quote", "page", "trace_level", "provenance"], (
        [record.label, record.quote, "" if record.page is None else record.page,
         result.level, record.provenance]
        for record, result in zip(codebook.codes, trace.results)))


class Metric(NamedTuple):
    """One number of the report: a summary.csv row, and the text it prints as."""

    key: str
    value: int | float
    display: str

    def __str__(self) -> str:
        return self.display


class Percent(Metric):
    def __str__(self) -> str:
        return f"{self.display}%"


def _count(key: str, value: int) -> Metric:
    return Metric(key, value, str(value))


def _percent(key: str, value: float) -> Percent:
    return Percent(key, value, format_percent(value))


def _ratio(key: str, value: float) -> Metric:
    """A kappa-like statistic: summary.csv keeps 6 decimals, the report shows 4."""
    return Metric(key, round(value, 6), f"{value:.4f}")


class Table(NamedTuple):
    """A Markdown table under its ### title, or under none when the title is ""."""

    title: str
    header: tuple[str, ...]
    rows: list[tuple[str | Metric, ...]]


# A report is a list of blocks, a blank line apart: tables, text, and
# sentences whose parts are text and metrics.
Block = Table | str | tuple[str | Metric, ...]


def _markdown(blocks: list[Block]) -> str:
    parts: list[str] = []
    for block in blocks:
        if isinstance(block, Table):
            if block.title:
                parts.append(f"### {block.title}")
            lines = (block.header, ("---",) * len(block.header), *block.rows)
            parts.append("\n".join(f"| {' | '.join(map(str, cells))} |" for cells in lines))
        else:
            parts.append(block if isinstance(block, str) else "".join(map(str, block)))
    return "\n\n".join(parts)


def _bullets(items: Iterable[str]) -> str:
    return "\n".join(f"- {item}" for item in items)


def _metrics(blocks: list[Block]) -> list[Metric]:
    """Every metric the blocks show, once, in the order they first show it."""
    cells = chain.from_iterable(
        chain.from_iterable(block.rows) if isinstance(block, Table) else block
        for block in blocks if not isinstance(block, str))
    return list({cell.key: cell for cell in cells if isinstance(cell, Metric)}.values())


def render_trace_summary(trace: TraceabilityReport) -> tuple[str, list[Metric]]:
    """The traceability section and its metrics, which are summary.csv rows."""
    counts = trace.counts
    verified = sum(counts[level] for level in LEVELS if level != FAILED)
    blocks: list[Block] = [
        "## Quote Traceability",
        Table("", ("Level", "Count"), [
            (level, _count(f"trace.{level.lower()}_count", counts[level])) for level in LEVELS]),
        (f"Verified quotes: {verified} of {len(trace.results)} (",
         _percent("trace.verified_share_pct", trace.verified_share), ")."),
    ]
    return _markdown(blocks), _metrics(blocks)


def render_coverage(coverages: dict[str, SixStepCoverage]) -> tuple[str, str]:
    """Markdown section plus coverage.csv for the six-stage mapping."""
    blocks: list[Block] = ["## Six-Step Coverage"]
    rows: list[tuple[str, ...]] = []
    for coder, coverage in coverages.items():
        table = Table(coder, ("Stage", "Covered by"), list(coverage.stages.items()))
        blocks.extend([table, f"Covered {coverage.covered_count} of 6 stages."])
        rows.extend((coder, *row) for row in table.rows)
    return _markdown(blocks), _csv_text(["coder", "stage", "covered_by"], rows)


# summary.csv's order of every metric a comparison can compute; which of them
# one comparison computes depends on its coders and themes.
_SUMMARY_ORDER = tuple(f"{table}.{name}" for table, names in (
    ("table1", "coder_1_codes coder_2_codes similar_codes merged_codes"),
    ("table2", "coder_1_themes coder_2_themes similar_themes coder_1_overlap_pct "
               "coder_2_overlap_pct"),
    ("table4", "human_codes genai_codes total human_share_pct genai_share_pct "
               "percentage_difference percentage_similarity similar_count"),
    ("comparison", "matched_pairs human_overlap_pct llm_overlap_pct cohens_kappa "
                   "positive_specific_agreement"),
    ("table6", "genai_themes genai_share_pct human_themes human_share_pct emerging_list_pct"),
) for name in names.split())
METRIC_KEYS = frozenset(_SUMMARY_ORDER)


def _finite(number: int | float) -> bool:
    """Whether a JSON number is finite and within the range of a float."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an integer past the largest float
        return False


def _reference_notes(metrics: list[Metric], reference: dict | None) -> list[str]:
    """A note for each reference value that differs from its metric's display."""
    computed = {metric.key: metric for metric in metrics}
    notes: list[str] = []
    for table, expected_map in sorted((reference or {}).items()):
        if not isinstance(expected_map, dict):
            notes.append(f"{table}: must be an object of metric values, "
                         "so its reference values are not checked")
            continue
        for name, expected in sorted(expected_map.items()):
            key = f"{table}.{name}"
            metric = computed.get(key)
            if metric is None:
                if key not in METRIC_KEYS:
                    notes.append(f"{key}: names no metric, so its reference value is not checked")
            elif isinstance(expected, (int, float)) and not _finite(expected):
                notes.append(f"{key}: must be a finite number, "
                             "so its reference value is not checked")
            elif isinstance(expected, (int, float)):
                # Rounded to, and printed at, the decimals the display shows.
                places = len(metric.display.partition(".")[2])
                shown = f"{round_display(expected, places):.{places}f}"
                if shown != metric.display:
                    notes.append(f"{key}: computed {metric.display} differs from the "
                                 f"reference value {shown}")
            elif str(metric.value) != str(expected):
                notes.append(f"{key}: computed {metric.value!r} differs from reference {expected!r}")
    return notes


def render_comparison(bundle: ComparisonBundle,
                      human_tables: CoderMergeStats | None = None,
                      paper_reference: dict | None = None
                      ) -> tuple[str, str, list[Metric], list[str]]:
    """Comparison tables as markdown, matrix.csv, summary.csv rows, and notes."""
    blocks: list[Block] = ["## Codebook Comparison"]
    stats = human_tables
    if stats is not None:
        blocks.append(Table("Code Counts by Human Coder", ("Coder", "Codes"), [
            (stats.coder_a_id, _count("table1.coder_1_codes", stats.coder_a_codes)),
            (stats.coder_b_id, _count("table1.coder_2_codes", stats.coder_b_codes)),
            ("Similar (counted once)", _count("table1.similar_codes", stats.similar_codes)),
            ("Merged", _count("table1.merged_codes", stats.merged_codes)),
        ]))
        if stats.coder_a_theme_overlap_pct is not None:
            similar = _count("table2.similar_themes", stats.similar_themes)
            blocks.append(Table("Theme Overlap Between Human Coders",
                                ("Coder", "Themes", "Similar", "Overlap"), [
                (stats.coder_a_id, _count("table2.coder_1_themes", stats.coder_a_themes), similar,
                 _percent("table2.coder_1_overlap_pct", stats.coder_a_theme_overlap_pct)),
                (stats.coder_b_id, _count("table2.coder_2_themes", stats.coder_b_themes), similar,
                 _percent("table2.coder_2_overlap_pct", stats.coder_b_theme_overlap_pct)),
            ]))

    summary = bundle.code_summary
    blocks.extend([
        Table("Code Counts: Human vs Model", ("Source", "Codes", "Share"), [
            ("Human", _count("table4.human_codes", summary.count_a),
             _percent("table4.human_share_pct", summary.share_a)),
            ("Model", _count("table4.genai_codes", summary.count_b),
             _percent("table4.genai_share_pct", summary.share_b)),
            ("Combined", _count("table4.total", summary.total_combined), "100.00%"),
        ]),
        Table("", ("Measure", "Count", "Percent"), [
            ("Percentage Difference", str(summary.count_a - summary.count_b),
             _percent("table4.percentage_difference", summary.percentage_difference)),
            ("Percentage Similarity", _count("table4.similar_count", summary.similar_count),
             _percent("table4.percentage_similarity", summary.percentage_similarity)),
        ]),
        "### Matched Codes",
        ("Matched pairs: ", _count("comparison.matched_pairs", bundle.pair_count),
         "; human-side overlap ", _percent("comparison.human_overlap_pct", bundle.human_overlap_pct),
         ", model-side overlap ", _percent("comparison.llm_overlap_pct", bundle.llm_overlap_pct),
         ". The full presence matrix is exported as matrix.csv."),
        ("Positive specific agreement over the presence matrix, 2a / (2a + b + c) "
         "with a the labels both coders used and b, c those only one used: ",
         _ratio("comparison.positive_specific_agreement", bundle.positive_specific_agreement),
         ".\nCohen's kappa over the same matrix: ", _ratio("comparison.cohens_kappa", bundle.kappa),
         ". The matrix has a row only for labels some coder used, so it holds no true "
         "negatives, and kappa over it is at most 0 unless the two codebooks are "
         "identical: it is not a chance-corrected agreement here."),
    ])
    if bundle.human_theme_share is not None and bundle.llm_theme_share is not None:
        blocks.append(Table("Theme Counts", ("Source", "Themes", "Share"), [
            ("Model", _count("table6.genai_themes", bundle.llm_theme_count),
             _percent("table6.genai_share_pct", bundle.llm_theme_share)),
            ("Human", _count("table6.human_themes", bundle.human_theme_count),
             _percent("table6.human_share_pct", bundle.human_theme_share)),
            ("Combined", str(bundle.human_theme_count + bundle.llm_theme_count), "100.00%"),
        ]))
        if bundle.emerging_vs_human_pct is not None:
            blocks.append((f"Emerging-label list: {bundle.emerging_label_count} entries, ",
                           _percent("table6.emerging_list_pct", bundle.emerging_vs_human_pct),
                           " of the human theme count."))

    metrics = sorted(_metrics(blocks), key=lambda metric: _SUMMARY_ORDER.index(metric.key))
    notes = [*bundle.notes, *_reference_notes(metrics, paper_reference)]
    matrix = bundle.matrix
    matrix_csv = _csv_text(["code", *matrix.coder_ids],
                           ([label, *row] for label, row in zip(matrix.row_labels, matrix.cells)))
    return _markdown(blocks), matrix_csv, metrics, notes


def _render_themes(codebook: Codebook) -> str:
    blocks: list[Block] = ["## Themes"]
    for number, theme in enumerate(codebook.themes, start=1):
        blocks.append(f"### Theme {number}: {theme.name}")
        if theme.member_labels:
            blocks.append(_bullets(f"**{label}**" for label in theme.member_labels))
        if theme.description:
            blocks.append(f"**Description**: {theme.description}")
        if theme.interpretation:
            blocks.append(f"**Interpretation**: {theme.interpretation}")
    return _markdown(blocks).rstrip()


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
    blocks: list[Block] = [
        "# Thematic Analysis Report",
        f"- Source: {fingerprint.get('source_path', '?')}\n"
        f"- Content hash: {fingerprint.get('content_hash', '?')}\n"
        f"- Pages: {fingerprint.get('page_count', '?')} "
        f"(page size {fingerprint.get('page_size', '?')} paragraphs)\n"
        f"- Model: {model.get('model_id', '?')} (temperature {model.get('temperature', '?')}, "
        f"max tokens {model.get('max_tokens', '?')})\n"
        f"- Status: {artifact.status}\n"
        f"- Codes: {len(codebook.codes)}; emerging labels: "
        f"{len(codebook.emerging_labels or ())}; themes: {len(codebook.themes)}",
        render_code_listing(codebook, trace),
    ]
    if codebook.emerging_labels:
        blocks.extend(["## Emerging Code List", _bullets(codebook.emerging_labels)])
    if codebook.themes:
        blocks.append(_render_themes(codebook))
    trace_md, summary_rows = render_trace_summary(trace)
    blocks.append(trace_md)

    notes: list[str] = []
    exports: dict[str, str] = {"codes.csv": render_codes_csv(codebook, trace)}
    if bundle is not None:
        comparison_md, matrix_csv, comparison_metrics, notes = render_comparison(
            bundle, human_tables=human_tables, paper_reference=paper_reference)
        blocks.append(comparison_md)
        exports["matrix.csv"] = matrix_csv
        summary_rows = comparison_metrics + summary_rows
    exports["summary.csv"] = _csv_text(["metric", "value", "display"], summary_rows)

    if coverages:
        coverage_md, exports["coverage.csv"] = render_coverage(coverages)
        blocks.append(coverage_md)
    if artifact.notes:
        blocks.extend(["## Run Notes", _bullets(artifact.notes)])
    if notes:
        blocks.extend(["## Inconsistency Notes", _bullets(notes)])
    return ReportBundle(markdown_report=_markdown(blocks).rstrip() + "\n", csv_exports=exports,
                        inconsistency_notes=notes)


def write_report_bundle(bundle: ReportBundle, output_dir: str | Path) -> list[Path]:
    """Write report.md and every CSV export; returns the written paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"report.md": bundle.markdown_report, **bundle.csv_exports}
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in files]

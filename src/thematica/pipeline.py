"""Orchestration of the stepwise analysis and its resumable artifact.

The run proceeds page-by-page code extraction, consolidation into a single
codebook plus a deduplicated emerging-label list, theme generation over the
full code digest, and per-theme interpretation.  After every completed
request the artifact JSON is rewritten (append-only across resume cycles),
so a crashed or interrupted run picks up exactly where it stopped and never
re-requests a persisted page.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .agreement import (
    AgreementSummary,
    PresenceMatrix,
    build_table4_summary,
    cohens_kappa,
    overlap_percentage,
    presence_matrix,
    share_percentage,
)
from .codebook import Codebook, Matcher, MatchResult, match_codes
from .corpus import Corpus, content_hash
from .errors import (
    AnalysisInterrupted,
    EmptyCodebook,
    IncompleteArtifact,
    ResumeMismatch,
    ThematicaError,
)
from .gateway import ChatMessage, Gateway, ModelConfig
from .outparse import (
    LIST_DELIMITER,
    CodeRecord,
    ThemeRecord,
    parse_code_block,
    parse_emerging_code_list,
    parse_interpretation_block,
    parse_theme_block,
    render_codes_digest,
    render_theme_digest,
)
from .promptkit import PromptLibrary, StudyFocus, default_library
from .textnorm import label_key
from .trace import DEFAULT_THRESHOLD, TraceabilityReport, TraceResult, verify_codebook

SCHEMA_VERSION = 1
EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"

STAGE_QUOTATION = "QuotationSelection"
STAGE_KEYWORDS = "Keywords"
STAGE_CODING = "Coding"
STAGE_THEMES = "ThemeIdentification"
STAGE_CONCEPTUALIZATION = "Conceptualization"
STAGE_MODEL = "ConceptualModel"
SIX_STAGES = (STAGE_QUOTATION, STAGE_KEYWORDS, STAGE_CODING,
              STAGE_THEMES, STAGE_CONCEPTUALIZATION, STAGE_MODEL)

NOT_COVERED = "not_covered"


@dataclass(frozen=True)
class SixStepCoverage:
    """Which of the six framework stages a coder's output covers."""

    stages: dict[str, str]

    def __post_init__(self) -> None:
        if tuple(self.stages.keys()) != SIX_STAGES:
            raise ValueError("coverage must name all six stages exactly once, in order")

    @property
    def covered_count(self) -> int:
        return sum(1 for value in self.stages.values() if value != NOT_COVERED)


@dataclass
class AnalysisArtifact:
    """Resumable record of one analysis run: raw replies plus parsed results."""

    corpus_fingerprint: dict
    config_snapshot: dict
    status: str = "partial"
    raw_replies: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    llm_codebook: Codebook | None = None
    trace: TraceabilityReport | None = None
    created: str = EPOCH_TIMESTAMP
    updated: str = EPOCH_TIMESTAMP
    schema_version: int = SCHEMA_VERSION
    path: Path | None = None

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def reply_key_order(self, page_count: int) -> list[str]:
        keys = [f"page_{number}" for number in range(1, page_count + 1)]
        keys.extend(("themes", "interpretations"))
        return [key for key in keys if key in self.raw_replies]

    def to_dict(self) -> dict:
        page_count = self.corpus_fingerprint.get("page_count", 0)
        replies = {key: self.raw_replies[key] for key in self.reply_key_order(page_count)}
        extras = {key: value for key, value in self.raw_replies.items() if key not in replies}
        replies.update(dict(sorted(extras.items())))
        return {
            "schema_version": self.schema_version,
            "status": self.status,
            "corpus": self.corpus_fingerprint,
            "config": self.config_snapshot,
            "created": self.created,
            "updated": self.updated,
            "raw_replies": replies,
            "notes": list(self.notes),
            "llm_codebook": _codebook_to_dict(self.llm_codebook) if self.llm_codebook else None,
            "trace": _trace_to_dict(self.trace) if self.trace else None,
        }

    @classmethod
    def from_dict(cls, data: dict, path: Path | None = None) -> "AnalysisArtifact":
        codebook = _codebook_from_dict(data["llm_codebook"]) if data.get("llm_codebook") else None
        trace = None
        if data.get("trace"):
            if codebook is None:
                raise IncompleteArtifact("artifact has a trace section but no codebook")
            trace = _trace_from_dict(data["trace"], codebook)
        return cls(
            corpus_fingerprint=data["corpus"],
            config_snapshot=data["config"],
            status=data["status"],
            raw_replies=dict(data.get("raw_replies", {})),
            notes=list(data.get("notes", [])),
            llm_codebook=codebook,
            trace=trace,
            created=data.get("created", EPOCH_TIMESTAMP),
            updated=data.get("updated", EPOCH_TIMESTAMP),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
            path=path,
        )

    def save(self, path: str | Path | None = None) -> Path:
        target = Path(path) if path else self.path
        if target is None:
            raise ValueError("no artifact path configured")
        self.path = target
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(target.suffix + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n",
                       encoding="utf-8")
        os.replace(tmp, target)
        return target


def load_artifact(path: str | Path) -> AnalysisArtifact:
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    return AnalysisArtifact.from_dict(data, path=path)


def _codebook_to_dict(codebook: Codebook) -> dict:
    return {
        "coder_id": codebook.coder_id,
        "provenance": codebook.provenance,
        "codes": [
            {
                "label": record.label,
                "quote": record.quote,
                "page": record.page,
                "provenance": record.provenance,
                "raw_span": list(record.raw_span) if record.raw_span else None,
                "aliases": list(record.aliases),
            }
            for record in codebook.codes
        ],
        "emerging_labels": list(codebook.emerging_labels) if codebook.emerging_labels is not None else None,
        "themes": [
            {
                "name": theme.name,
                "member_labels": list(theme.member_labels),
                "description": theme.description,
                "interpretation": theme.interpretation,
            }
            for theme in codebook.themes
        ],
    }


def _codebook_from_dict(data: dict) -> Codebook:
    return Codebook(
        coder_id=data["coder_id"],
        provenance=data["provenance"],
        codes=tuple(
            CodeRecord(
                label=item["label"],
                quote=item["quote"],
                page=item["page"],
                provenance=item.get("provenance", "llm"),
                raw_span=tuple(item["raw_span"]) if item.get("raw_span") else None,
                aliases=tuple(item.get("aliases", ())),
            )
            for item in data["codes"]
        ),
        emerging_labels=tuple(data["emerging_labels"]) if data.get("emerging_labels") is not None else None,
        themes=tuple(
            ThemeRecord(
                name=item["name"],
                member_labels=tuple(item["member_labels"]),
                description=item.get("description", ""),
                interpretation=item.get("interpretation"),
            )
            for item in data.get("themes", ())
        ),
    )


def _trace_to_dict(trace: TraceabilityReport) -> dict:
    return {
        "threshold": trace.threshold,
        "results": [
            {
                "label": result.record.label,
                "level": result.level,
                "score": result.score,
                "matched_span": list(result.matched_span) if result.matched_span else None,
                "notes": list(result.notes),
            }
            for result in trace.results
        ],
    }


def _trace_from_dict(data: dict, codebook: Codebook) -> TraceabilityReport:
    if len(data["results"]) != len(codebook.codes):
        raise IncompleteArtifact("trace results do not line up with the codebook")
    results = tuple(
        TraceResult(
            record=record,
            level=item["level"],
            score=item["score"],
            matched_span=tuple(item["matched_span"]) if item.get("matched_span") else None,
            notes=tuple(item.get("notes", ())),
        )
        for record, item in zip(codebook.codes, data["results"])
    )
    return TraceabilityReport(results=results, threshold=data.get("threshold", DEFAULT_THRESHOLD))


def _now(replay: bool) -> str:
    if replay:
        return EPOCH_TIMESTAMP
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _fingerprint(corpus: Corpus) -> dict:
    return {
        "source_path": str(corpus.source_path),
        "content_hash": content_hash(corpus),
        "page_size": corpus.page_size,
        "page_count": corpus.page_count,
    }


def _config_snapshot(config: ModelConfig, focus: StudyFocus, library: PromptLibrary) -> dict:
    return {
        "model": {
            "model_id": config.model_id,
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
            "endpoint_url": config.endpoint_url,
        },
        "focus": {
            "focus_description": focus.focus_description,
            "research_question": focus.research_question,
        },
        "templates": library.template_digests(),
    }


def _check_resume(artifact: AnalysisArtifact, fingerprint: dict, snapshot: dict) -> None:
    old_hash = artifact.corpus_fingerprint.get("content_hash")
    if old_hash != fingerprint["content_hash"]:
        raise ResumeMismatch(
            f"corpus content hash {fingerprint['content_hash'][:12]}… does not match "
            f"the artifact's {str(old_hash)[:12]}…"
        )
    if artifact.corpus_fingerprint.get("page_size") != fingerprint["page_size"]:
        raise ResumeMismatch(
            f"page_size {fingerprint['page_size']} does not match the artifact's "
            f"{artifact.corpus_fingerprint.get('page_size')}"
        )
    if artifact.config_snapshot != snapshot:
        raise ResumeMismatch("model/focus/template configuration differs from the partial artifact")


def run_analysis(corpus: Corpus, focus: StudyFocus, config: ModelConfig, transport,
                 output_dir: str | Path | None = None,
                 artifact_path: str | Path | None = None,
                 library: PromptLibrary | None = None,
                 trace_threshold: float = DEFAULT_THRESHOLD) -> AnalysisArtifact:
    """Run (or resume) the full stepwise analysis and return the artifact.

    A complete artifact on disk is returned untouched without any model
    calls.  Failures persist a partial artifact and raise
    AnalysisInterrupted carrying the stage, page, artifact, and cause.
    """
    library = library or default_library()
    replay = getattr(transport, "kind", "live") == "replay"
    fingerprint = _fingerprint(corpus)
    snapshot = _config_snapshot(config, focus, library)

    out_dir = Path(output_dir) if output_dir else None
    path = Path(artifact_path) if artifact_path else (out_dir / "analysis.json" if out_dir else None)
    if path and path.exists():
        artifact = load_artifact(path)
        _check_resume(artifact, fingerprint, snapshot)
        if artifact.complete:
            return artifact
    else:
        stamp = _now(replay)
        artifact = AnalysisArtifact(
            corpus_fingerprint=fingerprint, config_snapshot=snapshot,
            created=stamp, updated=stamp, path=path,
        )

    cache_path = out_dir / "response_cache.json" if out_dir else None
    gateway = Gateway(config, transport, cache_enabled=True, cache_path=cache_path)

    def persist() -> None:
        artifact.updated = _now(replay)
        if artifact.path:
            artifact.save()

    def interrupted(stage: str, page: int | None, cause: Exception) -> AnalysisInterrupted:
        where = f" (page {page})" if page else ""
        return AnalysisInterrupted(
            f"analysis stopped during {stage}{where}: {cause}",
            stage=stage, page=page, artifact=artifact, cause=cause,
        )

    def ask(prompt, context: str) -> str:
        messages = (ChatMessage("system", prompt.system_message),
                    ChatMessage("user", prompt.user_message))
        return gateway.complete(messages, context=context).text

    # step 1: per-page code extraction
    pending = [page for page in corpus.pages if f"page_{page.number}" not in artifact.raw_replies]
    if config.parallelism <= 1 or len(pending) <= 1:
        for page in pending:
            try:
                prompt = library.render_code_extraction(page, focus)
                reply = ask(prompt, f"page {page.number} code extraction")
            except ThematicaError as exc:
                persist()
                raise interrupted("code_extraction", page.number, exc) from exc
            artifact.raw_replies[f"page_{page.number}"] = reply
            persist()
    else:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            futures = {
                pool.submit(ask, library.render_code_extraction(page, focus),
                            f"page {page.number} code extraction"): page
                for page in pending
            }
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            for future in not_done:
                future.cancel()
            failure: tuple[int, Exception] | None = None
            for future in done:
                page = futures[future]
                try:
                    artifact.raw_replies[f"page_{page.number}"] = future.result()
                except ThematicaError as exc:
                    if failure is None or page.number < failure[0]:
                        failure = (page.number, exc)
            persist()
            if failure is not None:
                raise interrupted("code_extraction", failure[0], failure[1]) from failure[1]

    # step 2: consolidation
    records: list[CodeRecord] = []
    parse_notes: list[str] = []
    list_reply: str | None = None
    try:
        for page in corpus.pages:
            reply = artifact.raw_replies[f"page_{page.number}"]
            report = parse_code_block(reply, expected_page=page.number)
            records.extend(report.records)
            parse_notes.extend(
                f"page {page.number} line {warning.line}: {warning.kind}: {warning.detail}"
                for warning in report.warnings
            )
            if any(LIST_DELIMITER.match(line) for line in reply.splitlines()):
                list_reply = reply

        codebook = Codebook(coder_id="genai", provenance="llm", codes=tuple(records))
        regenerated = codebook.deduped_labels()
        if list_reply is not None:
            emerging = tuple(parse_emerging_code_list(list_reply))
            if emerging != regenerated:
                parse_notes.append(
                    "emerging-label list from the model differs from the regenerated "
                    f"deduplication ({len(emerging)} vs {len(regenerated)} labels)"
                )
        else:
            emerging = regenerated
        record_keys = {record.key for record in records}
        for label in emerging:
            if label_key(label) not in record_keys:
                parse_notes.append(f"emerging label {label!r} is not among the extracted code labels")
    except ThematicaError as exc:
        persist()
        raise interrupted("consolidation", None, exc) from exc

    # step 3: theme generation
    codes_digest = render_codes_digest(codebook.codes)
    if "themes" not in artifact.raw_replies:
        try:
            prompt = library.render_theme_generation(codes_digest, focus)
            artifact.raw_replies["themes"] = ask(prompt, "theme generation")
        except ThematicaError as exc:
            persist()
            raise interrupted("theme_generation", None, exc) from exc
        persist()
    try:
        theme_report = parse_theme_block(artifact.raw_replies["themes"])
    except ThematicaError as exc:
        persist()
        raise interrupted("theme_generation", None, exc) from exc
    themes = theme_report.records
    parse_notes.extend(f"themes line {w.line}: {w.kind}: {w.detail}" for w in theme_report.warnings)
    member_keys = {label_key(label) for theme in themes for label in theme.member_labels}
    for key_label in sorted(member_keys - record_keys):
        parse_notes.append(f"theme member {key_label!r} does not match any extracted code label")

    # step 4: interpretation
    themes_digest = render_theme_digest(themes)
    if "interpretations" not in artifact.raw_replies:
        try:
            prompt = library.render_interpretation(themes_digest, focus)
            artifact.raw_replies["interpretations"] = ask(prompt, "interpretation")
        except ThematicaError as exc:
            persist()
            raise interrupted("interpretation", None, exc) from exc
        persist()
    try:
        interp_report = parse_interpretation_block(artifact.raw_replies["interpretations"], themes)
    except ThematicaError as exc:
        persist()
        raise interrupted("interpretation", None, exc) from exc
    themes = tuple(interp_report.records)
    parse_notes.extend(f"interpretations line {w.line}: {w.kind}: {w.detail}"
                       for w in interp_report.warnings)

    codebook = Codebook(coder_id="genai", provenance="llm", codes=tuple(records),
                        emerging_labels=emerging, themes=themes)
    artifact.llm_codebook = codebook
    artifact.trace = verify_codebook(codebook, corpus, trace_threshold)
    artifact.notes = parse_notes
    artifact.status = "complete"
    persist()
    return artifact


def six_step_coverage(artifact: AnalysisArtifact,
                      human: Codebook | None = None) -> dict[str, SixStepCoverage]:
    """Map each coder's outputs onto the six framework stages.

    The model's pipeline covers Keywords (per-page codes), Coding (emerging
    list), ThemeIdentification (themes), and Conceptualization
    (interpretations), each conditional on the content actually existing.
    Human codebooks cover Keywords and Coding via their code lists, plus
    ThemeIdentification and Conceptualization when themes/interpretations
    are present.  Quotation selection and the conceptual model stay manual.
    """
    if not artifact.complete or artifact.llm_codebook is None:
        raise IncompleteArtifact("six-step coverage requires a complete artifact")
    book = artifact.llm_codebook
    llm = SixStepCoverage(stages={
        STAGE_QUOTATION: NOT_COVERED,
        STAGE_KEYWORDS: "per-page code extraction" if book.codes else NOT_COVERED,
        STAGE_CODING: "emerging-code list" if book.emerging_labels else NOT_COVERED,
        STAGE_THEMES: "theme generation" if book.themes else NOT_COVERED,
        STAGE_CONCEPTUALIZATION: (
            "theme interpretation" if any(t.interpretation for t in book.themes) else NOT_COVERED
        ),
        STAGE_MODEL: NOT_COVERED,
    })
    coverages = {"llm": llm}
    if human is not None:
        coverages[human.coder_id] = SixStepCoverage(stages={
            STAGE_QUOTATION: NOT_COVERED,
            STAGE_KEYWORDS: "manual coding" if human.codes else NOT_COVERED,
            STAGE_CODING: "manual code list" if human.codes else NOT_COVERED,
            STAGE_THEMES: "manual theme table" if human.themes else NOT_COVERED,
            STAGE_CONCEPTUALIZATION: (
                "written interpretations"
                if any(t.interpretation for t in human.themes) else NOT_COVERED
            ),
            STAGE_MODEL: NOT_COVERED,
        })
    return coverages


@dataclass(frozen=True)
class ComparisonBundle:
    """Comparison statistics between a human-side codebook and the model's."""

    code_summary: AgreementSummary
    match: MatchResult
    matrix: PresenceMatrix
    pair_count: int
    human_overlap_pct: float
    llm_overlap_pct: float
    human_theme_count: int
    llm_theme_count: int
    human_theme_share: float | None
    llm_theme_share: float | None
    emerging_label_count: int
    emerging_vs_human_pct: float | None
    kappa: float
    notes: tuple[str, ...] = ()


def compare(artifact: AnalysisArtifact, human_merged: Codebook,
            matcher: Matcher) -> ComparisonBundle:
    """Compute the code-count, presence, overlap, and theme-share statistics."""
    if not artifact.complete or artifact.llm_codebook is None:
        raise IncompleteArtifact("comparison requires a complete artifact")
    llm = artifact.llm_codebook
    if not human_merged.codes or not llm.codes:
        raise EmptyCodebook("both codebooks must contain codes")

    summary = build_table4_summary(len(human_merged.codes), len(llm.codes))
    match = match_codes(human_merged, llm, matcher)
    matrix = presence_matrix([human_merged, llm], matcher, match)
    pair_count = len(match.pairs)

    human_themes = len(human_merged.themes)
    llm_themes = len(llm.themes)
    theme_total = human_themes + llm_themes
    human_share = share_percentage(human_themes, theme_total) if theme_total else None
    llm_share = share_percentage(llm_themes, theme_total) if theme_total else None

    emerging_count = len(llm.emerging_labels or ())
    emerging_pct = (emerging_count * 100.0 / human_themes) if human_themes else None

    kappa = cohens_kappa(matrix.column_vector(human_merged.coder_id),
                         matrix.column_vector(llm.coder_id))

    notes = list(summary.notes)
    if emerging_pct is not None and emerging_count == human_themes:
        notes.append(
            f"emerging-label list size ({emerging_count}) exactly matches the "
            f"human theme count; quantity parity, not label identity"
        )
    return ComparisonBundle(
        code_summary=summary,
        match=match,
        matrix=matrix,
        pair_count=pair_count,
        human_overlap_pct=overlap_percentage(pair_count, len(human_merged.codes)),
        llm_overlap_pct=overlap_percentage(pair_count, len(llm.codes)),
        human_theme_count=human_themes,
        llm_theme_count=llm_themes,
        human_theme_share=human_share,
        llm_theme_share=llm_share,
        emerging_label_count=emerging_count,
        emerging_vs_human_pct=emerging_pct,
        kappa=kappa,
        notes=tuple(notes),
    )

"""Orchestration of the stepwise analysis and its resumable artifact.

The run proceeds page-by-page code extraction, consolidation into a single
codebook plus a deduplicated emerging-label list, theme generation over the
full code digest, and per-theme interpretation.  Each reply is appended to
the output directory's response cache as it arrives, and the artifact JSON
is written once, when the run stops: at completion or at any failure.  A
rerun resumes from the artifact and gets every reply the cache holds without
a request, so a crashed run re-sends only the requests that were in flight.
:meth:`AnalysisArtifact.save` writes the artifact without building a tree of
dicts: one formatter per record kind (raw reply, code, theme, trace result)
writes each record's line, with the bytes the JSON encoder would write.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from json.encoder import encode_basestring as _string  # a string as _encode writes it
from pathlib import Path
from typing import TYPE_CHECKING

from .codebook import Codebook, Matcher, MatchResult, match_codes
from .corpus import Corpus, content_hash
from .errors import (
    AnalysisInterrupted,
    IncompleteArtifact,
    ResumeMismatch,
    SchemaError,
    ThematicaError,
)
from .gateway import ChatMessage, Gateway, ModelConfig, replace_file
from .outparse import (
    CodeRecord,
    ParseReport,
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

if TYPE_CHECKING:  # compare imports the statistics when it runs
    from .agreement import AgreementSummary, PresenceMatrix

logger = logging.getLogger(__name__)

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

# The longest the main thread waits on the code-extraction pool at a time: a
# SIGINT it does not take itself cannot wake it, so it checks after each slice.
WAIT_SLICE_S = 0.05


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
        replace_file(target, self.to_json().encode("utf-8"))
        return target

    def to_json(self) -> str:
        """The artifact as :meth:`save` writes it: indented by two spaces, with
        one reply, note, code, emerging label, theme or trace result per line."""
        page_count = self.corpus_fingerprint.get("page_count", 0)
        order = [*(f"page_{number}" for number in range(1, page_count + 1)),
                 "themes", "interpretations"]
        replies = {key: self.raw_replies[key] for key in order if key in self.raw_replies}
        replies.update(sorted(item for item in self.raw_replies.items() if item[0] not in replies))
        codebook = trace = "null"
        if book := self.llm_codebook:
            emerging = book.emerging_labels
            codebook = _object(1, coder_id=_layout(book.coder_id, 2),
                               provenance=_layout(book.provenance, 2),
                               codes=_block("[", "]", 2, map(_code_line, book.codes)),
                               emerging_labels="null" if emerging is None
                               else _block("[", "]", 2, map(_value, emerging)),
                               themes=_block("[", "]", 2, map(_theme_line, book.themes)))
        if self.trace:
            trace = _object(1, threshold=_layout(self.trace.threshold, 2),
                            results=_block("[", "]", 2, map(_result_line, self.trace.results)))
        return _object(
            0, schema_version=_layout(self.schema_version, 1), status=_layout(self.status, 1),
            corpus=_layout(self.corpus_fingerprint, 1), config=_layout(self.config_snapshot, 1),
            created=_layout(self.created, 1), updated=_layout(self.updated, 1),
            raw_replies=_block("{", "}", 1, (f"{_string(key)}: {_string(reply)}"
                                             for key, reply in replies.items())),
            notes=_layout(list(self.notes), 1), llm_codebook=codebook, trace=trace) + "\n"


# The C encoder: json.dumps takes the pure-Python one whenever indent is set.
# An artifact holds plain values read from JSON or parsed, so no cycle to check.
_encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode
# Values nested this deep are written on one line: one reply, code, theme or
# trace result per line of the artifact.
_LINE_DEPTH = 3


def _block(opener: str, closer: str, depth: int, rows) -> str:
    """An object or array of ready-written ``rows`` as :func:`_layout` writes it
    at ``depth``: one row per line."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(rows)
    return f"{opener}{inner}{body}\n{'  ' * depth}{closer}" if body else opener + closer


def _object(depth: int, **rows: str) -> str:
    return _block("{", "}", depth, (f'"{key}": {text}' for key, text in rows.items()))


def _layout(value, depth: int = 0) -> str:
    """``value`` as JSON, indented by two spaces down to ``_LINE_DEPTH``."""
    if depth == _LINE_DEPTH or not value or not isinstance(value, (dict, list)):
        return _encode(value)
    if isinstance(value, dict):
        return _block("{", "}", depth, (f"{_encode(key)}: {_layout(item, depth + 1)}"
                                        for key, item in value.items()))
    return _block("[", "]", depth, (_layout(item, depth + 1) for item in value))


def _value(value) -> str:
    """``value`` as :data:`_encode` writes it; a string, an int or a finite
    float without a call into the encoder."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    return _encode(value)


def _values(items) -> str:
    return "[" + ", ".join(map(_value, items)) + "]" if items else "[]"


def _span(span) -> str:
    if type(span) is tuple and len(span) == 2 and type(span[0]) is type(span[1]) is int:
        return "[%d, %d]" % span
    return _encode(span) if span else "null"


# One formatter per record kind, each writing the line _encode writes for the
# record's fields.  Labels, quotes, theme names and trace levels are strings:
# their constructors check that.
def _code_line(record: CodeRecord) -> str:
    return (f'{{"label": {_string(record.label)}, "quote": {_string(record.quote)}, '
            f'"page": {_value(record.page)}, "provenance": {_value(record.provenance)}, '
            f'"raw_span": {_span(record.raw_span)}, "aliases": {_values(record.aliases)}}}')


def _theme_line(theme: ThemeRecord) -> str:
    return (f'{{"name": {_string(theme.name)}, "member_labels": {_values(theme.member_labels)}, '
            f'"description": {_value(theme.description)}, '
            f'"interpretation": {_value(theme.interpretation)}}}')


def _result_line(result: TraceResult) -> str:
    return (f'{{"label": {_string(result.record.label)}, "level": {_string(result.level)}, '
            f'"score": {_value(result.score)}, "matched_span": {_span(result.matched_span)}, '
            f'"notes": {_values(result.notes)}}}')


# The type each top-level section of an artifact must have, where present.
_SECTION_TYPES = (("corpus", dict), ("config", dict), ("status", str),
                  ("raw_replies", dict), ("notes", list),
                  ("llm_codebook", (dict, type(None))), ("trace", (dict, type(None))))


def load_artifact(path: str | Path) -> AnalysisArtifact:
    """Read an artifact, in any layout :func:`json.loads` reads.

    An artifact that is not JSON, or not of the artifact's shape, raises
    :class:`SchemaError` naming the path and, for bad JSON, the line and
    column, since users may correct replies in it by hand.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: an artifact must be a JSON object")
    for key, kind in _SECTION_TYPES:
        if key in data and not isinstance(data[key], kind):
            raise SchemaError(f"{path}: {key!r} has the wrong type "
                              f"({type(data[key]).__name__})")
    for key, reply in data.get("raw_replies", {}).items():
        if not isinstance(reply, str):
            raise SchemaError(f"{path}: raw_replies[{key!r}] must be a string")
    corpus = data.get("corpus", {})
    page_count = corpus.get("page_count", 0)
    if type(page_count) is not int or page_count < 0:
        raise SchemaError(f"{path}: corpus 'page_count' must be a non-negative integer, "
                          f"got {page_count!r}")
    page_size = corpus.get("page_size")
    if "page_size" in corpus and (type(page_size) is not int or page_size < 1):
        raise SchemaError(f"{path}: corpus 'page_size' must be a positive integer, "
                          f"got {page_size!r}")
    try:
        return AnalysisArtifact.from_dict(data, path=path)
    except KeyError as exc:
        raise SchemaError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed artifact: {exc}") from None


def _codebook_from_dict(data: dict) -> Codebook:
    if type(data["coder_id"]) is not str:
        raise ValueError(f"codebook coder_id must be a string, got {data['coder_id']!r}")
    return Codebook(
        coder_id=data["coder_id"],
        provenance=data["provenance"],
        codes=tuple(map(_code_from_dict, data["codes"])),
        emerging_labels=None if data.get("emerging_labels") is None else
        () if data["emerging_labels"] == [] else _strings(data["emerging_labels"], "emerging_labels"),
        themes=tuple(map(_theme_from_dict, data.get("themes", ()))),
    )


def _code_from_dict(item: dict) -> CodeRecord:
    provenance = item.get("provenance", "llm")
    if type(provenance) is not str:
        raise ValueError(f"code {item['label']!r} provenance must be a string, got {provenance!r}")
    return CodeRecord(
        label=item["label"],
        quote=item["quote"],
        page=item["page"],
        provenance=provenance,
        raw_span=tuple(item["raw_span"]) if item.get("raw_span") else None,
        aliases=() if item.get("aliases", []) == [] else
        _strings(item["aliases"], f"code {item['label']!r} aliases"),
    )


def _theme_from_dict(item: dict) -> ThemeRecord:
    if type(item["name"]) is not str:
        raise ValueError(f"theme name must be a string, got {item['name']!r}")
    description, interpretation = item.get("description", ""), item.get("interpretation")
    if type(description) is not str:
        raise ValueError(f"theme {item['name']!r} description must be a string, got {description!r}")
    if interpretation is not None and type(interpretation) is not str:
        raise ValueError(f"theme {item['name']!r} interpretation must be a string or null, "
                         f"got {interpretation!r}")
    return ThemeRecord(
        name=item["name"],
        member_labels=_strings(item["member_labels"], f"theme {item['name']!r} member_labels"),
        description=description,
        interpretation=interpretation,
    )


def _strings(items, what: str) -> tuple[str, ...]:
    """The JSON list of strings ``items`` as a tuple; ``what`` names it in the error."""
    if not isinstance(items, list) or not all(isinstance(item, str) for item in items):
        raise ValueError(f"{what} must be a list of strings, got {items!r}")
    return tuple(items)


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


def _log_stage(started: float, message: str, *args) -> float:
    """Log one finished stage at info level with its wall time since
    ``started``; return the time now, when the next stage starts."""
    now = time.perf_counter()
    logger.info(message + " (%.1f ms)", *args, (now - started) * 1000)
    return now


def _notes(where: str, report: ParseReport) -> list[str]:
    """One run note per parse warning, located by reply and line."""
    return [f"{where} line {w.line}: {w.kind}: {w.detail}" for w in report.warnings]


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
                 library: PromptLibrary | None = None,
                 trace_threshold: float = DEFAULT_THRESHOLD) -> AnalysisArtifact:
    """Run (or resume) the full stepwise analysis and return the artifact.

    A complete artifact on disk is returned untouched without any model
    calls.  The artifact is saved once, when the run stops.  A run that
    stops early saves it as partial; a library error then becomes
    AnalysisInterrupted carrying the stage, page, artifact, and cause, and
    any other exception propagates unchanged.
    """
    library = library or default_library()
    replay = getattr(transport, "kind", "live") == "replay"
    fingerprint = _fingerprint(corpus)
    snapshot = _config_snapshot(config, focus, library)

    out_dir = Path(output_dir) if output_dir else None
    path = out_dir / "analysis.json" if out_dir else None
    if path and path.exists():
        artifact = load_artifact(path)
        _check_resume(artifact, fingerprint, snapshot)
        if artifact.complete:
            logger.info("%s is complete: no stage runs", path)
            return artifact
    else:
        stamp = _now(replay)
        artifact = AnalysisArtifact(
            corpus_fingerprint=fingerprint, config_snapshot=snapshot,
            created=stamp, updated=stamp, path=path,
        )

    cache_path = out_dir / "response_cache.json" if out_dir else None
    gateway = Gateway(config, transport, cache_path=cache_path)

    # Where each reply came from: "cache", or the transport's kind.
    sources: list[str] = []

    def ask(prompt, context: str) -> str:
        messages = (ChatMessage("system", prompt.system_message),
                    ChatMessage("user", prompt.user_message))
        completion = gateway.complete(messages, context=context)
        sources.append(completion.transport)
        return completion.text

    # Where the run is, named by the interruption a library error becomes.
    stage: str | None = "code_extraction"
    page_number: int | None = None
    started = time.perf_counter()
    try:
        # step 1: per-page code extraction.  Workers take the next pending page
        # until none is left; after a failure or an interrupt no page starts,
        # and a request in flight finishes and keeps its reply.
        asked = [page for page in corpus.pages if f"page_{page.number}" not in artifact.raw_replies]
        pages = iter(asked)
        replies: dict[int, str] = {}
        failures: list[tuple[bool, int, BaseException]] = []
        take, stop, go = threading.Lock(), threading.Event(), threading.Event()

        def extract() -> None:
            go.wait()
            while not stop.is_set():
                with take:
                    page = next(pages, None)
                if page is None:
                    return
                try:
                    replies[page.number] = ask(library.render_code_extraction(page, focus),
                                               f"page {page.number} code extraction")
                except BaseException as exc:
                    failures.append((isinstance(exc, ThematicaError), page.number, exc))
                    stop.set()

        pool = ThreadPoolExecutor(max_workers=config.parallelism)
        try:
            workers = [pool.submit(extract) for _ in range(config.parallelism)]
            # An interrupt inside submit can leave a started thread that the
            # shutdown below does not join, so no page starts before this.
            go.set()
            while wait(workers, timeout=WAIT_SLICE_S).not_done:
                pass
        finally:
            stop.set()
            go.set()
            try:
                pool.shutdown()
            finally:
                # Every reply that arrived goes into the artifact, at an interrupt
                # too, even one that cuts the wait for the requests in flight: a
                # copy, because a worker still running may add to ``replies``.
                done = dict(replies)
                artifact.raw_replies.update((f"page_{n}", done[n]) for n in sorted(done))
        if failures:
            # A non-library error goes first, then the lowest failing page.
            _, page_number, exc = min(failures)
            raise exc
        cached = sources.count("cache")
        started = _log_stage(started, "code extraction: %d pages asked, %d replies sent, "
                             "%d from the cache", len(asked), len(sources) - cached, cached)

        # step 2: consolidation
        stage = "consolidation"
        records: list[CodeRecord] = []
        parse_notes: list[str] = []
        list_reply: str | None = None
        for page in corpus.pages:
            page_number = page.number
            reply = artifact.raw_replies[f"page_{page.number}"]
            report = parse_code_block(reply, expected_page=page.number)
            records.extend(report.records)
            parse_notes.extend(_notes(f"page {page.number}", report))
            if report.has_code_list:
                list_reply = reply
        page_number = None  # colliding labels are found across pages, not on one

        codebook = Codebook(coder_id="genai", provenance="llm", codes=tuple(records))
        regenerated = codebook.labels
        if list_reply is not None:
            emerging = tuple(parse_emerging_code_list(list_reply))
            if emerging != regenerated:
                parse_notes.append(
                    "emerging-label list from the model differs from the regenerated "
                    f"deduplication ({len(emerging)} vs {len(regenerated)} labels)"
                )
            for label in emerging:
                if label_key(label) not in codebook.by_key:
                    parse_notes.append(
                        f"emerging label {label!r} is not among the extracted code labels")
        else:
            # The record labels themselves, so every one has a record key.
            emerging = regenerated
        started = _log_stage(started, "consolidation: %d codes, %d parse notes",
                             len(codebook.codes), len(parse_notes))

        # step 3: theme generation
        stage = "theme_generation"
        codes_digest = render_codes_digest(codebook.codes)
        if "themes" not in artifact.raw_replies:
            prompt = library.render_theme_generation(codes_digest, focus)
            artifact.raw_replies["themes"] = ask(prompt, "theme generation")
        theme_report = parse_theme_block(artifact.raw_replies["themes"])
        themes = theme_report.records
        parse_notes.extend(_notes("themes", theme_report))
        # A member that is a code label has its key in the code's record.
        code_keys = {record.label: record.key for record in codebook.codes}
        member_keys = {code_keys[label] if label in code_keys else label_key(label)
                       for theme in themes for label in theme.member_labels}
        for key_label in sorted(member_keys.difference(codebook.by_key)):
            parse_notes.append(
                f"theme member {key_label!r} does not match any extracted code label")
        started = _log_stage(started, "theme generation: %d themes", len(themes))

        # step 4: interpretation
        stage = "interpretation"
        themes_digest = render_theme_digest(themes)
        if "interpretations" not in artifact.raw_replies:
            prompt = library.render_interpretation(themes_digest, focus)
            artifact.raw_replies["interpretations"] = ask(prompt, "interpretation")
        interp_report = parse_interpretation_block(artifact.raw_replies["interpretations"],
                                                   themes)
        themes = tuple(interp_report.records)
        parse_notes.extend(_notes("interpretations", interp_report))
        _log_stage(started, "interpretation: %d of %d themes interpreted",
                   sum(1 for theme in themes if theme.interpretation), len(themes))
        # Past the stages a library error propagates as it is.
        stage = None
        codebook = replace(codebook, emerging_labels=emerging, themes=themes)
        trace = verify_codebook(codebook, corpus, trace_threshold)
        artifact.llm_codebook, artifact.trace = codebook, trace
        artifact.notes = parse_notes
        artifact.status = "complete"
    except ThematicaError as exc:
        if stage is None:
            raise
        where = f" (page {page_number})" if page_number else ""
        raise AnalysisInterrupted(
            f"analysis stopped during {stage}{where}: {exc}",
            stage=stage, page=page_number, artifact=artifact, cause=exc,
        ) from exc
    finally:
        # The one write of the artifact, at completion or however the run
        # stops.  Every reply is already in the response cache, so a run
        # killed before this point loses only the requests in flight.
        artifact.updated = _now(replay)
        if artifact.path:
            artifact.save()
        gateway.close()
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
    coverages = {"llm": _coverage(book, book.emerging_labels, (
        "per-page code extraction", "emerging-code list", "theme generation",
        "theme interpretation"))}
    if human is not None:
        coverages[human.coder_id] = _coverage(human, human.codes, (
            "manual coding", "manual code list", "manual theme table",
            "written interpretations"))
    return coverages


def _coverage(book: Codebook, code_list: tuple | None,
              names: tuple[str, str, str, str]) -> SixStepCoverage:
    """The six stages ``book`` covers, with ``code_list`` as its Coding evidence.

    ``names`` say what covers Keywords, Coding, ThemeIdentification and
    Conceptualization, in that order; each covers its stage only when its
    content exists.
    """
    evidence = (book.codes, code_list, book.themes, any(t.interpretation for t in book.themes))
    stages = {stage: name if present else NOT_COVERED
              for stage, name, present in zip(SIX_STAGES[1:5], names, evidence)}
    return SixStepCoverage(stages={STAGE_QUOTATION: NOT_COVERED, **stages, STAGE_MODEL: NOT_COVERED})


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
    positive_specific_agreement: float
    notes: tuple[str, ...] = ()


def compare(artifact: AnalysisArtifact, human_merged: Codebook,
            matcher: Matcher) -> ComparisonBundle:
    """Compute the code-count, presence, overlap, and theme-share statistics."""
    from .agreement import (build_table4_summary, cohens_kappa, overlap_percentage,
                            positive_specific_agreement, presence_matrix, share_percentage)
    if not artifact.complete or artifact.llm_codebook is None:
        raise IncompleteArtifact("comparison requires a complete artifact")
    llm = artifact.llm_codebook
    match = match_codes(human_merged, llm, matcher)
    summary = build_table4_summary(len(human_merged.codes), len(llm.codes))
    matrix = presence_matrix(human_merged, llm, match, matcher)
    pair_count = len(match.pairs)

    human_themes = len(human_merged.themes)
    llm_themes = len(llm.themes)
    theme_total = human_themes + llm_themes
    human_share = share_percentage(human_themes, theme_total) if theme_total else None
    llm_share = share_percentage(llm_themes, theme_total) if theme_total else None

    emerging_count = len(llm.emerging_labels or ())
    emerging_pct = (emerging_count * 100.0 / human_themes) if human_themes else None

    human_column = matrix.column_vector(human_merged.coder_id)
    llm_column = matrix.column_vector(llm.coder_id)
    kappa = cohens_kappa(human_column, llm_column)

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
        positive_specific_agreement=positive_specific_agreement(human_column, llm_column),
        notes=tuple(notes),
    )

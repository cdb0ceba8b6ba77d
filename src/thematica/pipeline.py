"""Orchestration of the stepwise analysis and its resumable artifact.

The run proceeds page-by-page code extraction, consolidation into a single
codebook plus a deduplicated emerging-label list, theme generation over the
full code digest, and per-theme interpretation.  Each model request is a
:class:`Request`, and one sender sends those whose reply the artifact lacks.
Each reply is appended to the output directory's response cache as it
arrives, and the artifact JSON is written once, when the run stops: at
completion or at any failure.  A rerun gets every reply the cache holds
without a request, so a crashed run re-sends only the requests in flight.
:meth:`AnalysisArtifact.save` writes the artifact without building a tree of
dicts: one formatter per record kind (raw reply, code, theme, trace result)
writes each record's line, with the bytes the JSON encoder would write.  One
field table per record kind checks every value :func:`load_artifact` reads.
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
from functools import partial
from itertools import chain
from json.encoder import encode_basestring as _string  # a string as _encode writes it
from pathlib import Path
from types import NoneType
from typing import TYPE_CHECKING, Callable, NamedTuple

from .codebook import Codebook, Matcher, MatchResult, match_codes
from .corpus import Corpus, content_hash, read_utf8
from .errors import (
    AnalysisInterrupted,
    DuplicateLabel,
    IncompleteArtifact,
    ResumeMismatch,
    SchemaError,
    ThematicaError,
)
from .gateway import ChatMessage, Completion, Gateway, ModelConfig, ReplayTransport, replace_file
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
from .promptkit import PromptLibrary, RenderedPrompt, StudyFocus, default_library
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

# The longest the main thread waits on the worker pool at a time: a
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
        """The artifact ``data`` holds; a value its field does not admit raises SchemaError."""
        corpus, config, status, replies, notes, book, trace, *stamps = _record(data, _ARTIFACT, "")
        _record(corpus, _CORPUS, "corpus.")
        if book is not None:
            book, = _built(Codebook, _CODEBOOK, [book], "llm_codebook.")
        if trace is not None:
            results, threshold = _record(trace, _TRACE, "trace.")
            codes = book.codes if book else ()
            if len(results) != len(codes):  # result i traces code i
                raise SchemaError(f"trace.results must hold one result per code of llm_codebook "
                                  f"({len(codes)}), got {len(results)}")
            built = _built(TraceResult, _RESULT, results, "trace.results[{}].", codes)
            for i, (result, code) in enumerate(zip(results, codes)):
                if result["label"] != code.label:  # an edited or reordered row
                    raise SchemaError(f"trace.results[{i}].label must be its code's label "
                                      f"{code.label!r}, got {result['label']!r}")
            trace = TraceabilityReport(built, threshold)
        return cls(corpus, config, status, dict(replies), list(notes), book, trace, *stamps, path)

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


def _strings(items) -> str:
    return "[" + ", ".join(map(_string, items)) + "]" if items else "[]"


def _span(span) -> str:
    return "[%d, %d]" % span if span else "null"


# One formatter per record kind, each writing the line _encode writes for the
# record's fields.  The field tables below admit only declared types, and the
# constructors check labels, quotes, pages, theme names and trace levels.
def _code_line(record: CodeRecord) -> str:
    page = "null" if record.page is None else record.page
    return (f'{{"label": {_string(record.label)}, "quote": {_string(record.quote)}, '
            f'"page": {page}, "provenance": {_string(record.provenance)}, '
            f'"raw_span": {_span(record.raw_span)}, "aliases": {_strings(record.aliases)}}}')


def _theme_line(theme: ThemeRecord) -> str:
    return (f'{{"name": {_string(theme.name)}, "member_labels": {_strings(theme.member_labels)}, '
            f'"description": {_string(theme.description)}, '
            f'"interpretation": {_value(theme.interpretation)}}}')


def _result_line(result: TraceResult) -> str:
    return (f'{{"label": {_string(result.record.label)}, "level": {_string(result.level)}, '
            f'"score": {_value(result.score)}, "matched_span": {_span(result.matched_span)}, '
            f'"notes": {_strings(result.notes)}}}')


_MISSING = object()  # what a field that a record lacks reads as


class _Kind(NamedTuple):
    """What the values of a field must be: of one of ``types`` (a bool is not an
    int), each element of a list or object of kind ``element``, and ``check`` true
    of the column.  A list with an element kind is read as a tuple of elements."""

    what: str
    types: set
    element: "_Kind | None" = None
    check: Callable | None = None
    record: tuple = ()  # the (constructor, table) reading each element as a record


def _admits(kind: _Kind, column: list) -> bool:
    return (kind.types.issuperset(map(type, column))
            and (kind.element is None or _admits(kind.element, list(chain.from_iterable(
                map(dict.values, column) if dict in kind.types else filter(None, column)))))
            and (kind.check is None or kind.check(column)))


_STRING, _NUMBER = _Kind("a string", {str}), _Kind("a number", {int, float})
_OBJECT, _STRINGS = _Kind("an object", {dict}), _Kind("a list of strings", {list}, _STRING)
_OBJECTS, _OBJECT_OR_NULL = (_Kind("a list of objects", {list}, _OBJECT),
                             _Kind("an object or null", {dict, NoneType}))
_SPAN = _Kind("a [start, end] pair with start <= end, or null", {list, NoneType},
              _Kind("an int", {int}), lambda c: all(len(span) == 2 and span[0] <= span[1]
                                                    for span in c if span is not None))

# One field table per record kind, in its constructor's order.  Every field is
# required: every artifact thematica has written holds them all.
_ARTIFACT = (("corpus", _OBJECT), ("config", _OBJECT), ("status", _STRING),
             ("raw_replies", _Kind("an object of strings", {dict}, _STRING)),
             ("notes", _STRINGS), ("llm_codebook", _OBJECT_OR_NULL), ("trace", _OBJECT_OR_NULL),
             ("created", _STRING), ("updated", _STRING), ("schema_version", _Kind(
                 str(SCHEMA_VERSION), {int}, None, lambda c: c == [SCHEMA_VERSION])))
_CORPUS = (("source_path", _STRING), ("content_hash", _STRING),
           ("page_size", _Kind("a positive int", {int}, None, lambda c: min(c) >= 1)),
           ("page_count", _Kind("a non-negative int", {int}, None, lambda c: min(c) >= 0)))
_CODE = (("label", _STRING), ("quote", _STRING), ("page", _Kind("an int or null", {int, NoneType})),
         ("provenance", _STRING), ("raw_span", _SPAN), ("aliases", _STRINGS))
_THEME = (("name", _STRING), ("member_labels", _STRINGS), ("description", _STRING),
          ("interpretation", _Kind("a string or null", {str, NoneType})))
_CODEBOOK = (("coder_id", _STRING), ("provenance", _STRING),
             ("codes", _OBJECTS._replace(record=(CodeRecord, _CODE))),
             ("emerging_labels", _Kind("a list of strings or null", {list, NoneType}, _STRING)),
             ("themes", _OBJECTS._replace(record=(ThemeRecord, _THEME))))
_TRACE = (("results", _OBJECTS), ("threshold", _Kind("a number in [0, 1]", {int, float}, None,
                                                     lambda c: 0 <= min(c) and max(c) <= 1)))
_RESULT = (("label", _STRING), ("level", _STRING), ("score", _NUMBER), ("matched_span", _SPAN),
           ("notes", _STRINGS))


def _columns(rows: list, table: tuple, where: str) -> list[list]:
    """Each field of ``table`` over ``rows``, one column each; ``where`` is the JSON
    path of a row's fields, ``{}`` standing for its index in a list.  Only a
    column that fails its check is walked, to name its first bad value."""
    columns = []
    for name, kind in table:
        column = [row.get(name, _MISSING) for row in rows]
        if not _admits(kind, column):
            raise SchemaError(next(_problem(where.format(i) + name, value, kind)
                                   for i, value in enumerate(column) if not _admits(kind, [value])))
        if kind.record:
            column = [_built(*kind.record, value, f"{where.format(i)}{name}[{{}}].")
                      for i, value in enumerate(column)]
        elif kind.element and list in kind.types:
            column = [value if value is None else tuple(value) for value in column]
        columns.append(column)
    return columns


def _problem(path: str, value, kind: _Kind) -> str:
    """Why ``value`` at ``path`` is not of ``kind``: at its first wrong element, if any."""
    if value is _MISSING:
        return f"{path} is missing"
    if kind.element and value is not None and type(value) in kind.types:
        for key, item in value.items() if type(value) is dict else enumerate(value):
            if not _admits(kind.element, [item]):
                step = f".{key}" if type(value) is dict else f"[{key}]"
                return _problem(path + step, item, kind.element)
    return f"{path} must be {kind.what}, got {value!r}"


def _record(row: dict, table: tuple, where: str) -> list:
    return [column[0] for column in _columns([row], table, where)]


def _built(build, table: tuple, rows: list, where: str, *leading) -> tuple:
    """``build`` over the checked ``rows``, the ``leading`` columns in place of the
    first fields; a constructor's error becomes one led by its row's JSON path."""
    records: list = []
    try:  # the records built before a failing row stay in the list
        records.extend(map(build, *leading, *_columns(rows, table, where)[len(leading):]))
    except (ValueError, DuplicateLabel) as exc:
        raise SchemaError(f"{where.format(len(records)).rstrip('.')}: {exc}") from None
    return tuple(records)


def load_artifact(path: str | Path) -> AnalysisArtifact:
    """Read an artifact, in any layout :func:`json.loads` reads, after any
    leading UTF-8 byte-order mark.  Bad JSON or a bad value raises
    :class:`SchemaError` naming the path and the line and column or the
    value's JSON path, since users may correct replies in it; bytes that are
    not UTF-8 raise DecodeError, as in every other input."""
    path = Path(path)
    try:
        data = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: an artifact must be a JSON object")
    try:
        return AnalysisArtifact.from_dict(data, path=path)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


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
    old = artifact.corpus_fingerprint
    if old["content_hash"] != fingerprint["content_hash"]:
        raise ResumeMismatch(f"corpus content hash {fingerprint['content_hash'][:12]}… does not "
                             f"match the artifact's {old['content_hash'][:12]}…")
    if old["page_size"] != fingerprint["page_size"]:
        raise ResumeMismatch(f"page_size {fingerprint['page_size']} does not match the "
                             f"artifact's {old['page_size']}")
    if artifact.config_snapshot != snapshot:
        raise ResumeMismatch("model/focus/template configuration differs from the partial artifact")


class Request(NamedTuple):
    """One model request of a run; ``page`` is None past code extraction."""

    key: str  # the reply's key in ``raw_replies``
    page: int | None
    context: str  # names the request to the transport and in its errors
    render: Callable[[], RenderedPrompt]


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

    Every stage hands its :class:`Request` values to one sender.  Up to
    ``config.parallelism`` worker threads send them, so a live run overlaps
    the endpoint's latency.  A :class:`ReplayTransport` blocks on nothing, so a
    replay answers on the calling thread, in order, whatever ``parallelism`` says.
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

    # Where the run is, named by the interruption a library error becomes.
    stage: str | None = "code_extraction"
    page_number: int | None = None

    def send(requests: list[Request]) -> list[str]:
        """Send each request whose key the artifact lacks, in order, and store each
        reply under its key.  After a failure or an interrupt no request starts,
        and one in flight finishes and keeps its reply.  Returns where each reply
        came from: "cache", or the transport's kind."""
        nonlocal page_number
        asked = [request for request in requests if request.key not in artifact.raw_replies]
        pending = enumerate(asked)
        completions: dict[int, Completion] = {}
        failures: list[tuple[bool, int, BaseException]] = []
        take, stop, go = threading.Lock(), threading.Event(), threading.Event()

        def work() -> None:
            go.wait()
            while not stop.is_set():
                with take:
                    index, request = next(pending, (None, None))
                if request is None:
                    return
                try:
                    prompt = request.render()
                    completions[index] = gateway.complete(
                        (ChatMessage("system", prompt.system_message),
                         ChatMessage("user", prompt.user_message)), context=request.context)
                except BaseException as exc:
                    failures.append((isinstance(exc, ThematicaError), index, exc))
                    stop.set()

        pool = (None if isinstance(transport, ReplayTransport)
                else ThreadPoolExecutor(max_workers=config.parallelism))
        try:
            if pool is None:
                go.set()
                work()
            else:
                workers = [pool.submit(work) for _ in range(config.parallelism)]
                # An interrupt inside submit can leave a started thread that the
                # shutdown below does not join, so no request starts before this.
                go.set()
                while wait(workers, timeout=WAIT_SLICE_S).not_done:
                    pass
        finally:
            stop.set()
            go.set()
            try:
                if pool is not None:
                    pool.shutdown()
            finally:
                # Every reply that arrived goes into the artifact, at an interrupt
                # too, even one that cuts the wait for the requests in flight: a
                # copy, because a worker still running may add to ``completions``.
                done = dict(completions)
                artifact.raw_replies.update((asked[i].key, done[i].text) for i in sorted(done))
        if failures:
            # A non-library error goes first, then the earliest failing request.
            _, index, exc = min(failures)
            page_number = asked[index].page
            raise exc
        return [completion.transport for completion in done.values()]

    started = time.perf_counter()
    try:
        # step 1: per-page code extraction
        sources = send([Request(f"page_{page.number}", page.number,
                                f"page {page.number} code extraction",
                                partial(library.render_code_extraction, page, focus))
                        for page in corpus.pages])
        cached = sources.count("cache")
        started = _log_stage(started, "code extraction: %d pages asked, %d replies sent, "
                             "%d from the cache", len(sources), len(sources) - cached, cached)

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
        send([Request("themes", None, "theme generation", partial(
            library.render_theme_generation, render_codes_digest(codebook.codes), focus))])
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
        send([Request("interpretations", None, "interpretation", partial(
            library.render_interpretation, render_theme_digest(themes), focus))])
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

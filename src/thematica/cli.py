"""Command-line interface: analyze, compare, verify, report.

Configuration precedence is flags over config-file values over defaults.
Exit codes are a stable contract: 0 success, 1 configuration or runtime
error (including an interrupted analysis that a rerun would repeat), 2 partial
analysis that a rerun can resume, 3 trace failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import get_args, get_type_hints

from .agreement import overlap_percentage
from .codebook import (
    ALIAS_MAP,
    EXACT_NORMALIZED,
    MATCHER_MODES,
    Codebook,
    Matcher,
    load_alias_matcher,
    load_human_codebook,
    match_codes,
    merge_codebooks,
)
from .corpus import FORMATS, content_hash, load_corpus
from .errors import (
    AnalysisInterrupted,
    ConfigError,
    EmptyCodebook,
    IncompleteArtifact,
    ThematicaError,
)
from .gateway import (
    ENV_VAR,
    FALLBACK_ENV_VAR,
    LiveTransport,
    ModelConfig,
    ReplayTransport,
)
from .outparse import CodeRecord, ThemeRecord
from .pipeline import AnalysisArtifact, compare, load_artifact, run_analysis, six_step_coverage
from .promptkit import PromptLibrary, StudyFocus
from .report import CoderMergeStats, build_report, write_report_bundle
from .trace import DEFAULT_THRESHOLD, verify_codebook

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_TRACE_FAILURES = 3

DEFAULT_FIXTURE_NAME = "session.json"


def _field_types(cls: type) -> dict[str, tuple[type, ...]]:
    """The value types each field of the dataclass ``cls`` accepts.

    An optional field leaves out None, which a config source skips, and a
    float field also takes an int (so a bool too, as a subclass of int).
    """
    table = {}
    for name, hint in get_type_hints(cls).items():
        kinds = tuple(kind for kind in get_args(hint) or (hint,) if kind is not type(None))
        table[name] = (*kinds, int) if float in kinds else kinds
    return table


def _check_type(types: dict[str, tuple[type, ...]], noun: str, key: str, value: object) -> None:
    if not isinstance(value, types[key]):
        raise ConfigError(f"{noun} {key!r} must be {types[key][0].__name__}, got {value!r}")


_MODEL_TYPES = _field_types(ModelConfig)


@dataclass
class RunConfig:
    """Merged run configuration from defaults, config file, and flags."""

    input: str | None = None
    format: str = "auto"
    page_size: int = 10
    focus_description: str | None = None
    research_question: str | None = None
    model: dict = field(default_factory=dict)
    transport: str | None = None
    fixture: str | None = None
    output_dir: str = "thematica_out"
    matcher: str = EXACT_NORMALIZED
    alias_map: str | None = None
    jaccard_threshold: float = 0.6
    trace_threshold: float = DEFAULT_THRESHOLD
    template_dir: str | None = None
    verbose: bool = False

    @classmethod
    def from_sources(cls, file_data: dict | None, overrides: dict) -> "RunConfig":
        config = cls()
        for source in (file_data or {}), overrides:
            for key, value in source.items():
                if value is None:
                    continue
                if key == "model":
                    if not isinstance(value, dict):
                        raise ConfigError("config key 'model' must be an object")
                    unknown = set(value) - set(_MODEL_TYPES)
                    if unknown:
                        raise ConfigError(f"unknown model option(s): {', '.join(sorted(unknown))}")
                    for option, setting in value.items():
                        _check_type(_MODEL_TYPES, "model option", option, setting)
                    config.model.update(value)
                elif key in _RUN_TYPES:
                    _check_type(_RUN_TYPES, "config key", key, value)
                    setattr(config, key, value)
                else:
                    raise ConfigError(f"unknown config key {key!r}")
        if not 0.0 <= config.trace_threshold <= 1.0:
            raise ConfigError(f"trace_threshold must be in [0, 1], got {config.trace_threshold}")
        return config

    def model_config(self) -> ModelConfig:
        try:
            return ModelConfig(**self.model)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def focus(self) -> StudyFocus:
        if not self.focus_description:
            raise ConfigError("focus_description is required (--focus or config file)")
        if not self.research_question:
            raise ConfigError("research_question is required (--research-question or config file)")
        return StudyFocus(focus_description=self.focus_description,
                          research_question=self.research_question)


_RUN_TYPES = _field_types(RunConfig)


def _load_json_object(path: str | None, noun: str) -> dict | None:
    """The JSON object in the file at ``path``, or None without a path.

    ``noun`` names the file in the configuration error any failure becomes.
    """
    if not path:
        return None
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{noun} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {noun} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{noun} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{noun} {path} must contain a JSON object")
    return data


def _resolve_transport(config: RunConfig):
    mode = config.transport
    if mode is None:
        candidate = Path(config.fixture) if config.fixture else Path(config.output_dir) / DEFAULT_FIXTURE_NAME
        if candidate.exists():
            logger.info("replaying fixture %s", candidate)
            return ReplayTransport(candidate)
        raise ConfigError(
            "no transport selected: pass --replay FIXTURE, --record FIXTURE, or --live "
            f"(a fixture named {DEFAULT_FIXTURE_NAME} in the output directory is replayed automatically)"
        )
    if mode == "replay":
        if not config.fixture:
            raise ConfigError("replay transport requires a fixture path (--replay FIXTURE)")
        return ReplayTransport(config.fixture)
    if mode == "record" and not config.fixture:
        raise ConfigError("record transport requires a fixture path (--record FIXTURE)")
    if mode in ("live", "record"):
        # A record run sends live; the gateway writes its replies to the fixture.
        if not (os.environ.get(ENV_VAR) or os.environ.get(FALLBACK_ENV_VAR)):
            raise ConfigError(f"live transport requires a credential: set {ENV_VAR} "
                              f"(or {FALLBACK_ENV_VAR})")
        return LiveTransport()
    raise ConfigError(f"unknown transport mode {mode!r}")


def _document_format(config: RunConfig) -> str:
    if config.format not in FORMATS:
        raise ConfigError(f"unknown format {config.format!r}; choose from {', '.join(FORMATS)}")
    return config.format


def _build_matcher(config: RunConfig) -> Matcher:
    try:
        if config.matcher != ALIAS_MAP:
            return Matcher(mode=config.matcher, jaccard_threshold=config.jaccard_threshold)
        if not config.alias_map:
            raise ConfigError("matcher alias_map requires --alias-map PATH")
        return load_alias_matcher(config.alias_map, config.jaccard_threshold)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_complete_artifact(config: RunConfig, artifact_path: str | None) -> AnalysisArtifact:
    path = Path(artifact_path) if artifact_path else Path(config.output_dir) / "analysis.json"
    if not path.exists():
        raise ConfigError(f"artifact not found: {path} (run analyze first)")
    artifact = load_artifact(path)
    if not artifact.complete or artifact.llm_codebook is None:
        raise IncompleteArtifact(f"artifact {path} is partial; finish the analysis first")
    return artifact


def _write_model_report(artifact: AnalysisArtifact, output_dir: str | Path,
                        paper_reference: str | None) -> list[Path]:
    """Write the report of the model's outputs alone, with its six-stage coverage."""
    bundle = build_report(artifact, coverages=six_step_coverage(artifact),
                          paper_reference=_load_json_object(paper_reference, "reference file"))
    return write_report_bundle(bundle, output_dir)


def cmd_analyze(config: RunConfig, paper_reference: str | None = None) -> int:
    if not config.input:
        raise ConfigError("an input document is required (--input PATH)")
    corpus = load_corpus(config.input, page_size=config.page_size,
                         format=_document_format(config))
    focus = config.focus()
    model = config.model_config()
    transport = _resolve_transport(config)
    library = PromptLibrary(config.template_dir) if config.template_dir else None
    output_dir = Path(config.output_dir)
    record_path = config.fixture if config.transport == "record" else None

    try:
        artifact = run_analysis(corpus, focus, model, transport,
                                output_dir=output_dir, library=library,
                                trace_threshold=config.trace_threshold,
                                record_path=record_path)
    except AnalysisInterrupted as exc:
        where = f" at page {exc.page}" if exc.page else ""
        print(f"analysis interrupted during {exc.stage}{where}: {exc.cause}", file=sys.stderr)
        # run_analysis always attaches the artifact, saved in the output
        # directory, and the library error that stopped the run.
        path, cause = exc.artifact.path, exc.cause
        suffix = "; rerun to resume" if cause.resumable else ""
        print(f"partial artifact retained at {path}{suffix}", file=sys.stderr)
        if cause.resumable:
            return EXIT_PARTIAL
        print(f"a rerun fails the same way: {cause.rerun_hint.format(artifact=path)}",
              file=sys.stderr)
        return EXIT_ERROR

    paths = _write_model_report(artifact, output_dir, paper_reference)
    book = artifact.llm_codebook
    print(f"analysis complete: {len(book.codes)} codes, "
          f"{len(book.emerging_labels or ())} emerging labels, {len(book.themes)} themes")
    print(f"artifact: {artifact.path}")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _theme_pseudo_codebook(codebook: Codebook) -> Codebook | None:
    if not codebook.themes:
        return None
    records = tuple(
        CodeRecord(label=theme.name, quote="", page=None, provenance=codebook.provenance)
        for theme in codebook.themes
    )
    return Codebook(coder_id=f"{codebook.coder_id}-themes",
                    provenance=codebook.provenance, codes=records)


def _consensus_codebook(first: Codebook, second: Codebook, matcher: Matcher) -> tuple[
        Codebook, CoderMergeStats]:
    """Merge two human codebooks and derive the consensus (similar-codes) book."""
    match = match_codes(first, second, matcher)
    if not match.pairs:
        raise EmptyCodebook(f"coders {first.coder_id!r} and {second.coder_id!r} share no code under "
                            f"the {matcher.mode} matcher, so the consensus codebook is empty")
    merged, merge_count = merge_codebooks(first, second, match)
    paired = {label_a for label_a, _ in match.pairs}
    consensus_codes = tuple(record for record in merged.codes if record.label in paired)

    similar_themes = 0
    overlap_a = overlap_b = None
    consensus_themes: tuple[ThemeRecord, ...] = ()
    themes_a = _theme_pseudo_codebook(first)
    themes_b = _theme_pseudo_codebook(second)
    if themes_a and themes_b:
        theme_match = match_codes(themes_a, themes_b, matcher)
        similar_themes = len(theme_match.pairs)
        paired_names = {name for name, _ in theme_match.pairs}
        consensus_themes = tuple(t for t in first.themes if t.name in paired_names)
        overlap_a = overlap_percentage(similar_themes, len(first.themes))
        overlap_b = overlap_percentage(similar_themes, len(second.themes))

    consensus = Codebook(coder_id="human-average", provenance="human-merged",
                         codes=consensus_codes, themes=consensus_themes)
    stats = CoderMergeStats(
        coder_a_id=first.coder_id, coder_a_codes=len(first.codes),
        coder_b_id=second.coder_id, coder_b_codes=len(second.codes),
        similar_codes=len(match.pairs), merged_codes=merge_count,
        coder_a_themes=len(first.themes), coder_b_themes=len(second.themes),
        similar_themes=similar_themes,
        coder_a_theme_overlap_pct=overlap_a, coder_b_theme_overlap_pct=overlap_b,
    )
    return consensus, stats


def cmd_compare(config: RunConfig, artifact_path: str | None, human_paths: list[str],
                interpretation_paths: list[str] | None = None,
                paper_reference: str | None = None) -> int:
    if not human_paths:
        raise ConfigError("at least one human codebook CSV is required (--human PATH)")
    if len(human_paths) > 2:
        raise ConfigError("compare supports at most two human codebooks")
    sidecars = interpretation_paths or []
    if len(sidecars) > len(human_paths):
        raise ConfigError(f"more --interpretations ({len(sidecars)}) than --human ({len(human_paths)})")
    artifact = _load_complete_artifact(config, artifact_path)

    books = [load_human_codebook(csv_path, sidecar)
             for csv_path, sidecar in zip_longest(human_paths, sidecars)]
    matcher = _build_matcher(config)

    if len(books) == 2:
        human, stats = _consensus_codebook(books[0], books[1], matcher)
    else:
        human, stats = books[0], None

    bundle = compare(artifact, human, matcher)
    coverages = six_step_coverage(artifact, human=human)
    report = build_report(artifact, bundle=bundle, coverages=coverages,
                          human_tables=stats,
                          paper_reference=_load_json_object(paper_reference, "reference file"))
    paths = write_report_bundle(report, config.output_dir)
    summary = bundle.code_summary
    print(f"compared {summary.count_a} human codes with {summary.count_b} model codes: "
          f"difference {summary.percentage_difference:.2f}%, "
          f"similarity {summary.percentage_similarity:.2f}%")
    if stats is not None:
        print(f"merged codebook: {stats.merged_codes} codes "
              f"({stats.similar_codes} similar counted once)")
    for note in report.inconsistency_notes:
        print(f"note: {note}")
    for out_path in paths:
        print(f"wrote {out_path}")
    return EXIT_OK


def cmd_verify(config: RunConfig, artifact_path: str | None) -> int:
    artifact = _load_complete_artifact(config, artifact_path)
    source = config.input or artifact.corpus_fingerprint.get("source_path")
    if not source:
        raise ConfigError("a corpus path is required (--input PATH)")
    corpus = load_corpus(source, page_size=artifact.corpus_fingerprint.get("page_size", 10),
                         format=_document_format(config))
    fresh_hash = content_hash(corpus)
    recorded = artifact.corpus_fingerprint.get("content_hash")
    if fresh_hash != recorded:
        raise ConfigError(
            f"corpus hash {fresh_hash} does not match the artifact's {recorded}"
        )
    threshold = artifact.trace.threshold if artifact.trace else config.trace_threshold
    trace = verify_codebook(artifact.llm_codebook, corpus, threshold)
    print(f"trace summary: {trace.summary}")
    print(f"verified share: {trace.verified_share:.2f}%")
    if trace.failures:
        for result in trace.failures:
            notes = f" ({'; '.join(result.notes)})" if result.notes else ""
            print(f"FAILED: {result.record.label!r} page {result.record.page}{notes}")
        return EXIT_TRACE_FAILURES
    return EXIT_OK


def cmd_report(config: RunConfig, artifact_path: str | None,
               paper_reference: str | None = None) -> int:
    artifact = _load_complete_artifact(config, artifact_path)
    for out_path in _write_model_report(artifact, config.output_dir, paper_reference):
        print(f"wrote {out_path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1: exit 2 means a rerun can resume."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thematica",
        description="Stepwise thematic analysis of interview transcripts with "
                    "quote traceability and codebook agreement statistics.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--output-dir", help="directory for artifacts and reports")
    parser.add_argument("--verbose", action="store_true", default=None,
                        help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full analysis over a transcript")
    analyze.add_argument("--input", help="transcript file (.docx or plain text)")
    analyze.add_argument("--format", choices=FORMATS)
    analyze.add_argument("--page-size", type=int, dest="page_size",
                         help="paragraphs per page (default 10)")
    analyze.add_argument("--focus", dest="focus_description",
                         help="what the coding should focus on")
    analyze.add_argument("--research-question", dest="research_question")
    analyze.add_argument("--model-id")
    analyze.add_argument("--temperature", type=float)
    analyze.add_argument("--max-tokens", type=int)
    analyze.add_argument("--endpoint-url")
    analyze.add_argument("--timeout", type=float)
    analyze.add_argument("--parallelism", type=int)
    analyze.add_argument("--trace-threshold", type=float, dest="trace_threshold")
    analyze.add_argument("--template-dir", dest="template_dir")
    analyze.add_argument("--paper-reference", dest="paper_reference",
                         help="JSON file of expected values for discrepancy footnotes")
    transport = analyze.add_mutually_exclusive_group()
    transport.add_argument("--replay", metavar="FIXTURE", help="replay a recorded session")
    transport.add_argument("--record", metavar="FIXTURE", help="send live, record to FIXTURE")
    transport.add_argument("--live", action="store_true", help="send live requests")

    compare_p = sub.add_parser("compare", help="compare the artifact against human codebooks")
    compare_p.add_argument("--artifact")
    compare_p.add_argument("--human", action="append", default=[],
                           help="human codebook CSV (repeat for two coders)")
    compare_p.add_argument("--interpretations", action="append", default=[],
                           help="interpretation sidecar for the matching --human (positional)")
    compare_p.add_argument("--matcher", choices=list(MATCHER_MODES))
    compare_p.add_argument("--alias-map", dest="alias_map")
    compare_p.add_argument("--jaccard-threshold", type=float, dest="jaccard_threshold")
    compare_p.add_argument("--paper-reference", dest="paper_reference")

    verify = sub.add_parser("verify", help="re-check quote traceability of an artifact")
    verify.add_argument("--artifact")
    verify.add_argument("--input", help="the corpus the artifact was built from")
    verify.add_argument("--format", choices=FORMATS)

    report = sub.add_parser("report", help="regenerate reports from an artifact")
    report.add_argument("--artifact")
    report.add_argument("--paper-reference", dest="paper_reference")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")

    try:
        file_data = _load_json_object(args.config, "config file")
        # Each flag is stored under the name of the field it overrides.
        overrides = {name: getattr(args, name) for name in _RUN_TYPES if hasattr(args, name)}
        model_overrides = {key: getattr(args, key) for key in _MODEL_TYPES
                           if getattr(args, key, None) is not None}
        if model_overrides:
            overrides["model"] = model_overrides
        if getattr(args, "replay", None):
            overrides["transport"] = "replay"
            overrides["fixture"] = args.replay
        elif getattr(args, "record", None):
            overrides["transport"] = "record"
            overrides["fixture"] = args.record
        elif getattr(args, "live", False):
            overrides["transport"] = "live"
        config = RunConfig.from_sources(file_data, overrides)
        # basicConfig does nothing once the root logger has a handler, so the
        # level goes on the package logger, where every call in a process sets it.
        logging.getLogger("thematica").setLevel(logging.INFO if config.verbose else logging.WARNING)

        if args.command == "analyze":
            return cmd_analyze(config, paper_reference=getattr(args, "paper_reference", None))
        if args.command == "compare":
            return cmd_compare(config, args.artifact, args.human,
                               interpretation_paths=args.interpretations or None,
                               paper_reference=args.paper_reference)
        if args.command == "verify":
            return cmd_verify(config, args.artifact)
        if args.command == "report":
            return cmd_report(config, args.artifact, paper_reference=args.paper_reference)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_ERROR
    except ThematicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

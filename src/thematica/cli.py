"""Command-line interface: analyze, compare, verify, report.

Global options come before the command; a long option may be any unique prefix,
with its value after a space or an ``=``.  A line is parsed with only the
options it names, and the full parser prints every help and usage error.
Configuration precedence is flags over config-file values over defaults.  Exit
codes are a stable contract: 0 success, 1 configuration or runtime error
(including an interrupted analysis that a rerun would repeat), 2 partial
analysis that a rerun can resume, 3 trace failures, 130 stopped by Ctrl-C.
Each command loads its inputs, calls the library, and writes and prints what it
returns: ``compare`` is one :func:`pipeline.compare` call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import get_args, get_type_hints

from .codebook import (
    ALIAS_MAP,
    EXACT_NORMALIZED,
    MATCHER_MODES,
    Matcher,
    load_alias_matcher,
    load_human_codebook,
)
from .corpus import content_hash, load_corpus, read_utf8
from .errors import (
    AnalysisInterrupted,
    AuthError,
    ConfigError,
    DecodeError,
    IncompleteArtifact,
    ThematicaError,
)
from .gateway import LiveTransport, ModelConfig, ReplayTransport
from .pipeline import AnalysisArtifact, compare, load_artifact, run_analysis, six_step_coverage
from .promptkit import PromptLibrary, StudyFocus
from .trace import DEFAULT_THRESHOLD, TraceResult, verify_codebook

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_TRACE_FAILURES = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, what a shell reports for a Ctrl-C

DEFAULT_FIXTURE_NAME = "session.json"
# What "transport": "record" in a config prints: --record is retired.
RECORD_RETIRED = ("--record is retired: analyze with --live, then rerun offline with "
                  "--replay OUTPUT_DIR/response_cache.json")


def _field_types(cls: type) -> dict[str, tuple[type, ...]]:
    """The value types each field of the dataclass ``cls`` accepts.

    An optional field leaves out None, which a config source skips, and a
    float field also takes an int.
    """
    table = {}
    for name, hint in get_type_hints(cls).items():
        kinds = tuple(kind for kind in get_args(hint) or (hint,) if kind is not type(None))
        table[name] = (*kinds, int) if float in kinds else kinds
    return table


def _check_type(types: dict[str, tuple[type, ...]], noun: str, key: str, value: object) -> None:
    # An exact type, so a bool is no number, as in an artifact's field tables.
    if type(value) not in types[key]:
        raise ConfigError(f"{noun} {key!r} must be {types[key][0].__name__}, got {value!r}")


_MODEL_TYPES = _field_types(ModelConfig)


@dataclass
class RunConfig:
    """Merged run configuration from defaults, config file, and flags."""

    input: str | None = None
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
    A leading UTF-8 byte-order mark is skipped, as in every other input.
    """
    if not path:
        return None
    try:
        data = json.loads(read_utf8(Path(path)))
    except DecodeError as exc:
        raise ConfigError(f"{noun} {exc}") from None
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
        raise ConfigError("no transport selected: pass --replay FIXTURE or --live (a fixture "
                          f"named {DEFAULT_FIXTURE_NAME} in the output directory is replayed "
                          "automatically)")
    if mode == "replay":
        if not config.fixture:
            raise ConfigError("replay transport requires a fixture path (--replay FIXTURE)")
        return ReplayTransport(config.fixture)
    if mode == "record":
        raise ConfigError(RECORD_RETIRED)
    if mode == "live":
        try:
            return LiveTransport()
        except AuthError as exc:
            raise ConfigError(f"live transport: {exc}") from None
    raise ConfigError(f"unknown transport mode {mode!r}")


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
    from .report import build_report, write_report_bundle
    bundle = build_report(artifact, coverages=six_step_coverage(artifact),
                          paper_reference=_load_json_object(paper_reference, "reference file"))
    return write_report_bundle(bundle, output_dir)


def cmd_analyze(config: RunConfig, paper_reference: str | None = None) -> int:
    if not config.input:
        raise ConfigError("an input document is required (--input PATH)")
    corpus = load_corpus(config.input, page_size=config.page_size)
    focus = config.focus()
    model = config.model_config()
    transport = _resolve_transport(config)
    library = PromptLibrary(config.template_dir) if config.template_dir else None
    output_dir = Path(config.output_dir)

    try:
        artifact = run_analysis(corpus, focus, model, transport,
                                output_dir=output_dir, library=library,
                                trace_threshold=config.trace_threshold)
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
    except KeyboardInterrupt:  # run_analysis saved the partial artifact on its way out
        print(f"analysis interrupted by Ctrl-C: partial artifact retained at "
              f"{output_dir / 'analysis.json'}; rerun to resume", file=sys.stderr)
        return EXIT_INTERRUPTED

    paths = _write_model_report(artifact, output_dir, paper_reference)
    book = artifact.llm_codebook
    print(f"analysis complete: {len(book.codes)} codes, "
          f"{len(book.emerging_labels or ())} emerging labels, {len(book.themes)} themes")
    print(f"artifact: {artifact.path}")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(config: RunConfig, artifact_path: str | None, human_paths: list[str],
                interpretation_paths: list[str] | None = None,
                paper_reference: str | None = None) -> int:
    from .report import build_report, write_report_bundle
    if not human_paths:
        raise ConfigError("at least one human codebook CSV is required (--human PATH)")
    if len(human_paths) > 2:
        raise ConfigError("compare supports at most two human codebooks")
    sidecars = interpretation_paths or []
    if len(sidecars) > len(human_paths):
        raise ConfigError(f"more --interpretations ({len(sidecars)}) than --human ({len(human_paths)})")
    artifact = _load_complete_artifact(config, artifact_path)
    coders = [load_human_codebook(csv_path, sidecar)
              for csv_path, sidecar in zip_longest(human_paths, sidecars)]
    bundle = compare(artifact, coders, _build_matcher(config))
    report = build_report(artifact, bundle=bundle,
                          coverages=six_step_coverage(artifact, human=bundle.human),
                          paper_reference=_load_json_object(paper_reference, "reference file"))
    paths = write_report_bundle(report, config.output_dir)
    summary = bundle.code_summary
    print(f"compared {summary.count_a} human codes with {summary.count_b} model codes: "
          f"difference {summary.percentage_difference:.2f}%, "
          f"similarity {summary.percentage_similarity:.2f}%")
    if bundle.coder_match is not None:
        print(f"merged codebook: {len(bundle.merged.codes)} codes "
              f"({len(bundle.coder_match.pairs)} similar counted once)")
    for note in report.inconsistency_notes:
        print(f"note: {note}")
    for out_path in paths:
        print(f"wrote {out_path}")
    return EXIT_OK


def cmd_verify(config: RunConfig, artifact_path: str | None) -> int:
    artifact = _load_complete_artifact(config, artifact_path)
    source = config.input or artifact.corpus_fingerprint["source_path"]
    if not source:
        raise ConfigError("a corpus path is required (--input PATH)")
    corpus = load_corpus(source, page_size=artifact.corpus_fingerprint["page_size"])
    fresh_hash = content_hash(corpus)
    recorded = artifact.corpus_fingerprint["content_hash"]
    if fresh_hash != recorded:
        raise ConfigError(f"corpus hash {fresh_hash} does not match the artifact's {recorded}")
    threshold = artifact.trace.threshold if artifact.trace else config.trace_threshold
    trace = verify_codebook(artifact.llm_codebook, corpus, threshold)
    print(f"trace summary: {trace.summary}")
    print(f"verified share: {trace.verified_share:.2f}%")
    for result in trace.failures:
        notes = f" ({'; '.join(result.notes)})" if result.notes else ""
        print(f"FAILED: {result.record.label!r} page {result.record.page}{notes}")
    # The stored trace is what report and compare render: it must be this one.
    stored = artifact.trace.results if artifact.trace else trace.results
    drifted = [(old, new) for old, new in zip(stored, trace.results) if old != new]
    for old, new in drifted:
        print(f"DRIFT: {new.record.label!r} page {new.record.page}: "
              f"stored {_trace_values(old)}, fresh {_trace_values(new)}")
    if drifted:
        print(f"trace drift: {len(drifted)} of {len(stored)} stored results differ "
              f"from a fresh trace")
        return EXIT_ERROR
    return EXIT_TRACE_FAILURES if trace.failures else EXIT_OK


def _trace_values(result: TraceResult) -> str:
    """A trace result's level, score, matched span and notes, on one line."""
    notes = f" ({'; '.join(result.notes)})" if result.notes else ""
    return f"{result.level} score {result.score} span {result.matched_span}{notes}"


def cmd_report(config: RunConfig, artifact_path: str | None,
               paper_reference: str | None = None) -> int:
    artifact = _load_complete_artifact(config, artifact_path)
    for out_path in _write_model_report(artifact, config.output_dir, paper_reference):
        print(f"wrote {out_path}")
    return EXIT_OK


class _Fallback(Exception):
    """Raised where the small parser would print: the full parser takes the line."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1: exit 2 means a rerun can resume.
    The small parser, which has no help option, raises _Fallback instead."""

    def error(self, message: str):
        if not self.add_help:
            raise _Fallback
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


_COMMANDS = {"analyze": "run the full analysis over a transcript",
             "compare": "compare the artifact against human codebooks",
             "verify": "re-check quote traceability of an artifact",
             "report": "regenerate reports from an artifact"}
# Each option once, by section: None for the global options, then each command.  A default
# other than None is spelled out, since the small parser gives it to each option it omits.
_OPTIONS: dict[str | None, dict[str, dict]] = {
    None: {"--config": dict(help="JSON config file"),
           "--output-dir": dict(help="directory for artifacts and reports"),
           "--verbose": dict(action="store_true", default=None, help="enable info logging")},
    "analyze": {
        "--input": dict(help="transcript file (.docx or plain text)"),
        "--page-size": dict(type=int, help="paragraphs per page (default 10)"),
        "--focus": dict(dest="focus_description", help="what the coding should focus on"),
        "--research-question": {}, "--model-id": {}, "--temperature": dict(type=float),
        "--max-tokens": dict(type=int), "--endpoint-url": {}, "--timeout": dict(type=float),
        "--parallelism": dict(type=int), "--trace-threshold": dict(type=float),
        "--template-dir": {},
        "--paper-reference": dict(help="JSON file of expected values for discrepancy footnotes"),
        "--replay": dict(metavar="FIXTURE", help="replay a recorded session"),
        "--live": dict(action="store_true", default=False, help="send live requests")},
    "compare": {
        "--artifact": {}, "--human": dict(action="append", default=[],
                                          help="human codebook CSV (repeat for two coders)"),
        "--interpretations": dict(action="append", default=[], help="interpretation sidecar "
                                  "for the matching --human (positional)"),
        "--matcher": dict(choices=list(MATCHER_MODES)), "--alias-map": {},
        "--jaccard-threshold": dict(type=float), "--paper-reference": {}},
    "verify": {"--artifact": {}, "--input": dict(help="the corpus the artifact was built from")},
    "report": {"--artifact": {}, "--paper-reference": {}},
}
_TRANSPORTS = ("--replay", "--live")  # analyze's mutually exclusive pair


def _build_parser(tokens: list[str], small: bool = False) -> argparse.ArgumentParser:
    """The full command-line parser has every command and option and alone prints help
    and usage errors.  The ``small`` one, cheaper to build, has only the commands and
    long options ``tokens`` names word for word (``--flag``, ``--flag=value``), no help or
    abbreviation, and each other option's default, so it parses as the full one does."""
    named = {token.partition("=")[0] for token in tokens}
    # A dash token with a space is a value unless an option, built or not, starts with it.
    if small and any(token.startswith("-") and " " in token for token in tokens):
        raise _Fallback

    def add_options(parser: argparse.ArgumentParser, section: str | None) -> None:
        group, omitted = None, {}
        for flag, keywords in _OPTIONS[section].items():
            if small and flag not in named:
                omitted[keywords.get("dest", flag[2:].replace("-", "_"))] = keywords.get("default")
            elif flag in _TRANSPORTS:
                group = group or parser.add_mutually_exclusive_group()
                group.add_argument(flag, **keywords)
            else:
                parser.add_argument(flag, **keywords)
        parser.set_defaults(**omitted)

    parser = _Parser(prog="thematica", allow_abbrev=not small, add_help=not small,
                     description="Stepwise thematic analysis of interview transcripts with "
                                 "quote traceability and codebook agreement statistics.")
    add_options(parser, None)
    sub = parser.add_subparsers(dest="command", required=True, prog="thematica")
    for name, summary in _COMMANDS.items():
        if not small or name in named:
            add_options(sub.add_parser(name, help=summary, allow_abbrev=not small,
                                       add_help=not small), name)
    return parser


def _parse(tokens: list[str]) -> argparse.Namespace:
    """The small parser's namespace for ``tokens``, else the full parser's."""
    with contextlib.suppress(_Fallback):
        return _build_parser(tokens, small=True).parse_args(tokens)
    return _build_parser(tokens).parse_args(tokens)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")

    try:
        file_data = _load_json_object(args.config, "config file")
        # Each flag is stored under the name of the field it overrides.
        overrides = {name: getattr(args, name) for name in _RUN_TYPES if hasattr(args, name)}
        overrides["model"] = {key: getattr(args, key) for key in _MODEL_TYPES
                              if getattr(args, key, None) is not None}
        if getattr(args, "replay", None):
            overrides.update(transport="replay", fixture=args.replay)
        elif getattr(args, "live", False):
            overrides["transport"] = "live"
        config = RunConfig.from_sources(file_data, overrides)
        # basicConfig does nothing once the root logger has a handler, so the
        # level goes on the package logger, where every call in a process sets it.
        logging.getLogger("thematica").setLevel(logging.INFO if config.verbose else logging.WARNING)

        if args.command == "analyze":
            return cmd_analyze(config, paper_reference=args.paper_reference)
        if args.command == "compare":
            return cmd_compare(config, args.artifact, args.human,
                               interpretation_paths=args.interpretations or None,
                               paper_reference=args.paper_reference)
        if args.command == "verify":
            return cmd_verify(config, args.artifact)
        return cmd_report(config, args.artifact, paper_reference=args.paper_reference)
    except ConfigError as exc:
        message = f"configuration error: {exc}"
    except FileNotFoundError as exc:
        message = f"error: file not found: {exc.filename or exc}"
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        message = f"error: {where}{exc.strerror or exc}"
    except ThematicaError as exc:
        message = f"error: {exc}"
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(message, file=sys.stderr)
    return EXIT_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

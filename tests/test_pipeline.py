"""End-to-end analysis runs, resume semantics, coverage, and comparison."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import source_env
from hypothesis import given, settings
from hypothesis import strategies as st

from thematica import gateway, pipeline
from thematica.codebook import Codebook, Matcher, load_alias_map, load_human_codebook
from thematica.corpus import load_corpus
from thematica.errors import (
    AnalysisInterrupted,
    EmptyCodebook,
    FixtureMiss,
    IncompleteArtifact,
    ResumeMismatch,
    SchemaError,
)
from thematica.gateway import (
    ChatMessage,
    LiveTransport,
    ModelConfig,
    ReplayTransport,
    load_fixture,
    request_digest,
    save_fixture,
)
from thematica.outparse import CodeRecord, ThemeRecord
from thematica.pipeline import (
    WAIT_SLICE_S,
    AnalysisArtifact,
    compare,
    load_artifact,
    run_analysis,
    six_step_coverage,
)
from thematica.promptkit import StudyFocus, default_library
from thematica.trace import EXACT, LEVELS, TraceabilityReport


class CountingTransport:
    """Replay wrapper that counts sends and can fail after a quota."""

    kind = "replay"

    def __init__(self, inner: ReplayTransport, fail_after: int | None = None) -> None:
        self.inner = inner
        self.fail_after = fail_after
        self.sent = 0

    def send(self, config, messages, context=None):
        if self.fail_after is not None and self.sent >= self.fail_after:
            raise FixtureMiss(f"synthetic outage before {context}")
        self.sent += 1
        return self.inner.send(config, messages, context)


@pytest.fixture(scope="module")
def sample(tmp_path_factory) -> dict:
    import thematica

    samples = Path(thematica.__file__).parent / "samples"
    run_config = json.loads((samples / "run_config.json").read_text(encoding="utf-8"))
    return {
        "dir": samples,
        "corpus": load_corpus(samples / "transcript.txt", page_size=run_config["page_size"]),
        "focus": StudyFocus(focus_description=run_config["focus_description"],
                            research_question=run_config["research_question"]),
        "config": ModelConfig(),
        "fixture": samples / "session.json",
    }


def run_sample(sample: dict, out_dir: Path, transport=None) -> AnalysisArtifact:
    return run_analysis(
        sample["corpus"], sample["focus"], sample["config"],
        transport or ReplayTransport(sample["fixture"]),
        output_dir=out_dir,
    )


@pytest.fixture(scope="module")
def completed(sample: dict, tmp_path_factory) -> AnalysisArtifact:
    out_dir = tmp_path_factory.mktemp("run")
    return run_sample(sample, out_dir)


def test_replay_run_produces_expected_counts(completed: AnalysisArtifact) -> None:
    assert completed.status == "complete"
    book = completed.llm_codebook
    assert len(book.codes) == 59
    assert len(book.emerging_labels) == 15
    assert len(book.themes) == 4
    assert all(theme.interpretation for theme in book.themes)
    assert book.coder_id == "genai"
    assert all(result.level == EXACT for result in completed.trace.results)


def test_replay_runs_are_byte_identical(sample: dict, tmp_path: Path) -> None:
    first = run_sample(sample, tmp_path / "a")
    second = run_sample(sample, tmp_path / "b")
    bytes_a = (tmp_path / "a" / "analysis.json").read_bytes()
    bytes_b = (tmp_path / "b" / "analysis.json").read_bytes()
    assert bytes_a == bytes_b
    assert first.created == second.created
    assert first.llm_codebook == second.llm_codebook


def test_parallel_extraction_matches_sequential(sample: dict, tmp_path: Path) -> None:
    run_sample(sample, tmp_path / "seq")
    sequential = json.loads((tmp_path / "seq" / "analysis.json").read_text(encoding="utf-8"))
    parallel_config = ModelConfig(parallelism=4)
    # A replay answers on the calling thread; a send-only wrapper takes the pool.
    for name, transport in (("par", ReplayTransport(sample["fixture"])),
                            ("pool", CountingTransport(ReplayTransport(sample["fixture"])))):
        run_analysis(sample["corpus"], sample["focus"], parallel_config,
                     transport, output_dir=tmp_path / name)
        parallel = json.loads((tmp_path / name / "analysis.json").read_text(encoding="utf-8"))
        assert parallel["llm_codebook"] == sequential["llm_codebook"]
        assert parallel["raw_replies"] == sequential["raw_replies"]


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_replay_starts_no_worker_thread(sample: dict, tmp_path: Path,
                                          monkeypatch: pytest.MonkeyPatch,
                                          parallelism: int) -> None:
    run_sample(sample, tmp_path / "reference")

    def no_pool(*args, **kwargs):
        raise AssertionError("a replay started a thread pool")

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    artifact = run_analysis(sample["corpus"], sample["focus"],
                            ModelConfig(parallelism=parallelism),
                            ReplayTransport(sample["fixture"]), output_dir=tmp_path / "run")
    assert artifact.complete
    assert (tmp_path / "run" / "analysis.json").read_bytes() == (
        tmp_path / "reference" / "analysis.json").read_bytes()


class ContextTransport:
    """Serves one reply per request context, whatever the prompt holds.

    Without ``replies`` it fills them from ``inner``; with them it lets a test
    edit a reply and still serve the later requests whose prompts the edit
    changes.
    """

    kind = "replay"

    def __init__(self, inner: ReplayTransport | None = None,
                 replies: dict[str, str] | None = None) -> None:
        self.inner = inner
        self.replies = dict(replies or {})

    def send(self, config, messages, context=None):
        if self.inner is not None:
            self.replies[context] = self.inner.send(config, messages, context)
        return self.replies[context]


def test_a_page_reply_citing_page_0_excludes_that_code_and_completes(
        sample: dict, tmp_path: Path) -> None:
    recorder = ContextTransport(ReplayTransport(sample["fixture"]))
    run_sample(sample, tmp_path / "clean", recorder)
    replies = recorder.replies
    replies["page 2 code extraction"] = replies["page 2 code extraction"].replace(
        "- Page: Page 2", "- Page: Page 0", 1)
    artifact = run_sample(sample, tmp_path / "edited", ContextTransport(replies=replies))
    assert artifact.complete
    assert len(artifact.llm_codebook.codes) == 58
    assert "Confidentiality Assurance" not in artifact.llm_codebook.labels
    assert "page 2 line 1: invalid_code: page must be >= 1, got 0; excluded" in artifact.notes
    # The rerun reads the complete artifact the first run saved.
    rerun = run_sample(sample, tmp_path / "edited", ContextTransport(replies=replies))
    assert rerun.notes == artifact.notes
    assert rerun.llm_codebook.codes == artifact.llm_codebook.codes


class FailingPageTransport:
    """Replay wrapper whose send raises a non-library error on one page."""

    kind = "replay"

    def __init__(self, inner: ReplayTransport, failing_page: int) -> None:
        self.inner = inner
        self.failing_page = failing_page
        self.answered: set[int] = set()
        self._lock = threading.Lock()

    def send(self, config, messages, context=None):
        page = int(context.split()[1])
        if page == self.failing_page:
            raise RuntimeError("disk went read-only")
        reply = self.inner.send(config, messages, context)
        with self._lock:
            self.answered.add(page)
        return reply


@pytest.mark.parametrize("parallelism", [1, 2])
def test_parallel_extraction_persists_completed_replies_on_any_exception(
        sample: dict, tmp_path: Path, parallelism: int) -> None:
    transport = FailingPageTransport(ReplayTransport(sample["fixture"]), failing_page=3)
    with pytest.raises(RuntimeError, match="read-only"):
        run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=parallelism),
                     transport, output_dir=tmp_path / "run")
    # With one or two workers, page 3 starts only after page 1 or 2 has answered.
    assert transport.answered
    if parallelism == 1:
        assert transport.answered == {1, 2}
    saved = json.loads((tmp_path / "run" / "analysis.json").read_text(encoding="utf-8"))
    assert saved["status"] == "partial"
    assert set(saved["raw_replies"]) == {f"page_{page}" for page in transport.answered}


def test_artifact_save_load_round_trip(completed: AnalysisArtifact, tmp_path: Path) -> None:
    path = tmp_path / "artifact.json"
    completed.path = path
    completed.save()
    completed.path = None
    loaded = load_artifact(path)
    assert loaded.status == "complete"
    assert loaded.llm_codebook.codes == completed.llm_codebook.codes
    assert loaded.llm_codebook.emerging_labels == completed.llm_codebook.emerging_labels
    assert [(t.name, t.member_labels, t.description, t.interpretation)
            for t in loaded.llm_codebook.themes] == [
        (t.name, t.member_labels, t.description, t.interpretation)
        for t in completed.llm_codebook.themes
    ]
    assert loaded.corpus_fingerprint == completed.corpus_fingerprint
    assert [r.level for r in loaded.trace.results] == [
        r.level for r in completed.trace.results
    ]


def test_completed_artifact_is_returned_without_new_requests(
        sample: dict, tmp_path: Path) -> None:
    out_dir = tmp_path / "run"
    run_sample(sample, out_dir)
    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    artifact = run_sample(sample, out_dir, transport=counting)
    assert artifact.status == "complete"
    assert counting.sent == 0


def test_interrupted_run_persists_partial_then_resumes(sample: dict, tmp_path: Path) -> None:
    out_dir = tmp_path / "run"
    flaky = CountingTransport(ReplayTransport(sample["fixture"]), fail_after=5)
    with pytest.raises(AnalysisInterrupted) as err:
        run_sample(sample, out_dir, transport=flaky)
    assert err.value.stage == "code_extraction"
    assert err.value.page == 6
    assert flaky.sent == 5

    partial = load_artifact(out_dir / "analysis.json")
    assert partial.status == "partial"
    assert len(partial.raw_replies) == 5

    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    resumed = run_sample(sample, out_dir, transport=counting)
    assert resumed.status == "complete"
    total_requests = len(sample["corpus"].pages) + 2
    assert counting.sent == total_requests - 5

    reference_dir = tmp_path / "reference"
    run_sample(sample, reference_dir)
    assert (out_dir / "analysis.json").read_bytes() == (
        reference_dir / "analysis.json").read_bytes()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_artifact_layout_round_trips_any_json_value(value) -> None:
    written = pipeline._layout(value)
    assert json.loads(written) == value
    assert json.loads(pipeline._layout({"section": {"field": [value, {"nested": value}]}})) == {
        "section": {"field": [value, {"nested": value}]}}


def test_artifact_layout_keeps_non_ascii_and_control_characters() -> None:
    value = {"raw_replies": {"page_1": "Ghana – “quoted”\n\t\x00\u2028 café"},
             "empty": {"list": [], "object": {}}, "codes": [{"a": [{"b": []}]}]}
    written = pipeline._layout(value)
    assert json.loads(written) == value
    assert "“quoted”" in written and "café" in written
    assert "\\u0000" in written and "\\n" in written


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


def reference_json(artifact: AnalysisArtifact) -> str:
    """The artifact as a tree of dicts and lists laid out by ``_layout``: the
    serializer that ``AnalysisArtifact.to_json`` must match byte for byte."""
    page_count = artifact.corpus_fingerprint.get("page_count", 0)
    order = [*(f"page_{number}" for number in range(1, page_count + 1)),
             "themes", "interpretations"]
    replies = {key: artifact.raw_replies[key] for key in order if key in artifact.raw_replies}
    replies.update(sorted(item for item in artifact.raw_replies.items() if item[0] not in replies))
    return pipeline._layout({
        "schema_version": artifact.schema_version,
        "status": artifact.status,
        "corpus": artifact.corpus_fingerprint,
        "config": artifact.config_snapshot,
        "created": artifact.created,
        "updated": artifact.updated,
        "raw_replies": replies,
        "notes": list(artifact.notes),
        "llm_codebook": _codebook_to_dict(artifact.llm_codebook) if artifact.llm_codebook else None,
        "trace": _trace_to_dict(artifact.trace) if artifact.trace else None,
    }) + "\n"


# Field values an artifact file may hold, as load_artifact admits them.
_TEXTS = st.text(max_size=12) | st.sampled_from(
    ["Ghana – “quoted” café", "\x00", "\u2028", '"', "\\", "\n\t", "\ud7ff\U0001f600"])
_SPANS = st.none() | st.lists(st.integers(), min_size=2, max_size=2).map(sorted)
_CODES = st.fixed_dictionaries(
    {"label": _TEXTS, "quote": _TEXTS, "page": st.none() | st.integers(min_value=1),
     "provenance": _TEXTS, "raw_span": _SPANS, "aliases": st.lists(_TEXTS, max_size=2)})
_THEMES = st.fixed_dictionaries(
    {"name": _TEXTS.map("Theme {}".format), "member_labels": st.lists(_TEXTS, max_size=3),
     "description": _TEXTS, "interpretation": st.none() | _TEXTS})
_RESULTS = st.fixed_dictionaries(
    {"level": st.sampled_from(LEVELS),
     "score": st.sampled_from([0, 1, 0.1, 1e-07, 5e-324]) | st.floats(0.0, 1.0),
     "matched_span": _SPANS, "notes": st.lists(_TEXTS, max_size=2)})


@st.composite
def artifact_data(draw) -> dict:
    """An artifact's JSON data, with or without a codebook and a trace."""
    codes = draw(st.lists(_CODES, max_size=4))
    for number, code in enumerate(codes):
        # A number of its own keeps each label's key apart from the others'.
        code["label"] = f"Code {number} {code['label']}"
    data = {
        "schema_version": 1, "status": draw(_TEXTS),
        "corpus": {**draw(st.dictionaries(_TEXTS, _JSON_VALUES, max_size=2)),
                   "source_path": draw(_TEXTS), "content_hash": draw(_TEXTS),
                   "page_size": draw(st.integers(min_value=1)),
                   "page_count": draw(st.integers(0, 3))},
        "config": draw(st.dictionaries(_TEXTS, _JSON_VALUES, max_size=3)),
        "created": draw(_TEXTS), "updated": draw(_TEXTS),
        "raw_replies": draw(st.dictionaries(
            st.sampled_from(["page_1", "page_2", "page_3", "themes", "interpretations"]) | _TEXTS,
            _TEXTS, max_size=5)),
        "notes": draw(st.lists(_TEXTS, max_size=3)),
    }
    data["llm_codebook"] = data["trace"] = None
    if draw(st.booleans()):
        data["llm_codebook"] = draw(st.fixed_dictionaries(
            {"coder_id": _TEXTS.map("coder {}".format), "provenance": _TEXTS,
             "codes": st.just(codes), "emerging_labels": st.none() | st.lists(_TEXTS, max_size=3),
             "themes": st.lists(_THEMES, max_size=3)}))
        if draw(st.booleans()):
            results = draw(st.lists(_RESULTS, min_size=len(codes), max_size=len(codes)))
            for code, result in zip(codes, results):
                result["label"] = code["label"]
            data["trace"] = {"threshold": draw(st.sampled_from([0, 1]) | st.floats(0.0, 1.0)),
                             "results": results}
    return data


@settings(max_examples=200, deadline=None)
@given(artifact_data())
def test_written_artifact_matches_the_reference_serializer(data: dict) -> None:
    artifact = AnalysisArtifact.from_dict(data)
    assert artifact.to_json() == reference_json(artifact)


def test_saved_artifact_matches_the_reference_serializer(
        completed: AnalysisArtifact, tmp_path: Path) -> None:
    target = completed.save(tmp_path / "analysis.json")
    completed.path = None
    assert target.read_text(encoding="utf-8") == reference_json(completed)


def test_saved_artifact_has_one_line_per_code_theme_and_trace_result(
        completed: AnalysisArtifact, tmp_path: Path) -> None:
    target = completed.save(tmp_path / "analysis.json")
    completed.path = None
    text = target.read_text(encoding="utf-8")
    data = json.loads(text)
    assert text.endswith("}\n")
    book = data["llm_codebook"]
    rows = [row.rstrip(",") for row in text.splitlines()]
    for entries in (book["codes"], book["themes"], data["trace"]["results"]):
        for entry in entries:
            assert rows.count("      " + pipeline._encode(entry)) == 1


@pytest.mark.parametrize("indent", [2, None, 4])
def test_partial_artifact_in_another_layout_resumes_to_a_fresh_runs_bytes(
        sample: dict, tmp_path: Path, indent: int | None) -> None:
    out_dir = tmp_path / "run"
    with pytest.raises(AnalysisInterrupted):
        run_sample(sample, out_dir,
                   transport=CountingTransport(ReplayTransport(sample["fixture"]), fail_after=5))
    artifact_path = out_dir / "analysis.json"
    written = artifact_path.read_text(encoding="utf-8")
    rewritten = json.dumps(json.loads(written), indent=indent, ensure_ascii=False) + "\n"
    # A partial artifact holds no value nested deep enough to go on one line,
    # so the old indent=2 layout and the current one are the same bytes.
    assert (rewritten == written) == (indent == 2)
    artifact_path.write_text(rewritten, encoding="utf-8")

    run_sample(sample, out_dir)
    run_sample(sample, tmp_path / "fresh")
    assert artifact_path.read_bytes() == (tmp_path / "fresh" / "analysis.json").read_bytes()


def test_old_indented_complete_artifact_loads_and_saves_in_the_current_layout(
        completed: AnalysisArtifact, tmp_path: Path) -> None:
    old = tmp_path / "old.json"
    old.write_text(json.dumps(json.loads(completed.to_json()), indent=2, ensure_ascii=False)
                   + "\n", encoding="utf-8")
    loaded = load_artifact(old)
    assert loaded.to_json() == completed.to_json()
    current = completed.save(tmp_path / "current.json")
    completed.path = None
    assert loaded.save(tmp_path / "resaved.json").read_bytes() == current.read_bytes()


def test_artifact_with_a_stray_comma_raises_schema_error_at_its_line_and_column(
        completed: AnalysisArtifact, tmp_path: Path) -> None:
    path = completed.save(tmp_path / "analysis.json")
    completed.path = None
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    line = next(number for number, text in enumerate(lines, 1) if '"raw_replies": {' in text)
    lines[line - 1] = lines[line - 1].replace("{", "{,")
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_artifact(path)
    column = lines[line - 1].index(",") + 1
    assert str(err.value).startswith(
        f"{path}: not valid JSON at line {line} column {column}: Expecting property name")


def _edited(data: dict, section: str, edit) -> str:
    """``data`` as JSON after ``edit`` changed one of its records in place."""
    book = data["llm_codebook"]
    edit({"artifact": data, "codes": book["codes"], "results": data["trace"]["results"]}[section])
    return json.dumps(data)


@pytest.mark.parametrize("damage, message", [
    (lambda data: "[]", "an artifact must be a JSON object"),
    (lambda data: json.dumps({**data, "raw_replies": []}),
     "raw_replies must be an object of strings, got []"),
    (lambda data: json.dumps({**data, "raw_replies": {"page_1": 7}}),
     "raw_replies.page_1 must be a string, got 7"),
    (lambda data: json.dumps({k: v for k, v in data.items() if k != "status"}),
     "status is missing"),
    (lambda data: json.dumps({**data, "llm_codebook": {
        **data["llm_codebook"], "codes": [{"quote": "q", "page": 1}]}}),
     "llm_codebook.codes[0].label is missing"),
    (lambda data: json.dumps({**data, "llm_codebook": {
        **data["llm_codebook"], "codes": [{"label": 3, "quote": "q", "page": 1}]}}),
     "llm_codebook.codes[0].label must be a string, got 3"),
    (lambda data: _edited(data, "codes", lambda codes: codes.insert(2, 7)),
     "llm_codebook.codes[2] must be an object, got 7"),
    (lambda data: _edited(data, "codes", lambda codes: codes[3].update(page=0)),
     "llm_codebook.codes[3]: page must be >= 1, got 0"),
    (lambda data: _edited(data, "codes", lambda codes: codes[1].update(label="Academic "
                                                                       "background of researcher")),
     "llm_codebook: labels 'Academic Background of Researcher' and 'Academic background of "
     "researcher' collide after normalization"),
    (lambda data: _edited(data, "results", lambda results: results[2].update(level="Close")),
     "trace.results[2]: unknown trace level 'Close'"),
    (lambda data: _edited(data, "results", list.pop),
     "trace.results must hold one result per code of llm_codebook (59), got 58"),
    (lambda data: _edited(data, "artifact", lambda artifact: artifact.update(llm_codebook=None)),
     "trace.results must hold one result per code of llm_codebook (0), got 59"),
    (lambda data: _edited(data, "results", lambda results: results[4].update(label="Other")),
     "trace.results[4].label must be its code's label 'Accidental Career Discovery', "
     "got 'Other'"),
    (lambda data: _edited(data, "results", lambda results: results.insert(0, results.pop(1))),
     "trace.results[0].label must be its code's label 'Academic Background of Researcher', "
     "got 'Confidentiality Assurance'"),
], ids=["not-an-object", "replies-list", "reply-number", "no-status",
        "no-label", "label-number", "code-number", "page-zero", "labels-collide",
        "level-unknown", "result-missing", "trace-without-codebook", "result-label",
        "results-reordered"])
def test_unreadable_artifact_raises_schema_error_naming_the_path(
        completed: AnalysisArtifact, tmp_path: Path, damage, message: str) -> None:
    path = tmp_path / "analysis.json"
    path.write_text(damage(json.loads(completed.to_json())), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_artifact(path)
    assert str(err.value) == f"{path}: {message}"


def test_each_request_of_a_replay_is_encoded_once(
        sample: dict, tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    hashed: list[bytes] = []

    def sha256(data: bytes):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(gateway, "hashlib", SimpleNamespace(sha256=sha256))
    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    # A config object no earlier request used, so no digest is remembered for it.
    run_analysis(sample["corpus"], sample["focus"], ModelConfig(), counting,
                 output_dir=tmp_path / "run")
    total_requests = len(sample["corpus"].pages) + 2
    assert counting.sent == total_requests == 18
    assert len(hashed) == total_requests
    assert len(set(hashed)) == total_requests


@pytest.fixture
def artifact_saves(monkeypatch) -> list[Path]:
    """Records the target of every AnalysisArtifact.save call."""
    saves: list[Path] = []
    original = AnalysisArtifact.save

    def counting_save(self, path=None):
        target = original(self, path)
        saves.append(target)
        return target

    monkeypatch.setattr(AnalysisArtifact, "save", counting_save)
    return saves


def test_artifact_is_written_once_per_run(sample: dict, tmp_path: Path,
                                          artifact_saves: list[Path]) -> None:
    run_sample(sample, tmp_path / "complete")
    assert artifact_saves == [tmp_path / "complete" / "analysis.json"]

    artifact_saves.clear()
    flaky = CountingTransport(ReplayTransport(sample["fixture"]), fail_after=5)
    with pytest.raises(AnalysisInterrupted):
        run_sample(sample, tmp_path / "interrupted", transport=flaky)
    assert artifact_saves == [tmp_path / "interrupted" / "analysis.json"]

    artifact_saves.clear()
    run_sample(sample, tmp_path / "interrupted")
    assert artifact_saves == [tmp_path / "interrupted" / "analysis.json"]


@pytest.fixture
def default_sigint():
    """Python's own SIGINT handler for the test, so that a SIGINT raises
    KeyboardInterrupt however the suite was started: a background job of a
    non-interactive shell starts Python with SIGINT ignored."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


def page_of(context: str) -> int | None:
    return int(context.split()[1]) if context.startswith("page ") else None


class InterruptingTransport:
    """Replay wrapper that sends this process SIGINT when one page is asked.

    In a parallel run that page sends the signal only once the next page's
    send has begun, so each worker has a request in flight.  Later pages
    wait for the signal, and every send from then on takes a while, so the
    interrupt reaches the main thread while the pages after those are queued.
    """

    kind = "replay"

    def __init__(self, inner: ReplayTransport, page: int, parallelism: int) -> None:
        self.inner = inner
        self.page = page
        self.parallel = parallelism > 1
        self.next_started = threading.Event()
        self.fired = threading.Event()
        self.sent = 0
        self._lock = threading.Lock()

    def send(self, config, messages, context=None):
        page = page_of(context)
        with self._lock:
            self.sent += 1
        if page == self.page:
            if self.parallel:
                self.next_started.wait(timeout=10)
            os.kill(os.getpid(), signal.SIGINT)
            self.fired.set()
        elif page is not None and page > self.page:
            if page == self.page + 1:
                self.next_started.set()
            self.fired.wait(timeout=10)
        if self.fired.is_set():
            time.sleep(0.3)
        return self.inner.send(config, messages, context)


@pytest.mark.usefixtures("default_sigint")
@pytest.mark.parametrize("parallelism", [1, 2])
def test_interrupt_stops_the_run_and_saves_the_artifact_once(
        sample: dict, tmp_path: Path, artifact_saves: list[Path], parallelism: int) -> None:
    out_dir = tmp_path / "run"
    interrupting = InterruptingTransport(ReplayTransport(sample["fixture"]), page=3,
                                         parallelism=parallelism)
    with pytest.raises(KeyboardInterrupt):
        run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=parallelism),
                     interrupting, output_dir=out_dir)
    # Queued pages never start: only the workers' requests were in flight.
    assert interrupting.sent == 2 + parallelism
    assert artifact_saves == [out_dir / "analysis.json"]
    partial = load_artifact(out_dir / "analysis.json")
    assert partial.status == "partial"
    cached = load_fixture(out_dir / "response_cache.json")
    assert set(partial.raw_replies.values()) <= {entry["response"] for entry in cached}

    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    assert run_sample(sample, out_dir, transport=counting).status == "complete"
    assert counting.sent == len(sample["corpus"].pages) + 2 - len(cached)


@pytest.mark.usefixtures("default_sigint")
def test_interrupted_parallel_run_saves_every_finished_page_reply(
        sample: dict, tmp_path: Path) -> None:
    out_dir = tmp_path / "run"
    interrupting = InterruptingTransport(ReplayTransport(sample["fixture"]), page=3,
                                         parallelism=2)
    with pytest.raises(KeyboardInterrupt):
        run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=2),
                     interrupting, output_dir=out_dir)
    partial = load_artifact(out_dir / "analysis.json")
    cached = load_fixture(out_dir / "response_cache.json")
    assert len(cached) == interrupting.sent == 4
    assert list(partial.raw_replies) == [f"page_{number}" for number in range(1, 5)]
    assert sorted(partial.raw_replies.values()) == sorted(entry["response"] for entry in cached)


@pytest.mark.usefixtures("default_sigint")
def test_interrupted_sequential_run_keeps_the_reply_in_flight(
        sample: dict, tmp_path: Path) -> None:
    out_dir = tmp_path / "run"
    interrupting = InterruptingTransport(ReplayTransport(sample["fixture"]), page=3,
                                         parallelism=1)
    with pytest.raises(KeyboardInterrupt):
        run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=1),
                     interrupting, output_dir=out_dir)
    partial = load_artifact(out_dir / "analysis.json")
    assert interrupting.sent == 3
    assert list(partial.raw_replies) == ["page_1", "page_2", "page_3"]


class PausingReplay(ReplayTransport):
    """Replay that pauses when one page is asked, long enough for worker
    threads to answer the pages after it; then it answers, or raises ``cut``."""

    def __init__(self, fixture_path: Path, page: int, cut: type | None = None) -> None:
        super().__init__(fixture_path)
        self.page = page
        self.cut = cut

    def send(self, config, messages, context=None):
        if page_of(context) == self.page:
            time.sleep(0.05)
            if self.cut:
                raise self.cut
        return super().send(config, messages, context)


def test_parallel_replays_write_the_same_response_cache(sample: dict, tmp_path: Path) -> None:
    for name in ("a", "b"):
        run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=2),
                     PausingReplay(sample["fixture"], page=1), output_dir=tmp_path / name)
    run_sample(sample, tmp_path / "sequential")
    cache = (tmp_path / "a" / "response_cache.json").read_bytes()
    assert (tmp_path / "b" / "response_cache.json").read_bytes() == cache
    # In request order, as a run at parallelism 1 writes it.
    assert (tmp_path / "sequential" / "response_cache.json").read_bytes() == cache


@pytest.mark.parametrize("parallelism", [1, 4])
def test_an_interrupted_replay_keeps_the_pages_before_it(
        sample: dict, tmp_path: Path, parallelism: int) -> None:
    clean = run_sample(sample, tmp_path / "clean")
    out_dir = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=parallelism),
                     PausingReplay(sample["fixture"], page=3, cut=KeyboardInterrupt),
                     output_dir=out_dir)
    # The pages are read in order on the calling thread: none after page 3 started.
    partial = load_artifact(out_dir / "analysis.json")
    assert partial.status == "partial"
    assert partial.raw_replies == {key: clean.raw_replies[key] for key in ("page_1", "page_2")}
    cached = load_fixture(out_dir / "response_cache.json")
    assert [entry["response"] for entry in cached] == list(partial.raw_replies.values())

    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    assert run_sample(sample, out_dir, transport=counting).status == "complete"
    assert counting.sent == len(sample["corpus"].pages) + 2 - len(cached)
    assert (out_dir / "analysis.json").read_bytes() == (
        tmp_path / "clean" / "analysis.json").read_bytes()


class HoldingTransport:
    """Replay wrapper whose given page sends SIGINT, then holds its reply until released."""

    kind = "replay"

    def __init__(self, inner: ReplayTransport, page: int) -> None:
        self.inner = inner
        self.page = page
        self.release = threading.Event()

    def send(self, config, messages, context=None):
        if page_of(context) == self.page:
            os.kill(os.getpid(), signal.SIGINT)
            self.release.wait(timeout=10)
        return self.inner.send(config, messages, context)


@pytest.mark.usefixtures("default_sigint")
def test_second_interrupt_during_shutdown_keeps_every_finished_page_reply(
        sample: dict, tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    pools: list[ThreadPoolExecutor] = []

    class CutShutdownPool(ThreadPoolExecutor):
        """Pool whose shutdown a second Ctrl-C cuts before it joins the workers."""

        def shutdown(self, wait=True, **kwargs):
            pools.append(self)
            raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CutShutdownPool)
    holding = HoldingTransport(ReplayTransport(sample["fixture"]), page=3)
    out_dir = tmp_path / "run"
    try:
        with pytest.raises(KeyboardInterrupt):
            run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=1),
                         holding, output_dir=out_dir)
        partial = load_artifact(out_dir / "analysis.json")
    finally:
        holding.release.set()
        for pool in pools:
            ThreadPoolExecutor.shutdown(pool)
    assert partial.status == "partial"
    # Page 3 was still in flight when the shutdown was cut.
    assert list(partial.raw_replies) == ["page_1", "page_2"]
    cached = {entry["response"] for entry in load_fixture(out_dir / "response_cache.json")}
    assert set(partial.raw_replies.values()) <= cached


class FailingPagesTransport:
    """Replay wrapper whose given pages raise ``error``; it logs every send.

    In a parallel run a failing page whose next page fails too waits until
    that one has failed, so the lowest failing page is not the first to fail.
    A send that starts after the first failure waits a while, so the failed
    worker has stopped the run before that send's worker could take another
    page.
    """

    kind = "replay"

    def __init__(self, inner: ReplayTransport, failing: set[int], error: type,
                 parallelism: int) -> None:
        self.inner = inner
        self.failing = failing
        self.error = error
        self.parallel = parallelism > 1
        self.next_failed = threading.Event()
        self.started: list[int] = []
        self.answered: set[int] = set()
        self.started_before_failure: int | None = None
        self._lock = threading.Lock()

    def send(self, config, messages, context=None):
        page = page_of(context)
        with self._lock:
            self.started.append(page)
            late = self.started_before_failure is not None
        if late:
            time.sleep(0.05)
        if page in self.failing:
            if self.parallel and page + 1 in self.failing:
                self.next_failed.wait(timeout=10)
            with self._lock:
                if self.started_before_failure is None:
                    self.started_before_failure = len(self.started)
            if page - 1 in self.failing:
                self.next_failed.set()
            raise self.error(f"synthetic failure on page {page}")
        reply = self.inner.send(config, messages, context)
        with self._lock:
            self.answered.add(page)
        return reply


@pytest.fixture
def frequent_thread_switches():
    """Switch threads every microsecond, so that races between workers show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("error", [FixtureMiss, RuntimeError])
@pytest.mark.parametrize("parallelism", [1, 2, 3, 4])
def test_a_failing_page_stops_parallel_extraction_at_the_lowest_page(
        sample: dict, tmp_path: Path, frequent_thread_switches, parallelism: int,
        error: type) -> None:
    page_count = len(sample["corpus"].pages)
    for first in (1, 6, page_count - 1, page_count):
        # Two neighbouring pages fail; in a parallel run the higher one fails first.
        failing = {first, first + 1} & set(range(1, page_count + 1))
        transport = FailingPagesTransport(ReplayTransport(sample["fixture"]), failing, error,
                                          parallelism)
        out_dir = tmp_path / f"from_{first}"
        with pytest.raises((AnalysisInterrupted, RuntimeError)) as raised:
            run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=parallelism),
                         transport, output_dir=out_dir)
        assert raised.type is (AnalysisInterrupted if error is FixtureMiss else RuntimeError)
        if error is FixtureMiss:
            assert raised.value.page == first
            assert isinstance(raised.value.cause, FixtureMiss)
        assert str(raised.value).endswith(f"synthetic failure on page {first}")

        saved = json.loads((out_dir / "analysis.json").read_text(encoding="utf-8"))
        assert saved["status"] == "partial"
        assert list(saved["raw_replies"]) == [f"page_{n}" for n in sorted(transport.answered)]
        # Pages are taken in order, each once, so every page before the first
        # failing one was asked.
        assert len(set(transport.started)) == len(transport.started)
        assert set(range(1, first)) <= transport.answered
        late_sends = len(transport.started) - transport.started_before_failure
        if parallelism == 1:
            assert transport.started == list(range(1, first + 1))
            assert late_sends == 0
        assert late_sends <= parallelism - 1


class WorkerSignalTransport:
    """Replay wrapper whose given page raises SIGINT in its own worker thread.

    By then the main thread is blocked in its wait, and a signal taken by
    another thread does not wake it, just as when a Ctrl-C lands while it is
    about to block: it sees the signal only when its wait returns.  Later
    pages take a while each, so a wait for all of them would return long
    after the signal.
    """

    kind = "replay"

    def __init__(self, inner: ReplayTransport, page: int) -> None:
        self.inner = inner
        self.page = page
        self.signalled_at: float | None = None

    def send(self, config, messages, context=None):
        page = page_of(context)
        if page == self.page:
            time.sleep(0.1)
            self.signalled_at = time.monotonic()
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)
        elif page is not None and page > self.page:
            time.sleep(0.2)
        return self.inner.send(config, messages, context)


def test_sigint_while_the_main_thread_waits_stops_the_run_within_one_slice(
        sample: dict, tmp_path: Path) -> None:
    handled_at: list[float] = []

    def on_sigint(signum, frame):
        handled_at.append(time.monotonic())
        raise KeyboardInterrupt

    transport = WorkerSignalTransport(ReplayTransport(sample["fixture"]), page=3)
    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=2),
                         transport, output_dir=tmp_path / "run")
    finally:
        signal.signal(signal.SIGINT, previous)
    # One slice, and as much again for the main thread to get scheduled.
    assert handled_at[0] - transport.signalled_at < 2 * WAIT_SLICE_S


class SessionHTTP:
    """``http_post`` double that answers from a recorded session.

    The request whose digest is ``fail_digest`` gets HTTP 500 every time.
    """

    def __init__(self, fixture: Path, config: ModelConfig,
                 fail_digest: str | None = None) -> None:
        self.replies = {entry["digest"]: entry["response"] for entry in load_fixture(fixture)}
        self.config = config
        self.fail_digest = fail_digest
        self.calls = 0

    def __call__(self, url: str, headers: dict, body: dict, timeout: float):
        self.calls += 1
        messages = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
        digest = request_digest(self.config, messages)
        if digest == self.fail_digest:
            return 500, None
        return 200, {"choices": [{"message": {"content": self.replies[digest]}}]}


def test_a_resumed_live_runs_response_cache_replays_the_whole_analysis(
        sample: dict, tmp_path: Path) -> None:
    config, out_dir = sample["config"], tmp_path / "out"
    cache_path = out_dir / "response_cache.json"
    prompt = default_library().render_code_extraction(sample["corpus"].pages[5], sample["focus"])
    page_6 = request_digest(config, (ChatMessage("system", prompt.system_message),
                                     ChatMessage("user", prompt.user_message)))
    session_size = len(load_fixture(sample["fixture"]))

    def send_live(http: SessionHTTP) -> AnalysisArtifact:
        live = LiveTransport(api_key="k", http_post=http, sleep=lambda seconds: None)
        return run_analysis(sample["corpus"], sample["focus"], config, live, output_dir=out_dir)

    with pytest.raises(AnalysisInterrupted) as stopped:
        send_live(SessionHTTP(sample["fixture"], config, fail_digest=page_6))
    assert stopped.value.page == 6
    assert len(load_fixture(cache_path)) == 5

    # The resume sends only what the first run lacked; the cache then holds every reply.
    http = SessionHTTP(sample["fixture"], config)
    assert send_live(http).status == "complete"
    assert http.calls == session_size - 5
    assert len(load_fixture(cache_path)) == session_size

    run_sample(sample, tmp_path / "clean")
    run_analysis(sample["corpus"], sample["focus"], config,
                 ReplayTransport(cache_path), output_dir=tmp_path / "replayed")
    assert ((tmp_path / "replayed" / "analysis.json").read_bytes()
            == (tmp_path / "clean" / "analysis.json").read_bytes())


class CacheCheckingTransport:
    """Replay wrapper that loads the response cache before every send."""

    kind = "replay"

    def __init__(self, inner: ReplayTransport, cache_path: Path) -> None:
        self.inner = inner
        self.cache_path = cache_path
        self.sent = 0

    def send(self, config, messages, context=None):
        cached = load_fixture(self.cache_path) if self.sent else []
        assert len(cached) == self.sent
        self.sent += 1
        return self.inner.send(config, messages, context)


def test_response_cache_is_a_valid_fixture_after_every_request(
        sample: dict, tmp_path: Path) -> None:
    out_dir = tmp_path / "run"
    cache_path = out_dir / "response_cache.json"
    checking = CacheCheckingTransport(ReplayTransport(sample["fixture"]), cache_path)
    run_sample(sample, out_dir, transport=checking)
    total_requests = len(sample["corpus"].pages) + 2
    assert checking.sent == total_requests
    replies = load_artifact(out_dir / "analysis.json").raw_replies
    assert [entry["response"] for entry in load_fixture(cache_path)] == list(replies.values())


@pytest.fixture
def tail_reads(monkeypatch: pytest.MonkeyPatch) -> list[Path]:
    """Paths whose fixture tail an append read and checked, in order."""
    reads: list[Path] = []
    check = gateway._fixture_end

    def counting(fd, path):
        reads.append(Path(path))
        return check(fd, path)

    monkeypatch.setattr(gateway, "_fixture_end", counting)
    return reads


def test_each_fixture_tail_is_read_once_per_run(
        sample: dict, tmp_path: Path, tail_reads: list[Path]) -> None:
    out_dir = tmp_path / "run"
    cache_path = out_dir / "response_cache.json"
    with pytest.raises(AnalysisInterrupted):
        run_sample(sample, out_dir,
                   transport=CountingTransport(ReplayTransport(sample["fixture"]), fail_after=5))
    # A missing cache is created; there is no tail to read.
    assert tail_reads == []

    # The resumed replay appends every other reply after one look at the tail.
    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    resumed = run_sample(sample, out_dir, transport=counting)
    total_requests = len(sample["corpus"].pages) + 2
    assert counting.sent == total_requests - 5
    assert tail_reads == [cache_path]
    assert ([entry["response"] for entry in load_fixture(cache_path)]
            == list(resumed.raw_replies.values()))


def test_each_run_opens_its_response_cache_once_and_closes_it(
        sample: dict, tmp_path: Path, fixture_opens: dict) -> None:
    out_dir = tmp_path / "run"
    cache_path = out_dir / "response_cache.json"

    def cache_descriptors() -> list[int]:
        return [fd for path, fd in fixture_opens["opened"] if path == cache_path]

    with pytest.raises(AnalysisInterrupted):
        run_sample(sample, out_dir,
                   transport=CountingTransport(ReplayTransport(sample["fixture"]), fail_after=5))
    # The first reply creates the cache; the four after it share one descriptor.
    first, = cache_descriptors()
    assert first in fixture_opens["closed"]
    fixture_opens["closed"].clear()
    run_sample(sample, out_dir)
    _, second = cache_descriptors()
    assert second in fixture_opens["closed"]
    assert len(load_fixture(cache_path)) == len(sample["corpus"].pages) + 2


# Runs run_analysis at parallelism 2 with a replay transport that answers
# ``quota`` requests and then blocks every further send for good.  When both
# workers are blocked, every answered reply has reached the response cache;
# the script then creates ``signal_path`` and waits to be killed.
_BLOCKING_RUN = """
import json, sys, threading
from pathlib import Path
from thematica.corpus import load_corpus
from thematica.gateway import ModelConfig, ReplayTransport
from thematica.pipeline import run_analysis
from thematica.promptkit import StudyFocus

samples, out_dir, signal_path = (Path(arg) for arg in sys.argv[1:4])
quota = int(sys.argv[4])
run_config = json.loads((samples / "run_config.json").read_text(encoding="utf-8"))


class BlockingTransport:
    kind = "replay"

    def __init__(self):
        self.inner = ReplayTransport(samples / "session.json")
        self.lock = threading.Lock()
        self.answered = self.blocked = 0

    def send(self, config, messages, context=None):
        with self.lock:
            if self.answered < quota:
                self.answered += 1
                return self.inner.send(config, messages, context)
            self.blocked += 1
            if self.blocked == config.parallelism:
                signal_path.write_text("blocked", encoding="utf-8")
        threading.Event().wait()


run_analysis(
    load_corpus(samples / "transcript.txt", page_size=run_config["page_size"]),
    StudyFocus(focus_description=run_config["focus_description"],
               research_question=run_config["research_question"]),
    ModelConfig(parallelism=2), BlockingTransport(), output_dir=out_dir)
"""


def test_killed_parallel_run_resends_only_requests_in_flight(
        sample: dict, tmp_path: Path) -> None:
    out_dir, signal_path = tmp_path / "run", tmp_path / "blocked"
    with (tmp_path / "child.log").open("w", encoding="utf-8") as log:
        child = subprocess.Popen(
            [sys.executable, "-c", _BLOCKING_RUN, str(sample["dir"]), str(out_dir),
             str(signal_path), "5"],
            env=source_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 60
            while not signal_path.exists():
                assert child.poll() is None, "the run ended before it blocked"
                assert time.monotonic() < deadline, "the run never blocked"
                time.sleep(0.05)
        finally:
            child.kill()
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    # Nothing but the cache was written while requests were answered.
    assert not (out_dir / "analysis.json").exists()
    cached = load_fixture(out_dir / "response_cache.json")
    assert len(cached) == 5

    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    resumed = run_sample(sample, out_dir, transport=counting)
    assert resumed.status == "complete"
    total_requests = len(sample["corpus"].pages) + 2
    assert counting.sent == total_requests - len(cached)

    reference_dir = tmp_path / "reference"
    run_sample(sample, reference_dir)
    assert (out_dir / "analysis.json").read_bytes() == (
        reference_dir / "analysis.json").read_bytes()


def test_interruption_during_theme_step_reports_stage(sample: dict, tmp_path: Path) -> None:
    pages = len(sample["corpus"].pages)
    flaky = CountingTransport(ReplayTransport(sample["fixture"]), fail_after=pages)
    with pytest.raises(AnalysisInterrupted) as err:
        run_sample(sample, tmp_path / "run", transport=flaky)
    assert err.value.stage == "theme_generation"
    assert err.value.page is None
    assert err.value.artifact.status == "partial"
    assert len(err.value.artifact.raw_replies) == pages


def test_missing_fixture_entry_interrupts_with_page(sample: dict, tmp_path: Path) -> None:
    empty_fixture = tmp_path / "empty.json"
    save_fixture(empty_fixture, [])
    with pytest.raises(AnalysisInterrupted) as err:
        run_sample(sample, tmp_path / "run", transport=ReplayTransport(empty_fixture))
    assert err.value.stage == "code_extraction"
    assert err.value.page == 1
    assert isinstance(err.value.cause, FixtureMiss)


# The reply keys of the sample's 18 requests, in the order a run sends them.
REQUEST_KEYS = [*(f"page_{number}" for number in range(1, 17)), "themes", "interpretations"]


class ThemeSignalTransport:
    """Send-only wrapper, not a ReplayTransport, that sends this process SIGINT
    inside the theme-generation send, waits a moment, then answers."""

    kind = "live"

    def __init__(self, inner: ReplayTransport) -> None:
        self.inner = inner

    def send(self, config, messages, context=None):
        if context == "theme generation":
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.2)
        return self.inner.send(config, messages, context)


@pytest.mark.usefixtures("default_sigint")
def test_an_interrupt_during_a_live_theme_request_keeps_its_reply(
        sample: dict, tmp_path: Path) -> None:
    out_dir = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        run_sample(sample, out_dir, ThemeSignalTransport(ReplayTransport(sample["fixture"])))
    partial = load_artifact(out_dir / "analysis.json")
    assert partial.status == "partial"
    assert list(partial.raw_replies) == REQUEST_KEYS[:17]
    cached = [entry["response"] for entry in load_fixture(out_dir / "response_cache.json")]
    assert cached == list(partial.raw_replies.values())

    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    assert run_sample(sample, out_dir, transport=counting).status == "complete"
    assert counting.sent == 1


class CutReplay(ReplayTransport):
    """Replay, answered on the calling thread, that raises FixtureMiss once it
    has answered ``quota`` requests."""

    def __init__(self, fixture_path: Path, quota: int) -> None:
        super().__init__(fixture_path)
        self.quota = quota

    def send(self, config, messages, context=None):
        if self.quota == 0:
            raise FixtureMiss(f"synthetic outage before {context}")
        self.quota -= 1
        return super().send(config, messages, context)


@pytest.fixture(scope="module")
def clean_bytes(sample: dict, tmp_path_factory) -> bytes:
    """The analysis.json of an uninterrupted replay of the sample."""
    out_dir = tmp_path_factory.mktemp("clean")
    run_sample(sample, out_dir)
    return (out_dir / "analysis.json").read_bytes()


@pytest.mark.parametrize("sender", ["calling_thread", "pool"])
@pytest.mark.parametrize("cut", range(len(REQUEST_KEYS)))
def test_a_run_cut_at_any_request_resumes_to_a_clean_runs_bytes(
        sample: dict, tmp_path: Path, clean_bytes: bytes, cut: int, sender: str) -> None:
    # A replay answers on the calling thread; a send-only wrapper goes through the pool.
    transport = (CutReplay(sample["fixture"], cut) if sender == "calling_thread"
                 else CountingTransport(ReplayTransport(sample["fixture"]), fail_after=cut))
    out_dir = tmp_path / "run"
    with pytest.raises(AnalysisInterrupted) as stopped:
        run_analysis(sample["corpus"], sample["focus"], ModelConfig(parallelism=1),
                     transport, output_dir=out_dir)
    expected = {16: ("theme_generation", None), 17: ("interpretation", None)}
    assert (stopped.value.stage, stopped.value.page) == expected.get(
        cut, ("code_extraction", cut + 1))
    assert isinstance(stopped.value.cause, FixtureMiss)
    assert list(load_artifact(out_dir / "analysis.json").raw_replies) == REQUEST_KEYS[:cut]

    counting = CountingTransport(ReplayTransport(sample["fixture"]))
    assert run_sample(sample, out_dir, transport=counting).status == "complete"
    assert counting.sent == len(REQUEST_KEYS) - cut
    assert (out_dir / "analysis.json").read_bytes() == clean_bytes


def test_resume_rejects_changed_corpus(sample: dict, tmp_path: Path) -> None:
    out_dir = tmp_path / "run"
    flaky = CountingTransport(ReplayTransport(sample["fixture"]), fail_after=3)
    with pytest.raises(AnalysisInterrupted):
        run_sample(sample, out_dir, transport=flaky)

    other_text = tmp_path / "other.txt"
    other_text.write_text("A different transcript.\n\nWith two paragraphs.\n", encoding="utf-8")
    other_corpus = load_corpus(other_text, page_size=10)
    with pytest.raises(ResumeMismatch):
        run_analysis(other_corpus, sample["focus"], sample["config"],
                     ReplayTransport(sample["fixture"]), output_dir=out_dir)

    resized = load_corpus(sample["dir"] / "transcript.txt", page_size=5)
    with pytest.raises(ResumeMismatch):
        run_analysis(resized, sample["focus"], sample["config"],
                     ReplayTransport(sample["fixture"]), output_dir=out_dir)


def test_resume_rejects_changed_model_config(sample: dict, tmp_path: Path) -> None:
    out_dir = tmp_path / "run"
    flaky = CountingTransport(ReplayTransport(sample["fixture"]), fail_after=3)
    with pytest.raises(AnalysisInterrupted):
        run_sample(sample, out_dir, transport=flaky)
    with pytest.raises(ResumeMismatch):
        run_analysis(sample["corpus"], sample["focus"], ModelConfig(temperature=0.7),
                     ReplayTransport(sample["fixture"]), output_dir=out_dir)


def test_six_step_coverage_for_model_output(completed: AnalysisArtifact) -> None:
    coverage = six_step_coverage(completed)["llm"]
    assert coverage.covered_count == 4
    assert coverage.stages["Keywords"] == "per-page code extraction"
    assert coverage.stages["Coding"] == "emerging-code list"
    assert coverage.stages["ThemeIdentification"] == "theme generation"
    assert coverage.stages["Conceptualization"] == "theme interpretation"
    assert coverage.stages["QuotationSelection"] == "not_covered"
    assert coverage.stages["ConceptualModel"] == "not_covered"


def test_six_step_coverage_for_human_codebooks(completed: AnalysisArtifact) -> None:
    codes = tuple(CodeRecord(label=f"Code {i}", quote="", page=None, provenance="human")
                  for i in range(3))
    themed = Codebook(coder_id="coder1", provenance="human", codes=codes,
                      themes=(ThemeRecord(name="Theme A", member_labels=("Code 0",)),))
    coverage = six_step_coverage(completed, human=themed)["coder1"]
    assert coverage.covered_count == 3
    assert coverage.stages["Conceptualization"] == "not_covered"

    interpreted = Codebook(
        coder_id="coder2", provenance="human", codes=codes,
        themes=(ThemeRecord(name="Theme A", member_labels=("Code 0",),
                            interpretation="They explained it at length."),))
    assert six_step_coverage(completed, human=interpreted)["coder2"].covered_count == 4


def test_six_step_coverage_requires_complete_artifact() -> None:
    partial = AnalysisArtifact(corpus_fingerprint={}, config_snapshot={})
    with pytest.raises(IncompleteArtifact):
        six_step_coverage(partial)


def test_compare_produces_consensus_statistics(
        sample: dict, completed: AnalysisArtifact) -> None:
    coder1 = load_human_codebook(sample["dir"] / "coder1.csv")
    matcher = Matcher(mode="alias_map",
                      alias_map=load_alias_map(sample["dir"] / "alias_map.csv"))
    bundle = compare(completed, [coder1], matcher)
    assert bundle.code_summary.count_a == 69
    assert bundle.code_summary.count_b == 59
    assert bundle.human_theme_count == 23
    assert bundle.llm_theme_count == 4
    assert bundle.emerging_label_count == 15
    assert 0 < bundle.pair_count <= 59
    assert bundle.human_overlap_pct == pytest.approx(
        bundle.pair_count * 100 / 69, abs=1e-9)
    assert bundle.llm_overlap_pct == pytest.approx(
        bundle.pair_count * 100 / 59, abs=1e-9)
    assert -1.0 <= bundle.kappa <= 1.0
    assert bundle.matrix.coder_ids == ("coder1", "genai")


def test_compare_requires_complete_artifact_and_codes(completed: AnalysisArtifact) -> None:
    partial = AnalysisArtifact(corpus_fingerprint={}, config_snapshot={})
    human = Codebook(coder_id="h", provenance="human", codes=(
        CodeRecord(label="One", quote="", page=None, provenance="human"),))
    with pytest.raises(IncompleteArtifact):
        compare(partial, [human], Matcher())
    hollow = Codebook(coder_id="h", provenance="human")
    with pytest.raises(EmptyCodebook):
        compare(completed, [hollow], Matcher())


@pytest.mark.parametrize("count", [0, 3])
def test_compare_takes_one_or_two_coders(completed: AnalysisArtifact, count: int) -> None:
    human = Codebook(coder_id="h", provenance="human", codes=(
        CodeRecord(label="One", quote="", page=None, provenance="human"),))
    with pytest.raises(ValueError, match=f"one or two human codebooks, got {count}"):
        compare(completed, [human] * count, Matcher())


def test_quantity_parity_note_when_emerging_list_equals_theme_count(
        completed: AnalysisArtifact) -> None:
    labels = [f"Theme {i}" for i in range(15)]
    human = Codebook(
        coder_id="avg", provenance="human-merged",
        codes=tuple(CodeRecord(label=f"Code {i}", quote="", page=None, provenance="human")
                    for i in range(40)),
        themes=tuple(ThemeRecord(name=name) for name in labels),
    )
    bundle = compare(completed, [human], Matcher())
    assert bundle.emerging_vs_human_pct == pytest.approx(100.0)
    assert any("quantity parity" in note for note in bundle.notes)

"""Command-line behavior: exit codes, output lines, and config precedence."""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import source_env
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import thematica
import thematica.cli
import thematica.codebook
import thematica.gateway
from thematica import errors
from thematica.cli import main
from thematica.corpus import load_corpus
from thematica.gateway import (
    ChatMessage,
    ModelConfig,
    ReplayTransport,
    load_fixture,
    request_digest,
)
from thematica.pipeline import load_artifact
from thematica.trace import verify_codebook

SAMPLES = Path(thematica.__file__).parent / "samples"


@pytest.fixture(scope="module")
def analyzed_workspace(tmp_path_factory) -> Path:
    workspace = tmp_path_factory.mktemp("cli") / "samples"
    shutil.copytree(SAMPLES, workspace)
    previous = os.getcwd()
    os.chdir(workspace)
    try:
        assert main(["--config", "run_config.json", "analyze"]) == 0
    finally:
        os.chdir(previous)
    return workspace


def copy_workspace(source: Path, destination: Path) -> Path:
    shutil.copytree(source, destination)
    return destination


def test_analyze_reports_counts_and_writes_outputs(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(sample_workspace)
    assert main(["--config", "run_config.json", "analyze"]) == 0
    out = capsys.readouterr().out
    assert "analysis complete: 59 codes, 15 emerging labels, 4 themes" in out
    assert (sample_workspace / "out" / "analysis.json").exists()
    assert (sample_workspace / "out" / "report.md").exists()
    assert (sample_workspace / "out" / "codes.csv").exists()


def test_the_sample_replay_writes_the_reference_artifact_bytes(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    # Replayed as the README's Quick start replays it, so corpus.source_path is
    # transcript.txt.  Two runs of one writer agree even when both change the
    # layout; these bytes change only when the reference is changed too.
    monkeypatch.chdir(sample_workspace)
    assert main(["--config", "run_config.json", "analyze"]) == 0
    written = (sample_workspace / "out" / "analysis.json").read_bytes()
    assert len(written) == 45_603
    assert hashlib.sha256(written).hexdigest() == (
        "2eb93dd919d6c98dd2eff0cfa3464b97e281e9ce55df5fcb9dcbb445e0180431")


def test_second_analyze_resumes_completed_artifact(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(analyzed_workspace)
    assert main(["--config", "run_config.json", "analyze"]) == 0
    assert "analysis complete: 59 codes" in capsys.readouterr().out


def test_live_transport_requires_credential(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(sample_workspace)
    monkeypatch.delenv("THEMATICA_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    assert main(["--config", "run_config.json", "analyze", "--live"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "THEMATICA_API_KEY" in err


def test_a_live_runs_response_cache_replays_the_same_artifact(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(sample_workspace)
    monkeypatch.setenv("THEMATICA_API_KEY", "k")
    session = load_fixture(sample_workspace / "session.json")
    replies = {entry["digest"]: entry["response"] for entry in session}

    def http_post(url: str, headers: dict, body: dict, timeout: float):
        messages = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
        return 200, {"choices": [{"message": {
            "content": replies[request_digest(ModelConfig(), messages)]}}]}

    monkeypatch.setattr("thematica.gateway._requests_post", http_post)
    for argv in (["--output-dir", "live", "analyze", "--live"],
                 ["--output-dir", "replayed", "analyze", "--replay", "live/response_cache.json"],
                 ["--output-dir", "clean", "analyze"]):
        assert main(["--config", "run_config.json", *argv]) == 0
    assert load_fixture(sample_workspace / "live" / "response_cache.json") == session
    assert ((sample_workspace / "replayed" / "analysis.json").read_bytes()
            == (sample_workspace / "clean" / "analysis.json").read_bytes())


@pytest.mark.parametrize("finish, expected, kept, messages", [
    ({"finish_reason": "stop"}, 0, True, ()),
    ({}, 0, True, ()),
    ({"finish_reason": "length"}, 1, False, (
        "analysis interrupted during code_extraction at page 1: reply stopped at the "
        "max_tokens limit of 1000 (page 1 code extraction)",
        "a rerun fails the same way: raise max_tokens")),
    ({"finish_reason": "content_filter"}, 1, False, (
        "analysis interrupted during code_extraction at page 1: the endpoint's content "
        "filter stopped the reply (page 1 code extraction)",
        "a rerun fails the same way: remove the cause above")),
], ids=["stop", "absent", "length", "content_filter"])
def test_a_reply_cut_at_max_tokens_exits_1_and_is_not_cached(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        finish: dict, expected: int, kept: bool, messages: tuple[str, ...]) -> None:
    monkeypatch.chdir(sample_workspace)
    monkeypatch.setenv("THEMATICA_API_KEY", "k")
    replies = {entry["digest"]: entry["response"]
               for entry in load_fixture(sample_workspace / "session.json")}
    posts: list[dict] = []

    def http_post(url: str, headers: dict, body: dict, timeout: float):
        posts.append(body)
        messages = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
        content = replies[request_digest(ModelConfig(), messages)]
        return 200, {"choices": [{"message": {"content": content}, **finish}]}

    monkeypatch.setattr("thematica.gateway._requests_post", http_post)
    assert main(["--config", "run_config.json", "analyze", "--live"]) == expected
    cache = sample_workspace / "out" / "response_cache.json"
    assert cache.exists() is kept
    if kept:
        assert len(load_fixture(cache)) == len(posts) == len(replies)
        return
    # One request and no retry: the same request would be cut again.
    assert len(posts) == 1
    err = capsys.readouterr().err
    for message in messages:
        assert message in err


def test_analyze_without_input_fails_cleanly(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    code = main(["analyze", "--focus", "f", "--research-question", "q",
                 "--replay", "missing.json"])
    assert code == 1
    assert "input document is required" in capsys.readouterr().err


def test_missing_input_file_is_a_clean_error(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    code = main(["analyze", "--input", "absent.txt", "--focus", "f",
                 "--research-question", "q", "--replay", "missing.json"])
    assert code == 1
    assert "file not found" in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    (lambda tmp: Path("absent.txt"), "error: file not found: {path}\n"),
    (lambda tmp: tmp, "error: {path}: Is a directory\n"),
], ids=["missing", "directory"])
def test_an_unreadable_transcript_is_one_line_naming_it(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys, make, message: str) -> None:
    monkeypatch.chdir(tmp_path)
    path = make(tmp_path)
    code = main(["analyze", "--input", str(path), "--focus", "f",
                 "--research-question", "q", "--replay", "missing.json"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == message.format(path=path)
    assert captured.out == ""


def test_incomplete_fixture_exits_partial_and_retains_artifact(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(sample_workspace)
    (sample_workspace / "broken.json").write_text("[]", encoding="utf-8")
    code = main(["--config", "run_config.json", "analyze", "--replay", "broken.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert "analysis interrupted during code_extraction at page 1" in err
    assert "partial artifact retained" in err
    artifact = json.loads((sample_workspace / "out" / "analysis.json").read_text())
    assert artifact["status"] == "partial"


@pytest.mark.parametrize("page_count", ["16", True, -1, 16.0])
def test_a_page_count_that_is_not_a_count_is_one_line_and_leaves_the_artifact_alone(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        page_count: object) -> None:
    monkeypatch.chdir(sample_workspace)
    (sample_workspace / "broken.json").write_text("[]", encoding="utf-8")
    assert main(["--config", "run_config.json", "analyze", "--replay", "broken.json"]) == 2
    artifact_path = sample_workspace / "out" / "analysis.json"
    data = json.loads(artifact_path.read_text(encoding="utf-8"))
    data["corpus"]["page_count"] = page_count
    artifact_path.write_text(json.dumps(data), encoding="utf-8")
    edited = artifact_path.read_bytes()
    capsys.readouterr()

    assert main(["--config", "run_config.json", "analyze"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: out/analysis.json: corpus.page_count must be a "
                            f"non-negative int, got {page_count!r}\n")
    assert artifact_path.read_bytes() == edited


class ScriptedTransport:
    """Answers every code-extraction request from a script, without a fixture."""

    kind = "replay"

    def __init__(self, answer) -> None:
        self.answer = answer
        self.sent = 0

    def send(self, config, messages, context=None):
        self.sent += 1
        if isinstance(self.answer, Exception):
            raise self.answer
        page = int(context.split()[1])
        return self.answer.format(page=page)


REMOVE_THE_CAUSE = "remove the cause above before rerunning"
CORRECT_THE_REPLY = ("the model replies are persisted and are reused on resume; correct the "
                     "offending reply under raw_replies in out/analysis.json, or revise the "
                     "prompt templates and analyze into a fresh output directory")

# The outcome of an analysis stopped by each error class in errors.py, written
# out here rather than read from the classes: exit 2 with "rerun to resume"
# for the four failures that leave no reply behind, and for every other class
# exit 1 with the advice after "a rerun fails the same way: ".
# AnalysisInterrupted has no row: run_analysis raises it around the error
# that stopped the run, so it is never the cause that analyze reports.
INTERRUPTIONS = [
    ("transport", errors.TransportError("connection reset"), 2, None),
    ("rate-limit", errors.RateLimited("HTTP 429 after 5 attempts"), 2, None),
    ("malformed", errors.MalformedResponse("response has no choices"), 2, None),
    ("fixture-miss", errors.FixtureMiss("no fixture entry"), 2, None),
    ("auth", errors.AuthError("endpoint rejected credential (HTTP 401)"), 1,
     "set a valid credential in THEMATICA_API_KEY (or OPENAI_API_KEY)"),
    ("truncated", errors.ReplyTruncated("reply stopped at the max_tokens limit of 1000"), 1,
     "raise max_tokens (--max-tokens or model.max_tokens in the config file) and analyze "
     "into a fresh output directory: max_tokens is part of the artifact's configuration, "
     "so out/analysis.json refuses a new value"),
    ("no-records", errors.NoRecordsFound("reply contained no code list"), 1, CORRECT_THE_REPLY),
    ("duplicate", errors.DuplicateLabel("labels 'A' and 'a' collide"), 1, CORRECT_THE_REPLY),
    ("parse", "I am sorry, I cannot code this page.", 1, CORRECT_THE_REPLY),
    ("consolidation", '1. **Family Support**: "we moved" - Page {page}', 1, CORRECT_THE_REPLY),
    ("schema", errors.SchemaError("reply does not match the expected schema"), 1,
     REMOVE_THE_CAUSE),
    ("rejected", errors.RequestRejected("endpoint rejected the request (HTTP 400)"), 1,
     REMOVE_THE_CAUSE),
    *((error.__name__, error(f"a {error.__name__}"), 1, REMOVE_THE_CAUSE) for error in (
        errors.ThematicaError, errors.DecodeError, errors.EmptyDocument,
        errors.InvalidPageSize, errors.PageOutOfRange, errors.EmptyPromptInput,
        errors.TemplateError, errors.FixtureCorrupt, errors.EmptyCodebook,
        errors.AliasChain, errors.InconsistentMatch, errors.AgreementInputError,
        errors.ResumeMismatch, errors.IncompleteArtifact, errors.ConfigError)),
]


@pytest.mark.parametrize("answer, expected, advice",
                         [row[1:] for row in INTERRUPTIONS], ids=[row[0] for row in INTERRUPTIONS])
def test_interrupted_analysis_exits_2_only_when_a_rerun_can_help(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        answer, expected: int, advice: str | None) -> None:
    defined = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.ThematicaError)}
    assert {type(row[1]) for row in INTERRUPTIONS if isinstance(row[1], Exception)} == (
        defined - {errors.AnalysisInterrupted})

    transport = ScriptedTransport(answer)
    monkeypatch.setattr(thematica.cli, "_resolve_transport", lambda config: transport)
    monkeypatch.chdir(sample_workspace)
    assert main(["--config", "run_config.json", "analyze"]) == expected
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("analysis interrupted during ")
    if expected == 2:
        assert err[1:] == ["partial artifact retained at out/analysis.json; rerun to resume"]
        return
    assert err[1:] == ["partial artifact retained at out/analysis.json",
                       f"a rerun fails the same way: {advice}"]

    # The replies that caused the failure are persisted, so a rerun repeats
    # it without another request.
    if not isinstance(answer, Exception):
        sent = transport.sent
        assert main(["--config", "run_config.json", "analyze"]) == 1
        assert transport.sent == sent


class ThemeReplyTransport:
    """Replays the sample's code extraction and answers the theme and
    interpretation requests with the test's replies."""

    kind = "replay"

    def __init__(self, replies: dict[str, str]) -> None:
        self.inner = ReplayTransport("session.json")
        self.replies = replies
        self.sent = 0

    def send(self, config, messages, context=None):
        self.sent += 1
        if context in self.replies:
            return self.replies[context]
        return self.inner.send(config, messages, context)


@pytest.mark.parametrize("themes, expected", [
    ("### Theme 1: Motivations\n- **Curiosity-driven Migration**\n\n"
     "### Theme 2: ...\n- **Family Support**\n", 0),
    ("### Theme 1: **\n- **Family Support**\n", 1),
], ids=["one-named", "none-named"])
def test_a_nameless_theme_header_never_ends_in_a_traceback(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        themes: str, expected: int) -> None:
    monkeypatch.chdir(sample_workspace)
    transport = ThemeReplyTransport({
        "theme generation": themes,
        "interpretation": "Theme 1: Motivations\n\nWhy they left.\n",
    })
    monkeypatch.setattr(thematica.cli, "_resolve_transport", lambda config: transport)
    artifact_path = sample_workspace / "out" / "analysis.json"
    assert main(["--config", "run_config.json", "analyze"]) == expected
    err = capsys.readouterr().err
    first = artifact_path.read_bytes()
    sent = transport.sent
    if expected == 0:
        notes = json.loads(first)["notes"]
        assert "themes line 4: invalid_theme: theme name must be non-empty; excluded" in notes
    else:
        assert ("analysis interrupted during theme_generation: "
                "reply contained no named theme header") in err
        assert "a rerun fails the same way" in err
    # The rerun reads the saved replies, sends nothing and ends the same way.
    assert main(["--config", "run_config.json", "analyze"]) == expected
    assert transport.sent == sent
    assert artifact_path.read_bytes() == first


@pytest.mark.parametrize("reply, stop", [
    ("I cannot help with that.",
     "consolidation at page 3: reply contained no recognizable code structure"),
    ('1. **Family Support**: "we moved" - Page 3\n2. **Family support**: "we left" - Page 3',
     "consolidation: labels 'Family Support' and 'Family support' collide after normalization"),
], ids=["refusal", "duplicate"])
def test_a_consolidation_stop_names_the_page_whose_reply_stopped_it(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        reply: str, stop: str) -> None:
    # Colliding labels are found once every page is read, so they name no page.
    monkeypatch.chdir(sample_workspace)
    transport = ThemeReplyTransport({"page 3 code extraction": reply})
    monkeypatch.setattr(thematica.cli, "_resolve_transport", lambda config: transport)
    assert main(["--config", "run_config.json", "analyze"]) == 1
    assert capsys.readouterr().err.splitlines()[0] == f"analysis interrupted during {stop}"


class CtrlCReplay(ReplayTransport):
    """Replay whose third request is cut by a Ctrl-C."""

    def __init__(self, fixture_path: str) -> None:
        super().__init__(fixture_path)
        self.sent = 0

    def send(self, config, messages, context=None):
        self.sent += 1
        if self.sent == 3:
            raise KeyboardInterrupt
        return super().send(config, messages, context)


def test_a_ctrl_c_during_analyze_is_one_line_and_exit_130_then_a_rerun_resumes(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(sample_workspace)
    assert main(["--config", "run_config.json", "--output-dir", "clean", "analyze"]) == 0
    transport = CtrlCReplay("session.json")
    monkeypatch.setattr(thematica.cli, "_resolve_transport", lambda config: transport)
    capsys.readouterr()
    assert main(["--config", "run_config.json", "analyze"]) == 130
    assert capsys.readouterr().err == ("analysis interrupted by Ctrl-C: partial artifact "
                                       "retained at out/analysis.json; rerun to resume\n")
    assert list(load_artifact("out/analysis.json").raw_replies) == ["page_1", "page_2"]
    # The rerun sends the third request again, and every one after it.
    assert main(["--config", "run_config.json", "analyze"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert Path("out/analysis.json").read_bytes() == Path("clean/analysis.json").read_bytes()


def test_a_ctrl_c_in_any_other_command_is_one_line_and_exit_130(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(sample_workspace)
    assert main(["--config", "run_config.json", "analyze"]) == 0

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(thematica.cli, "verify_codebook", interrupted)
    capsys.readouterr()
    assert main(["--config", "run_config.json", "verify"]) == 130
    assert capsys.readouterr().err == "interrupted\n"


# What "transport": "record" in a config prints: the response cache of a
# --live run is its replay fixture.
RECORD_RETIRED = ("--record is retired: analyze with --live, then rerun offline with "
                  "--replay OUTPUT_DIR/response_cache.json")


@pytest.fixture
def posts(monkeypatch: pytest.MonkeyPatch) -> list[dict]:
    """The bodies of the live requests a test sends, with a credential set."""
    sent: list[dict] = []
    monkeypatch.setenv("THEMATICA_API_KEY", "k")
    monkeypatch.setattr("thematica.gateway._requests_post",
                        lambda url, headers, body, timeout: sent.append(body) or (500, None))
    return sent


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--parallelism", "0"], "parallelism must be in 1..8, got 0"),
    (["analyze", "--temperature", "5"], "temperature must be in [0, 2], got 5.0"),
    (["analyze", "--max-tokens", "0"], "max_tokens must be >= 1, got 0"),
    (["analyze", "--timeout", "0"], "timeout must be positive"),
    (["analyze", "--trace-threshold", "2"], "trace_threshold must be in [0, 1], got 2.0"),
    (["analyze", "--trace-threshold=-1"], "trace_threshold must be in [0, 1], got -1.0"),
    (["compare", "--human", "coder1.csv", "--matcher", "token_overlap",
      "--jaccard-threshold", "0"], "jaccard_threshold must be in (0, 1], got 0.0"),
    (["--output-dir", "fresh", "analyze", "--record", "x.json"],
     "thematica: error: unrecognized arguments: --record x.json"),
], ids=["parallelism", "temperature", "max-tokens", "timeout", "trace-threshold-high",
        "trace-threshold-negative", "jaccard-threshold", "retired-record-flag"])
def test_out_of_range_options_are_configuration_errors(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys, posts: list[dict],
        argv: list[str], message: str) -> None:
    monkeypatch.chdir(analyzed_workspace)
    argv = ["--config", "run_config.json", *argv]
    if message.startswith("thematica: error:"):
        # The retired --record is no option at all: argparse's usage error, which exits 1.
        with pytest.raises(SystemExit) as usage_error:
            main(argv)
        assert usage_error.value.code == 1
        expected = f"{thematica.cli._build_parser(argv).format_usage()}{message}\n"
    else:
        assert main(argv) == 1
        expected = f"configuration error: {message}\n"
    captured = capsys.readouterr()
    assert captured.err == expected
    assert captured.out == ""
    assert posts == []


def test_compare_requires_a_human_codebook(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(analyzed_workspace)
    assert main(["--config", "run_config.json", "compare"]) == 1
    assert "human codebook" in capsys.readouterr().err


def test_alias_matcher_requires_map_path(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(analyzed_workspace)
    code = main(["compare", "--artifact", "out/analysis.json",
                 "--human", "coder1.csv", "--matcher", "alias_map"])
    assert code == 1
    assert "--alias-map" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"from_label,to_label\nA,B\nB,C\n", "error: alias target 'B' is itself aliased to 'C'"),
    (b"from_label,to_label\n\xff,B\n",
     "error: aliases.csv is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"),
], ids=["chained", "not-utf-8"])
def test_unusable_alias_map_is_a_one_line_error(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        content: bytes, message: str) -> None:
    monkeypatch.chdir(analyzed_workspace)
    Path("aliases.csv").write_bytes(content)
    code = main(["compare", "--artifact", "out/analysis.json", "--human", "coder1.csv",
                 "--matcher", "alias_map", "--alias-map", "aliases.csv"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert captured.out == ""


HUMAN_HEADER = "coder_id,theme,code_label,supporting_quote,page\n"
LONG_NAME = " ".join(["Overlong"] * 25)


@pytest.mark.parametrize("files, argv, message", [
    ({"h1.csv": HUMAN_HEADER + "h1,,Curiosity,,0\n"}, ["compare", "--human", "h1.csv"],
     "error: h1.csv:2: page must be >= 1, got 0"),
    ({"h1.csv": HUMAN_HEADER + f"h1,,{LONG_NAME},,\n"}, ["compare", "--human", "h1.csv"],
     f"error: h1.csv:2: code label exceeds 200 characters: {LONG_NAME[:40]}..."),
    ({"h1.csv": HUMAN_HEADER + f"h1,{LONG_NAME},Curiosity,,\n",
      "h2.csv": HUMAN_HEADER + "h2,Theme,Curiosity,,\n"},
     ["compare", "--human", "h1.csv", "--human", "h2.csv"],
     "error: h1.csv:2: theme name exceeds 200 characters"),
    ({"h1.csv": HUMAN_HEADER + "h1,,Family,,\nh1,,family,,\n"}, ["compare", "--human", "h1.csv"],
     "error: h1.csv:3: code label 'family' collides with 'Family' (line 2) after normalization"),
    ({"h1.csv": HUMAN_HEADER + "h1,Family,Curiosity,,\nh1,family,Peers,,\n",
      "h2.csv": HUMAN_HEADER + "h2,Theme,Curiosity,,\n"},
     ["compare", "--human", "h1.csv", "--human", "h2.csv"],
     "error: h1.csv:3: theme name 'family' collides with 'Family' (line 2) after normalization"),
    ({"h1.csv": (HUMAN_HEADER + "h1,,Curios\xffity,,\n").encode("latin-1")},
     ["compare", "--human", "h1.csv"],
     "error: h1.csv is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 58"),
    ({"h1.csv": HUMAN_HEADER + "h1,Theme,Curiosity,,\n", "notes.txt": b"Theme: \xff\n"},
     ["compare", "--human", "h1.csv", "--interpretations", "notes.txt"],
     "error: notes.txt is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 7"),
    ({"templates/interpretation.txt": b"{themes} \xff\n"},
     ["analyze", "--template-dir", "templates"],
     "error: templates/interpretation.txt is not valid UTF-8: 'utf-8' codec can't decode "
     "byte 0xff in position 9"),
], ids=["page-0", "long-label", "long-theme-name", "colliding-labels", "colliding-theme-names",
        "csv-not-utf-8", "sidecar-not-utf-8", "template-not-utf-8"])
def test_malformed_human_inputs_and_templates_are_one_line_errors(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        files: dict, argv: list[str], message: str) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "workspace")
    monkeypatch.chdir(workspace)
    if any(name.startswith("templates/") for name in files):
        shutil.copytree(SAMPLES.parent / "templates", "templates")
    for name, content in files.items():
        if isinstance(content, str):
            content = content.encode("utf-8")
        Path(name).write_bytes(content)
    assert main(["--config", "run_config.json", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("name, argv", [
    ("transcript.txt", ["verify"]),
    ("coder1.csv", ["compare", "--human", "coder1.csv", "--human", "coder2.csv"]),
    ("alias_map.csv", ["compare", "--human", "coder1.csv", "--human", "coder2.csv"]),
    ("out/analysis.json", ["verify"]),
], ids=["transcript", "coder-csv", "alias-map", "artifact"])
def test_a_utf8_byte_order_mark_is_not_text(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        name: str, argv: list[str]) -> None:
    # Spreadsheet programs start a "CSV UTF-8" file with one; a transcript
    # with one still has the content hash the artifact recorded.
    workspace = copy_workspace(analyzed_workspace, tmp_path / "workspace")
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", *argv]) == 0
    without = capsys.readouterr()
    Path(name).write_bytes(b"\xef\xbb\xbf" + Path(name).read_bytes())
    assert main(["--config", "run_config.json", *argv]) == 0
    assert capsys.readouterr() == without


def test_a_session_with_a_byte_order_mark_replays_the_same_artifact(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(sample_workspace)
    assert main(["--config", "run_config.json", "--output-dir", "clean", "analyze"]) == 0
    Path("marked.json").write_bytes(b"\xef\xbb\xbf" + Path("session.json").read_bytes())
    assert main(["--config", "run_config.json", "--output-dir", "marked", "analyze",
                 "--replay", "marked.json"]) == 0
    assert (Path("marked/analysis.json").read_bytes()
            == Path("clean/analysis.json").read_bytes())


def test_an_artifact_that_is_not_utf_8_is_one_line_naming_it(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
        capsys) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "workspace")
    monkeypatch.chdir(workspace)
    Path("out/analysis.json").write_bytes(b"\xff" + Path("out/analysis.json").read_bytes())
    assert main(["--config", "run_config.json", "verify"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out/analysis.json is not valid UTF-8: 'utf-8' codec "
                                   "can't decode byte 0xff in position 0")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_alias_matcher_computes_each_alias_key_once(monkeypatch: pytest.MonkeyPatch) -> None:
    keys: list[str] = []
    label_key = thematica.codebook.label_key

    def counted(label: str) -> str:
        keys.append(label)
        return label_key(label)

    monkeypatch.setattr(thematica.codebook, "label_key", counted)
    matcher = thematica.cli._build_matcher(thematica.cli.RunConfig(
        matcher="alias_map", alias_map=str(SAMPLES / "alias_map.csv")))
    # One key per source label and one per target label of the 117 rows.
    assert len(matcher.alias_map) == 117
    assert len(keys) == 2 * len(matcher.alias_map)


def test_compare_two_coders_prints_agreement_summary(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(analyzed_workspace)
    code = main(["--config", "run_config.json", "compare",
                 "--human", "coder1.csv", "--human", "coder2.csv",
                 "--paper-reference", "paper_reference.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert ("compared 67 human codes with 59 model codes: "
            "difference 11.94%, similarity 88.06%") in out
    assert "merged codebook: 104 codes (67 similar counted once)" in out
    assert "note: table1.merged_codes: computed 104 differs from the reference value 106" in out
    assert (analyzed_workspace / "out" / "matrix.csv").exists()
    assert (analyzed_workspace / "out" / "summary.csv").exists()


def test_an_undefined_similar_count_share_is_printed_without_a_percent_sign(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
        capsys) -> None:
    # Token overlap pairs 3 of 69 and 102 codes, so the similar count exceeds
    # the total and its share is undefined.
    workspace = copy_workspace(analyzed_workspace, tmp_path / "workspace")
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", "compare", "--matcher", "token_overlap",
                 "--human", "coder1.csv", "--human", "coder2.csv"]) == 0
    out = capsys.readouterr().out
    assert ("note: similar-count share 118/62 = undefined differs from the formula-based "
            "similarity 1966.67%\n") in out
    report = (workspace / "out" / "report.md").read_text(encoding="utf-8")
    assert "- similar-count share 118/62 = undefined differs from" in report


@pytest.mark.parametrize("labels", [("Curiosity", "Curiosity-driven Migration"),
                                    ("Curiosity-driven Migration", "Curiosity")])
def test_compare_with_an_alias_and_its_target_in_both_codebooks(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        labels: tuple[str, str]) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "workspace")
    monkeypatch.chdir(workspace)
    header = "coder_id,theme,code_label,supporting_quote,page\n"
    Path("h1.csv").write_text(header + "h1,,Curiosity,,\nh1,,Curiosity-driven Migration,,\n",
                              encoding="utf-8")
    Path("h2.csv").write_text(header + "".join(f"h2,,{label},,\n" for label in labels),
                              encoding="utf-8")
    Path("aliases.csv").write_text("from_label,to_label\nCuriosity,Curiosity-driven Migration\n",
                                   encoding="utf-8")
    code = main(["--config", "run_config.json", "compare", "--human", "h1.csv",
                 "--human", "h2.csv", "--matcher", "alias_map", "--alias-map", "aliases.csv"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "merged codebook: 2 codes (2 similar counted once)" in captured.out


def test_compare_rejects_more_than_two_coders(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(analyzed_workspace)
    code = main(["--config", "run_config.json", "compare",
                 "--human", "coder1.csv", "--human", "coder2.csv",
                 "--human", "coder1.csv"])
    assert code == 1
    assert "at most two" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--human", "coder1.csv", "--interpretations", "s1.txt", "--interpretations", "s2.txt"],
     "more --interpretations (2) than --human (1)"),
    (["--human", "coder1.csv", "--human", "coder2.csv", "--human", "missing.csv"],
     "compare supports at most two human codebooks"),
], ids=["extra-sidecar", "third-coder"])
def test_compare_checks_its_flag_counts_before_reading_a_csv(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        flags: list[str], message: str) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "workspace")
    monkeypatch.chdir(workspace)
    for sidecar in ("s1.txt", "s2.txt"):
        Path(sidecar).write_text("Theme: Professional background\nProse.\n", encoding="utf-8")
    assert main(["--config", "run_config.json", "compare", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {message}\n"
    assert captured.out == ""


def test_compare_of_coders_sharing_no_code_names_them_and_the_matcher(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    # The two sample coders word every code differently; only the alias map
    # pairs them.
    monkeypatch.chdir(analyzed_workspace)
    code = main(["--config", "run_config.json", "compare",
                 "--human", "coder1.csv", "--human", "coder2.csv",
                 "--matcher", "exact_normalized"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: coders 'coder1' and 'coder2' share no code under the exact_normalized "
        "matcher, so the consensus codebook is empty\n")


def test_verify_passes_on_intact_artifact(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(analyzed_workspace)
    assert main(["--config", "run_config.json", "verify"]) == 0
    out = capsys.readouterr().out
    assert "Exact 59" in out
    assert "verified share: 100.00%" in out


def test_verify_flags_tampered_quote(
        analyzed_workspace: Path, tmp_path: Path,
        monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "tampered")
    artifact_path = workspace / "out" / "analysis.json"
    data = json.loads(artifact_path.read_text(encoding="utf-8"))
    data["llm_codebook"]["codes"][0]["quote"] = "this quote was never in the interview at all"
    artifact_path.write_text(json.dumps(data), encoding="utf-8")
    # The stored trace is the one analyze writes for that quote, so nothing drifts.
    artifact = load_artifact(artifact_path)
    corpus = load_corpus(workspace / "transcript.txt", page_size=data["corpus"]["page_size"])
    artifact.trace = verify_codebook(artifact.llm_codebook, corpus, artifact.trace.threshold)
    artifact.save()
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", "verify"]) == 3
    out = capsys.readouterr().out
    assert "Failed 1" in out
    assert "FAILED:" in out
    assert "DRIFT" not in out



def test_verify_reports_a_stored_trace_that_a_fresh_trace_contradicts(
        analyzed_workspace: Path, tmp_path: Path,
        monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    # Each field of the edited result is valid on its own, so the artifact
    # loads, and report would render the stored Failed.
    workspace = copy_workspace(analyzed_workspace, tmp_path / "edited")
    artifact_path = workspace / "out" / "analysis.json"
    text = artifact_path.read_text(encoding="utf-8")
    artifact_path.write_text(text.replace('"level": "Exact"', '"level": "Failed"', 1),
                             encoding="utf-8")
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", "verify"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "trace summary: Exact 59, Normalized 0, Fuzzy 0, Failed 0",
        "verified share: 100.00%",
        "DRIFT: 'Academic Background of Researcher' page 1: stored Failed score 1.0 "
        "span (103, 184), fresh Exact score 1.0 span (103, 184)",
        "trace drift: 1 of 59 stored results differ from a fresh trace",
    ]
    # Drift outranks a failed quote: exit 1, ahead of exit 3.
    data = json.loads(artifact_path.read_text(encoding="utf-8"))
    data["llm_codebook"]["codes"][1]["quote"] = "this quote was never in the interview at all"
    artifact_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["--config", "run_config.json", "verify"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("FAILED: 'Confidentiality Assurance' page 2")
    assert [line.split(":")[0] for line in out[3:]] == ["DRIFT", "DRIFT", "trace drift"]
    assert out[-1] == "trace drift: 2 of 59 stored results differ from a fresh trace"


@pytest.mark.parametrize("key, value", [
    ("score", 0.99), ("matched_span", [103, 183]), ("notes", ["edited"]),
], ids=["score", "span", "notes"])
def test_verify_finds_drift_in_the_score_span_or_notes_of_a_stored_result(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        key: str, value) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "edited")
    artifact_path = workspace / "out" / "analysis.json"
    data = json.loads(artifact_path.read_text(encoding="utf-8"))
    data["trace"]["results"][5][key] = value
    artifact_path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", "verify"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[2:]] == ["DRIFT", "trace drift"]
    code = data["llm_codebook"]["codes"][5]
    assert out[2].startswith(f"DRIFT: {code['label']!r} page {code['page']}: stored ")
    stored, fresh = out[2].split(": stored ")[1].split(", fresh ")
    assert stored != fresh

def test_verify_rejects_a_different_corpus(
        analyzed_workspace: Path, tmp_path: Path,
        monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "drifted")
    transcript = workspace / "transcript.txt"
    transcript.write_text(transcript.read_text(encoding="utf-8") + "\nAn extra paragraph.\n",
                          encoding="utf-8")
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", "verify"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_report_requires_an_artifact(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    assert main(["report"]) == 1
    assert "artifact not found" in capsys.readouterr().err


def test_report_regenerates_from_artifact(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(analyzed_workspace)
    (analyzed_workspace / "out" / "report.md").unlink()
    assert main(["--config", "run_config.json", "report"]) == 0
    assert (analyzed_workspace / "out" / "report.md").exists()


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["verify"],
    ["report"],
    ["compare", "--human", "coder1.csv", "--human", "coder2.csv"],
], ids=["analyze", "verify", "report", "compare"])
def test_hand_edited_artifact_with_a_json_error_is_a_clean_error(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        argv: list[str]) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "edited")
    artifact_path = workspace / "out" / "analysis.json"
    text = artifact_path.read_text(encoding="utf-8")
    artifact_path.write_text(text.replace('"page_2": ', ', "page_2": ', 1), encoding="utf-8")
    line = text[:text.index('"page_2": ')].count("\n") + 1
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: out/analysis.json: not valid JSON at line {line} "
                            "column 5: Expecting property name enclosed in double quotes\n")


# Stands for a field deleted from its record.
DELETED = object()


@pytest.mark.parametrize("section, field, value, message", [
    ("results", "score", "x", "trace.results[0].score must be a number, got 'x'"),
    ("codes", "page", "one", "llm_codebook.codes[0].page must be an int or null, got 'one'"),
    ("codes", "page", True, "llm_codebook.codes[0].page must be an int or null, got True"),
    ("codes", "label", 3, "llm_codebook.codes[0].label must be a string, got 3"),
    ("codes", "quote", None, "llm_codebook.codes[0].quote must be a string, got None"),
    ("themes", "member_labels", "abc",
     "llm_codebook.themes[0].member_labels must be a list of strings, got 'abc'"),
    ("themes", "member_labels", ["Curiosity", 7],
     "llm_codebook.themes[0].member_labels[1] must be a string, got 7"),
    ("codes", "provenance", ["x"], "llm_codebook.codes[0].provenance must be a string, got ['x']"),
    ("themes", "description", {"a": 1},
     "llm_codebook.themes[0].description must be a string, got {'a': 1}"),
    ("themes", "interpretation", 5,
     "llm_codebook.themes[0].interpretation must be a string or null, got 5"),
    ("themes", "name", 7, "llm_codebook.themes[0].name must be a string, got 7"),
    ("codebook", "coder_id", ["x"], "llm_codebook.coder_id must be a string, got ['x']"),
    ("trace", "threshold", "x", "trace.threshold must be a number in [0, 1], got 'x'"),
    ("results", "notes", "abc", "trace.results[0].notes must be a list of strings, got 'abc'"),
    ("results", "matched_span", [5, 1], "trace.results[0].matched_span must be a [start, end] "
     "pair with start <= end, or null, got [5, 1]"),
    ("codes", "raw_span", [1], "llm_codebook.codes[0].raw_span must be a [start, end] pair with "
     "start <= end, or null, got [1]"),
    ("codebook", "provenance", {"a": 1}, "llm_codebook.provenance must be a string, got {'a': 1}"),
    ("codes", "page", 1.5, "llm_codebook.codes[0].page must be an int or null, got 1.5"),
    ("results", "score", True, "trace.results[0].score must be a number, got True"),
    ("artifact", "created", 7, "created must be a string, got 7"),
    ("artifact", "notes", [7], "notes[0] must be a string, got 7"),
    ("artifact", "schema_version", "x", "schema_version must be 1, got 'x'"),
    ("corpus", "page_size", DELETED, "corpus.page_size is missing"),
    ("trace", "threshold", 5, "trace.threshold must be a number in [0, 1], got 5"),
    ("artifact", "schema_version", 2, "schema_version must be 1, got 2"),
    ("results", "notes", DELETED, "trace.results[0].notes is missing"),
], ids=["score", "page", "page-true", "label", "quote-null", "members-string", "member-number",
        "provenance-list", "description-object", "interpretation-number", "theme-name",
        "coder-id", "threshold-string", "notes-string", "matched-span-reversed",
        "raw-span-short", "codebook-provenance-object", "page-float", "score-true",
        "created-number", "note-number", "schema-version-string", "page-size-deleted",
        "threshold-out-of-range", "schema-version-later", "result-notes-deleted"])
def test_a_hand_edited_value_of_the_wrong_type_is_one_line_naming_its_field(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        section: str, field: str, value: object, message: str) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "edited")
    artifact_path = workspace / "out" / "analysis.json"
    data = json.loads(artifact_path.read_text(encoding="utf-8"))
    book, trace = data["llm_codebook"], data["trace"]
    record = {"artifact": data, "corpus": data["corpus"], "codebook": book, "trace": trace,
              "codes": book["codes"][0], "themes": book["themes"][0],
              "results": trace["results"][0]}[section]
    if value is DELETED:
        del record[field]
    else:
        record[field] = value
    artifact_path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", "verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out/analysis.json: {message}\n"


@pytest.mark.parametrize("field, value, message", [
    ("emerging_labels", "abc",
     "llm_codebook.emerging_labels must be a list of strings or null, got 'abc'"),
    ("emerging_labels", ["Curiosity", 7], "llm_codebook.emerging_labels[1] must be a string, got 7"),
    ("aliases", "xyz", "llm_codebook.codes[0].aliases must be a list of strings, got 'xyz'"),
], ids=["emerging-string", "emerging-number", "aliases-string"])
def test_a_string_where_a_label_list_belongs_is_one_line_naming_its_field(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        field: str, value: object, message: str) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "edited")
    artifact_path = workspace / "out" / "analysis.json"
    data = json.loads(artifact_path.read_text(encoding="utf-8"))
    book = data["llm_codebook"]
    (book if field == "emerging_labels" else book["codes"][0])[field] = value
    artifact_path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", "verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out/analysis.json: {message}\n"


# The JSON types each leaf of the sample artifact admits, by the leaf's JSON
# path with its list indices left out and a reply's key as ``*``: the oracle of
# the property test below.  ``config`` is left out: a resume compares it whole.
_NULL = type(None)
_LEAF_TYPES = {
    "schema_version": {int}, "status": {str}, "created": {str}, "updated": {str},
    "corpus.source_path": {str}, "corpus.content_hash": {str},
    "corpus.page_size": {int}, "corpus.page_count": {int},
    "raw_replies.*": {str}, "notes[]": {str},
    "llm_codebook.coder_id": {str}, "llm_codebook.provenance": {str},
    "llm_codebook.codes[].label": {str}, "llm_codebook.codes[].quote": {str},
    "llm_codebook.codes[].page": {int, _NULL}, "llm_codebook.codes[].provenance": {str},
    "llm_codebook.codes[].raw_span[]": {int}, "llm_codebook.codes[].aliases": {list},
    "llm_codebook.emerging_labels[]": {str}, "llm_codebook.themes[].name": {str},
    "llm_codebook.themes[].member_labels[]": {str}, "llm_codebook.themes[].description": {str},
    "llm_codebook.themes[].interpretation": {str, _NULL},
    "trace.threshold": {int, float}, "trace.results[].label": {str},
    "trace.results[].level": {str}, "trace.results[].score": {int, float},
    "trace.results[].matched_span[]": {int}, "trace.results[].notes": {list},
}
_JSON_OF_TYPE = {
    _NULL: st.none(), bool: st.booleans(), int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False), str: st.text(max_size=6),
    list: st.lists(st.integers() | st.text(max_size=3), max_size=2),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# Tier-1 draws the same examples on every run; another seed draws fresh ones.
_LEAF_SEED = int(os.environ.get("THEMATICA_LEAF_SEED", "33"))


def _leaves(value, keys: tuple = (), path: str = "", pattern: str = ""):
    """The keys, JSON path and oracle pattern of each scalar or empty list or
    object in ``value``."""
    if not isinstance(value, (dict, list)) or not value:
        yield keys, path, pattern
        return
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        step, shape = ((f".{key}", ".*" if pattern == "raw_replies" else f".{key}")
                       if isinstance(value, dict) else (f"[{key}]", "[]"))
        yield from _leaves(item, (*keys, key), (path + step).lstrip("."),
                           (pattern + shape).lstrip("."))


@seed(_LEAF_SEED)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_leaf_of_a_type_its_field_does_not_admit_is_one_line_naming_its_path(
        analyzed_workspace: Path, tmp_path_factory, capsys, data) -> None:
    text = (analyzed_workspace / "out" / "analysis.json").read_text(encoding="utf-8")
    leaves = [leaf for leaf in _leaves(json.loads(text)) if not leaf[1].startswith("config.")]
    assert {pattern for _, _, pattern in leaves} == set(_LEAF_TYPES)
    keys, path, pattern = data.draw(st.sampled_from(leaves))
    kind = data.draw(st.sampled_from([kind for kind in _JSON_OF_TYPE
                                      if kind not in _LEAF_TYPES[pattern]]))
    value = data.draw(_JSON_OF_TYPE[kind])
    edited = json.loads(text)
    record = edited
    for key in keys[:-1]:
        record = record[key]
    record[keys[-1]] = value
    workspace = tmp_path_factory.mktemp("leaf")
    (workspace / "analysis.json").write_text(json.dumps(edited), encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(analyzed_workspace / "run_config.json"),
                 "verify", "--artifact", str(workspace / "analysis.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {workspace / 'analysis.json'}: {path} must be ")
    assert captured.err.endswith(f", got {value!r}\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["compare", "--human", "{dir}"],
    ["compare", "--human", "coder1.csv", "--matcher", "alias_map", "--alias-map", "{dir}"],
    ["verify", "--artifact", "{dir}"],
    ["report", "--artifact", "{dir}"],
    ["--config", "{dir}", "analyze"],
], ids=["compare-human", "compare-alias-map", "verify-artifact", "report-artifact", "config"])
def test_a_directory_where_a_file_belongs_is_a_one_line_error(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        argv: list[str]) -> None:
    monkeypatch.chdir(analyzed_workspace)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    if argv[0] != "--config":
        argv = ["--config", "run_config.json", *argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err
    assert "Is a directory" in captured.err
    assert "Traceback" not in captured.err


def test_output_dir_flag_overrides_config_value(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(sample_workspace)
    code = main(["--config", "run_config.json", "--output-dir", "elsewhere", "analyze"])
    assert code == 0
    assert (sample_workspace / "elsewhere" / "analysis.json").exists()
    assert not (sample_workspace / "out").exists()


# (command, flags, merged config field, its value in the config file, the
# flag's value); a field of the form "model.x" is model option x.
FIELD_FLAGS = [
    ("analyze", ["--input", "flag.txt"], "input", "file.txt", "flag.txt"),
    ("analyze", ["--page-size", "12"], "page_size", 7, 12),
    ("analyze", ["--focus", "flag focus"], "focus_description", "file focus", "flag focus"),
    ("analyze", ["--research-question", "flag?"], "research_question", "file?", "flag?"),
    ("analyze", ["--model-id", "flag-model"], "model.model_id", "file-model", "flag-model"),
    ("analyze", ["--temperature", "1.5"], "model.temperature", 0.5, 1.5),
    ("analyze", ["--max-tokens", "200"], "model.max_tokens", 100, 200),
    ("analyze", ["--endpoint-url", "http://flag"], "model.endpoint_url", "http://file",
     "http://flag"),
    ("analyze", ["--timeout", "20"], "model.timeout", 10.0, 20.0),
    ("analyze", ["--parallelism", "3"], "model.parallelism", 2, 3),
    ("analyze", ["--trace-threshold", "0.9"], "trace_threshold", 0.5, 0.9),
    ("analyze", ["--template-dir", "flag_templates"], "template_dir", "file_templates",
     "flag_templates"),
    ("compare", ["--matcher", "token_overlap"], "matcher", "exact_normalized", "token_overlap"),
    ("compare", ["--alias-map", "flag.csv"], "alias_map", "file.csv", "flag.csv"),
    ("compare", ["--jaccard-threshold", "0.7"], "jaccard_threshold", 0.4, 0.7),
    ("verify", ["--input", "flag.txt"], "input", "file.txt", "flag.txt"),
    ("report", ["--output-dir", "flag_out"], "output_dir", "file_out", "flag_out"),
    ("report", ["--verbose"], "verbose", False, True),
]


@pytest.mark.parametrize("command, flags, name, file_value, flag_value", FIELD_FLAGS,
                         ids=[f"{row[0]}{row[1][0]}" for row in FIELD_FLAGS])
def test_each_flag_overrides_its_config_file_field_and_only_when_given(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, command: str, flags: list[str],
        name: str, file_value, flag_value) -> None:
    merged: list = []
    monkeypatch.setattr(thematica.cli, f"cmd_{command}",
                        lambda config, *args, **kwargs: merged.append(config) or 0)
    monkeypatch.chdir(tmp_path)
    section, _, option = name.rpartition(".")
    data = {section: {option: file_value}} if section else {name: file_value}
    Path("config.json").write_text(json.dumps(data), encoding="utf-8")
    # The global flags go before the command, the others after it.
    is_global = flags[0] in ("--output-dir", "--verbose")
    argv = ["--config", "config.json", *flags, command] if is_global else [
        "--config", "config.json", command, *flags]
    package_logger = logging.getLogger("thematica")
    previous = package_logger.level
    try:
        assert main(argv) == 0
        assert main(["--config", "config.json", command]) == 0
    finally:
        package_logger.setLevel(previous)
    values = [config.model[option] if section else getattr(config, name) for config in merged]
    assert values == [flag_value, file_value]


@pytest.mark.parametrize("order", [("flag", None), (None, "flag"), ("config file", None)],
                         ids=["verbose-then-quiet", "quiet-then-verbose",
                              "config-file-verbose-then-quiet"])
def test_verbose_applies_to_each_call_in_a_process(
        sample_workspace: Path, monkeypatch: pytest.MonkeyPatch, caplog,
        order: tuple[str | None, str | None]) -> None:
    # With no transport configured, analyze logs at INFO which fixture it replays.
    monkeypatch.chdir(sample_workspace)
    config = json.loads(Path("run_config.json").read_text(encoding="utf-8"))
    del config["transport"]
    Path("auto_replay.json").write_text(json.dumps(config), encoding="utf-8")
    Path("verbose_replay.json").write_text(json.dumps({**config, "verbose": True}),
                                           encoding="utf-8")
    package_logger = logging.getLogger("thematica")
    previous = package_logger.level
    try:
        for verbose in order:
            caplog.clear()
            flags = ["--verbose"] if verbose == "flag" else []
            name = "verbose_replay.json" if verbose == "config file" else "auto_replay.json"
            assert main(["--config", name, *flags, "analyze"]) == 0
            replayed = [record.levelno for record in caplog.records
                        if record.getMessage() == "replaying fixture session.json"]
            assert replayed == ([logging.INFO] if verbose else []), verbose
    finally:
        package_logger.setLevel(previous)


def test_verbose_logs_each_stage_and_leaves_stdout_and_files_unchanged(
        sample_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
        caplog, capsys) -> None:
    quiet = sample_workspace
    verbose = copy_workspace(sample_workspace, tmp_path / "verbose")
    package_logger = logging.getLogger("thematica")
    previous = package_logger.level
    runs = {}
    try:
        for workspace, flags in ((quiet, []), (verbose, ["--verbose"])):
            monkeypatch.chdir(workspace)
            caplog.clear()
            codes = [main(["--config", "run_config.json", *flags, command])
                     for command in ("analyze", "verify")]
            logged = [(record.levelno, record.name, record.getMessage())
                      for record in caplog.records if record.name.startswith("thematica")]
            runs[workspace] = codes, capsys.readouterr().out, logged
    finally:
        package_logger.setLevel(previous)

    assert runs[quiet][:2] == runs[verbose][:2]
    assert runs[quiet][0] == [0, 0]
    assert runs[quiet][2] == []
    files = sorted(path.name for path in (quiet / "out").iterdir())
    assert files == sorted(path.name for path in (verbose / "out").iterdir())
    for name in files:
        assert (quiet / "out" / name).read_bytes() == (verbose / "out" / name).read_bytes(), name

    timed = re.compile(r"(.*) \(\d+\.\d ms\)")
    stages = [(level, name, timed.fullmatch(message).group(1))
              for level, name, message in runs[verbose][2]]
    trace = (logging.INFO, "thematica.trace", "trace: Exact 59, Normalized 0, Fuzzy 0, Failed 0")
    assert stages == [
        (logging.INFO, "thematica.pipeline",
         "code extraction: 16 pages asked, 16 replies sent, 0 from the cache"),
        (logging.INFO, "thematica.pipeline", "consolidation: 59 codes, 2 parse notes"),
        (logging.INFO, "thematica.pipeline", "theme generation: 4 themes"),
        (logging.INFO, "thematica.pipeline", "interpretation: 4 of 4 themes interpreted"),
        trace,  # analyze
        trace,  # verify
    ]


def _cut_first_write(monkeypatch: pytest.MonkeyPatch) -> None:
    write_bytes = Path.write_bytes

    def full_disk(path: Path, data: bytes) -> int:
        if not path.name.startswith("response_cache.json"):
            return write_bytes(path, data)
        write_bytes(path, data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", full_disk)


def _cut_later_append(monkeypatch: pytest.MonkeyPatch) -> None:
    def full_disk(fd: int, data: bytes, offset: int) -> int:
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(thematica.gateway.os, "pwrite", full_disk)


@pytest.mark.parametrize("cut, cached", [(_cut_first_write, 0), (_cut_later_append, 1)],
                         ids=["first-write", "later-append"])
def test_a_cache_write_cut_by_a_full_disk_names_the_cache_and_a_rerun_resumes(
        sample_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
        capsys, cut, cached: int) -> None:
    clean = copy_workspace(sample_workspace, tmp_path / "clean")
    monkeypatch.chdir(clean)
    assert main(["--config", "run_config.json", "analyze"]) == 0

    monkeypatch.chdir(sample_workspace)
    with monkeypatch.context() as patch:
        cut(patch)
        capsys.readouterr()
        assert main(["--config", "run_config.json", "analyze"]) == 1
    assert capsys.readouterr().err == "error: out/response_cache.json: No space left on device\n"
    cache = sample_workspace / "out" / "response_cache.json"
    # A cut first write leaves no torn cache; a cut append keeps the entries before it.
    assert (len(load_fixture(cache)) if cache.exists() else 0) == cached
    assert not (sample_workspace / "out" / "response_cache.json.tmp").exists()

    assert main(["--config", "run_config.json", "analyze"]) == 0
    for name in ("analysis.json", "response_cache.json"):
        assert ((sample_workspace / "out" / name).read_bytes()
                == (clean / "out" / name).read_bytes()), name


def test_a_config_with_a_byte_order_mark_analyzes_as_without_one(
        analyzed_workspace: Path, sample_workspace: Path, monkeypatch: pytest.MonkeyPatch,
        capsys) -> None:
    monkeypatch.chdir(sample_workspace)
    Path("bom.json").write_bytes(b"\xef\xbb\xbf" + Path("run_config.json").read_bytes())
    assert main(["--config", "bom.json", "analyze"]) == 0
    assert "analysis complete: 59 codes" in capsys.readouterr().out
    assert ((sample_workspace / "out" / "analysis.json").read_bytes()
            == (analyzed_workspace / "out" / "analysis.json").read_bytes())


def test_a_paper_reference_with_a_byte_order_mark_gives_the_same_notes(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
        capsys) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "workspace")
    monkeypatch.chdir(workspace)
    Path("bom_reference.json").write_bytes(
        b"\xef\xbb\xbf" + Path("paper_reference.json").read_bytes())
    outputs = []
    for reference in ("paper_reference.json", "bom_reference.json"):
        assert main(["--config", "run_config.json", "compare", "--human", "coder1.csv",
                     "--human", "coder2.csv", "--paper-reference", reference]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]
    assert "note: table1.merged_codes: computed 104 differs from the reference value 106" \
        in outputs[1]


def test_a_config_that_is_not_utf_8_is_one_configuration_error_naming_it(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    Path("latin.json").write_bytes('{"focus_description": "caf\xe9"}'.encode("latin-1"))
    assert main(["--config", "latin.json", "analyze"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: config file latin.json is not valid "
                                   "UTF-8: 'utf-8' codec can't decode byte 0xe9")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("page_size", ["10", True, 0, 10.0, None])
def test_a_page_size_that_is_not_a_positive_int_is_one_line_naming_it(
        analyzed_workspace: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys,
        page_size: object) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "edited")
    artifact_path = workspace / "out" / "analysis.json"
    data = json.loads(artifact_path.read_text(encoding="utf-8"))
    data["corpus"]["page_size"] = page_size
    artifact_path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(workspace)
    assert main(["--config", "run_config.json", "verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: out/analysis.json: corpus.page_size must be a "
                            f"positive int, got {page_size!r}\n")


def test_unknown_config_key_is_a_configuration_error(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text('{"page_sise": 10}', encoding="utf-8")
    assert main(["--config", "config.json", "analyze"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "page_sise" in err


@pytest.mark.parametrize("setting, message", [
    ({"page_size": "ten"}, "config key 'page_size' must be int, got 'ten'"),
    ({"trace_threshold": "x"}, "config key 'trace_threshold' must be float, got 'x'"),
    ({"model": {"temperature": "hot"}}, "model option 'temperature' must be float, got 'hot'"),
    ({"model": {"parallelism": 2.5}}, "model option 'parallelism' must be int, got 2.5"),
    ({"input": 7}, "config key 'input' must be str, got 7"),
    ({"page_size": True}, "config key 'page_size' must be int, got True"),
    ({"model": {"temperature": False}}, "model option 'temperature' must be float, got False"),
    ({"model": {"parallelism": True}}, "model option 'parallelism' must be int, got True"),
    ({"transport": "record", "output_dir": "fresh"}, RECORD_RETIRED),
], ids=["page-size", "trace-threshold", "temperature", "parallelism", "input",
        "bool-page-size", "bool-temperature", "bool-parallelism", "retired-record-transport"])
def test_a_config_value_of_the_wrong_type_is_one_line_naming_it(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys, posts: list[dict],
        setting: dict, message: str) -> None:
    monkeypatch.chdir(analyzed_workspace)
    config = json.loads(Path("run_config.json").read_text(encoding="utf-8"))
    Path("typed.json").write_text(json.dumps({**config, **setting}), encoding="utf-8")
    assert main(["--config", "typed.json", "analyze"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {message}\n"
    assert "Traceback" not in captured.err and captured.out == ""
    assert posts == []


def test_an_unknown_matcher_mode_in_a_config_file_lists_the_choices(
        analyzed_workspace: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(analyzed_workspace)
    config = json.loads(Path("run_config.json").read_text(encoding="utf-8"))
    Path("fuzzy.json").write_text(json.dumps({**config, "matcher": "fuzzy"}), encoding="utf-8")
    assert main(["--config", "fuzzy.json", "compare", "--human", "coder1.csv"]) == 1
    assert capsys.readouterr().err == (
        "configuration error: unknown matcher mode 'fuzzy'; "
        "choose from exact_normalized, alias_map, token_overlap\n")


def test_config_file_errors_are_reported(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    assert main(["--config", "absent.json", "analyze"]) == 1
    assert "config file not found" in capsys.readouterr().err
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    assert main(["--config", "list.json", "analyze"]) == 1
    assert "must contain a JSON object" in capsys.readouterr().err


def _exit_and_output(parse, argv: list[str], capsys) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as done:
        parse(argv)
    return (done.value.code, *capsys.readouterr())


COMMANDS = ["analyze", "compare", "verify", "report"]


@pytest.mark.parametrize("argv", [
    ["--help"], *([name, "--help"] for name in COMMANDS), [], ["bogus"], ["analyze", "--bogus"],
    ["verify", "--replay", "x"], ["compare", "--matcher", "nope"], ["-h", "verify"],
], ids=lambda argv: " ".join(argv) or "none")
def test_the_parser_prints_what_the_parser_with_every_subcommand_prints(
        argv: list[str], monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    # main builds only the options of the subcommands named on its command line.
    monkeypatch.setenv("COLUMNS", "80")
    printed = _exit_and_output(main, argv, capsys)
    assert printed[0] in (0, 1) and printed[1:] != ("", "")
    assert printed == _exit_and_output(thematica.cli._build_parser(COMMANDS).parse_args, argv,
                                       capsys)


def test_transport_flags_are_mutually_exclusive(sample_workspace: Path,
                                                monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(sample_workspace)
    with pytest.raises(SystemExit) as usage_error:
        main(["--config", "run_config.json", "analyze",
              "--replay", "session.json", "--live"])
    assert usage_error.value.code == 1


def test_unknown_model_option_is_rejected(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(
        '{"model": {"model_id": "gpt-4-turbo", "penalty": 2}}', encoding="utf-8")
    assert main(["--config", "config.json", "analyze"]) == 1
    assert "unknown model option" in capsys.readouterr().err


def test_a_format_in_a_config_is_an_unknown_config_key(
        analyzed_workspace: Path, tmp_path: Path,
        monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    # The file's first bytes pick its reader; there is no format to name.
    workspace = copy_workspace(analyzed_workspace, tmp_path / "formats")
    monkeypatch.chdir(workspace)
    run_config = json.loads((workspace / "run_config.json").read_text(encoding="utf-8"))
    run_config["format"] = "plain_text"
    (workspace / "run_config.json").write_text(json.dumps(run_config), encoding="utf-8")
    assert main(["--config", "run_config.json", "analyze"]) == 1
    assert main(["--config", "run_config.json", "verify"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "configuration error: unknown config key 'format'\n" * 2
    assert captured.out == ""


# Runs the four offline commands in one fresh interpreter and prints, as the
# last line, their exit codes and whether the HTTP stack was ever imported.
_OFFLINE_COMMANDS = """
import json, sys
import thematica
after_import = "requests" in sys.modules
from thematica.cli import main
codes = [main(["--config", "run_config.json", *argv]) for argv in (
    ["analyze"], ["verify"],
    ["compare", "--human", "coder1.csv", "--human", "coder2.csv"], ["report"])]
print(json.dumps({"codes": codes, "after_import": after_import,
                  "after_commands": "requests" in sys.modules}))
"""


def test_offline_commands_never_import_requests(sample_workspace: Path) -> None:
    child = subprocess.run([sys.executable, "-c", _OFFLINE_COMMANDS], cwd=sample_workspace,
                           env=source_env(), capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "after_import": False, "after_commands": False}


# Runs one command in a fresh interpreter and prints, as the last line, its
# exit code and which of the comparison and report layers, and the XML parser
# that only a .docx transcript needs, it imported.
_LAYERS_OF_ONE_COMMAND = """
import json, sys
from thematica.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [name for name in (
    "thematica.agreement", "thematica.report", "xml.etree.ElementTree") if name in sys.modules]}))
"""


@pytest.mark.parametrize("argv, code, loaded", [
    (["verify"], 0, []),
    (["analyze", "--replay", "broken.json"], 2, []),
    (["compare", "--human", "coder1.csv", "--human", "coder2.csv"], 0,
     ["thematica.agreement", "thematica.report"]),
], ids=["verify", "partial-analyze", "compare"])
def test_a_command_imports_the_comparison_and_report_layers_only_if_it_runs_them(
        analyzed_workspace: Path, tmp_path: Path, argv: list[str], code: int,
        loaded: list[str]) -> None:
    workspace = copy_workspace(analyzed_workspace, tmp_path / "workspace")
    if argv[0] == "analyze":
        shutil.rmtree(workspace / "out")
        (workspace / "broken.json").write_text("[]", encoding="utf-8")
    child = subprocess.run([sys.executable, "-c", _LAYERS_OF_ONE_COMMAND,
                            "--config", "run_config.json", *argv], cwd=workspace,
                           env=source_env(), capture_output=True, text=True, timeout=120)
    assert json.loads(child.stdout.splitlines()[-1]) == {"code": code, "loaded": loaded}


def test_python_dash_m_thematica_runs_the_cli(sample_workspace: Path) -> None:
    child = subprocess.run([sys.executable, "-m", "thematica", "--config", "run_config.json",
                            "analyze"], cwd=sample_workspace, env=source_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert "analysis complete: 59 codes, 15 emerging labels, 4 themes" in child.stdout

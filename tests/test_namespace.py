"""The package namespace: every public name, resolved from its submodule on first use."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest
from conftest import source_env

import thematica

SUBMODULES = {"agreement", "codebook", "corpus", "errors", "gateway", "outparse", "pipeline",
              "promptkit", "report", "textnorm", "trace"}
PUBLIC_NAMES = {
    "AgreementSummary", "AnalysisArtifact", "ChatMessage", "CodeRecord", "Codebook",
    "ComparisonBundle", "Completion", "Corpus", "Gateway", "LiveTransport", "MatchResult",
    "Matcher", "ModelConfig", "Page", "ParseReport", "ParseWarning", "PresenceMatrix",
    "PromptLibrary", "RenderedPrompt", "ReplayTransport", "ReportBundle", "SixStepCoverage",
    "StudyFocus", "ThematicaError", "ThemeRecord", "TraceResult", "TraceabilityReport",
    "build_report", "build_table4_summary", "cohens_kappa", "compare", "content_hash",
    "load_alias_map", "load_alias_matcher", "load_artifact", "load_corpus",
    "load_human_codebook", "match_codes", "merge_codebooks", "overlap_percentage",
    "parse_code_block", "parse_emerging_code_list", "parse_interpretation_block",
    "parse_theme_block", "percentage_difference", "percentage_pair", "percentage_similarity",
    "presence_matrix", "run_analysis", "share_percentage", "six_step_coverage",
    "verify_codebook", "verify_quote", "write_report_bundle",
}


def test_all_lists_the_public_names_and_the_submodules_sorted() -> None:
    assert len(PUBLIC_NAMES) == 54
    assert thematica.__all__ == sorted(PUBLIC_NAMES | SUBMODULES)


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_each_public_name_is_the_object_its_submodule_defines(name: str) -> None:
    value = getattr(thematica, name)
    assert value.__module__.startswith("thematica.")
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert name in dir(thematica)


@pytest.mark.parametrize("name", sorted(SUBMODULES))
def test_each_submodule_name_is_the_submodule(name: str) -> None:
    assert getattr(thematica, name) is importlib.import_module(f"thematica.{name}")
    assert name in dir(thematica)


# The paragraph-object corpus path is retired: a page is its number and text.
@pytest.mark.parametrize("name", ["no_such_name", "entry_point", "Paragraph", "load_document",
                                  "paginate"])
def test_an_unknown_name_raises_attribute_error(name: str) -> None:
    with pytest.raises(AttributeError, match=f"module 'thematica' has no attribute '{name}'"):
        getattr(thematica, name)
    assert not hasattr(thematica, name)
    with pytest.raises(ImportError):
        exec(f"from thematica import {name}", {})


# Imports the package in a fresh interpreter, then one name, then all names.
_FRESH_IMPORTS = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("thematica."))
import thematica
after_package = loaded()
from thematica import load_corpus
after_name = loaded()
namespace = {}
exec("from thematica import *", namespace)
print(json.dumps({"after_package": after_package, "after_name": after_name,
                  "star": sorted(name for name in namespace if name != "__builtins__")}))
"""


def test_the_package_imports_a_submodule_only_when_one_of_its_names_is_used() -> None:
    child = subprocess.run([sys.executable, "-c", _FRESH_IMPORTS], env=source_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["after_package"] == []
    assert result["after_name"] == ["thematica.corpus", "thematica.errors", "thematica.textnorm"]
    assert result["star"] == sorted(PUBLIC_NAMES | SUBMODULES)

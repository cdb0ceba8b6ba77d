"""Stepwise LLM-driven thematic analysis with quote traceability.

The toolkit splits an interview transcript into fixed-size pages, extracts
inductively emerging codes per page through a chat-completion endpoint,
consolidates them into a codebook with a deduplicated emerging-label list,
generates themes and per-theme interpretations, verifies every supporting
quote against its cited page, and compares the resulting codebook against
human coders' codebooks with percentage-difference, presence-matrix, and
theme-share statistics.

Each public name resolves from its submodule on first access (PEP 562), so
``import thematica`` runs no submodule and a process imports only what it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The submodule that defines each public name.
_NAMES = {
    "agreement": ("AgreementSummary", "PresenceMatrix", "build_table4_summary", "cohens_kappa",
                  "overlap_percentage", "percentage_difference", "percentage_pair",
                  "percentage_similarity", "presence_matrix", "share_percentage"),
    "codebook": ("Codebook", "Matcher", "MatchResult", "load_alias_map", "load_alias_matcher",
                 "load_human_codebook", "match_codes", "merge_codebooks"),
    "corpus": ("Corpus", "Page", "content_hash", "load_corpus"),
    "errors": ("ThematicaError",),
    "gateway": ("ChatMessage", "Completion", "Gateway", "LiveTransport", "ModelConfig",
                "ReplayTransport"),
    "outparse": ("CodeRecord", "ParseReport", "ParseWarning", "ThemeRecord", "parse_code_block",
                 "parse_emerging_code_list", "parse_interpretation_block", "parse_theme_block"),
    "pipeline": ("AnalysisArtifact", "ComparisonBundle", "SixStepCoverage", "compare",
                 "load_artifact", "run_analysis", "six_step_coverage"),
    "promptkit": ("PromptLibrary", "RenderedPrompt", "StudyFocus"),
    "report": ("ReportBundle", "build_report", "write_report_bundle"),
    "textnorm": (),
    "trace": ("TraceabilityReport", "TraceResult", "verify_codebook", "verify_quote"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_NAMES, *_MODULE_OF])


def __getattr__(name: str):
    if name in _NAMES:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

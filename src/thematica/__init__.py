"""Stepwise LLM-driven thematic analysis with quote traceability.

The toolkit splits an interview transcript into fixed-size pages, extracts
inductively emerging codes per page through a chat-completion endpoint,
consolidates them into a codebook with a deduplicated emerging-label list,
generates themes and per-theme interpretations, verifies every supporting
quote against its cited page, and compares the resulting codebook against
human coders' codebooks with percentage-difference, presence-matrix, and
theme-share statistics.
"""

from .agreement import (
    AgreementSummary,
    PresenceMatrix,
    build_table4_summary,
    cohens_kappa,
    overlap_percentage,
    percentage_difference,
    percentage_pair,
    percentage_similarity,
    presence_matrix,
    share_percentage,
)
from .codebook import (
    Codebook,
    Matcher,
    MatchResult,
    load_alias_map,
    load_alias_matcher,
    load_human_codebook,
    match_codes,
    merge_codebooks,
)
from .corpus import Corpus, Page, Paragraph, content_hash, load_corpus, load_document, paginate
from .errors import ThematicaError
from .gateway import (
    ChatMessage,
    Completion,
    Gateway,
    LiveTransport,
    ModelConfig,
    ReplayTransport,
)
from .outparse import (
    CodeRecord,
    ParseReport,
    ParseWarning,
    ThemeRecord,
    parse_code_block,
    parse_emerging_code_list,
    parse_interpretation_block,
    parse_theme_block,
)
from .pipeline import (
    AnalysisArtifact,
    ComparisonBundle,
    SixStepCoverage,
    compare,
    load_artifact,
    run_analysis,
    six_step_coverage,
)
from .promptkit import (
    PromptLibrary,
    RenderedPrompt,
    StudyFocus,
)
from .report import ReportBundle, build_report, write_report_bundle
from .trace import TraceabilityReport, TraceResult, verify_codebook, verify_quote

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

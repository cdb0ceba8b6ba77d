"""Exception hierarchy shared by all thematica modules.

Every library-raised error derives from :class:`ThematicaError` so callers can
catch one type at the boundary.  The classes are grouped by the module that
raises them; a few (``SchemaError``, ``ConfigError``) are shared.
"""

from __future__ import annotations


class ThematicaError(Exception):
    """Base class for all errors raised by this package."""


# --- corpus -----------------------------------------------------------------

class DecodeError(ThematicaError):
    """Input file is not valid UTF-8 text or not a well-formed OOXML package."""


class EmptyDocument(ThematicaError):
    """Document contains no non-empty paragraphs."""


class InvalidPageSize(ThematicaError):
    """Requested page size is smaller than one paragraph."""


class PageOutOfRange(ThematicaError):
    """Requested page number lies outside the corpus."""


# --- promptkit --------------------------------------------------------------

class EmptyFocus(ThematicaError):
    """Study focus or research question is blank."""


class EmptyPage(ThematicaError):
    """Page passed to prompt rendering has no text."""


class EmptyCodes(ThematicaError):
    """Code digest passed to theme-prompt rendering is blank."""


class EmptyThemes(ThematicaError):
    """Theme digest passed to interpretation-prompt rendering is blank."""


class UnknownPlaceholder(ThematicaError):
    """Prompt template uses a placeholder outside the supported set."""


class MissingPlaceholder(ThematicaError):
    """Prompt template lacks a placeholder its step requires."""


# --- llm_gateway ------------------------------------------------------------

class AuthError(ThematicaError):
    """API credential missing or rejected."""


class RateLimited(ThematicaError):
    """Endpoint kept answering 429 after the retry budget was spent."""


class TransportError(ThematicaError):
    """Network failure, timeout, or server error that outlasted the retries."""


class RequestRejected(ThematicaError):
    """Endpoint answered the request with a status that a rerun would get again:
    any status other than 200, 401, 403, 408, 429 and 5xx, such as 204, 302 or 404;
    or its content filter stopped the reply (finish_reason "content_filter")."""


class ReplyTruncated(ThematicaError):
    """Reply stopped at the max_tokens limit (finish_reason "length"); a rerun
    of the same request would be cut the same way."""


class MalformedResponse(ThematicaError):
    """Response carried no usable assistant text."""


class FixtureMiss(ThematicaError):
    """Replay fixture has no entry for the request digest (prompt drift)."""


class FixtureCorrupt(ThematicaError):
    """Replay fixture file is not valid JSON of the expected shape."""


# --- outparse ---------------------------------------------------------------

class NoRecordsFound(ThematicaError):
    """Reply contained no recognizable code/theme structure."""


# --- codebook ---------------------------------------------------------------

class EmptyCodebook(ThematicaError):
    """Operation requires a codebook with at least one code."""


class DuplicateLabel(ThematicaError):
    """Two codes in one codebook normalize to the same label."""


class AliasChain(ThematicaError):
    """Alias map maps a canonical label onward instead of terminating."""


class InconsistentMatch(ThematicaError):
    """Match result does not cover the labels of its two codebooks exactly."""


class SchemaError(ThematicaError):
    """CSV or JSON input does not match the documented schema."""


# --- agreement --------------------------------------------------------------

class ZeroBaseline(ThematicaError):
    """Percentage difference needs a positive baseline count."""


class ZeroTotal(ThematicaError):
    """Share computation needs a positive total."""


class PartExceedsTotal(ThematicaError):
    """Share numerator exceeds its total."""


class ZeroOwnCount(ThematicaError):
    """Overlap computation needs a positive own-count."""


class SimilarExceedsOwn(ThematicaError):
    """Overlap numerator exceeds the coder's own count."""


class LengthMismatch(ThematicaError):
    """Kappa vectors differ in length."""


class DegenerateMarginals(ThematicaError):
    """Expected agreement is 1 while the vectors differ (unreachable guard)."""


# --- pipeline ---------------------------------------------------------------

class ResumeMismatch(ThematicaError):
    """Existing artifact was produced from a different corpus or config."""


class IncompleteArtifact(ThematicaError):
    """Operation requires a completed analysis artifact."""


class AnalysisInterrupted(ThematicaError):
    """Analysis stopped mid-run; the partial artifact was persisted.

    Carries the stage and page where the failure happened plus the partial
    artifact so callers can inspect or resume.
    """

    def __init__(self, message: str, *, stage: str, page: int | None = None,
                 artifact: object | None = None, cause: BaseException | None = None):
        super().__init__(message)
        self.stage = stage
        self.page = page
        self.artifact = artifact
        self.cause = cause


# --- cli --------------------------------------------------------------------

class ConfigError(ThematicaError):
    """Command-line or config-file validation failed; message carries a hint."""

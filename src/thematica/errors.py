"""Exception hierarchy shared by all thematica modules.

Every library-raised error derives from :class:`ThematicaError` so callers can
catch one type at the boundary.  The classes are grouped by the module that
raises them; a few (``SchemaError``, ``ConfigError``) are shared.

Each class declares whether a rerun can help when it stops an analysis:
``resumable`` is true only where the failed request left no reply behind, so
a rerun sends it again, and ``rerun_hint`` says what to change otherwise.  A
new class is not resumable unless it says so.
"""

from __future__ import annotations


class ThematicaError(Exception):
    """Base class for all errors raised by this package."""

    resumable = False
    # What to change before a rerun; ``{artifact}`` is the artifact's path.
    rerun_hint = "remove the cause above before rerunning"


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

class EmptyPromptInput(ThematicaError):
    """Study focus, research question, page, code digest or theme digest is blank."""


class TemplateError(ThematicaError):
    """Prompt template uses a placeholder outside its step's set, or lacks one
    its step requires."""


# --- llm_gateway ------------------------------------------------------------

class AuthError(ThematicaError):
    """API credential missing or rejected."""

    # gateway.ENV_VAR and FALLBACK_ENV_VAR, spelt out: gateway imports this module.
    rerun_hint = "set a valid credential in THEMATICA_API_KEY (or OPENAI_API_KEY)"


class RateLimited(ThematicaError):
    """Endpoint kept answering 429 after the retry budget was spent."""

    resumable = True


class TransportError(ThematicaError):
    """Network failure, timeout, or server error that outlasted the retries."""

    resumable = True


class RequestRejected(ThematicaError):
    """Endpoint answered the request with a status that a rerun would get again:
    any status other than 200, 401, 403, 408, 429 and 5xx, such as 204, 302 or 404;
    or its content filter stopped the reply (finish_reason "content_filter")."""


class ReplyTruncated(ThematicaError):
    """Reply stopped at the max_tokens limit (finish_reason "length"); a rerun
    of the same request would be cut the same way."""

    rerun_hint = ("raise max_tokens (--max-tokens or model.max_tokens in the config file) and "
                  "analyze into a fresh output directory: max_tokens is part of the artifact's "
                  "configuration, so {artifact} refuses a new value")


class MalformedResponse(ThematicaError):
    """Response carried no usable assistant text."""

    resumable = True


class FixtureMiss(ThematicaError):
    """Replay fixture has no entry for the request digest (prompt drift)."""

    resumable = True


class FixtureCorrupt(ThematicaError):
    """Replay fixture file is not valid JSON of the expected shape."""


# --- outparse ---------------------------------------------------------------

# The replies are persisted before they are parsed or consolidated, so a
# rerun reads the same reply and fails the same way.
_PERSISTED_REPLY_HINT = (
    "the model replies are persisted and are reused on resume; correct the offending reply "
    "under raw_replies in {artifact}, or revise the prompt templates and analyze into a "
    "fresh output directory")


class NoRecordsFound(ThematicaError):
    """Reply contained no recognizable code/theme structure."""

    rerun_hint = _PERSISTED_REPLY_HINT


# --- codebook ---------------------------------------------------------------

class EmptyCodebook(ThematicaError):
    """Operation requires a codebook with at least one code."""


class DuplicateLabel(ThematicaError):
    """Two codes in one codebook normalize to the same label."""

    rerun_hint = _PERSISTED_REPLY_HINT


class AliasChain(ThematicaError):
    """Alias map maps a canonical label onward instead of terminating."""


class InconsistentMatch(ThematicaError):
    """Match result does not cover the labels of its two codebooks exactly."""


class SchemaError(ThematicaError):
    """CSV or JSON input does not match the documented schema."""


# --- agreement --------------------------------------------------------------

class AgreementInputError(ThematicaError):
    """Counts or vectors outside an agreement statistic's domain: a zero
    baseline, total or own count, a part above its whole, vectors of unequal
    length or empty, or no positive cell."""


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

"""Render the three stepwise prompts from external template files.

Templates live in the package's ``templates/`` directory and use
``{placeholder}`` substitution.  Each analysis step allows a fixed
placeholder set and requires the placeholders that carry its payload; both
are validated when the library loads, not at render time.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .corpus import Page, read_utf8
from .errors import EmptyPromptInput, TemplateError

CODE_EXTRACTION = "CodeExtraction"
THEME_GENERATION = "ThemeGeneration"
INTERPRETATION = "Interpretation"

SYSTEM_PERSONA = "You are a skilled qualitative researcher focusing on inductively emerging codes."

_TEMPLATE_FILES = {
    CODE_EXTRACTION: "code_extraction.txt",
    THEME_GENERATION: "theme_generation.txt",
    INTERPRETATION: "interpretation.txt",
}
_ALLOWED = {
    CODE_EXTRACTION: frozenset({"page_number", "text_segment", "focus", "research_question"}),
    THEME_GENERATION: frozenset({"codes", "focus", "research_question"}),
    INTERPRETATION: frozenset({"themes", "focus", "research_question"}),
}
_REQUIRED = {
    CODE_EXTRACTION: frozenset({"page_number", "text_segment"}),
    THEME_GENERATION: frozenset({"codes"}),
    INTERPRETATION: frozenset({"themes"}),
}

_DEFAULT_TEMPLATE_DIR = Path(__file__).parent / "templates"


@dataclass(frozen=True)
class StudyFocus:
    """What the study is about: the coding focus phrase and the research question."""

    focus_description: str
    research_question: str

    def __post_init__(self) -> None:
        if not self.focus_description.strip():
            raise EmptyPromptInput("focus_description must be non-empty")
        if not self.research_question.strip():
            raise EmptyPromptInput("research_question must be non-empty")


@dataclass(frozen=True)
class RenderedPrompt:
    step: str
    system_message: str
    user_message: str


def _placeholders(template: str, step: str, filename: str) -> set[str]:
    names: set[str] = set()
    try:
        parsed = list(string.Formatter().parse(template))
    except ValueError as exc:
        raise TemplateError(f"{filename}: malformed placeholder syntax: {exc}") from exc
    for _, field_name, format_spec, conversion in parsed:
        if field_name is None:
            continue
        if not field_name or not field_name.isidentifier() or format_spec or conversion:
            raise TemplateError(
                f"{filename}: only bare named placeholders are supported, got {field_name!r}"
            )
        names.add(field_name)
    unknown = names - _ALLOWED[step]
    if unknown:
        raise TemplateError(
            f"{filename}: placeholder(s) {', '.join(sorted(unknown))} not allowed for {step}"
        )
    missing = _REQUIRED[step] - names
    if missing:
        raise TemplateError(
            f"{filename}: required placeholder(s) {', '.join(sorted(missing))} absent"
        )
    return names


class PromptLibrary:
    """Loads and validates the three step templates, then renders prompts."""

    def __init__(self, template_dir: str | Path | None = None) -> None:
        self.template_dir = Path(template_dir) if template_dir else _DEFAULT_TEMPLATE_DIR
        self._templates: dict[str, str] = {}
        for step, filename in _TEMPLATE_FILES.items():
            path = self.template_dir / filename
            text = read_utf8(path).rstrip("\n")
            _placeholders(text, step, filename)
            self._templates[step] = text

    def template_digests(self) -> dict[str, str]:
        """SHA-256 of each template's text, for config fingerprinting."""
        return {
            step: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for step, text in self._templates.items()
        }

    def _render(self, step: str, values: dict[str, str]) -> RenderedPrompt:
        user_message = self._templates[step].format(**values)
        return RenderedPrompt(step=step, system_message=SYSTEM_PERSONA, user_message=user_message)

    def render_code_extraction(self, page: Page, focus: StudyFocus) -> RenderedPrompt:
        if not page.text.strip():
            raise EmptyPromptInput(f"page {page.number} has no text")
        return self._render(CODE_EXTRACTION, {
            "page_number": str(page.number),
            "text_segment": page.text,
            "focus": focus.focus_description,
            "research_question": focus.research_question,
        })

    def render_theme_generation(self, codes_digest: str, focus: StudyFocus) -> RenderedPrompt:
        if not codes_digest.strip():
            raise EmptyPromptInput("codes digest must be non-empty")
        return self._render(THEME_GENERATION, {
            "codes": codes_digest,
            "focus": focus.focus_description,
            "research_question": focus.research_question,
        })

    def render_interpretation(self, themes_digest: str, focus: StudyFocus) -> RenderedPrompt:
        if not themes_digest.strip():
            raise EmptyPromptInput("themes digest must be non-empty")
        return self._render(INTERPRETATION, {
            "themes": themes_digest,
            "focus": focus.focus_description,
            "research_question": focus.research_question,
        })


@cache
def default_library() -> PromptLibrary:
    return PromptLibrary()


"""Prompt template loading, validation, and rendering."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import make_corpus
from thematica.errors import (
    EmptyCodes,
    EmptyFocus,
    EmptyPage,
    EmptyThemes,
    MissingPlaceholder,
    UnknownPlaceholder,
)
from thematica.promptkit import (
    CODE_EXTRACTION,
    INTERPRETATION,
    SYSTEM_PERSONA,
    THEME_GENERATION,
    PromptLibrary,
    StudyFocus,
    default_library,
)

FOCUS = StudyFocus(
    focus_description="the migration experiences of nurses and midwives",
    research_question="What are the migration experiences of nurses and midwives?",
)


def test_system_persona_is_fixed() -> None:
    assert SYSTEM_PERSONA == (
        "You are a skilled qualitative researcher focusing on inductively emerging codes."
    )
    prompt = default_library().render_theme_generation("1. **A**: \"q\" - Page 1", FOCUS)
    assert prompt.system_message == SYSTEM_PERSONA


def test_code_extraction_prompt_embeds_page_and_focus() -> None:
    corpus = make_corpus(["First paragraph.", "Second paragraph."], page_size=2)
    prompt = default_library().render_code_extraction(corpus.pages[0], FOCUS)
    assert prompt.step == CODE_EXTRACTION
    assert prompt.user_message == (
        "Analyze the following qualitative data and extract only the most relevant, "
        "inductively emerging codes that capture distinct and meaningful ideas, patterns, "
        "or observations about the migration experiences of nurses and midwives. Avoid "
        "generating a code for every observation. For each emerging code, provide the code "
        "as a concise phrase or keyword, followed by the exact sentence or passage it was "
        "derived from and 'Page 1' to ensure traceability.\n"
        "\n"
        "Text Segment:\n"
        "First paragraph.\n"
        "Second paragraph.\n"
        "\n"
        "Emerging Codes with Supporting Sentences and Page Number:"
    )


def test_theme_and_interpretation_prompts_embed_payloads() -> None:
    theme_prompt = default_library().render_theme_generation("DIGEST-OF-CODES", FOCUS)
    assert theme_prompt.step == THEME_GENERATION
    assert "Codes:\nDIGEST-OF-CODES" in theme_prompt.user_message
    assert FOCUS.research_question in theme_prompt.user_message
    assert theme_prompt.user_message.endswith("Generated Themes:")

    interp_prompt = default_library().render_interpretation("DIGEST-OF-THEMES", FOCUS)
    assert interp_prompt.step == INTERPRETATION
    assert "Themes:\nDIGEST-OF-THEMES" in interp_prompt.user_message
    assert interp_prompt.user_message.endswith("Interpretation of Themes:")


def test_blank_payloads_are_rejected() -> None:
    with pytest.raises(EmptyCodes):
        default_library().render_theme_generation("   ", FOCUS)
    with pytest.raises(EmptyThemes):
        default_library().render_interpretation("", FOCUS)


def test_study_focus_requires_both_fields() -> None:
    with pytest.raises(EmptyFocus):
        StudyFocus(focus_description=" ", research_question="ok")
    with pytest.raises(EmptyFocus):
        StudyFocus(focus_description="ok", research_question="")


def test_empty_page_is_rejected_at_render_time() -> None:
    class HollowPage:
        number = 1
        text = "   "

    with pytest.raises(EmptyPage):
        default_library().render_code_extraction(HollowPage(), FOCUS)


def _write_templates(directory: Path, extraction: str | None = None,
                     themes: str | None = None, interpretation: str | None = None) -> Path:
    directory.mkdir(exist_ok=True)
    (directory / "code_extraction.txt").write_text(
        extraction if extraction is not None else "Page {page_number}\n{text_segment}",
        encoding="utf-8")
    (directory / "theme_generation.txt").write_text(
        themes if themes is not None else "Codes: {codes}", encoding="utf-8")
    (directory / "interpretation.txt").write_text(
        interpretation if interpretation is not None else "Themes: {themes}", encoding="utf-8")
    return directory


def test_custom_template_dir_loads_and_renders(tmp_path: Path) -> None:
    library = PromptLibrary(_write_templates(tmp_path / "custom"))
    corpus = make_corpus(["Only paragraph."], page_size=1)
    prompt = library.render_code_extraction(corpus.pages[0], FOCUS)
    assert prompt.user_message == "Page 1\nOnly paragraph."


def test_unknown_placeholder_rejected_at_load(tmp_path: Path) -> None:
    bad = _write_templates(tmp_path / "bad",
                           extraction="Page {page_number}\n{text_segment}\n{surprise}")
    with pytest.raises(UnknownPlaceholder, match="surprise"):
        PromptLibrary(bad)


def test_missing_required_placeholder_rejected_at_load(tmp_path: Path) -> None:
    bad = _write_templates(tmp_path / "bad", extraction="Page {page_number} only")
    with pytest.raises(MissingPlaceholder, match="text_segment"):
        PromptLibrary(bad)


def test_format_spec_and_positional_placeholders_rejected(tmp_path: Path) -> None:
    with pytest.raises(UnknownPlaceholder):
        PromptLibrary(_write_templates(tmp_path / "a", themes="Codes: {codes:>10}"))
    with pytest.raises(UnknownPlaceholder):
        PromptLibrary(_write_templates(tmp_path / "b", themes="Codes: {codes} and {}"))


def test_literal_braces_survive_rendering(tmp_path: Path) -> None:
    library = PromptLibrary(_write_templates(
        tmp_path / "braces",
        interpretation="Use a \"Theme {{number}}\" heading.\nThemes: {themes}"))
    prompt = library.render_interpretation("T-DIGEST", FOCUS)
    assert "Use a \"Theme {number}\" heading." in prompt.user_message


def test_template_digests_are_stable_and_sensitive(tmp_path: Path) -> None:
    first = default_library().template_digests()
    second = PromptLibrary().template_digests()
    assert first == second
    assert set(first) == {CODE_EXTRACTION, THEME_GENERATION, INTERPRETATION}
    assert all(len(value) == 64 for value in first.values())
    custom = PromptLibrary(_write_templates(tmp_path / "alt")).template_digests()
    assert custom[CODE_EXTRACTION] != first[CODE_EXTRACTION]

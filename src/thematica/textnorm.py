"""Shared text normalization used by the parser, matcher, and tracer.

Two normalization strengths live here:

* label normalization: cosmetic cleanup of code labels (markdown emphasis,
  numbering, stray punctuation) plus a case-folded matching key;
* match normalization, the text form used for quote verification: case fold,
  whitespace collapse, straight/curly quote and apostrophe unification, dash
  unification.  The index-mapped variant keeps a per-character pointer back
  into the original string so match spans can be reported in source
  coordinates.
"""

from __future__ import annotations

import re

# Curly quote marks, apostrophes, and dash variants folded to ASCII.
_CHAR_FOLD = {
    "‘": "'",  # left single quote
    "’": "'",  # right single quote / apostrophe
    "‚": "'",
    "‛": "'",
    "“": '"',  # left double quote
    "”": '"',  # right double quote
    "„": '"',
    "′": "'",  # prime
    "″": '"',
    "‐": "-",  # hyphen
    "‑": "-",
    "‒": "-",
    "–": "-",  # en dash
    "—": "-",  # em dash
    "―": "-",
    "−": "-",  # minus sign
    " ": " ",  # no-break space
}

_FOLD_TABLE = str.maketrans(_CHAR_FOLD)

_NUMBER_PREFIX = re.compile(r"^\s*\d+\s*[.)]\s*")
_EMPHASIS = re.compile(r"(\*\*|\*|__|_)")
_WS_RUN = re.compile(r"\s+")
_EDGE_PUNCT = re.compile(r"^[\s\"'.,:;!?()-]+|[\s\"'.,:;!?()-]+$")
_NON_WORD = re.compile(r"[^\w\s]")


def strip_emphasis(text: str) -> str:
    """Remove markdown emphasis markers without touching interior words."""
    return _EMPHASIS.sub("", text)


def normalize_label(raw: str) -> str:
    """Clean a code label: drop numbering, emphasis, and edge punctuation.

    Interior capitalization and punctuation are preserved, so
    ``"1. **Curiosity-driven Migration**:"`` becomes
    ``"Curiosity-driven Migration"``.
    """
    text = _NUMBER_PREFIX.sub("", raw)
    text = strip_emphasis(text)
    text = text.translate(_FOLD_TABLE)
    text = _EDGE_PUNCT.sub("", text)
    return _WS_RUN.sub(" ", text).strip()


def label_key(label: str) -> str:
    """Case-insensitive matching key for a label.

    Case fold, drop everything but word characters and spaces, collapse
    whitespace.  Distinct surface forms of the same code ("Curiosity-driven
    migration" / "Curiosity-Driven Migration") share one key.
    """
    text = _NON_WORD.sub(" ", label.translate(_FOLD_TABLE).casefold())
    return _WS_RUN.sub(" ", text).strip()


def label_tokens(label: str) -> frozenset[str]:
    """Token set of a label's matching key, for Jaccard comparison."""
    return frozenset(label_key(label).split())


def normalize_for_match(text: str) -> str:
    """Normalize text for quote matching; see module docstring for rules."""
    normalized, _ = normalize_with_map(text)
    return normalized


def normalize_with_map(text: str) -> tuple[str, list[int]]:
    """Normalize text and return a map from output index to source index.

    The map lets a substring match found in normalized coordinates be
    reported as a character span of the original text.
    """
    out: list[str] = []
    positions: list[int] = []
    pending_space = False
    for src_index, ch in enumerate(text):
        folded = _CHAR_FOLD.get(ch, ch)
        if folded.isspace():
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
            positions.append(src_index)
        pending_space = False
        for piece in folded.casefold():
            out.append(piece)
            positions.append(src_index)
    return "".join(out), positions

"""Shared text normalization used by the parser, matcher, and tracer.

Two normalization strengths live here:

* label normalization: cosmetic cleanup of code labels (numbering, every
  ``*`` and ``_``, edge punctuation) plus a case-folded matching key;
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

_NUMBER_PREFIX = re.compile(r"^\s*\d+\s*[.)]\s*")

# All of ASCII has an entry: str.translate re-fails a missed lookup on every call.
_LABEL_TABLE = {code: code for code in range(128)}
_LABEL_TABLE.update(str.maketrans({**_CHAR_FOLD, "*": None, "_": None}))


class _KeyTable(dict):
    """label_key's translate table: ``\\W`` to a space, each character classified once."""

    def __missing__(self, code: int) -> str:
        char = chr(code)
        value = self[code] = char if char.isalnum() or char == "_" else " "
        return value


_KEY_TABLE = _KeyTable()


def normalize_label(raw: str) -> str:
    """Clean a code label: drop numbering, every ``*`` and ``_``, edge punctuation.

    ``"Work_life"`` becomes ``"Worklife"``.  Interior capitalization and
    punctuation are preserved, so ``"1. **Curiosity-driven Migration**:"``
    becomes ``"Curiosity-driven Migration"``.
    """
    text = _NUMBER_PREFIX.sub("", raw).translate(_LABEL_TABLE)
    return " ".join(text.split()).strip("\"'.,:;!?()- ")


def label_key(label: str) -> str:
    """Case-insensitive matching key for a label.

    Case fold, drop everything but word characters and spaces, collapse
    whitespace.  Distinct surface forms of the same code ("Curiosity-driven
    migration" / "Curiosity-Driven Migration") share one key.
    """
    return " ".join(label.casefold().translate(_KEY_TABLE).split())


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

"""Shared text normalization used by the parser, matcher, and tracer.

Two normalization strengths live here:

* label normalization: cosmetic cleanup of code labels (numbering, every
  ``*`` and ``_``, edge punctuation) plus a label key, the form two labels
  are matched in: case folded, every character but a letter, digit or ``_``
  turned into a space, whitespace collapsed;
* match normalization, the text form used for quote verification: case fold,
  whitespace collapse, straight/curly quote and apostrophe unification, dash
  unification, all at C speed.  :func:`source_index` maps a normalized
  position back into the original string, so match spans can be reported in
  source coordinates.

Text that is all ASCII has nothing to fold, and casefolds as ``lower()`` does,
so each function gives it a shorter path with the same result; the label
key's path runs through one 256-byte ``bytes.translate`` table.  Any other
text takes the general path.
"""

from __future__ import annotations

import re
from array import array
from typing import Callable

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
_MATCH_TABLE = {code: code for code in range(128)}
_MATCH_TABLE.update(str.maketrans(_CHAR_FOLD))


class _KeyTable(dict):
    """label_key's translate table: ``\\W`` to a space, each character classified once."""

    def __missing__(self, code: int) -> str:
        char = chr(code)
        value = self[code] = char if char.isalnum() or char == "_" else " "
        return value


_KEY_TABLE = _KeyTable()

# label_key's table for ASCII text: a letter to lower case, a digit or ``_`` to
# itself, any other byte to a space.  ASCII text never reads past entry 127.
_ASCII_KEY_TABLE = bytes(
    ord(char.lower()) if char.isalnum() or char == "_" else ord(" ")
    for char in map(chr, range(128))
).ljust(256)


def normalize_label(raw: str) -> str:
    """Clean a code label: drop numbering, every ``*`` and ``_``, edge punctuation.

    ``"Work_life"`` becomes ``"Worklife"``.  Interior capitalization and
    punctuation are preserved, so ``"1. **Curiosity-driven Migration**:"``
    becomes ``"Curiosity-driven Migration"``.
    """
    if raw.isascii():
        # ^\s*\d+ can match only text that starts with whitespace or a digit.
        if raw[:1].isspace() or raw[:1].isdigit():
            raw = _NUMBER_PREFIX.sub("", raw)
        text = raw.replace("*", "").replace("_", "")
    else:
        text = _NUMBER_PREFIX.sub("", raw).translate(_LABEL_TABLE)
    return " ".join(text.split()).strip("\"'.,:;!?()- ")


def label_key(label: str) -> str:
    """Case-insensitive matching key for a label.

    Case fold, drop everything but word characters and spaces, collapse
    whitespace.  Distinct surface forms of the same code ("Curiosity-driven
    migration" / "Curiosity-Driven Migration") share one key.
    """
    if label.isascii():
        return b" ".join(label.encode().translate(_ASCII_KEY_TABLE).split()).decode()
    return " ".join(label.casefold().translate(_KEY_TABLE).split())


def label_tokens(label: str) -> frozenset[str]:
    """Token set of a label's matching key, for Jaccard comparison."""
    return frozenset(label_key(label).split())


def normalize_for_match(text: str) -> str:
    """Normalize text for quote matching; see module docstring for rules.

    No character casefolds to whitespace or to nothing, so folding after the
    join equals folding each character."""
    if text.isascii():
        return " ".join(text.split()).lower()
    return " ".join(text.translate(_MATCH_TABLE).split()).casefold()


def source_index(text: str, normalized: str) -> Callable[[int], int]:
    """Map a position of ``normalized = normalize_for_match(text)`` to the
    index in ``text`` it came from; a space maps to the next word's start.

    When no character casefolds to several, normalized word w is source word
    w character for character, and ``text.split(None, w)`` finds that word's
    start at C speed.  Otherwise the map is :func:`normalize_with_map`'s."""
    if len(normalized) - normalized.count(" ") != len("".join(text.split())):
        return array("L", normalize_with_map(text)[1]).__getitem__

    def index(position: int) -> int:
        if normalized[position] == " ":
            position += 1
        word = normalized.count(" ", 0, position)
        word_start = len(text) - len(text.split(None, word)[-1])
        return word_start + position - normalized.rfind(" ", 0, position) - 1

    return index


def normalize_with_map(text: str) -> tuple[str, list[int]]:
    """Normalize text and return a map from output index to source index.

    The map lets a substring match found in normalized coordinates be
    reported as a character span of the original text.  :func:`source_index`
    uses it only for text in which some character casefolds to several.
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

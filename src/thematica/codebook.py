"""Codebooks, cross-coder code matching, and merge counting.

A codebook houses one coder's codes and themes, whether produced by a human
or by a model.  Matching between two codebooks is deterministic and 1-to-1.
In every mode, labels equal after normalization pair first; then alias
mode pairs the remaining labels through an alias map of similar codes, and
token-overlap mode by token Jaccard score.  Token-overlap matching scores
only the label pairs that share one of their rarest tokens (prefix
filtering), which finds every pair at or above the Jaccard threshold with
work that grows with the number of labels, not with the number of pairs.
Merging follows the counting rule: similar codes count once, outliers count
separately.
:func:`merge_order` checks a pairing against its two codebooks and gives the
merged order that both merging and the presence matrix use.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator

from .errors import (
    AliasChain,
    DuplicateLabel,
    EmptyCodebook,
    InconsistentMatch,
    SchemaError,
)
from .corpus import read_utf8
from .outparse import MAX_LABEL_LENGTH, CodeRecord, ThemeRecord
from .textnorm import label_key, label_tokens, normalize_label

logger = logging.getLogger(__name__)

EXACT_NORMALIZED = "exact_normalized"
ALIAS_MAP = "alias_map"
TOKEN_OVERLAP = "token_overlap"
MATCHER_MODES = (EXACT_NORMALIZED, ALIAS_MAP, TOKEN_OVERLAP)

HUMAN_CSV_COLUMNS = ("coder_id", "theme", "code_label", "supporting_quote", "page")

_THEME_SIDECAR_HEADER = re.compile(r"^Theme\s*:\s*(?P<name>\S.*)$", re.IGNORECASE)


@dataclass(frozen=True)
class Codebook:
    """One coder's codes, optional emerging-label list, and themes."""

    coder_id: str
    provenance: str
    codes: tuple[CodeRecord, ...] = ()
    emerging_labels: tuple[str, ...] | None = None
    themes: tuple[ThemeRecord, ...] = ()
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())
    # label key -> label, one entry per code
    by_key: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.coder_id.strip():
            raise ValueError("coder_id must be non-empty")
        by_key: dict[str, str] = {}
        for record in self.codes:
            if record.key in by_key:
                raise DuplicateLabel(
                    f"labels {by_key[record.key]!r} and {record.label!r} collide after normalization"
                )
            by_key[record.key] = record.label
        object.__setattr__(self, "by_key", by_key)
        object.__setattr__(self, "labels", tuple(record.label for record in self.codes))


@dataclass(frozen=True)
class Matcher:
    """Pairwise label-equivalence policy used for matching and presence rows."""

    mode: str = EXACT_NORMALIZED
    alias_map: dict[str, str] | None = None
    jaccard_threshold: float = 0.6
    # alias mode: alias key -> (canonical label, canonical key)
    _canonical: dict[str, tuple[str, str]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MATCHER_MODES:
            raise ValueError(f"unknown matcher mode {self.mode!r}; "
                             f"choose from {', '.join(MATCHER_MODES)}")
        if not 0.0 < self.jaccard_threshold <= 1.0:
            raise ValueError(f"jaccard_threshold must be in (0, 1], got {self.jaccard_threshold}")
        if self.mode == ALIAS_MAP and self.alias_map is None:
            raise ValueError("alias_map mode requires an alias map")
        resolved = [(label_key(source), target, label_key(target))
                    for source, target in (self.alias_map or {}).items()]
        lookup = {source_key: (target, target_key) for source_key, target, target_key in resolved}
        for _, target, target_key in resolved:
            onward = lookup.get(target_key)
            if onward is not None and onward[1] != target_key:
                raise AliasChain(f"alias target {target!r} is itself aliased to {onward[0]!r}")
        if self.mode == ALIAS_MAP:
            object.__setattr__(self, "_canonical", lookup)

    def resolve(self, label: str, key: str) -> tuple[str, str]:
        """Canonical label and canonical key of ``label``, whose key is ``key``.

        Only alias mode rewrites; other modes return the pair unchanged.
        """
        return self._canonical.get(key, (label, key))

    def matches(self, label_a: str, label_b: str) -> bool:
        key_a = self.resolve(label_a, label_key(label_a))[1]
        key_b = self.resolve(label_b, label_key(label_b))[1]
        if key_a == key_b:
            return True
        if self.mode == TOKEN_OVERLAP:
            similarity = _token_jaccard(label_tokens(label_a), label_tokens(label_b))
            return similarity >= self.jaccard_threshold
        return False


@dataclass(frozen=True)
class MatchResult:
    """1-to-1 label pairing between two codebooks plus the unmatched leftovers."""

    pairs: tuple[tuple[str, str], ...]
    outliers_a: tuple[str, ...]
    outliers_b: tuple[str, ...]

    def __post_init__(self) -> None:
        used_a = [pair[0] for pair in self.pairs] + list(self.outliers_a)
        used_b = [pair[1] for pair in self.pairs] + list(self.outliers_b)
        if len(set(used_a)) != len(used_a) or len(set(used_b)) != len(used_b):
            raise ValueError("a label may appear in at most one pair or outlier slot")


def _token_jaccard(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
    # Only labels with different keys are scored, so one set is non-empty.
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def match_codes(a: Codebook, b: Codebook, matcher: Matcher) -> MatchResult:
    """Deterministic 1-to-1 matching of code labels between two codebooks.

    In every mode, labels with equal keys pair first, so no outlier of ``b``
    shares a key with a code of ``a``.  Exact mode stops there.  Alias mode
    then pairs, per canonical key, the first remaining claimant on each side;
    later claimants stay outliers.  Token mode then pairs the remaining
    labels by descending Jaccard score.
    """
    if not a.codes or not b.codes:
        raise EmptyCodebook("both codebooks must contain codes")
    partner = {record.label: b.by_key[record.key] for record in a.codes
               if record.key in b.by_key}
    if matcher.mode != EXACT_NORMALIZED:
        taken_b = set(partner.values())
        rest_a = [record for record in a.codes if record.label not in partner]
        rest_b = [record for record in b.codes if record.label not in taken_b]
        if matcher.mode == ALIAS_MAP:
            partner.update(_match_canonical_keys(rest_a, rest_b, matcher))
        else:
            partner.update(_match_token_overlap(rest_a, rest_b, matcher.jaccard_threshold))
    pairs = tuple((label, partner[label]) for label in a.labels if label in partner)
    paired_b = set(partner.values())
    return MatchResult(
        pairs=pairs,
        outliers_a=tuple(label for label in a.labels if label not in partner),
        outliers_b=tuple(label for label in b.labels if label not in paired_b),
    )


def _match_canonical_keys(rest_a: list[CodeRecord], rest_b: list[CodeRecord],
                          matcher: Matcher) -> dict[str, str]:
    """Per canonical key, the first claimant of ``rest_a`` pairs with the first of ``rest_b``."""
    claims_b: dict[str, str] = {}
    for record in rest_b:
        claims_b.setdefault(matcher.resolve(record.label, record.key)[1], record.label)
    partner: dict[str, str] = {}
    for record in rest_a:
        label_b = claims_b.pop(matcher.resolve(record.label, record.key)[1], None)
        if label_b is not None:
            partner[record.label] = label_b
    return partner


def _match_token_overlap(rest_a: list[CodeRecord], rest_b: list[CodeRecord],
                         threshold: float) -> dict[str, str]:
    """Greedy best-first pairing by Jaccard score, at or above ``threshold``.

    Every pair at or above the threshold is a candidate, but only pairs whose
    token prefixes meet are scored (prefix filtering: Bayardo, Ma & Srikant
    2007; Xiao et al. 2008), so the work grows with the number of labels, not
    of pairs.  Tokens are ordered rarest first over both sides; when
    Jaccard(x, y) >= t, the first |x| - ceil(t*|x|) + 1 tokens of x and the
    first |y| - ceil(t*|y|) + 1 tokens of y share a token.  Candidates sort by
    the total order (-score, label_a, label_b), so the order the index yields
    them in cannot change the result.  An empty key has an empty prefix: no
    key it can still meet is equal to it, so it scores 0 against all of them.
    """
    sets_a = [frozenset(record.key.split()) for record in rest_a]
    sets_b = [frozenset(record.key.split()) for record in rest_b]
    frequency = Counter(chain.from_iterable(sets_a + sets_b))
    rank = {token: position for position, token
            in enumerate(sorted(frequency, key=lambda token: (frequency[token], token)))}

    def prefix(tokens: frozenset[str]) -> list[str]:
        # At Jaccard >= t a partner shares at least ceil(t*|y|) tokens.  The
        # slack absorbs float error in the product (0.28 * 25 is
        # 7.000000000000001) and in the scored quotient, so it can only
        # lengthen a prefix.
        shared = math.ceil(threshold * len(tokens) - 1e-9)
        return sorted(tokens, key=rank.__getitem__)[:len(tokens) - shared + 1]

    index: defaultdict[str, list[int]] = defaultdict(list)
    for position, tokens in enumerate(sets_b):
        for token in prefix(tokens):
            index[token].append(position)
    candidates: list[tuple[float, str, str]] = []
    for record_a, tokens_a in zip(rest_a, sets_a):
        for position in {position for token in prefix(tokens_a)
                         for position in index.get(token, ())}:
            similarity = _token_jaccard(tokens_a, sets_b[position])
            if similarity >= threshold:
                candidates.append((-similarity, record_a.label, rest_b[position].label))
    candidates.sort()
    partner: dict[str, str] = {}
    used_b: set[str] = set()
    for _, label_a, label_b in candidates:
        if label_a in partner or label_b in used_b:
            continue
        partner[label_a] = label_b
        used_b.add(label_b)
    return partner


def merge_order(a: Codebook, b: Codebook, match: MatchResult) -> tuple[
        dict[str, str], tuple[CodeRecord, ...]]:
    """The pairing ``match`` as a map from A labels to B labels, and the merged rows.

    The rows are every code of ``a``, then each unpaired code of ``b``, in
    codebook order.  Raises InconsistentMatch unless the pairs and outliers
    cover each codebook's labels exactly.
    """
    partner = dict(match.pairs)
    paired_b = set(partner.values())
    for book, paired, outliers in ((a, partner, match.outliers_a),
                                   (b, paired_b, match.outliers_b)):
        labels = set(book.labels)
        # MatchResult uses no label twice, so equal counts and inclusion mean equal sets.
        if (len(paired) + len(outliers) != len(labels)
                or not labels.issuperset(paired) or not labels.issuperset(outliers)):
            raise InconsistentMatch(f"the pairing and codebook {book.coder_id!r} differ in "
                                    f"{sorted(labels ^ set(paired).union(outliers))!r}")
    return partner, a.codes + tuple([record for record in b.codes if record.label not in paired_b])


def merge_codebooks(a: Codebook, b: Codebook, match: MatchResult) -> tuple[Codebook, int]:
    """Merge two codebooks under the similar-codes-count-once rule.

    Paired codes keep a copy of coder A's record, its key included, with coder B's
    label as an alias when it differs; outliers from both sides carry over unchanged.
    Returns the merged codebook and the merge count |A| + |B| − |pairs|.
    """
    partner, rows = merge_order(a, b, match)
    merged = list(rows)
    for position, record in enumerate(a.codes):
        label_b = partner.get(record.label)
        if label_b is not None:
            extra = (label_b,) if b.by_key.get(record.key) != label_b else ()
            kept = merged[position] = object.__new__(CodeRecord)
            kept.__dict__.update(record.__dict__, provenance="human-merged",
                                 aliases=record.aliases + extra)
    merged_book = Codebook(
        coder_id=f"{a.coder_id}+{b.coder_id}",
        provenance="human-merged",
        codes=tuple(merged),
    )
    return merged_book, len(merged)


def _csv_rows(path: Path, columns: tuple[str, ...], missing: str) -> Iterator[tuple[int, list[str]]]:
    """The physical start line and the ``columns`` cells of each non-blank data row.

    As with csv.DictReader, a repeated name takes its last column and a short row
    reads "" for its missing cells; ``missing`` formats the absent column names.
    """
    reader = csv.reader(io.StringIO(read_utf8(path)))
    position = {name: index for index, name in enumerate(next(reader, []))}
    if absent := [column for column in columns if column not in position]:
        raise SchemaError(f"{path.name}: " + missing.format(", ".join(absent)))
    picks = [position[column] for column in columns]
    width = max(picks) + 1
    line = reader.line_num
    for row in reader:
        if row:
            row += [""] * (width - len(row))
            yield line + 1, [row[index] for index in picks]
        line = reader.line_num


def load_human_codebook(path: str | Path, interpretations_path: str | Path | None = None) -> Codebook:
    """Load a human coder's codebook from CSV.

    Schema (header required): coder_id, theme, code_label, supporting_quote,
    page.  Quote and page may be empty; blank rows are skipped.  The theme
    column groups rows into ThemeRecords in first-appearance order (each
    distinct theme cell is normalized and keyed once); an optional sidecar
    text file with ``Theme: <name>`` headers attaches interpretation prose.
    Every row error names the physical file line the row starts on; two code
    labels, or two theme names, with one label key are a SchemaError naming both.
    """
    path = Path(path)
    rows = list(_csv_rows(path, HUMAN_CSV_COLUMNS, "missing column(s) {}"))
    if not rows:
        raise EmptyCodebook(f"{path.name}: no data rows")

    coder_id = ""
    codes: list[CodeRecord] = []
    first_codes: dict[str, tuple[str, int]] = {}  # label key -> label, line
    first_themes: dict[str, tuple[str, int, list[str]]] = {}  # name key -> name, line, members
    theme_cells: dict[str, tuple[str, str]] = {}  # raw theme cell -> name, name key
    for line, (row_coder, theme_cell, label_cell, quote, page_field) in rows:
        row_coder = row_coder.strip()
        if row_coder and row_coder != coder_id:
            if coder_id:
                raise SchemaError(f"{path.name}:{line}: mixed coder ids {coder_id!r} and {row_coder!r}")
            coder_id = row_coder
        label = normalize_label(label_cell)
        if not label:
            raise SchemaError(f"{path.name}:{line}: empty code_label")
        page_field = page_field.strip()
        try:
            page = int(page_field) if page_field else None
        except ValueError as exc:
            raise SchemaError(f"{path.name}:{line}: page {page_field!r} is not an integer") from exc
        try:
            record = CodeRecord(label=label, quote=quote.strip(), page=page, provenance="human")
        except ValueError as exc:
            raise SchemaError(f"{path.name}:{line}: {exc}") from None
        first, first_line = first_codes.setdefault(record.key, (label, line))
        if first_line != line:
            raise SchemaError(f"{path.name}:{line}: code label {label!r} collides with {first!r} "
                              f"(line {first_line}) after normalization")
        codes.append(record)
        if (theme := theme_cells.get(theme_cell)) is None:
            name = normalize_label(theme_cell)
            if len(name) > MAX_LABEL_LENGTH:
                raise SchemaError(f"{path.name}:{line}: theme name exceeds {MAX_LABEL_LENGTH} characters")
            theme = theme_cells[theme_cell] = (name, label_key(name))
        theme_name, theme_key = theme
        if theme_name:
            first, first_line, members = first_themes.setdefault(theme_key, (theme_name, line, []))
            if first != theme_name:
                raise SchemaError(f"{path.name}:{line}: theme name {theme_name!r} collides with "
                                  f"{first!r} (line {first_line}) after normalization")
            members.append(label)
    if not coder_id:
        raise SchemaError(f"{path.name}: coder_id missing from every row")
    if quoteless := sum(not record.quote for record in codes):
        logger.warning("%s: %d of %d rows have no supporting quote",
                       path.name, quoteless, len(rows))

    interpretations = _load_theme_sidecar(interpretations_path) if interpretations_path else {}
    themes = tuple(
        ThemeRecord(name=name, member_labels=tuple(members),
                    interpretation=interpretations.pop(key, None))
        for key, (name, _, members) in first_themes.items()
    )
    for leftover in interpretations.values():
        logger.warning("%s: interpretation section %r matches no theme", path.name, leftover[:40])
    return Codebook(coder_id=coder_id, provenance="human", codes=tuple(codes), themes=themes)


def _load_theme_sidecar(path: str | Path) -> dict[str, str]:
    """Parse ``Theme: <name>`` sections into a key → prose map."""
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line in read_utf8(Path(path)).splitlines():
        header = _THEME_SIDECAR_HEADER.match(line)
        if header:
            current = label_key(header.group("name"))
            sections.setdefault(current, [])
        elif current is not None:
            sections[current].append(line)
    return {
        key: "\n".join(lines).strip()
        for key, lines in sections.items()
        if "\n".join(lines).strip()
    }


def load_alias_map(path: str | Path) -> dict[str, str]:
    """Load a reviewer's alias map from CSV with columns from_label, to_label.

    Raises SchemaError for a malformed map and AliasChain when a target is
    itself aliased.
    """
    return load_alias_matcher(path).alias_map


def load_alias_matcher(path: str | Path, jaccard_threshold: float = 0.6) -> Matcher:
    """The alias-mode Matcher of the alias map at ``path`` (see :func:`load_alias_map`).

    Rows are read as in :func:`load_human_codebook`, each error naming a physical
    line; building the Matcher resolves every alias key once and rejects chains.
    """
    path = Path(path)
    mapping: dict[str, str] = {}
    for line, (source, target) in _csv_rows(path, ("from_label", "to_label"),
                                             "expected columns from_label, to_label"):
        source, target = normalize_label(source), normalize_label(target)
        if not source or not target:
            raise SchemaError(f"{path.name}:{line}: empty label")
        existing = mapping.get(source)
        if existing is not None and label_key(existing) != label_key(target):
            raise SchemaError(f"{path.name}:{line}: {source!r} aliased to both "
                              f"{existing!r} and {target!r}")
        mapping[source] = target
    return Matcher(mode=ALIAS_MAP, alias_map=mapping, jaccard_threshold=jaccard_threshold)

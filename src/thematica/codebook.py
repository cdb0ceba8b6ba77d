"""Codebooks, cross-coder code matching, and merge counting.

A codebook houses one coder's codes and themes, whether produced by a human
or by a model.  Matching between two codebooks is deterministic and comes in
three modes: exact label equality after normalization, an explicit alias map
recording a reviewer's similarity judgments, and a token-overlap
approximation.  Merging follows the counting rule: similar codes count once,
outliers count separately.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    AliasChain,
    DuplicateLabel,
    EmptyCodebook,
    InconsistentMatch,
    SchemaError,
)
from .outparse import CodeRecord, ThemeRecord
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

    def __post_init__(self) -> None:
        if not self.coder_id.strip():
            raise ValueError("coder_id must be non-empty")
        seen: dict[str, str] = {}
        for record in self.codes:
            if record.key in seen:
                raise DuplicateLabel(
                    f"labels {seen[record.key]!r} and {record.label!r} collide after normalization"
                )
            seen[record.key] = record.label

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(record.label for record in self.codes)

    def deduped_labels(self) -> tuple[str, ...]:
        """Record labels deduplicated case-insensitively, first appearance kept.

        Keys are unique within a codebook, so this is every label in order.
        """
        return self.labels


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
            raise ValueError(f"unknown matcher mode {self.mode!r}")
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

    def canonical_label(self, label: str) -> str:
        """Resolve a label to its canonical surface form (alias mode only rewrites)."""
        return self.resolve(label, label_key(label))[0]

    def matches(self, label_a: str, label_b: str) -> bool:
        key_a = self.resolve(label_a, label_key(label_a))[1]
        key_b = self.resolve(label_b, label_key(label_b))[1]
        if key_a == key_b:
            return True
        if self.mode == TOKEN_OVERLAP:
            return jaccard(label_a, label_b) >= self.jaccard_threshold
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


def jaccard(label_a: str, label_b: str) -> float:
    """Token-set Jaccard similarity between two labels."""
    return _token_jaccard(label_tokens(label_a), label_tokens(label_b))


def _token_jaccard(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
    # Two empty token sets come from two empty keys, which are equal labels.
    union = tokens_a | tokens_b
    return len(tokens_a & tokens_b) / len(union) if union else 1.0


def _claims(codebook: Codebook, matcher: Matcher) -> dict[str, str]:
    """Map canonical key → first claiming label; later claimants stay unpaired."""
    claims: dict[str, str] = {}
    for record in codebook.codes:
        claims.setdefault(matcher.resolve(record.label, record.key)[1], record.label)
    return claims


def match_codes(a: Codebook, b: Codebook, matcher: Matcher) -> MatchResult:
    """Deterministic 1-to-1 matching of code labels between two codebooks."""
    if not a.codes or not b.codes:
        raise EmptyCodebook("both codebooks must contain codes")
    if matcher.mode == TOKEN_OVERLAP:
        return _match_token_overlap(a, b, matcher)

    claims_b = _claims(b, matcher)
    pairs = tuple((label_a, claims_b[key]) for key, label_a in _claims(a, matcher).items()
                  if key in claims_b)
    return _result(a, b, pairs)


def _match_token_overlap(a: Codebook, b: Codebook, matcher: Matcher) -> MatchResult:
    """Greedy best-first pairing: key-equal labels first, then by Jaccard score."""
    tokens_b = [(record, frozenset(record.key.split())) for record in b.codes]
    candidates: list[tuple[bool, float, str, str]] = []
    for record_a in a.codes:
        tokens_a = frozenset(record_a.key.split())
        for record_b, set_b in tokens_b:
            similarity = _token_jaccard(tokens_a, set_b)
            if similarity >= matcher.jaccard_threshold:
                candidates.append((record_a.key != record_b.key, -similarity,
                                   record_a.label, record_b.label))
    candidates.sort()
    partner: dict[str, str] = {}
    used_b: set[str] = set()
    for _, _, label_a, label_b in candidates:
        if label_a in partner or label_b in used_b:
            continue
        partner[label_a] = label_b
        used_b.add(label_b)
    return _result(a, b, tuple((label, partner[label]) for label in a.labels if label in partner))


def _result(a: Codebook, b: Codebook, pairs: tuple[tuple[str, str], ...]) -> MatchResult:
    """MatchResult for ``pairs``; every other label is an outlier, in codebook order."""
    paired_a = {label_a for label_a, _ in pairs}
    paired_b = {label_b for _, label_b in pairs}
    return MatchResult(
        pairs=pairs,
        outliers_a=tuple(label for label in a.labels if label not in paired_a),
        outliers_b=tuple(label for label in b.labels if label not in paired_b),
    )


def merge_codebooks(a: Codebook, b: Codebook, match: MatchResult) -> tuple[Codebook, int]:
    """Merge two codebooks under the similar-codes-count-once rule.

    Paired codes keep coder A's record, with coder B's label recorded as an
    alias when it differs; outliers from both sides carry over unchanged.
    Returns the merged codebook and the merge count |A| + |B| − |pairs|.
    """
    labels_a = set(a.labels)
    keys_b = {record.label: record.key for record in b.codes}
    for label_a, label_b in match.pairs:
        if label_a not in labels_a or label_b not in keys_b:
            raise InconsistentMatch(f"pair ({label_a!r}, {label_b!r}) not drawn from the inputs")
    for label in match.outliers_a:
        if label not in labels_a:
            raise InconsistentMatch(f"outlier {label!r} not in first codebook")
    for label in match.outliers_b:
        if label not in keys_b:
            raise InconsistentMatch(f"outlier {label!r} not in second codebook")

    alias_for: dict[str, str] = {la: lb for la, lb in match.pairs}
    paired_a = set(alias_for)
    outlier_b_set = set(match.outliers_b)
    merged: list[CodeRecord] = []
    for record in a.codes:
        if record.label in paired_a:
            partner = alias_for[record.label]
            extra = (partner,) if keys_b[partner] != record.key else ()
            merged.append(CodeRecord(
                label=record.label, quote=record.quote, page=record.page,
                provenance="human-merged", raw_span=record.raw_span,
                aliases=record.aliases + extra,
            ))
        else:
            merged.append(record)
    for record in b.codes:
        if record.label in outlier_b_set:
            merged.append(record)

    merge_count = len(a.codes) + len(b.codes) - len(match.pairs)
    assert merge_count == len(merged)
    merged_book = Codebook(
        coder_id=f"{a.coder_id}+{b.coder_id}",
        provenance="human-merged",
        codes=tuple(merged),
    )
    return merged_book, merge_count


def load_human_codebook(path: str | Path, interpretations_path: str | Path | None = None) -> Codebook:
    """Load a human coder's codebook from CSV.

    Schema (header required): coder_id, theme, code_label, supporting_quote,
    page.  Quote and page may be empty.  The theme column groups rows into
    ThemeRecords in first-appearance order; an optional sidecar text file
    with ``Theme: <name>`` headers attaches interpretation prose.
    """
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [column for column in HUMAN_CSV_COLUMNS if column not in header]
        if missing:
            raise SchemaError(f"{path.name}: missing column(s) {', '.join(missing)}")
        rows = list(reader)
    if not rows:
        raise EmptyCodebook(f"{path.name}: no data rows")

    coder_id = ""
    codes: list[CodeRecord] = []
    theme_members: dict[str, list[str]] = {}
    theme_order: list[str] = []
    quoteless = 0
    for line, row in enumerate(rows, start=2):
        row_coder = (row["coder_id"] or "").strip()
        if row_coder:
            if not coder_id:
                coder_id = row_coder
            elif row_coder != coder_id:
                raise SchemaError(f"{path.name}:{line}: mixed coder ids {coder_id!r} and {row_coder!r}")
        label = normalize_label(row["code_label"] or "")
        if not label:
            raise SchemaError(f"{path.name}:{line}: empty code_label")
        quote = (row["supporting_quote"] or "").strip()
        if not quote:
            quoteless += 1
        page_field = (row["page"] or "").strip()
        if page_field:
            try:
                page: int | None = int(page_field)
            except ValueError as exc:
                raise SchemaError(f"{path.name}:{line}: page {page_field!r} is not an integer") from exc
        else:
            page = None
        codes.append(CodeRecord(label=label, quote=quote, page=page, provenance="human"))
        theme_name = normalize_label(row["theme"] or "")
        if theme_name:
            if theme_name not in theme_members:
                theme_members[theme_name] = []
                theme_order.append(theme_name)
            theme_members[theme_name].append(label)
    if not coder_id:
        raise SchemaError(f"{path.name}: coder_id missing from every row")
    if quoteless:
        logger.warning("%s: %d of %d rows have no supporting quote",
                       path.name, quoteless, len(rows))

    interpretations = _load_theme_sidecar(interpretations_path) if interpretations_path else {}
    themes = tuple(
        ThemeRecord(
            name=name,
            member_labels=tuple(theme_members[name]),
            interpretation=interpretations.pop(label_key(name), None),
        )
        for name in theme_order
    )
    for leftover in interpretations.values():
        logger.warning("%s: interpretation section %r matches no theme", path.name, leftover[:40])
    return Codebook(coder_id=coder_id, provenance="human", codes=tuple(codes), themes=themes)


def _load_theme_sidecar(path: str | Path) -> dict[str, str]:
    """Parse ``Theme: <name>`` sections into a key → prose map."""
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
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
    """Load a reviewer's alias map from CSV with columns from_label, to_label."""
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        if "from_label" not in header or "to_label" not in header:
            raise SchemaError(f"{path.name}: expected columns from_label, to_label")
        mapping: dict[str, str] = {}
        for line, row in enumerate(reader, start=2):
            source = normalize_label(row["from_label"] or "")
            target = normalize_label(row["to_label"] or "")
            if not source or not target:
                raise SchemaError(f"{path.name}:{line}: empty label")
            existing = mapping.get(source)
            if existing is not None and label_key(existing) != label_key(target):
                raise SchemaError(f"{path.name}:{line}: {source!r} aliased to both "
                                  f"{existing!r} and {target!r}")
            mapping[source] = target
    Matcher(mode=ALIAS_MAP, alias_map=mapping)
    return mapping

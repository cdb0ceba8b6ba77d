"""Codebook construction, matching modes, merging, and CSV loading."""

from __future__ import annotations

import csv
import io
import logging
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thematica
import thematica.codebook
import thematica.outparse
from thematica.codebook import (
    ALIAS_MAP,
    EXACT_NORMALIZED,
    HUMAN_CSV_COLUMNS,
    TOKEN_OVERLAP,
    Codebook,
    MatchResult,
    Matcher,
    load_alias_map,
    load_alias_matcher,
    load_human_codebook,
    match_codes,
    merge_codebooks,
)
from thematica.corpus import read_utf8
from thematica.errors import (
    AliasChain,
    DuplicateLabel,
    EmptyCodebook,
    InconsistentMatch,
    SchemaError,
    ThematicaError,
)
from thematica.outparse import MAX_LABEL_LENGTH, CodeRecord, ThemeRecord
from thematica.textnorm import label_key, normalize_label

SAMPLES = Path(thematica.__file__).parent / "samples"


def book(coder_id: str, labels: list[str], provenance: str = "human") -> Codebook:
    return Codebook(coder_id=coder_id, provenance=provenance, codes=tuple(
        CodeRecord(label=label, quote=f"quote for {label}", page=1, provenance=provenance)
        for label in labels
    ))


def test_codebook_rejects_labels_that_collide_after_normalization() -> None:
    with pytest.raises(DuplicateLabel):
        book("c1", ["Peer Influence", "peer influence"])
    with pytest.raises(DuplicateLabel):
        book("c1", ["Work-Life Balance", "Work Life Balance"])


def test_codebook_requires_coder_id() -> None:
    with pytest.raises(ValueError):
        Codebook(coder_id="  ", provenance="human")


def test_labels_and_dedup_preserve_order() -> None:
    codebook = book("c1", ["Alpha", "Beta", "Gamma"])
    assert codebook.labels == ("Alpha", "Beta", "Gamma")
    assert codebook.labels is codebook.labels


def jaccard(label_a: str, label_b: str) -> float:
    """Reference token-set Jaccard similarity of two labels' keys.

    Two labels whose keys have no tokens are equal labels, so they score 1.0.
    """
    tokens_a, tokens_b = set(label_key(label_a).split()), set(label_key(label_b).split())
    union = tokens_a | tokens_b
    return len(tokens_a & tokens_b) / len(union) if union else 1.0


JACCARD_CASES = [
    ("Peer Influence on Migration Decision", "Peer influence", 0.4),
    ("Alpha Beta", "beta alpha", 1.0),
    ("Alpha", "Beta", 0.0),
    ("...", "...", 1.0),
    ("...", "Alpha", 0.0),
]


def test_jaccard_token_overlap_values() -> None:
    for label_a, label_b, expected in JACCARD_CASES:
        assert jaccard(label_a, label_b) == pytest.approx(expected)
        for threshold in (0.3, 0.4, 0.5, 1.0):
            assert Matcher(mode=TOKEN_OVERLAP, jaccard_threshold=threshold).matches(
                label_a, label_b) is (jaccard(label_a, label_b) >= threshold)


def test_matcher_exact_mode_is_case_insensitive() -> None:
    matcher = Matcher()
    assert matcher.matches("Initial Climate Shock", "initial climate shock")
    assert not matcher.matches("Initial Climate Shock", "Initial Culture Shock")
    assert matcher.resolve("Anything", label_key("Anything"))[0] == "Anything"


def test_matcher_alias_mode_rewrites_to_target() -> None:
    matcher = Matcher(mode=ALIAS_MAP, alias_map={
        "Career Midwife by chance": "Accidental Career Discovery",
    })
    label = "career midwife BY chance"
    assert matcher.resolve(label, label_key(label))[0] == "Accidental Career Discovery"
    assert matcher.matches("Career Midwife by chance", "Accidental Career Discovery")
    assert not matcher.matches("Career Midwife by chance", "Something Else")


def test_matcher_alias_mode_requires_map_and_flat_targets() -> None:
    with pytest.raises(ValueError):
        Matcher(mode=ALIAS_MAP)
    with pytest.raises(AliasChain):
        Matcher(mode=ALIAS_MAP, alias_map={"A": "B", "B": "C"})


def test_matcher_rejects_unknown_mode_and_bad_threshold() -> None:
    with pytest.raises(ValueError):
        Matcher(mode="fuzzy")
    with pytest.raises(ValueError):
        Matcher(jaccard_threshold=0.0)
    with pytest.raises(ValueError):
        Matcher(jaccard_threshold=1.2)


def test_token_mode_matches_above_threshold() -> None:
    matcher = Matcher(mode=TOKEN_OVERLAP, jaccard_threshold=0.4)
    assert matcher.matches("Peer Influence on Migration Decision", "Peer influence")
    strict = Matcher(mode=TOKEN_OVERLAP, jaccard_threshold=0.5)
    assert not strict.matches("Peer Influence on Migration Decision", "Peer influence")


def test_match_codes_exact_pairs_and_ordered_outliers() -> None:
    first = book("c1", ["Alpha", "Beta", "Delta"])
    second = book("c2", ["beta", "Gamma", "alpha"])
    result = match_codes(first, second, Matcher())
    assert result.pairs == (("Alpha", "alpha"), ("Beta", "beta"))
    assert result.outliers_a == ("Delta",)
    assert result.outliers_b == ("Gamma",)


def test_match_codes_alias_mode_pairs_through_the_map() -> None:
    first = book("c1", ["Accidental Career Discovery", "Own Thing"])
    second = book("c2", ["Career Midwife by chance", "Other Thing"])
    matcher = Matcher(mode=ALIAS_MAP, alias_map={
        "Career Midwife by chance": "Accidental Career Discovery",
    })
    result = match_codes(first, second, matcher)
    assert result.pairs == (("Accidental Career Discovery", "Career Midwife by chance"),)
    assert result.outliers_a == ("Own Thing",)
    assert result.outliers_b == ("Other Thing",)


def test_match_codes_alias_collision_goes_to_outliers() -> None:
    first = book("c1", ["Canonical"])
    second = book("c2", ["Variant One", "Variant Two"])
    matcher = Matcher(mode=ALIAS_MAP, alias_map={
        "Variant One": "Canonical",
        "Variant Two": "Canonical",
    })
    result = match_codes(first, second, matcher)
    assert result.pairs == (("Canonical", "Variant One"),)
    assert result.outliers_b == ("Variant Two",)


@pytest.mark.parametrize("labels_b", [["Curiosity", "Curiosity-driven Migration"],
                                      ["Curiosity-driven Migration", "Curiosity"]])
def test_match_codes_alias_mode_pairs_equal_labels_before_canonical_keys(
        labels_b: list[str]) -> None:
    # Both coders use an alias and its target: each label pairs with its twin,
    # so no outlier of the second coder collides with a code of the first.
    first = book("c1", ["Curiosity", "Curiosity-driven Migration"])
    second = book("c2", labels_b)
    matcher = Matcher(mode=ALIAS_MAP, alias_map={"Curiosity": "Curiosity-driven Migration"})
    result = match_codes(first, second, matcher)
    assert result.pairs == (("Curiosity", "Curiosity"),
                            ("Curiosity-driven Migration", "Curiosity-driven Migration"))
    assert result.outliers_a == result.outliers_b == ()
    merged, count = merge_codebooks(first, second, result)
    assert count == 2
    assert merged.labels == first.labels


def test_match_codes_token_mode_prefers_highest_similarity() -> None:
    first = book("c1", ["Cultural Isolation and Loneliness", "Financial Burden"])
    second = book("c2", ["Loneliness and Cultural Isolation", "Financial Burden and Reimbursement"])
    result = match_codes(first, second, Matcher(mode=TOKEN_OVERLAP, jaccard_threshold=0.5))
    assert dict(result.pairs) == {
        "Cultural Isolation and Loneliness": "Loneliness and Cultural Isolation",
        "Financial Burden": "Financial Burden and Reimbursement",
    }


def test_match_codes_token_mode_pairs_key_equal_labels_before_permutations() -> None:
    first = book("c1", ["Family Support Network"])
    second = book("c2", ["Network Support Family", "family support network"])
    result = match_codes(first, second, Matcher(mode=TOKEN_OVERLAP))
    assert result.pairs == (("Family Support Network", "family support network"),)
    assert result.outliers_b == ("Network Support Family",)
    merged, count = merge_codebooks(first, second, result)
    assert count == 2
    assert merged.labels == ("Family Support Network", "Network Support Family")


def reference_token_overlap(a: Codebook, b: Codebook, threshold: float) -> MatchResult:
    """All-pairs reference for token-overlap matching: every label pair is scored.

    Candidates sort key-equal first, then by descending Jaccard, then by
    labels; a greedy pass keeps each label's first candidate.
    """
    candidates = sorted(
        (label_key(label_a) != label_key(label_b), -jaccard(label_a, label_b), label_a, label_b)
        for label_a in a.labels for label_b in b.labels
        if jaccard(label_a, label_b) >= threshold)
    partner: dict[str, str] = {}
    for _, _, label_a, label_b in candidates:
        if label_a not in partner and label_b not in partner.values():
            partner[label_a] = label_b
    return MatchResult(
        pairs=tuple((label, partner[label]) for label in a.labels if label in partner),
        outliers_a=tuple(label for label in a.labels if label not in partner),
        outliers_b=tuple(label for label in b.labels if label not in partner.values()),
    )


# A few very frequent tokens, so that rarest-first prefixes collide.
_COMMON = ("Support", "Family", "Work")
_RARE = tuple(f"Word{index}" for index in range(24))


def random_labels(rng: random.Random, count: int, borrow: list[str] = ()) -> list[str]:
    """``count`` labels of 1 to 10 tokens with distinct keys, one of them
    empty-keyed, some permuted and recased copies of labels from ``borrow``."""
    labels, keys = ["..."], {""}
    while len(labels) < count:
        if borrow and rng.random() < 0.3:
            words = rng.choice(borrow).split()
            rng.shuffle(words)
            words = [rng.choice((str.lower, str.upper, str.title))(word) for word in words]
        else:
            words = [rng.choice(_COMMON) if rng.random() < 0.4 else rng.choice(_RARE)
                     for _ in range(rng.randint(1, 10))]
        label = " ".join(words)
        if label_key(label) not in keys:
            keys.add(label_key(label))
            labels.append(label)
    rng.shuffle(labels)
    return labels


@pytest.mark.parametrize("threshold", [0.01, 0.25, 1 / 3, 0.6, 0.7, 0.75, 1.0])
def test_token_overlap_matching_equals_the_all_pairs_reference(threshold: float) -> None:
    matcher = Matcher(mode=TOKEN_OVERLAP, jaccard_threshold=threshold)
    for seed in range(40):
        rng = random.Random(seed)
        labels_a = random_labels(rng, 30)
        first, second = book("c1", labels_a), book("c2", random_labels(rng, 30, labels_a))
        assert match_codes(first, second, matcher) == reference_token_overlap(
            first, second, threshold), f"seed {seed}"


def test_token_overlap_keeps_pairs_exactly_at_the_threshold() -> None:
    # The pair scores 7 / 25 = 0.28, and 0.28 * 25 is 7.000000000000001 in
    # floats.  The 18 tokens only the first label has are the rarest, so a
    # prefix one token short would hold none of the shared ones.
    shared = [f"Both{index}" for index in range(7)]
    first = book("c1", [" ".join([f"Own{index:02d}" for index in range(18)] + shared)])
    second = book("c2", [" ".join(shared)])
    result = match_codes(first, second, Matcher(mode=TOKEN_OVERLAP, jaccard_threshold=0.28))
    assert result.pairs == ((first.labels[0], second.labels[0]),)


def three_word_labels(rng: random.Random, size: int, own: str, other: str,
                      shared_word: str) -> list[str]:
    """``size`` labels of ``shared_word`` and two words, with distinct keys.
    One word in ten comes from the other book's vocabulary of 512 words."""
    labels: dict[str, str] = {}
    while len(labels) < size:
        label = shared_word + " ".join(f"{other if rng.random() < 0.1 else own}{rng.randrange(512)}"
                                  for _ in range(2))
        labels.setdefault(label_key(label), label)
    return list(labels.values())


@pytest.mark.parametrize("shared_word", ["", "Support "], ids=["disjoint", "shared-word"])
def test_token_overlap_scores_a_linear_number_of_pairs(
        monkeypatch: pytest.MonkeyPatch, shared_word: str) -> None:
    # Two 1,024-label books with mostly disjoint vocabularies; every 16th label
    # of the second is a reordered copy of one of the first.  With a word that
    # every label shares, a plain token index would score all n * n pairs.
    size = 1024
    rng = random.Random(7)
    labels_a = three_word_labels(rng, size, "alpha", "beta", shared_word)
    labels_b = three_word_labels(rng, size, "beta", "alpha", shared_word)
    planted = {labels_a[index * 7 % size]: index for index in range(0, size, 16)}
    for label, index in planted.items():
        labels_b[index] = " ".join(reversed(label.split()))
    calls = 0
    score = thematica.codebook._token_jaccard

    def counted(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
        nonlocal calls
        calls += 1
        return score(tokens_a, tokens_b)

    monkeypatch.setattr(thematica.codebook, "_token_jaccard", counted)
    result = match_codes(book("c1", labels_a), book("c2", labels_b),
                         Matcher(mode=TOKEN_OVERLAP))
    assert {(label, labels_b[index]) for label, index in planted.items()} <= set(result.pairs)
    # The all-pairs loop scores size * size = 1,048,576 pairs.
    assert calls <= 4 * size


def test_match_codes_requires_nonempty_books() -> None:
    filled = book("c1", ["Alpha"])
    hollow = Codebook(coder_id="c2", provenance="human")
    with pytest.raises(EmptyCodebook):
        match_codes(filled, hollow, Matcher())


def test_match_result_rejects_reused_labels() -> None:
    with pytest.raises(ValueError):
        MatchResult(pairs=(("A", "B"),), outliers_a=("A",), outliers_b=())


def test_merge_keeps_first_coder_record_and_adds_alias() -> None:
    first = book("c1", ["Accidental Career Discovery", "Solo A"])
    second = book("c2", ["Career Midwife by chance", "Solo B"])
    matcher = Matcher(mode=ALIAS_MAP, alias_map={
        "Career Midwife by chance": "Accidental Career Discovery",
    })
    result = match_codes(first, second, matcher)
    merged, count = merge_codebooks(first, second, result)
    assert count == 3
    assert merged.coder_id == "c1+c2"
    assert merged.provenance == "human-merged"
    assert [r.label for r in merged.codes] == [
        "Accidental Career Discovery", "Solo A", "Solo B",
    ]
    paired = merged.codes[0]
    assert paired.provenance == "human-merged"
    assert paired.aliases == ("Career Midwife by chance",)
    assert paired.quote == "quote for Accidental Career Discovery"
    assert merged.codes[1].provenance == "human"


def test_merge_skips_alias_when_labels_normalize_identically() -> None:
    first = book("c1", ["Same Label"])
    second = book("c2", ["same label"])
    merged, count = merge_codebooks(first, second, match_codes(first, second, Matcher()))
    assert count == 1
    assert merged.codes[0].aliases == ()


# Pairings that leave out a code of the first codebook, of the second, or of both.
INCOMPLETE_PAIRINGS = (
    (["Alpha", "Beta"], ["Alpha"], MatchResult(pairs=(("Alpha", "Alpha"),),
                                               outliers_a=(), outliers_b=())),
    (["Alpha"], ["Alpha", "Beta"], MatchResult(pairs=(("Alpha", "Alpha"),),
                                               outliers_a=(), outliers_b=())),
    (["Alpha"], ["Beta"], MatchResult(pairs=(), outliers_a=(), outliers_b=())),
)


def test_merge_rejects_pairs_not_drawn_from_inputs() -> None:
    first = book("c1", ["Alpha"])
    second = book("c2", ["Beta"])
    bogus = MatchResult(pairs=(("Alpha", "Gamma"),), outliers_a=(), outliers_b=("Beta",))
    with pytest.raises(InconsistentMatch):
        merge_codebooks(first, second, bogus)
    stray_outlier = MatchResult(pairs=(), outliers_a=("Missing",), outliers_b=())
    with pytest.raises(InconsistentMatch):
        merge_codebooks(first, second, stray_outlier)
    for labels_a, labels_b, incomplete in INCOMPLETE_PAIRINGS:
        with pytest.raises(InconsistentMatch):
            merge_codebooks(book("c1", labels_a), book("c2", labels_b), incomplete)


_ALPHABET = tuple(f"Code {letter}" for letter in "ABCDEFGHIJ")


@settings(max_examples=200, deadline=None)
@given(
    picks_a=st.sets(st.sampled_from(_ALPHABET), min_size=1, max_size=6),
    picks_b=st.sets(st.sampled_from(_ALPHABET), min_size=1, max_size=6),
)
def test_match_and_merge_agree_with_set_arithmetic(picks_a: set[str], picks_b: set[str]) -> None:
    first = book("c1", sorted(picks_a))
    second = book("c2", sorted(picks_b))
    result = match_codes(first, second, Matcher())
    assert {pair[0] for pair in result.pairs} == picks_a & picks_b
    assert set(result.outliers_a) == picks_a - picks_b
    assert set(result.outliers_b) == picks_b - picks_a
    merged, count = merge_codebooks(first, second, result)
    assert count == len(picks_a | picks_b)
    assert set(merged.labels) == picks_a | picks_b


def write_codebook_csv(path: Path, rows: list[tuple[str, str, str, str, str]]) -> Path:
    lines = ["coder_id,theme,code_label,supporting_quote,page"]
    lines += [",".join(f'"{cell}"' for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_human_codebook_groups_themes_in_order(tmp_path: Path) -> None:
    path = write_codebook_csv(tmp_path / "coder.csv", [
        ("coder1", "Push Factors", "Low Pay", "the salary was small", "3"),
        ("coder1", "Push Factors", "No Training", "", ""),
        ("coder1", "Pull Factors", "Better Equipment", "", ""),
    ])
    codebook = load_human_codebook(path)
    assert codebook.coder_id == "coder1"
    assert codebook.provenance == "human"
    assert codebook.labels == ("Low Pay", "No Training", "Better Equipment")
    assert codebook.codes[0].page == 3
    assert codebook.codes[1].page is None
    assert [t.name for t in codebook.themes] == ["Push Factors", "Pull Factors"]
    assert codebook.themes[0].member_labels == ("Low Pay", "No Training")


def test_load_human_codebook_warns_once_for_quoteless_rows(
        tmp_path: Path, caplog: pytest.LogCaptureFixture) -> None:
    path = write_codebook_csv(tmp_path / "coder.csv", [
        ("coder1", "T", "First", "", ""),
        ("coder1", "T", "Second", "", ""),
    ])
    with caplog.at_level(logging.WARNING, logger="thematica.codebook"):
        load_human_codebook(path)
    warnings = [rec for rec in caplog.records if "no supporting quote" in rec.getMessage()]
    assert len(warnings) == 1
    assert "2 of 2 rows" in warnings[0].getMessage()


def test_load_human_codebook_schema_errors(tmp_path: Path) -> None:
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("coder,label\nx,y\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="missing column"):
        load_human_codebook(bad_header)

    empty = write_codebook_csv(tmp_path / "empty.csv", [])
    with pytest.raises(EmptyCodebook):
        load_human_codebook(empty)

    mixed = write_codebook_csv(tmp_path / "mixed.csv", [
        ("coder1", "T", "One", "", ""),
        ("coder2", "T", "Two", "", ""),
    ])
    with pytest.raises(SchemaError, match="mixed coder ids"):
        load_human_codebook(mixed)

    bad_page = write_codebook_csv(tmp_path / "badpage.csv", [
        ("coder1", "T", "One", "", "seven"),
    ])
    with pytest.raises(SchemaError, match="not an integer"):
        load_human_codebook(bad_page)

    no_label = write_codebook_csv(tmp_path / "nolabel.csv", [
        ("coder1", "T", "", "", ""),
    ])
    with pytest.raises(SchemaError, match="empty code_label"):
        load_human_codebook(no_label)


def test_load_human_codebook_attaches_interpretation_sidecar(tmp_path: Path) -> None:
    csv_path = write_codebook_csv(tmp_path / "coder.csv", [
        ("coder1", "Push Factors", "Low Pay", "", ""),
        ("coder1", "Pull Factors", "Better Equipment", "", ""),
    ])
    sidecar = tmp_path / "notes.txt"
    sidecar.write_text(
        "Theme: push factors\nPay and conditions drove the decision.\n\n"
        "Theme: Unknown Theme\nOrphan prose.\n",
        encoding="utf-8",
    )
    codebook = load_human_codebook(csv_path, interpretations_path=sidecar)
    assert codebook.themes[0].interpretation == "Pay and conditions drove the decision."
    assert codebook.themes[1].interpretation is None


def test_load_alias_map_round_trip_and_conflicts(tmp_path: Path) -> None:
    good = tmp_path / "aliases.csv"
    good.write_text(
        "from_label,to_label\nCareer Midwife by chance,Accidental Career Discovery\n"
        "Curiosity,Curiosity-driven Migration\n",
        encoding="utf-8",
    )
    mapping = load_alias_map(good)
    assert mapping["Career Midwife by chance"] == "Accidental Career Discovery"
    assert len(mapping) == 2

    conflicted = tmp_path / "conflict.csv"
    conflicted.write_text(
        "from_label,to_label\nSame Source,Target One\nSame Source,Target Two\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="aliased to both"):
        load_alias_map(conflicted)

    chained = tmp_path / "chain.csv"
    chained.write_text("from_label,to_label\nA,B\nB,C\n", encoding="utf-8")
    with pytest.raises(AliasChain):
        load_alias_map(chained)

    headerless = tmp_path / "headerless.csv"
    headerless.write_text("x,y\nA,B\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="from_label"):
        load_alias_map(headerless)


def test_load_human_codebook_names_the_physical_line_of_the_row_at_fault(tmp_path: Path) -> None:
    header = ",".join(HUMAN_CSV_COLUMNS)
    path = tmp_path / "c.csv"
    # A blank line 3 and a quoted two-line cell on lines 4-5 put the third row on line 6.
    path.write_text(f'{header}\nc1,T,One,,1\n\nc1,T,Two,"first\nsecond",2\nc1,T,Three,,0\n',
                    encoding="utf-8")
    with pytest.raises(SchemaError) as caught:
        load_human_codebook(path)
    assert str(caught.value) == "c.csv:6: page must be >= 1, got 0"

    path.write_text(f'{header}\nc1,T,One,,1\n\nc1,T,Two,"first\nsecond",2\nc1,T,two,,3\n',
                    encoding="utf-8")
    with pytest.raises(SchemaError) as caught:
        load_human_codebook(path)
    assert str(caught.value) == ("c.csv:6: code label 'two' collides with 'Two' (line 4) "
                                 "after normalization")


def test_load_alias_map_names_the_physical_line_of_the_row_at_fault(tmp_path: Path) -> None:
    path = tmp_path / "a.csv"
    path.write_text("from_label,to_label\n\nA,B\nC,\n", encoding="utf-8")
    with pytest.raises(SchemaError) as caught:
        load_alias_map(path)
    assert str(caught.value) == "a.csv:4: empty label"

    path.write_text('from_label,to_label\n\n"A\na",B\nA a,C\n', encoding="utf-8")
    with pytest.raises(SchemaError) as caught:
        load_alias_map(path)
    assert str(caught.value) == "a.csv:5: 'A a' aliased to both 'B' and 'C'"


def _counting(monkeypatch: pytest.MonkeyPatch) -> Counter:
    """Count the label normalizations and keys that codebooks and records compute."""
    calls: Counter = Counter()
    for module, name in ((thematica.codebook, "normalize_label"),
                         (thematica.codebook, "label_key"), (thematica.outparse, "label_key")):
        def counted(text: str, original=getattr(module, name), name: str = name) -> str:
            calls[name] += 1
            return original(text)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_load_human_codebook_normalizes_and_keys_each_theme_cell_once(
        monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _counting(monkeypatch)
    codebook = load_human_codebook(SAMPLES / "coder1.csv")
    # One normalization and one key per code label of the 69 rows, and one
    # of each per distinct theme cell of the 23.
    assert len(codebook.codes) == 69
    assert len(codebook.themes) == 23
    assert calls == {"normalize_label": 92, "label_key": 92}


def test_merge_codebooks_copies_the_keys_of_paired_records(monkeypatch: pytest.MonkeyPatch) -> None:
    first = load_human_codebook(SAMPLES / "coder1.csv")
    second = load_human_codebook(SAMPLES / "coder2.csv")
    match = match_codes(first, second, load_alias_matcher(SAMPLES / "alias_map.csv"))
    assert len(match.pairs) == 67
    calls = _counting(monkeypatch)
    merged, count = merge_codebooks(first, second, match)
    assert calls == {}
    assert count == 104
    assert [record.key for record in merged.codes] == [label_key(r.label) for r in merged.codes]
    assert sum(record.provenance == "human-merged" for record in merged.codes) == 67


# The loaders as they read with csv.DictReader, which counted data rows, not
# file lines: what the positional reader must still read, apart from the lines.
def reference_load_human_codebook(path: Path) -> Codebook:
    reader = csv.DictReader(io.StringIO(read_utf8(path)))
    header = reader.fieldnames or []
    missing = [column for column in HUMAN_CSV_COLUMNS if column not in header]
    if missing:
        raise SchemaError(f"{path.name}: missing column(s) {', '.join(missing)}")
    rows = list(reader)
    if not rows:
        raise EmptyCodebook(f"{path.name}: no data rows")
    coder_id = ""
    codes: list[CodeRecord] = []
    first_codes: dict[str, tuple[str, int]] = {}
    first_themes: dict[str, tuple[str, int, list[str]]] = {}
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
        page_field = (row["page"] or "").strip()
        if page_field:
            try:
                page: int | None = int(page_field)
            except ValueError as exc:
                raise SchemaError(f"{path.name}:{line}: page {page_field!r} is not an integer") from exc
        else:
            page = None
        try:
            record = CodeRecord(label=label, quote=quote, page=page, provenance="human")
        except ValueError as exc:
            raise SchemaError(f"{path.name}:{line}: {exc}") from None
        first, first_line = first_codes.setdefault(record.key, (label, line))
        if first_line != line:
            raise SchemaError(f"{path.name}:{line}: code label {label!r} collides with {first!r} "
                              f"(line {first_line}) after normalization")
        codes.append(record)
        theme_name = normalize_label(row["theme"] or "")
        if len(theme_name) > MAX_LABEL_LENGTH:
            raise SchemaError(f"{path.name}:{line}: theme name exceeds {MAX_LABEL_LENGTH} characters")
        if theme_name:
            first, first_line, members = first_themes.setdefault(
                label_key(theme_name), (theme_name, line, []))
            if first != theme_name:
                raise SchemaError(f"{path.name}:{line}: theme name {theme_name!r} collides with "
                                  f"{first!r} (line {first_line}) after normalization")
            members.append(label)
    if not coder_id:
        raise SchemaError(f"{path.name}: coder_id missing from every row")
    themes = tuple(ThemeRecord(name=name, member_labels=tuple(members))
                   for name, _, members in first_themes.values())
    return Codebook(coder_id=coder_id, provenance="human", codes=tuple(codes), themes=themes)


def reference_load_alias_matcher(path: Path) -> Matcher:
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
    return Matcher(mode=ALIAS_MAP, alias_map=mapping)


def _often(common: list, rare: list) -> st.SearchStrategy:
    """Each common value three times as likely as each rare one."""
    return st.sampled_from(common * 3 + rare)


_HUMAN_CELLS = {
    "coder_id": _often(["c1"], [" c1 ", "", "c2"]),
    "theme": _often(["Push Factors", "Pull", "Push, Pull", "Push\nPull"],
                    ["push factors", "PUSH FACTORS", "Push  Factors!", "**Pull**", "1. Pull",
                     "pull", "", "T" * 201]),
    "code_label": st.text(alphabet="abcdefgh", min_size=3, max_size=6) | _often(
        ["Low Pay", "No Training", "Pay, and Hours", "two\nlines", '"quoted"'],
        ["low pay", "Low  Pay!", "**Low Pay**", "1. No Training", "", " ", "*_*"]),
    "supporting_quote": st.sampled_from(["", "a quote", "with, a comma", "two\nlines", '"said"']),
    "page": _often(["", "1", "2", " 3 ", "12"], ["0", "-1", "x"]),
}
_ALIAS_CELLS = {name: _often(["A", "B", "C", "D, E", "F\nG", "H"], ["a", "A!", "**b**", ""])
                for name in ("from_label", "to_label")}
_OTHER_CELLS = st.sampled_from(["", "note", "x, y", "one\ntwo"])


@st.composite
def csv_files(draw, cells: dict) -> tuple[str, list[int]]:
    """CSV text with the ``cells`` columns, and the physical start line of each non-blank data row.

    Columns come in any order, some are missing or extra, and a name may be
    repeated; rows may be blank, short or long; cells hold quoted commas,
    quoted newlines and labels that collide after normalization.
    """
    header = draw(st.permutations(list(cells) + draw(st.lists(
        st.sampled_from(["notes", "extra"]), max_size=2))))
    if draw(st.sampled_from([False] * 9 + [True])):
        dropped = draw(st.sampled_from(list(cells)))
        header = [name for name in header if name != dropped]
    for _ in range(draw(_often([0], [1, 2]))):
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(header)))
    lead = [[]] * draw(st.sampled_from([0] * 9 + [1]))
    rows: list[list[str]] = []
    for _ in range(draw(st.integers(1, 8))):
        row = [draw(cells.get(name, _OTHER_CELLS)) for name in header]
        shape = draw(_often(["full", "full", "blank"], ["short", "long"]))
        if shape == "blank":
            row = []
        elif shape == "short":
            row = row[:draw(st.integers(1, len(row)))]
        elif shape == "long":
            row += draw(st.lists(_OTHER_CELLS, min_size=1, max_size=2))
        rows.append(row)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(lead + [header])
    starts: list[int] = []
    for row in rows:
        if row:
            starts.append(buffer.getvalue().count("\n") + 1)
        writer.writerow(row)
    return buffer.getvalue(), starts


def _outcome(load, path: Path):
    try:
        return load(path)
    except ThematicaError as exc:  # compared by class and message
        return exc


def _at_physical_lines(message: str, starts: list[int]) -> str:
    """A reference message with each data-row number replaced by the row's physical line."""
    def physical(found: re.Match) -> str:
        return found.group(1) + str(starts[int(found.group(2)) - 2]) + found.group(3)
    return re.sub(r"(^\S+?:|\(line )(\d+)(:|\))", physical, message)


def _assert_same_outcome(got, expected, starts: list[int]) -> None:
    if isinstance(expected, ThematicaError):
        assert type(got) is type(expected)
        assert str(got) == _at_physical_lines(str(expected), starts)
    else:
        assert got == expected


@settings(max_examples=300, deadline=None)
@given(csv_files(_HUMAN_CELLS))
def test_load_human_codebook_reads_what_the_dict_reader_read(
        tmp_path_factory: pytest.TempPathFactory, table: tuple[str, list[int]]) -> None:
    text, starts = table
    path = tmp_path_factory.mktemp("human") / "coder.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(load_human_codebook, path)
    expected = _outcome(reference_load_human_codebook, path)
    _assert_same_outcome(got, expected, starts)
    if isinstance(got, Codebook):
        assert [record.key for record in got.codes] == [record.key for record in expected.codes]
        assert [theme.member_labels for theme in got.themes] == [
            theme.member_labels for theme in expected.themes]


@settings(max_examples=300, deadline=None)
@given(csv_files(_ALIAS_CELLS))
def test_load_alias_matcher_reads_what_the_dict_reader_read(
        tmp_path_factory: pytest.TempPathFactory, table: tuple[str, list[int]]) -> None:
    text, starts = table
    path = tmp_path_factory.mktemp("alias") / "aliases.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(load_alias_matcher, path)
    expected = _outcome(reference_load_alias_matcher, path)
    _assert_same_outcome(got, expected, starts)
    if isinstance(got, Matcher):
        assert list(got.alias_map.items()) == list(expected.alias_map.items())

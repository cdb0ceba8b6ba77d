"""Codebook construction, matching modes, merging, and CSV loading."""

from __future__ import annotations

import logging
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thematica.codebook import (
    ALIAS_MAP,
    EXACT_NORMALIZED,
    TOKEN_OVERLAP,
    Codebook,
    MatchResult,
    Matcher,
    jaccard,
    load_alias_map,
    load_human_codebook,
    match_codes,
    merge_codebooks,
)
from thematica.errors import (
    AliasChain,
    DuplicateLabel,
    EmptyCodebook,
    InconsistentMatch,
    SchemaError,
)
from thematica.outparse import CodeRecord


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
    assert codebook.deduped_labels() == ("Alpha", "Beta", "Gamma")


def test_jaccard_token_overlap_values() -> None:
    assert jaccard("Peer Influence on Migration Decision", "Peer influence") == pytest.approx(0.4)
    assert jaccard("Alpha Beta", "beta alpha") == 1.0
    assert jaccard("Alpha", "Beta") == 0.0
    assert jaccard("...", "...") == 1.0
    assert jaccard("...", "Alpha") == 0.0


def test_matcher_exact_mode_is_case_insensitive() -> None:
    matcher = Matcher()
    assert matcher.matches("Initial Climate Shock", "initial climate shock")
    assert not matcher.matches("Initial Climate Shock", "Initial Culture Shock")
    assert matcher.canonical_label("Anything") == "Anything"


def test_matcher_alias_mode_rewrites_to_target() -> None:
    matcher = Matcher(mode=ALIAS_MAP, alias_map={
        "Career Midwife by chance": "Accidental Career Discovery",
    })
    assert matcher.canonical_label("career midwife BY chance") == "Accidental Career Discovery"
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


def test_merge_rejects_pairs_not_drawn_from_inputs() -> None:
    first = book("c1", ["Alpha"])
    second = book("c2", ["Beta"])
    bogus = MatchResult(pairs=(("Alpha", "Gamma"),), outliers_a=(), outliers_b=("Beta",))
    with pytest.raises(InconsistentMatch):
        merge_codebooks(first, second, bogus)
    stray_outlier = MatchResult(pairs=(), outliers_a=("Missing",), outliers_b=())
    with pytest.raises(InconsistentMatch):
        merge_codebooks(first, second, stray_outlier)


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

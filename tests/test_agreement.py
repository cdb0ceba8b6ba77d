"""Agreement formulas, display rounding, kappa, and presence matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thematica.agreement import (
    AgreementSummary,
    PresenceMatrix,
    build_table4_summary,
    cohens_kappa,
    format_percent,
    overlap_percentage,
    percentage_difference,
    percentage_pair,
    percentage_similarity,
    presence_matrix,
    round_display,
    share_percentage,
)
from thematica.codebook import ALIAS_MAP, TOKEN_OVERLAP, Codebook, Matcher, MatchResult, match_codes
from thematica.errors import (
    InconsistentMatch,
    LengthMismatch,
    PartExceedsTotal,
    SimilarExceedsOwn,
    ZeroBaseline,
    ZeroOwnCount,
    ZeroTotal,
)
from thematica.outparse import CodeRecord


def book(coder_id: str, labels: list[str]) -> Codebook:
    return Codebook(coder_id=coder_id, provenance="human", codes=tuple(
        CodeRecord(label=label, quote="q", page=1) for label in labels
    ))


def test_difference_and_similarity_reference_values() -> None:
    assert percentage_difference(67, 59) == pytest.approx(11.94, abs=0.005)
    assert percentage_similarity(67, 59) == pytest.approx(88.06, abs=0.005)


def test_difference_can_go_negative() -> None:
    assert percentage_difference(59, 67) == pytest.approx(-13.56, abs=0.005)
    assert percentage_similarity(59, 67) == pytest.approx(113.56, abs=0.005)


def test_percentage_pair_is_exactly_complementary() -> None:
    difference, similarity = percentage_pair(67, 59)
    assert isinstance(difference, Fraction) and isinstance(similarity, Fraction)
    assert difference + similarity == 100
    assert difference == Fraction(800, 67)


def test_zero_baseline_rejected() -> None:
    with pytest.raises(ZeroBaseline):
        percentage_difference(0, 10)
    with pytest.raises(ValueError):
        percentage_pair(5, -1)


def test_share_reference_values() -> None:
    assert share_percentage(4, 19) == pytest.approx(21.05, abs=0.005)
    assert share_percentage(15, 19) == pytest.approx(78.95, abs=0.005)
    assert share_percentage(67, 126) == pytest.approx(53.17, abs=0.005)
    assert share_percentage(59, 126) == pytest.approx(46.83, abs=0.005)


def test_share_guards() -> None:
    with pytest.raises(ZeroTotal):
        share_percentage(1, 0)
    with pytest.raises(PartExceedsTotal):
        share_percentage(5, 4)


def test_overlap_reference_values() -> None:
    assert overlap_percentage(15, 23) == pytest.approx(65.22, abs=0.005)
    assert overlap_percentage(15, 26) == pytest.approx(57.69, abs=0.005)


def test_overlap_guards() -> None:
    with pytest.raises(ZeroOwnCount):
        overlap_percentage(1, 0)
    with pytest.raises(SimilarExceedsOwn):
        overlap_percentage(7, 6)


def test_round_display_is_half_up() -> None:
    assert round_display(2.675) == 2.68
    assert round_display(2.665) == 2.67
    assert round_display(11.940298507462687) == 11.94
    assert round_display(Fraction(5900, 67)) == 88.06
    assert round_display(0.005) == 0.01
    assert round_display(-1) == -1.0


def test_format_percent_prints_two_decimals() -> None:
    assert format_percent(Fraction(800, 67)) == "11.94"
    assert format_percent(100) == "100.00"
    assert format_percent(78.94736842105263) == "78.95"


@settings(max_examples=200, deadline=None)
@given(count_a=st.integers(1, 500), count_b=st.integers(0, 500))
def test_pair_complementarity_law(count_a: int, count_b: int) -> None:
    difference, similarity = percentage_pair(count_a, count_b)
    assert difference + similarity == 100
    assert float(difference) == pytest.approx(percentage_difference(count_a, count_b))


@settings(max_examples=200, deadline=None)
@given(part=st.integers(0, 300), rest=st.integers(0, 300))
def test_shares_of_a_split_sum_to_hundred(part: int, rest: int) -> None:
    total = part + rest
    if total == 0:
        return
    share_one = share_percentage(part, total)
    share_two = share_percentage(rest, total)
    assert share_one + share_two == pytest.approx(100.0, abs=1e-9)


def test_kappa_reference_points() -> None:
    assert cohens_kappa([1, 1, 0, 0], [1, 1, 0, 0]) == 1.0
    assert cohens_kappa([1, 1, 0, 0], [0, 0, 1, 1]) == -1.0
    assert cohens_kappa([1, 1, 0, 0], [1, 0, 1, 0]) == 0.0


def test_kappa_validation() -> None:
    with pytest.raises(LengthMismatch):
        cohens_kappa([1, 0], [1])
    with pytest.raises(LengthMismatch):
        cohens_kappa([], [])
    with pytest.raises(ValueError):
        cohens_kappa([2, 0], [1, 0])


def test_kappa_constant_vector_edge_cases() -> None:
    assert cohens_kappa([1, 1, 1], [1, 1, 1]) == 1.0
    assert cohens_kappa([0, 0], [0, 0]) == 1.0
    assert cohens_kappa([1, 1], [0, 0]) == 0.0


def _confusion_matrix_kappa(x: list[int], y: list[int]) -> float:
    both = sum(1 for a, b in zip(x, y) if a == 1 and b == 1)
    neither = sum(1 for a, b in zip(x, y) if a == 0 and b == 0)
    only_x = sum(1 for a, b in zip(x, y) if a == 1 and b == 0)
    only_y = sum(1 for a, b in zip(x, y) if a == 0 and b == 1)
    n = both + neither + only_x + only_y
    p_o = (both + neither) / n
    p_yes = ((both + only_x) / n) * ((both + only_y) / n)
    p_no = ((neither + only_y) / n) * ((neither + only_x) / n)
    p_e = p_yes + p_no
    return (p_o - p_e) / (1 - p_e)


def test_kappa_matches_confusion_matrix_computation() -> None:
    rng = random.Random(404)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 40)
        x = [rng.randint(0, 1) for _ in range(n)]
        y = [rng.randint(0, 1) for _ in range(n)]
        if x == y and sum(x) in (0, n):
            continue
        assert cohens_kappa(x, y) == pytest.approx(_confusion_matrix_kappa(x, y), abs=1e-9)
        checked += 1


def test_presence_matrix_first_appearance_rows() -> None:
    first = book("c1", ["Alpha", "Beta"])
    second = book("c2", ["beta", "Gamma"])
    matrix = presence_matrix([first, second], Matcher())
    assert matrix.row_labels == ("Alpha", "Beta", "Gamma")
    assert matrix.coder_ids == ("c1", "c2")
    assert matrix.cells == ((1, 0), (1, 1), (0, 1))
    assert list(matrix.column_vector("c1")) == [1, 1, 0]
    assert list(matrix.column_vector("c2")) == [0, 1, 1]


def test_presence_matrix_against_set_oracle() -> None:
    rng = random.Random(99)
    alphabet = [f"Code {letter}" for letter in "ABCDEFGHIJ"]
    matcher = Matcher()
    for _ in range(50):
        labels_a = rng.sample(alphabet, rng.randint(1, 6))
        labels_b = rng.sample(alphabet, rng.randint(1, 6))
        matrix = presence_matrix([book("a", labels_a), book("b", labels_b)], matcher)
        assert set(matrix.row_labels) == set(labels_a) | set(labels_b)
        for row_label, (in_a, in_b) in zip(matrix.row_labels, matrix.cells):
            assert in_a == int(row_label in labels_a)
            assert in_b == int(row_label in labels_b)


def first_fit_presence_matrix(codebooks, matcher) -> PresenceMatrix:
    """The original quadratic presence matrix, kept as a reference."""
    row_labels: list[str] = []
    presence: list[list[int]] = []
    for column, codebook in enumerate(codebooks):
        for record in codebook.codes:
            label = matcher.canonical_label(record.label)
            target = None
            for row_index, existing in enumerate(row_labels):
                if matcher.matches(existing, label):
                    target = row_index
                    break
            if target is None:
                row_labels.append(label)
                presence.append([0] * len(codebooks))
                target = len(row_labels) - 1
            presence[target][column] = 1
    return PresenceMatrix(
        row_labels=tuple(row_labels),
        coder_ids=tuple(codebook.coder_id for codebook in codebooks),
        cells=tuple(tuple(row) for row in presence),
    )


def test_presence_matrix_key_index_equals_first_fit_reference() -> None:
    rng = random.Random(2024)
    names = [f"Code {letter}" for letter in "ABCDEFGHIJKL"]
    surfaces = {name: (name, name.lower(), name.upper().replace(" ", "-"), f"**{name}**")
                for name in names}
    # Two labels alias to "Code A"; "Code B" is aliased by a case variant of
    # itself; "Code L" is a target no coder uses.
    alias_map = {"Code C": "Code A", "code d": "Code A", "CODE-E": "Code F",
                 "code b": "Code B", "Code K": "Code L"}
    matchers = (Matcher(), Matcher(mode=ALIAS_MAP, alias_map=alias_map))
    for _ in range(300):
        books = [
            book(f"coder{column}", [rng.choice(surfaces[name])
                                    for name in rng.sample(names, rng.randint(1, 8))])
            for column in range(rng.randint(1, 3))
        ]
        for matcher in matchers:
            expected = first_fit_presence_matrix(books, matcher)
            matrix = presence_matrix(books, matcher)
            assert matrix.row_labels == expected.row_labels
            assert matrix.coder_ids == expected.coder_ids
            assert matrix.cells == expected.cells


def test_token_overlap_presence_rows_follow_the_pairing() -> None:
    matcher = Matcher(TOKEN_OVERLAP, jaccard_threshold=0.6)
    first = book("a", ["family support network", "family support"])
    second = book("b", ["support network family", "career growth"])
    match = match_codes(first, second, matcher)
    assert match.pairs == (("family support network", "support network family"),)
    for matrix in (presence_matrix([first, second], matcher, match),
                   presence_matrix([first, second], matcher)):
        assert matrix.row_labels == ("family support network", "family support", "career growth")
        assert sum(1 for row in matrix.cells if row == (1, 1)) == len(match.pairs)
        assert sum(matrix.column_vector("a")) == len(first.codes)
        assert sum(matrix.column_vector("b")) == len(second.codes)


def test_token_overlap_presence_rejects_foreign_pairs_and_extra_coders() -> None:
    matcher = Matcher(TOKEN_OVERLAP)
    first, second = book("a", ["Alpha"]), book("b", ["Beta"])
    foreign = MatchResult(pairs=(("Alpha", "Gamma"),), outliers_a=(), outliers_b=("Beta",))
    with pytest.raises(InconsistentMatch):
        presence_matrix([first, second], matcher, foreign)
    with pytest.raises(ValueError):
        presence_matrix([first, second, book("c", ["Alpha"])], matcher)


def test_combined_summary_reference_values_and_ratio_note() -> None:
    summary = build_table4_summary(67, 59)
    assert summary.total_combined == 126
    assert summary.share_a == pytest.approx(53.17, abs=0.005)
    assert summary.share_b == pytest.approx(46.83, abs=0.005)
    assert summary.percentage_difference == pytest.approx(11.94, abs=0.005)
    assert summary.percentage_similarity == pytest.approx(88.06, abs=0.005)
    assert summary.similar_count == 118
    assert len(summary.notes) == 1
    assert summary.notes[0] == (
        "similar-count share 118/126 = 93.65% differs from the formula-based "
        "similarity 88.06%"
    )


def test_combined_summary_negative_difference_note() -> None:
    summary = build_table4_summary(59, 67)
    assert summary.percentage_difference < 0
    assert any("difference is negative" in note for note in summary.notes)


def test_summary_total_consistency_enforced() -> None:
    with pytest.raises(ValueError):
        AgreementSummary(count_a=3, count_b=4, similar_count=2,
                         percentage_difference=0.0, percentage_similarity=100.0,
                         total_combined=8, share_a=50.0, share_b=50.0)


def test_presence_matrix_rejects_nonbinary_cells() -> None:
    with pytest.raises(ValueError):
        PresenceMatrix(row_labels=("A",), coder_ids=("x", "y"), cells=((2, 0),))

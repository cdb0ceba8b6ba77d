"""Agreement formulas, display rounding, kappa, and presence matrices."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_codebook import INCOMPLETE_PAIRINGS

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
    positive_specific_agreement,
    presence_matrix,
    round_display,
    share_percentage,
)
from thematica.codebook import (
    ALIAS_MAP,
    EXACT_NORMALIZED,
    TOKEN_OVERLAP,
    Codebook,
    Matcher,
    MatchResult,
    match_codes,
    merge_codebooks,
)
from thematica.errors import AgreementInputError, InconsistentMatch
from thematica.outparse import CodeRecord
from thematica.textnorm import label_key


def book(coder_id: str, labels: list[str]) -> Codebook:
    return Codebook(coder_id=coder_id, provenance="human", codes=tuple(
        CodeRecord(label=label, quote="q", page=1) for label in labels
    ))


def has_canonical_collision(codebook: Codebook, matcher: Matcher) -> bool:
    """Whether ``codebook`` holds two codes with one canonical key."""
    keys = {matcher.resolve(record.label, record.key)[1] for record in codebook.codes}
    return len(keys) < len(codebook.codes)


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
    with pytest.raises(AgreementInputError, match="baseline count_a must be positive"):
        percentage_difference(0, 10)
    with pytest.raises(ValueError):
        percentage_pair(5, -1)


def test_share_reference_values() -> None:
    assert share_percentage(4, 19) == pytest.approx(21.05, abs=0.005)
    assert share_percentage(15, 19) == pytest.approx(78.95, abs=0.005)
    assert share_percentage(67, 126) == pytest.approx(53.17, abs=0.005)
    assert share_percentage(59, 126) == pytest.approx(46.83, abs=0.005)


def test_share_guards() -> None:
    with pytest.raises(AgreementInputError, match="total must be positive"):
        share_percentage(1, 0)
    with pytest.raises(AgreementInputError, match="part 5 exceeds total 4"):
        share_percentage(5, 4)


def test_overlap_reference_values() -> None:
    assert overlap_percentage(15, 23) == pytest.approx(65.22, abs=0.005)
    assert overlap_percentage(15, 26) == pytest.approx(57.69, abs=0.005)


def test_overlap_guards() -> None:
    with pytest.raises(AgreementInputError, match="own_count must be positive"):
        overlap_percentage(1, 0)
    with pytest.raises(AgreementInputError, match="similar 7 exceeds own count 6"):
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
    with pytest.raises(AgreementInputError, match="vector lengths differ: 2 vs 1"):
        cohens_kappa([1, 0], [1])
    with pytest.raises(AgreementInputError, match="vectors must be non-empty"):
        cohens_kappa([], [])
    with pytest.raises(ValueError):
        cohens_kappa([2, 0], [1, 0])


def test_positive_specific_agreement_reference_points_and_validation() -> None:
    assert positive_specific_agreement([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5
    assert positive_specific_agreement([1, 1, 0], [1, 1, 0]) == 1.0
    assert positive_specific_agreement([1, 0], [0, 1]) == 0.0
    # Rows where both are 0 do not count.
    assert positive_specific_agreement([1, 1, 0, 0, 0], [1, 0, 0, 0, 0]) == pytest.approx(2 / 3)
    with pytest.raises(AgreementInputError, match="vector lengths differ: 2 vs 1"):
        positive_specific_agreement([1, 0], [1])
    with pytest.raises(ValueError):
        positive_specific_agreement([2, 0], [1, 0])
    with pytest.raises(AgreementInputError, match="neither vector has a positive cell"):
        positive_specific_agreement([0, 0], [0, 0])


def _seeded_codebook_pair(rng: random.Random, mode: str) -> tuple[Codebook, Codebook, Matcher]:
    """Two codebooks for ``mode``.

    In alias mode "Code B" and "Code D" are aliases of "Code A" and "Code C",
    so a codebook may hold two codes with one canonical label.
    """
    names = [f"Code {letter}" for letter in "ABCDEFGHIJ"]
    picks_a = rng.sample(names, rng.randint(1, 7))
    picks_b = list(picks_a) if rng.random() < 0.2 else rng.sample(names, rng.randint(1, 7))
    rng.shuffle(picks_b)
    if mode == ALIAS_MAP:
        alias_map = {f"Alias {name[-1]}": name for name in names[::2]}
        aliases = {name: alias for alias, name in alias_map.items()}
        alias_map.update({"Code B": "Code A", "Code D": "Code C"})
        labels_b = [aliases.get(name, name) if rng.random() < 0.7 else name.lower()
                    for name in picks_b]
        return (book("a", picks_a), book("b", labels_b),
                Matcher(mode=ALIAS_MAP, alias_map=alias_map))
    if mode == TOKEN_OVERLAP:
        words = ("family", "support", "network", "career", "growth", "stress", "pay")
        # Distinct token sets, so no two names share a key in either codebook.
        triples = rng.sample(list(itertools.combinations(words, 3)), len(names))
        phrases = {name: " ".join(triple) for name, triple in zip(names, triples)}
        labels_a = [phrases[name] for name in picks_a]
        labels_b = [" ".join(reversed(phrases[name].split())) if rng.random() < 0.3
                    else phrases[name] for name in picks_b]
        return book("a", labels_a), book("b", labels_b), Matcher(mode=TOKEN_OVERLAP)
    return (book("a", picks_a), book("b", [name.upper() for name in picks_b]),
            Matcher(mode=EXACT_NORMALIZED))


@pytest.mark.parametrize("mode", [EXACT_NORMALIZED, ALIAS_MAP, TOKEN_OVERLAP])
def test_presence_matrix_agreement_laws(mode: str) -> None:
    """The matrix is as high as the merge count, which merging reaches
    without a label collision, and each column counts its coder's codes, so
    PSA = 2 pairs / (|A| + |B|); no row has both coders at 0, so kappa <= 0
    unless every code is matched."""
    rng = random.Random(31)
    outcomes = set()
    collisions = 0
    for _ in range(300):
        first, second, matcher = _seeded_codebook_pair(rng, mode)
        collisions += any(has_canonical_collision(codebook, matcher)
                          for codebook in (first, second))
        match = match_codes(first, second, matcher)
        matrix = presence_matrix(first, second, match, matcher)
        _, merge_count = merge_codebooks(first, second, match)
        assert len(matrix.cells) == merge_count
        x, y = matrix.column_vector("a"), matrix.column_vector("b")
        assert (sum(x), sum(y)) == (len(first.codes), len(second.codes))
        assert all(row != (0, 0) for row in matrix.cells)
        psa = positive_specific_agreement(x, y)
        assert psa == float(Fraction(2 * len(match.pairs), len(first.codes) + len(second.codes)))
        kappa = cohens_kappa(x, y)
        identical = not match.outliers_a and not match.outliers_b
        if identical:
            assert kappa == psa == 1.0
        else:
            assert kappa <= 0
            assert psa < 1.0
        outcomes.add((identical, psa > 0))
    assert outcomes == {(True, True), (False, True), (False, False)}
    assert (collisions > 0) == (mode == ALIAS_MAP)


def test_kappa_constant_vector_edge_cases() -> None:
    assert cohens_kappa([1, 1, 1], [1, 1, 1]) == 1.0
    assert cohens_kappa([0, 0], [0, 0]) == 1.0
    assert cohens_kappa([1, 1], [0, 0]) == 0.0


def test_kappa_never_raises_and_is_one_whenever_expected_agreement_is_one() -> None:
    # Every pair of binary vectors of length 1 to 6, 5,460 pairs in all.
    for n in range(1, 7):
        vectors = list(itertools.product((0, 1), repeat=n))
        for x, y in itertools.product(vectors, repeat=2):
            p_e = (Fraction(sum(x), n) * Fraction(sum(y), n)
                   + Fraction(n - sum(x), n) * Fraction(n - sum(y), n))
            kappa = cohens_kappa(x, y)
            if p_e == 1:
                assert x == y and kappa == 1.0


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
    matrix = presence_matrix(first, second, match_codes(first, second, Matcher()), Matcher())
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
        first, second = book("a", labels_a), book("b", labels_b)
        matrix = presence_matrix(first, second, match_codes(first, second, matcher), matcher)
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
            label = matcher.resolve(record.label, label_key(record.label))[0]
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
    """On two codebooks that each hold one code per canonical label, the
    pairing's rows are the first-fit rows."""
    rng = random.Random(2024)
    names = [f"Code {letter}" for letter in "ABCDEFGHIJKL"]
    surfaces = {name: (name, name.lower(), name.upper().replace(" ", "-"), f"**{name}**")
                for name in names}
    # Two labels alias to "Code A"; "Code B" is aliased by a case variant of
    # itself; "Code L" is a target no coder uses.
    alias_map = {"Code C": "Code A", "code d": "Code A", "CODE-E": "Code F",
                 "code b": "Code B", "Code K": "Code L"}
    matchers = (Matcher(), Matcher(mode=ALIAS_MAP, alias_map=alias_map))
    checked = 0
    for _ in range(300):
        books = [
            book(f"coder{column}", [rng.choice(surfaces[name])
                                    for name in rng.sample(names, rng.randint(1, 8))])
            for column in range(2)
        ]
        for matcher in matchers:
            if any(has_canonical_collision(codebook, matcher) for codebook in books):
                continue
            expected = first_fit_presence_matrix(books, matcher)
            matrix = presence_matrix(*books, match_codes(*books, matcher), matcher)
            assert matrix.row_labels == expected.row_labels
            assert matrix.coder_ids == expected.coder_ids
            assert matrix.cells == expected.cells
            checked += 1
    assert checked > 300


def test_token_overlap_presence_rows_follow_the_pairing() -> None:
    matcher = Matcher(TOKEN_OVERLAP, jaccard_threshold=0.6)
    first = book("a", ["family support network", "family support"])
    second = book("b", ["support network family", "career growth"])
    match = match_codes(first, second, matcher)
    assert match.pairs == (("family support network", "support network family"),)
    matrix = presence_matrix(first, second, match, matcher)
    assert matrix.row_labels == ("family support network", "family support", "career growth")
    assert sum(1 for row in matrix.cells if row == (1, 1)) == len(match.pairs)
    assert sum(matrix.column_vector("a")) == len(first.codes)
    assert sum(matrix.column_vector("b")) == len(second.codes)


def test_presence_matrix_keeps_codes_with_one_canonical_label_apart() -> None:
    matcher = Matcher(mode=ALIAS_MAP, alias_map={"Code C": "Code A"})
    first = book("a", ["Code C", "Code A", "Code B"])
    second = book("b", ["Code A", "Code D"])
    match = match_codes(first, second, matcher)
    assert match.pairs == (("Code A", "Code A"),)
    matrix = presence_matrix(first, second, match, matcher)
    assert matrix.row_labels == ("Code A", "Code A", "Code B", "Code D")
    assert matrix.cells == ((1, 0), (1, 1), (1, 0), (0, 1))
    assert len(matrix.cells) == merge_codebooks(first, second, match)[1] == 4
    x, y = matrix.column_vector("a"), matrix.column_vector("b")
    assert positive_specific_agreement(x, y) == 0.4


def test_presence_matrix_rejects_foreign_pairs() -> None:
    matcher = Matcher(TOKEN_OVERLAP)
    first, second = book("a", ["Alpha"]), book("b", ["Beta"])
    foreign = MatchResult(pairs=(("Alpha", "Gamma"),), outliers_a=(), outliers_b=("Beta",))
    with pytest.raises(InconsistentMatch):
        presence_matrix(first, second, foreign, matcher)
    for labels_a, labels_b, incomplete in INCOMPLETE_PAIRINGS:
        with pytest.raises(InconsistentMatch):
            presence_matrix(book("a", labels_a), book("b", labels_b), incomplete, matcher)


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

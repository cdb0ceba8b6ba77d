"""Codebook agreement statistics.

Percentages are computed with exact rational arithmetic internally so that
percentage_difference and percentage_similarity sum to exactly 100; the
public functions return floats, and :func:`percentage_pair` exposes the
exact values.  Display rounding is half-up to 2 decimals.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .codebook import Codebook, Matcher, MatchResult, merge_order
from .errors import AgreementInputError


@dataclass(frozen=True)
class AgreementSummary:
    """Code-count comparison between a baseline coder and a second coder.

    ``similar_count`` is the derived count total_combined − |count_a −
    count_b|; the percentage columns come from the difference formula, not
    from that count, and ``notes`` records when the two disagree.
    """

    count_a: int
    count_b: int
    similar_count: int
    percentage_difference: float
    percentage_similarity: float
    total_combined: int
    share_a: float
    share_b: float
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.count_a < 0 or self.count_b < 0:
            raise ValueError("counts must be non-negative")
        if self.total_combined != self.count_a + self.count_b:
            raise ValueError("total_combined must equal count_a + count_b")


@dataclass(frozen=True)
class PresenceMatrix:
    """Binary code-presence matrix: rows are canonical labels, columns coders."""

    row_labels: tuple[str, ...]
    coder_ids: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for row in self.cells:
            if len(row) != len(self.coder_ids):
                raise ValueError("matrix row width must match coder count")
            if any(cell not in (0, 1) for cell in row):
                raise ValueError("matrix cells must be binary")
        if len(self.cells) != len(self.row_labels):
            raise ValueError("matrix height must match row label count")

    def column_vector(self, coder_id: str) -> list[int]:
        index = self.coder_ids.index(coder_id)
        return [row[index] for row in self.cells]


def round_display(value: float | Fraction | int) -> float:
    """Half-up rounding to 2 decimals, as printed in reports."""
    if isinstance(value, Fraction):
        with localcontext() as context:
            context.prec = 60
            decimal_value = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        decimal_value = Decimal(repr(float(value)))
    return float(decimal_value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def format_percent(value: float | Fraction | int) -> str:
    return f"{round_display(value):.2f}"


def percentage_pair(count_a: int, count_b: int) -> tuple[Fraction, Fraction]:
    """Exact (difference, similarity) percentages; they sum to exactly 100."""
    if count_a == 0:
        raise AgreementInputError("baseline count_a must be positive")
    if count_a < 0 or count_b < 0:
        raise ValueError("counts must be non-negative")
    difference = Fraction(count_a - count_b, count_a) * 100
    return difference, 100 - difference


def percentage_difference(count_a: int, count_b: int) -> float:
    """(count_a − count_b) / count_a × 100; negative when count_b exceeds count_a."""
    return float(percentage_pair(count_a, count_b)[0])


def percentage_similarity(count_a: int, count_b: int) -> float:
    """100 minus the percentage difference."""
    return float(percentage_pair(count_a, count_b)[1])


def share_percentage(part: int, total: int) -> float:
    """part / total × 100."""
    if total == 0:
        raise AgreementInputError("total must be positive")
    if total < 0 or part < 0:
        raise ValueError("counts must be non-negative")
    if part > total:
        raise AgreementInputError(f"part {part} exceeds total {total}")
    return float(Fraction(part, total) * 100)


def overlap_percentage(similar: int, own_count: int) -> float:
    """similar / own_count × 100, a coder's share of overlapping codes."""
    if own_count == 0:
        raise AgreementInputError("own_count must be positive")
    if own_count < 0 or similar < 0:
        raise ValueError("counts must be non-negative")
    if similar > own_count:
        raise AgreementInputError(f"similar {similar} exceeds own count {own_count}")
    return float(Fraction(similar, own_count) * 100)


def _check_binary_pair(x: Sequence[int], y: Sequence[int]) -> None:
    """Raise unless ``x`` and ``y`` are binary vectors of one length."""
    if len(x) != len(y):
        raise AgreementInputError(f"vector lengths differ: {len(x)} vs {len(y)}")
    for value in (*x, *y):
        if value not in (0, 1):
            raise ValueError(f"vectors must be binary, got {value!r}")


def cohens_kappa(x: Sequence[int], y: Sequence[int]) -> float:
    """Cohen's kappa for two binary vectors, computed with exact rationals."""
    _check_binary_pair(x, y)
    if len(x) == 0:
        raise AgreementInputError("vectors must be non-empty")
    n = len(x)
    observed = sum(1 for a, b in zip(x, y) if a == b)
    ones_x = sum(x)
    ones_y = sum(y)
    p_o = Fraction(observed, n)
    p_e = (Fraction(ones_x, n) * Fraction(ones_y, n)
           + Fraction(n - ones_x, n) * Fraction(n - ones_y, n))
    if p_e == 1:
        # Only when both vectors are all ones or both all zeros, so they are equal.
        return 1.0
    return float((p_o - p_e) / (1 - p_e))


def positive_specific_agreement(x: Sequence[int], y: Sequence[int]) -> float:
    """Positive specific agreement 2a / (2a + b + c) of two binary vectors.

    ``a`` counts rows where both vectors hold 1, ``b`` and ``c`` rows where
    only one does.  Rows where both hold 0 do not enter it, so unlike kappa
    it stays meaningful on a presence matrix, where every row is a label at
    least one coder used.  For two codebooks it is the share of their codes
    that the other one also has.
    """
    _check_binary_pair(x, y)
    both = sum(1 for a, b in zip(x, y) if a and b)
    positives = sum(x) + sum(y)
    if positives == 0:
        raise AgreementInputError("neither vector has a positive cell")
    return float(Fraction(2 * both, positives))


def presence_matrix(first: Codebook, second: Codebook, match: MatchResult,
                    matcher: Matcher) -> PresenceMatrix:
    """Binary presence of the two codebooks' codes under the pairing ``match``.

    One row per code of ``first``, with 1 in the second column when the code
    is paired, then one row per unpaired code of ``second``.  Each row is
    labelled with its code's canonical label.  So the matrix height is the
    merge count, each column sums to its coder's code count, and positive
    specific agreement is 2 × pairs / (|A| + |B|) in every matcher mode.
    Raises InconsistentMatch unless ``match`` covers both codebooks exactly.
    """
    partner, rows = merge_order(first, second, match)
    cells = tuple((1, int(record.label in partner)) for record in first.codes)
    return PresenceMatrix(
        row_labels=tuple(matcher.resolve(record.label, record.key)[0] for record in rows),
        coder_ids=(first.coder_id, second.coder_id),
        cells=cells + ((0, 1),) * (len(rows) - len(cells)),
    )


def build_table4_summary(human_similar_count: int, llm_count: int) -> AgreementSummary:
    """Combined code-count summary with shares against the combined total.

    The similar-codes count is derived as total − (count_a − count_b).  When
    that count's own share of the total disagrees with the formula-based
    similarity percentage, a note records the discrepancy instead of
    reconciling the two.
    """
    difference, similarity = percentage_pair(human_similar_count, llm_count)
    total = human_similar_count + llm_count
    similar_count = total - (human_similar_count - llm_count)
    notes: list[str] = []
    if difference < 0:
        notes.append("second coder count exceeds the baseline; difference is negative")
    ratio_share = Fraction(similar_count, total) * 100 if 0 <= similar_count <= total else None
    if ratio_share is None or round_display(ratio_share) != round_display(similarity):
        shown = format_percent(ratio_share) if ratio_share is not None else "undefined"
        notes.append(
            f"similar-count share {similar_count}/{total} = {shown}% differs from "
            f"the formula-based similarity {format_percent(similarity)}%"
        )
    return AgreementSummary(
        count_a=human_similar_count,
        count_b=llm_count,
        similar_count=similar_count,
        percentage_difference=float(difference),
        percentage_similarity=float(similarity),
        total_combined=total,
        share_a=share_percentage(human_similar_count, total),
        share_b=share_percentage(llm_count, total),
        notes=tuple(notes),
    )

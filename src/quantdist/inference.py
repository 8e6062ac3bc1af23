"""Query answering over finalized tables.

Nouns are compared by the medians of their value distributions, with a
missing object contributing a 0 median; medians within a ratio of ``tau``
are equal. Adjectives are compared per shared head noun and decided by
majority vote over those verdicts. Every entry of the table is evidence:
count thresholds are the table's, applied by ``finalize``. Medians can
also be relaxed to their bracketing powers of ten for range-style answers.

A table here is a QuantTable, asked through its two lookups ``get(key)``, which
takes an entry key ``(dimension, POS, surface, head)`` in text, and
``heads_for(dimension, pos, surface)``; the read commands pass one that
``read_table`` built from the entries of the surfaces they ask about. A query's
``Dimension`` and ``Pos`` become their names here and nowhere else.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum

from .distribution import Distribution
from .kinds import TAU, Dimension, Pos, check_tau
from .table import QuantTable


class ComparisonLabel(Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"


def query_distribution(
    table: QuantTable, obj, dimension: Dimension, pos: Pos = Pos.NOUN, head: str = ""
) -> Distribution | None:
    """Distribution for an object as ``pos`` under ``head`` ("" for none), both
    lowercased, or None when absent.

    Tables built from plain text carry UNKNOWN part-of-speech keys, so a
    miss on a tagged key retries the untagged one before giving up.
    """
    dimension, surface, head = dimension._name_, str(obj).lower(), head.lower()
    found = table.get((dimension, pos._name_, surface, head))
    if found is None and pos is not Pos.UNKNOWN:
        found = table.get((dimension, "UNKNOWN", surface, head))
    return found


def _label(d1: Distribution | None, d2: Distribution | None, tau: float) -> ComparisonLabel:
    """Order two entries by their medians, a missing one (None) counting as 0.

    Positive medians within a ratio of ``tau`` are EQUAL.
    """
    m1 = 0.0 if d1 is None else d1.median()
    m2 = 0.0 if d2 is None else d2.median()
    if m1 == m2 or (m1 > 0 and m2 > 0 and max(m1, m2) / min(m1, m2) <= tau):
        return ComparisonLabel.EQUAL
    return ComparisonLabel.LESS if m1 < m2 else ComparisonLabel.GREATER


def compare_nouns(
    table: QuantTable, obj1, obj2, dimension: Dimension, tau: float = TAU
) -> ComparisonLabel:
    """Three-way comparison of two objects along one dimension.

    Missing objects get a 0 median, so two unknowns compare EQUAL and an
    unknown loses to anything with a positive median.
    """
    check_tau(tau)
    return _label(
        query_distribution(table, obj1, dimension), query_distribution(table, obj2, dimension), tau
    )


def compare_adjectives(
    table: QuantTable, adj1, adj2, dimension: Dimension, tau: float = TAU
) -> ComparisonLabel | None:
    """Majority vote over shared-head median comparisons; None = no evidence.

    Every head where both modifiers have an entry votes. A tie at the top
    is EQUAL.
    """
    check_tau(tau)
    heads1 = table.heads_for(dimension._name_, "ADJ", str(adj1).lower())
    heads2 = table.heads_for(dimension._name_, "ADJ", str(adj2).lower())
    votes: Counter = Counter()
    for head in heads1.keys() & heads2.keys():
        votes[_label(heads1[head], heads2[head], tau)] += 1
    if not votes:
        return None
    best = max(votes.values())
    winners = [label for label in ComparisonLabel if votes[label] == best]
    return winners[0] if len(winners) == 1 else ComparisonLabel.EQUAL


def relax_to_decade(value: float) -> tuple[float, float]:
    """Bracketing powers of ten around a positive display value.

    Exact powers of ten widen one decade to each side; everything else
    gets its enclosing decade. The bracket always contains the input.
    """
    if not (value > 0) or not math.isfinite(value):
        raise ValueError(f"decade relaxation needs a positive finite value, got {value!r}")
    exponent = math.log10(value)
    k = round(exponent)
    if 10.0**k == value:
        return (10.0 ** (k - 1), 10.0 ** (k + 1))
    f = math.floor(exponent)
    # guard against log10 rounding across the decade boundary
    if 10.0**f > value:
        f -= 1
    elif 10.0 ** (f + 1) <= value:
        f += 1
    return (10.0**f, 10.0 ** (f + 1))


def relax_hour_window(value: float) -> tuple[float, float]:
    """Hour-of-day medians have no meaningful decade; use +/- one hour."""
    return (max(0.0, value - 1.0), min(24.0, value + 1.0))

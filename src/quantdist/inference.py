"""Query answering over finalized tables.

Nouns are compared by the medians of their value distributions, with a
missing object contributing a 0 median. Adjectives are compared per
shared head noun and decided by majority vote over those verdicts.
Medians can also be relaxed to their bracketing powers of ten for
range-style answers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .distribution import Distribution
from .pipeline import ObjectKey, Pos
from .table import QuantTable
from .units import Dimension


class ComparisonLabel(Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"

    @property
    def inverse(self) -> "ComparisonLabel":
        if self is ComparisonLabel.LESS:
            return ComparisonLabel.GREATER
        if self is ComparisonLabel.GREATER:
            return ComparisonLabel.LESS
        return ComparisonLabel.EQUAL


@dataclass(frozen=True)
class CompareConfig:
    equality_ratio: float = 1.1  # medians within this ratio count as equal
    min_count: int = 1

    def __post_init__(self):
        if not self.equality_ratio >= 1.0:  # written so that NaN fails too
            raise ValueError("equality_ratio must be >= 1")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")


def _coerce_key(obj, pos: Pos) -> ObjectKey:
    if isinstance(obj, ObjectKey):
        return obj
    return ObjectKey(str(obj).lower(), pos, None)


def query_distribution(
    table: QuantTable, obj, dimension: Dimension
) -> Distribution | None:
    """Distribution for an object, or None when absent.

    Tables built from plain text carry UNKNOWN part-of-speech keys, so a
    miss on a tagged key retries the untagged one before giving up.
    """
    key = _coerce_key(obj, Pos.NOUN)
    found = table.get(key, dimension)
    if found is None and key.pos is not Pos.UNKNOWN:
        found = table.get(ObjectKey(key.surface, Pos.UNKNOWN, key.head), dimension)
    return found


def _median_or_zero(table, obj, dimension, cfg: CompareConfig) -> float:
    dist = query_distribution(table, obj, dimension)
    if dist is None or dist.count < cfg.min_count:
        return 0.0
    return dist.median()


def _compare_medians(m1: float, m2: float, cfg: CompareConfig) -> ComparisonLabel:
    if m1 == m2:
        return ComparisonLabel.EQUAL
    if m1 > 0 and m2 > 0 and max(m1, m2) / min(m1, m2) <= cfg.equality_ratio:
        return ComparisonLabel.EQUAL
    return ComparisonLabel.LESS if m1 < m2 else ComparisonLabel.GREATER


def compare_nouns(
    table: QuantTable, obj1, obj2, dimension: Dimension, cfg: CompareConfig = CompareConfig()
) -> ComparisonLabel:
    """Three-way comparison of two objects along one dimension.

    Missing objects get a 0 median, so two unknowns compare EQUAL and an
    unknown loses to anything with a positive median.
    """
    m1 = _median_or_zero(table, obj1, dimension, cfg)
    m2 = _median_or_zero(table, obj2, dimension, cfg)
    return _compare_medians(m1, m2, cfg)


def compare_adjectives(
    table: QuantTable, adj1, adj2, dimension: Dimension, cfg: CompareConfig = CompareConfig()
) -> ComparisonLabel | None:
    """Majority vote over shared-head median comparisons; None = no evidence.

    Only heads where both modifiers have entries with at least
    cfg.min_count observations may vote. A tie at the top is EQUAL.
    """
    key1 = _coerce_key(adj1, Pos.ADJ)
    key2 = _coerce_key(adj2, Pos.ADJ)
    heads1 = table.heads_for(key1.surface, key1.pos, dimension)
    heads2 = table.heads_for(key2.surface, key2.pos, dimension)
    votes: Counter = Counter()
    for head in heads1.keys() & heads2.keys():
        d1, d2 = heads1[head], heads2[head]
        if d1.count < cfg.min_count or d2.count < cfg.min_count:
            continue
        votes[_compare_medians(d1.median(), d2.median(), cfg)] += 1
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

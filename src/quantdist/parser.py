"""Tokenization and measurement scanning.

The scanner walks a token list left to right and tries, at each position,
a small ordered set of productions: clock ranges, clock times,
shared-unit ranges, prefix-currency amounts, then plain number-unit
pairs. The first production that matches consumes its span; positions
that match nothing advance by one token. Numbers without a resolvable
unit are dropped, not guessed at.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import NamedTuple

from .units import Dimension, Quantity, UnitRegistry

TOKEN_RE = re.compile(
    r"""
      \d+(?:,\d{3})+(?:\.\d+)?     # 2,000 or 1,233.48
    | \d{1,2}:\d{2}                # 7:30 clock form
    | \d+\.\d+                     # 8.30
    | \d+                          # 466
    | [ap]\.m\.?                   # a.m. / p.m.
    | [a-zA-Z]+/[a-zA-Z]+          # km/h, m/s
    | [a-zA-Z]+(?:-[a-zA-Z]+)*     # words, acre-foot
    | °[a-zA-Z]+                   # °F fused
    | [$£€]
    | [–—-]
    | [^\s\w]                      # any other punctuation mark
    """,
    re.VERBOSE,
)

NUMBER_RE = re.compile(r"^\d+(?:,\d{3})*(?:\.\d+)?$")
CLOCK_RE = re.compile(r"^(\d{1,2})(?:([:.])(\d{2}))?$")

MAGNITUDES = {
    "thousand": 1e3,
    "million": 1e6,
    "billion": 1e9,
    "trillion": 1e12,
    "k": 1e3,
    "b": 1e9,
}
AMPM = {"am": 0, "a.m": 0, "a.m.": 0, "pm": 12, "p.m": 12, "p.m.": 12}
MARKER_WORDS = {"degrees", "degree", "°"}
RANGE_SEPARATORS = {"-", "–", "—", "to", "and"}


def tokenize(text: str) -> list[str]:
    """Split text into word, number, and punctuation tokens."""
    return TOKEN_RE.findall(text)


def parse_number(token: str) -> float | None:
    """Non-negative numeric literal with optional thousands separators."""
    if NUMBER_RE.match(token):
        return float(token.replace(",", ""))
    return None


def _clock_parts(token: str) -> tuple[int, int, str | None] | None:
    """(hour, minutes, separator) for clock-shaped tokens, else None."""
    m = CLOCK_RE.match(token)
    if not m:
        return None
    minutes = int(m.group(3)) if m.group(3) else 0
    if minutes > 59:
        return None
    return int(m.group(1)), minutes, m.group(2)


class Mention(NamedTuple):
    """One measurement found in a token stream.

    ``quantity`` is the standard-unit normalization, with magnitude words
    folded in. The token span is end-exclusive.
    """

    quantity: Quantity
    start: int
    end: int

    @property
    def dimension(self):
        return self.quantity.dimension


def scan_measurements(tokens: Sequence[str], registry: UnitRegistry) -> list[Mention]:
    """All measurement mentions in a token sequence, left to right."""
    scanner = _Scanner(tokens, registry)
    return scanner.run()


class _Scanner:
    def __init__(self, tokens: Sequence[str], registry: UnitRegistry):
        self.low = [t.lower() for t in tokens]
        self.registry = registry
        self.n = len(tokens)

    def run(self) -> list[Mention]:
        mentions: list[Mention] = []
        i = 0
        while i < self.n:
            found = (
                self._clock_range(i)
                or self._clock(i)
                or self._range(i)
                or self._currency_prefix(i)
                or self._number_unit(i)
            )
            if found:
                mentions.extend(found)
                i = found[-1].end
            else:
                i += 1
        return mentions

    def _make(self, value, unit, start, end) -> Mention:
        return Mention(self.registry.normalize(value, unit), start, end)

    def _match_unit(self, j: int, marker_present: bool):
        """Longest-first unit lookup starting at token j."""
        for width in range(self.registry.max_alias_tokens, 0, -1):
            if j + width > self.n:
                continue
            surface = " ".join(self.low[j : j + width])
            unit = self.registry.lookup_unit(surface, marker_present)
            if unit is not None:
                return unit, width
        return None

    def _magnitude(self, j: int) -> tuple[float, int]:
        if j < self.n and self.low[j] in MAGNITUDES:
            return MAGNITUDES[self.low[j]], j + 1
        return 1.0, j

    def _marker(self, j: int) -> tuple[bool, int]:
        if j < self.n and self.low[j] in MARKER_WORDS:
            return True, j + 1
        return False, j

    def _clock(self, i: int):
        parts = _clock_parts(self.low[i])
        if parts is None:
            return None
        hour, minutes, sep = parts
        end = i + 1
        if end < self.n and self.low[end] in AMPM:
            if not 1 <= hour <= 12:
                return None
            value = hour % 12 + AMPM[self.low[end]] + minutes / 60.0
            end += 1
        elif sep == ":" and hour <= 23:
            value = hour + minutes / 60.0
        else:
            return None  # bare or dotted numbers need am/pm to be clock times
        unit = self.registry.time_unit()
        return [self._make(value, unit, i, end)]

    def _clock_range(self, i: int):
        """CLOCK sep CLOCK am/pm, the meridiem covering both endpoints."""
        if i + 4 > self.n or self.low[i + 1] not in RANGE_SEPARATORS:
            return None
        if self.low[i + 3] not in AMPM:
            return None
        endpoints = (_clock_parts(self.low[i]), _clock_parts(self.low[i + 2]))
        if endpoints[0] is None or endpoints[1] is None:
            return None
        offset = AMPM[self.low[i + 3]]
        spans = ((i, i + 1), (i + 2, i + 4))
        mentions = []
        unit = self.registry.time_unit()
        for (hour, minutes, _), (start, end) in zip(endpoints, spans):
            if not 1 <= hour <= 12:
                return None
            value = hour % 12 + offset + minutes / 60.0
            mentions.append(self._make(value, unit, start, end))
        return mentions

    def _range(self, i: int):
        if i + 3 > self.n or self.low[i + 1] not in RANGE_SEPARATORS:
            return None
        v1 = parse_number(self.low[i])
        v2 = parse_number(self.low[i + 2]) if i + 2 < self.n else None
        if v1 is None or v2 is None:
            return None
        mag, j = self._magnitude(i + 3)
        marker, j = self._marker(j)
        hit = self._match_unit(j, marker)
        if hit is None:
            return None
        unit, width = hit
        return [
            self._make(v1 * mag, unit, i, i + 1),
            self._make(v2 * mag, unit, i + 2, j + width),
        ]

    def _currency_prefix(self, i: int):
        unit = self.registry.lookup_unit(self.low[i])
        if unit is None or unit.dimension is not Dimension.CURRENCY or i + 1 >= self.n:
            return None
        value = parse_number(self.low[i + 1])
        if value is None:
            return None
        mag, end = self._magnitude(i + 2)
        return [self._make(value * mag, unit, i, end)]

    def _number_unit(self, i: int):
        value = parse_number(self.low[i])
        if value is None:
            return None
        mag, j = self._magnitude(i + 1)
        marker, j = self._marker(j)
        hit = self._match_unit(j, marker)
        if hit is None:
            return None
        unit, width = hit
        return [self._make(value * mag, unit, i, j + width)]

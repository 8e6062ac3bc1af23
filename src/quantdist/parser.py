"""Tokenization and measurement scanning.

The scanner walks a token list left to right and tries three productions:

- a currency alias (``$``, ``£``): a prefix amount (``£5 million``);
- a clock token (``7:30``, ``8.30``, ``7``): a clock range sharing one
  am/pm (``7.30-8.30 am``), or else one clock time (``1.51 pm``, ``19:05``);
- a number: a range sharing one unit (``50-60 mph``), or else a
  number-unit pair (``225 litres``, ``100 degrees C``).

Every production needs a digit token, one whose first character is a
decimal digit (``str.isdecimal``, what ``\\d`` matches): a clock or a number
starts at one, and a currency prefix is the token just before one. So
there is one start test, the digit: the scan lists the digit tokens and
tries the productions only there, a currency prefix on the token before
first, so a sentence without a digit token costs no unit lookup and is not
lowercased. The first production that matches consumes its span, and the
scan goes on at the next digit token after it. Numbers without a
resolvable unit, and values that are not finite once normalized, are
dropped, not guessed at.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import NamedTuple

from .kinds import Dimension
from .units import Quantity, UnitRegistry

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


class Tokens(tuple):
    """A token sequence whose scan keeps the tokens lowercased, in ``low``."""

    low: list[str] | None = None


def scan_measurements(tokens: Sequence[str], registry: UnitRegistry) -> list[Mention]:
    """All measurement mentions in a token sequence of any case, left to right. The
    scan reads the tokens lowercased, a list that ``Tokens`` keep for a later reader."""
    digits = [i for i, token in enumerate(tokens) if token[:1].isdecimal()]
    return _Scanner(tokens, registry).run(digits) if digits else []


class _Scanner:
    def __init__(self, tokens: Sequence[str], registry: UnitRegistry):
        self.low = [t.lower() for t in tokens]
        if isinstance(tokens, Tokens):
            tokens.low = self.low
        self.registry = registry
        self.n = len(tokens)

    def run(self, digits: list[int]) -> list[Mention]:
        """The mentions found at each digit token past the last match: a currency prefix
        on the token before it, if that token is past the match too, else a clock or a
        number starting at it."""
        mentions: list[Mention] = []
        end = 0
        for i in digits:
            if i < end:
                continue
            found = (i > end and self._currency_prefix(i - 1)) or self._clock(i) or self._number(i)
            if found:
                mentions.extend(found)
                end = found[-1].end
        return mentions

    def _make(self, unit, *spans):
        """One mention of ``unit`` per ``(value, start, end)``; None, no match, if a value
        is not finite before or after normalization (400 digits, an overflowing rate)."""
        try:
            return [
                Mention(self.registry.normalize(value, unit), start, end)
                for value, start, end in spans
            ]
        except ValueError:
            return None

    def _magnitude(self, j: int) -> tuple[float, int]:
        if j < self.n and self.low[j] in MAGNITUDES:
            return MAGNITUDES[self.low[j]], j + 1
        return 1.0, j

    def _unit_after(self, j: int):
        """(magnitude, unit, end) of ``[magnitude] [marker] unit`` at j; the longest unit wins."""
        mag, j = self._magnitude(j)
        marker = j < self.n and self.low[j] in MARKER_WORDS
        j += marker
        widest = min(self.registry.max_alias_tokens, self.n - j)
        # a wider surface can resolve only from the start of an alias, with a leading
        # degree sign folded as ``lookup_unit`` folds it, or from a blank token
        first = widest > 1 and self.low[j].strip()
        if first and first.removeprefix("°") not in self.registry.alias_heads:
            widest = 1
        for width in range(widest, 0, -1):
            unit = self.registry.lookup_unit(" ".join(self.low[j : j + width]), marker)
            if unit is not None:
                return mag, unit, j + width
        return None

    def _clock(self, i: int):
        """CLOCK sep CLOCK am/pm, the meridiem covering both endpoints, or else one clock time."""
        parts = _clock_parts(self.low[i])
        if parts is None:
            return None
        unit = self.registry.time_unit()
        if i + 3 < self.n and self.low[i + 1] in RANGE_SEPARATORS and self.low[i + 3] in AMPM:
            other = _clock_parts(self.low[i + 2])
            if other is not None and 1 <= parts[0] <= 12 and 1 <= other[0] <= 12:
                offset = AMPM[self.low[i + 3]]
                return self._make(
                    unit,
                    (parts[0] % 12 + offset + parts[1] / 60.0, i, i + 1),
                    (other[0] % 12 + offset + other[1] / 60.0, i + 2, i + 4),
                )
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
        return self._make(unit, (value, i, end))

    def _currency_prefix(self, i: int):
        unit = self.registry.lookup_unit(self.low[i])
        if unit is None or unit.dimension is not Dimension.CURRENCY or i + 1 >= self.n:
            return None
        value = parse_number(self.low[i + 1])
        if value is None:
            return None
        mag, end = self._magnitude(i + 2)
        return self._make(unit, (value * mag, i, end))

    def _number(self, i: int):
        """NUMBER sep NUMBER [magnitude] [marker] unit, the unit shared by both endpoints,
        or else NUMBER [magnitude] [marker] unit."""
        value = parse_number(self.low[i])
        if value is None:
            return None
        if i + 2 < self.n and self.low[i + 1] in RANGE_SEPARATORS:
            high = parse_number(self.low[i + 2])
            hit = None if high is None else self._unit_after(i + 3)
            if hit is not None:
                mag, unit, end = hit
                found = self._make(unit, (value * mag, i, i + 1), (high * mag, i + 2, end))
                if found:
                    return found
        hit = self._unit_after(i + 1)
        if hit is None:
            return None
        mag, unit, end = hit
        return self._make(unit, (value * mag, i, end))

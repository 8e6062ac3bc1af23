"""The kinds an entry key names: measurement dimensions and coarse POS tags.

Every layer names them, so they live apart from the layers: a read command
that imports ``table`` loads no scanner, pipeline or lexicon loader. The
input rules that more than one layer applies live here too, each once:
``check_distance`` (the co-occurrence window), and ``TAU`` with
``check_tau`` (the equality ratio of medians).
"""

from __future__ import annotations

from enum import Enum


class Dimension(Enum):
    """The ten supported measurement dimensions.

    The enum value is the name of the standard unit every mention of that
    dimension is normalized into. TIME is an hour-of-day in [0, 24) and is
    distinct from DURATION (elapsed seconds).
    """

    TIME = "hour of day"
    CURRENCY = "US dollar"
    LENGTH = "meter"
    AREA = "square meter"
    VOLUME = "cubic meter"
    MASS = "kilogram"
    TEMPERATURE = "kelvin"
    DURATION = "second"
    SPEED = "meter per second"
    VOLTAGE = "volt"

    @property
    def standard_unit(self) -> str:
        return self.value


class Pos(Enum):
    NOUN = "NOUN"
    ADJ = "ADJ"
    VERB = "VERB"
    OTHER = "OTHER"
    UNKNOWN = "UNKNOWN"


def check_distance(distance: int | None) -> None:
    """A co-occurrence window is the whole sentence (None) or 1..100 tokens."""
    if distance is not None and not 1 <= distance <= 100:
        raise ValueError("distance must be None or within 1..100")


# the equality ratio of medians that ``compare`` and ``eval`` use unless told otherwise
TAU = 1.1


def check_tau(tau: float) -> None:
    if not tau >= 1.0:  # written so that NaN fails too
        raise ValueError("tau must be >= 1")


# dataset-native scale names that map onto a measurement dimension;
# scales without one (strength, rigidity) load fine but cannot be scored
SCALE_MAP = {
    "size": Dimension.LENGTH,
    "weight": Dimension.MASS,
    "speed": Dimension.SPEED,
}


def dimension_named(name: str) -> Dimension | None:
    """The dimension a dataset scale or dimension name stands for; None if neither."""
    name = name.strip().lower()
    return SCALE_MAP.get(name) or Dimension.__members__.get(name.upper())

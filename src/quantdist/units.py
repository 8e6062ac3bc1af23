"""Ten measurement dimensions, the unit lexicon, and value normalization.

The registry maps unit surface forms ("km/h", "acre foot", "°F") to a
dimension and an affine conversion into that dimension's standard unit.
It is immutable after load, so concurrent readers need no locking.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import NamedTuple

from .errors import DimensionMismatchError, LexiconError


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


@dataclass(frozen=True)
class UnitDef:
    """One unit with its aliases and affine conversion to the standard unit.

    ``value_std = scale * value + offset``. A nonzero offset is only legal
    for TEMPERATURE. ``requires_marker`` marks bare letters (C, F, K) that
    resolve only next to a degree sign or the word "degrees".
    """

    surface_forms: tuple[str, ...]
    dimension: Dimension
    scale: float
    offset: float = 0.0
    requires_marker: bool = False

    def __post_init__(self):
        if not self.surface_forms:
            raise LexiconError("unit needs at least one surface form")
        if not 0 < self.scale < math.inf:
            raise LexiconError(f"unit {self.name!r}: scale must be positive and finite")
        if not math.isfinite(self.offset):
            raise LexiconError(f"unit {self.name!r}: offset must be finite")
        if self.offset != 0.0 and self.dimension is not Dimension.TEMPERATURE:
            raise LexiconError(
                f"unit {self.name!r}: nonzero offset outside TEMPERATURE"
            )

    @property
    def name(self) -> str:
        return self.surface_forms[0]


class Quantity(NamedTuple):
    """A measurement normalized into its dimension's standard unit."""

    dimension: Dimension
    value_std: float


def _clean_zero(x: float) -> float:
    # fold -0.0 into +0.0 so serialized tables are order-independent
    return x + 0.0


class UnitRegistry:
    """Immutable lookup table from unit surface forms to conversions."""

    def __init__(self, units: list[UnitDef], version: str = "unversioned", path=None, lines=None):
        """``path`` and ``lines`` (each unit's line in that file) locate lexicon errors.

        Clock times need an ``hour of day`` TIME unit, so a lexicon without one is rejected.
        """
        self.version = version
        self._units = tuple(units)
        self._by_alias: dict[str, UnitDef] = {}
        max_tokens = 1
        for position, unit in enumerate(units):
            for alias in unit.surface_forms:
                key = alias.lower()
                if key in self._by_alias:
                    line = None if lines is None else lines[position]
                    raise LexiconError(f"duplicate unit alias {alias!r}", line, path)
                self._by_alias[key] = unit
                max_tokens = max(max_tokens, len(key.split()))
        self.max_alias_tokens = max_tokens
        self._time_unit = self.lookup_unit("hour of day")
        if self._time_unit is None or self._time_unit.dimension is not Dimension.TIME:
            raise LexiconError("lexicon has no 'hour of day' TIME unit", path=path)

    def __len__(self) -> int:
        return len(self._units)

    def units(self) -> tuple[UnitDef, ...]:
        return self._units

    def lookup_unit(self, surface: str, marker_present: bool = False) -> UnitDef | None:
        """Resolve a surface form; None signals coverage loss, never an error.

        A leading degree sign on the surface counts as the marker, so both
        ``lookup_unit("°F", True)`` and ``lookup_unit("°F", False)`` resolve
        while ``lookup_unit("F", False)`` does not.
        """
        key = surface.strip().lower()
        if key.startswith("°"):
            key = key[1:]
            marker_present = True
        unit = self._by_alias.get(key)
        if unit is None:
            return None
        if unit.requires_marker and not marker_present:
            return None
        return unit

    def normalize(self, value: float, unit: UnitDef) -> Quantity:
        """Convert a raw (value, unit) pair into standard units."""
        if not math.isfinite(value):
            raise ValueError(f"cannot normalize non-finite value {value!r}")
        std = unit.scale * value + unit.offset
        if not math.isfinite(std):
            raise ValueError(f"normalization of {value!r} {unit.name!r} overflowed")
        if unit.dimension is Dimension.TIME:
            std = std % 24.0
        return Quantity(unit.dimension, _clean_zero(std))

    def denormalize(self, quantity: Quantity, target_unit: UnitDef) -> float:
        """Express a normalized quantity in another unit of the same dimension."""
        if target_unit.dimension is not quantity.dimension:
            raise DimensionMismatchError(
                f"cannot express {quantity.dimension.name} in "
                f"{target_unit.dimension.name} unit {target_unit.name!r}"
            )
        return (quantity.value_std - target_unit.offset) / target_unit.scale

    def time_unit(self) -> UnitDef:
        """The hour-of-day unit used by clock expressions."""
        return self._time_unit


def _parse_rows(data: bytes, path: str, width: int, parse_row) -> list[tuple[int, object]]:
    """``(line, parse_row(*fields))`` for each non-comment line of ``width`` tab-separated fields.

    Lines are decoded as UTF-8 one by one. A line that is not UTF-8, or
    on which ``parse_row`` raises ValueError or LexiconError, becomes a
    LexiconError naming the file and line.
    """
    out = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split("\t")]
            if len(fields) != width:
                raise ValueError(f"expected {width} tab-separated columns, got {len(fields)}")
            out.append((lineno, parse_row(*fields)))
        except (ValueError, LexiconError) as exc:
            raise LexiconError(str(exc), line_number=lineno, path=path) from None
    return out


def _rate_row(rates: dict, code: str, rate_field: str) -> None:
    rate = float(rate_field)
    if not 0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    code = code.upper()
    if code in rates:
        raise ValueError(f"duplicate currency code {code!r}")
    rates[code] = rate


def _unit_row(
    rates, rates_name, alias_field, dim_field, scale_field, offset_field, marker_field
) -> UnitDef:
    try:
        dimension = Dimension[dim_field.upper()]
    except KeyError:
        raise ValueError(f"unknown dimension {dim_field!r}") from None
    try:
        scale = float(scale_field)
    except ValueError:
        if dimension is not Dimension.CURRENCY:
            raise ValueError(f"non-numeric scale {scale_field!r} outside CURRENCY") from None
        code = scale_field.upper()
        if code not in rates:
            raise ValueError(f"no rate for currency {code!r} in {rates_name}") from None
        scale = rates[code]
    if marker_field not in ("0", "1"):
        raise ValueError("requires_marker must be 0 or 1")
    return UnitDef(
        surface_forms=tuple(a.strip().lower() for a in alias_field.split(",") if a.strip()),
        dimension=dimension,
        scale=scale,
        offset=float(offset_field),
        requires_marker=marker_field == "1",
    )


def _lexicon_bytes(path, packaged: str) -> tuple[bytes, str]:
    """A lexicon file's bytes with every line ending made ``\\n``, and its name for errors."""
    if path is None:
        data = resources.files("quantdist.data").joinpath(packaged).read_bytes()
        name = packaged
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        name = str(path)
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"), name


def load_registry(units_path=None, rates_path=None) -> UnitRegistry:
    """Build a registry from lexicon files, defaulting to the shipped ones.

    The registry version is a digest of the file contents, so tables built
    against different lexicons refuse to merge.
    """
    units_data, units_name = _lexicon_bytes(units_path, "units.tsv")
    rates_data, rates_name = _lexicon_bytes(rates_path, "currency.tsv")
    rates: dict[str, float] = {}
    _parse_rows(rates_data, rates_name, 2, lambda *row: _rate_row(rates, *row))
    rows = _parse_rows(units_data, units_name, 5, lambda *row: _unit_row(rates, rates_name, *row))
    digest = hashlib.sha256(units_data + b"\x00" + rates_data).hexdigest()[:12]
    return UnitRegistry(
        [unit for _, unit in rows], digest, path=units_name, lines=[line for line, _ in rows]
    )

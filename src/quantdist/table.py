"""Aggregate tables mapping (object, dimension) to value distributions.

A table is built incrementally from co-occurrence records, merged with
other tables produced under the same configuration, and finalized by
dropping rare entries. Serialization is canonical: equal tables produce
identical bytes regardless of build or merge order.
A table file is a JSON header and one line per entry: four key columns
(surface, head or empty, POS, dimension), then the sorted kept samples, or
for a spilled entry its count, min, max, exact-sum parts and id:count buckets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .distribution import DEFAULT_EXACT_CAP, Distribution, checked_sum, exact_units
from .errors import ConfigMismatchError, LocatedLines, TableFormatError
from .kernels import BUCKETS_PER_DECADE, DECADES_BELOW
from .pipeline import CooccurrenceRecord, ObjectKey, Pos, check_distance
from .units import Dimension

FORMAT_NAME = "quanttable/2"


@dataclass(frozen=True)
class BuildConfig:
    """How a table was built; the header pins every field.

    Tables merge only when every field but ``min_count`` is equal.
    """

    registry_version: str = "unversioned"
    distance: int | None = None
    min_phrase_count: int = 5
    exact_cap: int = DEFAULT_EXACT_CAP
    min_count: int = 1
    finalized: bool = False

    def __post_init__(self):
        check_distance(self.distance)
        if self.min_phrase_count < 1:
            raise ValueError("min_phrase_count must be >= 1")
        if self.exact_cap < 0:
            raise ValueError("exact_cap must be >= 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")


# (header key, BuildConfig field, accepted JSON types); a bool is no int here
_HEADER_FIELDS = (
    ("registry", "registry_version", (str,)),
    ("distance", "distance", (int, type(None))),
    ("min_phrase_count", "min_phrase_count", (int,)),
    ("exact_cap", "exact_cap", (int,)),
    ("min_count", "min_count", (int,)),
    ("finalized", "finalized", (bool,)),
)
# header values every table carries: the bucketing is fixed in ``kernels``
_HEADER_CONSTANTS = {
    "format": FORMAT_NAME,
    "buckets_per_decade": BUCKETS_PER_DECADE,
    "value_floor": 10.0**-DECADES_BELOW,
}
_HEADER_KEYS = {key for key, _, _ in _HEADER_FIELDS} | _HEADER_CONSTANTS.keys() | {"entries"}


def parse_key(surface: str, head: str, pos: str, dimension: str):
    """The entry key ``(surface, pos, head, dimension)`` named by four text columns.

    An empty head is none. ValueError for an empty surface or an unknown tag.
    """
    if not surface:
        raise ValueError("empty object surface")
    try:
        return surface, Pos[pos], head or None, Dimension[dimension]
    except KeyError as exc:
        raise ValueError(f"unknown tag {exc}") from None


class QuantTable:
    """Entries keyed by ``(surface, pos, head, dimension)``, each holding a Distribution.

    ``heads_for`` answers from an index of the headed entries that it
    builds one (pos, dimension) slice at a time, on first use. The index
    holds the entries' own Distributions, so observing into an existing
    entry keeps it current; adding a key through ``observe`` clears it.
    """

    def __init__(self, config: BuildConfig | None = None):
        self.config = config or BuildConfig()
        self.entries: dict[tuple[str, Pos, str | None, Dimension], Distribution] = {}
        # (pos, dimension) -> modifier surface -> head -> entry
        self._heads: dict[tuple[Pos, Dimension], dict[str, dict[str, Distribution]]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantTable):
            return NotImplemented
        return self.config == other.config and self.entries == other.entries

    # ------------------------------------------------------------------
    # building

    def _bump(self, key: tuple, value_std: float) -> None:
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = Distribution(exact_cap=self.config.exact_cap)
            self._heads.clear()
        entry.observe(value_std)

    def observe(self, record: CooccurrenceRecord) -> None:
        """Credit a record under its full key and its head-erased key.

        The second write makes head-free queries a plain lookup instead of
        a scan over every head. Records without a head write once. A record
        with an empty surface or an empty head (a head is a word or None)
        raises ValueError: the table format could not tell it apart.
        """
        if self.config.finalized:
            raise ConfigMismatchError("cannot observe into a finalized table")
        (surface, pos, head), (dimension, value_std), _ = record
        if not surface or head == "":
            raise ValueError("empty object surface or head")
        self._bump((surface, pos, head, dimension), value_std)
        if head is not None:
            self._bump((surface, pos, None, dimension), value_std)

    def observe_all(self, records) -> None:
        for record in records:
            self.observe(record)

    # ------------------------------------------------------------------
    # combination

    def merge(self, *others: "QuantTable") -> "QuantTable":
        """Keywise combination of tables built under one configuration.

        Takes any number of tables in one pass; no input is mutated and
        each entry is copied once. Merging finalized tables re-applies the
        largest of the count thresholds so the result is again a valid
        finalized table.
        """
        mergeable = replace(self.config, min_count=1)
        for other in others:
            if replace(other.config, min_count=1) != mergeable:
                raise ConfigMismatchError(
                    f"incompatible table configs: {self.config} vs {other.config}"
                )
        tables = (self, *others)
        merged = QuantTable(
            replace(self.config, min_count=max(t.config.min_count for t in tables))
        )
        entries = merged.entries
        for table in tables:
            for key, dist in table.entries.items():
                mine = entries.get(key)
                if mine is None:
                    entries[key] = dist.copy()
                else:
                    mine.update(dist)
        if merged.config.finalized:
            merged.entries = {
                key: dist
                for key, dist in entries.items()
                if merged._keeps(key, dist, merged.config.min_count)
            }
        return merged

    def finalize(self, min_count: int) -> "QuantTable":
        """Drop rare entries and freeze the table for querying.

        Single-token entries need ``min_count`` observations; multiword
        phrases additionally need the build's ``min_phrase_count``.
        Finalizing twice composes to the larger threshold.
        """
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        effective = max(min_count, self.config.min_count if self.config.finalized else 1)
        out = QuantTable(replace(self.config, min_count=effective, finalized=True))
        out.entries = {
            key: dist.copy()
            for key, dist in self.entries.items()
            if self._keeps(key, dist, effective)
        }
        return out

    def _keeps(self, key: tuple, dist: Distribution, min_count: int) -> bool:
        """Whether an entry meets the count threshold of a finalized table."""
        if " " in key[0]:
            min_count = max(min_count, self.config.min_phrase_count)
        return dist.count >= min_count

    # ------------------------------------------------------------------
    # lookup

    def get(self, key: ObjectKey, dimension: Dimension) -> Distribution | None:
        return self.entries.get((*key, dimension))

    def heads_for(self, surface: str, pos: Pos, dimension: Dimension) -> dict:
        """All head-specific distributions for one modifier surface, as a new dict.

        The first call for a (pos, dimension) indexes that pair's headed
        entries in one pass; later calls are lookups.
        """
        index = self._heads.get((pos, dimension))
        if index is None:
            index = self._heads[(pos, dimension)] = {}
            for (modifier, p, head, dim), dist in self.entries.items():
                if dim is dimension and p is pos and head is not None:
                    index.setdefault(modifier, {})[head] = dist
        return dict(index.get(surface, ()))

    # ------------------------------------------------------------------
    # serialization

    def serialize(self) -> str:
        header = {key: getattr(self.config, field) for key, field, _ in _HEADER_FIELDS}
        header.update(_HEADER_CONSTANTS, entries=len(self.entries))
        lines = [json.dumps(header, sort_keys=True)]
        for (surface, pos, head, dimension), dist in sorted(
            self.entries.items(),
            key=lambda kv: (kv[0][3].name, kv[0][1].name, kv[0][0], kv[0][2] or ""),
        ):
            key = f"{surface}\t{head or ''}\t{pos.name}\t{dimension.name}\t"
            if dist.exact is not None:
                lines.append(key + " ".join(map(repr, dist.sorted_exact())))
                continue
            buckets = " ".join(
                f"{bid}:{dist.buckets[bid]}" for bid in sorted(dist.buckets)
            )
            total = " ".join(map(repr, dist.sum_partials())) or "0.0"
            lines.append(
                f"{key}{dist.count}\t{dist.minimum!r}\t{dist.maximum!r}\t{total}\t{buckets}"
            )
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())


def _parse_entry(line: str, exact_cap: int):
    """One entry line, either shape, as ``(key, Distribution)``; ValueError if malformed."""
    parts = line.split("\t")
    if len(parts) == 5:
        samples = list(map(float, parts[4].split(" ")))
        return parse_key(*parts[:4]), Distribution.of(samples, exact_cap)
    if len(parts) != 9:
        raise ValueError(f"expected 5 or 9 columns, got {len(parts)}")
    key = parse_key(*parts[:4])
    count_s, min_s, max_s, sum_s, buckets_s = parts[4:]
    floats = [float(min_s), float(max_s), *map(float, sum_s.split(" "))]
    if not all(map(math.isfinite, floats)):
        raise ValueError("non-finite value")
    dist = Distribution(exact_cap)
    dist.exact = None
    dist.count = int(count_s)
    if dist.count < 1:
        raise ValueError("entry count must be >= 1")
    dist.minimum, dist.maximum = floats[0], floats[1]
    dist._sum = checked_sum(sum(map(exact_units, floats[2:])))
    buckets = dist.buckets
    for pair in buckets_s.split(" "):
        bid_s, n_s = pair.split(":")
        bid = int(bid_s)
        if bid in buckets:
            raise ValueError(f"bucket id {bid} repeated")
        buckets[bid] = int(n_s)
    dist.validate()
    return key, dist


def _header_value(header: dict, key: str, types: tuple):
    if key not in header:
        raise ValueError(f"missing {key!r}")
    value = header[key]
    if type(value) not in types:
        expected = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{key} must be {expected}, got {value!r}")
    return value


def _parse_header(line: str) -> tuple[BuildConfig, int]:
    """A header line as ``(config, promised entry count)``; ValueError if malformed."""
    header = json.loads(line)
    if not isinstance(header, dict):
        raise ValueError("not a JSON object")
    unknown = header.keys() - _HEADER_KEYS
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    for key, value in _HEADER_CONSTANTS.items():
        found = header.get(key)
        if type(found) is not type(value) or found != value:
            raise ValueError(f"unsupported {key} {found!r}")
    config = BuildConfig(
        **{field: _header_value(header, key, types) for key, field, types in _HEADER_FIELDS}
    )
    return config, _header_value(header, "entries", (int,))


def read_table(path) -> QuantTable:
    """Parse a table file; malformed or truncated input raises TableFormatError."""
    with LocatedLines(path, TableFormatError) as lines:
        rows = iter(lines)
        header = next(rows, "")
        if not header.strip():
            raise TableFormatError("missing header", path=str(path))
        try:
            config, expected_entries = _parse_header(header)
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise ValueError(f"bad header ({exc})") from None
        table = QuantTable(config)
        for line in rows:
            if line:
                key, dist = _parse_entry(line, config.exact_cap)
                if table.entries.setdefault(key, dist) is not dist:
                    raise ValueError("duplicate entry")
    if len(table.entries) != expected_entries:
        raise TableFormatError(
            f"header promises {expected_entries} entries, "
            f"found {len(table.entries)} (truncated?)",
            path=str(path),
        )
    return table

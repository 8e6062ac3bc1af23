"""Aggregate tables mapping (object, dimension) to value distributions.

A table is built incrementally from co-occurrence records, merged with
other tables produced under the same configuration, and finalized by
dropping rare entries. Serialization is canonical: equal tables produce
identical bytes regardless of build or merge order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .distribution import DEFAULT_EXACT_CAP, Distribution, checked_sum, exact_units
from .errors import ConfigMismatchError, TableFormatError
from .kernels import BUCKETS_PER_DECADE, DECADES_BELOW, bucket_bounds
from .pipeline import CooccurrenceRecord, ObjectKey, Pos
from .units import Dimension

FORMAT_NAME = "quanttable/1"


@dataclass(frozen=True)
class BuildConfig:
    """Echo of how a table was built; merges require equal configs."""

    registry_version: str = "unversioned"
    distance: int | None = None
    min_phrase_count: int = 5
    exact_cap: int = DEFAULT_EXACT_CAP
    buckets_per_decade: int = BUCKETS_PER_DECADE
    value_floor: float = 10.0**-DECADES_BELOW
    min_count: int = 1
    finalized: bool = False

    def mergeable_fields(self) -> tuple:
        return (
            self.registry_version,
            self.distance,
            self.min_phrase_count,
            self.exact_cap,
            self.buckets_per_decade,
            self.value_floor,
            self.finalized,
        )


class QuantTable:
    """Entries keyed by (ObjectKey, Dimension), each holding a Distribution."""

    def __init__(self, config: BuildConfig | None = None):
        self.config = config or BuildConfig()
        self.entries: dict[tuple[ObjectKey, Dimension], Distribution] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantTable):
            return NotImplemented
        return self.config == other.config and self.entries == other.entries

    # ------------------------------------------------------------------
    # building

    def _bump(self, key: ObjectKey, dimension: Dimension, value_std: float) -> None:
        entry = self.entries.get((key, dimension))
        if entry is None:
            entry = Distribution(exact_cap=self.config.exact_cap)
            self.entries[(key, dimension)] = entry
        entry.observe(value_std)

    def observe(self, record: CooccurrenceRecord) -> None:
        """Credit a record under its full key and its head-erased key.

        The second write makes head-free queries a plain lookup instead of
        a scan over every head. Records without a head write once.
        """
        if self.config.finalized:
            raise ConfigMismatchError("cannot observe into a finalized table")
        key = record.object
        dimension = record.quantity.dimension
        self._bump(key, dimension, record.quantity.value_std)
        if key.head is not None:
            self._bump(key.without_head(), dimension, record.quantity.value_std)

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
        for other in others:
            if self.config.mergeable_fields() != other.config.mergeable_fields():
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

    def _keeps(self, key: tuple[ObjectKey, Dimension], dist: Distribution, min_count: int) -> bool:
        """Whether an entry meets the count threshold of a finalized table."""
        if " " in key[0].surface:
            min_count = max(min_count, self.config.min_phrase_count)
        return dist.count >= min_count

    # ------------------------------------------------------------------
    # lookup

    def get(self, key: ObjectKey, dimension: Dimension) -> Distribution | None:
        return self.entries.get((key, dimension))

    def heads_for(self, surface: str, pos: Pos, dimension: Dimension) -> dict:
        """All head-specific distributions for one modifier surface."""
        out = {}
        for (key, dim), dist in self.entries.items():
            if (
                dim is dimension
                and key.head is not None
                and key.surface == surface
                and key.pos is pos
            ):
                out[key.head] = dist
        return out

    def export_points(self, key: ObjectKey, dimension: Dimension):
        """(bucket_center, density) pairs for plotting one entry.

        Density integrates to 1 over the value axis; the zero bucket has
        no width, so its point carries probability mass instead.
        """
        dist = self.get(key, dimension)
        if dist is None:
            return None
        total = dist.count
        points = []
        for bid in sorted(dist.buckets):
            n = dist.buckets[bid]
            lo, hi = bucket_bounds(bid)
            if bid == 0:
                points.append((0.0, n / total))
            else:
                points.append(((lo + hi) / 2.0, n / (total * (hi - lo))))
        return points

    # ------------------------------------------------------------------
    # serialization

    def serialize(self) -> str:
        header = {
            "format": FORMAT_NAME,
            "registry": self.config.registry_version,
            "distance": self.config.distance,
            "min_phrase_count": self.config.min_phrase_count,
            "exact_cap": self.config.exact_cap,
            "buckets_per_decade": self.config.buckets_per_decade,
            "value_floor": self.config.value_floor,
            "min_count": self.config.min_count,
            "finalized": self.config.finalized,
            "entries": len(self.entries),
        }
        lines = [json.dumps(header, sort_keys=True)]
        for (key, dimension), dist in sorted(
            self.entries.items(),
            key=lambda kv: (
                kv[0][1].name,
                kv[0][0].pos.name,
                kv[0][0].surface,
                kv[0][0].head or "",
            ),
        ):
            buckets = " ".join(
                f"{bid}:{dist.buckets[bid]}" for bid in sorted(dist.buckets)
            )
            partials = dist.sum_partials()
            total = " ".join(repr(p) for p in partials) if partials else "0.0"
            exact = (
                "-"
                if dist.exact is None
                else " ".join(repr(v) for v in dist.sorted_exact())
            )
            lines.append(
                "\t".join(
                    (
                        key.surface,
                        key.head or "",
                        key.pos.name,
                        dimension.name,
                        str(dist.count),
                        repr(dist.minimum),
                        repr(dist.maximum),
                        total,
                        buckets,
                        exact,
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())


def _parse_entry(line: str, exact_cap: int):
    """One entry line as ``((key, dimension), Distribution)``; ValueError if malformed."""
    parts = line.split("\t")
    if len(parts) != 10:
        raise ValueError(f"expected 10 columns, got {len(parts)}")
    surface, head, pos_s, dim_s, count_s, min_s, max_s, sum_s, buckets_s, exact_s = parts
    try:
        key = ObjectKey(surface, Pos[pos_s], head or None)
        dimension = Dimension[dim_s]
    except KeyError as exc:
        raise ValueError(f"unknown tag {exc}") from None
    floats = [float(min_s), float(max_s), *map(float, sum_s.split(" "))]
    exact = None if exact_s == "-" else list(map(float, exact_s.split(" ")))
    if not all(map(math.isfinite, floats)) or not all(map(math.isfinite, exact or ())):
        raise ValueError("non-finite value")
    dist = Distribution(exact_cap)
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
    dist.exact = exact
    dist.validate()
    return (key, dimension), dist


def read_table(path) -> QuantTable:
    """Parse a table file; malformed or truncated input raises TableFormatError."""
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise TableFormatError("missing header", path=str(path))
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TableFormatError(f"bad header ({exc})", path=str(path)) from None
        if header.get("format") != FORMAT_NAME:
            raise TableFormatError(
                f"unsupported format {header.get('format')!r}", path=str(path)
            )
        try:
            config = BuildConfig(
                registry_version=header["registry"],
                distance=header["distance"],
                min_phrase_count=header["min_phrase_count"],
                exact_cap=header["exact_cap"],
                buckets_per_decade=header["buckets_per_decade"],
                value_floor=header["value_floor"],
                min_count=header["min_count"],
                finalized=header["finalized"],
            )
            expected_entries = int(header["entries"])
        except (KeyError, TypeError) as exc:
            raise TableFormatError(f"incomplete header ({exc})", path=str(path)) from None
        table = QuantTable(config)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                key, dist = _parse_entry(line, config.exact_cap)
            except (ValueError, OverflowError) as exc:
                raise TableFormatError(
                    f"bad entry ({exc})", line_number=lineno, path=str(path)
                ) from None
            if table.entries.setdefault(key, dist) is not dist:
                raise TableFormatError("duplicate entry", line_number=lineno, path=str(path))
    if len(table.entries) != expected_entries:
        raise TableFormatError(
            f"header promises {expected_entries} entries, "
            f"found {len(table.entries)} (truncated?)",
            path=str(path),
        )
    return table

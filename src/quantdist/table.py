"""Aggregate tables mapping (object, dimension) to value distributions.

A table is built incrementally from co-occurrence records, merged with
other tables produced under the same configuration, and finalized by
dropping rare entries. Serialization is canonical: equal tables produce
identical bytes regardless of build or merge order.

A table file is a JSON header and one line per entry: four key columns
(surface, head or empty, POS, dimension), then the sorted kept samples, or
for a spilled entry its count, min, max, exact-sum parts and id:count buckets.
Entry lines run in canonical order (dimension, POS, surface, head), each key
once. ``iter_entries`` reads a file's entries one line at a time and rejects a
line out of that order at its line; ``read_table`` collects them into a
QuantTable. ``write_merged`` is the file-to-file path: it merges entry streams
k-way, folds each key's entries with ``Distribution.update``, and writes each
line as its key closes, so ``quantdist merge`` and ``finalize`` run in memory
that does not grow with the tables.

The record stream from ``extract`` to ``aggregate`` is here too: a JSON header
read like a table's, pinning the three settings extraction knows, then per
record its four key columns, value and token gap.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter

from .distribution import DEFAULT_EXACT_CAP, Distribution, checked_sum, exact_units
from .errors import ConfigMismatchError, LocatedLines, TableFormatError, replaced
from .kernels import BUCKETS_PER_DECADE, DECADES_BELOW
from .pipeline import CooccurrenceRecord, ObjectKey, Pos, check_distance
from .units import Dimension, Quantity

FORMAT_NAME = "quanttable/2"
RECORD_FORMAT = "quantrecords/2"


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


# (header key, BuildConfig field, accepted JSON types); a bool is no int here.
# A record stream's header pins the first three; aggregating sets the rest.
_HEADER_FIELDS = (
    ("registry", "registry_version", (str,)),
    ("distance", "distance", (int, type(None))),
    ("min_phrase_count", "min_phrase_count", (int,)),
    ("exact_cap", "exact_cap", (int,)),
    ("min_count", "min_count", (int,)),
    ("finalized", "finalized", (bool,)),
)
_STREAM_FIELDS = _HEADER_FIELDS[:3]
# header values every table carries: the bucketing is fixed in ``kernels``
_HEADER_CONSTANTS = {
    "format": FORMAT_NAME,
    "buckets_per_decade": BUCKETS_PER_DECADE,
    "value_floor": 10.0**-DECADES_BELOW,
}


def merged_config(configs) -> BuildConfig:
    """The config of a merge of tables built under ``configs``.

    ConfigMismatchError unless every field but ``min_count`` agrees; the
    merge takes the largest ``min_count``, so a merge of finalized tables
    is again a valid finalized table.
    """
    first, *rest = configs
    mergeable = replace(first, min_count=1)
    for other in rest:
        if replace(other, min_count=1) != mergeable:
            raise ConfigMismatchError(f"incompatible table configs: {first} vs {other}")
    return replace(first, min_count=max(config.min_count for config in (first, *rest)))


def finalized_config(config: BuildConfig, min_count: int) -> BuildConfig:
    """The config of a table finalized at ``min_count``; finalizing twice takes the larger."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    effective = max(min_count, config.min_count if config.finalized else 1)
    return replace(config, min_count=effective, finalized=True)


def _keeps(config: BuildConfig, key: tuple, dist: Distribution) -> bool:
    """Whether an entry meets the count thresholds of a finalized table under ``config``."""
    min_count = config.min_count
    if " " in key[0]:
        min_count = max(min_count, config.min_phrase_count)
    return dist.count >= min_count


def _order(key: tuple) -> tuple:
    """The canonical position of an entry key: dimension, POS, surface, head.

    Readers call this once per entry; ``_name_`` is the plain attribute
    behind the slower ``name`` property of an Enum member.
    """
    surface, pos, head, dimension = key
    return dimension._name_, pos._name_, surface, head or ""


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
        tables = (self, *others)
        merged = QuantTable(merged_config([table.config for table in tables]))
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
                key: dist for key, dist in entries.items() if _keeps(merged.config, key, dist)
            }
        return merged

    def finalize(self, min_count: int) -> "QuantTable":
        """Drop rare entries and freeze the table for querying.

        Single-token entries need ``min_count`` observations; multiword
        phrases additionally need the build's ``min_phrase_count``.
        Finalizing twice composes to the larger threshold.
        """
        out = QuantTable(finalized_config(self.config, min_count))
        out.entries = {
            key: dist.copy()
            for key, dist in self.entries.items()
            if _keeps(out.config, key, dist)
        }
        return out

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
        lines = [_header_line(self.config, entries=len(self.entries))]
        lines += [_entry_line(key, self.entries[key]) for key in sorted(self.entries, key=_order)]
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with replaced(path) as fh:
            fh.write(self.serialize())


def _header_line(config: BuildConfig, fields=_HEADER_FIELDS, constants=_HEADER_CONSTANTS, **extra):
    """A JSON header line: a table's by default, a record stream's with its fields and format."""
    header = {key: getattr(config, field) for key, field, _ in fields}
    header.update(constants, **extra)
    return json.dumps(header, sort_keys=True)


def _key_columns(surface: str, pos: Pos, head: str | None, dimension: Dimension) -> str:
    """The four key columns that start every entry and record line."""
    return f"{surface}\t{head or ''}\t{pos.name}\t{dimension.name}"


def _entry_line(key: tuple, dist: Distribution) -> str:
    """One entry line, without its line break: the kept samples, or the spilled summary."""
    prefix = _key_columns(*key) + "\t"
    if dist.exact is not None:
        return prefix + " ".join(map(repr, dist.sorted_exact()))
    buckets = " ".join(f"{bid}:{dist.buckets[bid]}" for bid in sorted(dist.buckets))
    total = " ".join(map(repr, dist.sum_partials())) or "0.0"
    return f"{prefix}{dist.count}\t{dist.minimum!r}\t{dist.maximum!r}\t{total}\t{buckets}"


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


def _unique_keys(pairs) -> dict:
    """A JSON object from its ``(key, value)`` pairs; ValueError for a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _read_header(line: str, fields, constants: dict, others=(), **settings):
    """A header line's JSON object, and the BuildConfig of its ``fields`` and ``settings``.

    ValueError unless it is one JSON object with no key repeated and none but
    ``fields``, ``constants`` and ``others``, each constant at its value.
    """
    header = json.loads(line, object_pairs_hook=_unique_keys)
    if not isinstance(header, dict):
        raise ValueError("not a JSON object")
    unknown = header.keys() - {key for key, _, _ in fields} - constants.keys() - set(others)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    for key, value in constants.items():
        found = header.get(key)
        if type(found) is not type(value) or found != value:
            raise ValueError(f"unsupported {key} {found!r}")
    settings.update((field, _header_value(header, key, types)) for key, field, types in fields)
    return header, BuildConfig(**settings)


def _parse_header(line: str) -> tuple[BuildConfig, int]:
    """A header line as ``(config, promised entry count)``; ValueError if malformed."""
    header, config = _read_header(line, _HEADER_FIELDS, _HEADER_CONSTANTS, ("entries",))
    return config, _header_value(header, "entries", (int,))


def iter_entries(path):
    """A table file's config, and an iterator over its ``(key, Distribution)`` entries.

    The header is read at once and each entry line as the iterator reaches
    it, in the file's canonical order. A malformed line, or one that does
    not come after the line before it (a repeated key is one case), raises
    a TableFormatError at its line; after the last line, an entry count
    other than the header's is an error of the file.
    """
    entries = _read_entries(path)
    return next(entries), entries


def _read_entries(path):
    """Yield a table file's BuildConfig, then its entries, as ``iter_entries`` describes."""
    with LocatedLines(path, TableFormatError) as lines:
        rows = iter(lines)
        header = next(rows, "")
        if not header.strip():
            raise ValueError("missing header")
        try:
            config, expected_entries = _parse_header(header)
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise ValueError(f"bad header ({exc})") from None
        yield config
        found, last = 0, ()
        for line in rows:
            if line:
                key, dist = _parse_entry(line, config.exact_cap)
                order = _order(key)
                if order <= last:
                    raise ValueError(
                        "repeated entry" if order == last else "entry out of canonical order"
                    )
                found, last = found + 1, order
                yield key, dist
    if found != expected_entries:
        raise TableFormatError(
            f"header promises {expected_entries} entries, found {found} (truncated?)",
            path=str(path),
        )


def read_table(path) -> QuantTable:
    """Parse a table file; malformed, out-of-order or truncated input raises TableFormatError."""
    config, entries = iter_entries(path)
    table = QuantTable(config)
    table.entries = dict(entries)
    return table


def write_merged(config: BuildConfig, inputs, path) -> None:
    """Write the table of ``config`` holding the entries of ``inputs`` to ``path``.

    ``inputs`` are entry iterators in canonical order, as ``iter_entries``
    returns them. They are merged k-way; the entries of one key are folded
    in place with ``update`` and, in a finalized table, kept only if they
    meet its thresholds; each line is written as its key closes. The
    header's entry count is known only at the end, so the body goes to a
    temporary file beside ``path`` and then follows the header into
    ``errors.replaced(path)``: a failure leaves ``path`` as it was, and
    ``path`` may name an input.
    """
    directory = os.path.dirname(os.path.abspath(path))
    with replaced(path, "wb") as out, tempfile.TemporaryFile(dir=directory) as body:
        written = 0
        merged = heapq.merge(*inputs, key=lambda entry: _order(entry[0]))
        for key, group in groupby(merged, key=itemgetter(0)):
            _, dist = next(group)
            for _, other in group:
                dist.update(other)
            if not config.finalized or _keeps(config, key, dist):
                body.write(f"{_entry_line(key, dist)}\n".encode("utf-8"))
                written += 1
        body.seek(0)
        out.write(f"{_header_line(config, entries=written)}\n".encode("utf-8"))
        shutil.copyfileobj(body, out)


def stream_header(config: BuildConfig) -> str:
    """The header line of a record stream extracted under ``config``'s settings."""
    return _header_line(config, _STREAM_FIELDS, {"format": RECORD_FORMAT})


def stream_config(line: str, exact_cap: int) -> BuildConfig:
    """The BuildConfig that a stream's header line pins, with aggregate's ``exact_cap``."""
    if not line.strip():
        raise ValueError("missing header")
    try:
        return _read_header(line, _STREAM_FIELDS, {"format": RECORD_FORMAT}, exact_cap=exact_cap)[1]
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"bad stream header ({exc}); re-run extract") from None


def record_line(record: CooccurrenceRecord) -> str:
    """One record stream line, without its line break: key columns, value and token gap."""
    (surface, pos, head), (dimension, value_std), gap = record
    return f"{_key_columns(surface, pos, head, dimension)}\t{value_std!r}\t{gap}"


def parse_record(line: str, distance: int | None = None) -> CooccurrenceRecord:
    """One record line; ValueError if malformed or its gap is outside ``distance``."""
    parts = line.split("\t")
    if len(parts) != 6:
        raise ValueError(f"expected 6 columns, got {len(parts)}")
    surface, pos, head, dimension = parse_key(*parts[:4])
    value = float(parts[4])
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {parts[4]!r}")
    gap = int(parts[5])
    if gap < 0 or (distance is not None and gap >= distance):
        raise ValueError(f"token gap {gap} outside the extraction window")
    return CooccurrenceRecord(ObjectKey(surface, pos, head), Quantity(dimension, value), gap)

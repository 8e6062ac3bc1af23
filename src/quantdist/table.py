"""Aggregate tables mapping (object, dimension) to value distributions.

A table is built incrementally from co-occurrence records, merged with
other tables produced under the same configuration, and finalized by
dropping rare entries. Serialization is canonical: equal tables produce
identical bytes regardless of build or merge order.

An entry key is the text tuple (dimension name, POS name, surface, head or
""), so sorted keys are the canonical order of a table file. A table file is a
JSON header and one line per entry: four key columns (surface, head or empty,
POS, dimension), then the sorted kept samples, or for a spilled entry its
count, min, max, exact-sum parts and id:count buckets. ``iter_entries`` reads a
file's entries one line at a time and rejects, at its line, a line out of
canonical order or under a finalized table's thresholds; ``read_table``
collects them into a QuantTable. ``merged_entries`` is the one fold of equal
keys, joining lists of values and folding Distributions with ``update``, of
entries in canonical order: ``write_merged``
feeds it a k-way merge of entry streams and writes each line as its key closes,
so ``quantdist merge`` and ``finalize`` run in memory that does not grow with the
tables, and ``QuantTable.merge`` feeds it a k-way merge of its tables' entries.

A partial table holds each record once, under its own key, and has a format of
its own; finalizing it derives the head-free entries, in ``finalized_entries``.
A table keeps a key's values as a list until they spill (``QuantTable``), so a
Distribution is built for a spilled key, a line read back or a query, not to write.

A table answers queries through two methods, both in the entry key's text:
``get(key)`` takes an entry key, and ``heads_for(dimension, pos, surface)`` its
first three columns. A QuantTable answers from its dict, indexing the headed
entries of a (dimension, POS) at each ``heads_for`` and keeping that index only
once finalized, and a TableFile, which the read commands use, by bisecting the
line offsets of the file and parsing only the lines it finds.

A record, as ``extract_records`` yields it, is an entry key followed by a value
and a token gap; ``QuantTable.observe`` credits it once. The record stream from
``extract`` to ``aggregate`` is a JSON header read like a table's, pinning the
three settings extraction knows, then per record its key columns, value and
gap, which ``aggregate``, the per-shard step of a build, observes.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import shutil
import tempfile
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter

from .distribution import DEFAULT_EXACT_CAP, HUGE, Distribution, checked_sum, exact_units
from .errors import ConfigMismatchError, LocatedInputError, LocatedLines, replaced
from .kernels import BUCKETS_PER_DECADE, DECADES_BELOW
from .pipeline import Pos, check_distance
from .units import Dimension

# a table's format by whether it is finalized; a partial one derived no head-free entry
FORMAT_NAMES = {False: "quanttable/3", True: "quanttable/2"}
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


def finalized_entries(config: BuildConfig, entries, min_count: int):
    """Yield the config of a table of ``config`` finalized at ``min_count``, then the
    entries that ``merged_entries`` folds into it from ``entries``, in canonical order.

    A partial table's entries of one modifier, head-free and headed, also go under its
    head-free key, just before its headed run, so thresholds apply after that fold. A
    finalized table's entries pass as they are, their head-free entries derived already.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if config.finalized:
        yield replace(config, min_count=max(min_count, config.min_count))
        yield from entries
        return
    yield replace(config, min_count=min_count, finalized=True)
    modifier, headed = None, []
    for key, entry in entries:
        if key[:3] != modifier:  # a new modifier, whose head-free key sorts first
            yield from headed
            modifier, head_free, headed = key[:3], (*key[:3], ""), []
        if key[3]:
            headed.append((key, entry))
        yield (head_free if key[3] else key), entry
    yield from headed


def _keeps(config: BuildConfig, key: tuple, count: int) -> bool:
    """Whether ``count`` meets the thresholds of a finalized table under ``config`` for ``key``."""
    min_count = config.min_count
    if " " in key[2]:
        min_count = max(min_count, config.min_phrase_count)
    return count >= min_count


# each tag name to itself, so that every key read holds the one string per tag
_POS_NAMES = {name: name for name in Pos.__members__}
_DIMENSION_NAMES = {name: name for name in Dimension.__members__}


def _entry_key(surface: str, head: str, pos: str, dimension: str) -> tuple:
    """The entry key ``(dimension, pos, surface, head)`` of four text columns, its tags
    interned. ValueError for an empty surface or an unknown tag.
    """
    if not surface:
        raise ValueError("empty object surface")
    try:
        pos, dimension = _POS_NAMES[pos], _DIMENSION_NAMES[dimension]
    except KeyError as exc:
        raise ValueError(f"unknown tag {exc}") from None
    return dimension, pos, surface, head


class QuantTable:
    """Entries keyed by the entry key ``(dimension, POS, surface, head)``.

    An entry is the list of a key's values, at most ``exact_cap`` of them and none of
    magnitude ``HUGE``, the only values that can carry a sum past the float range; else
    it is the key's Distribution. ``QuantTable(config, entries)`` takes over the
    ``entries`` dict, and ``__init__`` alone sets up a table's state. ``observe`` adds a
    spilled key's values to it in batches of at most ``exact_cap``, which reading
    ``entries`` folds in; a finalized table, which is frozen, keeps a list's summary
    once ``entries``, ``get`` or ``heads_for`` reads it. ``get`` takes an entry key and
    ``heads_for`` a key's first three columns, one key shape, all text, and both answer
    with Distributions.
    """

    def __init__(self, config: BuildConfig | None = None, entries: dict | None = None):
        self.config = config or BuildConfig()
        self._entries = {} if entries is None else entries
        # a finalized table takes no values, so it has no batches
        self._batches = None if self.config.finalized else {}
        self._summarised = self.config.finalized and list not in map(type, self._entries.values())
        # a finalized table's (dimension name, POS name) -> modifier surface -> head -> Distribution
        self._heads: dict[tuple[str, str], dict[str, dict[str, Distribution]]] = {}

    @property
    def entries(self) -> dict:
        if self._batches is None and not self._summarised:  # ``get`` keeps each summary
            for key in self._entries:
                self.get(key)
            self._summarised = True
        return self._held()

    def _held(self) -> dict:
        """The entries as held, lists and Distributions, with every batch folded in."""
        if self._batches:
            for key, batch in self._batches.items():
                self._entries[key].update(Distribution.of(batch, self.config.exact_cap))
            self._batches.clear()
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantTable):
            return NotImplemented
        return self.serialize() == other.serialize()

    # ------------------------------------------------------------------
    # building

    def observe(self, record: tuple) -> None:
        """Credit a record ``(dimension, POS, surface, head, value, gap)`` under its
        entry key, once; ``finalize`` derives the head-free entries.

        A new key is checked once and its tags interned: a surface or head that is not
        a str (a head-free row's head is ""), an empty surface, a tag that is no
        member's name (an enum member is not its name), or a tab or a line feed in the
        surface or head, which no table or record line can hold, raises ValueError.
        So does a value that is not finite, and a sum past the float range raises
        OverflowError. Any of these leaves the table as it was.
        """
        if self.config.finalized:
            raise ConfigMismatchError("cannot observe into a finalized table")
        dimension, pos, surface, head, value, _ = record
        key = (dimension, pos, surface, head)
        entry = self._entries.get(key)
        if entry is None:
            if not (isinstance(surface, str) and isinstance(head, str)):
                raise ValueError("object surface or head is not text")
            if "\t" in surface or "\n" in surface or "\t" in head or "\n" in head:
                raise ValueError("object surface or head holds a tab or line feed")
            key = _entry_key(surface, head, pos, dimension)
        if not math.isfinite(value):
            raise ValueError(f"cannot observe non-finite value {value!r}")
        value += 0.0  # fold -0.0
        cap = self.config.exact_cap
        if entry is None:
            entry = self._entries[key] = []
        if type(entry) is list and abs(value) < HUGE:
            entry.append(value)
            if len(entry) > cap:  # spill
                self._entries[key] = Distribution.of(entry, cap)
        elif type(entry) is list:  # a key holding a magnitude of HUGE keeps a Distribution
            self._entries[key] = Distribution.of(entry + [value], cap)
        elif abs(value) < HUGE and -HUGE < entry.minimum and entry.maximum < HUGE:
            batch = self._batches.setdefault(key, [])  # of at most exact_cap values
            batch.append(value)
            if len(batch) > cap:
                entry.update(Distribution.of(self._batches.pop(key), cap))
        else:  # whose sum is checked at each value, once the batches are folded in
            self._held()[key].update(Distribution.of([value], cap))

    def observe_all(self, records) -> None:
        for record in records:
            self.observe(record)

    # ------------------------------------------------------------------
    # combination

    def merge(self, *others: "QuantTable") -> "QuantTable":
        """Keywise combination of tables built under one configuration.

        Takes any number of tables in one pass; no input is mutated or
        shared. Merging finalized tables re-applies the largest of the count
        thresholds so the result is again a valid finalized table.
        """
        tables = (self, *others)
        config = merged_config([t.config for t in tables])
        entries = heapq.merge(*(sorted(t._held().items()) for t in tables), key=itemgetter(0))
        return QuantTable(config, dict(merged_entries(config, entries)))

    def finalize(self, min_count: int) -> "QuantTable":
        """Drop rare entries and freeze the table for querying.

        Single-token entries need ``min_count`` observations; multiword
        phrases additionally need the build's ``min_phrase_count``, after a
        partial table's head-free entries are derived (``finalized_entries``).
        Finalizing twice composes to the larger threshold.
        """
        entries = finalized_entries(self.config, sorted(self._held().items()), min_count)
        config = next(entries)
        return QuantTable(config, dict(merged_entries(config, entries)))

    # ------------------------------------------------------------------
    # lookup

    def get(self, key: tuple) -> Distribution | None:
        """The Distribution under the entry key ``(dimension, POS, surface, head)``, or None."""
        if self._summarised:  # a finalized table whose every entry is a Distribution
            return self._entries.get(key)
        entry = self._held().get(key)
        if type(entry) is list and self._batches is None:  # a frozen table keeps its summary
            entry = self._entries[key] = Distribution.of(entry, self.config.exact_cap)
        return _summary(entry, self.config.exact_cap)

    def heads_for(self, dimension: str, pos: str, surface: str) -> dict:
        """All head-specific distributions for one modifier surface, as a new dict.

        A call indexes the headed entries of its (dimension, POS) in one pass. A
        finalized table, whose answers never change, keeps that index, so later calls
        are lookups; a partial table keeps none, so its answers are never stale.
        """
        index = self._heads.get((dimension, pos))
        if index is None:
            index = {}
            for dim, p, modifier, head in self._entries:
                if head and dim == dimension and p == pos:
                    index.setdefault(modifier, {})[head] = self.get((dim, p, modifier, head))
            if self._batches is None:
                self._heads[(dimension, pos)] = index
        return dict(index.get(surface, ()))

    # ------------------------------------------------------------------
    # serialization

    def serialize(self) -> str:
        lines = [_header_line(self.config, entries=len(self._entries))]
        lines += [_entry_line(*entry) for entry in sorted(self._held().items())]
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with replaced(path) as fh:
            fh.write(self.serialize())


def _summary(entry, exact_cap: int) -> Distribution | None:
    """An entry as a Distribution: a list of values is summarised, not taken over."""
    return Distribution.of(entry[:], exact_cap) if type(entry) is list else entry


def merged_entries(config: BuildConfig, entries):
    """Yield one ``(key, entry)`` per key of ``entries``, folded in their order.

    ``entries`` are in canonical order, a key repeated once per entry to fold, each a
    list of values or a Distribution. A key's lists are joined and its Distributions
    folded with ``update`` into a new entry, so no input is mutated or shared: a list
    again if the key has no Distribution and at most ``exact_cap`` values, under any
    ``config``. Under a finalized ``config`` a key whose total count misses
    the thresholds is dropped before its entry is built.
    """
    cap = config.exact_cap
    for key, group in groupby(entries, key=itemgetter(0)):
        joined, dists = [], []
        for _, entry in group:
            (joined.extend if type(entry) is list else dists.append)(entry)
        count = len(joined) + sum(dist.count for dist in dists) if dists else len(joined)
        if config.finalized and not _keeps(config, key, count):
            continue
        if dists or count > cap:
            joined = Distribution.of(joined, cap)
            for dist in dists:
                joined.update(dist)
        yield key, joined


def _header_line(config: BuildConfig, fields=_HEADER_FIELDS, constants=_HEADER_CONSTANTS, **extra):
    """A JSON header line: a table's by default, a record stream's with its fields and format."""
    header = {key: getattr(config, field) for key, field, _ in fields}
    header.update({"format": FORMAT_NAMES[config.finalized]}, **constants, **extra)
    return json.dumps(header, sort_keys=True)


def _key_columns(dimension: str, pos: str, surface: str, head: str) -> str:
    """The four key columns that start every entry and record line, from an entry key."""
    return f"{surface}\t{head}\t{pos}\t{dimension}"


def _entry_line(key: tuple, entry) -> str:
    """One entry line, without its line break: the kept samples, or the spilled summary."""
    prefix = _key_columns(*key) + "\t"
    samples = entry if type(entry) is list else entry.exact
    if samples is not None:
        return prefix + " ".join(map(repr, sorted(samples)))
    buckets = " ".join(f"{bid}:{entry.buckets[bid]}" for bid in sorted(entry.buckets))
    total = " ".join(map(repr, entry.sum_partials())) or "0.0"
    return f"{prefix}{entry.count}\t{entry.minimum!r}\t{entry.maximum!r}\t{total}\t{buckets}"


def _entry_value(config: BuildConfig, key: tuple, rest: str):
    """The entry of an entry line's columns after ``key``, either shape: a partial
    table's kept line is the list of its values unless one has a magnitude of ``HUGE``,
    and any other line a Distribution.

    ValueError if malformed, or under a finalized ``config``'s thresholds.
    """
    values, cap = rest.split("\t"), config.exact_cap
    if len(values) == 1:
        entry = list(map(float, rest.split(" ")))
        if len(entry) > cap:
            raise ValueError(f"{len(entry)} samples exceed exact_cap {cap}")
        if config.finalized or not all(abs(v) < HUGE for v in entry):  # or not finite
            entry = Distribution.of(entry, cap)
        elif 0.0 in entry:
            entry = [v + 0.0 for v in entry]  # fold -0.0
    elif len(values) == 5:
        entry = _spilled(values, cap)
    else:
        raise ValueError(f"expected 5 or 9 columns, got {4 + len(values)}")
    if config.finalized and not _keeps(config, key, entry.count):
        raise ValueError(f"count {entry.count} is under the finalized table's thresholds")
    return entry


def _spilled(values: list, exact_cap: int) -> Distribution:
    """A spilled entry's Distribution from its count, min, max, sum and bucket columns."""
    count_s, min_s, max_s, sum_s, buckets_s = values
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
    return dist


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
    header, config = _read_header(line, _HEADER_FIELDS, _HEADER_CONSTANTS, ("entries", "format"))
    found = header.get("format")
    if found != FORMAT_NAMES[config.finalized]:
        partial = " for a partial table; re-run aggregate" if found == FORMAT_NAMES[True] else ""
        raise ValueError(f"unsupported format {found!r}{partial}")
    return config, _header_value(header, "entries", (int,))


def iter_entries(path):
    """A table file's config, and an iterator over its ``(key, Distribution)`` entries.

    The header is read at once and each entry line as the iterator reaches
    it, in the file's canonical order. A malformed line, or one that does
    not come after the line before it (a repeated key is one case), or that
    a finalized table's thresholds would have dropped, raises a
    LocatedInputError at its line; after the last line, an entry count other
    than the header's is an error of the file.
    """
    entries = _read_entries(path)
    return next(entries), entries


def _read_entries(path):
    """Yield a table file's BuildConfig, then its entries, as ``iter_entries`` describes."""
    with LocatedLines(path) as lines:
        rows = _entry_rows(lines)
        config = next(rows)
        yield config
        for key, rest in rows:
            yield key, _entry_value(config, key, rest)


def _entry_rows(lines: LocatedLines):
    """Yield the BuildConfig of the table file that ``lines`` reads, then per entry line
    its key and its columns after the key; ``lines.offset`` is where that line starts.

    A line with a malformed key, or one that does not come after the line before it,
    raises ValueError; after the last line, an entry count other than the header's is
    a LocatedInputError of the file. Blank lines are skipped.
    """
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
            parts = line.split("\t", 4)
            if len(parts) != 5:
                raise ValueError(f"expected 5 or 9 columns, got {len(parts)}")
            surface, head, pos, dimension, rest = parts
            key = _entry_key(surface, head, pos, dimension)
            if key <= last:
                raise ValueError(
                    "repeated entry" if key == last else "entry out of canonical order"
                )
            found, last = found + 1, key
            yield key, rest
    if found != expected_entries:
        raise LocatedInputError(
            f"header promises {expected_entries} entries, found {found} (truncated?)",
            path=str(lines.path),
        )


def read_table(path) -> QuantTable:
    """Parse a table file; malformed, out-of-order or truncated input raises LocatedInputError."""
    config, entries = iter_entries(path)
    return QuantTable(config, dict(entries))


class TableFile:
    """A table file answered by bisection: ``get`` and ``heads_for``, in the entry key's
    text, as on a QuantTable.

    Opening it reads the header and makes one pass over the entry lines that
    keeps only where each starts. That pass decodes every line and checks its
    key, the canonical order and the header's entry count, with the errors of
    ``iter_entries``. A lookup bisects those offsets, comparing the text keys of
    the lines it reads as that pass compared them; only the lines that it finds go
    through the full parse and the finalized-threshold check, each once. So a
    malformed value in a line that no lookup finds is not reported: ``read_table``
    and ``iter_entries`` read every line. Use it in a ``with`` block, which closes
    the file.
    """

    def __init__(self, path):
        self.path = str(path)
        self._offsets = array("q")
        with LocatedLines(path) as lines:
            rows = _entry_rows(lines)
            self.config = next(rows)
            for _ in rows:
                self._offsets.append(lines.offset)
        self._file = open(path, "rb")
        self._found: dict[tuple, Distribution | None] = {}

    def __enter__(self) -> "TableFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._file.close()

    def _key_at(self, offset: int) -> tuple:
        """The key ``(dimension, POS, surface, head)`` of the line at ``offset``."""
        self._file.seek(offset)
        surface, head, pos, dimension, _ = self._file.readline().split(b"\t", 4)
        return dimension.decode(), pos.decode(), surface.decode(), head.decode()

    def _parsed(self, key: tuple, index: int) -> Distribution:
        """The Distribution of entry line ``index``, whose key is ``key``, parsed on first use."""
        if key not in self._found:
            offset = self._offsets[index]
            self._file.seek(offset)
            line = self._file.readline().decode("utf-8").rstrip("\r\n")
            try:
                entry = _entry_value(self.config, key, line.split("\t", 4)[4])
                self._found[key] = _summary(entry, self.config.exact_cap)
            except (ValueError, OverflowError) as exc:
                self._file.seek(0)
                line_number = self._file.read(offset).count(b"\n") + 1
                raise LocatedInputError(str(exc), line_number, self.path) from None
        return self._found[key]

    def get(self, key: tuple) -> Distribution | None:
        """The entry under the entry key ``(dimension, POS, surface, head)``, or None."""
        if key not in self._found:
            index = bisect_left(self._offsets, key, key=self._key_at)
            if index < len(self._offsets) and self._key_at(self._offsets[index]) == key:
                return self._parsed(key, index)
            self._found[key] = None
        return self._found[key]

    def heads_for(self, dimension: str, pos: str, surface: str) -> dict:
        """All head-specific distributions for one modifier surface, as a new dict.

        They are one run of lines, right after the modifier's head-free key.
        """
        modifier = (dimension, pos, surface)
        heads = {}
        index = bisect_right(self._offsets, (*modifier, ""), key=self._key_at)
        while index < len(self._offsets):
            key = self._key_at(self._offsets[index])
            if key[:3] != modifier:
                break
            heads[key[3]] = self._parsed(key, index)
            index += 1
        return heads


def write_merged(config: BuildConfig, inputs, path) -> None:
    """Write the table of ``config`` holding the entries of ``inputs`` to ``path``.

    ``inputs`` are entry iterators in canonical order, as ``iter_entries``
    returns them. Their k-way merge goes through ``merged_entries``, and each
    line is written as its key closes. The header's entry count is known only
    at the end, so the body goes to a temporary file beside ``path`` and then
    follows the header into ``errors.replaced(path)``: a failure leaves
    ``path`` as it was, and ``path`` may name an input.
    """
    directory = os.path.dirname(os.path.abspath(path))
    with replaced(path, "wb") as out, tempfile.TemporaryFile(dir=directory) as body:
        written = 0
        for key, dist in merged_entries(config, heapq.merge(*inputs, key=itemgetter(0))):
            body.write(f"{_entry_line(key, dist)}\n".encode("utf-8"))
            written += 1
        body.seek(0)
        out.write(f"{_header_line(config, entries=written)}\n".encode("utf-8"))
        shutil.copyfileobj(body, out)


def stream_header(config: BuildConfig) -> str:
    """The header line of a record stream extracted under ``config``'s settings."""
    return _header_line(config, _STREAM_FIELDS, {"format": RECORD_FORMAT})


def record_line(record: tuple) -> str:
    """One record stream line, without its line break: key columns, value and token gap."""
    dimension, pos, surface, head, value, gap = record
    return f"{_key_columns(dimension, pos, surface, head)}\t{value!r}\t{gap}"


def aggregate(paths, exact_cap: int) -> QuantTable:
    """The partial table of the record streams at ``paths``, observed line by line.

    Memory grows with entries, not records. Every stream's header must pin the
    first's settings. A malformed line, or a running sum past the float range, is
    a LocatedInputError at its line.
    """
    table = None
    for path in paths:
        with LocatedLines(path) as lines:
            rows = iter(lines)
            header = next(rows, "")
            if not header.strip():
                raise ValueError("missing header")
            try:
                _, config = _read_header(
                    header, _STREAM_FIELDS, {"format": RECORD_FORMAT}, exact_cap=exact_cap
                )
            except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                raise ValueError(f"bad stream header ({exc}); re-run extract") from None
            if table is None:
                table = QuantTable(config)
            elif config != table.config:
                raise ConfigMismatchError(
                    f"record stream {path} was extracted under a different "
                    f"configuration than {paths[0]}"
                )
            for line in rows:
                if line:
                    columns = line.split("\t")
                    if len(columns) != 6:
                        raise ValueError(f"expected 6 columns, got {len(columns)}")
                    surface, head, pos, dimension, value_s, gap_s = columns
                    # the key columns are checked before the value
                    dimension, pos, surface, head = _entry_key(surface, head, pos, dimension)
                    value = float(value_s)
                    gap = int(gap_s)
                    if gap < 0 or (config.distance is not None and gap >= config.distance):
                        raise ValueError(f"token gap {gap} outside the extraction window")
                    table.observe((dimension, pos, surface, head, value, gap))
    return table

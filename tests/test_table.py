"""Table tests: single credit, head-free derivation, monoid laws, thresholds, canonical bytes."""

import contextlib
import copy
import functools
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quantdist.cli import main
from quantdist.distribution import Distribution
from quantdist.errors import ConfigMismatchError, LocatedInputError
from quantdist.inference import query_distribution
from quantdist.kernels import bucket_bounds
from quantdist.pipeline import Pos
from quantdist import table as table_mod
from quantdist.table import BuildConfig, QuantTable, TableFile, read_table
from quantdist.units import Dimension


def record(surface, dim, value, pos=Pos.UNKNOWN, head=None):
    return dim.name, pos.name, surface, head or "", value, 0


def random_records(rng, n, cap_values=False):
    surfaces = ["car", "truck", "goose", "fence", "race car", "fast"]
    dims = [Dimension.MASS, Dimension.SPEED, Dimension.LENGTH]
    out = []
    for _ in range(n):
        surface = rng.choice(surfaces)
        head = rng.choice([None, "car", "truck"]) if surface == "fast" else None
        pos = Pos.ADJ if surface == "fast" else Pos.NOUN
        value = 0.0 if rng.random() < 0.05 else rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 6)
        if cap_values:
            value = float(rng.randint(1, 5))
        out.append(record(surface, rng.choice(dims), value, pos=pos, head=head))
    return out


def build(records, **cfg):
    t = QuantTable(BuildConfig(**cfg))
    t.observe_all(records)
    return t


def test_observe_counts():
    t = build([record("elephant", Dimension.MASS, 4000.0)] * 2)
    d = t.get(("MASS", "UNKNOWN", "elephant", ""))
    assert d is not None and d.count == 2


def test_observe_credits_once_and_finalize_derives_head_free(tmp_path):
    t = build(
        [
            record("fast", Dimension.SPEED, 22.35, pos=Pos.ADJ, head="car"),
            record("fast", Dimension.SPEED, 30.0, pos=Pos.ADJ, head="truck"),
            record("fast", Dimension.SPEED, 40.0, pos=Pos.ADJ),
        ]
    )
    # a partial table holds each record once: its head-free entry, the headless ones
    assert [t.get(("SPEED", "ADJ", "fast", h)).count for h in ("", "car", "truck")] == [1, 1, 1]
    t.write(tmp_path / "t.part")
    with TableFile(tmp_path / "t.part") as file:  # and so does its file
        assert file.get(("SPEED", "ADJ", "fast", "")).sorted_exact() == [40.0]
    final = t.finalize(1)
    head_free = final.get(("SPEED", "ADJ", "fast", ""))
    assert head_free.count == 3 and head_free.sorted_exact() == [22.35, 30.0, 40.0]
    assert final.get(("SPEED", "ADJ", "fast", "car")).count == 1
    # a modifier seen only with a head gets a head-free entry at finalize, not before
    only_headed = build([record("fast", Dimension.SPEED, 22.35, pos=Pos.ADJ, head="car")])
    assert only_headed.get(("SPEED", "ADJ", "fast", "")) is None
    assert only_headed.finalize(1).get(("SPEED", "ADJ", "fast", "")).count == 1


def test_headless_record_writes_single_key():
    t = build([record("car", Dimension.SPEED, 30.0)])
    assert len(t) == 1


def test_zero_value_lands_in_zero_bucket():
    t = build([record("thing", Dimension.MASS, 0.0)])
    d = t.get(("MASS", "UNKNOWN", "thing", ""))
    assert d.buckets == {0: 1}


def test_merge_monoid_and_shards():
    rng = random.Random(99)
    for _ in range(25):
        a = build(random_records(rng, rng.randint(0, 40)))
        b = build(random_records(rng, rng.randint(0, 40)))
        c = build(random_records(rng, rng.randint(0, 40)))
        assert a.merge(b).serialize() == b.merge(a).serialize()
        assert a.merge(b).merge(c).serialize() == a.merge(b.merge(c)).serialize()
        empty = QuantTable(BuildConfig())
        assert a.merge(empty).serialize() == a.serialize()


def test_shard_invariance_bytes():
    rng = random.Random(100)
    for _ in range(20):
        records = random_records(rng, rng.randint(1, 120))
        whole = build(records, exact_cap=16)
        shards = [QuantTable(BuildConfig(exact_cap=16)) for _ in range(rng.randint(2, 5))]
        for r in records:
            shards[rng.randrange(len(shards))].observe(r)
        rng.shuffle(shards)
        merged = shards[0]
        for s in shards[1:]:
            merged = merged.merge(s)
        assert merged.serialize() == whole.serialize()
        assert merged == whole


def test_build_order_invariance_bytes():
    rng = random.Random(101)
    records = random_records(rng, 150)
    t1 = build(records, exact_cap=8)
    rng.shuffle(records)
    t2 = build(records, exact_cap=8)
    assert t1.serialize() == t2.serialize()


def test_finalize_thresholds():
    records = [record("common", Dimension.MASS, 2.0)] * 1000
    records += [record("rare", Dimension.MASS, 3.0)] * 999
    t = build(records)
    kept = t.finalize(1000)
    assert kept.get(("MASS", "UNKNOWN", "common", "")) is not None
    assert kept.get(("MASS", "UNKNOWN", "rare", "")) is None


def test_finalize_min_count_one_keeps_entries():
    rng = random.Random(5)
    t = build(random_records(rng, 50), min_phrase_count=1)
    assert set(t.finalize(1).entries) == set(t.entries)


def test_finalize_composition():
    rng = random.Random(6)
    t = build(random_records(rng, 400, cap_values=True))
    twice = t.finalize(10).finalize(40)
    once = t.finalize(40)
    assert twice.serialize() == once.serialize()
    # order of thresholds must not matter either
    assert t.finalize(40).finalize(10).serialize() == once.serialize()


def test_phrase_threshold_applies_to_multiword_only():
    records = [record("race car", Dimension.SPEED, 50.0, pos=Pos.NOUN, head="car")] * 3
    records += [record("car", Dimension.SPEED, 50.0, pos=Pos.NOUN)] * 3
    t = build(records, min_phrase_count=5)
    final = t.finalize(1)
    assert final.get(("SPEED", "NOUN", "car", "")) is not None
    assert final.get(("SPEED", "NOUN", "race car", "car")) is None


def test_finalized_table_rejects_observe():
    t = build([record("car", Dimension.SPEED, 1.0)]).finalize(1)
    with pytest.raises(ConfigMismatchError):
        t.observe(record("car", Dimension.SPEED, 2.0))


def test_merge_config_mismatch():
    a = QuantTable(BuildConfig(registry_version="aaa"))
    b = QuantTable(BuildConfig(registry_version="bbb"))
    with pytest.raises(ConfigMismatchError):
        a.merge(b)
    c = QuantTable(BuildConfig(exact_cap=1))
    with pytest.raises(ConfigMismatchError):
        QuantTable(BuildConfig()).merge(c)
    d = QuantTable(BuildConfig(distance=3))
    with pytest.raises(ConfigMismatchError):
        QuantTable(BuildConfig(distance=10)).merge(d)


def test_merge_partial_with_finalized_rejected():
    t = build([record("car", Dimension.SPEED, 1.0)])
    with pytest.raises(ConfigMismatchError):
        t.merge(t.finalize(1))


def test_merge_finalized_tables_reapplies_threshold():
    a = build([record("car", Dimension.SPEED, 1.0)] * 3).finalize(3)
    b = build([record("car", Dimension.SPEED, 2.0)] * 3).finalize(2)
    m = a.merge(b)
    assert m.config.min_count == 3
    assert m.get(("SPEED", "UNKNOWN", "car", "")).count == 6


def test_round_trip(tmp_path):
    rng = random.Random(7)
    t = build(random_records(rng, 200), exact_cap=8, distance=10)
    path = tmp_path / "table.tsv"
    t.write(path)
    back = read_table(path)
    assert back == t
    assert back.serialize() == t.serialize()


def test_round_trip_finalized(tmp_path):
    rng = random.Random(8)
    t = build(random_records(rng, 300, cap_values=True)).finalize(5)
    path = tmp_path / "table.tsv"
    t.write(path)
    back = read_table(path)
    assert back == t
    assert back.config.finalized is True


def test_equal_tables_identical_bytes():
    records = [
        record("fast", Dimension.SPEED, 22.35, pos=Pos.ADJ, head="car"),
        record("car", Dimension.SPEED, 22.35, pos=Pos.NOUN),
        record("car", Dimension.SPEED, -0.0, pos=Pos.NOUN),
    ]
    t1 = build(records)
    t2 = build(list(reversed(records)))
    assert t1.serialize() == t2.serialize()
    assert "-0.0" not in t1.serialize()


def test_truncated_file_rejected(tmp_path):
    rng = random.Random(9)
    t = build(random_records(rng, 50))
    path = tmp_path / "table.tsv"
    t.write(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = tmp_path / "cut.tsv"
    cut.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(LocatedInputError, match=f"^{cut}: header promises \\d+ entries") as err:
        read_table(cut)
    assert (err.value.path, err.value.line_number) == (str(cut), None)


def test_bad_header_rejected(tmp_path, capsys):
    p = tmp_path / "bad.tsv"
    p.write_text("not json\n", encoding="utf-8")
    with pytest.raises(LocatedInputError):
        read_table(p)
    p.write_text('{"format": "other/9", "entries": 0}\n', encoding="utf-8")
    with pytest.raises(LocatedInputError):
        read_table(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(LocatedInputError):
        read_table(p)
    build([record("car", Dimension.SPEED, 5.0)]).write(p)
    header_line, entry = p.read_text(encoding="utf-8").splitlines()
    bad_values = [
        ("exact_cap", "x"),
        ("exact_cap", True),  # a bool is no int
        ("distance", "far"),
        ("distance", 0),
        ("finalized", "no"),
        ("min_count", 0),
        ("min_phrase_count", 0),
        ("entries", "1"),
        ("registry", None),
        ("buckets_per_decade", 5),  # bucketing is fixed in kernels
        ("value_floor", 1e-9),
        ("max_phrase_len", 1),  # a key no build setting writes
        ("format", "quanttable/1"),  # the layout with derived columns on every entry
    ]
    bad_headers = ["[1]", "[" * 100_000 + "]" * 100_000]  # not a JSON object
    bad_headers.append(header_line[:-1] + ', "registry": "other"}')  # a key given twice
    for field, value in bad_values:
        header = json.loads(header_line)
        header[field] = value
        bad_headers.append(json.dumps(header))
    for bad_header in bad_headers:
        p.write_text(bad_header + "\n" + entry + "\n", encoding="utf-8")
        with pytest.raises(LocatedInputError, match=f"{p}:1: bad header") as err:
            read_table(p)
        assert err.value.path == str(p)
        argv = ["query", "--table", str(p), "--object", "car", "--dim", "speed"]
        assert main(argv) == 2, bad_header
        err = capsys.readouterr().err
        assert str(p) in err and "Traceback" not in err
        if '"quanttable/1"' in bad_header:
            assert f"{p}:1: bad header (unsupported format 'quanttable/1')" in err
        if '"other"' in bad_header:
            assert f"{p}:1: bad header (repeated key 'registry')" in err


def test_partial_table_in_the_final_format_rejected(tmp_path, capsys):
    """A partial table whose header names the final format is rejected at line 1.

    Partial tables of that format credited each headed record under its head-free key
    too, so finalizing one now would count those records twice there.
    """
    t = build([record("fast", Dimension.SPEED, 22.35, pos=Pos.ADJ, head="car")])
    old, out = tmp_path / "old.part", tmp_path / "out.table"
    t.write(old)
    header, entry = old.read_text(encoding="utf-8").splitlines()
    assert json.loads(header)["format"] == "quanttable/3"
    old.write_text(header.replace('"quanttable/3"', '"quanttable/2"') + "\n" + entry + "\n", "utf-8")
    message = f"{old}:1: bad header (unsupported format 'quanttable/2' for a partial table"
    with pytest.raises(LocatedInputError) as err:
        read_table(old)
    assert str(err.value).startswith(message)
    assert (err.value.path, err.value.line_number) == (str(old), 1)
    for argv in (
        ["merge", str(old), "-o", str(out)],
        ["finalize", str(old), "--min-count", "1", "-o", str(out)],
        ["query", "--table", str(old), "--object", "fast", "--dim", "speed", "--pos", "adj"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()
    final = tmp_path / "final.table"
    t.finalize(1).write(final)
    header = final.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(header)["format"] == "quanttable/2"
    assert read_table(final) == t.finalize(1)
    # and a finalized table in the partial format is no table either
    final.write_text(final.read_text("utf-8").replace('"quanttable/2"', '"quanttable/3"'), "utf-8")
    with pytest.raises(LocatedInputError, match=f"^{final}:1: bad header"):
        read_table(final)


def test_head_free_fold_past_the_float_range_is_a_data_error(tmp_path, capsys):
    """Each entry's sum is in range, their head-free fold is not: finalize reports it."""
    t = build([record("fast", Dimension.SPEED, 1e308, pos=Pos.ADJ, head=h) for h in ("a", "b")])
    with pytest.raises(OverflowError):
        t.finalize(1)
    part, out = tmp_path / "t.part", tmp_path / "out.table"
    t.write(part)
    assert main(["finalize", str(part), "--min-count", "1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: finalizing {part}: running sum overflowed" in err and "Traceback" not in err
    assert not out.exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_header_value_reads_or_is_rejected(data):
    """A header with one value replaced reads back or fails as a located data error."""
    table = build([record("car", Dimension.SPEED, v) for v in (5.0, 7.0)], exact_cap=1)
    header_line, body = table.serialize().split("\n", 1)
    header = json.loads(header_line)
    header[data.draw(st.sampled_from(sorted(header)))] = data.draw(_JSON)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n" + body)
        try:
            read_table(path)
        except LocatedInputError as exc:
            assert exc.path == path
        out = os.path.join(d, "final.tsv")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["finalize", path, "--min-count", "1", "-o", out]) in (0, 2)


def test_corrupt_entry_rejected(tmp_path, capsys):
    t = build([record("car", Dimension.SPEED, v) for v in (5.0, 7.0)], exact_cap=1)
    path = tmp_path / "table.tsv"
    t.write(path)
    header, entry = path.read_text(encoding="utf-8").splitlines()
    cols = entry.split("\t")  # a spilled entry: key, count, min, max, sum, buckets
    low, high = (int(pair.split(":")[0]) for pair in cols[8].split(" "))

    def with_column(i, text):
        return "\t".join(cols[:i] + [text] + cols[i + 1:])

    def with_samples(text):  # a kept-samples entry: key, samples
        return "\t".join(cols[:4] + [text])

    cap_two = header.replace('"exact_cap": 1', '"exact_cap": 2')
    cap_4096 = header.replace('"exact_cap": 1', '"exact_cap": 4096')
    final = header.replace('"finalized": false', '"finalized": true')  # min_phrase_count 5
    final = final.replace('"quanttable/3"', '"quanttable/2"')  # a finalized table's format
    final_3 = final.replace('"min_count": 1', '"min_count": 3')
    bad_entries = [
        (header, entry.rsplit("\t", 1)[0], "expected 5 or 9 columns, got 8"),
        (header, entry + "\t-", "expected 5 or 9 columns, got 10"),  # a quanttable/1 line
        (header, with_column(0, ""), "empty object surface"),
        (header, with_column(7, "inf"), "non-finite value"),  # sum part
        (header, with_column(7, "1e308 1e308"), "overflowed"),  # exact sum past the float range
        (header, with_column(5, "nan"), "non-finite value"),  # min
        (header, with_column(6, "-inf"), "non-finite value"),  # max
        (header, with_column(8, f"{low}:1 999:1"), "highest buckets"),  # bucket id out of range
        (header, with_column(8, f"-241:1 {high}:1"), "lowest and highest"),
        (header, with_column(5, "7.5"), "exceeds max"),  # min above max
        (header, with_column(8, f"{low}:1 {low + 1}:0 {high}:1"), "positive"),  # zero count
        (header, with_column(8, f"{low}:2 {low + 1}:-1 {high}:1"), "positive"),  # negative count
        (header, with_column(8, f"{low}:1 {low}:1"), f"bucket id {low} repeated"),
        (header, with_column(8, f"{low + 1}:1 {high}:1"), "lowest"),  # min outside its bucket
        (header, with_samples("nan"), "non-finite sample"),
        (header, with_samples("5.0 7.0"), "2 samples exceed exact_cap 1"),
        (header, with_samples(""), "could not convert"),
        (cap_two, with_samples("1e308 1e308"), "overflowed"),  # exact sum past the float range
        # a spilled summary of 2 values under a cap that keeps them: no build writes one
        (cap_4096, entry, "spilled summary must count more than exact_cap 4096"),
        (cap_two, entry, "spilled summary must count more than exact_cap 2"),
        # a finalized table holds no entry that its header's thresholds drop
        (final_3, entry, "count 2 is under the finalized table's thresholds"),
        (final, with_column(0, "race car"), "count 2 is under the finalized table's thresholds"),
    ]
    bad, out = tmp_path / "bad.tsv", tmp_path / "out.tsv"
    for bad_header, bad_entry, message in bad_entries:
        bad.write_text(bad_header + "\n" + bad_entry + "\n", encoding="utf-8")
        with pytest.raises(LocatedInputError, match=f"^{bad}:2: .*{message}") as err:
            read_table(bad)
        assert (err.value.path, err.value.line_number) == (str(bad), 2)
        for command in ("query", "plot-export"):
            argv = [command, "--table", str(bad), "--object", "car", "--dim", "speed"]
            assert main(argv) == 2, (command, bad_entry)
        assert main(["finalize", str(bad), "--min-count", "1", "-o", str(out)]) == 2, bad_entry
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{bad}:2: " in err and "Traceback" not in err


def test_heads_for():
    records = [
        record("fast", Dimension.SPEED, 30.0, pos=Pos.ADJ, head="car"),
        record("fast", Dimension.SPEED, 40.0, pos=Pos.ADJ, head="truck"),
        record("fast", Dimension.MASS, 1.0, pos=Pos.ADJ, head="car"),
        record("slow", Dimension.SPEED, 5.0, pos=Pos.ADJ, head="car"),
    ]
    t = build(records)
    heads = t.heads_for("SPEED", "ADJ", "fast")
    assert set(heads) == {"car", "truck"}
    assert heads["car"].count == 1
    assert_heads_match_scan(t, headed=True)


def test_heads_for_on_a_partial_table_counts_values_observed_after_it():
    fast_car = record("fast", Dimension.SPEED, 30.0, pos=Pos.ADJ, head="car")
    t = build([fast_car], exact_cap=2)
    assert t.heads_for("SPEED", "ADJ", "fast")["car"].count == 1
    t.observe_all([fast_car] * 3)  # the key spills past exact_cap, and its batch is pending
    assert t.heads_for("SPEED", "ADJ", "fast")["car"].count == 4


def test_heads_for_on_a_finalized_table_indexes_a_slice_once(monkeypatch):
    records = [
        record("fast", Dimension.SPEED, 30.0, pos=Pos.ADJ, head="car"),
        record("fast", Dimension.SPEED, 40.0, pos=Pos.ADJ, head="truck"),
        record("slow", Dimension.SPEED, 5.0, pos=Pos.ADJ, head="car"),
    ]
    final = build(records).finalize(1)
    calls = []
    get = QuantTable.get
    monkeypatch.setattr(QuantTable, "get", lambda self, key: calls.append(key) or get(self, key))
    assert set(final.heads_for("SPEED", "ADJ", "fast")) == {"car", "truck"}
    assert len(calls) == 3  # every headed entry of the (SPEED, ADJ) slice
    assert set(final.heads_for("SPEED", "ADJ", "slow")) == {"car"}
    assert len(calls) == 3


def test_entries_of_a_finalized_table_summarise_each_entry_once(monkeypatch):
    records = [
        record("car", Dimension.MASS, 1200.0, pos=Pos.NOUN),
        record("car", Dimension.MASS, 1500.0, pos=Pos.NOUN),
        record("fast", Dimension.SPEED, 30.0, pos=Pos.ADJ, head="car"),
    ]
    final = build(records).finalize(1)
    calls = []
    get = QuantTable.get
    monkeypatch.setattr(QuantTable, "get", lambda self, key: calls.append(key) or get(self, key))
    first = dict(final.entries)
    assert len(calls) == len(first) and all(isinstance(e, Distribution) for e in first.values())
    calls.clear()
    assert final.entries == first
    assert calls == []  # the first read summarised every entry for good


def scanned_heads(table, surface, pos, dimension):
    """Reference for ``heads_for``: one pass over every entry, keyed (dimension, POS, surface, head)."""
    return {
        h: entry
        for (d, p, s, h), entry in table.entries.items()
        if d == dimension.name and p == pos.name and s == surface and h
    }


def summarised(entry, exact_cap):
    """A table entry as a Distribution: a partial table's list of values is summarised."""
    return entry if isinstance(entry, Distribution) else Distribution.of(list(entry), exact_cap)


def assert_heads_match_scan(table, headed=False):
    """``heads_for`` answers like a scan for every surface; with ``headed``, some answer is not empty."""
    surfaces = {s for _, _, s, _ in table.entries} | {"absent"}
    found = False
    for surface in surfaces:
        for pos in Pos:
            for dimension in (Dimension.MASS, Dimension.SPEED, Dimension.LENGTH):
                got = table.heads_for(dimension.name, pos.name, surface)
                want = scanned_heads(table, surface, pos, dimension)
                cap = table.config.exact_cap
                assert got == {h: summarised(e, cap) for h, e in want.items()}, (surface, pos)
                # a Distribution entry is answered as itself, a list of values anew
                assert all(got[h] is e for h, e in want.items() if isinstance(e, Distribution))
                found = found or bool(want)
    assert found or not headed


_INDEX_RECORDS = st.lists(
    st.builds(
        record,
        st.sampled_from(["fast", "heavy", "car", "race car", "drive"]),
        st.sampled_from([Dimension.MASS, Dimension.SPEED, Dimension.LENGTH]),
        st.sampled_from([1.0, 2.5, 40.0, 1e4]),
        pos=st.sampled_from([Pos.ADJ, Pos.NOUN, Pos.VERB, Pos.UNKNOWN]),
        head=st.sampled_from([None, "car", "truck", "road"]),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(_INDEX_RECORDS, _INDEX_RECORDS)
def test_heads_for_matches_a_scan(first, later):
    """The head index answers like a scan, before and after new keys, and on derived tables."""
    table = build(first)
    headed = any(r[3] for r in first)
    assert_heads_match_scan(table, headed)
    for pos in (Pos.ADJ, Pos.NOUN):
        heads = table.heads_for("SPEED", pos.name, "fast")
        heads.clear()  # callers get a copy
        heads["car"] = Distribution()
    assert_heads_match_scan(table, headed)
    table.observe_all(later)  # new heads and surfaces after the index is built
    headed = any(r[3] for r in first + later)
    assert_heads_match_scan(table, headed)
    other = build(later)
    other.heads_for("SPEED", "ADJ", "fast")
    merged = table.merge(other)
    assert_heads_match_scan(merged, headed)
    final = merged.finalize(2)
    assert_heads_match_scan(final)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tsv")
        final.write(path)
        assert_heads_match_scan(read_table(path))


# z < é < 水 < U+E000 < U+1D538 in code points and in UTF-8 bytes, though UTF-16 puts
# U+1D538 first; "é z" is a phrase, "ez" sorts between
_FILE_SURFACES = ["car", "e", "ez", "z", "é", "é z", "水", "\ue000", "\U0001d538"]
_FILE_HEADS = [None, "car", "z", "é", "\ue000", "\U0001d538"]
# probes that match no line: a lone surrogate (from an argument that was not UTF-8),
# which no UTF-8 line can hold, and the last code point, after every line
_MISSING = ["\udcff", "\U0010ffff"]
_FILE_RECORDS = st.lists(
    st.builds(
        record,
        st.sampled_from(_FILE_SURFACES),
        st.sampled_from([Dimension.LENGTH, Dimension.MASS, Dimension.SPEED]),
        st.sampled_from([-3.0, 1.0, 2.5, 40.0, 1e4]),
        pos=st.sampled_from([Pos.ADJ, Pos.NOUN, Pos.UNKNOWN]),
        head=st.sampled_from(_FILE_HEADS),
    ),
    max_size=40,
)
# from before the first line of any table above to after its last
_PROBE_DIMENSIONS = sorted(
    {Dimension.AREA, Dimension.LENGTH, Dimension.MASS, Dimension.SPEED, Dimension.VOLUME},
    key=lambda dimension: dimension.name,
)


@settings(max_examples=60, deadline=None)
@given(
    _FILE_RECORDS,
    st.booleans(),
    st.lists(st.integers(min_value=0), max_size=3),
    st.sampled_from(["\n", "\r\n"]),
)
# the last line is headed: (SPEED, UNKNOWN, 水, z) ends the file
@example([record("水", Dimension.SPEED, 1.0, pos=Pos.UNKNOWN, head="z")], False, [], "\n")
def test_table_file_answers_like_read_table(records, finalized, blank_lines, line_end):
    """Every ``get`` and ``heads_for`` of a TableFile equals ``read_table``'s answer.

    Tables hold kept and spilled entries, may be finalized and may have blank lines
    between entries or at the end, and LF or CRLF line ends; keys probe before,
    between and after the lines, a lone surrogate among them.
    """
    table = build(records, exact_cap=2)
    if finalized:
        table = table.finalize(2)
    lines = table.serialize().splitlines(keepends=True)
    for position in blank_lines:
        lines.insert(1 + position % len(lines), "\n")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tsv")
        with open(path, "wb") as fh:
            fh.write("".join(lines).replace("\n", line_end).encode("utf-8"))
        expected = read_table(path)
        with TableFile(path) as file:
            assert file.config == expected.config
            for dimension in _PROBE_DIMENSIONS:
                for pos in (Pos.ADJ, Pos.NOUN, Pos.UNKNOWN):
                    for surface in ["a", *_FILE_SURFACES, "水水", *_MISSING]:
                        heads = file.heads_for(dimension.name, pos.name, surface)
                        assert heads == expected.heads_for(dimension.name, pos.name, surface)
                        for head in [*_FILE_HEADS, "zz", *_MISSING]:
                            head = head or ""
                            key = (dimension.name, pos.name, surface, head)
                            assert file.get(key) == expected.get(key)
                            # a tagged miss falls back to the UNKNOWN key
                            found = query_distribution(file, surface, dimension, pos, head)
                            assert found == query_distribution(expected, surface, dimension, pos, head)


def test_table_file_parses_each_found_line_once(tmp_path, monkeypatch):
    """A TableFile remembers what it parsed and what it missed; its answers are new dicts."""
    path = tmp_path / "t.tsv"
    build(
        [record("fast", Dimension.SPEED, v, pos=Pos.ADJ, head=h) for v in (1.0, 2.0) for h in "ab"]
    ).finalize(1).write(path)  # which derives the head-free entry
    parsed = []
    entry_value = table_mod._entry_value

    def counted(*args):
        parsed.append(args)
        return entry_value(*args)

    monkeypatch.setattr(table_mod, "_entry_value", counted)
    with TableFile(path) as file:
        for _ in range(3):
            heads = file.heads_for("SPEED", "ADJ", "fast")
            assert sorted(heads) == ["a", "b"]
            heads.clear()
            assert file.get(("SPEED", "ADJ", "fast", "a")) is not None
            assert file.get(("SPEED", "ADJ", "fast", "")).count == 4
            assert file.get(("SPEED", "ADJ", "slow", "")) is None
    assert len(parsed) == 3


def test_export_points_density():
    values = [1.0, 2.0, 5.0, 0.0, 30.0, 30.5]
    t = QuantTable(BuildConfig())
    for v in values:
        t.observe(record("car", Dimension.SPEED, v))
    dist = t.get(("SPEED", "UNKNOWN", "car", ""))
    points = dist.density_points()
    assert points == sorted(points)
    zero_mass = points[0][1]
    assert points[0][0] == 0.0 and zero_mass == pytest.approx(1 / 6)
    widths = [hi - lo for lo, hi in map(bucket_bounds, sorted(dist.buckets))]
    mass = zero_mass + sum(d * w for (_, d), w in zip(points[1:], widths[1:]))
    assert mass == pytest.approx(1.0)


def test_entry_distributions_are_real_distributions():
    t = build([record("car", Dimension.SPEED, v) for v in (1.0, 2.0, 3.0)])
    d = t.get(("SPEED", "UNKNOWN", "car", ""))
    assert isinstance(d, Distribution)
    assert d.median() == 2.0


_SUBJECTS = [
    ("car", Pos.NOUN, None),
    ("race car", Pos.NOUN, None),
    ("fast", Pos.ADJ, "car"),
    ("fast", Pos.ADJ, None),
]
_records = st.builds(
    lambda subject, dim, value: record(subject[0], dim, value, pos=subject[1], head=subject[2]),
    st.sampled_from(_SUBJECTS),
    st.sampled_from([Dimension.MASS, Dimension.SPEED]),
    st.floats(min_value=-1e300, max_value=1e300),
)
N_SHARDS = 4


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_records, st.integers(0, N_SHARDS - 1)), max_size=40),
    st.permutations(range(N_SHARDS)),
)
def test_any_sharding_serializes_like_one_pass(tagged, order):
    one_pass = build([r for r, _ in tagged], exact_cap=3)
    whole = one_pass.serialize()
    shards = [
        build([r for r, shard in tagged if shard == i], exact_cap=3) for i in order
    ]
    snapshots = [shard.serialize() for shard in shards]
    pairwise = functools.reduce(lambda a, b: a.merge(b), shards)
    assert pairwise.serialize() == whole
    merged = shards[0].merge(*shards[1:])
    assert merged.serialize() == whole
    assert [shard.serialize() for shard in shards] == snapshots  # inputs untouched
    if tagged:  # and not shared: observing into the output leaves every input as it was
        merged.observe(tagged[0][0])
        assert [shard.serialize() for shard in shards] == snapshots
    finals = [shard.finalize(2) for shard in shards]
    pairwise = functools.reduce(lambda a, b: a.merge(b), finals)
    assert finals[0].merge(*finals[1:]).serialize() == pairwise.serialize()
    # and through the file format, which re-sums the written expansions
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, f"{i}.table") for i in range(N_SHARDS)]
        for shard, path in zip(shards, paths):
            shard.write(path)
        first, *rest = [read_table(path) for path in paths]
        assert first.merge(*rest).serialize() == whole
        # and file to file, as the CLI streams them
        merged, final = os.path.join(d, "merged.table"), os.path.join(d, "final.table")
        assert main(["merge", *paths, "-o", merged]) == 0
        assert main(["finalize", merged, "--min-count", "2", "-o", final]) == 0
        with open(merged, "rb") as fh:
            assert fh.read() == whole.encode("utf-8")
        with open(final, "rb") as fh:
            assert fh.read() == one_pass.finalize(2).serialize().encode("utf-8")


def credited_twice(records, exact_cap, min_count):
    """Reference: the bytes of ``records`` finalized at ``min_count`` when a partial table
    credited each headed record under its own key and again under its head-free key.

    ``merged_entries`` folds that table's entries under the finalized config and derives
    nothing, so its head-free entries are the ones observed.
    """
    partial = QuantTable(BuildConfig(exact_cap=exact_cap))
    for dimension, pos, surface, head, value, gap in records:
        partial.observe((dimension, pos, surface, head, value, gap))
        if head:
            partial.observe((dimension, pos, surface, "", value, gap))
    config = BuildConfig(exact_cap=exact_cap, min_count=min_count, finalized=True)
    final = QuantTable(config, dict(table_mod.merged_entries(config, sorted(partial.entries.items()))))
    return final.serialize()


_HEADED_RECORDS = st.builds(
    record,
    st.sampled_from(["fast", "heavy", "race car", "car"]),
    st.sampled_from([Dimension.MASS, Dimension.SPEED]),
    st.sampled_from([-3.0, 0.0, 1.0, 2.5, 40.0, 1e4]) | st.floats(-1e300, 1e300),
    pos=st.sampled_from([Pos.ADJ, Pos.NOUN]),
    head=st.sampled_from([None, "car", "truck", "race car"]),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_HEADED_RECORDS, st.integers(0, N_SHARDS - 1)), max_size=40),
    st.integers(1, 4),
)
def test_finalize_derives_head_free_entries_like_crediting_twice(tagged, min_count):
    """Finalizing, in memory or through the CLI over any sharding, writes the bytes of
    the table that credited each headed record twice, and finalizing again folds nothing.
    """
    records = [r for r, _ in tagged]
    expected = credited_twice(records, 3, min_count)
    table = build(records, exact_cap=3)
    assert table.finalize(min_count).serialize() == expected
    assert table.finalize(2).finalize(3).serialize() == table.finalize(3).serialize()
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, f"{i}.part") for i in range(N_SHARDS)]
        for i, path in enumerate(paths):
            build([r for r, shard in tagged if shard == i], exact_cap=3).write(path)
        merged, final = os.path.join(d, "merged.part"), os.path.join(d, "final.table")
        assert main(["merge", *paths, "-o", merged]) == 0
        assert main(["finalize", merged, "--min-count", str(min_count), "-o", final]) == 0
        with open(final, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")


_TOP = sys.float_info.max
_OVERFLOW = Fraction(2**1024 - 2**970)  # an exact sum this large rounds to an infinite float
_ORACLE_SUBJECTS = [
    ("car", Pos.NOUN, None),
    ("race car", Pos.NOUN, "car"),
    ("fast", Pos.ADJ, None),
    ("fast", Pos.ADJ, "car"),
    ("fast", Pos.ADJ, "truck"),
]
# at most 40 values of magnitude _TOP / 64 or less: no sum of them leaves the float range
_ORACLE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -2.5, 1e12, 2.0**960, _TOP / 64]
) | st.floats(-_TOP / 64, _TOP / 64)
_ORACLE_RECORDS = st.lists(
    st.tuples(
        st.builds(
            lambda subject, dim, value: record(subject[0], dim, value, subject[1], subject[2]),
            st.sampled_from(_ORACLE_SUBJECTS),
            st.sampled_from([Dimension.MASS, Dimension.SPEED]),
            _ORACLE_VALUES,
        ),
        st.integers(0, N_SHARDS - 1),
    ),
    max_size=40,
)


def reference_table(records, config):
    """The table of ``records`` built from each key's whole multiset with ``Distribution.of``:
    under a finalized ``config`` each modifier's values also go under its head-free key,
    and keys under the thresholds are dropped."""
    values = {}
    for dimension, pos, surface, head, value, _ in records:
        keys = [(dimension, pos, surface, head)]
        if config.finalized and head:
            keys.append((dimension, pos, surface, ""))
        for key in keys:
            values.setdefault(key, []).append(value)
    least = lambda key: max(config.min_count, config.min_phrase_count if " " in key[2] else 1)
    return QuantTable(config, {
        key: Distribution.of(list(vs), config.exact_cap)
        for key, vs in values.items()
        if not config.finalized or len(vs) >= least(key)
    })


def assert_answers_like(table, reference):
    """``get`` and ``heads_for`` answer with the reference's Distributions, and a miss with None."""
    for key, dist in reference.entries.items():
        got = table.get(key)
        assert isinstance(got, Distribution) and got == dist, key
        heads = {k[3]: d for k, d in reference.entries.items() if k[:3] == key[:3] and k[3]}
        assert table.heads_for(*key[:3]) == heads, key
    assert table.get(("MASS", "NOUN", "absent", "")) is None


@settings(max_examples=150, deadline=None)
@given(_ORACLE_RECORDS, st.sampled_from([0, 1, 2, 16]), st.permutations(range(N_SHARDS)))
def test_partial_and_final_tables_match_a_whole_multiset_reference(tagged, exact_cap, order):
    """However records are sharded and merged, the partial and final tables serialize and
    answer like a reference that summarises each key's whole multiset at once."""
    records = [r for r, _ in tagged]
    config = BuildConfig(exact_cap=exact_cap)
    final_config = replace(config, min_count=2, finalized=True)
    partial, final = reference_table(records, config), reference_table(records, final_config)
    one_pass = build(records, exact_cap=exact_cap)
    shards = [build([r for r, shard in tagged if shard == i], exact_cap=exact_cap) for i in order]
    before = [(shard.serialize(), copy.deepcopy(shard.entries)) for shard in shards]
    pairwise = functools.reduce(lambda a, b: a.merge(b), shards)
    merged = shards[0].merge(*shards[1:])
    assert [(shard.serialize(), shard.entries) for shard in shards] == before  # inputs untouched
    for table in (one_pass, pairwise, merged):
        assert table.serialize() == partial.serialize()
        assert_answers_like(table, partial)
        finalized = table.finalize(2)
        assert finalized.serialize() == final.serialize()
        assert_answers_like(finalized, final)
    with tempfile.TemporaryDirectory() as d:  # a partial table read back answers alike
        path = os.path.join(d, "t.part")
        one_pass.write(path)
        assert_answers_like(read_table(path), partial)


def counted_of(monkeypatch) -> list:
    """From now on, the number of values of each ``Distribution.of`` call, in call order."""
    calls, of = [], Distribution.of

    def counted(samples, *args):
        calls.append(len(samples))
        return of(samples, *args)

    monkeypatch.setattr(Distribution, "of", staticmethod(counted))
    return calls


def spilled_lines(text: str) -> int:
    """How many entry lines of a table's text hold a spilled summary, not its samples."""
    return sum(len(line.split("\t")) == 9 for line in text.splitlines()[1:])


def test_finalize_builds_a_distribution_only_for_a_spilled_key(tmp_path, monkeypatch):
    """In memory and through ``quantdist finalize``, finalizing calls ``Distribution.of`` once
    per spilled key and writes each kept line from its values."""
    records = [record("car", Dimension.MASS, float(v)) for v in range(6)]  # spills when observed
    records += [  # whose head-free entry spills only when finalize derives it
        record("fast", Dimension.SPEED, float(v), pos=Pos.ADJ, head=head)
        for v, head in enumerate(["car", "car", "truck", "truck", None])
    ]
    records += [record("goose", Dimension.MASS, 4.0)] * 2
    partial = build(records, exact_cap=4)
    partial.write(tmp_path / "t.part")  # which folds the pending batch of "car" in
    expected = partial.finalize(1).serialize()
    assert spilled_lines(expected) == 2
    calls = counted_of(monkeypatch)
    final = partial.finalize(1)
    assert final.serialize() == expected and len(calls) == 2
    del calls[:]
    out = tmp_path / "t.table"
    assert main(["finalize", str(tmp_path / "t.part"), "--min-count", "1", "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected and len(calls) == 2
    assert all(isinstance(dist, Distribution) for dist in final.entries.values())


@settings(max_examples=100, deadline=None)
@given(_ORACLE_RECORDS, st.sampled_from([0, 1, 2, 16]))
def test_a_finalized_table_keeps_the_summary_that_a_read_builds(tagged, exact_cap):
    """A finalized table's ``get``, ``heads_for`` and ``entries`` answer with the reference's
    Distributions, whichever reads first, and every later read with the same objects."""
    records = [r for r, _ in tagged]
    reference = reference_table(records, BuildConfig(exact_cap=exact_cap, min_count=2, finalized=True))
    final = build(records, exact_cap=exact_cap).finalize(2)
    assert_answers_like(final, reference)  # get and heads_for read first
    for key in reference.entries:
        assert final.get(key) is final.get(key)
        assert all(d is final.get((*key[:3], h)) for h, d in final.heads_for(*key[:3]).items())
    assert final.entries == reference.entries
    assert all(dist is final.get(key) for key, dist in final.entries.items())
    fresh = build(records, exact_cap=exact_cap).finalize(2)
    assert fresh.entries == reference.entries  # entries reads first
    assert all(type(dist) is Distribution and dist is fresh.get(key) for key, dist in fresh.entries.items())
    assert final.serialize() == fresh.serialize() == reference.serialize()


def test_read_table_builds_every_entry_of_a_finalized_file_as_it_reads(tmp_path, monkeypatch):
    """``read_table`` calls ``Distribution.of`` for each kept line of a finalized file as it
    reads it, so its table holds a Distribution for every entry and a query builds none."""
    final = build(random_records(random.Random(3), 300), exact_cap=8).finalize(2)
    final.write(tmp_path / "t.table")
    text = final.serialize()
    calls = counted_of(monkeypatch)
    back = read_table(tmp_path / "t.table")
    kept = len(back) - spilled_lines(text)
    assert kept > 0 and spilled_lines(text) > 0 and len(calls) == kept
    for dimension, pos, surface, head in list(back.entries):
        assert isinstance(back.get((dimension, pos, surface, head)), Distribution)
        back.heads_for(dimension, pos, surface)
    assert all(type(dist) is Distribution for dist in back.entries.values())
    assert len(calls) == kept and back.serialize() == text


def overflow_record(records):
    """The index of the first record whose key's exact running sum rounds to an infinite
    float, or None: the reference for where observing ``records`` in order fails."""
    sums = {}
    for i, (dimension, pos, surface, head, value, _) in enumerate(records):
        key = (dimension, pos, surface, head)
        sums[key] = sums.get(key, 0) + Fraction(value)
        if abs(sums[key]) >= _OVERFLOW:
            return i
    return None


def assert_overflow_at_its_record(records, exact_cap):
    """Observing ``records`` fails at the reference's record, leaving the table as it was."""
    assert_overflow_at(QuantTable(BuildConfig(exact_cap=exact_cap)), records, overflow_record(records))


def assert_overflow_at(table, records, failing):
    """Observing ``records`` into ``table`` fails at index ``failing``, leaving it as it was."""
    for i, r in enumerate(records):
        if i == failing:
            before = table.serialize()
            with pytest.raises(OverflowError):
                table.observe(r)
            assert table.serialize() == before
            return
        table.observe(r)
    assert failing is None


_BIG_VALUES = st.sampled_from(
    [_TOP, -_TOP, 2.0**1000, -(2.0**1000), 1.9 * 2.0**959, -1.9 * 2.0**959, 1.0, -0.0, 5e-324]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["car", "truck"]), _BIG_VALUES), max_size=30),
    st.sampled_from([0, 1, 2, 16]),
)
def test_a_running_sum_overflows_at_the_record_of_a_fraction_reference(rows, exact_cap):
    records = [record(surface, Dimension.MASS, value) for surface, value in rows]
    assert_overflow_at_its_record(records, exact_cap)


def test_a_near_maximum_value_then_many_small_ones_overflow_at_their_record():
    """Values below 2**960 move a sum past the float range only once a key holds one at or
    above it: here the 1,078th value of 1.9 * 2**959 after the largest float."""
    small = 1.9 * 2.0**959
    records = [record("car", Dimension.MASS, _TOP)] + [record("car", Dimension.MASS, small)] * 1200
    assert overflow_record(records) == 1078
    for exact_cap in (0, 1, 2, 16, 4096):
        assert_overflow_at_its_record(records, exact_cap)
        # and so does a table that holds the largest float from a merge or from a file
        first = build(records[:1], exact_cap=exact_cap)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.part")
            first.write(path)
            for table in (first.merge(QuantTable(first.config)), read_table(path)):
                assert_overflow_at(table, records[1:], 1077)

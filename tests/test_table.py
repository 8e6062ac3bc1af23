"""Table tests: dual keys, monoid laws, thresholds, canonical bytes."""

import contextlib
import functools
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from quantdist.cli import main
from quantdist.distribution import Distribution
from quantdist.errors import ConfigMismatchError, TableFormatError
from quantdist.kernels import bucket_bounds
from quantdist.pipeline import CooccurrenceRecord, ObjectKey, Pos
from quantdist.table import BuildConfig, QuantTable, read_table
from quantdist.units import Dimension, Quantity


def record(surface, dim, value, pos=Pos.UNKNOWN, head=None):
    q = Quantity(dim, value)
    return CooccurrenceRecord(
        object=ObjectKey(surface, pos, head), quantity=q, token_distance=0
    )


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
    d = t.get(ObjectKey("elephant", Pos.UNKNOWN), Dimension.MASS)
    assert d is not None and d.count == 2


def test_observe_dual_key_for_heads():
    t = build([record("fast", Dimension.SPEED, 22.35, pos=Pos.ADJ, head="car")])
    with_head = t.get(ObjectKey("fast", Pos.ADJ, "car"), Dimension.SPEED)
    head_free = t.get(ObjectKey("fast", Pos.ADJ, None), Dimension.SPEED)
    assert with_head is not None and with_head.count == 1
    assert head_free is not None and head_free.count == 1


def test_headless_record_writes_single_key():
    t = build([record("car", Dimension.SPEED, 30.0)])
    assert len(t) == 1


def test_zero_value_lands_in_zero_bucket():
    t = build([record("thing", Dimension.MASS, 0.0)])
    d = t.get(ObjectKey("thing", Pos.UNKNOWN), Dimension.MASS)
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
    assert kept.get(ObjectKey("common", Pos.UNKNOWN), Dimension.MASS) is not None
    assert kept.get(ObjectKey("rare", Pos.UNKNOWN), Dimension.MASS) is None


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
    assert final.get(ObjectKey("car", Pos.NOUN), Dimension.SPEED) is not None
    assert final.get(ObjectKey("race car", Pos.NOUN, "car"), Dimension.SPEED) is None


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
    assert m.get(ObjectKey("car", Pos.UNKNOWN), Dimension.SPEED).count == 6


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
    with pytest.raises(TableFormatError, match=f"^{cut}: header promises \\d+ entries") as err:
        read_table(cut)
    assert (err.value.path, err.value.line_number) == (str(cut), None)


def test_bad_header_rejected(tmp_path, capsys):
    p = tmp_path / "bad.tsv"
    p.write_text("not json\n", encoding="utf-8")
    with pytest.raises(TableFormatError):
        read_table(p)
    p.write_text('{"format": "other/9", "entries": 0}\n', encoding="utf-8")
    with pytest.raises(TableFormatError):
        read_table(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(TableFormatError):
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
    ]
    bad_headers = ["[1]", "[" * 100_000 + "]" * 100_000]  # not a JSON object
    for field, value in bad_values:
        header = json.loads(header_line)
        header[field] = value
        bad_headers.append(json.dumps(header))
    for bad_header in bad_headers:
        p.write_text(bad_header + "\n" + entry + "\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match=f"{p}:1: bad header") as err:
            read_table(p)
        assert err.value.path == str(p)
        argv = ["query", "--table", str(p), "--object", "car", "--dim", "speed"]
        assert main(argv) == 2, bad_header
        err = capsys.readouterr().err
        assert str(p) in err and "Traceback" not in err


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
        except TableFormatError as exc:
            assert exc.path == path
        out = os.path.join(d, "final.tsv")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["finalize", path, "--min-count", "1", "-o", out]) in (0, 2)


def test_corrupt_entry_rejected(tmp_path, capsys):
    t = build([record("car", Dimension.SPEED, 5.0), record("car", Dimension.SPEED, 7.0)])
    path = tmp_path / "table.tsv"
    t.write(path)
    header, entry = path.read_text(encoding="utf-8").splitlines()
    cols = entry.split("\t")
    low, high = (int(pair.split(":")[0]) for pair in cols[8].split(" "))

    def with_column(i, text):
        return "\t".join(cols[:i] + [text] + cols[i + 1:])

    bad_entries = [
        (header, entry.rsplit("\t", 1)[0]),  # drop a column
        (header, with_column(0, "")),  # empty surface
        (header, with_column(7, "inf")),  # sum part
        (header, with_column(7, "1e308 1e308")),  # exact sum past the float range
        (header, with_column(5, "nan")),  # min
        (header, with_column(6, "-inf")),  # max
        (header, with_column(8, f"{low}:1 999:1")),  # bucket id out of range
        (header, with_column(8, f"-241:1 {high}:1")),
        (header, with_column(5, "7.5")),  # min above max
        (header, with_column(9, "5.0 8.0")),  # kept sample outside [min, max]
        (header, with_column(9, "6.0 7.0")),  # no kept sample at min
        (header, with_column(8, f"{low}:1 {low + 1}:0 {high}:1")),  # zero bucket count
        (header, with_column(8, f"{low}:2 {low + 1}:-1 {high}:1")),  # negative bucket count
        (header, with_column(8, f"{low}:1 {low}:1")),  # repeated bucket id
        (header, with_column(8, f"{low + 1}:1 {high}:1")),  # min outside the lowest bucket
        (header.replace('"exact_cap": 4096', '"exact_cap": 1'), entry),  # samples past the cap
        (header, with_column(9, "nan")),  # sample
    ]
    bad = tmp_path / "bad.tsv"
    for bad_header, bad_entry in bad_entries:
        bad.write_text(bad_header + "\n" + bad_entry + "\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match=f"{bad}:2: ") as err:
            read_table(bad)
        assert (err.value.path, err.value.line_number) == (str(bad), 2)
        for command in ("query", "plot-export"):
            argv = [command, "--table", str(bad), "--object", "car", "--dim", "speed"]
            assert main(argv) == 2, (command, bad_entry)
        assert "Traceback" not in capsys.readouterr().err


def test_heads_for():
    records = [
        record("fast", Dimension.SPEED, 30.0, pos=Pos.ADJ, head="car"),
        record("fast", Dimension.SPEED, 40.0, pos=Pos.ADJ, head="truck"),
        record("fast", Dimension.MASS, 1.0, pos=Pos.ADJ, head="car"),
        record("slow", Dimension.SPEED, 5.0, pos=Pos.ADJ, head="car"),
    ]
    t = build(records)
    heads = t.heads_for("fast", Pos.ADJ, Dimension.SPEED)
    assert set(heads) == {"car", "truck"}
    assert heads["car"].count == 1


def scanned_heads(table, surface, pos, dimension):
    """Reference for ``heads_for``: one pass over every entry."""
    return {
        h: dist
        for (s, p, h, d), dist in table.entries.items()
        if d is dimension and p is pos and s == surface and h is not None
    }


def assert_heads_match_scan(table):
    surfaces = {s for s, _, _, _ in table.entries} | {"absent"}
    for surface in surfaces:
        for pos in Pos:
            for dimension in (Dimension.MASS, Dimension.SPEED, Dimension.LENGTH):
                got = table.heads_for(surface, pos, dimension)
                want = scanned_heads(table, surface, pos, dimension)
                assert got == want, (surface, pos, dimension)
                assert all(got[head] is want[head] for head in want)


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
    assert_heads_match_scan(table)
    for pos in (Pos.ADJ, Pos.NOUN):
        heads = table.heads_for("fast", pos, Dimension.SPEED)
        heads.clear()  # callers get a copy
        heads["car"] = Distribution()
    assert_heads_match_scan(table)
    table.observe_all(later)  # new heads and surfaces after the index is built
    assert_heads_match_scan(table)
    other = build(later)
    other.heads_for("fast", Pos.ADJ, Dimension.SPEED)
    merged = table.merge(other)
    assert_heads_match_scan(merged)
    final = merged.finalize(2)
    assert_heads_match_scan(final)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tsv")
        final.write(path)
        assert_heads_match_scan(read_table(path))


def test_export_points_density():
    values = [1.0, 2.0, 5.0, 0.0, 30.0, 30.5]
    t = QuantTable(BuildConfig())
    for v in values:
        t.observe(record("car", Dimension.SPEED, v))
    dist = t.get(ObjectKey("car", Pos.UNKNOWN), Dimension.SPEED)
    points = dist.density_points()
    assert points == sorted(points)
    zero_mass = points[0][1]
    assert points[0][0] == 0.0 and zero_mass == pytest.approx(1 / 6)
    widths = [hi - lo for lo, hi in map(bucket_bounds, sorted(dist.buckets))]
    mass = zero_mass + sum(d * w for (_, d), w in zip(points[1:], widths[1:]))
    assert mass == pytest.approx(1.0)


def test_entry_distributions_are_real_distributions():
    t = build([record("car", Dimension.SPEED, v) for v in (1.0, 2.0, 3.0)])
    d = t.get(ObjectKey("car", Pos.UNKNOWN), Dimension.SPEED)
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
    whole = build([r for r, _ in tagged], exact_cap=3).serialize()
    shards = [
        build([r for r, shard in tagged if shard == i], exact_cap=3) for i in order
    ]
    snapshots = [shard.serialize() for shard in shards]
    pairwise = functools.reduce(lambda a, b: a.merge(b), shards)
    assert pairwise.serialize() == whole
    assert shards[0].merge(*shards[1:]).serialize() == whole
    assert [shard.serialize() for shard in shards] == snapshots  # inputs untouched
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

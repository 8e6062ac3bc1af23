"""Table tests: dual keys, monoid laws, thresholds, canonical bytes."""

import contextlib
import functools
import io
import json
import os
import random
import tempfile

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


def test_observe_dual_key_for_heads():
    t = build([record("fast", Dimension.SPEED, 22.35, pos=Pos.ADJ, head="car")])
    with_head = t.get(("SPEED", "ADJ", "fast", "car"))
    head_free = t.get(("SPEED", "ADJ", "fast", ""))
    assert with_head is not None and with_head.count == 1
    assert head_free is not None and head_free.count == 1


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


def scanned_heads(table, surface, pos, dimension):
    """Reference for ``heads_for``: one pass over every entry, keyed (dimension, POS, surface, head)."""
    return {
        h: dist
        for (d, p, s, h), dist in table.entries.items()
        if d == dimension.name and p == pos.name and s == surface and h
    }


def assert_heads_match_scan(table, headed=False):
    """``heads_for`` answers like a scan for every surface; with ``headed``, some answer is not empty."""
    surfaces = {s for _, _, s, _ in table.entries} | {"absent"}
    found = False
    for surface in surfaces:
        for pos in Pos:
            for dimension in (Dimension.MASS, Dimension.SPEED, Dimension.LENGTH):
                got = table.heads_for(dimension.name, pos.name, surface)
                want = scanned_heads(table, surface, pos, dimension)
                assert got == want, (surface, pos, dimension)
                assert all(got[head] is want[head] for head in want)
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
    ).write(path)
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

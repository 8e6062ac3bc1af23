"""End-to-end tests for the command-line front end."""

import dataclasses
import os
import random
import subprocess
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from quantdist.cli import _parse_record, _record_line, _stream_header, main
from quantdist.evaluation import detect_leakage, load_dataset
from quantdist.pipeline import (
    CooccurrenceRecord,
    ExtractionConfig,
    ObjectKey,
    Pos,
    read_annotated,
    read_plain,
)
from quantdist.table import BuildConfig, QuantTable, read_table
from quantdist.units import Dimension, Quantity, load_registry


@pytest.fixture()
def corpus(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text(
        "The car was driving 98 km/h.\n"
        "The car was driving 99.7 km/h.\n"
        "The car was driving 101 km/h.\n"
        "The elephant weighs 5000 kg.\n"
        "The elephant weighs 4800 kg.\n"
        "The cat weighs 4 kg.\n"
        "The cat weighs 3.5 kg.\n",
        encoding="utf-8",
    )
    return p


def build_table(tmp_path, corpus, min_count=1):
    records = tmp_path / "records.tsv"
    part = tmp_path / "part.tsv"
    table = tmp_path / "table.tsv"
    assert main(["extract", str(corpus), "-o", str(records)]) == 0
    assert main(["aggregate", str(records), "-o", str(part)]) == 0
    assert main(["finalize", str(part), "--min-count", str(min_count), "-o", str(table)]) == 0
    return table


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["extract"]) == 1  # missing inputs
    assert main(["query", "--table", "x"]) == 1  # missing --object/--dim
    assert main(["extract", "x.txt", "--no-such-flag"]) == 1
    assert main(["extract", "x.txt", "--distance", "7"]) == 1
    assert main(["query", "--table", "x", "--object", "a", "--dim", "warmth"]) == 1
    assert main(["split", "x.tsv", "--output-prefix", "y", "--ratios", "0.5,0.5"]) == 1
    assert main(["compare", "--table", "x", "--dim", "mass"]) == 1  # no pair
    err = capsys.readouterr().err
    assert "usage:" in err
    # an empty or all-blank object name is a usage error, not a lookup
    for name in ("", "  "):
        for argv in (
            ["query", "--table", "x", "--object", name, "--dim", "mass"],
            ["plot-export", "--table", "x", "--object", name, "--dim", "mass"],
            ["compare", "--table", "x", "--noun", name, "lion", "--dim", "mass"],
            ["compare", "--table", "x", "--adj", "big", name, "--dim", "mass"],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert "nonempty name" in err and "Traceback" not in err, argv


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["query", "--help"]) == 0
    capsys.readouterr()


def test_data_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("this is not a record stream\n", encoding="utf-8")
    assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
    assert main(["merge", str(tmp_path / "missing.tsv"), "-o", str(tmp_path / "o.tsv")]) == 2
    assert (
        main(["query", "--table", str(bad), "--object", "a", "--dim", "mass"]) == 2
    )
    err = capsys.readouterr().err
    assert "error:" in err
    header = "#quantrecords/1\tregistry=r\tdistance=sentence\tmin_phrase_count=5\n"
    for value in ("nan", "inf", "-inf"):
        bad.write_text(header + f"car\t\tNOUN\tMASS\t{value}\t0\n", encoding="utf-8")
        assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: " in err and "non-finite" in err
    bad.write_text(header + "\t\tNOUN\tMASS\t5.0\t0\n", encoding="utf-8")  # empty surface
    assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
    assert f"{bad}:2: " in capsys.readouterr().err
    bad_headers = (
        header.replace("=5", "=0"),
        header.replace("=sentence", "=0"),
        header.replace("\n", "\tmax_phrase_len=2\n"),  # a setting no stream pins
        header.replace("\n", "\tsentence\n"),  # a field with no "="
        header.replace("\n", "\tregistry=r\n"),  # a field given twice
        header.replace("\tmin_phrase_count=5", ""),  # a field missing
    )
    for bad_header in bad_headers:
        bad.write_text(bad_header + "car\t\tNOUN\tMASS\t5.0\t0\n", encoding="utf-8")
        assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2, bad_header
        assert f"{bad}:1: bad stream header" in capsys.readouterr().err
    # a token gap below 0, or at or past the pinned window, is no record extract writes
    near = header.replace("=sentence", "=3")
    for stream_header, gap in ((header, -3), (near, 7), (near, 3)):
        bad.write_text(
            stream_header + f"car\t\tNOUN\tMASS\t5.0\t2\ncar\t\tNOUN\tMASS\t5.0\t{gap}\n",
            encoding="utf-8",
        )
        assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2, gap
        err = capsys.readouterr().err
        assert f"{bad}:3: " in err and "token gap" in err
    # exact sums past the float range, within one stream and across two tables
    stream = tmp_path / "huge.tsv"
    stream.write_text(header + "car\t\tNOUN\tMASS\t1e308\t0\n" * 2, encoding="utf-8")
    assert main(["aggregate", str(stream), "-o", str(tmp_path / "t.tsv")]) == 2
    err = capsys.readouterr().err
    assert f"{stream}:3: " in err and "overflow" in err and "Traceback" not in err
    tables = []
    for name in ("a.tsv", "b.tsv"):
        stream.write_text(header + "car\t\tNOUN\tMASS\t1e308\t0\n", encoding="utf-8")
        tables.append(str(tmp_path / name))
        assert main(["aggregate", str(stream), "-o", tables[-1]]) == 0
    assert main(["merge", *tables, "-o", str(tmp_path / "m.tsv")]) == 2
    err = capsys.readouterr().err
    assert all(t in err for t in tables) and "overflow" in err and "Traceback" not in err


# names with spaces and non-ASCII characters, but no tab, line break or surrogate
_NAMES = st.text(
    st.sampled_from(" aé水") | st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
    ),
    min_size=1,
    max_size=12,
)
_RECORDS = st.builds(
    CooccurrenceRecord,
    st.builds(ObjectKey, _NAMES, st.sampled_from(Pos), st.none() | _NAMES),
    st.builds(
        Quantity,
        st.sampled_from(Dimension),
        # finite, with -0.0 and subnormals, and no sum of 30 past the float range
        st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from([-0.0, 5e-324]),
    ),
    st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_RECORDS, min_size=1, max_size=30))
def test_record_lines_round_trip(records):
    """A record reads back from its stream line, and aggregating the stream equals observing."""
    for record in records:
        line = _record_line(record)
        assert _parse_record(line) == record
        assert _record_line(_parse_record(line)) == line  # keeps the sign of -0.0
    with tempfile.TemporaryDirectory() as d:
        stream, part = os.path.join(d, "records.tsv"), os.path.join(d, "part.tsv")
        with open(stream, "w", encoding="utf-8") as fh:
            fh.write(_stream_header("r", None, 5) + "\n")
            fh.writelines(_record_line(record) + "\n" for record in records)
        assert main(["aggregate", stream, "--exact-cap", "4", "-o", part]) == 0
        with open(part, "rb") as fh:
            aggregated = fh.read()
    table = QuantTable(BuildConfig(registry_version="r", exact_cap=4))
    table.observe_all(records)
    assert aggregated == table.serialize().encode("utf-8")


def _with_bad_byte(data: bytes, line: int) -> bytes:
    """``data`` with a byte that is never UTF-8 at the start of its ``line``-th line."""
    lines = data.split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    return b"\n".join(lines)


def test_bytes_that_are_not_utf8_exit_2_at_their_line(tmp_path, corpus, capsys):
    """Every reader decodes one line at a time, so a bad byte is a data error at its line."""
    table = build_table(tmp_path, corpus)
    records = (tmp_path / "records.tsv").read_bytes()
    header, body = records.split(b"\n", 1)
    long_stream = header + b"\n" + body * 200  # past the first read-ahead chunk
    conll = b"0\tThe\tOTHER\t1\n1\tcar\tNOUN\t-\n\n" * 300
    pairs = b"car\tcat\tmass\t>\n" * 1000
    out = str(tmp_path / "out.tsv")
    bad = tmp_path / "bad.tsv"
    query = ["query", "--table", str(bad), "--object", "car", "--dim", "speed"]
    units = b"# units\nkg\tMASS\t1\t0\t0\n"
    cases = [
        (table.read_bytes(), 1, query),
        (table.read_bytes(), 3, query),
        (records, 1, ["aggregate", str(bad), "-o", out]),
        (long_stream, long_stream.count(b"\n") - 1, ["aggregate", str(bad), "-o", out]),
        (conll, 800, ["extract", "--annotated", str(bad), "-o", out]),
        (corpus.read_bytes() * 300, 2000, ["extract", str(bad), "-o", out]),
        (pairs, 900, ["eval", str(bad), "--table", str(table)]),
        (units, 2, ["extract", "--units", str(bad), str(corpus), "-o", out]),
        (b"USD\t1\nEUR\t1.1\n", 2, ["extract", "--rates", str(bad), str(corpus), "-o", out]),
    ]
    for data, line, argv in cases:
        bad.write_bytes(_with_bad_byte(data, line))
        assert main(argv) == 2, (argv, line)
        err = capsys.readouterr().err
        assert f"{bad}:{line}: " in err and "utf-8" in err and "Traceback" not in err, argv


def test_crlf_line_ends_read_like_lf(tmp_path, corpus):
    """Inputs with CRLF line ends give the same tables, answers and registry version."""
    table = build_table(tmp_path, corpus)
    crlf = tmp_path / "crlf.tsv"

    def as_crlf(path):
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        return crlf

    assert read_table(as_crlf(table)) == read_table(table)
    lf_out, crlf_out = tmp_path / "lf_out.tsv", tmp_path / "crlf_out.tsv"
    assert main(["aggregate", str(tmp_path / "records.tsv"), "-o", str(lf_out)]) == 0
    assert main(["aggregate", str(as_crlf(tmp_path / "records.tsv")), "-o", str(crlf_out)]) == 0
    assert lf_out.read_bytes() == crlf_out.read_bytes()
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("object1\tobject2\tdimension\tlabel\ncar\tcat\tmass\t>\n", "utf-8")
    assert load_dataset(as_crlf(pairs)) == load_dataset(pairs)
    conll = tmp_path / "annotated.tsv"
    conll.write_text("0\tThe\tOTHER\t1\n1\tcar\tNOUN\t-\n\n0\tIt\tOTHER\t-\n", "utf-8")
    assert list(read_annotated(as_crlf(conll))) == list(read_annotated(conll))
    # a plain corpus reads the same with CRLF or lone CR line ends
    for ends in (b"\r\n", b"\r"):
        crlf.write_bytes(corpus.read_bytes().replace(b"\n", ends))
        assert list(read_plain(crlf)) == list(read_plain(corpus))
    units = resources.files("quantdist.data").joinpath("units.tsv")
    crlf.write_bytes(units.read_bytes().replace(b"\n", b"\r\n"))
    assert load_registry(units_path=crlf).version == load_registry().version


def test_missing_object_exits_2(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    code = main(["query", "--table", str(table), "--object", "unicorn", "--dim", "mass"])
    assert code == 2
    assert "unicorn" in capsys.readouterr().err


# ---------------------------------------------------------------- extract


def test_extract_stream_shape(tmp_path, corpus, capsys):
    assert main(["extract", str(corpus)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("#quantrecords/1\t")
    assert "distance=sentence" in lines[0]
    body = [ln.split("\t") for ln in lines[1:]]
    assert all(len(cols) == 6 for cols in body)
    surfaces = {cols[0] for cols in body}
    assert {"car", "elephant", "cat"} <= surfaces
    dims = {cols[3] for cols in body}
    assert dims == {"SPEED", "MASS"}


def test_extract_distance_flag(tmp_path, corpus, capsys):
    assert main(["extract", str(corpus), "--distance", "3"]) == 0
    head = capsys.readouterr().out.split("\n", 1)[0]
    assert "distance=3" in head


def test_extract_annotated(tmp_path, capsys):
    conll = tmp_path / "annotated.tsv"
    conll.write_text(
        "0\tThe\tOTHER\t1\n"
        "1\tcar\tNOUN\t3\n"
        "2\twas\tOTHER\t3\n"
        "3\tdoing\tVERB\t-\n"
        "4\t70\tOTHER\t-\n"
        "5\tmph\tOTHER\t-\n",
        encoding="utf-8",
    )
    assert main(["extract", str(conll), "--annotated"]) == 0
    out = capsys.readouterr().out
    assert "car\tdoing\tNOUN\tSPEED" in out


# ---------------------------------------------------- aggregate and merge


def test_pipeline_composability_bytes(tmp_path):
    rng = random.Random(13)
    objects = ["truck", "boat", "bike", "kettle", "spoon"]
    lines = [
        f"The {rng.choice(objects)} weighs {rng.randint(1, 5000)} kg."
        for _ in range(90)
    ]

    whole = tmp_path / "whole.txt"
    whole.write_text("\n".join(lines) + "\n", encoding="utf-8")
    single_records = tmp_path / "single.records"
    single_part = tmp_path / "single.part"
    single_table = tmp_path / "single.table"
    assert main(["extract", str(whole), "-o", str(single_records)]) == 0
    assert main(["aggregate", str(single_records), "-o", str(single_part)]) == 0
    assert main(["finalize", str(single_part), "--min-count", "1", "-o", str(single_table)]) == 0

    shard_parts = []
    for i in range(3):
        shard = tmp_path / f"shard{i}.txt"
        shard.write_text("\n".join(lines[i::3]) + "\n", encoding="utf-8")
        rec = tmp_path / f"shard{i}.records"
        part = tmp_path / f"shard{i}.part"
        assert main(["extract", str(shard), "-o", str(rec)]) == 0
        assert main(["aggregate", str(rec), "-o", str(part)]) == 0
        shard_parts.append(str(part))
    merged_part = tmp_path / "merged.part"
    merged_table = tmp_path / "merged.table"
    assert main(["merge", *shard_parts, "-o", str(merged_part)]) == 0
    assert main(["finalize", str(merged_part), "--min-count", "1", "-o", str(merged_table)]) == 0
    assert merged_table.read_bytes() == single_table.read_bytes()

    # finalizing shards first and merging after gives the same bytes too
    final_shards = []
    for i, part in enumerate(shard_parts):
        out = tmp_path / f"shard{i}.table"
        assert main(["finalize", part, "--min-count", "1", "-o", str(out)]) == 0
        final_shards.append(str(out))
    late_merge = tmp_path / "late.table"
    assert main(["merge", *final_shards, "-o", str(late_merge)]) == 0
    assert late_merge.read_bytes() == single_table.read_bytes()


def test_aggregate_multiple_streams_equals_merge(tmp_path, corpus):
    rec = tmp_path / "r.tsv"
    assert main(["extract", str(corpus), "-o", str(rec)]) == 0
    both = tmp_path / "both.tsv"
    assert main(["aggregate", str(rec), str(rec), "-o", str(both)]) == 0
    one = tmp_path / "one.tsv"
    assert main(["aggregate", str(rec), "-o", str(one)]) == 0
    merged = tmp_path / "merged.tsv"
    assert main(["merge", str(one), str(one), "-o", str(merged)]) == 0
    assert both.read_bytes() == merged.read_bytes()


def test_aggregate_rejects_mixed_headers(tmp_path, corpus, capsys):
    r1 = tmp_path / "r1.tsv"
    r2 = tmp_path / "r2.tsv"
    assert main(["extract", str(corpus), "-o", str(r1)]) == 0
    assert main(["extract", str(corpus), "--distance", "3", "-o", str(r2)]) == 0
    code = main(["aggregate", str(r1), str(r2), "-o", str(tmp_path / "out.tsv")])
    assert code == 2
    assert "configuration" in capsys.readouterr().err


def test_every_build_setting_is_pinned(tmp_path, corpus, capsys):
    """A new setting fails here until a header records it, or it becomes a constant."""
    config = BuildConfig(
        registry_version="lexicon-b",
        distance=3,
        min_phrase_count=2,
        exact_cap=7,
        min_count=4,
        finalized=True,
    )
    for field in dataclasses.fields(BuildConfig):
        assert getattr(config, field.name) != field.default, field.name
    path = tmp_path / "t.tsv"
    QuantTable(config).write(path)
    assert read_table(path).config == config
    # each ExtractionConfig field: (extract flag, value, stream header field)
    stream_fields = {"max_distance": ("--distance", "3", "distance=3")}
    assert {f.name for f in dataclasses.fields(ExtractionConfig)} == set(stream_fields)
    argv = ["extract", str(corpus)]
    for flag, value, _ in stream_fields.values():
        argv += [flag, value]
    assert main(argv) == 0
    header = capsys.readouterr().out.split("\n", 1)[0].split("\t")
    assert all(pinned in header for _, _, pinned in stream_fields.values())
    assert main(["extract", str(corpus), "--max-phrase-len", "2"]) == 1
    capsys.readouterr()


# ------------------------------------------------------------------ query


def test_query_planted_median_and_range(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    code = main(
        ["query", "--table", str(table), "--object", "car", "--dim", "speed", "--unit", "km/h"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "median: 99.7 km/h" in out
    assert "range: 10-100 km/h" in out
    assert "count: 3" in out


def test_query_records_format(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    code = main(
        [
            "query",
            "--table",
            str(table),
            "--object",
            "cat",
            "--dim",
            "mass",
            "--format",
            "records",
        ]
    )
    assert code == 0
    rows = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().split("\n")
    )
    assert rows["count"] == "2"
    assert float(rows["median"]) == pytest.approx((3.5 * 4.0) ** 0.5)
    assert float(rows["range_low"]) == 1.0
    assert float(rows["range_high"]) == 10.0
    assert rows["unit"] == "kilogram"


def test_query_unknown_unit_exits_2(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    code = main(
        ["query", "--table", str(table), "--object", "car", "--dim", "speed", "--unit", "zorps"]
    )
    assert code == 2
    assert "zorps" in capsys.readouterr().err


def test_query_wrong_dimension_unit_exits_2(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    code = main(
        ["query", "--table", str(table), "--object", "car", "--dim", "speed", "--unit", "kg"]
    )
    assert code == 2
    capsys.readouterr()


def test_finalize_threshold_drops_rare_objects(tmp_path, corpus, capsys):
    # every mass object in the fixture appears twice, so it survives
    table = build_table(tmp_path, corpus, min_count=2)
    assert main(["query", "--table", str(table), "--object", "cat", "--dim", "mass"]) == 0
    capsys.readouterr()
    single = tmp_path / "single_line.txt"
    single.write_text("The anvil weighs 100 kg.\n", encoding="utf-8")
    sub = tmp_path / "t2"
    sub.mkdir()
    table2 = build_table(sub, single, min_count=2)
    assert main(["query", "--table", str(table2), "--object", "anvil", "--dim", "mass"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- compare


def test_compare_nouns_symbol(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    assert main(["compare", "--table", str(table), "--noun", "elephant", "cat", "--dim", "mass"]) == 0
    assert capsys.readouterr().out.strip() == ">"
    assert main(["compare", "--table", str(table), "--noun", "cat", "elephant", "--dim", "mass"]) == 0
    assert capsys.readouterr().out.strip() == "<"


def test_compare_adjectives_via_annotated_corpus(tmp_path, capsys):
    conll = tmp_path / "adj.tsv"
    blocks = []
    for adj, noun, value in [
        ("fast", "car", 120),
        ("slow", "car", 30),
        ("fast", "train", 200),
        ("slow", "train", 80),
    ]:
        blocks.append(
            f"0\tThe\tOTHER\t2\n"
            f"1\t{adj}\tADJ\t2\n"
            f"2\t{noun}\tNOUN\t3\n"
            f"3\treached\tVERB\t-\n"
            f"4\t{value}\tOTHER\t-\n"
            f"5\tmph\tOTHER\t-\n"
        )
    conll.write_text("\n".join(blocks), encoding="utf-8")
    rec = tmp_path / "r.tsv"
    part = tmp_path / "p.tsv"
    table = tmp_path / "t.tsv"
    assert main(["extract", str(conll), "--annotated", "-o", str(rec)]) == 0
    assert main(["aggregate", str(rec), "-o", str(part)]) == 0
    assert main(["finalize", str(part), "--min-count", "1", "-o", str(table)]) == 0
    assert main(["compare", "--table", str(table), "--adj", "fast", "slow", "--dim", "speed"]) == 0
    assert capsys.readouterr().out.strip() == ">"
    code = main(["compare", "--table", str(table), "--adj", "fast", "shiny", "--dim", "speed"])
    assert code == 2
    assert "shiny" in capsys.readouterr().err


# ----------------------------------------------------- eval, audit, split


def _dataset(path, rows):
    path.write_text(
        "object1\tobject2\tdimension\tlabel\n"
        + "".join(f"{a}\t{b}\t{s}\t{l}\n" for a, b, s, l in rows),
        encoding="utf-8",
    )
    return path


def test_eval_cli(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    data = _dataset(
        tmp_path / "pairs.tsv",
        [
            ("elephant", "cat", "weight", ">"),
            ("cat", "elephant", "weight", "<"),
            ("sound", "light", "speed", "NA"),
        ],
    )
    assert main(["eval", str(data), "--table", str(table)]) == 0
    out = capsys.readouterr().out
    assert "scored: 2" in out
    assert "accuracy: 1.000" in out
    assert main(["eval", str(data), "--table", str(table), "--format", "records"]) == 0
    rows = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().split("\n")
    )
    assert rows["accuracy"] == "1.0"
    assert rows["accuracy.weight"] == "1.0"


def test_audit_cli(tmp_path, capsys):
    train = _dataset(
        tmp_path / "train.tsv",
        [("person", "fox", "size", ">"), ("fox", "goose", "size", ">")],
    )
    dev = _dataset(tmp_path / "dev.tsv", [("person", "goose", "size", ">")])
    assert main(["audit", str(train), str(dev)]) == 0
    out = capsys.readouterr().out
    assert "transitive flags: 1 (100.0%)" in out
    assert "clean: no" in out
    assert main(["audit", str(train), str(dev), "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert "transitive\t0" in out
    assert "object\t0" in out


def test_split_cli_roundtrip(tmp_path, capsys):
    rng = random.Random(5)
    rows = []
    for c in range(9):
        members = [f"c{c}x", f"c{c}y", f"c{c}z"]
        for i in range(3):
            for j in range(i + 1, 3):
                rows.append((members[i], members[j], "size", rng.choice("<>")))
    data = _dataset(tmp_path / "all.tsv", rows)
    prefix = tmp_path / "out"
    assert main(["split", str(data), "--output-prefix", str(prefix), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "train:" in out and "dev:" in out and "test:" in out
    train = load_dataset(f"{prefix}.train.tsv")
    dev = load_dataset(f"{prefix}.dev.tsv")
    test = load_dataset(f"{prefix}.test.tsv")
    assert len(train) + len(dev) + len(test) == len(rows)
    assert detect_leakage(train, dev).clean
    assert detect_leakage(train, test).clean


def test_split_single_component_exits_2(tmp_path, capsys):
    data = _dataset(
        tmp_path / "one.tsv",
        [("a", "b", "size", "<"), ("b", "c", "size", "<")],
    )
    code = main(["split", str(data), "--output-prefix", str(tmp_path / "o")])
    assert code == 2
    assert "component" in capsys.readouterr().err


# ------------------------------------------------------------ plot-export


def test_plot_export_density(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    assert main(["plot-export", "--table", str(table), "--object", "car", "--dim", "speed"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "#bucket_center\tdensity"
    pairs = [tuple(float(v) for v in ln.split("\t")) for ln in lines[1:]]
    assert pairs and all(d > 0 for _, d in pairs)
    centers = [c for c, _ in pairs]
    assert centers == sorted(centers)
    code = main(["plot-export", "--table", str(table), "--object", "ghost", "--dim", "speed"])
    assert code == 2
    capsys.readouterr()


# -------------------------------------------------------------- installed


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quantdist.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "quantdist" in proc.stdout

"""End-to-end tests for the command-line front end."""

import random
import subprocess
import sys

import pytest

from quantdist.cli import main
from quantdist.evaluation import detect_leakage, load_dataset
from quantdist.table import read_table


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

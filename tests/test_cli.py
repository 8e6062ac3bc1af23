"""End-to-end tests for the command-line front end."""

import dataclasses
import gc
import hashlib
import inspect
import itertools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from quantdist import inference, kinds
from quantdist.cli import _build_parser, main
from quantdist.distribution import DEFAULT_EXACT_CAP
from quantdist.errors import LocatedInputError
from quantdist.evaluation import detect_leakage, evaluate, load_dataset
from quantdist.inference import TAU, compare_adjectives, compare_nouns, query_distribution
from quantdist.kernels import bucket_index
from quantdist.pipeline import (
    ExtractionConfig,
    Pos,
    read_annotated,
    read_plain,
)
from quantdist.table import (
    BuildConfig,
    QuantTable,
    read_table,
    record_line,
    stream_header,
)
from quantdist.units import Dimension, load_registry


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


_STREAM_HEADER = (
    '{"distance": null, "format": "quantrecords/2", "min_phrase_count": 5, "registry": "r"}\n'
)


def build_table(tmp_path, corpus, min_count=1, exact_cap=4096):
    records = tmp_path / "records.tsv"
    part = tmp_path / "part.tsv"
    table = tmp_path / "table.tsv"
    assert main(["extract", str(corpus), "-o", str(records)]) == 0
    assert main(["aggregate", str(records), "--exact-cap", str(exact_cap), "-o", str(part)]) == 0
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
    assert "usage:" in capsys.readouterr().err
    # a rejected --ratios or --tau names the library's reason
    for ratios in ("0.5,0.5", "nan,0.5,0.5", "nan,nan,nan", "0.9,0.2,-0.1"):
        assert main(["split", "x.tsv", "--output-prefix", "y", "--ratios", ratios]) == 1, ratios
        err = capsys.readouterr().err
        assert "--ratios: ratios must be three non-negative numbers summing to 1" in err, ratios
    assert main(["split", "x.tsv", "--output-prefix", "y", "--ratios", "a,b,c"]) == 1
    assert "--ratios: could not convert string to float: 'a'" in capsys.readouterr().err
    assert main(["compare", "--table", "x", "--dim", "mass"]) == 1  # no pair
    capsys.readouterr()
    for command in (["compare", "--table", "x", "--noun", "cat", "dog", "--dim", "mass"],
                    ["eval", "d.tsv", "--table", "x"]):
        for tau in ("0.9", "nan"):
            assert main([*command, "--tau", tau]) == 1, (command[0], tau)
            err = capsys.readouterr().err
            assert "usage:" in err and "argument --tau: tau must be >= 1" in err, (command[0], tau)
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


def test_compare_and_eval_take_no_min_count(tmp_path, corpus, capsys):
    """Count thresholds are the table's, set by ``finalize``; no query takes its own."""
    table = str(build_table(tmp_path, corpus))
    data = _dataset(tmp_path / "pairs.tsv", [("elephant", "cat", "weight", ">")])
    for argv in (
        ["compare", "--table", table, "--noun", "elephant", "cat", "--dim", "mass"],
        ["eval", str(data), "--table", table],
    ):
        assert main(argv) == 0, argv
        assert main([*argv, "--min-count", "2"]) == 1, argv
        assert "unrecognized arguments: --min-count 2" in capsys.readouterr().err


def test_flag_defaults_are_the_library_defaults():
    """Each CLI default reads the one definition that the library uses."""
    parser = _build_parser()
    table = ["--table", "t.tsv"]
    extract = parser.parse_args(["extract", "c.txt"])
    assert extract.min_phrase_count == BuildConfig().min_phrase_count
    assert parser.parse_args(["aggregate", "r.tsv", "-o", "p.tsv"]).exact_cap == DEFAULT_EXACT_CAP
    compare = parser.parse_args(["compare", *table, "--noun", "a", "b", "--dim", "mass"])
    assert compare.tau == parser.parse_args(["eval", "d.tsv", *table]).tau == TAU
    assert kinds.TAU is inference.TAU  # the one definition, which inference re-exports
    for function in (compare_nouns, compare_adjectives, evaluate):
        assert inspect.signature(function).parameters["tau"].default == TAU


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["query", "--help"]) == 0
    capsys.readouterr()
    # compare and eval print their --tau default
    for command in ("compare", "eval"):
        assert main([command, "--help"]) == 0
        assert f"{TAU}" in capsys.readouterr().out.partition("--tau TAU")[2], command


def test_data_errors_exit_2(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.tsv"
    # a lexicon without the hour-of-day unit clocks need fails at load, before any output
    bad.write_text("kg\tMASS\t1\t0\t0\n", encoding="utf-8")
    out = tmp_path / "records.tsv"
    assert main(["extract", "--units", str(bad), str(corpus), "-o", str(out)]) == 2
    assert f"error: {bad}: lexicon has no 'hour of day'" in capsys.readouterr().err
    assert not out.exists()
    bad.write_text("this is not a record stream\n", encoding="utf-8")
    assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
    assert main(["merge", str(tmp_path / "missing.tsv"), "-o", str(tmp_path / "o.tsv")]) == 2
    assert (
        main(["query", "--table", str(bad), "--object", "a", "--dim", "mass"]) == 2
    )
    err = capsys.readouterr().err
    assert "error:" in err
    header = _STREAM_HEADER
    for value in ("nan", "inf", "-inf"):
        bad.write_text(header + f"car\t\tNOUN\tMASS\t{value}\t0\n", encoding="utf-8")
        assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: " in err and "non-finite" in err
    bad.write_text(header + "\t\tNOUN\tMASS\t5.0\t0\n", encoding="utf-8")  # empty surface
    assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
    assert f"{bad}:2: " in capsys.readouterr().err
    # the key columns are checked before the value
    bad.write_text(header + "car\t\tNOUN\tWARMTH\tnan\t0\n", encoding="utf-8")
    assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: unknown tag 'WARMTH'" in err and "non-finite" not in err, err
    # an error in a later stream names that stream and its own line
    good = tmp_path / "good.tsv"
    good.write_text(header + "car\t\tNOUN\tMASS\t5.0\t0\n" * 3, encoding="utf-8")
    bad.write_text(header + "car\t\tNOUN\tMASS\t5.0\t0\ncar\t\tNOUN\tMASS\t5.0\n", encoding="utf-8")
    assert main(["aggregate", str(good), str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}:3: expected 6 columns, got 5" in err and str(good) not in err, err
    bad_headers = (
        (header.replace(": 5", ": 0"), "min_phrase_count must be >= 1"),
        (header.replace("null", "0"), "distance"),
        (header.replace("}", ', "max_phrase_len": 2}'), "unknown keys ['max_phrase_len']"),
        (header.replace("}", ""), "Expecting"),  # not JSON
        (header.replace("}", ', "registry": "s"}'), "repeated key 'registry'"),
        (header.replace(', "min_phrase_count": 5', ""), "missing 'min_phrase_count'"),
        (header.replace("/2", "/1"), "unsupported format 'quantrecords/1'"),
        # the tab-separated header that format 1 wrote
        ("#quantrecords/1\tregistry=r\tdistance=sentence\tmin_phrase_count=5\n", "Expecting"),
    )
    for bad_header, message in bad_headers:
        bad.write_text(bad_header + "car\t\tNOUN\tMASS\t5.0\t0\n", encoding="utf-8")
        assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2, bad_header
        err = capsys.readouterr().err
        assert f"error: {bad}:1: bad stream header (" in err and message in err, err
        assert err.rstrip().endswith("; re-run extract"), err
    bad.write_bytes(b"")  # an empty stream has no line to name, as an empty table has none
    assert main(["aggregate", str(bad), "-o", str(tmp_path / "t.tsv")]) == 2
    assert f"error: {bad}: missing header\n" in capsys.readouterr().err
    # a token gap below 0, or at or past the pinned window, is no record extract writes
    near = header.replace("null", "3")
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
_RECORDS = st.tuples(
    st.sampled_from([dimension.name for dimension in Dimension]),
    st.sampled_from([pos.name for pos in Pos]),
    _NAMES,
    st.just("") | _NAMES,
    # finite, with -0.0 and subnormals, and no sum of 30 past the float range
    st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from([-0.0, 5e-324]),
    st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_RECORDS, min_size=1, max_size=30), st.data())
def test_record_lines_round_trip(records, data):
    """Aggregating record lines, split over two streams at any index, equals observing.

    Kept samples are written with ``repr``, so the sign of -0.0 is checked too.
    """
    split = data.draw(st.integers(min_value=0, max_value=len(records)))
    with tempfile.TemporaryDirectory() as d:
        streams = [os.path.join(d, name) for name in ("a.tsv", "b.tsv")]
        for stream, chunk in zip(streams, (records[:split], records[split:])):
            with open(stream, "w", encoding="utf-8") as fh:
                fh.write(stream_header(BuildConfig(registry_version="r")) + "\n")
                fh.writelines(record_line(record) + "\n" for record in chunk)
        part = os.path.join(d, "part.tsv")
        assert main(["aggregate", *streams, "--exact-cap", "4", "-o", part]) == 0
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


_FUZZ_PLAIN = (
    b"The car was driving 98 km/h. The fee was 7430 euros, or 5 million dollars.\n"
    b"The elephant weighs 5000 kg and the cat weighs 4 kg. The train leaves at 7:30 pm.\n"
    b"Gusts of 50-60 mph hit the 300 m tower. The oven reached 110 \xc2\xb0F. It cost \xc2\xa35.\n"
)
_FUZZ_ANNOTATED = (
    b"0\tThe\tOTHER\t2\n1\tfast\tADJ\t2\n2\tcar\tNOUN\t3\n3\tdrove\tVERB\t-\n"
    b"4\t50\tOTHER\t3\n5\tmph\tOTHER\t4\n\n"
    b"0\tThe\tOTHER\t1\n1\tcat\tNOUN\t2\n2\tweighs\tVERB\t-\n3\t4\tOTHER\t2\n4\tkg\tOTHER\t3\n"
)
_FUZZ_PAIRS = b"object1\tobject2\tdimension\tlabel\ncar\tcat\tspeed\t>\ncat\telephant\tweight\t<\n"
# what a number or a field may become: not a number, infinite, past the float range, empty
_EDGE_VALUES = (b"nan", b"inf", b"1e400", b"9" * 400, b"")


def _mutant(rng: random.Random, data: bytes, donors: list) -> bytes:
    """``data`` with one mutation: a flipped bit, a line deleted, duplicated, swapped or
    spliced in from another format, a truncation, or a number or field made an edge value."""
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    kind = rng.randrange(7)
    if kind == 0:
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    if kind == 1:
        return data[: rng.randrange(len(data))]
    if kind == 2:
        del lines[i]
    elif kind == 3:
        lines.insert(i, lines[i])
    elif kind == 4:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 5:
        lines.insert(i, rng.choice(rng.choice(donors).split(b"\n")))
    else:
        spans = [m.span() for m in re.finditer(rng.choice([rb"\d[\d.]*", rb"[^\t]+"]), lines[i])]
        if spans:
            start, end = rng.choice(spans)
            lines[i] = lines[i][:start] + rng.choice(_EDGE_VALUES) + lines[i][end:]
    return b"\n".join(lines)


def _first_changed_line(data: bytes, valid: bytes) -> float:
    """The number of the first line where ``data`` differs from ``valid``; inf if none does."""
    pairs = itertools.zip_longest(data.split(b"\n"), valid.split(b"\n"))
    return next((i for i, (a, b) in enumerate(pairs, 1) if a != b), math.inf)


def _cites_no_earlier_line(err: str, path: str, first: float) -> bool:
    """Whether ``err`` locates its error in ``path`` at line ``first`` or later, or names
    ``path`` alone for an error of the whole file: an empty table or record stream, a
    table's entry count broken, a merge of it failing or no entry for the queried key,
    a dataset with no leakage-free split, a lexicon with no ``hour of day`` unit, or a
    rates file that lost a currency (found at the lexicon line that names it)."""
    located = re.search(re.escape(path) + r":(\d+): ", err)
    if located:
        return int(located.group(1)) >= first
    whole_file = (
        f"{path}: missing header",
        f"{path}: header promises",
        f"merging {path}, ",
        f"{path}: no entry for ",
        f"{path}: object graph is a single connected component",
        f"{path}: lexicon has no 'hour of day' TIME unit",
    )
    lost_rate = re.search(r"units\.tsv:\d+: no rate for currency '[^']*' in " + re.escape(path), err)
    return lost_rate is not None or any(text in err for text in whole_file)


def _contents(path):
    """The bytes of the file at ``path``, or None if there is none."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    """Every reader, fed mutants of a valid input, exits 0, 1 or 2 and names the file on 2.

    A mutated table, record stream, dataset, corpus, lexicon or rates file is an error no
    earlier than the mutant's first changed line, or one of the whole file. A head index is
    checked as its sentence closes, at the sentence's last line: that may be the line just
    above a change.
    An exit 2 leaves the ``-o`` file as it was.
    """
    plain = tmp_path / "plain.txt"
    plain.write_bytes(_FUZZ_PLAIN)
    table = build_table(tmp_path, plain, exact_cap=1)  # both entry shapes: samples and spilled
    assert {len(line.split(b"\t")) for line in table.read_bytes().splitlines()[1:]} == {5, 9}
    data = resources.files("quantdist.data")
    valid = {
        "table": table.read_bytes(),
        "stream": (tmp_path / "records.tsv").read_bytes(),
        "annotated": _FUZZ_ANNOTATED,
        "plain": _FUZZ_PLAIN,
        "dataset": _FUZZ_PAIRS,
        "units": data.joinpath("units.tsv").read_bytes(),
        "rates": data.joinpath("currency.tsv").read_bytes(),
    }
    mutant, out = tmp_path / "mutant", str(tmp_path / "out.tsv")
    commands = {
        "table": (
            ["merge", str(mutant), str(table), "-o", out],
            ["finalize", str(mutant), "--min-count", "2", "-o", out],
            ["query", "--table", str(mutant), "--object", "car", "--dim", "speed"],
            ["compare", "--table", str(mutant), "--noun", "elephant", "cat", "--dim", "mass"],
            ["plot-export", "--table", str(mutant), "--object", "car", "--dim", "speed"],
        ),
        "stream": (["aggregate", str(mutant), "-o", out],),
        "annotated": (["extract", "--annotated", str(mutant), "-o", out],),
        "plain": (["extract", str(mutant), "-o", out],),
        "dataset": (
            ["eval", str(mutant), "--table", str(table)],
            ["audit", str(mutant), str(mutant)],
            ["split", str(mutant), "--output-prefix", str(tmp_path / "split")],
        ),
        "units": (["extract", "--units", str(mutant), str(plain), "-o", out],),
        "rates": (["extract", "--rates", str(mutant), str(plain), "-o", out],),
    }
    rng = random.Random(9)
    for name, argvs in commands.items():
        donors = [other for key, other in valid.items() if key != name]
        for k in range(60):
            mutated = _mutant(rng, valid[name], donors)
            mutant.write_bytes(mutated)
            for argv in argvs:
                before = _contents(out)
                try:
                    code = main(argv)
                except Exception as exc:
                    pytest.fail(f"mutant {k} of the {name} input, {argv[0]}: {exc!r}")
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (name, k, argv[0])
                if code != 2:
                    continue
                assert str(mutant) in err, (name, k, argv[0], err)
                assert _contents(out) == before, (name, k, argv[0])
                first = _first_changed_line(mutated, valid[name])
                if re.search(r"head index \S+ invalid", err):
                    first -= 1
                assert _cites_no_earlier_line(err, str(mutant), first), (k, argv[0], err)


def test_table_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """The CLI chain, through a two-shard merge, writes the same table under any string hash.

    The table holds both entry shapes.
    """
    shards = []
    for i, text in enumerate(_FUZZ_PLAIN.split(b"\n", 1)):
        shards.append(tmp_path / f"plain{i}.txt")
        shards[-1].write_bytes(text + b"\n")
    tables = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        records, parts = (
            [str(tmp_path / f"{name}{i}.{seed}") for i in range(2)] for name in ("records", "part")
        )
        merged, final = (str(tmp_path / f"{name}.{seed}") for name in ("merged", "table"))
        for argv in (
            *(["extract", str(shard), "-o", out] for shard, out in zip(shards, records)),
            *(["aggregate", r, "--exact-cap", "1", "-o", part] for r, part in zip(records, parts)),
            ["merge", *parts, "-o", merged],
            ["finalize", merged, "--min-count", "1", "-o", final],
        ):
            subprocess.run([sys.executable, "-m", "quantdist.cli", *argv], env=env, check=True)
        with open(final, "rb") as fh:
            tables.append(fh.read())
    assert {len(line.split(b"\t")) for line in tables[0].splitlines()[1:]} == {5, 9}
    assert tables[0] == tables[1]


_ORACLE_PLAIN = (
    "The car was driving 98 km/h on a road 300 m from the tower.\n"
    "The car was driving 101 km/h. The fee was 7430 euros, or 5 million dollars.\n"
    "The elephant weighs 5000 kg and the cat weighs 4 kg. It cost £5.\n"
    "The elephant weighs 4800 kg. The train leaves at 7:30 pm.\n"
)
_ORACLE_ANNOTATED = (
    "0\tThe\tOTHER\t2\n1\tfast\tADJ\t2\n2\tcar\tNOUN\t3\n3\tdrove\tVERB\t-\n"
    "4\t50\tOTHER\t3\n5\tmph\tOTHER\t4\n\n"
    "0\tThe\tOTHER\t2\n1\tfast\tADJ\t2\n2\ttruck\tNOUN\t3\n3\tdrove\tVERB\t-\n"
    "4\t40\tOTHER\t3\n5\tmph\tOTHER\t4\n\n"
    "0\tThe\tOTHER\t1\n1\tcat\tNOUN\t2\n2\tweighs\tVERB\t-\n3\t4\tOTHER\t2\n4\tkg\tOTHER\t3\n"
)
# sha256 of the record stream of the plain text, its partial table, and the final table
_ORACLE_DIGESTS = {
    "plain.rec": "85615affddf447bae7078b2acaedec53e8157946e2419d1f8cfb07c67ee0338e",
    "plain.part": "a55f49643dd0be479f55f0bafeeff69656d285bd0eaeec9b810efe59c5b4ae7e",
    "final.table": "925b99d6f00964930092ada1b903b2268b4e5e25c072dfd3b701ccc444f43f66",
}


def test_cli_chain_bytes_are_pinned(tmp_path):
    """The CLI chain writes the same bytes as when these digests were pinned.

    The other byte tests compare two builds with each other; this one compares
    with fixed digests, so a change that alters every table alike (a float
    format, a sort key) fails here. A change of the file formats on purpose
    updates the digests.
    """
    (tmp_path / "plain.txt").write_text(_ORACLE_PLAIN, encoding="utf-8")
    (tmp_path / "annotated.conll").write_text(_ORACLE_ANNOTATED, encoding="utf-8")

    def path(name):
        return str(tmp_path / name)

    for argv in (
        ["extract", path("plain.txt"), "--distance", "3", "-o", path("plain.rec")],
        ["extract", "--annotated", path("annotated.conll"), "--distance", "3",
         "-o", path("annotated.rec")],
        ["aggregate", path("plain.rec"), "--exact-cap", "1", "-o", path("plain.part")],
        ["aggregate", path("annotated.rec"), "--exact-cap", "1", "-o", path("annotated.part")],
        ["merge", path("plain.part"), path("annotated.part"), "-o", path("merged.table")],
        ["finalize", path("merged.table"), "--min-count", "1", "-o", path("final.table")],
    ):
        assert main(argv) == 0, argv
    final = (tmp_path / "final.table").read_bytes()
    assert {len(line.split(b"\t")) for line in final.splitlines()[1:]} == {5, 9}
    assert b"\tCURRENCY\t" in final and b"\tcar\tADJ\tSPEED\t" in final
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _ORACLE_DIGESTS
    }
    assert digests == _ORACLE_DIGESTS


# noun runs of 3, 5 (ending its sentence) and 2 nouns, and one of 4 holding a mention;
# ADJ and VERB tokens with heads; heads written "-", "_" and " 5 "; lowercase and padded
# tags; a range and a currency amount
_PINNED_ANNOTATED = (
    "0\tThe\tother\t-\n1\tbig\tADJ\t4\n2\tsteel\tNOUN\t4\n3\tstorage\t noun \t4\n"
    "4\ttank\tNOUN\t5\n5\tholds\tVERB\t_\n6\t50\tOTHER\t-\n7\t-\tOTHER\t-\n8\t60\tOTHER\t-\n"
    "9\tliters\tOTHER\t 5 \n\n"
    "0\tIt\tOTHER\t-\n1\tcost\tverb\t-\n2\t$\tOTHER\t_\n3\t12\tOTHER\t-\n4\tmillion\tOTHER\t-\n"
    "5\tfor\tOTHER\t-\n6\tthe\tOTHER\t-\n7\tcity\tNOUN\t11\n8\tcouncil\tNOUN\t11\n"
    "9\toffice\tNOUN\t11\n10\tparking\tNOUN\t11\n11\tgarage\tNOUN\t1\n\n"
    "0\tThe\tOTHER\t2\n1\tcement\tNOUN\t2\n2\ttruck\tNOUN\t3\n3\tcarried\tVERB\t 2 \n"
    "4\ta\tOTHER\t-\n5\tflour\tNOUN\t8\n6\t25\tNOUN\t8\n7\tkg\tNOUN\t8\n8\tsack\tNOUN\t3\n"
    "9\t.\tOTHER\t-\n"
)


def test_annotated_record_stream_bytes_are_pinned(tmp_path):
    """An annotated corpus's record stream, and so the order of its records, keeps the
    bytes pinned here; the byte oracle's annotated sentences hold no noun run."""
    conll, records = tmp_path / "pinned.conll", tmp_path / "pinned.rec"
    conll.write_text(_PINNED_ANNOTATED, encoding="utf-8")
    assert main(["extract", "--annotated", str(conll), "-o", str(records)]) == 0
    lines = records.read_text("utf-8").splitlines()
    assert len(lines) == 36  # the header and 35 records
    for phrase in ("steel storage tank\ttank", "office parking garage\tgarage", "cement truck\ttruck"):
        assert any(line.startswith(phrase + "\tNOUN\t") for line in lines), phrase
    # a phrase overlapping the "25 kg" inside the run of four nouns is no object
    assert not any(line.startswith(("flour 25", "25 kg", "kg sack")) for line in lines)
    digest = hashlib.sha256(records.read_bytes()).hexdigest()
    assert digest == "94b82f43ee66f1ccb054939b1cbeae471a367f0d4686aa0ed0ff866aa2e8506e"


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


def test_query_pos_and_head_pick_the_entry(tmp_path, corpus, capsys):
    """``--pos`` and ``--head`` pick the key; a tagged miss falls back to the UNKNOWN entry."""
    conll = tmp_path / "fast.tsv"
    conll.write_text(
        "".join(
            f"0\tThe\tOTHER\t2\n1\tfast\tADJ\t2\n2\t{noun}\tNOUN\t3\n"
            f"3\tdrove\tVERB\t-\n4\t{value}\tOTHER\t-\n5\tmph\tOTHER\t-\n\n"
            for noun, value in (("car", 50), ("truck", 40))
        ),
        encoding="utf-8",
    )
    rec, part, table = (str(tmp_path / name) for name in ("r.tsv", "p.tsv", "t.tsv"))
    assert main(["extract", str(conll), "--annotated", "-o", rec]) == 0
    assert main(["aggregate", rec, "-o", part]) == 0
    assert main(["finalize", part, "--min-count", "1", "-o", table]) == 0
    query = ["query", "--table", table, "--dim", "speed"]
    assert main([*query, "--object", "Fast", "--pos", "adj", "--head", "CAR"]) == 0
    out = capsys.readouterr().out
    assert "object: fast (pos=ADJ)\n" in out and "count: 1\n" in out
    # the library lowercases the head as it does the object, so both calls find the entry
    assert main([*query, "--object", "fast", "--pos", "adj", "--head", "Car"]) == 0
    assert "count: 1\n" in capsys.readouterr().out
    found = query_distribution(read_table(table), "fast", Dimension.SPEED, Pos.ADJ, "Car")
    assert found is not None and found.count == 1
    assert main([*query, "--object", "fast", "--pos", "adj"]) == 0
    assert "count: 2\n" in capsys.readouterr().out
    assert main([*query, "--object", "fast", "--pos", "adj", "--head", "bus"]) == 2
    assert f"error: {table}: no entry for 'fast' under SPEED" in capsys.readouterr().err
    plain = str(build_table(tmp_path, corpus))
    assert main(["query", "--table", plain, "--object", "car", "--dim", "speed", "--pos", "noun"]) == 0
    out = capsys.readouterr().out
    assert "object: car (pos=NOUN)\n" in out and "count: 3\n" in out


# ---------------------------------------------------------------- extract


def test_extract_stream_shape(tmp_path, corpus, capsys):
    assert main(["extract", str(corpus)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = json.loads(lines[0])
    assert header["format"] == "quantrecords/2" and header["distance"] is None
    assert sorted(header) == ["distance", "format", "min_phrase_count", "registry"]
    body = [ln.split("\t") for ln in lines[1:]]
    assert all(len(cols) == 6 for cols in body)
    surfaces = {cols[0] for cols in body}
    assert {"car", "elephant", "cat"} <= surfaces
    dims = {cols[3] for cols in body}
    assert dims == {"SPEED", "MASS"}


def test_extract_distance_flag(tmp_path, corpus, capsys):
    assert main(["extract", str(corpus), "--distance", "3"]) == 0
    head = capsys.readouterr().out.split("\n", 1)[0]
    assert json.loads(head)["distance"] == 3


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


def test_entry_lines_out_of_order_are_located(tmp_path, corpus, capsys):
    """A swapped or repeated entry line is a data error at the later of the two lines."""
    table = build_table(tmp_path, corpus)
    header, *entries = table.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(entries) >= 3
    bad = tmp_path / "bad.tsv"
    out = tmp_path / "out.tsv"
    for lines, line, message in (
        ([entries[1], entries[0], *entries[2:]], 3, "entry out of canonical order"),
        ([entries[0], entries[2], entries[1], *entries[3:]], 4, "entry out of canonical order"),
        ([entries[0], entries[0], *entries[1:]], 3, "repeated entry"),
    ):
        bad.write_text(header + "".join(lines), encoding="utf-8")
        with pytest.raises(LocatedInputError, match=f"^{bad}:{line}: {message}$") as err:
            read_table(bad)
        assert (err.value.path, err.value.line_number) == (str(bad), line)
        for argv in (
            ["merge", str(table), str(bad), "-o", str(out)],
            ["finalize", str(bad), "--min-count", "1", "-o", str(out)],
            ["query", "--table", str(bad), "--object", "car", "--dim", "speed"],
        ):
            assert main(argv) == 2, argv
            assert f"error: {bad}:{line}: {message}\n" in capsys.readouterr().err, argv
        assert not out.exists()


def test_read_commands_check_keys_at_open_and_parse_what_they_find(tmp_path, corpus, capsys):
    """``query``, ``plot-export``, ``compare`` and ``eval`` check every key, the canonical
    order and the entry count of a table, and parse only the lines of the object surfaces
    they name: a malformed value in a line of another surface is reported by ``merge``
    and ``finalize`` alone."""
    table = build_table(tmp_path, corpus)
    header, cat, elephant, weighs, car, driving = table.read_text("utf-8").splitlines(True)
    assert [line.split("\t")[0] for line in (cat, elephant, car)] == ["cat", "elephant", "car"]
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("elephant\tcat\tweight\t>\n", encoding="utf-8")
    bad, out = tmp_path / "bad.tsv", str(tmp_path / "out.tsv")
    query = ["query", "--table", str(bad), "--object", "car", "--dim", "speed"]
    plot = ["plot-export", "--table", str(bad), "--object", "car", "--dim", "speed"]
    compare = ["compare", "--table", str(bad), "--noun", "elephant", "cat", "--dim", "mass"]
    evaluate = ["eval", str(pairs), "--table", str(bad)]
    merge = ["merge", str(bad), "-o", out]
    finalize = ["finalize", str(bad), "--min-count", "1", "-o", out]

    def with_samples(line, samples):
        return "\t".join(line.split("\t")[:4] + [samples]) + "\n"

    not_a_sample = "could not convert string to float: 'x'"
    cases = [
        # a malformed value: an error at its line where a lookup finds it, unseen elsewhere
        (3, with_samples(car, "1.0 x"), 5, not_a_sample, [query, plot, merge, finalize],
         [compare, evaluate]),
        (0, with_samples(cat, "x"), 2, not_a_sample, [compare, evaluate, merge, finalize],
         [query, plot]),
        # keys, order and the entry count: an error at open, whatever is looked up
        (3, car.replace("UNKNOWN", "NOUNS"), 5, "unknown tag 'NOUNS'", [query, compare, finalize],
         []),
        (2, "ant\t\tUNKNOWN\tMASS\t1.0\n", 4, "entry out of canonical order",
         [query, plot, compare, evaluate], []),
        (1, cat, 3, "repeated entry", [query, compare, evaluate, merge], []),
    ]
    for i, changed, line, message, failing, passing in cases:
        entries = [cat, elephant, weighs, car, driving]
        entries[i] = changed
        bad.write_text(header + "".join(entries), encoding="utf-8")
        for argv in failing:
            assert main(argv) == 2, (argv, message)
            assert f"error: {bad}:{line}: {message}\n" in capsys.readouterr().err, (argv, message)
        for argv in passing:
            assert main(argv) == 0, (argv, message)
    assert not os.path.exists(out)
    bad.write_text(header + cat + elephant + weighs + car, encoding="utf-8")  # truncated
    for argv in (query, plot, compare, evaluate):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"error: {bad}: header promises 5 entries, found 4 (truncated?)\n" in err


def test_failed_merge_or_finalize_leaves_no_output(tmp_path, corpus, capsys, monkeypatch):
    """A data error, found early or late, or a failed write leaves no ``-o`` file and no
    temporary file beside it. So it does for every command that writes a file."""
    table = build_table(tmp_path, corpus)
    records = tmp_path / "records.tsv"
    bad_corpus = tmp_path / "bad.txt"  # lines 1 and 2 give records before line 3 fails
    bad_corpus.write_bytes(_with_bad_byte(corpus.read_bytes(), 3))
    bad_stream = tmp_path / "bad.records"
    bad_stream.write_bytes(records.read_bytes() + b"car\t\tNOUN\tMASS\tnan\t0\n")
    last = len(bad_stream.read_bytes().splitlines())
    header, *entries = table.read_text(encoding="utf-8").splitlines(keepends=True)
    truncated = tmp_path / "truncated.tsv"  # fails only once its last line is read
    truncated.write_text(header + "".join(entries[:-1]), encoding="utf-8")
    huge = []  # fails folding its only entries
    for name in ("a.tsv", "b.tsv"):
        stream = tmp_path / "huge.records"
        stream.write_text(_STREAM_HEADER + "car\t\tNOUN\tMASS\t1e308\t0\n", encoding="utf-8")
        huge.append(str(tmp_path / name))
        assert main(["aggregate", str(stream), "-o", huge[-1]]) == 0
    half = tmp_path / "half.tsv"  # merged with itself, its entry of 2**62 values reaches 2**63
    huge_header = (tmp_path / "a.tsv").read_text(encoding="utf-8").split("\n")[0]
    spilled = f"{2**62}\t5.0\t5.0\t{5.0 * 2**62!r}\t{bucket_index(5.0)}:{2**62}"
    half.write_text(f"{huge_header}\ncar\t\tNOUN\tMASS\t{spilled}\n", encoding="utf-8")
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    out = outputs / "out.tsv"
    for argv, message in (
        (["merge", str(table), str(truncated)], f"{truncated}: header promises"),
        (["merge", str(table), str(tmp_path / "missing.tsv")], "missing.tsv"),
        (["finalize", str(truncated), "--min-count", "1"], f"{truncated}: header promises"),
        (["merge", *huge], f"merging {huge[0]}, {huge[1]}: running sum overflowed"),
        (["merge", str(half), str(half)], f"merging {half}, {half}: count past 2**63 - 1"),
        (["extract", str(bad_corpus)], f"{bad_corpus}:3: "),
        (["extract", "--annotated", str(corpus)], f"{corpus}:1: "),
        (["aggregate", str(bad_stream)], f"{bad_stream}:{last}: "),
    ):
        assert main([*argv, "-o", str(out)]) == 2, argv
        assert message in capsys.readouterr().err
        assert os.listdir(outputs) == [], argv
        out.write_text("kept\n", encoding="utf-8")  # and an existing -o file stays as it was
        assert main([*argv, "-o", str(out)]) == 2, argv
        assert os.listdir(outputs) == ["out.tsv"] and out.read_text(encoding="utf-8") == "kept\n"
        out.unlink()
    assert "Traceback" not in capsys.readouterr().err
    nowhere = str(tmp_path / "no-such-directory" / "out.tsv")  # the error names -o
    for argv in (["extract", str(corpus)], ["merge", str(table)]):
        assert main([*argv, "-o", nowhere]) == 2, argv
        assert f"No such file or directory: '{nowhere}'" in capsys.readouterr().err, argv

    def full_disk(*_):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(shutil, "copyfileobj", full_disk)  # fails writing the complete table
    for argv in (["merge", str(table)], ["finalize", str(table), "--min-count", "1"]):
        assert main([*argv, "-o", str(out)]) == 2, argv
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(outputs) == [], argv
    monkeypatch.setattr(os, "replace", full_disk)  # fails putting any complete file in place
    dataset = _dataset(tmp_path / "pairs.tsv", [("a", "b", "size", "<"), ("c", "d", "size", ">")])
    for argv in (
        ["extract", str(corpus), "-o", str(out)],
        ["aggregate", str(records), "-o", str(out)],
        ["plot-export", "--table", str(table), "--object", "car", "--dim", "speed", "-o", str(out)],
        ["split", str(dataset), "--output-prefix", str(outputs / "split")],
    ):
        assert main(argv) == 2, argv
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(outputs) == [], argv


def test_merge_and_finalize_write_over_an_input(tmp_path, corpus):
    """``-o`` may name an input: it is replaced only once the new table is complete."""
    build_table(tmp_path, corpus)
    part = tmp_path / "part.tsv"
    other = tmp_path / "other.tsv"
    assert main(["merge", str(part), str(part), "-o", str(other)]) == 0
    assert main(["merge", str(part), str(part), "-o", str(part)]) == 0
    assert part.read_bytes() == other.read_bytes()
    assert main(["finalize", str(part), "--min-count", "2", "-o", str(other)]) == 0
    assert main(["finalize", str(part), "--min-count", "2", "-o", str(part)]) == 0
    assert part.read_bytes() == other.read_bytes()
    names = ["corpus.txt", "other.tsv", "part.tsv", "records.tsv", "table.tsv"]
    assert sorted(os.listdir(tmp_path)) == names  # no temporary file left


def test_merge_memory_does_not_grow_with_its_inputs(tmp_path):
    """``merge`` streams its inputs: its peak allocation stays flat when they grow 4x."""
    inputs = {}
    for n in (500, 2000):
        inputs[n] = []
        for shard in range(2):
            table = QuantTable(BuildConfig(exact_cap=4))
            for i in range(shard * n // 2, shard * n // 2 + n):  # half the keys in both shards
                for k in range(1 + i % 7):  # kept samples, and spilled past 4
                    table.observe(("MASS", "NOUN", f"object{i}", "", 1.5**k, 0))
            inputs[n].append(str(tmp_path / f"{n}.{shard}.tsv"))
            table.write(inputs[n][-1])
    out = str(tmp_path / "merged.tsv")
    assert main(["merge", *inputs[500], "-o", out]) == 0  # one-time allocations, untraced
    peaks = []
    for n in (500, 2000):
        gc.collect()  # no earlier test's garbage is finalized while tracing
        tracemalloc.start()
        try:
            assert main(["merge", *inputs[n], "-o", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_aggregate_memory_grows_with_entries_not_records(tmp_path):
    """``aggregate`` keeps a spilled key's summary and one batch of its later values: its
    peak allocation stays flat when one key's records grow 10x."""
    streams = {}
    for n in (2_000, 20_000):
        streams[n] = str(tmp_path / f"{n}.records")
        with open(streams[n], "w", encoding="utf-8") as fh:
            fh.write(_STREAM_HEADER)
            fh.writelines(f"car\t\tNOUN\tMASS\t{1.5 ** (i % 40)!r}\t0\n" for i in range(n))
    out = str(tmp_path / "t.part")
    argv = ["aggregate", "--exact-cap", "16", "-o", out]
    assert main([*argv, streams[2_000]]) == 0  # one-time allocations, untraced
    peaks = []
    for n in (2_000, 20_000):
        gc.collect()  # no earlier test's garbage is finalized while tracing
        tracemalloc.start()
        try:
            assert main([*argv, streams[n]]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_read_commands_memory_does_not_grow_with_the_table(tmp_path, capsys):
    """``query``, ``plot-export``, ``compare`` and ``eval`` hold only the entries of the
    surfaces they name: their peak allocation stays flat when the table grows 4x."""
    tables = {}
    for n in (500, 2000):
        table = QuantTable(BuildConfig(exact_cap=4))
        for i in range(n):
            for k in range(1 + i % 7):  # kept samples, and spilled past 4
                table.observe(("MASS", "NOUN", f"object{i}", "", 1.5**k, 0))
        tables[n] = str(tmp_path / f"{n}.tsv")
        table.write(tables[n])
    pairs = str(_dataset(tmp_path / "pairs.tsv", [("object6", "object400", "weight", "<")]))

    def commands(path):
        return (
            ["query", "--table", path, "--object", "object6", "--dim", "mass", "--pos", "noun"],
            ["plot-export", "--table", path, "--object", "object6", "--dim", "mass", "--pos", "noun"],
            ["compare", "--table", path, "--noun", "object6", "object400", "--dim", "mass"],
            ["eval", pairs, "--table", path],
        )

    for argv in commands(tables[500]):  # one-time allocations, untraced
        assert main(argv) == 0
    peaks = {500: [], 2000: []}
    for n, found in peaks.items():
        for argv in commands(tables[n]):
            gc.collect()  # no earlier test's garbage is finalized while tracing
            tracemalloc.start()
            try:
                assert main(argv) == 0
                found.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    capsys.readouterr()
    assert all(big < 1.2 * small for small, big in zip(peaks[500], peaks[2000])), peaks


def test_aggregate_rejects_mixed_headers(tmp_path, corpus, capsys):
    r1 = tmp_path / "r1.tsv"
    r2 = tmp_path / "r2.tsv"
    assert main(["extract", str(corpus), "-o", str(r1)]) == 0
    assert main(["extract", str(corpus), "--distance", "3", "-o", str(r2)]) == 0
    code = main(["aggregate", str(r1), str(r2), "-o", str(tmp_path / "out.tsv")])
    assert code == 2
    assert "configuration" in capsys.readouterr().err
    # tables from those streams refuse to merge, and the error names both
    t1, t2 = str(tmp_path / "t1.tsv"), str(tmp_path / "t2.tsv")
    assert main(["aggregate", str(r1), "-o", t1]) == main(["aggregate", str(r2), "-o", t2]) == 0
    assert main(["merge", t1, t2, "-o", str(tmp_path / "out.tsv")]) == 2
    err = capsys.readouterr().err
    assert f"merging {t1}, {t2}: incompatible table configs" in err


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
    stream_fields = {"max_distance": ("--distance", "3", ("distance", 3))}
    assert {f.name for f in dataclasses.fields(ExtractionConfig)} == set(stream_fields)
    argv = ["extract", str(corpus)]
    for flag, value, _ in stream_fields.values():
        argv += [flag, value]
    assert main(argv) == 0
    header = json.loads(capsys.readouterr().out.split("\n", 1)[0])
    assert all(header[key] == value for _, _, (key, value) in stream_fields.values())
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
    assert capsys.readouterr().err == "error: unknown unit 'zorps'\n"


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
    assert f"error: {table2}: no entry for 'anvil' under MASS" in capsys.readouterr().err
    assert main(["plot-export", "--table", str(table2), "--object", "anvil", "--dim", "mass"]) == 2
    assert f"error: {table2}: no entry for 'anvil' under MASS" in capsys.readouterr().err


# ---------------------------------------------------------------- compare


def test_compare_nouns_symbol(tmp_path, corpus, capsys):
    table = build_table(tmp_path, corpus)
    # names are lowercased as the table's surfaces are
    for first, second, label in (("elephant", "cat", ">"), ("cat", "elephant", "<"),
                                 ("Elephant", "CAT", ">")):
        argv = ["compare", "--table", str(table), "--noun", first, second, "--dim", "mass"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == label


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
    for fast, slow in (("fast", "slow"), ("FAST", "Slow")):
        assert main(["compare", "--table", str(table), "--adj", fast, slow, "--dim", "speed"]) == 0
        assert capsys.readouterr().out.strip() == ">"
    for fast, shiny in (("fast", "shiny"), ("FAST", "Shiny")):  # named as they are looked up
        code = main(["compare", "--table", str(table), "--adj", fast, shiny, "--dim", "speed"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {table}: no shared-head evidence for 'fast' vs 'shiny'" in err


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
            ("Elephant", "CAT", "weight", ">"),  # names are lowercased as surfaces are
            ("sound", "light", "speed", "NA"),
        ],
    )
    assert main(["eval", str(data), "--table", str(table)]) == 0
    out = capsys.readouterr().out
    assert "scored: 3" in out
    assert "accuracy: 1.000" in out
    assert main(["eval", str(data), "--table", str(table), "--format", "records"]) == 0
    rows = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().split("\n")
    )
    assert rows["accuracy"] == rows["coverage"] == "1.0"
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


def test_split_can_write_an_empty_split_and_exit_0(tmp_path, capsys):
    """Components go whole to one split each, so a split with a positive ratio can get none:
    its file is the header alone, and the command still succeeds."""
    rows = [(f"a{i}", f"a{i + 1}", "size", "<") for i in range(9)] + [("b", "c", "size", "<")]
    data = _dataset(tmp_path / "all.tsv", rows)
    prefix = tmp_path / "out"
    assert main(["split", str(data), "--output-prefix", str(prefix)]) == 0
    assert "train: 9 examples" in capsys.readouterr().out
    assert len(load_dataset(f"{prefix}.dev.tsv")) == 1
    assert (tmp_path / "out.test.tsv").read_text(encoding="utf-8") == (
        "object1\tobject2\tdimension\tlabel\n"
    )


def test_split_single_component_exits_2(tmp_path, capsys):
    """A dataset with no leakage-free split is a data error of its file."""
    for rows in (
        [("a", "b", "size", "<"), ("b", "c", "size", "<")],
        [("car", "cat", "speed", ">"), ("cat", "elephant", "weight", "<")],
    ):
        data = _dataset(tmp_path / "one.tsv", rows)
        code = main(["split", str(data), "--output-prefix", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: object graph is a single connected component")
    assert not list(tmp_path.glob("o.*"))


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
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert "quantdist" in proc.stdout

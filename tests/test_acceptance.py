"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them). The final criterion needs external evaluation data and is skipped
with an explanation when that data is not present; it never gates a
build.
"""

import contextlib
import math
import os
import random
import time

import pytest

from quantdist.distribution import Distribution
from quantdist.errors import SplitInfeasibleError
from quantdist.evaluation import (
    detect_leakage,
    evaluate,
    load_dataset,
    make_clean_split,
    ComparisonExample,
)
from quantdist.inference import (
    TAU,
    ComparisonLabel,
    compare_adjectives,
    compare_nouns,
    query_distribution,
    relax_to_decade,
)
from quantdist.parser import scan_measurements, tokenize
from quantdist.pipeline import (
    AnnotatedSentence,
    ExtractionConfig,
    Pos,
    extract_records,
    split_sentences,
)
from quantdist.table import BuildConfig, QuantTable, read_table
from quantdist.units import Dimension, load_registry


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


@pytest.fixture(scope="module")
def registry():
    return load_registry()


# Conversion constants rebuilt from definitions, independent of the
# package's data files.
INCH = 0.0254
FOOT = 12 * INCH
MILE = 1760 * 3 * FOOT
HOUR = 3600.0
DAY = 24 * HOUR
LITRE = 0.001
POUND_STERLING = 1.30


def test_criterion_1_unit_registry(registry):
    with criterion(1, "registry exactness and lexicon-wide round-trips"):
        acre_foot = registry.lookup_unit("acre-foot")
        assert acre_foot.scale == 1233.48  # exactly, not approximately
        assert registry.normalize(1.0, acre_foot).value_std == 1233.48

        celsius = registry.lookup_unit("c", marker_present=True)
        fahrenheit = registry.lookup_unit("f", marker_present=True)
        zero_c = registry.normalize(0.0, celsius).value_std
        thirtytwo_f = registry.normalize(32.0, fahrenheit).value_std
        assert abs(zero_c - 273.15) < 1e-9
        assert abs(thirtytwo_f - 273.15) < 1e-9

        rng = random.Random(2024)
        units = registry.units()
        started = time.perf_counter()
        for _ in range(1000):
            unit = rng.choice(units)
            if unit.dimension is Dimension.TIME:
                value = rng.uniform(0.0, 24.0)
            else:
                value = rng.uniform(0.001, 1000.0)
            quantity = registry.normalize(value, unit)
            back = registry.denormalize(quantity, unit)
            assert back == pytest.approx(value, rel=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"round-trips took {elapsed:.3f}s"


def test_criterion_2_parser_reference_sentences(registry):
    expected = {
        "On 24 September drivers struck between 7.30 am and 8.30 am, the "
        "middle of the morning rush hour.": [
            (Dimension.TIME, 7.5),
            (Dimension.TIME, 8.5),
        ],
        "McKay picked up $2,000 (the biggest winning cheque of her career) "
        "for winning the competition.": [(Dimension.CURRENCY, 2000.0)],
        "The traditional Bordeaux barrique is an oak barrel with a capacity "
        "of 225 litres.": [(Dimension.VOLUME, 225 * LITRE)],
        "Places as far north as New York City reached 70 °F (21 °C) on "
        "Christmas Eve.": [
            (Dimension.TEMPERATURE, (70 - 32) * 5 / 9 + 273.15),
            (Dimension.TEMPERATURE, 21 + 273.15),
        ],
        "Formerly the market lasted for 14 days.": [(Dimension.DURATION, 14 * DAY)],
        "Dora was the strongest storm of the year, peaking at 155 mph, just "
        "short of Category 5 status.": [(Dimension.SPEED, 155 * MILE / HOUR)],
        "The motorcycle used a 24 volt electric starter motor from a Douglas "
        "A-4B fighter plane.": [(Dimension.VOLTAGE, 24.0)],
        "Tuncay's move was confirmed the following day, with Stoke paying "
        "£5 million for the Turkish player.": [
            (Dimension.CURRENCY, 5e6 * POUND_STERLING)
        ],
        "The value of the shunt ensures a potential difference of 0.5 volt "
        "across it at the maximum generator load.": [(Dimension.VOLTAGE, 0.5)],
        "Both trains covered the 466 mile route at an average pace of "
        "49 mph.": [
            (Dimension.LENGTH, 466 * MILE),
            (Dimension.SPEED, 49 * MILE / HOUR),
        ],
        "New York was a scorching 110": [],
    }
    with criterion(2, "reference sentences match the independent oracle"):
        for sentence, wanted in expected.items():
            got = [
                (m.dimension, m.quantity.value_std)
                for m in scan_measurements(tokenize(sentence), registry)
            ]
            assert len(got) == len(wanted), sentence
            for (dim, value), (want_dim, want_value) in zip(got, wanted):
                assert dim is want_dim, sentence
                assert value == pytest.approx(want_value, rel=1e-12), sentence


def _random_template_sentence(rng):
    objects = ["crate", "rocket", "kettle", "turbine", "pebble", "lorry"]
    fillers = ["shiny", "old", "massive", "quick", "tiny", "northern"]
    units = [
        ("kg", 0.5, 900),
        ("meters", 0.1, 400),
        ("km/h", 1, 300),
        ("litres", 0.2, 80),
        ("volts", 1, 240),
    ]
    unit, lo, hi = rng.choice(units)
    value = round(rng.uniform(lo, hi), 2)
    pads = [rng.choice(fillers) for _ in range(rng.randint(0, 4))]
    words = ["The", *pads, rng.choice(objects), "measured", str(value), unit, "today"]
    return " ".join(words) + "."


def test_criterion_3_negation_and_distance(registry):
    with criterion(3, "negation blocks extraction; windows nest"):
        sentence = AnnotatedSentence.from_plain("The dimension of the car is not 50cm")
        config = ExtractionConfig(max_distance=None)
        assert extract_records(sentence, config, registry) == []

        rng = random.Random(99)
        for _ in range(1000):
            sentence = AnnotatedSentence.from_plain(_random_template_sentence(rng))
            r3 = extract_records(sentence, ExtractionConfig(max_distance=3), registry)
            r10 = extract_records(sentence, ExtractionConfig(max_distance=10), registry)
            rall = extract_records(sentence, ExtractionConfig(max_distance=None), registry)
            assert set(r3) <= set(r10) <= set(rall)


def _random_record_corpus(rng, n):
    surfaces = [f"obj{k}" for k in range(8)]
    dims = [Dimension.MASS, Dimension.LENGTH, Dimension.SPEED]
    records = []
    for _ in range(n):
        value = 10.0 ** rng.uniform(-3, 4)
        dim = rng.choice(dims)
        records.append((dim.name, "UNKNOWN", rng.choice(surfaces), "", value, 0))
    return records


def _built(records, config):
    table = QuantTable(config)
    table.observe_all(records)
    return table


def test_criterion_4_aggregation_monoid():
    with criterion(4, "merge laws byte-identical; histogram median in one bucket"):
        rng = random.Random(4242)
        config = BuildConfig(exact_cap=8)  # tiny cap forces histogram paths
        empty = QuantTable(config)
        for _ in range(100):
            a = _built(_random_record_corpus(rng, rng.randint(5, 40)), config)
            b = _built(_random_record_corpus(rng, rng.randint(5, 40)), config)
            c = _built(_random_record_corpus(rng, rng.randint(5, 40)), config)
            ab = a.merge(b)
            assert ab.serialize() == b.merge(a).serialize()
            assert (
                ab.merge(c).finalize(2).serialize()
                == a.merge(b.merge(c)).finalize(2).serialize()
            )
            assert a.merge(empty).serialize() == a.serialize()

            # shard invariance: any partition and merge order rebuilds the
            # same bytes as a single-pass build
            records = _random_record_corpus(rng, rng.randint(10, 60))
            whole = _built(records, config).finalize(1)
            k = rng.randint(2, 5)
            shards = [_built(records[i::k], config) for i in range(k)]
            rng.shuffle(shards)
            merged = shards[0]
            for shard in shards[1:]:
                merged = merged.merge(shard)
            assert merged.finalize(1).serialize() == whole.serialize()

        width = 10.0 ** (1.0 / 10.0)
        for _ in range(1000):
            n = rng.randint(1, 120)
            values = [10.0 ** rng.uniform(-6, 6) for _ in range(n)]
            exact = Distribution.of(list(values), exact_cap=len(values))
            spilled = Distribution.of(list(values), exact_cap=0)
            ratio = spilled.median() / exact.median()
            assert (1.0 / width) * (1 - 1e-9) <= ratio <= width * (1 + 1e-9)


def test_criterion_5_planted_corpus_end_to_end(registry):
    objects = ["whale", "lorry", "wolf", "rabbit", "beetle", "acorn"]
    templates = {
        Dimension.MASS: "The {obj} weighs {value} kg.",
        Dimension.SPEED: "The {obj} moved at {value} m/s.",
        Dimension.LENGTH: "The {obj} is {value} meters long.",
    }
    # per-dimension planted medians, one decade apart per object
    planted = {
        dim: {obj: 10.0 ** (rank - 2) for rank, obj in enumerate(order)}
        for dim, order in (
            (Dimension.MASS, objects),
            (Dimension.SPEED, objects[::-1]),
            (Dimension.LENGTH, objects[2:] + objects[:2]),
        )
    }
    rng = random.Random(5)
    lines = []
    pairs = [(dim, obj) for dim in templates for obj in objects]
    per_pair = 10_000 // len(pairs)
    for dim, obj in pairs:
        median = planted[dim][obj]
        for _ in range(per_pair):
            value = median * 10.0 ** rng.uniform(-0.4, 0.4)
            lines.append(templates[dim].format(obj=obj, value=f"{value:.6f}"))
    while len(lines) < 10_000:
        lines.append(templates[Dimension.MASS].format(obj=objects[0], value="0.01"))
    rng.shuffle(lines)
    assert len(lines) == 10_000

    with criterion(5, "10k-sentence planted corpus orders all 45 pairs in <10s"):
        started = time.perf_counter()
        table = QuantTable(BuildConfig(registry_version=registry.version))
        config = ExtractionConfig(max_distance=None)
        for line in lines:
            for text in split_sentences(line):
                sentence = AnnotatedSentence.from_plain(text)
                table.observe_all(extract_records(sentence, config, registry))
        table = table.finalize(5)

        checked = 0
        for dim in templates:
            for i, obj1 in enumerate(objects):
                for obj2 in objects[i + 1 :]:
                    want = (
                        ComparisonLabel.GREATER
                        if planted[dim][obj1] > planted[dim][obj2]
                        else ComparisonLabel.LESS
                    )
                    assert compare_nouns(table, obj1, obj2, dim) is want, (
                        dim,
                        obj1,
                        obj2,
                    )
                    checked += 1
        elapsed = time.perf_counter() - started
        assert checked == 45
        assert elapsed < 10.0, f"end-to-end run took {elapsed:.2f}s"


def _head_table(entries):
    """entries: {(adj, head): [values]} under one dimension."""
    table = QuantTable(BuildConfig())
    for (adj, head), values in entries.items():
        for v in values:
            table.observe(("SPEED", "ADJ", adj, head, float(v), 0))
    return table


def test_criterion_6_majority_vote():
    with criterion(6, "2-1 head majority and single-head agreement"):
        table = _head_table(
            {
                ("fast", "car"): [120.0],
                ("slow", "car"): [40.0],
                ("fast", "train"): [200.0],
                ("slow", "train"): [90.0],
                ("fast", "barge"): [5.0],
                ("slow", "barge"): [12.0],  # the dissenting head
            }
        )
        label = compare_adjectives(table, "fast", "slow", Dimension.SPEED)
        assert label is ComparisonLabel.GREATER
        assert (
            compare_adjectives(table, "slow", "fast", Dimension.SPEED)
            is ComparisonLabel.LESS
        )

        rng = random.Random(66)
        for _ in range(200):
            entries = {
                ("big", "house"): [10.0 ** rng.uniform(-2, 3) for _ in range(rng.randint(1, 7))],
                ("small", "house"): [10.0 ** rng.uniform(-2, 3) for _ in range(rng.randint(1, 7))],
            }
            table = _head_table(entries)
            via_vote = compare_adjectives(table, "big", "small", Dimension.SPEED)
            m1, m2 = (
                query_distribution(table, adj, Dimension.SPEED, Pos.ADJ, "house").median()
                for adj in ("big", "small")
            )
            via_medians = (
                ComparisonLabel.EQUAL if max(m1, m2) / min(m1, m2) <= TAU
                else ComparisonLabel.LESS if m1 < m2 else ComparisonLabel.GREATER
            )
            assert via_vote is via_medians


def test_criterion_7_decade_relaxation():
    with criterion(7, "99.7 relaxes to (10, 100); brackets always contain"):
        assert relax_to_decade(99.7) == (10.0, 100.0)
        rng = random.Random(77)
        for _ in range(10_000):
            value = 10.0 ** rng.uniform(-11.5, 11.5)
            lo, hi = relax_to_decade(value)
            assert lo <= value <= hi, value
            assert lo < hi


def _clustered_dataset(rng):
    rows = []
    n_clusters = rng.randint(3, 8)
    for c in range(n_clusters):
        size = rng.randint(2, 5)
        members = [f"c{c}m{i}" for i in range(size)]
        scale = rng.choice(["size", "weight", "speed"])
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.7:
                    rows.append(
                        ComparisonExample(
                            members[i],
                            members[j],
                            scale,
                            None,
                            rng.choice(
                                [ComparisonLabel.LESS, ComparisonLabel.GREATER]
                            ),
                        )
                    )
        if not any(r.object1.startswith(f"c{c}m") for r in rows):
            rows.append(
                ComparisonExample(
                    members[0], members[1], scale, None, ComparisonLabel.LESS
                )
            )
    return rows


def test_criterion_8_leakage():
    with criterion(8, "chained train pairs flagged; rebuilt splits audit clean"):
        train = [
            ComparisonExample("person", "fox", "weight", Dimension.MASS, ComparisonLabel.GREATER),
            ComparisonExample("fox", "goose", "weight", Dimension.MASS, ComparisonLabel.GREATER),
        ]
        eval_split = [
            ComparisonExample("person", "goose", "weight", Dimension.MASS, ComparisonLabel.GREATER)
        ]
        report = detect_leakage(train, eval_split)
        assert report.transitive_flags == {0}
        assert report.object_flags == {0}

        rng = random.Random(88)
        for _ in range(100):
            rows = _clustered_dataset(rng)
            new_train, dev, test = make_clean_split(rows, seed=rng.randint(0, 10_000))
            for part in (dev, test):
                assert detect_leakage(new_train, part).clean

        names = [f"n{i}" for i in range(5)]
        complete = [
            ComparisonExample(a, b, "size", None, ComparisonLabel.LESS)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        ]
        with pytest.raises(SplitInfeasibleError):
            make_clean_split(complete)


def test_criterion_9_external_evaluation():
    """Accuracy reproduction on released evaluation data, when present.

    Needs a directory with table.tsv (a finalized table built from the
    released resource) and relative.tsv (the sentence-level comparison
    pairs). Without downloads this cannot run in a clean checkout, so it
    reports SKIP rather than gating the build.
    """
    root = os.environ.get("QUANTDIST_EXTERNAL_EVAL")
    if not root:
        print(
            "criterion 9 SKIP: external evaluation data not present "
            "(set QUANTDIST_EXTERNAL_EVAL to a directory with table.tsv "
            "and relative.tsv)"
        )
        pytest.skip("external evaluation data not available")
    with criterion(9, "external dataset accuracy within 3 points of 0.872"):
        table = read_table(os.path.join(root, "table.tsv"))
        examples = load_dataset(os.path.join(root, "relative.tsv"))
        report = evaluate(table, examples)
        assert abs(report["accuracy"] - 0.872) <= 0.03, report["accuracy"]

"""Inference tests: median comparisons, majority votes, decade brackets."""

import math
import random

import pytest

from quantdist.evaluation import evaluate
from quantdist.inference import (
    TAU,
    ComparisonLabel,
    compare_adjectives,
    compare_nouns,
    query_distribution,
    relax_hour_window,
    relax_to_decade,
)
from quantdist.pipeline import Pos
from quantdist.table import BuildConfig, QuantTable
from quantdist.units import Dimension

LESS, EQUAL, GREATER = ComparisonLabel.LESS, ComparisonLabel.EQUAL, ComparisonLabel.GREATER


def record(surface, dim, value, pos=Pos.UNKNOWN, head=None):
    return dim.name, pos.name, surface, head or "", value, 0


def build(records):
    t = QuantTable(BuildConfig(min_phrase_count=1))
    t.observe_all(records)
    return t


def planted_table():
    rows = []
    for value in (3500.0, 4000.0, 4200.0):
        rows.append(record("elephant", Dimension.MASS, value))
    for value in (3.5, 4.0, 4.5):
        rows.append(record("cat", Dimension.MASS, value))
    for value in (-8.0, -6.0, -4.0):
        rows.append(record("deficit", Dimension.MASS, value))
    return build(rows)


def test_config_validation():
    t = planted_table()
    for tau in (0.9, float("nan")):
        with pytest.raises(ValueError):
            compare_nouns(t, "elephant", "cat", Dimension.MASS, tau=tau)
        with pytest.raises(ValueError):
            compare_adjectives(t, "fast", "slow", Dimension.SPEED, tau=tau)
        with pytest.raises(ValueError):
            evaluate(t, [], tau=tau)


def test_query_distribution_hits_and_misses():
    t = planted_table()
    d = query_distribution(t, "elephant", Dimension.MASS)
    assert d is not None and d.count == 3
    assert query_distribution(t, "unicorn", Dimension.MASS) is None
    assert query_distribution(t, "elephant", Dimension.SPEED) is None


def test_query_falls_back_to_untagged_keys():
    t = planted_table()  # stored with UNKNOWN pos
    assert query_distribution(t, "elephant", Dimension.MASS, Pos.NOUN, "") is not None


def test_compare_nouns_planted():
    t = planted_table()
    assert compare_nouns(t, "elephant", "cat", Dimension.MASS) is GREATER
    assert compare_nouns(t, "cat", "elephant", Dimension.MASS) is LESS


def test_compare_nouns_missing_objects():
    t = planted_table()
    assert compare_nouns(t, "unicorn", "dragon", Dimension.MASS) is EQUAL
    assert compare_nouns(t, "unicorn", "cat", Dimension.MASS) is LESS
    # a missing object's 0 beats a negative median
    assert compare_nouns(t, "unicorn", "deficit", Dimension.MASS) is GREATER


def test_compare_nouns_reflexive():
    t = planted_table()
    for obj in ("elephant", "cat", "unicorn"):
        assert compare_nouns(t, obj, obj, Dimension.MASS) is EQUAL


def test_equality_ratio_band():
    t = build(
        [record("a", Dimension.LENGTH, 100.0), record("b", Dimension.LENGTH, 105.0)]
    )
    assert compare_nouns(t, "a", "b", Dimension.LENGTH) is EQUAL
    t2 = build(
        [record("a", Dimension.LENGTH, 100.0), record("b", Dimension.LENGTH, 115.0)]
    )
    assert compare_nouns(t2, "a", "b", Dimension.LENGTH) is LESS
    assert compare_nouns(t2, "a", "b", Dimension.LENGTH, tau=1.2) is EQUAL


def test_min_count_gate():
    t = planted_table().finalize(5)
    # under the table's gate both are missing, so both fall back to 0 medians
    assert compare_nouns(t, "elephant", "cat", Dimension.MASS) is EQUAL


def random_table(rng):
    rows = []
    for surface in ("car", "truck", "goose", "fence"):
        for dim in (Dimension.MASS, Dimension.SPEED):
            for _ in range(rng.randint(0, 6)):
                sign = rng.choice([-1.0, 1.0, 1.0, 1.0])
                rows.append(record(surface, dim, sign * 10 ** rng.uniform(-2, 4)))
    for adj in ("fast", "slow", "big"):
        for head in ("car", "truck", "bike"):
            for _ in range(rng.randint(0, 4)):
                rows.append(
                    record(adj, Dimension.SPEED, 10 ** rng.uniform(-1, 3), Pos.ADJ, head)
                )
    return build(rows)


def test_antisymmetry_randomized():
    rng = random.Random(1234)
    inverse = {LESS: GREATER, EQUAL: EQUAL, GREATER: LESS}
    objects = ["car", "truck", "goose", "fence", "ghost"]
    for _ in range(60):
        t = random_table(rng)
        for dim in (Dimension.MASS, Dimension.SPEED):
            for _ in range(10):
                o1, o2 = rng.choice(objects), rng.choice(objects)
                fwd = compare_nouns(t, o1, o2, dim)
                assert fwd is inverse[compare_nouns(t, o2, o1, dim)]
        x, z = rng.sample(["fast", "slow", "big"], 2)
        fwd = compare_adjectives(t, x, z, Dimension.SPEED)
        back = compare_adjectives(t, z, x, Dimension.SPEED)
        if fwd is None:
            assert back is None
        else:
            assert fwd is inverse[back]


def test_scale_equivariance_of_labels():
    rng = random.Random(77)
    base = [
        ("car", 10 ** rng.uniform(-2, 4)) for _ in range(9)
    ] + [("truck", 10 ** rng.uniform(-2, 4)) for _ in range(9)]
    objects = ("car", "truck", "ghost")
    for c in (0.001, 7.0, 1e6):
        t_base = build([record(s, Dimension.MASS, v) for s, v in base])
        t_scaled = build([record(s, Dimension.MASS, v * c) for s, v in base])
        for o1 in objects:
            for o2 in objects:
                assert compare_nouns(t_base, o1, o2, Dimension.MASS) is compare_nouns(
                    t_scaled, o1, o2, Dimension.MASS
                )


def adjective_rows(spec):
    rows = []
    for adj, head, value in spec:
        rows.append(record(adj, Dimension.SPEED, value, Pos.ADJ, head))
    return rows


def test_adjective_majority_two_to_one():
    t = build(
        adjective_rows(
            [
                ("fast", "car", 60.0), ("slow", "car", 10.0),
                ("fast", "truck", 40.0), ("slow", "truck", 8.0),
                ("fast", "bike", 5.0), ("slow", "bike", 9.0),
            ]
        )
    )
    assert compare_adjectives(t, "fast", "slow", Dimension.SPEED) is GREATER
    assert compare_adjectives(t, "slow", "fast", Dimension.SPEED) is LESS


def test_adjective_same_word_is_equal():
    t = build(adjective_rows([("fast", "car", 60.0), ("fast", "truck", 40.0)]))
    assert compare_adjectives(t, "fast", "fast", Dimension.SPEED) is EQUAL


def test_adjective_no_shared_heads():
    t = build(adjective_rows([("fast", "car", 60.0), ("slow", "boat", 10.0)]))
    assert compare_adjectives(t, "fast", "slow", Dimension.SPEED) is None
    assert compare_adjectives(t, "huge", "tiny", Dimension.SPEED) is None


def test_adjective_tie_is_equal():
    t = build(
        adjective_rows(
            [
                ("fast", "car", 60.0), ("slow", "car", 10.0),
                ("fast", "bike", 5.0), ("slow", "bike", 9.0),
            ]
        )
    )
    assert compare_adjectives(t, "fast", "slow", Dimension.SPEED) is EQUAL


def test_adjective_min_count_excludes_heads():
    rows = adjective_rows(
        [
            ("fast", "car", 60.0), ("fast", "car", 61.0),
            ("slow", "car", 10.0), ("slow", "car", 11.0),
            ("fast", "bike", 5.0), ("slow", "bike", 9.0),  # single observations
        ]
    )
    t = build(rows).finalize(2)
    assert compare_adjectives(t, "fast", "slow", Dimension.SPEED) is GREATER


def test_single_head_agreement_randomized():
    rng = random.Random(4321)
    for _ in range(100):
        rows = []
        for adj in ("fast", "slow"):
            for _ in range(rng.randint(1, 5)):
                rows.append(
                    record(adj, Dimension.SPEED, 10 ** rng.uniform(-1, 3), Pos.ADJ, "car")
                )
        t = build(rows)
        voted = compare_adjectives(t, "fast", "slow", Dimension.SPEED)
        m1, m2 = (
            query_distribution(t, adj, Dimension.SPEED, Pos.ADJ, "car").median()
            for adj in ("fast", "slow")
        )
        headwise = EQUAL if max(m1, m2) / min(m1, m2) <= TAU else LESS if m1 < m2 else GREATER
        assert voted is headwise


def test_relax_spot_values():
    assert relax_to_decade(99.7) == (10.0, 100.0)
    assert relax_to_decade(100.0) == (10.0, 1000.0)
    assert relax_to_decade(0.34) == (0.1, 1.0)
    assert relax_to_decade(1.0) == (0.1, 10.0)
    assert relax_to_decade(2.5) == (1.0, 10.0)


def test_relax_rejects_nonpositive():
    for bad in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            relax_to_decade(bad)


def test_relax_containment_random():
    rng = random.Random(31415)
    for _ in range(5000):
        value = 10 ** rng.uniform(-12, 12)
        lo, hi = relax_to_decade(value)
        assert lo <= value <= hi
        assert hi / lo == pytest.approx(10.0) or hi / lo == pytest.approx(100.0)
    # values engineered to sit one float step around powers of ten
    for k in range(-10, 11):
        power = 10.0**k
        for value in (power, math.nextafter(power, 0), math.nextafter(power, math.inf)):
            lo, hi = relax_to_decade(value)
            assert lo <= value <= hi


def test_relax_hours():
    assert relax_hour_window(7.5) == (6.5, 8.5)
    assert relax_hour_window(0.5) == (0.0, 1.5)
    assert relax_hour_window(23.7) == (22.7, 24.0)

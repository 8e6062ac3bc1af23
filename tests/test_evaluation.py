"""Tests for dataset loading, scoring, leakage audits, and clean splits."""

import random

import pytest

from quantdist.errors import LocatedInputError, SplitInfeasibleError
from quantdist.evaluation import (
    ComparisonExample,
    LeakageReport,
    detect_leakage,
    evaluate,
    load_dataset,
    make_clean_split,
)
from quantdist.inference import ComparisonLabel
from quantdist.table import BuildConfig, QuantTable
from quantdist.units import Dimension


_GOLD = {"<": ComparisonLabel.LESS, "=": ComparisonLabel.EQUAL, ">": ComparisonLabel.GREATER}
_SCALE_DIM = {"size": Dimension.LENGTH, "weight": Dimension.MASS, "speed": Dimension.SPEED}


def ex(o1, o2, scale, label):
    dim = _SCALE_DIM.get(scale)
    if dim is None:
        try:
            dim = Dimension[scale.upper()]
        except KeyError:
            dim = None
    return ComparisonExample(o1, o2, scale, dim, _GOLD.get(label))


def planted_table(medians):
    """medians: {(surface, dimension): [values]}"""
    table = QuantTable(BuildConfig())
    for (surface, dim), values in medians.items():
        for v in values:
            table.observe((dim.name, "UNKNOWN", surface, "", float(v), 0))
    return table


# ---------------------------------------------------------------- loading


def test_load_dataset_basic(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text(
        "object1\tobject2\tdimension\tlabel\n"
        "tractor\ttruck\tspeed\t<\n"
        "Whale\tcat\tweight\t>\n"
        "sound\tlight\tspeed\tNA\n",
        encoding="utf-8",
    )
    rows = load_dataset(p)
    assert len(rows) == 3
    assert rows[0] == ComparisonExample(
        "tractor", "truck", "speed", Dimension.SPEED, ComparisonLabel.LESS
    )
    assert rows[1].object1 == "whale"  # lowercased
    assert rows[2].gold is None


def test_load_dataset_no_header(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("ant\telephant\tsize\t<\n", encoding="utf-8")
    rows = load_dataset(p)
    assert len(rows) == 1
    assert rows[0].dimension is Dimension.LENGTH


def test_load_dataset_out_of_coverage_scale(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("steel\tfoam\trigidity\t>\n", encoding="utf-8")
    rows = load_dataset(p)
    assert rows[0].dimension is None
    assert rows[0].scale == "rigidity"


def test_load_dataset_direct_dimension_name(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("oven\tfreezer\ttemperature\t>\n", encoding="utf-8")
    assert load_dataset(p)[0].dimension is Dimension.TEMPERATURE


def test_load_dataset_bad_label(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("a\tb\tsize\t<<\n", encoding="utf-8")
    with pytest.raises(LocatedInputError) as err:
        load_dataset(p)
    assert err.value.line_number == 1


def test_load_dataset_bad_columns(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("a\tb\tsize\n", encoding="utf-8")
    with pytest.raises(LocatedInputError):
        load_dataset(p)


def test_load_dataset_same_object_needs_equal(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("cat\tcat\tsize\t<\n", encoding="utf-8")
    with pytest.raises(LocatedInputError):
        load_dataset(p)
    p.write_text("cat\tcat\tsize\t=\n", encoding="utf-8")
    assert load_dataset(p)[0].gold is ComparisonLabel.EQUAL


def test_load_dataset_blank_and_comment_lines(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("\n# pairs\na\tb\tspeed\t<\n\n", encoding="utf-8")
    assert len(load_dataset(p)) == 1


# --------------------------------------------------------------- scoring


def test_evaluate_planted_perfect():
    table = planted_table(
        {
            ("elephant", Dimension.MASS): [3000.0, 4000.0, 5000.0],
            ("cat", Dimension.MASS): [3.0, 4.0, 5.0],
            ("car", Dimension.SPEED): [30.0],
            ("snail", Dimension.SPEED): [0.01],
        }
    )
    rows = [
        ex("elephant", "cat", "weight", ">"),
        ex("cat", "elephant", "weight", "<"),
        ex("car", "snail", "speed", ">"),
    ]
    result = evaluate(table, rows)
    assert result["accuracy"] == 1.0
    assert result["scored"] == 3
    assert result["coverage"] == 1.0
    assert result["per_dimension"] == {"speed": 1.0, "weight": 1.0}


def test_evaluate_empty_table_equal_everywhere():
    # missing objects score median 0.0, so every prediction is EQUAL
    table = QuantTable(BuildConfig())
    rows = [
        ex("a", "b", "size", "<"),
        ex("c", "d", "size", "="),
        ex("e", "f", "size", ">"),
        ex("g", "h", "size", "="),
    ]
    result = evaluate(table, rows)
    assert result["accuracy"] == 0.5
    assert result["coverage"] == 0.0


def test_evaluate_majority_baseline():
    table = QuantTable(BuildConfig())
    rows = [
        ex("a", "b", "size", "<"),
        ex("c", "d", "size", "<"),
        ex("e", "f", "size", ">"),
    ]
    assert evaluate(table, rows)["majority_baseline"] == pytest.approx(2 / 3)


def test_evaluate_skips_na_and_uncovered_scales():
    table = planted_table({("stone", Dimension.MASS): [2.0]})
    rows = [
        ex("stone", "feather", "weight", ">"),
        ex("stone", "feather", "rigidity", ">"),
        ex("sound", "light", "speed", "NA"),
    ]
    result = evaluate(table, rows)
    assert result["scored"] == 1
    assert result["skipped_not_comparable"] == 1
    assert result["out_of_coverage"] == 1
    assert result["accuracy"] == 1.0


def test_evaluate_row_order_invariant():
    rng = random.Random(7)
    table = planted_table(
        {
            ("a", Dimension.LENGTH): [1.0],
            ("b", Dimension.LENGTH): [5.0],
            ("c", Dimension.LENGTH): [5.2],
        }
    )
    rows = [
        ex("a", "b", "size", "<"),
        ex("b", "c", "size", "="),
        ex("c", "a", "size", ">"),
        ex("a", "c", "size", "<"),
    ]
    baseline = evaluate(table, rows)
    for _ in range(10):
        rng.shuffle(rows)
        assert evaluate(table, rows) == baseline


def test_evaluate_swap_invariant():
    # swapping the pair and inverting the gold label cannot change accuracy
    table = planted_table(
        {
            ("a", Dimension.MASS): [10.0],
            ("b", Dimension.MASS): [2.0],
        }
    )
    inverse = {"<": ">", ">": "<", "=": "="}
    for label in ("<", "=", ">"):
        straight = evaluate(table, [ex("a", "b", "weight", label)])
        flipped = evaluate(table, [ex("b", "a", "weight", inverse[label])])
        assert straight["accuracy"] == flipped["accuracy"]


# --------------------------------------------------------------- leakage


def test_leakage_transitive_chain():
    train = [
        ex("person", "fox", "size", ">"),
        ex("fox", "goose", "size", ">"),
    ]
    eval_split = [ex("person", "goose", "size", ">")]
    report = detect_leakage(train, eval_split)
    assert report.transitive_flags == {0}
    assert report.object_flags == {0}
    assert report.rates["transitive"] == 1.0


def test_leakage_direct_reversal():
    report = detect_leakage([ex("a", "b", "size", ">")], [ex("b", "a", "size", "<")])
    assert report.transitive_flags == {0}


def test_leakage_equality_contraction():
    train = [
        ex("hound", "dog", "size", "="),
        ex("dog", "mouse", "size", ">"),
    ]
    eval_split = [
        ex("hound", "mouse", "size", ">"),
        ex("hound", "dog", "size", "="),
    ]
    report = detect_leakage(train, eval_split)
    assert report.transitive_flags == {0, 1}


def test_leakage_requires_strict_edge_for_order():
    # equality alone cannot justify a strict eval label
    report = detect_leakage([ex("a", "b", "size", "=")], [ex("a", "b", "size", ">")])
    assert report.transitive_flags == frozenset()
    assert report.object_flags == {0}


def test_leakage_scale_separation():
    # a size chain says nothing about weight
    train = [ex("a", "b", "size", ">")]
    report = detect_leakage(train, [ex("a", "b", "weight", ">")])
    assert report.transitive_flags == frozenset()
    assert report.object_flags == {0}  # object leakage ignores the scale


def test_leakage_absent_objects_clean():
    report = detect_leakage([ex("a", "b", "size", ">")], [ex("c", "d", "size", ">")])
    assert report.clean
    assert report.rates == {"transitive": 0.0, "object": 0.0}


def test_leakage_wrong_direction_not_flagged():
    train = [ex("a", "b", "size", ">"), ex("b", "c", "size", ">")]
    report = detect_leakage(train, [ex("c", "a", "size", ">")])
    assert report.transitive_flags == frozenset()


def test_leakage_matches_independent_closure():
    # oracle: keep equalities as bidirectional zero-cost edges and BFS over
    # (node, crossed_strict_edge) states instead of contracting components
    rng = random.Random(41)
    names = [f"o{i}" for i in range(12)]
    for _ in range(60):
        train = []
        for _ in range(14):
            a, b = rng.sample(names, 2)
            train.append(ex(a, b, "size", rng.choice(["<", "=", ">"])))
        eval_split = []
        for _ in range(10):
            a, b = rng.sample(names, 2)
            eval_split.append(ex(a, b, "size", rng.choice(["<", "=", ">"])))

        adj = {}  # node -> [(node, strict)]
        for t in train:
            if t.gold is ComparisonLabel.EQUAL:
                adj.setdefault(t.object1, []).append((t.object2, False))
                adj.setdefault(t.object2, []).append((t.object1, False))
            else:
                hi, lo = (
                    (t.object1, t.object2)
                    if t.gold is ComparisonLabel.GREATER
                    else (t.object2, t.object1)
                )
                adj.setdefault(hi, []).append((lo, True))

        def oracle_flag(e):
            if e.gold is ComparisonLabel.EQUAL:
                return _equality_reach(adj, e.object1, e.object2)
            if e.gold is ComparisonLabel.GREATER:
                return _strict_reach(adj, e.object1, e.object2)
            return _strict_reach(adj, e.object2, e.object1)

        report = detect_leakage(train, eval_split)
        for idx, e in enumerate(eval_split):
            assert (idx in report.transitive_flags) == oracle_flag(e), (train, e)


def _strict_reach(adj, a, b):
    """True when b is reachable from a through at least one strict hop."""
    seen = set()
    stack = [(a, False)]
    while stack:
        node, strict = stack.pop()
        if node == b and strict:
            return True
        for nxt, edge_strict in adj.get(node, ()):
            state = (nxt, strict or edge_strict)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def _equality_reach(adj, a, b):
    """True when b is reachable from a through equality edges alone."""
    seen = {a}
    stack = [a]
    while stack:
        node = stack.pop()
        if node == b:
            return True
        for nxt, edge_strict in adj.get(node, ()):
            if not edge_strict and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# ---------------------------------------------------------------- splits


def _clique_dataset(n_cliques, size, rng):
    rows = []
    for c in range(n_cliques):
        members = [f"c{c}_m{i}" for i in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                rows.append(ex(members[i], members[j], "size", rng.choice(["<", ">"])))
    rng.shuffle(rows)
    return rows


def test_clean_split_no_leakage():
    rng = random.Random(3)
    rows = _clique_dataset(12, 4, rng)
    train, dev, test = make_clean_split(rows, seed=5)
    assert len(train) + len(dev) + len(test) == len(rows)
    assert sorted(map(id, train + dev + test)) == sorted(map(id, rows))
    for eval_part in (dev, test):
        report = detect_leakage(train, eval_part)
        assert report.clean


def test_clean_split_respects_ratios_roughly():
    rng = random.Random(11)
    rows = _clique_dataset(40, 3, rng)
    train, dev, test = make_clean_split(rows, seed=1)
    assert len(train) > len(dev)
    assert len(train) > len(test)
    assert dev and test


def test_clean_split_single_component_infeasible():
    rows = [
        ex("a", "b", "size", "<"),
        ex("b", "c", "size", "<"),
        ex("c", "d", "size", "<"),
    ]
    with pytest.raises(SplitInfeasibleError):
        make_clean_split(rows)


def test_clean_split_fully_connected_infeasible():
    names = [f"n{i}" for i in range(6)]
    rows = [
        ex(a, b, "size", "<") for i, a in enumerate(names) for b in names[i + 1 :]
    ]
    with pytest.raises(SplitInfeasibleError):
        make_clean_split(rows)


def test_clean_split_deterministic_per_seed():
    rng = random.Random(19)
    rows = _clique_dataset(10, 3, rng)
    first = make_clean_split(rows, seed=42)
    second = make_clean_split(rows, seed=42)
    assert first == second


def test_clean_split_preserves_row_order_within_split():
    rng = random.Random(23)
    rows = _clique_dataset(8, 3, rng)
    train, dev, test = make_clean_split(rows, seed=2)
    index = {id(r): i for i, r in enumerate(rows)}
    for part in (train, dev, test):
        positions = [index[id(r)] for r in part]
        assert positions == sorted(positions)


def test_clean_split_empty_input():
    assert make_clean_split([]) == ([], [], [])


def test_clean_split_bad_ratios():
    rows = [ex("a", "b", "size", "<"), ex("c", "d", "size", "<")]
    with pytest.raises(ValueError):
        make_clean_split(rows, ratios=(0.5, 0.5))
    nan = float("nan")
    for ratios in ((0.9, 0.2, -0.1), (nan, 0.5, 0.5), (nan, nan, nan)):
        with pytest.raises(ValueError):
            make_clean_split(rows, ratios=ratios)


def test_report_clean_property():
    report = LeakageReport(frozenset(), frozenset(), {"transitive": 0.0, "object": 0.0})
    assert report.clean
    report = LeakageReport(frozenset({1}), frozenset(), {"transitive": 0.5, "object": 0.0})
    assert not report.clean

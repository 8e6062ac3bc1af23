"""Comparison-dataset scoring, leakage auditing, and clean splitting.

Datasets are TSV files of object pairs with gold order labels. Scoring
labels each pair by the rule of ``compare_nouns``, with the same ``tau``;
which entries count as evidence was fixed when the table was finalized.
The harness can also audit a train/eval split for two kinds of
contamination: transitive leakage (the eval pair is derivable by
chaining train pairs of the same scale) and object leakage (an eval
object already appears in train), and can rebuild splits that are free
of both by keeping each connected component of the object graph inside
a single split.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
import random

from .errors import DatasetFormatError, LocatedLines, SplitInfeasibleError, replaced
from .inference import ComparisonLabel, _check_tau, _label, query_distribution
from .table import QuantTable
from .units import Dimension

# dataset-native scale names that map onto a measurement dimension;
# scales without one (strength, rigidity) load fine but cannot be scored
SCALE_MAP = {
    "size": Dimension.LENGTH,
    "weight": Dimension.MASS,
    "speed": Dimension.SPEED,
}

_LABELS = {"NA": None, **{label.value: label for label in ComparisonLabel}}


@dataclass(frozen=True)
class ComparisonExample:
    object1: str
    object2: str
    scale: str  # dataset-native name, lowercased
    dimension: Dimension | None  # None = out of the resource's coverage
    gold: ComparisonLabel | None  # None = not comparable


@dataclass(frozen=True)
class LeakageReport:
    transitive_flags: frozenset[int]  # indices into the eval split
    object_flags: frozenset[int]
    rates: dict

    @property
    def clean(self) -> bool:
        return not self.transitive_flags and not self.object_flags


def dimension_named(name: str) -> Dimension | None:
    """The dimension a dataset scale or dimension name stands for; None if neither."""
    name = name.strip().lower()
    return SCALE_MAP.get(name) or Dimension.__members__.get(name.upper())


def _parse_example(line: str, first: bool) -> ComparisonExample | None:
    """One dataset row; None for a header as the first row, ValueError if malformed."""
    parts = line.split("\t")
    if len(parts) != 4:
        raise ValueError(f"expected 4 tab-separated columns, got {len(parts)}")
    o1, o2, scale_s, label_s = (p.strip() for p in parts)
    if first and label_s.lower() == "label":
        return None
    if label_s not in _LABELS:
        raise ValueError(f"unknown label {label_s!r}")
    gold = _LABELS[label_s]
    if not o1 or not o2:
        raise ValueError("empty object name")
    o1, o2 = o1.lower(), o2.lower()
    if o1 == o2 and gold is not ComparisonLabel.EQUAL:
        raise ValueError(f"identical objects {o1!r} need an '=' label")
    scale = scale_s.lower()
    if not scale:
        raise ValueError("empty dimension name")
    return ComparisonExample(o1, o2, scale, dimension_named(scale), gold)


def load_dataset(path) -> list[ComparisonExample]:
    """Parse `object1<TAB>object2<TAB>dimension<TAB>label` rows.

    Labels are <, =, > or NA; one header line is allowed. NA rows are
    kept so audits see every pair, but they never enter accuracy.
    """
    examples: list[ComparisonExample] = []
    with LocatedLines(path, DatasetFormatError) as lines:
        for line in lines:
            if line.strip() and not line.lstrip().startswith("#"):
                example = _parse_example(line, first=lines.line_number == 1)
                if example is not None:
                    examples.append(example)
    return examples


def write_dataset(path, examples) -> None:
    """Write ``examples`` under a header line, as rows that ``load_dataset`` reads back."""
    with replaced(path) as fh:
        fh.write("object1\tobject2\tdimension\tlabel\n")
        for ex in examples:
            label = ex.gold.value if ex.gold else "NA"
            fh.write(f"{ex.object1}\t{ex.object2}\t{ex.scale}\t{label}\n")


def evaluate(table: QuantTable, examples, tau: float = 1.1) -> dict:
    """Accuracy of median comparison against gold labels.

    Only rows with a usable gold label and an in-coverage dimension are
    scored. Each object is looked up once: an unknown one falls back to
    the 0-median rule of ``compare_nouns`` rather than being skipped, and
    a row is covered when both objects have an entry.
    """
    _check_tau(tau)
    scored = 0
    correct = 0
    covered = 0
    gold_counts: defaultdict = defaultdict(int)
    per_scale_total: defaultdict = defaultdict(int)
    per_scale_correct: defaultdict = defaultdict(int)
    skipped_na = 0
    out_of_coverage = 0
    for ex in examples:
        if ex.gold is None:
            skipped_na += 1
            continue
        if ex.dimension is None:
            out_of_coverage += 1
            continue
        d1 = query_distribution(table, ex.object1, ex.dimension)
        d2 = query_distribution(table, ex.object2, ex.dimension)
        scored += 1
        gold_counts[ex.gold] += 1
        per_scale_total[ex.scale] += 1
        if _label(d1, d2, tau) is ex.gold:
            correct += 1
            per_scale_correct[ex.scale] += 1
        if d1 is not None and d2 is not None:
            covered += 1
    return {
        "accuracy": correct / scored if scored else 0.0,
        "coverage": covered / scored if scored else 0.0,
        "majority_baseline": max(gold_counts.values()) / scored if scored else 0.0,
        "per_dimension": {
            scale: per_scale_correct[scale] / per_scale_total[scale]
            for scale in sorted(per_scale_total)
        },
        "scored": scored,
        "skipped_not_comparable": skipped_na,
        "out_of_coverage": out_of_coverage,
    }


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _order_graphs(train):
    """Per-scale strict order graphs with EQUAL groups contracted.

    Returns {scale: (uf, edges)} where edges maps a component root to the
    set of roots it is strictly greater than.
    """
    graphs: dict = {}
    for ex in train:
        if ex.gold is None:
            continue
        uf, _ = graphs.setdefault(ex.scale, (_UnionFind(), []))
        uf.add(ex.object1)
        uf.add(ex.object2)
        if ex.gold is ComparisonLabel.EQUAL:
            uf.union(ex.object1, ex.object2)
        else:
            graphs[ex.scale][1].append(ex)
    finished = {}
    for scale, (uf, strict) in graphs.items():
        edges: defaultdict = defaultdict(set)
        for ex in strict:
            hi, lo = (
                (ex.object1, ex.object2)
                if ex.gold is ComparisonLabel.GREATER
                else (ex.object2, ex.object1)
            )
            edges[uf.find(hi)].add(uf.find(lo))
        finished[scale] = (uf, edges)
    return finished


def _reaches(edges, start, goal) -> bool:
    """True when goal is reachable from start through >= 1 strict edge."""
    seen = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in edges.get(node, ()):
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def detect_leakage(train, eval_split) -> LeakageReport:
    """Flag eval examples contaminated by the train split.

    An example is transitive-flagged when its oriented pair follows from
    chaining train pairs of the same scale (equality chains included),
    and object-flagged when either object occurs anywhere in train.
    """
    graphs = _order_graphs(train)
    train_objects = set()
    for ex in train:
        train_objects.add(ex.object1)
        train_objects.add(ex.object2)
    transitive = set()
    objects = set()
    for idx, ex in enumerate(eval_split):
        if ex.object1 in train_objects or ex.object2 in train_objects:
            objects.add(idx)
        if ex.gold is None or ex.scale not in graphs:
            continue
        uf, edges = graphs[ex.scale]
        if ex.object1 not in uf.parent or ex.object2 not in uf.parent:
            continue
        r1, r2 = uf.find(ex.object1), uf.find(ex.object2)
        if ex.gold is ComparisonLabel.EQUAL:
            if r1 == r2:
                transitive.add(idx)
        elif ex.gold is ComparisonLabel.GREATER:
            if _reaches(edges, r1, r2):
                transitive.add(idx)
        else:
            if _reaches(edges, r2, r1):
                transitive.add(idx)
    n = len(eval_split)
    return LeakageReport(
        transitive_flags=frozenset(transitive),
        object_flags=frozenset(objects),
        rates={
            "transitive": len(transitive) / n if n else 0.0,
            "object": len(objects) / n if n else 0.0,
        },
    )


def make_clean_split(
    examples, ratios=(0.8, 0.1, 0.1), seed: int = 0
) -> tuple[list, list, list]:
    """Deterministic leakage-free (train, dev, test) partition.

    Connected components of the object co-occurrence graph are assigned
    whole to one split, greedily filling whichever split is furthest
    below its target ratio. Splits therefore share no objects at all,
    which rules out both leakage kinds by construction.
    """
    if len(ratios) != 3 or not (all(r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ValueError("ratios must be three non-negative numbers summing to 1")
    examples = list(examples)
    if not examples:
        return [], [], []
    uf = _UnionFind()
    for ex in examples:
        uf.union(ex.object1, ex.object2)
    by_root: defaultdict = defaultdict(list)
    for idx, ex in enumerate(examples):
        by_root[uf.find(ex.object1)].append(idx)
    components = list(by_root.values())
    if len(components) < 2:
        raise SplitInfeasibleError(
            "object graph is a single connected component; no leakage-free "
            "split can separate train from eval"
        )
    rng = random.Random(seed)
    rng.shuffle(components)
    components.sort(key=len, reverse=True)  # stable: seed decides tie order
    total = len(examples)
    assigned: tuple[list, list, list] = ([], [], [])
    for component in components:
        deficits = [
            ratios[i] * total - len(assigned[i]) for i in range(3)
        ]
        target = max(range(3), key=lambda i: (deficits[i], -i))
        assigned[target].extend(component)
    train, dev, test = (
        [examples[i] for i in sorted(bucket)] for bucket in assigned
    )
    return train, dev, test

"""Seeded synthetic corpora with planted answers.

Nothing is downloaded. ``generate`` draws every input from
``random.Random(seed)`` and writes it to files: plain-text shards,
annotated column-format shards and a comparison-pair dataset. The
program under test only ever sees those files; the planted truth stays
with the benchmark, which checks the program's answers against it.

Planting rules that keep the answers checkable:

- Every object belongs to one dimension and has a planted median there.
  Within a dimension the medians are one decade apart (hour-of-day
  medians are at least a factor 1.29 apart), so noun comparisons have an
  unambiguous answer.
- A sentence that measures an object measures only that object, in its
  own dimension, so no other object's values leak into its samples.
- Adjectives shift the measured value by a fixed number of decades
  (tiny -0.6, small -0.3, large +0.3, huge +0.6). Adjective pairs at
  least 0.6 decades apart have a fixed vote on every shared head.
- Noise (+-0.1 decade), range endpoints (x/1.2 and x*1.2) and
  adjective shifts together keep each noun median within 0.45 decades
  of its planted value, given at least ``MIN_INSTANCES`` instances.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys

# dimension -> (pair-dataset scale name, objects from low to high median,
# lowest median in standard units)
DIMENSIONS = {
    "MASS": ("weight", ("beetle", "acorn", "rabbit", "wolf", "walrus", "lorry"), 0.003),
    "LENGTH": ("size", ("flea", "pencil", "canoe", "runway", "canal", "glacier"), 0.002),
    "SPEED": ("speed", ("snail", "tortoise", "cyclist", "greyhound", "airliner", "rocket"), 0.01),
    "DURATION": ("duration", ("sneeze", "lecture", "voyage", "pregnancy", "drought", "dynasty"), 1.0),
    "CURRENCY": ("currency", ("sandwich", "bicycle", "tractor", "mansion", "stadium", "satellite"), 5.0),
    "TIME": ("time", ("milking", "breakfast", "lunch", "matinee", "dinner"), None),
}
TIME_MEDIANS = (3.5, 7.0, 11.0, 15.5, 20.0)  # hours of day

# surface tokens and the factor into the dimension's standard unit
UNITS = {
    "MASS": ((("kg",), 1.0), (("g",), 1e-3), (("tonnes",), 1000.0), (("pounds",), 0.45359237)),
    "LENGTH": ((("meters",), 1.0), (("km",), 1000.0), (("cm",), 0.01), (("feet",), 0.3048)),
    "SPEED": ((("m/s",), 1.0), (("km/h",), 1 / 3.6), (("mph",), 0.44704)),
    "DURATION": ((("seconds",), 1.0), (("minutes",), 60.0), (("hours",), 3600.0), (("days",), 86400.0)),
    "CURRENCY": ((("dollars",), 1.0), (("euros",), 1.1)),
}
CURRENCY_PREFIXES = (("$", 1.0), ("£", 1.3), ("€", 1.1))
MAGNITUDES = (("billion", 1e9), ("million", 1e6), ("thousand", 1e3))
VERBS = {
    "MASS": ("weighs", "weighed"),
    "LENGTH": ("measures", "stretches"),
    "SPEED": ("moves", "travels"),
    "DURATION": ("lasts", "takes"),
    "CURRENCY": ("costs", "fetches"),
    "TIME": ("starts", "begins"),
}
ADJECTIVE_SHIFTS = {"tiny": -0.6, "small": -0.3, "large": 0.3, "huge": 0.6}
# pairs whose shifts differ by >= 0.6 decades: the vote is fixed on every head
ADJECTIVE_PAIRS = (("tiny", "large"), ("small", "huge"), ("tiny", "huge"), ("large", "small"))
COMPOUND_MODIFIERS = ("baby", "spare", "model", "vintage")
FUNCTION_WORDS = ("the", "of", "and", "a", "in", "to", "was", "it", "with", "for", "on", "by")
UNMAPPED_SCALES = ("strength", "rigidity")
ADJECTIVE_SHARE = 0.5  # of measured instances, outside TIME
NOISE_DECADES = 0.1
RANGE_FACTOR = 1.2
MIN_INSTANCES = 25  # per object, whatever the Zipf draw gives it
SHARDS = 4
# plain text: shares of sentences that measure an object, that negate a
# measurement, and that hold a number with no unit; the rest are filler
MEASURED_SHARE = 0.15
NEGATED_SHARE = 0.03
UNITLESS_SHARE = 0.10
VOCABULARY_SIZE = 4000

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# pseudo-words the syllable generator can produce that the program would
# read as a unit alias, stopword, abbreviation or magnitude word
_RESERVED = frozenset({"before", "kilo", "mile", "minute", "more", "same", "some"})


def planted_medians() -> dict:
    medians = {}
    for dim, (_, objects, lowest) in DIMENSIONS.items():
        if dim == "TIME":
            medians[dim] = dict(zip(objects, TIME_MEDIANS))
        else:
            medians[dim] = {obj: lowest * 10.0**rank for rank, obj in enumerate(objects)}
    return medians


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    """Pseudo-words of two or three consonant-vowel syllables."""
    taken = set(_RESERVED)
    for _, objects, _ in DIMENSIONS.values():
        taken.update(objects)
    taken.update(ADJECTIVE_SHIFTS, COMPOUND_MODIFIERS, FUNCTION_WORDS)
    words = []
    while len(words) < size:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.choice((2, 2, 3)))
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _format_number(x: float) -> str:
    """Three significant digits, thousands separators, never an exponent."""
    digits = 2 - math.floor(math.log10(x))
    if digits <= 0:
        return f"{int(round(x, digits)):,}"
    return f"{x:.{digits}f}"


class _Writer:
    """Draws sentences as (surface, pos, head) token lists."""

    def __init__(self, rng: random.Random, vocabulary: list[str]):
        self.rng = rng
        self.vocab = vocabulary
        self.cum_weights = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(vocabulary))))
        self.medians = planted_medians()

    def filler_words(self, n: int) -> list[str]:
        picks = self.rng.choices(self.vocab, cum_weights=self.cum_weights, k=n)
        return [
            self.rng.choice(FUNCTION_WORDS) if self.rng.random() < 0.35 else w for w in picks
        ]

    def instance_value(self, dim: str, obj: str, adjective: str | None) -> float:
        median = self.medians[dim][obj]
        if dim == "TIME":
            return median + self.rng.uniform(-0.25, 0.25)
        shift = ADJECTIVE_SHIFTS[adjective] if adjective else 0.0
        return median * 10.0 ** (shift + self.rng.uniform(-NOISE_DECADES, NOISE_DECADES))

    def _amount(self, value: float) -> list[str]:
        """A positive amount, sometimes with a magnitude word."""
        if value >= 1e4 and self.rng.random() < 0.5:
            for word, factor in MAGNITUDES:
                if value >= factor:
                    return [_format_number(value / factor), word]
        return [_format_number(value)]

    def _unit_mention(self, dim: str, value: float) -> list[str]:
        if dim == "CURRENCY" and self.rng.random() < 0.6:
            prefix, rate = self.rng.choice(CURRENCY_PREFIXES)
            return [prefix] + self._amount(value / rate)
        surfaces, scale = self.rng.choice(UNITS[dim])
        return self._amount(value / scale) + list(surfaces)

    def _range_mention(self, dim: str, value: float) -> list[str]:
        surfaces, scale = self.rng.choice(UNITS[dim])
        lo = _format_number(value / RANGE_FACTOR / scale)
        hi = _format_number(value * RANGE_FACTOR / scale)
        return [lo, self.rng.choice(("to", "-", "and")), hi] + list(surfaces)

    def _clock_mention(self, hour: float) -> list[str]:
        minutes = int(round(hour * 60)) % (24 * 60)
        h, m = divmod(minutes, 60)
        kind = self.rng.random()
        if kind < 0.3 and (2 <= h <= 10 or 14 <= h <= 22):
            meridiem = "pm" if h >= 12 else "am"
            return [str(h % 12 - 1), self.rng.choice(("to", "-")), str(h % 12 + 1), meridiem]
        if kind < 0.6 and 1 <= h % 12 and h != 12:
            return [f"{h % 12}:{m:02d}", "pm" if h >= 12 else "am"]
        return [f"{h}:{m:02d}"]

    def mention(self, dim: str, value: float) -> list[str]:
        """One measurement: range, clock, clock range, prefix or plain unit."""
        if dim == "TIME":
            return self._clock_mention(value)
        if self.rng.random() < 0.2:
            return self._range_mention(dim, value)
        return self._unit_mention(dim, value)


def _object_schedule(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """``count`` (dimension, object) draws: a floor per object, then Zipf.

    The Zipf ranks are fixed (objects in declaration order) so that every
    seed gives tables of the same shape and cost; the seed only decides
    which sentence measures which object and with what noise.
    """
    objects = [(dim, obj) for dim, (_, objs, _) in DIMENSIONS.items() for obj in objs]
    # every dimension's first object, then every dimension's second, ...
    order = sorted(objects, key=lambda o: DIMENSIONS[o[0]][1].index(o[1]))
    floor = min(MIN_INSTANCES, count // len(objects))
    schedule = [o for o in objects for _ in range(floor)]
    weights = [1.0 / (r + 1) ** 1.1 for r in range(len(order))]
    schedule += rng.choices(order, weights=weights, k=max(0, count - len(schedule)))
    rng.shuffle(schedule)
    return schedule


def annotated_sentence(writer: _Writer, dim: str, obj: str) -> list[tuple[str, str, int | None]]:
    """A dense sentence: one object, one to three mentions, a filler tail.

    Heads: determiners, adjectives and compound modifiers point at the
    object, the object and mention tokens at the verb, which is the root.
    """
    rng = writer.rng
    adjective = None
    if dim != "TIME" and rng.random() < ADJECTIVE_SHARE:
        adjective = rng.choice(tuple(ADJECTIVE_SHIFTS))
    value = writer.instance_value(dim, obj, adjective)
    pre = [("the", "OTHER")]
    if adjective:
        pre.append((adjective, "ADJ"))
    if rng.random() < 0.3:
        pre.append((rng.choice(COMPOUND_MODIFIERS), "NOUN"))
    obj_index = len(pre)
    verb_index = obj_index + 1
    tokens = [(s, p, obj_index) for s, p in pre]
    tokens.append((obj, "NOUN", verb_index))
    tokens.append((rng.choice(VERBS[dim]), "VERB", None))
    if dim in ("SPEED", "TIME"):
        tokens.append(("at", "OTHER", verb_index))
    for k in range(rng.choice((1, 1, 2, 3))):
        if k:
            tokens.append((",", "OTHER", verb_index))
            tokens.append((rng.choice(("or", "about", "nearly")), "OTHER", verb_index))
        for surface in writer.mention(dim, value):
            pos = "NOUN" if surface[0].isalpha() and surface not in ("to", "and") else "OTHER"
            tokens.append((surface, pos, verb_index))
    tail = writer.filler_words(rng.randint(3, 10))
    for word in tail:
        if word in FUNCTION_WORDS:
            tokens.append((word, "OTHER", verb_index))
        else:
            tokens.append((word, rng.choice(("NOUN", "NOUN", "VERB", "ADJ")), verb_index))
    tokens.append((".", "OTHER", verb_index))
    return tokens


def plain_sentence(writer: _Writer, kind: str, dim: str | None = None, obj: str | None = None) -> str:
    """One plain sentence of the given kind, capitalized, ending in '.'."""
    rng = writer.rng
    if kind == "measure":
        adjective = None
        if dim != "TIME" and rng.random() < ADJECTIVE_SHARE:
            adjective = rng.choice(tuple(ADJECTIVE_SHIFTS))
        value = writer.instance_value(dim, obj, adjective)
        words = writer.filler_words(rng.randint(0, 4)) + ["the"]
        if adjective:
            words.append(adjective)
        words += [obj, rng.choice(VERBS[dim])]
        if dim in ("SPEED", "TIME"):
            words.append("at")
        words += writer.mention(dim, value)
        words += writer.filler_words(rng.randint(2, 10))
    elif kind == "negated":
        # a decoy a factor 1000 off that the negation rule must drop
        value = writer.instance_value(dim, obj, None)
        value = value if dim == "TIME" else value * 1000.0
        words = ["the", obj, "did", "not", rng.choice(VERBS[dim])]
        if dim in ("SPEED", "TIME"):
            words.append("at")
        words += writer.mention(dim, value) + writer.filler_words(rng.randint(2, 8))
    elif kind == "unitless":
        words = writer.filler_words(rng.randint(2, 8))
        words += [str(rng.randint(2, 999))] + writer.filler_words(rng.randint(2, 10))
    else:
        words = writer.filler_words(rng.randint(8, 25))
    text = " ".join(words)
    # glue prefix currency symbols to their numbers, as printed text does
    for prefix, _ in CURRENCY_PREFIXES:
        text = text.replace(f"{prefix} ", prefix)
    return text[0].upper() + text[1:] + "."


def _plain_corpus(writer: _Writer, n: int) -> list[str]:
    rng = writer.rng
    n_measure = int(n * MEASURED_SHARE)
    n_negated = int(n * NEGATED_SHARE)
    n_unitless = int(n * UNITLESS_SHARE)
    kinds = (
        ["measure"] * n_measure
        + ["negated"] * n_negated
        + ["unitless"] * n_unitless
        + ["filler"] * (n - n_measure - n_negated - n_unitless)
    )
    rng.shuffle(kinds)
    measured = iter(_object_schedule(rng, n_measure))
    negated = iter(_object_schedule(rng, n_negated))
    sentences = []
    for kind in kinds:
        dim, obj = next(measured) if kind == "measure" else (
            next(negated) if kind == "negated" else (None, None)
        )
        sentences.append(plain_sentence(writer, kind, dim, obj))
    return sentences


def _pair_rows(rng: random.Random, n: int, medians: dict) -> list[tuple[str, str, str, str]]:
    """Pairs with planted labels, plus '=', NA and unmapped-scale rows."""
    rows = []
    dims = list(DIMENSIONS)
    for _ in range(n):
        dim = rng.choice(dims)
        scale, objects, _ = DIMENSIONS[dim]
        kind = rng.random()
        if kind < 0.03:
            obj = rng.choice(objects)
            rows.append((obj, obj, scale, "="))
            continue
        o1, o2 = rng.sample(objects, 2)
        if kind < 0.08:
            rows.append((o1, o2, scale, "NA"))
        elif kind < 0.13:
            rows.append((o1, o2, rng.choice(UNMAPPED_SCALES), "<" if rng.random() < 0.5 else ">"))
        else:
            m1, m2 = medians[dim][o1], medians[dim][o2]
            rows.append((o1, o2, scale, "<" if m1 < m2 else ">"))
    return rows


def _write_annotated(path: str, sentences) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        for tokens in sentences:
            for idx, (surface, pos, head) in enumerate(tokens):
                fh.write(f"{idx}\t{surface}\t{pos}\t{'-' if head is None else head}\n")
            fh.write("\n")
    return os.path.getsize(path)


def generate(out_dir: str, seed: int, plain: int = 0, annotated: int = 0, pairs: int = 0) -> dict:
    """Write every input for one workload under ``out_dir``; return the manifest.

    ``plain`` and ``annotated`` are sentence counts, ``pairs`` the rows of
    the pair dataset. The same seed and sizes give byte-identical files.
    Besides the corpus shards and ``pairs.tsv`` it writes
    ``audit_train.tsv`` and ``audit_eval.tsv`` (a random 80/20 row split of
    the pairs, so the leakage audit has something to find), ``truth.json``
    with the planted medians, and ``manifest.json``, which this function
    also returns.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    writer = _Writer(rng, make_vocabulary(rng, VOCABULARY_SIZE))
    manifest = {
        "seed": seed,
        "plain_shards": [],
        "annotated_shards": [],
        "pairs": None,
        "sentences": {},
        "bytes": {},
    }

    def written(path):
        manifest["bytes"][os.path.basename(path)] = os.path.getsize(path)
        return os.path.basename(path)

    if plain:
        sentences = _plain_corpus(writer, plain)
        # a few sentences per line, as paragraphs; each shard gets whole lines
        lines = []
        i = 0
        while i < len(sentences):
            k = rng.randint(1, 5)
            lines.append(" ".join(sentences[i : i + k]))
            i += k
        for s in range(SHARDS):
            path = os.path.join(out_dir, f"plain_{s}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines[s::SHARDS]) + "\n")
            manifest["plain_shards"].append(written(path))
        manifest["sentences"]["plain"] = len(sentences)

    if annotated:
        schedule = _object_schedule(rng, annotated)
        sentences = [annotated_sentence(writer, dim, obj) for dim, obj in schedule]
        for s in range(SHARDS):
            path = os.path.join(out_dir, f"annotated_{s}.tsv")
            _write_annotated(path, sentences[s::SHARDS])
            manifest["annotated_shards"].append(written(path))
        manifest["sentences"]["annotated"] = len(sentences)

    if pairs:
        rows = _pair_rows(rng, pairs, writer.medians)
        audit = list(rows)
        rng.shuffle(audit)
        cut = len(audit) * 4 // 5
        for name, chunk in (("pairs.tsv", rows), ("audit_train.tsv", audit[:cut]),
                            ("audit_eval.tsv", audit[cut:])):
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("object1\tobject2\tdimension\tlabel\n")
                for row in chunk:
                    fh.write("\t".join(row) + "\n")
            written(path)
        manifest["pairs"] = "pairs.tsv"
        manifest["sentences"]["pairs"] = len(rows)

    truth = {
        "medians": writer.medians,
        "scales": {scale: dim for dim, (scale, _, _) in DIMENSIONS.items()},
    }
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--plain", type=int, default=0, help="plain sentences")
    parser.add_argument("--annotated", type=int, default=0, help="annotated sentences")
    parser.add_argument("--pairs", type=int, default=0, help="comparison pairs")
    args = parser.parse_args(argv)
    generate(args.out, args.seed, args.plain, args.annotated, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Corpus ingestion: sentence splitting, candidate objects, co-occurrence.

Sentences arrive either as plain text (every content word becomes an
UNKNOWN-pos candidate) or pre-annotated with coarse POS tags and
dependency heads in a CoNLL-like column file. Each measurement mention in
a sentence is paired with every candidate object in range, producing
co-occurrence records for the aggregator. Sentences containing a negation
word contribute nothing at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .errors import AnnotationFormatError
from .parser import scan_measurements, tokenize
from .units import Quantity, UnitRegistry

NEGATION_WORDS = frozenset({"not", "no", "without", "neither", "nor"})

# words that end in "." without ending the sentence
ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "st", "mt", "no", "vs", "etc",
        "fig", "jr", "sr", "inc", "ltd", "co", "gen", "col", "capt",
        "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept",
        "oct", "nov", "dec", "approx", "dept", "est", "u.s", "u.k", "e.g", "i.e",
    }
)

_BOUNDARY_RE = re.compile(r"([.!?]+)(\s+)(?=[A-Z0-9])")
_WORD_RE = re.compile(r"^[a-z]+(?:-[a-z]+)*$")


class Pos(Enum):
    NOUN = "NOUN"
    ADJ = "ADJ"
    VERB = "VERB"
    OTHER = "OTHER"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class AnnotatedSentence:
    """One sentence as three parallel token columns: surface, POS tag, head index."""

    surfaces: tuple[str, ...]
    pos: tuple[Pos, ...]
    heads: tuple[int | None, ...]

    def __post_init__(self):
        if not len(self.surfaces) == len(self.pos) == len(self.heads):
            raise ValueError("surfaces, pos and heads must have one entry per token")

    @classmethod
    def from_plain(cls, sentence: str) -> "AnnotatedSentence":
        surfaces = tuple(tokenize(sentence))
        n = len(surfaces)
        return cls(surfaces, (Pos.UNKNOWN,) * n, (None,) * n)


@dataclass(frozen=True)
class ObjectKey:
    """What a measurement is attributed to: token or phrase, plus head."""

    surface: str
    pos: Pos = Pos.UNKNOWN
    head: str | None = None

    def __post_init__(self):
        if not self.surface:
            raise ValueError("ObjectKey surface must be nonempty")

    def without_head(self) -> "ObjectKey":
        if self.head is None:
            return self
        return ObjectKey(self.surface, self.pos, None)


@dataclass(frozen=True)
class CooccurrenceRecord:
    object: ObjectKey
    quantity: Quantity
    token_distance: int  # token gap; 0 means the spans are adjacent


@dataclass(frozen=True)
class ExtractionConfig:
    max_distance: int | None = None  # None = whole sentence
    min_phrase_count: int = 5
    max_phrase_len: int = 3
    negation_words: frozenset = NEGATION_WORDS

    def __post_init__(self):
        if self.max_distance is not None and not 1 <= self.max_distance <= 100:
            raise ValueError("max_distance must be None or within 1..100")
        if self.max_phrase_len < 1:
            raise ValueError("max_phrase_len must be >= 1")
        if self.min_phrase_count < 1:
            raise ValueError("min_phrase_count must be >= 1")


def load_stopwords() -> frozenset:
    text = resources.files("quantdist.data").joinpath("stopwords.txt").read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


_STOPWORDS: frozenset | None = None


def stopwords() -> frozenset:
    global _STOPWORDS
    if _STOPWORDS is None:
        _STOPWORDS = load_stopwords()
    return _STOPWORDS


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation followed by a capital or digit."""
    out = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        prev = text[start : m.end(1)]
        last_word = prev.rsplit(None, 1)[-1] if prev.split() else ""
        if last_word.rstrip(".").lower() in ABBREVIATIONS:
            continue
        out.append(text[start : m.end(1)].strip())
        start = m.end()
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return [s for s in out if s]


def contains_negation(tokens, negation_words=NEGATION_WORDS) -> bool:
    return any(t.lower() in negation_words for t in tokens)


def _candidate_objects(sentence: AnnotatedSentence, config: ExtractionConfig):
    """(ObjectKey, start, end) triples for tokens and noun phrases."""
    tags = sentence.pos
    low = [s.lower() for s in sentence.surfaces]
    stops = stopwords()
    candidates = []
    for i, (word, pos, head) in enumerate(zip(low, tags, sentence.heads)):
        if pos is Pos.UNKNOWN:
            if word not in stops and _WORD_RE.match(word):
                candidates.append((ObjectKey(word, Pos.UNKNOWN, None), i, i + 1))
        elif pos in (Pos.NOUN, Pos.ADJ, Pos.VERB):
            head_word = None if head is None else low[head]
            candidates.append((ObjectKey(word, pos, head_word), i, i + 1))
    if Pos.NOUN not in tags:
        return candidates  # plain text never has a noun run
    # contiguous noun runs become phrases headed by their final noun
    run_start = None
    for i in range(len(tags) + 1):
        is_noun = i < len(tags) and tags[i] is Pos.NOUN
        if is_noun and run_start is None:
            run_start = i
        elif not is_noun and run_start is not None:
            for s in range(run_start, i):
                for e in range(s + 2, min(i, s + config.max_phrase_len) + 1):
                    surface = " ".join(low[s:e])
                    candidates.append((ObjectKey(surface, Pos.NOUN, low[e - 1]), s, e))
            run_start = None
    return candidates


def extract_records(
    sentence: AnnotatedSentence, config: ExtractionConfig, registry: UnitRegistry
) -> list[CooccurrenceRecord]:
    """Pair every mention with every candidate object within range.

    A sentence containing any negation word yields no records at all.
    A candidate that overlaps any mention's span (a unit word, a range
    endpoint) is no object at all. Records whose token gap reaches
    max_distance are dropped, which makes the k=3 and k=10 record sets
    nest inside the whole-sentence set.
    """
    if contains_negation(sentence.surfaces, config.negation_words):
        return []
    mentions = scan_measurements(sentence.surfaces, registry)
    if not mentions:
        return []
    spans = [(m.start, m.end) for m in mentions]
    candidates = [
        (key, start, end)
        for key, start, end in _candidate_objects(sentence, config)
        if not any(start < m_end and m_start < end for m_start, m_end in spans)
    ]
    records = []
    for mention in mentions:
        for key, start, end in candidates:
            # end-exclusive spans that do not overlap: the token gap between them
            gap = mention.start - end if end <= mention.start else start - mention.end
            if config.max_distance is not None and gap >= config.max_distance:
                continue
            records.append(
                CooccurrenceRecord(object=key, quantity=mention.quantity, token_distance=gap)
            )
    return records


_POS_BY_NAME = {p.name: p for p in Pos}


def read_annotated(path):
    """Yield AnnotatedSentence blocks from a column file.

    Format: one token per line as `index<TAB>surface<TAB>pos<TAB>head_index`,
    blank line between sentences; head_index is `-` for none. Malformed
    lines raise AnnotationFormatError with their line number; a bad head
    index is reported at the last line of its sentence.
    """
    surfaces: list[str] = []
    tags: list[Pos] = []
    heads: list[int | None] = []

    def sentence() -> AnnotatedSentence:
        n = len(surfaces)
        for idx, head in enumerate(heads):
            if head is not None and (not 0 <= head < n or head == idx):
                raise ValueError(f"head index {head} invalid for a {n}-token sentence")
        out = AnnotatedSentence(tuple(surfaces), tuple(tags), tuple(heads))
        surfaces.clear()
        tags.clear()
        heads.clear()
        return out

    token_line = 0
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    if surfaces:
                        yield sentence()
                    continue
                token_line = lineno
                parts = raw.rstrip("\n").split("\t")
                if len(parts) != 4:
                    raise ValueError(f"expected 4 tab-separated columns, got {len(parts)}")
                idx_s, surface, pos_s, head_s = (p.strip() for p in parts)
                if int(idx_s) != len(surfaces):
                    raise ValueError(f"token index {idx_s} out of order, expected {len(surfaces)}")
                if not surface:
                    raise ValueError("empty token surface")
                pos = _POS_BY_NAME.get(pos_s.upper())
                if pos is None or pos is Pos.UNKNOWN:
                    raise ValueError(f"unknown pos tag {pos_s!r}")
                surfaces.append(surface)
                tags.append(pos)
                heads.append(None if head_s in ("-", "_", "") else int(head_s))
            if surfaces:
                yield sentence()
        except ValueError as exc:
            raise AnnotationFormatError(str(exc), line_number=token_line, path=str(path)) from None

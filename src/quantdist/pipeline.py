"""Corpus ingestion: sentence splitting, candidate objects, co-occurrence.

Sentences arrive either as plain text (every content word becomes an
UNKNOWN-pos candidate) or pre-annotated with coarse POS tags and
dependency heads in a CoNLL-like column file. Each measurement mention in
a sentence is paired with every candidate object in range, producing
co-occurrence records for the aggregator. Sentences containing a negation
word contribute nothing at all.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import NamedTuple

from .errors import CorpusFormatError
from .parser import scan_measurements, tokenize
from .units import Quantity, UnitRegistry

NEGATION_WORDS = frozenset({"not", "no", "without", "neither", "nor"})
MAX_PHRASE_LEN = 3  # longest noun run kept as one phrase object

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


class ObjectKey(NamedTuple):
    """What a measurement is attributed to: token or phrase, plus head."""

    surface: str
    pos: Pos = Pos.UNKNOWN
    head: str | None = None


class CooccurrenceRecord(NamedTuple):
    object: ObjectKey
    quantity: Quantity
    token_distance: int  # token gap; 0 means the spans are adjacent


def check_distance(distance: int | None) -> None:
    """A co-occurrence window is the whole sentence (None) or 1..100 tokens."""
    if distance is not None and not 1 <= distance <= 100:
        raise ValueError("distance must be None or within 1..100")


@dataclass(frozen=True)
class ExtractionConfig:
    max_distance: int | None = None  # None = whole sentence

    def __post_init__(self):
        check_distance(self.max_distance)


@functools.cache
def stopwords() -> frozenset:
    text = resources.files("quantdist.data").joinpath("stopwords.txt").read_text("utf-8")
    words = (line.strip().lower() for line in text.splitlines())
    return frozenset(w for w in words if w and not w.startswith("#"))


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


def contains_negation(tokens) -> bool:
    return any(t.lower() in NEGATION_WORDS for t in tokens)


def _candidate_objects(sentence: AnnotatedSentence):
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
                for e in range(s + 2, min(i, s + MAX_PHRASE_LEN) + 1):
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
    if contains_negation(sentence.surfaces):
        return []
    mentions = scan_measurements(sentence.surfaces, registry)
    if not mentions:
        return []
    spans = [(m.start, m.end) for m in mentions]
    candidates = [
        (key, start, end)
        for key, start, end in _candidate_objects(sentence)
        if not any(start < m_end and m_start < end for m_start, m_end in spans)
    ]
    records = []
    for mention in mentions:
        for key, start, end in candidates:
            # end-exclusive spans that do not overlap: the token gap between them
            gap = mention.start - end if end <= mention.start else start - mention.end
            if config.max_distance is not None and gap >= config.max_distance:
                continue
            records.append(CooccurrenceRecord(key, mention.quantity, gap))
    return records


def read_plain(path):
    """Yield the sentences of a plain-text file whose lines are paragraphs.

    Lines are decoded as UTF-8 one by one; a line that is not UTF-8
    raises CorpusFormatError with its line number. A lone ``\\r`` also
    ends a paragraph.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except ValueError as exc:
                raise CorpusFormatError(str(exc), line_number=lineno, path=str(path)) from None
            for paragraph in line.split("\r"):
                for text in split_sentences(paragraph.strip()):
                    yield AnnotatedSentence.from_plain(text)


_POS_BY_NAME = {p.name: p for p in Pos}


def read_annotated(path):
    """Yield AnnotatedSentence blocks from a column file.

    Format: one token per line as `index<TAB>surface<TAB>pos<TAB>head_index`,
    blank line between sentences; head_index is `-` for none. Malformed
    lines raise CorpusFormatError with their line number; a bad head
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

    at = token_line = 0  # at: the line an error is reported at
    with open(path, "rb") as fh:  # lines are decoded one by one, so a bad byte has a line
        try:
            for lineno, raw in enumerate(fh, start=1):
                at = lineno
                line = raw.decode("utf-8")
                if not line.strip():
                    if surfaces:
                        at = token_line
                        yield sentence()
                    continue
                token_line = lineno
                parts = line.rstrip("\r\n").split("\t")
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
                at = token_line
                yield sentence()
        except ValueError as exc:
            raise CorpusFormatError(str(exc), line_number=at, path=str(path)) from None

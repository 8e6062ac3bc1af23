"""Corpus ingestion: sentence splitting, candidate objects, co-occurrence.

Sentences arrive either as plain text (every content word becomes an
UNKNOWN-pos candidate) or pre-annotated with coarse POS tags and
dependency heads in a CoNLL-like column file. Each measurement mention in
a sentence is paired with every candidate object in range, producing one
record per pair, the text row ``(dimension, POS, surface, head or "", value,
gap)`` that ``QuantTable.observe`` takes. Sentences containing a negation
word contribute nothing at all.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from itertools import product

from .errors import LocatedLines
from .parser import scan_measurements, tokenize
from .units import UnitRegistry

NEGATION_WORDS = frozenset({"not", "no", "without", "neither", "nor"})
# every ASCII case of each negation word: outside ASCII only U+0130 and U+212A lowercase onto
# ASCII letters, to "i" with a combining dot and to "k", so a token lowercases to a negation
# word exactly when it is one of these
_NEGATION_CASES = frozenset(
    "".join(letters) for word in NEGATION_WORDS for letters in product(*zip(word, word.upper()))
)
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
_WORD_RE = re.compile(r"[a-z]+(?:-[a-z]+)*")


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
        sentence = text[start : m.end(1)].strip()  # ends in the matched punctuation
        if sentence.rsplit(None, 1)[-1].rstrip(".").lower() in ABBREVIATIONS:
            continue
        out.append(sentence)
        start = m.end()
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


def contains_negation(tokens) -> bool:
    """Whether any token, lowercased, is a negation word: one C-level set test."""
    return not _NEGATION_CASES.isdisjoint(tokens)


def _candidate_objects(sentence: AnnotatedSentence, low: list[str]):
    """(POS name, surface, head or "", start, end) per token and noun phrase of ``low``."""
    tags = sentence.pos
    stops = stopwords()
    candidates = []
    for i, (word, pos, head) in enumerate(zip(low, tags, sentence.heads)):
        if pos is Pos.UNKNOWN:
            if word not in stops and _WORD_RE.fullmatch(word):
                candidates.append(("UNKNOWN", word, "", i, i + 1))
        elif pos in (Pos.NOUN, Pos.ADJ, Pos.VERB):
            head_word = "" if head is None else low[head]
            candidates.append((pos._name_, word, head_word, i, i + 1))
    if Pos.NOUN not in tags:
        return candidates  # plain text never has a noun run
    # each window of 2..MAX_PHRASE_LEN nouns is a phrase headed by its final noun
    for s in range(len(tags)):
        e = s
        while e < len(tags) and e < s + MAX_PHRASE_LEN and tags[e] is Pos.NOUN:
            e += 1
            if e - s > 1:
                candidates.append(("NOUN", " ".join(low[s:e]), low[e - 1], s, e))
    return candidates


def extract_records(
    sentence: AnnotatedSentence, config: ExtractionConfig, registry: UnitRegistry
) -> list[tuple]:
    """Pair every mention with every candidate object within range.

    Each record is the row ``(dimension name, POS name, surface, head or "", value,
    gap)``: an entry key, the standard-unit value and the token gap (0: adjacent).
    A sentence containing any negation word yields no records at all.
    A candidate that overlaps any mention's span (a unit word, a range
    endpoint) is no object at all. Records whose token gap reaches
    max_distance are dropped, which makes the k=3 and k=10 record sets
    nest inside the whole-sentence set.
    """
    if contains_negation(sentence.surfaces):
        return []
    low = [s.lower() for s in sentence.surfaces]
    mentions = scan_measurements(low, registry)
    if not mentions:
        return []
    spans = [(m.start, m.end) for m in mentions]
    candidates = [
        candidate
        for candidate in _candidate_objects(sentence, low)
        if not any(candidate[3] < m_end and m_start < candidate[4] for m_start, m_end in spans)
    ]
    records = []
    for (dimension, value), m_start, m_end in mentions:
        dimension = dimension._name_  # the plain attribute behind ``name``
        for pos, surface, head, start, end in candidates:
            # end-exclusive spans that do not overlap: the token gap between them
            gap = m_start - end if end <= m_start else start - m_end
            if config.max_distance is not None and gap >= config.max_distance:
                continue
            records.append((dimension, pos, surface, head, value, gap))
    return records


def read_plain(path):
    """Yield the sentences of a plain-text file whose lines are paragraphs.

    A line that is not UTF-8 raises LocatedInputError with its line
    number. A lone ``\\r`` also ends a paragraph.
    """
    with LocatedLines(path) as lines:
        for line in lines:
            for paragraph in line.split("\r"):
                for text in split_sentences(paragraph.strip()):
                    yield AnnotatedSentence.from_plain(text)


_POS_BY_NAME = {p.name: p for p in Pos}


def read_annotated(path):
    """Yield AnnotatedSentence blocks from a column file.

    Format: one token per line as `index<TAB>surface<TAB>pos<TAB>head_index`,
    blank line between sentences; head_index is `-` for none. Malformed
    lines raise LocatedInputError with their line number; a bad head
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

    with LocatedLines(path) as lines:
        for line in lines:
            if not line.strip():
                if surfaces:
                    lines.line_number -= 1  # the line above, the sentence's last token
                    yield sentence()
                continue
            parts = line.split("\t")
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

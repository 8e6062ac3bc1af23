"""Pipeline tests: splitting, negation, candidates, distances, file input."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantdist import pipeline
from quantdist.errors import LocatedInputError, LocatedLines
from quantdist.parser import scan_measurements
from quantdist.pipeline import (
    AnnotatedSentence,
    ExtractionConfig,
    MAX_PHRASE_LEN,
    Pos,
    _candidate_objects,
    contains_negation,
    extract_records,
    read_annotated,
    split_sentences,
    stopwords,
)
from quantdist.table import QuantTable
from quantdist.units import Dimension, load_registry


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def annotated(toks):
    """A sentence from (surface, pos, head) triples."""
    surfaces, pos, heads = zip(*toks)
    return AnnotatedSentence(surfaces, pos, heads)


def plain_records(text, registry, **cfg):
    sent = AnnotatedSentence.from_plain(text)
    return extract_records(sent, ExtractionConfig(**cfg), registry)


# ----------------------------------------------------------------------
# sentence splitting


def test_split_simple():
    assert split_sentences("It is 5 m tall. It is heavy.") == [
        "It is 5 m tall.",
        "It is heavy.",
    ]


def test_split_empty():
    assert split_sentences("") == []
    assert split_sentences("   \n ") == []


def test_split_preserves_abbreviations():
    got = split_sentences("Mt. Everest is 8848 m tall.")
    assert got == ["Mt. Everest is 8848 m tall."]
    got = split_sentences("Dr. Smith arrived. The visit was short.")
    assert got == ["Dr. Smith arrived.", "The visit was short."]


def test_split_decimal_not_boundary():
    assert split_sentences("It weighs 4.5 kg today.") == ["It weighs 4.5 kg today."]


def test_split_question_and_exclamation():
    got = split_sentences("Is it 5 m? Yes! It is.")
    assert got == ["Is it 5 m?", "Yes!", "It is."]


# ----------------------------------------------------------------------
# negation


def test_negation_words():
    assert contains_negation(["it", "is", "not", "heavy"])
    assert contains_negation(["No", "dogs", "allowed"])
    for word in ("without", "neither", "nor"):
        assert contains_negation(["x", word, "y"])


def test_negation_is_exactly_five_words():
    assert not contains_negation(["Nothing", "weighs", "3", "kg"])
    assert not contains_negation(["never", "none", "cannot", "isn't"])


def test_negation_words_match_in_any_case():
    # a set of the words' ASCII spellings is exact: outside ASCII only these two
    # characters lowercase to text with an ASCII letter, "i" with a combining dot and "k"
    onto_ascii = [
        c for c in map(chr, range(0x80, 0x110000))
        if any(ch.isascii() and ch.isalpha() for ch in c.lower())
    ]
    assert onto_ascii == ["\u0130", "\u212a"]
    for token in ("NoT", "nO", "WITHOUT", "nEiThEr", "NOR"):
        assert contains_negation(["x", token])
    assert not contains_negation(["w\u0130thout"])  # "wi̇thout" once lowercased


# ----------------------------------------------------------------------
# extraction, plain-text mode


def test_negated_sentence_yields_no_records(registry):
    assert plain_records("The dimension of the car is not 50cm", registry) == []


def test_plain_candidates_are_content_words(registry):
    records = plain_records("The fast car was driving 50 miles per hour", registry)
    surfaces = {r[2] for r in records}
    assert surfaces == {"fast", "car", "driving"}
    assert all(r[1] == "UNKNOWN" for r in records)
    assert all(r[3] == "" for r in records)
    assert all(r[0] == "SPEED" for r in records)
    by_surface = {r[2]: r[5] for r in records}
    assert by_surface == {"fast": 3, "car": 2, "driving": 0}
    # a content word is the whole token: a hand-built "cat\n" is none
    sentence = AnnotatedSentence(("cat\n", "weighs", "5", "kg"), (Pos.UNKNOWN,) * 4, (None,) * 4)
    records = extract_records(sentence, ExtractionConfig(), registry)
    assert [r[2] for r in records] == ["weighs"]


def test_distance_cutoff(registry):
    records = plain_records(
        "The fast car was driving 50 miles per hour", registry, max_distance=3
    )
    surfaces = {r[2] for r in records}
    assert surfaces == {"car", "driving"}  # gap 3 is out at k=3


def test_distance_nesting_on_random_templates(registry):
    rng = random.Random(77)
    adjectives = ["fast", "red", "heavy", "old", "tiny", "loud"]
    nouns = ["car", "train", "box", "whale", "rocket", "fence"]
    verbs = ["moved", "ran", "drifted", "rolled"]
    units = ["mph", "kg", "meters", "volts", "litres"]
    fillers = ["yesterday", "reportedly", "again", "downtown", "slowly"]
    for _ in range(1000):
        words = ["the", rng.choice(adjectives), rng.choice(nouns), rng.choice(verbs)]
        words += [rng.choice(fillers) for _ in range(rng.randint(0, 6))]
        words += [str(rng.randint(1, 999)), rng.choice(units)]
        words += [rng.choice(fillers) for _ in range(rng.randint(0, 4))]
        text = " ".join(words)
        sent = AnnotatedSentence.from_plain(text)
        r3 = extract_records(sent, ExtractionConfig(max_distance=3), registry)
        r10 = extract_records(sent, ExtractionConfig(max_distance=10), registry)
        rall = extract_records(sent, ExtractionConfig(), registry)
        assert set(r3) <= set(r10) <= set(rall)


def test_objects_never_overlap_mention(registry):
    records = plain_records("the crate weighs 40 kg", registry)
    assert {r[2] for r in records} == {"crate", "weighs"}
    # "kg" and "40" sit inside the mention span and must not be objects
    # nor may they be objects of any other mention in the sentence
    records = plain_records("The truck weighs 1500 kg and is 20 meters long.", registry)
    pairs = {(r[2], r[0]) for r in records}
    assert pairs == {(word, dim) for word in ("truck", "weighs", "long") for dim in ("MASS", "LENGTH")}
    records = plain_records("The shop is open 7 - 9 pm daily.", registry)
    assert {r[2] for r in records} == {"shop", "open", "daily"}
    # a noun phrase is no object when only its middle token is a mention
    nouns = annotated([("night", Pos.NOUN, None), ("21:00", Pos.NOUN, None), ("bus", Pos.NOUN, None)])
    records = extract_records(nouns, ExtractionConfig(), registry)
    assert [r[2] for r in records] == ["night", "bus"]


def test_stopwords_filtered(registry):
    records = plain_records("it was about 14 days before the meeting", registry)
    surfaces = {r[2] for r in records}
    assert "the" not in surfaces and "it" not in surfaces
    assert "meeting" in surfaces
    assert stopwords() >= {"the", "a", "of", "and", "am", "pm"}
    # "12.5 pm" is no clock reading, so "pm" stays outside every mention
    records = plain_records("The 12.5 pm train weighs 40 tonnes.", registry)
    assert {r[2] for r in records} == {"train", "weighs"}


# ----------------------------------------------------------------------
# extraction, annotated mode


def annotated_example():
    # The fast car was driving 50 miles per hour
    toks = [
        ("The", Pos.OTHER, None),
        ("fast", Pos.ADJ, 2),
        ("car", Pos.NOUN, 4),
        ("was", Pos.OTHER, None),
        ("driving", Pos.VERB, None),
        ("50", Pos.OTHER, None),
        ("miles", Pos.OTHER, None),
        ("per", Pos.OTHER, None),
        ("hour", Pos.OTHER, None),
    ]
    return annotated(toks)


def test_annotated_candidates_with_heads(registry):
    records = extract_records(annotated_example(), ExtractionConfig(), registry)
    keyed = {(r[2], r[1]): r[3] for r in records}
    assert keyed == {
        ("fast", "ADJ"): "car",
        ("car", "NOUN"): "driving",
        ("driving", "VERB"): "",
    }
    assert all(r[4] == pytest.approx(22.352) for r in records)


def test_noun_phrases_from_noun_runs(registry):
    toks = [
        ("The", Pos.OTHER, None),
        ("race", Pos.NOUN, 2),
        ("car", Pos.NOUN, 3),
        ("reached", Pos.VERB, None),
        ("155", Pos.OTHER, None),
        ("mph", Pos.OTHER, None),
    ]
    sent = annotated(toks)
    records = extract_records(sent, ExtractionConfig(), registry)
    phrases = {r[2]: r for r in records if " " in r[2]}
    assert set(phrases) == {"race car"}
    assert phrases["race car"][3] == "car"
    assert phrases["race car"][1] == "NOUN"


def test_phrase_length_cap(registry):
    toks = [(w, Pos.NOUN, None) for w in ["steel", "race", "car", "frame"]]
    toks += [("weighs", Pos.VERB, None), ("90", Pos.OTHER, None), ("kg", Pos.OTHER, None)]
    sent = annotated(toks)
    records = extract_records(sent, ExtractionConfig(), registry)
    phrases = {r[2] for r in records if " " in r[2]}
    assert MAX_PHRASE_LEN == 3  # a four-noun run keeps no four-word phrase
    assert phrases == {
        "steel race", "race car", "car frame", "steel race car", "race car frame"
    }


def test_annotated_noun_subset_of_plain(registry):
    annotated = extract_records(annotated_example(), ExtractionConfig(), registry)
    plain = plain_records("The fast car was driving 50 miles per hour", registry)
    noun_surfaces = {r[2] for r in annotated if r[1] == "NOUN" and " " not in r[2]}
    plain_surfaces = {r[2] for r in plain}
    assert noun_surfaces <= plain_surfaces


def test_plain_sentence_columns():
    sent = AnnotatedSentence.from_plain("The crate weighs 40 kg.")
    assert sent.surfaces == ("The", "crate", "weighs", "40", "kg", ".")
    assert sent.pos == (Pos.UNKNOWN,) * 6
    assert sent.heads == (None,) * 6


def test_sentence_columns_must_align():
    with pytest.raises(ValueError):
        AnnotatedSentence(("car", "weighs"), (Pos.NOUN,), (None, None))


def test_a_sentence_rejects_a_head_outside_it_or_on_its_own_token():
    """The reader's head rule holds for a sentence built by hand, with the reader's message."""
    surfaces, tags = ("car", "weighs", "5", "kg"), (Pos.NOUN, Pos.VERB, Pos.OTHER, Pos.OTHER)
    for bad in (-1, 9, 0):  # before the first token, past the last, the token itself
        with pytest.raises(ValueError, match=rf"^head index {bad} invalid for a 4-token sentence$"):
            AnnotatedSentence(surfaces, tags, (bad, 0, None, None))
    assert AnnotatedSentence(surfaces, tags, (1, None, 3, 1)).heads == (1, None, 3, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(max_distance=0)
    with pytest.raises(ValueError):
        ExtractionConfig(max_distance=101)
    # a hand-built record whose key the table format cannot hold leaves the table empty
    table = QuantTable()
    for row in (("MASS", "UNKNOWN", "", "", 1.0, 0), ("MASS", "ADJ", "", "car", 1.0, 0)):
        with pytest.raises(ValueError, match="empty object surface"):
            table.observe(row)
    for row in (("MASS", "UNKNOWN", "big\tcar", "", 1.0, 0), ("MASS", "ADJ", "fast", "car\n", 1.0, 0)):
        with pytest.raises(ValueError, match="holds a tab or line feed"):
            table.observe(row)
    # a surface or head that is not text, as a None head in place of ""
    for row in (("MASS", "NOUN", "car", None, 1.0, 0), ("MASS", "NOUN", None, "", 1.0, 0)):
        with pytest.raises(ValueError, match="not text"):
            table.observe(row)
    # a tag that names no member, or an enum in place of its name
    for row in (
        ("WEIGHT", "NOUN", "car", "", 1.0, 0),
        ("MASS", "NOUNISH", "car", "", 1.0, 0),
        (Dimension.MASS, "NOUN", "car", "", 1.0, 0),
        ("MASS", Pos.NOUN, "car", "red", 1.0, 0),
    ):
        with pytest.raises(ValueError, match="unknown tag"):
            table.observe(row)
    # a rejected value adds no key, so no empty entry is left to write
    with pytest.raises(ValueError, match="non-finite"):
        table.observe(("MASS", "NOUN", "car", "red", math.nan, 0))
    assert len(table) == 0


# ----------------------------------------------------------------------
# annotated file reader


def write_conll(tmp_path, text):
    p = tmp_path / "corpus.conll"
    p.write_text(text, encoding="utf-8")
    return p


GOOD = """0\tThe\tOTHER\t-
1\tfast\tADJ\t2
2\tcar\tNOUN\t4
3\twas\tOTHER\t-
4\tdriving\tVERB\t-
5\t50\tOTHER\t-
6\tmph\tOTHER\t-

0\tIt\tOTHER\t-
1\tstopped\tVERB\t-
"""


def test_read_annotated_blocks(tmp_path):
    path = write_conll(tmp_path, GOOD)
    sents = list(read_annotated(path))
    assert len(sents) == 2
    first = sents[0]
    assert first.surfaces == ("The", "fast", "car", "was", "driving", "50", "mph")
    assert first.pos[1] is Pos.ADJ
    assert first.heads == (None, 2, 4, None, None, None, None)
    assert sents[1] == AnnotatedSentence(("It", "stopped"), (Pos.OTHER, Pos.VERB), (None, None))


def test_read_annotated_empty_file(tmp_path):
    path = write_conll(tmp_path, "")
    assert list(read_annotated(path)) == []


def test_read_annotated_head_out_of_range(tmp_path):
    path = write_conll(tmp_path, "0\tcar\tNOUN\t7\n")
    with pytest.raises(LocatedInputError) as err:
        list(read_annotated(path))
    assert err.value.line_number == 1
    # a sentence ended by a blank line reports its last token line, not the blank one
    path = write_conll(tmp_path, "0\tThe\tOTHER\t-\n1\tcar\tNOUN\t7\n\n0\tIt\tOTHER\t-\n")
    with pytest.raises(LocatedInputError) as err:
        list(read_annotated(path))
    assert (err.value.path, err.value.line_number) == (str(path), 2)


def test_read_annotated_self_head(tmp_path):
    path = write_conll(tmp_path, "0\tcar\tNOUN\t0\n")
    with pytest.raises(LocatedInputError):
        list(read_annotated(path))


def test_read_annotated_bad_columns(tmp_path):
    path = write_conll(tmp_path, "0\tcar\n")
    with pytest.raises(LocatedInputError) as err:
        list(read_annotated(path))
    assert "columns" in str(err.value)


def test_read_annotated_bad_pos_and_index(tmp_path):
    with pytest.raises(LocatedInputError):
        list(read_annotated(write_conll(tmp_path, "0\tcar\tNOUNISH\t-\n")))
    with pytest.raises(LocatedInputError):
        list(read_annotated(write_conll(tmp_path, "3\tcar\tNOUN\t-\n")))


def _reference_read_annotated(path):
    """``read_annotated`` as first written, every column stripped: the oracle of its errors."""
    surfaces, tags, heads = [], [], []
    names = {p.name: p for p in Pos}

    def sentence():
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
                    lines.line_number -= 1
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
            pos = names.get(pos_s.upper())
            if pos is None or pos is Pos.UNKNOWN:
                raise ValueError(f"unknown pos tag {pos_s!r}")
            surfaces.append(surface)
            tags.append(pos)
            heads.append(None if head_s in ("-", "_", "") else int(head_s))
        if surfaces:
            yield sentence()


def _column_sentences(rng, count):
    """The lines of ``count`` valid sentences, written in each way the column format allows."""
    for _ in range(count):
        n = rng.randint(1, 7)
        lines = []
        for i in range(n):
            head = rng.choice([h for h in range(n) if h != i] or [None])
            lines.append([
                rng.choice((str(i), f" {i} ", f"{i}\u00a0")),
                rng.choice(("car", " Car ", "5", "km/h", "big red", "°F")),
                rng.choice(("NOUN", "noun", " ADJ ", "Verb", "OTHER", "other\u2003")),
                rng.choice(("-", "_", "", " - ") if head is None else ("-", "_", str(head), f" {head} ")),
            ])
        yield lines


# each fault replaces one column of one line: (column, the text it writes, given the line's index)
_FAULTS = {
    "too few columns": (3, None),
    "too many columns": (3, lambda i: "-\tx"),
    "index out of order": (0, lambda i: f" {i + 1} "),
    "index not a number": (0, lambda i: " x "),
    "empty surface": (1, lambda i: " "),
    "unknown tag": (2, lambda i: " Nounish "),
    "the UNKNOWN tag": (2, lambda i: "unknown"),
    "head not a number": (3, lambda i: " 1.5 "),
    "head out of range": (3, lambda i: "99"),
    "negative head": (3, lambda i: "-1"),
    "self head": (3, lambda i: f" {i} "),
}


def _outcome(reader, path):
    try:
        return list(reader(path))
    except LocatedInputError as exc:
        return exc.path, exc.line_number, str(exc)


@pytest.mark.parametrize("ends", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_read_annotated_reads_and_fails_as_the_reference_does(tmp_path, ends):
    rng = random.Random(5)
    path = tmp_path / "corpus.conll"
    for sentences in (list(_column_sentences(rng, rng.randint(1, 4))) for _ in range(40)):
        def write(lines):
            blanks = [rng.choice(("", "  ", "\t\t\t")) for _ in lines]
            text = ends.join(ends.join(["\t".join(tokens) for tokens in s] + [b]) for s, b in zip(lines, blanks))
            path.write_bytes(text.encode("utf-8"))

        write(sentences)
        valid = _outcome(read_annotated, path)
        assert isinstance(valid, list) and valid == _outcome(_reference_read_annotated, path)
        for fault, (column, text) in _FAULTS.items():
            faulty = [[list(tokens) for tokens in s] for s in sentences]
            s = rng.randrange(len(faulty))
            i = rng.randrange(len(faulty[s]))
            if text is None:
                del faulty[s][i][column]
            else:
                faulty[s][i][column] = text(i)
            write(faulty)
            outcome = _outcome(read_annotated, path)
            assert isinstance(outcome, tuple), fault  # a located error
            assert outcome == _outcome(_reference_read_annotated, path), fault


def _nested_window_candidates(sentence, low):
    """``_candidate_objects`` as first written: a window of nouns from every position."""
    candidates = []
    for i, (word, pos, head) in enumerate(zip(low, sentence.pos, sentence.heads)):
        if pos is Pos.UNKNOWN:
            if word not in stopwords() and pipeline._WORD_RE.fullmatch(word):
                candidates.append(("UNKNOWN", word, "", i, i + 1))
        elif pos in (Pos.NOUN, Pos.ADJ, Pos.VERB):
            candidates.append((pos.name, word, "" if head is None else low[head], i, i + 1))
    tags = sentence.pos
    for s in range(len(tags)):
        e = s
        while e < len(tags) and e < s + MAX_PHRASE_LEN and tags[e] is Pos.NOUN:
            e += 1
            if e - s > 1:
                candidates.append(("NOUN", " ".join(low[s:e]), low[e - 1], s, e))
    return candidates


# stopwords, words, and tokens that are no word: a number, punctuation, a hyphen at an end
_CANDIDATE_WORDS = ("the", "of", "It", "car", "Red", "big-top", "tank", "3", "km/h", ".", "x-", "élan")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_candidates_are_the_nested_window_candidates(data):
    # runs of one tag, so that noun runs outgrow MAX_PHRASE_LEN
    runs = data.draw(st.lists(st.tuples(st.sampled_from(list(Pos)), st.integers(1, 6)), max_size=5))
    tags = tuple(tag for tag, length in runs for _ in range(length))
    n = len(tags)
    words = data.draw(st.lists(st.sampled_from(_CANDIDATE_WORDS), min_size=n, max_size=n))
    # a head is another token: draw from the n - 1 others, skipping the token's own index
    others = st.none() | st.integers(0, n - 2) if n > 1 else st.none()
    heads = data.draw(st.lists(others, min_size=n, max_size=n))
    heads = tuple(h if h is None or h < i else h + 1 for i, h in enumerate(heads))
    sentence = AnnotatedSentence(tuple(words), tags, heads)
    low = [word.lower() for word in words]
    assert _candidate_objects(sentence, low) == _nested_window_candidates(sentence, low)


def test_records_are_hashable_value_objects(registry):
    records = plain_records("the crate weighs 40 kg", registry)
    assert type(records[0]) is tuple and len(records[0]) == 6
    assert len(set(records)) == len(records)


# ----------------------------------------------------------------------
# candidates inside other mentions, on a generated corpus

_OBJECTS = ("truck", "whale", "lecture", "bicycle", "dinner", "race car")
_MENTIONS = (
    ["1500", "kg"], ["3.2", "thousand", "tonnes"], ["20", "meters"], ["700", "to", "1,100", "kg"],
    ["5", "-", "9", "feet"], ["40", "mph"], ["$", "12"], ["€", "3.5", "million"], ["7:30", "pm"],
    ["6", "to", "8", "am"], ["7", "-", "9", "pm"], ["12.5", "pm"], ["21:00"], ["3", "days"],
)
_FILLER = ("the", "of", "and", "about", "nearly", "yesterday", "again", "downtown", "bimo", "kelasa")


def _generated_sentences(rng, count):
    """Plain and annotated sentences of one to three mentions each.

    Alphabetic mention tokens are tagged NOUN, as a tagger tags unit words,
    so unit words and magnitude words are candidates in both modes.
    """
    for _ in range(count):
        words = ["the"] + rng.choice(_OBJECTS).split() + [rng.choice(("weighs", "measures", "costs"))]
        for k in range(rng.choice((1, 1, 2, 3))):
            if k:
                words += [",", rng.choice(("or", "about", "and"))]
            words += rng.choice(_MENTIONS)
        words += [rng.choice(_FILLER) for _ in range(rng.randint(0, 5))] + ["."]
        yield AnnotatedSentence.from_plain(" ".join(words))
        tags = tuple(
            Pos.NOUN if w[0].isalpha() and w not in _FILLER else rng.choice((Pos.OTHER, Pos.VERB, Pos.ADJ))
            for w in words
        )
        yield AnnotatedSentence(tuple(words), tags, (None,) + (0,) * (len(words) - 1))


def _pairs_with_spans(sentence, config, registry):
    """Every (mention, candidate) pairing outside the mention's own span, in order."""
    mentions = scan_measurements(sentence.surfaces, registry)
    out = []
    for mention in mentions:
        low = [s.lower() for s in sentence.surfaces]
        for pos, surface, head, start, end in _candidate_objects(sentence, low):
            if end <= mention.start:
                gap = mention.start - end
            elif mention.end <= start:
                gap = start - mention.end
            else:
                continue
            if config.max_distance is None or gap < config.max_distance:
                inside = any(start < m.end and m.start < end for m in mentions)
                dimension, value = mention.quantity
                out.append(((dimension.name, pos, surface, head, value, gap), inside))
    return out


def test_extraction_ignores_ascii_case(registry):
    rng = random.Random(3)
    config = ExtractionConfig()
    cases = (str.upper, str.title, str.lower)
    mixed = 0
    for sentence in _generated_sentences(random.Random(3), 600):
        surfaces = tuple(rng.choice(cases)(s) for s in sentence.surfaces)
        mixed += surfaces != sentence.surfaces
        cased = AnnotatedSentence(surfaces, sentence.pos, sentence.heads)
        expected = extract_records(sentence, config, registry)
        assert extract_records(cased, config, registry) == expected
    assert mixed > 1000  # nearly every sentence does change case


class _CountedLower(str):
    """A token that counts how often it is lowercased."""

    calls = 0

    def lower(self):
        _CountedLower.calls += 1
        return str.lower(self)


def test_extraction_lowercases_a_sentence_once(registry):
    """The scan and the candidate objects read one lowercased list, made only for a
    sentence with a digit token."""
    config = ExtractionConfig()
    for text, lowered in (("The Truck weighs 40 KG.", 1), ("The sky is Blue.", 0)):
        sentence = AnnotatedSentence.from_plain(text)
        counted = AnnotatedSentence(
            tuple(map(_CountedLower, sentence.surfaces)), sentence.pos, sentence.heads
        )
        _CountedLower.calls = 0
        assert extract_records(counted, config, registry) == extract_records(
            sentence, config, registry
        )
        assert _CountedLower.calls == lowered * len(sentence.surfaces), text


def test_extraction_calls_the_negation_test_and_the_scan_by_module_name(registry, monkeypatch):
    # perfbench times the scan and counts negated sentences by patching these two names
    sentences = list(_generated_sentences(random.Random(11), 40)) + [
        AnnotatedSentence.from_plain(text)
        for text in ("It is not 5 kg.", "No truck weighs 40 kg.", "The sky is blue.")
    ]
    config = ExtractionConfig()
    expected = [extract_records(s, config, registry) for s in sentences]
    calls = {"contains_negation": 0, "scan_measurements": 0}

    def counted(name):
        original = getattr(pipeline, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counted(name))
    assert [extract_records(s, config, registry) for s in sentences] == expected
    negated = sum(contains_negation(s.surfaces) for s in sentences)
    assert negated == 2
    assert calls == {
        "contains_negation": len(sentences), "scan_measurements": len(sentences) - negated,
    }


@pytest.mark.parametrize("distance", [None, 3])
def test_records_are_pairs_minus_objects_inside_any_mention(registry, distance):
    config = ExtractionConfig(max_distance=distance)
    dropped = 0
    for sentence in _generated_sentences(random.Random(7), 400):
        pairs = _pairs_with_spans(sentence, config, registry)
        assert extract_records(sentence, config, registry) == [r for r, inside in pairs if not inside]
        dropped += sum(inside for _, inside in pairs)
    assert dropped > 100  # the corpus does exercise the rule

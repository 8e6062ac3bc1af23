"""Pipeline tests: splitting, negation, candidates, distances, file input."""

import math
import random

import pytest

from quantdist import pipeline
from quantdist.errors import LocatedInputError
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

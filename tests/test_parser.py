"""Scanner tests on realistic sentences with independently derived targets.

Expected standard-unit values are recomputed inline from definitional
constants rather than through the registry, so a lexicon mistake cannot
hide a scanner mistake.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from quantdist.parser import (
    MARKER_WORDS,
    Mention,
    _Scanner,
    parse_number,
    scan_measurements,
    tokenize,
)
from quantdist.units import Dimension, Quantity, load_registry

MILE = 1609.344
HOUR = 3600.0


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def scan_text(text, registry):
    return scan_measurements(tokenize(text), registry)


# ----------------------------------------------------------------------
# tokenizer


def test_tokenize_splits_words_numbers_punctuation():
    assert tokenize("The tank holds 225 litres.") == [
        "The", "tank", "holds", "225", "litres", ".",
    ]


def test_tokenize_keeps_thousands_and_decimals_together():
    assert tokenize("$2,000 and 1,233.48 or 0.5") == [
        "$", "2,000", "and", "1,233.48", "or", "0.5",
    ]


def test_tokenize_digit_letter_boundary():
    assert tokenize("a 50cm gap, 8.30am start") == [
        "a", "50", "cm", "gap", ",", "8.30", "am", "start",
    ]


def test_tokenize_unit_compounds_and_degrees():
    assert tokenize("70 °F (21 °C) at 40 km/h") == [
        "70", "°F", "(", "21", "°C", ")", "at", "40", "km/h",
    ]


def test_tokenize_clock_and_meridiem_forms():
    assert tokenize("7:30 p.m. or 8.30 a.m.") == [
        "7:30", "p.m.", "or", "8.30", "a.m.",
    ]


def test_tokenize_hyphen_compounds_and_ranges():
    assert tokenize("an acre-foot, 50-60 mph") == [
        "an", "acre-foot", ",", "50", "-", "60", "mph",
    ]


# ----------------------------------------------------------------------
# number literals


def test_parse_number():
    assert parse_number("466") == 466.0
    assert parse_number("2,000") == 2000.0
    assert parse_number("1,233.48") == 1233.48
    assert parse_number("0.5") == 0.5
    for bad in ("12,34", "fifty", "4.", ".5", "-3", ""):
        assert parse_number(bad) is None


# ----------------------------------------------------------------------
# scanner on full sentences


def one(mentions):
    assert len(mentions) == 1
    return mentions[0]


def test_volume_sentence(registry):
    m = one(scan_text("The fuel tank holds 225 litres of diesel.", registry))
    assert m.dimension is Dimension.VOLUME
    assert m.quantity.value_std == pytest.approx(0.225, rel=1e-12)
    assert (m.start, m.end) == (4, 6)


def test_speed_sentence(registry):
    m = one(scan_text("The car topped out at 155 mph on the straight.", registry))
    assert m.dimension is Dimension.SPEED
    assert m.quantity.value_std == pytest.approx(155 * MILE / HOUR, rel=1e-12)


def test_multiword_unit_longest_match(registry):
    m = one(scan_text("The fast car was driving 50 miles per hour", registry))
    assert m.dimension is Dimension.SPEED
    assert m.quantity.value_std == pytest.approx(50 * MILE / HOUR, rel=1e-12)
    assert (m.start, m.end) == (5, 9)


def test_voltage_sentences(registry):
    assert one(scan_text("a 24 volt battery system", registry)).quantity.value_std == 24.0
    assert one(scan_text("offsets of 0.5 volt or less", registry)).quantity.value_std == 0.5


def test_currency_symbol_with_separator(registry):
    m = one(scan_text("She paid $2,000 for the bike.", registry))
    assert m.dimension is Dimension.CURRENCY
    assert m.quantity.value_std == 2000.0


def test_currency_magnitude_word(registry):
    m = one(scan_text("The deal was worth £5 million in total.", registry))
    assert m.quantity.value_std == pytest.approx(5e6 * 1.30, rel=1e-12)
    assert (m.start, m.end) == (4, 7)


def test_suffix_currency_word(registry):
    m = one(scan_text("It cost 300 dollars overall.", registry))
    assert m.quantity.value_std == 300.0


def test_clock_times(registry):
    got = scan_text("Breakfast runs between 7.30 am and 8.30 am daily.", registry)
    assert [m.dimension for m in got] == [Dimension.TIME, Dimension.TIME]
    assert [m.quantity.value_std for m in got] == [7.5, 8.5]


def test_clock_range_shares_meridiem(registry):
    # one trailing am/pm covers both endpoints of a dashed range
    for text in ("Open 7.30-8.30 am daily.", "Open 7.30–8.30 am daily."):
        got = scan_text(text, registry)
        assert [m.quantity.value_std for m in got] == [7.5, 8.5]
    got = scan_text("Happy hour runs 7:30-8:30 pm here.", registry)
    assert [m.quantity.value_std for m in got] == [19.5, 20.5]
    got = scan_text("It runs 7 to 8 pm.", registry)
    assert [m.quantity.value_std for m in got] == [19.0, 20.0]
    # an hour outside 1..12 is no am/pm range; the second clock still scans alone
    m = one(scan_text("It runs 13 - 2 pm.", registry))
    assert (m.quantity.value_std, m.start, m.end) == (14.0, 4, 6)


def test_clock_pm_and_colon(registry):
    m = one(scan_text("The train leaves at 1.51 pm.", registry))
    assert m.quantity.value_std == pytest.approx(13.85, rel=1e-12)
    m = one(scan_text("Kickoff is at 19:05 tonight.", registry))
    assert m.quantity.value_std == pytest.approx(19 + 5 / 60, rel=1e-12)
    assert one(scan_text("It ends at 12 am.", registry)).quantity.value_std == 0.0
    assert one(scan_text("Lunch at 12 pm.", registry)).quantity.value_std == 12.0


def test_duration_sentence(registry):
    m = one(scan_text("The visa is valid for 14 days.", registry))
    assert m.dimension is Dimension.DURATION
    assert m.quantity.value_std == 14 * 86400.0


def test_temperature_pair(registry):
    got = scan_text("It stayed near 70 °F (21 °C) all week.", registry)
    assert len(got) == 2
    f, c = got
    assert f.quantity.value_std == pytest.approx((70 - 32) * 5 / 9 + 273.15, rel=1e-12)
    assert c.quantity.value_std == pytest.approx(21 + 273.15, rel=1e-12)


def test_degrees_word_marker(registry):
    m = one(scan_text("The oven hit 100 degrees C quickly.", registry))
    assert m.dimension is Dimension.TEMPERATURE
    assert m.quantity.value_std == pytest.approx(373.15, rel=1e-12)


def test_bare_number_is_not_a_measurement(registry):
    assert scan_text("New York was a scorching 110", registry) == []
    assert scan_text("Chapter 12 covers the basics.", registry) == []
    # a value past the float range is dropped like a number with no unit
    assert scan_text(f"The rock weighs {'9' * 400} kg.", registry) == []


def test_bare_temperature_letter_dropped_without_marker(registry):
    assert scan_text("The sample was held at 300 K overnight.", registry) == []


def test_distance_sentence(registry):
    m = one(scan_text("The route covers 466 mile of coastline.", registry))
    assert m.quantity.value_std == pytest.approx(466 * MILE, rel=1e-12)


def test_attached_unit_after_split(registry):
    m = one(scan_text("Leave a 50cm gap behind the fridge.", registry))
    assert m.dimension is Dimension.LENGTH
    assert m.quantity.value_std == pytest.approx(0.5, rel=1e-12)


def test_range_shares_unit(registry):
    got = scan_text("Gusts of 50-60 mph are possible.", registry)
    assert [m.quantity.value_std for m in got] == pytest.approx(
        [50 * MILE / HOUR, 60 * MILE / HOUR], rel=1e-12
    )
    assert {m.dimension for m in got} == {Dimension.SPEED}
    assert [(m.start, m.end) for m in got] == [(2, 3), (4, 6)]
    worded = scan_text("Keep it between 30 to 40 km/h in town.", registry)
    assert [m.quantity.value_std for m in worded] == pytest.approx([30 / 3.6, 40 / 3.6], rel=1e-12)
    assert [(m.start, m.end) for m in worded] == [(3, 4), (5, 7)]
    # clock-shaped endpoints without am/pm, and a degree marker before the unit
    got = scan_text("Walk from 7 to 9 km today.", registry)
    assert [(m.quantity.value_std, m.start, m.end) for m in got] == [
        (7000.0, 2, 3), (9000.0, 4, 6),
    ]
    got = scan_text("Keep it at 10 - 20 degrees C.", registry)
    assert [m.quantity.value_std for m in got] == pytest.approx([283.15, 293.15], rel=1e-12)
    assert [(m.start, m.end) for m in got] == [(3, 4), (5, 8)]


def test_range_without_unit_yields_nothing(registry):
    assert scan_text("Read pages 10 to 20 tonight.", registry) == []


def test_negation_does_not_block_scanning(registry):
    # the scanner reports mentions; negation filtering happens downstream
    m = one(scan_text("The shelf is not 50 cm deep.", registry))
    assert m.quantity.value_std == pytest.approx(0.5, rel=1e-12)


def test_thousand_suffix_letter(registry):
    m = one(scan_text("The job pays $80k a year.", registry))
    assert m.quantity == Quantity(Dimension.CURRENCY, 80000.0)
    assert (m.start, m.end) == (3, 6)


def test_mentions_are_value_objects(registry):
    m = one(scan_text("a 24 volt battery", registry))
    assert isinstance(m, Mention)
    assert m == Mention(Quantity(Dimension.VOLTAGE, 24.0), 1, 3)
    assert m.dimension is Dimension.VOLTAGE


# ----------------------------------------------------------------------
# the start-token rule: every production starts at a digit or a currency alias

_VOCABULARY = [
    # numbers and clocks, in and out of the 1..12 hour range, and a number past the float range
    "5", "13", "2", "7", "12", "0", "1,000", "2.5", "7.30", "8.30", "7:30", "13:00", "19:05",
    "99:99", "24:00", "9" * 400,
    # range separators, meridiems, magnitudes and degree markers
    "-", "–", "to", "and", "am", "pm", "a.m.", "PM", "million", "k", "b", "thousand",
    "degrees", "°",
    # unit and currency aliases, with the degree sign fused to some
    "km", "mph", "miles", "per", "hour", "c", "°f", "°C", "°usd", "usd", "USD", "$", "£",
    "dollars", "m", "of", "day",
    # plain words
    "the", "cat", "from", ".",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_VOCABULARY), min_size=1, max_size=9))
def test_mentions_start_at_a_digit_or_currency_alias(registry, tokens):
    mentions = scan_measurements(tokens, registry)
    end = 0
    for m in mentions:
        assert end <= m.start < m.end <= len(tokens)  # ordered, disjoint, inside the list
        end = m.end
        first = tokens[m.start]
        # lookup_unit, not the alias column: "°usd" resolves with its degree sign stripped
        unit = registry.lookup_unit(first)
        assert first[:1].isdigit() or (unit is not None and unit.dimension is Dimension.CURRENCY)


def _scan_everywhere(tokens, registry):
    """The scan without the start-token gate: every production tried at every position."""
    scanner = _Scanner(tokens, registry)
    mentions, i = [], 0
    while i < scanner.n:
        found = scanner._clock(i) or scanner._currency_prefix(i) or scanner._number(i)
        if found:
            mentions.extend(found)
            i = found[-1].end
        else:
            i += 1
    return mentions


# "٣" is an Arabic-Indic digit, which \d matches and float reads; "²" is a digit to
# str.isdigit but not to \d
_GATE_VOCABULARY = _VOCABULARY + [
    " $", "€", "٣", "²", "9", "p.m.", "kg", "f", "km/h", "weighs", "Costs", "about",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_GATE_VOCABULARY), max_size=12))
@example(["°usd", "5", "million"])
@example(["USD", "٣", "to", "9", "kg"])
@example([" $", "12", "thousand", "7:30", "pm"])
@example(["²", "kg", "7", "-", "8.30", "p.m."])
@example(["10", "kg", "$", "5"])  # a prefix right at the last match's end
@example(["5", "$", "6", "kg"])  # a "$" inside the last match is not tried again
@example(["$", "5"])
@example(["5"])  # no left neighbour
@example(["USD", "5", "-", "$", "10"])
@example(["7:30", "pm", "$", "5"])
def test_gated_scan_finds_what_every_position_finds(registry, tokens):
    assert scan_measurements(tokens, registry) == _scan_everywhere(tokens, registry)


# ----------------------------------------------------------------------
# unit lookup: surfaces wider than one token are tried only from the start of an alias


def _full_width_unit_after(scanner, j):
    """``_Scanner._unit_after`` without the alias-head test: every width, widest first."""
    mag, j = scanner._magnitude(j)
    marker = j < scanner.n and scanner.low[j] in MARKER_WORDS
    j += marker
    for width in range(min(scanner.registry.max_alias_tokens, scanner.n - j), 0, -1):
        unit = scanner.registry.lookup_unit(" ".join(scanner.low[j : j + width]), marker)
        if unit is not None:
            return mag, unit, j + width
    return None


def _alias_token_lists(registry):
    """Every alias after a number: alone, after a magnitude word or a marker word, with a
    fused degree sign, in a range, and followed by a word; multi-token aliases first."""
    aliases = sorted(
        {alias for unit in registry.units() for alias in unit.surface_forms},
        key=lambda alias: (-len(alias.split()), alias),
    )
    for alias in aliases:
        words = alias.split()
        fused = ["°" + words[0], *words[1:]]
        for unit in (words, ["thousand", *words], ["degrees", *words], fused, ["°", *words]):
            yield ["5", *unit]
            yield ["5", *unit, "tall"]
            yield ["5", "-", "6", *unit]
        # tokens that a tokenizer never writes but a column file or a caller can: blank,
        # padded, holding a space
        yield ["5", "", *words]
        yield ["5", f" {words[0]}", *words[1:]]
        yield ["5", f"{words[0]} ", *words[1:]]
        yield ["5", " ".join(words[:2]), *words[2:]]
        yield ["5", "° " + words[0], *words[1:]]


def test_unit_lookup_finds_what_every_width_finds(registry, monkeypatch):
    token_lists = list(_alias_token_lists(registry))
    calls = 0
    lookup = registry.lookup_unit

    def counted(*args):
        nonlocal calls
        calls += 1
        return lookup(*args)

    monkeypatch.setattr(registry, "lookup_unit", counted)
    found = [scan_measurements(tokens, registry) for tokens in token_lists]
    gated, calls = calls, 0
    monkeypatch.setattr(_Scanner, "_unit_after", _full_width_unit_after)
    assert found == [scan_measurements(tokens, registry) for tokens in token_lists]
    assert gated < calls
    # after a marker word every alias resolves over all of its tokens: the longest match
    for alias in {alias for unit in registry.units() for alias in unit.surface_forms}:
        mentions = scan_measurements(["5", "degrees", *alias.split()], registry)
        assert mentions and mentions[-1].end == 2 + len(alias.split()), alias

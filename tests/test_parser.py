"""Scanner tests on realistic sentences with independently derived targets.

Expected standard-unit values are recomputed inline from definitional
constants rather than through the registry, so a lexicon mistake cannot
hide a scanner mistake.
"""

import pytest

from quantdist.parser import Mention, parse_number, scan_measurements, tokenize
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

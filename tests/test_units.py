"""Registry tests against conversion factors derived from first principles.

The oracle below recomputes every factor from definitional constants
(1 inch = 0.0254 m, 1 lb = 0.45359237 kg, 1 h = 3600 s, ...) instead of
reading them back out of the lexicon file.
"""

import math
import random

import pytest

from quantdist.errors import DimensionMismatchError, LexiconError
from quantdist.units import Dimension, UnitDef, UnitRegistry, load_registry

INCH = 0.0254
FOOT = 12 * INCH
YARD = 3 * FOOT
MILE = 1760 * YARD  # 1609.344 m
POUND = 0.45359237
HOUR = 3600.0

# surface -> (dimension, scale, offset), derived independently of units.tsv
ORACLE = {
    "inch": (Dimension.LENGTH, INCH, 0.0),
    "foot": (Dimension.LENGTH, FOOT, 0.0),
    "yard": (Dimension.LENGTH, YARD, 0.0),
    "mile": (Dimension.LENGTH, MILE, 0.0),
    "km": (Dimension.LENGTH, 1000.0, 0.0),
    "cm": (Dimension.LENGTH, 0.01, 0.0),
    "mm": (Dimension.LENGTH, 0.001, 0.0),
    "acre": (Dimension.AREA, 43560 * FOOT**2, 0.0),
    "hectare": (Dimension.AREA, 10000.0, 0.0),
    "litre": (Dimension.VOLUME, 1e-3, 0.0),
    "ml": (Dimension.VOLUME, 1e-6, 0.0),
    "gallon": (Dimension.VOLUME, 231 * INCH**3, 0.0),
    "cubic foot": (Dimension.VOLUME, FOOT**3, 0.0),
    "pound": (Dimension.MASS, POUND, 0.0),
    "ounce": (Dimension.MASS, POUND / 16, 0.0),
    "ton": (Dimension.MASS, 2000 * POUND, 0.0),
    "tonne": (Dimension.MASS, 1000.0, 0.0),
    "gram": (Dimension.MASS, 1e-3, 0.0),
    "mph": (Dimension.SPEED, MILE / HOUR, 0.0),
    "km/h": (Dimension.SPEED, 1000 / HOUR, 0.0),
    "knot": (Dimension.SPEED, 1852 / HOUR, 0.0),
    "minute": (Dimension.DURATION, 60.0, 0.0),
    "hour": (Dimension.DURATION, HOUR, 0.0),
    "day": (Dimension.DURATION, 24 * HOUR, 0.0),
    "week": (Dimension.DURATION, 7 * 24 * HOUR, 0.0),
    "celsius": (Dimension.TEMPERATURE, 1.0, 273.15),
    "fahrenheit": (Dimension.TEMPERATURE, 5.0 / 9.0, 273.15 - 32 * 5.0 / 9.0),
    "kelvin": (Dimension.TEMPERATURE, 1.0, 0.0),
    "volt": (Dimension.VOLTAGE, 1.0, 0.0),
    "kv": (Dimension.VOLTAGE, 1000.0, 0.0),
    "$": (Dimension.CURRENCY, 1.0, 0.0),
    "£": (Dimension.CURRENCY, 1.30, 0.0),
    "€": (Dimension.CURRENCY, 1.10, 0.0),
}


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def test_ten_dimensions_with_standard_units():
    assert len(Dimension) == 10
    expected = {
        "TIME": "hour of day",
        "CURRENCY": "US dollar",
        "LENGTH": "meter",
        "AREA": "square meter",
        "VOLUME": "cubic meter",
        "MASS": "kilogram",
        "TEMPERATURE": "kelvin",
        "DURATION": "second",
        "SPEED": "meter per second",
        "VOLTAGE": "volt",
    }
    assert {d.name: d.standard_unit for d in Dimension} == expected


def test_lexicon_matches_first_principles_oracle(registry):
    for surface, (dim, scale, offset) in ORACLE.items():
        unit = registry.lookup_unit(surface)
        assert unit is not None, surface
        assert unit.dimension is dim, surface
        assert unit.scale == pytest.approx(scale, rel=1e-12), surface
        assert unit.offset == pytest.approx(offset, rel=1e-12, abs=1e-12), surface


def test_acre_foot_exact(registry):
    unit = registry.lookup_unit("acre foot")
    assert unit is not None
    assert unit.dimension is Dimension.VOLUME
    assert unit.scale == 1233.48
    for alias in ("acre-foot", "acre feet", "acre-feet"):
        assert registry.lookup_unit(alias) is unit


def test_lookup_is_case_insensitive(registry):
    assert registry.lookup_unit("MPH") is registry.lookup_unit("mph")
    assert registry.lookup_unit(" Km/H ") is registry.lookup_unit("km/h")


def test_bare_temperature_letters_need_marker(registry):
    for letter in ("c", "f", "k"):
        assert registry.lookup_unit(letter) is None
        unit = registry.lookup_unit(letter, marker_present=True)
        assert unit is not None
        assert unit.dimension is Dimension.TEMPERATURE
    # a leading degree sign is itself the marker
    assert registry.lookup_unit("°F").dimension is Dimension.TEMPERATURE
    assert registry.lookup_unit("°c").dimension is Dimension.TEMPERATURE


def test_ambiguous_short_forms_are_absent(registry):
    # these collide with common words or other units, so they stay out
    for surface in ("in", "l", "s", "h"):
        assert registry.lookup_unit(surface, marker_present=True) is None
    # bare "m" stays meter; the thousand-suffix only binds attached to digits
    assert registry.lookup_unit("m").dimension is Dimension.LENGTH


def test_unknown_unit_returns_none(registry):
    assert registry.lookup_unit("florps") is None


def test_normalize_spot_values(registry):
    litre = registry.lookup_unit("litres")
    assert registry.normalize(225, litre).value_std == pytest.approx(0.225, rel=1e-12)
    mph = registry.lookup_unit("mph")
    assert registry.normalize(155, mph).value_std == pytest.approx(
        155 * MILE / HOUR, rel=1e-12
    )
    f = registry.lookup_unit("°F")
    assert registry.normalize(32, f).value_std == pytest.approx(273.15, rel=1e-12)
    assert registry.normalize(212, f).value_std == pytest.approx(373.15, rel=1e-9)
    c = registry.lookup_unit("celsius")
    assert registry.normalize(0, c).value_std == pytest.approx(273.15, rel=1e-12)
    # 70 °F and 21 °C describe nearly the same weather
    seventy = registry.normalize(70, f).value_std
    assert seventy == pytest.approx(294.261, abs=5e-4)
    assert abs(seventy - registry.normalize(21, c).value_std) < 0.2


def test_normalize_time_wraps_into_day(registry):
    hour_of_day = registry.time_unit()
    assert registry.normalize(7.5, hour_of_day).value_std == 7.5
    assert registry.normalize(25.0, hour_of_day).value_std == 1.0
    assert registry.normalize(24.0, hour_of_day).value_std == 0.0
    assert 0 <= registry.normalize(-1.0, hour_of_day).value_std < 24


def test_normalize_rejects_non_finite(registry):
    meter = registry.lookup_unit("meter")
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            registry.normalize(bad, meter)


def test_denormalize_round_trip_all_units(registry):
    rng = random.Random(20260815)
    hour_of_day = registry.time_unit()
    for unit in registry.units():
        for _ in range(20):
            if unit is hour_of_day:
                raw = rng.uniform(0, 24 - 1e-9)
            else:
                raw = rng.uniform(-1e4, 1e4)
            q = registry.normalize(raw, unit)
            back = registry.denormalize(q, unit)
            assert back == pytest.approx(raw, rel=1e-9, abs=1e-9), unit.name


def test_denormalize_cross_unit(registry):
    kg = registry.lookup_unit("kg")
    lb = registry.lookup_unit("pounds")
    q = registry.normalize(1.0, kg)
    assert registry.denormalize(q, lb) == pytest.approx(2.20462, rel=1e-5)
    kmh = registry.lookup_unit("km/h")
    ms = registry.lookup_unit("m/s")
    assert registry.denormalize(registry.normalize(27.694, ms), kmh) == pytest.approx(
        99.7, abs=0.01
    )


def test_denormalize_dimension_mismatch(registry):
    meter = registry.lookup_unit("meter")
    kg = registry.lookup_unit("kg")
    with pytest.raises(DimensionMismatchError):
        registry.denormalize(registry.normalize(1.0, meter), kg)


def test_currency_static_rates(registry):
    pound_sterling = registry.lookup_unit("£")
    assert registry.normalize(5e6, pound_sterling).value_std == pytest.approx(6.5e6)
    assert registry.normalize(2000, registry.lookup_unit("$")).value_std == 2000.0
    assert registry.normalize(100, registry.lookup_unit("euros")).value_std == pytest.approx(110.0)


def test_every_alias_resolves_uniquely(registry):
    seen = {}
    for unit in registry.units():
        for alias in unit.surface_forms:
            resolved = registry.lookup_unit(alias, marker_present=True)
            assert resolved is unit, alias
            assert alias not in seen
            seen[alias] = unit
    assert len(seen) >= 100  # the lexicon is supposed to be broad


def test_registry_version_is_content_digest(registry):
    assert isinstance(registry.version, str)
    assert len(registry.version) == 12
    assert registry.version == load_registry().version


def test_max_alias_tokens(registry):
    assert registry.max_alias_tokens >= 3  # "metric ton", "miles per hour"


def test_duplicate_alias_rejected():
    meter = UnitDef(("meter",), Dimension.LENGTH, 1.0)
    dup = UnitDef(("meter", "m2x"), Dimension.AREA, 1.0)
    with pytest.raises(LexiconError, match="^duplicate unit alias 'meter'"):
        UnitRegistry([meter, dup])


def test_offset_outside_temperature_rejected():
    with pytest.raises(LexiconError):
        UnitDef(("weird",), Dimension.LENGTH, 1.0, offset=5.0)


def test_nonpositive_scale_rejected():
    with pytest.raises(LexiconError):
        UnitDef(("weird",), Dimension.LENGTH, 0.0)
    with pytest.raises(LexiconError):
        UnitDef(("weird",), Dimension.LENGTH, -2.0)


def test_malformed_lexicon_file_rejected(tmp_path):
    bad = tmp_path / "units.tsv"
    bad.write_text("meter\tLENGTH\t1.0\n", encoding="utf-8")  # missing columns
    with pytest.raises(LexiconError, match=f"^{bad}:1: expected 5") as err:
        load_registry(units_path=bad)
    assert (err.value.path, err.value.line_number) == (str(bad), 1)
    # a unit that fails its own checks is reported at its line too
    bad.write_text("# header\nweird\tLENGTH\t1.0\t5\t0\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=f"^{bad}:2: unit 'weird'") as err:
        load_registry(units_path=bad)
    assert err.value.line_number == 2
    # a repeated alias is reported where it repeats
    hour = "hour of day\tTIME\t1\t0\t0\n"
    bad.write_text(hour + "kg\tMASS\t1\t0\t0\n# c\ngram, kg\tMASS\t0.001\t0\t0\n", "utf-8")
    with pytest.raises(LexiconError, match=f"^{bad}:4: duplicate unit alias 'kg'") as err:
        load_registry(units_path=bad)
    assert (err.value.path, err.value.line_number) == (str(bad), 4)
    # a scale or offset that is not finite would drop every mention in its unit
    for row, message in [
        ("meter\tLENGTH\t1e400\t0\t0\n", "unit 'meter': scale must be positive and finite"),
        ("celsius\tTEMPERATURE\t1\tnan\t1\n", "unit 'celsius': offset must be finite"),
    ]:
        bad.write_text(hour + row, "utf-8")
        with pytest.raises(LexiconError, match=f"^{bad}:2: {message}") as err:
            load_registry(units_path=bad)
        assert (err.value.path, err.value.line_number) == (str(bad), 2)
    # clock times need an hour-of-day unit, so a lexicon without one fails at load
    bad.write_text("kg\tMASS\t1\t0\t0\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=f"^{bad}: lexicon has no 'hour of day'") as err:
        load_registry(units_path=bad)
    assert (err.value.path, err.value.line_number) == (str(bad), None)


def test_unknown_currency_code_rejected(tmp_path):
    bad = tmp_path / "units.tsv"
    bad.write_text("zorkmid\tCURRENCY\tZKM\t0\t0\n", encoding="utf-8")
    with pytest.raises(LexiconError) as err:
        load_registry(units_path=bad)
    assert (err.value.path, err.value.line_number) == (str(bad), 1)
    rates = tmp_path / "rates.tsv"
    rates.write_text("USD\t0\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=f"^{rates}:1: rate must be positive"):
        load_registry(rates_path=rates)
    rates.write_text("EUR\t1.1\nUSD\tinf\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=f"^{rates}:2: rate must be positive and finite") as err:
        load_registry(rates_path=rates)
    assert (err.value.path, err.value.line_number) == (str(rates), 2)
    rates.write_text("USD\t1\nEUR\t1.1\nusd\t2\n", encoding="utf-8")  # codes are upper-cased
    with pytest.raises(LexiconError, match="duplicate currency code 'USD'") as err:
        load_registry(rates_path=rates)
    assert (err.value.path, err.value.line_number) == (str(rates), 3)
    # a rate the units need but the rates file lacks: the unit's line, and the rates file
    rates.write_text("EUR\t1.1\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=f"no rate for currency 'USD' in {rates}$") as err:
        load_registry(rates_path=rates)
    assert err.value.path == "units.tsv" and err.value.line_number > 0

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aavescan.numstr import fraction_to_decimal, parse_decimal, yaml_decimal
from aavescan.registry import load_yaml


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(0), "0"),
        (Fraction(400), "400"),
        (Fraction(105, 2), "52.5"),
        (Fraction(21, 40), "0.525"),
        (Fraction(51975, 1000), "51.975"),
        (Fraction(-3, 4), "-0.75"),
        (Fraction(1, 10**18), "0.000000000000000001"),
    ],
)
def test_terminating_values_render_exactly(value, text):
    assert fraction_to_decimal(value) == text


def test_non_terminating_rounds_half_up_at_limit():
    assert fraction_to_decimal(Fraction(1, 3), max_frac_digits=4) == "0.3333"
    assert fraction_to_decimal(Fraction(2, 3), max_frac_digits=4) == "0.6667"
    assert fraction_to_decimal(Fraction(1, 6), max_frac_digits=1) == "0.2"


@pytest.mark.parametrize("text", ["0", "12", "-0.5", "52.5", "0.000001"])
def test_parse_round_trip(text):
    assert fraction_to_decimal(parse_decimal(text)) == text


@pytest.mark.parametrize("text", ["1.25e2", "1/3", "1_000", ".5", "5.", "+", "1.2.3", "١٢"])
def test_parse_accepts_only_plain_decimals(text):
    with pytest.raises(ValueError, match="not a decimal number"):
        parse_decimal(text)


@pytest.mark.parametrize("scalar, value", [
    ("0.00001", Fraction(1, 100_000)),  # PyYAML: the float 1e-05
    ("1.5e+3", Fraction(1500)),
    ("0.1", Fraction(1, 10)),
    ("2", Fraction(2)),
    ('"0.5"', Fraction(1, 2)),
])
def test_yaml_scalars_read_as_plain_decimals(scalar, value):
    assert yaml_decimal(load_yaml(f"v: {scalar}")["v"]) == value


@pytest.mark.parametrize("scalar", ['"1e-05"', "true", ".inf", ".nan", "[1]"])
def test_yaml_scalars_that_are_not_decimals_are_refused(scalar):
    with pytest.raises(ValueError, match="not a decimal number"):
        yaml_decimal(load_yaml(f"v: {scalar}")["v"])


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_decimal("")
    with pytest.raises(ValueError):
        parse_decimal("0x10")


@given(st.fractions(min_value=-10**6, max_value=10**6))
def test_terminating_denominators_round_trip(fr):
    scaled = Fraction(fr.numerator, 1) / 10**6  # force a 10-power denominator
    assert parse_decimal(fraction_to_decimal(scaled)) == scaled

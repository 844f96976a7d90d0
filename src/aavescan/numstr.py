"""Exact decimal-string conversion for rational amounts.

All user-facing quantities travel as decimal strings; internally they are
``fractions.Fraction`` so boundary comparisons (health factor thresholds,
conservation identities) are exact. Rendering is exact whenever the value
terminates in base 10 and rounds half up at ``max_frac_digits`` otherwise.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

DEFAULT_MAX_FRAC_DIGITS = 18
_PLAIN_DECIMAL = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")


def parse_decimal(text: str) -> Fraction:
    """Parse a plain decimal string ('123', '-0.5'); '1.25e2', '1/3', '1_000' and '.5' are
    rejected."""
    text = text.strip()
    if not _PLAIN_DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal number: {text!r}")
    return Fraction(text)


def yaml_decimal(raw: object) -> Fraction:
    """A YAML scalar as a plain decimal. PyYAML reads an unquoted ``0.00001`` as the float
    1e-05, so a float is taken at its shortest repr written out without an exponent."""
    if isinstance(raw, float):
        raw = format(Decimal(repr(raw)), "f")
    return parse_decimal(str(raw))


def fraction_to_decimal(value: Fraction | int, max_frac_digits: int = DEFAULT_MAX_FRAC_DIGITS) -> str:
    """Render a rational as a decimal string without exponent notation."""
    fr = Fraction(value)
    sign = "-" if fr < 0 else ""
    fr = -fr if fr < 0 else fr
    num, den = fr.numerator, fr.denominator

    remaining = den
    twos = fives = 0
    while remaining % 2 == 0:
        remaining //= 2
        twos += 1
    while remaining % 5 == 0:
        remaining //= 5
        fives += 1

    if remaining == 1:
        digits = max(twos, fives)
        scaled = num * 10**digits // den
    else:
        digits = max_frac_digits
        scaled = (num * 10**digits * 2 + den) // (2 * den)  # half-up

    if digits == 0:
        return sign + str(scaled)
    whole, frac = divmod(scaled, 10**digits)
    text = f"{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".")
    if text in ("", "-"):
        text = "0"
    return sign + text if text != "0" else "0"

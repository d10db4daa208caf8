"""Exact rational scalars shared by every module.

``Rational`` is the stdlib ``Fraction``: lowest terms, positive
denominator, exact field arithmetic. This module only adds strict
conversion (floats are refused) and compact serialization.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

Rational = Fraction

# Fraction("1e4000000") expands the exponent in full, at a cost that grows
# faster than linearly; a literal whose decimal exponent is larger than this
# (Python's default digit limit for int text) is refused before that.
MAX_DECIMAL_EXPONENT = 4300


def int_digit_limit():
    """The interpreter's digit limit for int text, or Python's default where it sets none."""
    return getattr(sys, "get_int_max_str_digits", int)() or MAX_DECIMAL_EXPONENT


def _shown(value):
    # a refused value is quoted up to 40 characters: a string is cut before
    # its repr, so both quotes stay, any other value's repr is cut
    if isinstance(value, str):
        return repr(value if len(value) <= 40 else value[:37] + "...")
    try:
        text = repr(value)
    except ValueError:   # it holds an int past the int-text digit limit
        return f"a {type(value).__name__} too large to show"
    return text if len(text) <= 40 else text[:37] + "..."


def _exponent(text):
    """The match of a trailing decimal exponent in text, or None. The first
    call compiles the pattern and binds its search method to this name, so
    a later call costs one global lookup, as a pattern compiled at import
    would."""
    global _exponent
    _exponent = re.compile(r"[eE][-+]?([\d_]+)\s*\Z").search
    return _exponent(text)


class NonRational(TypeError):
    """A value could not be interpreted as an exact rational."""


def rational_from_text(text: str) -> Fraction:
    """``Fraction(text)``, refusing with NonRational a decimal exponent larger
    than MAX_DECIMAL_EXPONENT in magnitude or more digits than int_digit_limit().

    A plain decimal ``-?digits.digits`` in ASCII, the form json hands over
    for a literal without an exponent, is read from its digits; it has no
    exponent, so only the digit limit applies to it."""
    head, dot, tail = text.partition(".")
    plain = (dot and text.isascii() and tail.isdigit()
             and (head[1:] if head[:1] == "-" else head).isdigit())
    if not plain:
        m = _exponent(text)
        if m:
            # Fraction reads a digit of any script, so leading zeros of any
            # script are stripped
            digits = m.group(1).replace("_", "")
            digits = digits.lstrip("".join(c for c in set(digits) if not int(c)))
            if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                    or int(digits or "0") > MAX_DECIMAL_EXPONENT):
                raise NonRational(
                    f"refusing {_shown(text)}: decimal exponent larger than"
                    f" {MAX_DECIMAL_EXPONENT} in magnitude"
                )
    limit = int_digit_limit()
    if len(text) > limit and sum(map(str.isdecimal, text)) > limit:
        raise NonRational(f"refusing {_shown(text)}: more than {limit} digits")
    if plain:
        return Fraction(int(head + tail), 10 ** len(tail))
    return Fraction(text)


def as_rational(value: object) -> Fraction:
    """Convert to ``Fraction`` without ever rounding.

    Accepts int, Fraction, and strings such as "3", "-7/2", "0.125" or
    "1e-3", all of which are exact (see rational_from_text for the cap on
    decimal exponents). Floats are rejected: their binary rounding error
    must not leak into verdicts.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise NonRational(f"cannot interpret {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return rational_from_text(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise NonRational(f"not an exact rational: {_shown(value)}") from exc
    if isinstance(value, float):
        raise NonRational(
            f"refusing float {value!r}: pass an int, a Fraction, or an exact string"
        )
    raise NonRational(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Lossless text form: "p/q", or plain "p" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_to_json(value: Fraction):
    """JSON form: a bare int when integral, otherwise a "p/q" string."""
    if value.denominator == 1:
        return value.numerator
    return format_rational(value)


def ratio_to_json(a: int, D: int):
    """``rational_to_json(Fraction(a, D))`` for ints a and D >= 1, without
    building the Fraction."""
    g = math.gcd(a, D)
    if g == D:
        return a // D
    return f"{a // g}/{D // g}"

"""Closed rational intervals and their exact arithmetic.

An ``Interval`` is an ordered pair of rationals ``[lo, hi]`` with
``lo <= hi``. Arithmetic follows the usual image rules (Minkowski sum
and difference, four-product multiplication, four-quotient division,
integer powers as set images). The one non-classical operation is the
generalized Hukuhara difference ``gh_diff``, which always exists and
additionally reports which decomposition case produced it; the plain
Hukuhara difference ``h_diff`` exists only when the widths allow it.

Every operation is exact. Floats are refused at construction time.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ._records import record
from .rationals import as_rational, format_rational


class InvalidBounds(ValueError):
    """Lower endpoint exceeds the upper endpoint."""


class DivisorContainsZero(ZeroDivisionError):
    """Division by an interval that contains zero."""


class HDiffNotExist(ArithmeticError):
    """The Hukuhara difference does not exist for these widths."""


class ExponentOutOfRange(ValueError):
    """Integer power with an exponent below one (or not an integer)."""


def _check_exponent(name, value):
    """Refuse, with ExponentOutOfRange, an exponent that is not an int >= 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExponentOutOfRange(f"{name} must be an integer >= 1, got {value!r}")
    if value < 1:
        raise ExponentOutOfRange(f"{name} must be >= 1, got {value}")


class GhCase(enum.Enum):
    """Which decomposition realizes a generalized Hukuhara difference.

    A:    u = v + w
    B:    v = u + (-1) * w
    BOTH: both decompositions hold (equal widths).
    """

    A = "A"
    B = "B"
    BOTH = "Both"


def _coerce(value):
    # scalars embed as degenerate intervals; anything else is refused
    if isinstance(value, Interval):
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, Fraction, str)):
        return Interval.point(value)
    return None


@record
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo = as_rational(self.lo)
        hi = as_rational(self.hi)
        if lo > hi:
            raise InvalidBounds(f"lower bound {lo} exceeds upper bound {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value) -> "Interval":
        """Degenerate interval [x, x]."""
        q = as_rational(value)
        return cls(q, q)

    @classmethod
    def zero(cls) -> "Interval":
        return cls(0, 0)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    @property
    def norm(self) -> Fraction:
        """Quasi-norm: max absolute endpoint, the distance to [0, 0]."""
        return max(-self.lo, self.hi)

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        """Minkowski difference: image of u - v over both sets."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.contains_zero:
            raise DivisorContainsZero(f"divisor {other} contains zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, k):
        """Set image of t**k for integer k >= 1."""
        _check_exponent("exponent", k)
        if k % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**k, self.hi**k)
        if self.hi <= 0:
            return Interval(self.hi**k, self.lo**k)
        # even power of an interval straddling zero
        return Interval(Fraction(0), max(-self.lo, self.hi) ** k)

    # -- differences and metric ---------------------------------------

    def gh_diff(self, other) -> tuple["Interval", GhCase]:
        """Generalized Hukuhara difference u .gh_diff. v with its case."""
        w = _coerce(other)
        if w is None:
            raise TypeError(f"cannot subtract {other!r} from an interval")
        dlo = self.lo - w.lo
        dhi = self.hi - w.hi
        if dlo < dhi:
            return Interval(dlo, dhi), GhCase.A
        if dlo > dhi:
            return Interval(dhi, dlo), GhCase.B
        return Interval(dlo, dhi), GhCase.BOTH

    def h_diff(self, other) -> "Interval":
        """Hukuhara difference: gh_diff outside case B, where it does not exist
        (width(self) < width(other), which is width(self) + width(diff) there)."""
        diff, case = self.gh_diff(other)
        if case is GhCase.B:
            raise HDiffNotExist(f"width {self.width} is smaller than width"
                                f" {self.width + diff.width}")
        return diff

    def hausdorff(self, other) -> Fraction:
        """Hausdorff distance: max endpoint displacement."""
        w = _coerce(other)
        if w is None:
            raise TypeError(f"no distance from an interval to {other!r}")
        return max(abs(self.lo - w.lo), abs(self.hi - w.hi))

    # -- presentation --------------------------------------------------

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"

    def __repr__(self) -> str:
        return f"Interval({format_rational(self.lo)!r}, {format_rational(self.hi)!r})"

    def to_pair(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

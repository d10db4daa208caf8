from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opialcheck import (
    DivisorContainsZero,
    ExponentOutOfRange,
    GhCase,
    HDiffNotExist,
    Interval,
    InvalidBounds,
    NonRational,
    as_rational,
    format_rational,
    rational_to_json,
)

from conftest import intervals, iv, rationals


# -- rational coercion --------------------------------------------------------


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational("3") == Fraction(3)
    assert as_rational("-7/2") == Fraction(-7, 2)
    assert as_rational("0.125") == Fraction(1, 8)
    assert as_rational("1e-3") == Fraction(1, 1000)
    assert as_rational(Fraction(2, 6)) == Fraction(1, 3)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(NonRational):
        as_rational(0.1)
    with pytest.raises(NonRational):
        as_rational(True)
    with pytest.raises(NonRational):
        as_rational(None)


def test_as_rational_rejects_garbage_strings():
    with pytest.raises(NonRational):
        as_rational("three")


def test_rational_formatting():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert rational_to_json(Fraction(4, 2)) == 2
    assert rational_to_json(Fraction(1, 3)) == "1/3"


# -- construction --------------------------------------------------------------


def test_interval_orders_bounds():
    with pytest.raises(InvalidBounds):
        Interval(2, 1)


def test_interval_coerces_strings():
    a = Interval("1/2", "3/4")
    assert a.lo == Fraction(1, 2) and a.hi == Fraction(3, 4)


def test_interval_rejects_floats():
    with pytest.raises(NonRational):
        Interval(0.1, 0.2)


def test_point_zero_degenerate():
    assert Interval.point(5) == Interval(5, 5)
    assert Interval.zero() == Interval(0, 0)
    assert Interval(3, 3).is_degenerate
    assert not Interval(3, 4).is_degenerate
    assert Interval(-1, 1).contains_zero
    assert not Interval(1, 2).contains_zero
    assert Interval(1, 4).width == 3


# -- arithmetic ----------------------------------------------------------------


def test_add_sub_are_minkowski():
    assert iv(1, 3) + iv(-1, 1) == iv(0, 4)
    # subtraction is Minkowski, not the gH difference
    assert iv(1, 3) - iv(0, 1) == iv(0, 3)
    assert -iv(1, 3) == iv(-3, -1)


def test_mul_sign_cases():
    assert iv(1, 2) * iv(3, 4) == iv(3, 8)
    assert iv(-2, 1) * iv(3, 4) == iv(-8, 4)
    assert iv(-2, -1) * iv(-4, -3) == iv(3, 8)
    assert iv(-2, 3) * iv(-5, 1) == iv(-15, 10)
    assert iv(1, 2) * 2 == iv(2, 4)
    assert Fraction(1, 2) * iv(1, 2) == iv(Fraction(1, 2), 1)


def test_div():
    assert iv(2, 6) / iv(1, 2) == iv(1, 6)
    assert iv(2, 6) / 2 == iv(1, 3)
    for z in (iv(0, 1), iv(-1, 0), iv(-1, 1), 0):
        with pytest.raises(DivisorContainsZero):
            iv(1, 2) / z


def test_reflected_and_unsupported_operands():
    # a scalar on the left embeds as a degenerate interval
    assert 2 - iv(0, 1) == iv(1, 2)
    assert 2 / iv(1, 2) == iv(1, 2)
    with pytest.raises(TypeError):
        iv(0, 1) + 1.5


def test_pow_cases():
    assert iv(-2, 3) ** 2 == iv(0, 9)
    assert iv(-3, 2) ** 2 == iv(0, 9)
    assert iv(-3, -1) ** 2 == iv(1, 9)
    assert iv(-3, -1) ** 3 == iv(-27, -1)
    assert iv(1, 2) ** 3 == iv(1, 8)
    assert iv(-2, 3) ** 1 == iv(-2, 3)


def test_pow_rejects_bad_exponents():
    for k in (0, -1, True, Fraction(1, 2)):
        with pytest.raises(ExponentOutOfRange):
            iv(1, 2) ** k


# -- gH difference, metric, norm -------------------------------------------------


def test_gh_diff_cases():
    d, case = iv(1, 3).gh_diff(iv(0, 2))
    assert d == iv(1, 1) and case is GhCase.BOTH
    d, case = iv(0, 4).gh_diff(iv(0, 1))
    assert d == iv(0, 3) and case is GhCase.A
    d, case = iv(3, 4).gh_diff(iv(0, 2))
    assert d == iv(2, 3) and case is GhCase.B


def test_h_diff_existence():
    assert iv(0, 1).h_diff(iv(0, Fraction(1, 2))) == iv(0, Fraction(1, 2))
    with pytest.raises(HDiffNotExist):
        iv(0, 1).h_diff(iv(-1, 1))


@given(intervals(), intervals())
def test_h_diff_is_gh_diff_outside_case_b(u, v):
    # the Hukuhara difference w (u = v + w) exists exactly when width(u) >=
    # width(v), and there it is the gH difference
    d, case = u.gh_diff(v)
    if u.width < v.width:
        assert case is GhCase.B
        with pytest.raises(HDiffNotExist) as info:
            u.h_diff(v)
        assert str(info.value) == f"width {u.width} is smaller than width {v.width}"
    else:
        assert u.h_diff(v) == d and v + d == u


@pytest.mark.parametrize("method,message", [
    ("gh_diff", "cannot subtract 1.5 from an interval"),
    ("h_diff", "cannot subtract 1.5 from an interval"),
    ("hausdorff", "no distance from an interval to 1.5"),
])
def test_difference_errors_name_the_operand(method, message):
    with pytest.raises(TypeError) as info:
        getattr(iv(0, 1), method)(1.5)
    assert str(info.value) == message


def test_hausdorff_and_norm_values():
    assert iv(-1, 1).hausdorff(iv(2, 3)) == 3
    assert iv(1, 3).norm == 3
    assert iv(-5, 2).norm == 5
    assert Interval.zero().norm == 0


def test_str_and_to_pair():
    assert str(iv(1, 3)) == "[1, 3]"
    assert iv(Fraction(1, 2), 1).to_pair() == (Fraction(1, 2), Fraction(1, 1))


@given(intervals(), intervals())
def test_norm_is_multiplicative(u, v):
    assert (u * v).norm == u.norm * v.norm


@given(intervals(), st.integers(min_value=1, max_value=5))
def test_norm_of_power(u, k):
    assert (u ** k).norm == u.norm ** k


@given(intervals(), intervals())
def test_norm_triangle(u, v):
    assert (u + v).norm <= u.norm + v.norm


@given(intervals())
def test_norm_is_distance_to_zero(u):
    assert u.norm == u.hausdorff(Interval.zero())


@given(intervals(), intervals())
def test_gh_norm_equals_hausdorff(u, v):
    d, _ = u.gh_diff(v)
    assert d.norm == u.hausdorff(v)


@given(intervals(), intervals(), intervals())
def test_hausdorff_metric_axioms(u, v, w):
    assert u.hausdorff(v) == v.hausdorff(u)
    assert (u.hausdorff(v) == 0) == (u == v)
    assert u.hausdorff(w) <= u.hausdorff(v) + v.hausdorff(w)


@given(intervals(), rationals())
def test_norm_absolute_homogeneity(u, lam):
    assert (u * lam).norm == abs(lam) * u.norm


@given(intervals(), intervals())
def test_squares_sum_norms(a, b):
    # squares are non-negative intervals, so their norms add under Minkowski sum
    assert (a ** 2 + b ** 2).norm == a.norm ** 2 + b.norm ** 2


@pytest.mark.parametrize("other", [True, 1.5, object(), [1]], ids=["bool", "float", "object", "list"])
def test_foreign_operand_raises_type_error(other):
    # _coerce refuses the operand, so both sides return NotImplemented
    x = iv(1, 2)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)

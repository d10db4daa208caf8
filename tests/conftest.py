from fractions import Fraction

import pytest
from hypothesis import strategies as st

from opialcheck import Interval, IntervalSequence


def iv(lo, hi=None):
    if hi is None:
        hi = lo
    return Interval(lo, hi)


def seq(pairs, base=0):
    return IntervalSequence.from_pairs(pairs, base)


def rseq(values, base=0):
    return IntervalSequence.from_reals(values, base)


# rationals with small denominators keep exact arithmetic fast under powers
def rationals(max_num=50, max_den=8):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def intervals(max_num=50, max_den=8):
    return st.builds(
        lambda a, b: Interval(min(a, b), max(a, b)),
        rationals(max_num, max_den),
        rationals(max_num, max_den),
    )


@pytest.fixture
def ex33():
    """The bundled up-then-down worked sequence."""
    return seq([(0, 0), (1, 2), (2, 4), (3, 6), (1, 2), (0, 0)])


@pytest.fixture
def ex32_n5():
    return seq(
        [(1, 2), (Fraction(1, 2), 1), (Fraction(1, 3), Fraction(2, 3)),
         (Fraction(1, 4), Fraction(1, 2)), (0, 0)],
        base=1,
    )


# primes near 10^6: sequences mixing them have pairwise coprime denominators,
# so the common denominator of a sequence grows to ~10^(6 * length)
BIG_PRIMES = (999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037)


def mixed_rationals():
    """Small-denominator rationals, large prime denominators, and zero."""
    return st.one_of(
        rationals(max_num=30, max_den=12),
        st.builds(Fraction, st.integers(-3_000_000, 3_000_000), st.sampled_from(BIG_PRIMES)),
        st.just(Fraction(0)),
    )


def mixed_intervals(degenerate=False):
    if degenerate:
        return st.builds(Interval.point, mixed_rationals())
    return st.builds(
        lambda a, b: Interval(min(a, b), max(a, b)), mixed_rationals(), mixed_rationals()
    )


@st.composite
def mixed_sequences(draw, min_size=2, max_size=7, size=None):
    """Interval sequences with mixed denominators and a base index in -4..4;
    a quarter of them are degenerate (real-valued)."""
    degenerate = draw(st.integers(0, 3)) == 0
    if size is None:
        size = draw(st.integers(min_size, max_size))
    items = draw(st.lists(mixed_intervals(degenerate), min_size=size, max_size=size))
    return IntervalSequence(tuple(items), draw(st.integers(-4, 4)))

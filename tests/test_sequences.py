import copy
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opialcheck import (
    Direction,
    IndexOutOfRange,
    Interval,
    IntervalSequence,
    InvalidBounds,
    MuDirection,
    NotDecomposable,
    Synchrony,
    TooShort,
    direction_set,
    first_direction_break,
    first_mu_break,
    mu_direction_set,
    synchronous,
)

from conftest import intervals, iv, mixed_intervals, mixed_rationals, mixed_sequences, rseq, seq


# -- construction and indexing -----------------------------------------------


def test_from_pairs_and_reals():
    s = seq([(0, 1), (2, 3)])
    assert s.at(0) == iv(0, 1) and s.at(1) == iv(2, 3)
    r = rseq([1, 2, 3], base=5)
    assert r.is_degenerate
    assert r.reals() == (Fraction(1), Fraction(2), Fraction(3))
    assert r.first_index == 5 and r.last_index == 7


def test_raw_items_need_constructors():
    with pytest.raises(TypeError):
        IntervalSequence(((0, 1),))


def test_base_index_must_be_int():
    with pytest.raises(TypeError):
        IntervalSequence((iv(0, 1),), base_index=True)


def test_empty_and_singleton_are_valid():
    assert len(IntervalSequence(())) == 0
    assert len(seq([(1, 2)])) == 1


def test_at_bounds():
    s = seq([(0, 1), (2, 3)], base=10)
    assert s.at(11) == iv(2, 3)
    with pytest.raises(IndexOutOfRange):
        s.at(9)
    with pytest.raises(IndexOutOfRange):
        s.at(12)


def test_window_keeps_absolute_indexing():
    s = seq([(0, 0), (1, 1), (2, 2), (3, 3)], base=2)
    w = s.window(3, 4)
    assert w.first_index == 3 and w.at(4) == iv(2, 2)
    with pytest.raises(IndexOutOfRange):
        s.window(1, 3)
    with pytest.raises(IndexOutOfRange):
        s.window(4, 3)


def test_reals_requires_degenerate():
    with pytest.raises(ValueError):
        seq([(0, 1)]).reals()


def test_to_pairs_round_trip():
    pairs = ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3, 4)))
    assert seq(pairs).to_pairs() == pairs


# -- difference operators -------------------------------------------------------


def test_nabla_base_and_values(ex33):
    g = ex33.nabla()
    assert g.first_index == 1
    assert list(g) == [iv(1, 2), iv(1, 2), iv(1, 2), iv(-4, -2), iv(-2, -1)]


def test_delta_same_values_shifted_base(ex33):
    d = ex33.delta()
    assert d.first_index == 0
    assert list(d) == list(ex33.nabla())


def test_diffs_too_short():
    for s in (IntervalSequence(()), seq([(1, 2)])):
        with pytest.raises(TooShort):
            s.nabla()
        with pytest.raises(TooShort):
            s.delta()


def test_degenerate_diffs_are_classical():
    s = rseq([0, 1, 3, 2])
    assert [it.lo for it in s.nabla()] == [1, 2, -1]
    assert s.nabla().is_degenerate


def test_prefix_norm_sum():
    g = seq([(0, 0), (1, 2), (2, 6)]).nabla()  # norms 2, 4 at indices 1, 2
    assert g.prefix_norm_sum(1) == 2
    assert g.prefix_norm_sum(2) == 6
    assert g.prefix_norm_sum(0) == 0  # below the base: empty sum
    with pytest.raises(IndexOutOfRange):
        g.prefix_norm_sum(3)


def test_prefix_norm_sum_empty_sequence():
    empty = IntervalSequence((), base_index=4)
    for i in (-10, 0, 4, 99):
        assert empty.prefix_norm_sum(i) == 0


# -- order predicates ------------------------------------------------------------


def test_constant_satisfies_both_orders():
    c = seq([(1, 2), (1, 2), (1, 2)])
    assert direction_set(c) == {Direction.INCREASING, Direction.DECREASING}
    assert mu_direction_set(c) == {MuDirection.MU_INCREASING, MuDirection.MU_DECREASING}
    assert direction_set(c, strict=True) == frozenset()


def test_direction_set_is_lu_order():
    # lo rises but hi falls: neither LU order
    assert direction_set(seq([(0, 3), (1, 2)])) == frozenset()
    assert direction_set(seq([(0, 1), (1, 3)])) == {Direction.INCREASING}
    assert direction_set(seq([(1, 3), (0, 1)])) == {Direction.DECREASING}


def test_direction_set_on_subrange():
    s = seq([(5, 6), (0, 1), (1, 3)])
    assert direction_set(s) == frozenset()
    assert direction_set(s, 1, 2) == {Direction.INCREASING}


def test_first_breaks():
    s = seq([(0, 1), (1, 2), (0, 2), (0, 1)])
    assert first_direction_break(s, Direction.INCREASING) == 2
    assert first_direction_break(s, Direction.INCREASING, 2, 3) == 3
    assert first_direction_break(s, Direction.DECREASING, 2, 3) is None
    m = seq([(0, 2), (0, 1), (0, 5)])
    assert first_mu_break(m, MuDirection.MU_DECREASING) == 2
    assert first_mu_break(m, MuDirection.MU_INCREASING) == 1


def test_classify_collapses_ties():
    p = seq([(1, 2), (1, 2)]).classify()
    assert p.direction is Direction.INCREASING
    assert p.mu_direction is MuDirection.MU_INCREASING
    q = seq([(3, 4), (1, 2), (0, 1)]).classify()
    assert q.direction is Direction.DECREASING
    r = seq([(0, 3), (1, 2)]).classify()
    assert r.direction is Direction.NON_MONOTONE
    assert r.mu_direction is MuDirection.MU_DECREASING


def test_zero_indices(ex33):
    assert ex33.zero_indices() == (0, 5)
    assert seq([(0, 1)]).zero_indices() == ()


# -- segmentation ----------------------------------------------------------------


def test_alternate_segments_ex33(ex33):
    d = ex33.alternate_segments()
    assert d.breakpoints == (0, 3, 5)
    assert [(s.start, s.end) for s in d.segments] == [(0, 3), (3, 5)]
    assert d.segments[0].profile.direction is Direction.INCREASING
    assert d.segments[1].profile.direction is Direction.DECREASING


def test_segments_share_boundary_elements():
    s = seq([(0, 0), (1, 1), (0, 0), (2, 2), (0, 0)])
    d = s.alternate_segments()
    for left, right in zip(d.segments, d.segments[1:]):
        assert left.end == right.start


def test_not_decomposable():
    with pytest.raises(NotDecomposable, match="0 -> 1"):
        seq([(0, 3), (1, 2)]).alternate_segments()


def test_segments_too_short():
    with pytest.raises(TooShort):
        seq([(0, 0)]).alternate_segments()


def test_monotone_input_is_one_segment():
    d = seq([(0, 0), (1, 2), (2, 4)]).alternate_segments()
    assert len(d.segments) == 1
    assert d.breakpoints == (0, 2)


@given(st.lists(intervals(max_num=6, max_den=3), min_size=2, max_size=8))
def test_decomposable_iff_every_step_has_an_order(items):
    s = IntervalSequence(tuple(items))
    stepwise = all(
        direction_set(s, i - 1, i) for i in range(1, s.last_index + 1)
    )
    try:
        d = s.alternate_segments()
    except NotDecomposable:
        assert not stepwise
    else:
        assert stepwise
        # every reported segment genuinely is monotone and mu-monotone
        for g in d.segments:
            w = s.window(g.start, g.end)
            assert direction_set(w)
            assert mu_direction_set(w)


# -- synchrony ---------------------------------------------------------------------


def test_synchronous_cases():
    u = seq([(0, 0), (1, 2), (2, 4)])
    v = seq([(0, 0), (1, 3), (3, 7)])
    assert synchronous(u, v) is Synchrony.SYNCHRONOUS
    w = seq([(3, 7), (1, 3), (0, 0)])
    assert synchronous(u, w) is Synchrony.ASYNCHRONOUS
    z = seq([(0, 3), (1, 2), (0, 0)])
    assert synchronous(u, z) is Synchrony.NEITHER
    # a constant partner shares an order with anything monotone
    c = seq([(1, 1), (1, 1), (1, 1)])
    assert synchronous(u, c) is Synchrony.SYNCHRONOUS


def test_synchronous_length_mismatch():
    from opialcheck import LengthMismatch

    with pytest.raises(LengthMismatch):
        synchronous(seq([(0, 0), (1, 1)]), seq([(0, 0)]))


# -- differential check against Interval comparisons ------------------------------
#
# The order predicates and the segmentation compare integers after clearing
# denominators. The reference compares the Interval endpoints and widths of
# each step directly.


def _step_orders(prev, cur, strict=False):
    """(LU orders, width orders) of one step, compared as Fractions."""
    if strict:
        up = cur.lo > prev.lo and cur.hi > prev.hi
        down = cur.lo < prev.lo and cur.hi < prev.hi
        mu_up, mu_down = cur.width > prev.width, cur.width < prev.width
    else:
        up = cur.lo >= prev.lo and cur.hi >= prev.hi
        down = cur.lo <= prev.lo and cur.hi <= prev.hi
        mu_up, mu_down = cur.width >= prev.width, cur.width <= prev.width
    dirs = {d for d, ok in ((Direction.INCREASING, up), (Direction.DECREASING, down)) if ok}
    mus = {d for d, ok in ((MuDirection.MU_INCREASING, mu_up),
                           (MuDirection.MU_DECREASING, mu_down)) if ok}
    return dirs, mus


def _reference_orders(items, strict=False):
    dirs = {Direction.INCREASING, Direction.DECREASING}
    mus = {MuDirection.MU_INCREASING, MuDirection.MU_DECREASING}
    for prev, cur in zip(items, items[1:]):
        d, mu = _step_orders(prev, cur, strict)
        dirs &= d
        mus &= mu
    return dirs, mus


def _reference_break(items, start, want, width=False):
    for k, (prev, cur) in enumerate(zip(items, items[1:])):
        if want not in _step_orders(prev, cur)[1 if width else 0]:
            return start + k + 1
    return None


@settings(max_examples=300, deadline=None)
@given(s=mixed_sequences(min_size=1, max_size=8), data=st.data())
def test_order_predicates_match_interval_reference(s, data):
    b, e = s.first_index, s.last_index
    first = data.draw(st.integers(b, e))
    last = data.draw(st.integers(first, e))
    items = s.items[first - b : last - b + 1]
    for strict in (False, True):
        dirs, mus = _reference_orders(items, strict)
        assert direction_set(s, first, last, strict=strict) == dirs
        assert mu_direction_set(s, first, last, strict=strict) == mus
    for d in Direction:
        assert first_direction_break(s, d, first, last) == _reference_break(items, first, d)
    for mu in MuDirection:
        assert first_mu_break(s, mu, first, last) == _reference_break(
            items, first, mu, width=True)
    whole = _reference_orders(s.items)
    assert direction_set(s) == whole[0] and mu_direction_set(s) == whole[1]


def _label(found, up, down, neither):
    return up if up in found else down if down in found else neither


@st.composite
def stepped_sequences(draw):
    """Sequences in which every step moves both endpoints the same way, so
    that they always decompose; zero steps make ties."""
    cur = draw(mixed_intervals())
    items = [cur]
    for _ in range(draw(st.integers(1, 9))):
        a, c = abs(draw(mixed_rationals())), abs(draw(mixed_rationals()))
        sign = draw(st.sampled_from((1, -1)))
        lo, hi = cur.lo + sign * a, cur.hi + sign * c
        if lo > hi:  # moving the endpoints the other way round keeps lo <= hi
            lo, hi = cur.lo + sign * c, cur.hi + sign * a
        cur = Interval(lo, hi)
        items.append(cur)
    return IntervalSequence(tuple(items), draw(st.integers(-4, 4)))


@settings(max_examples=300, deadline=None)
@given(s=st.one_of(mixed_sequences(max_size=10), stepped_sequences()))
def test_segment_profiles_match_window_classify(s):
    try:
        dec = s.alternate_segments()
    except NotDecomposable:
        steps = [_step_orders(p, c)[0] for p, c in zip(s.items, s.items[1:])]
        assert not all(steps)
        return
    assert dec.breakpoints[0] == s.first_index and dec.breakpoints[-1] == s.last_index
    assert [g.start for g in dec.segments] == list(dec.breakpoints[:-1])
    assert [g.end for g in dec.segments] == list(dec.breakpoints[1:])
    for g in dec.segments:
        w = s.window(g.start, g.end)
        assert g.profile == w.classify()
        # and the window's own classification agrees with Interval comparisons
        dirs, mus = _reference_orders(w.items)
        assert g.profile.direction is _label(
            dirs, Direction.INCREASING, Direction.DECREASING, Direction.NON_MONOTONE)
        assert g.profile.mu_direction is _label(
            mus, MuDirection.MU_INCREASING, MuDirection.MU_DECREASING,
            MuDirection.MU_NON_MONOTONE)
        assert g.profile.zero_indices == tuple(
            i for i in w.indices if w.at(i) == Interval.zero())


# -- sequences built from integers -----------------------------------------------
#
# The generator and the grid scan build sequences from a common denominator and
# integer endpoints. Each such sequence must behave exactly like the one built
# from the same Interval elements.


def _scaled_ints(s, k):
    """(D, lows, highs) of s from its Interval elements, with D = k times the
    lcm of their denominators: not in lowest terms when k > 1."""
    D = k * math.lcm(*[q.denominator for it in s.items for q in (it.lo, it.hi)])
    return D, [int(it.lo * D) for it in s.items], [int(it.hi * D) for it in s.items]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotDecomposable, TooShort) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(s=mixed_sequences(min_size=0, max_size=8), k=st.integers(1, 6), data=st.data())
def test_from_ints_matches_interval_construction(s, k, data):
    D, lows, highs = _scaled_ints(s, k)
    t = IntervalSequence._from_ints(D, lows, highs, s.base_index)
    # everything that reads the integers first, before t builds its elements
    assert t == s and s == t
    assert len(t) == len(s) and t.indices == s.indices
    assert t.is_degenerate == s.is_degenerate
    assert t.zero_indices() == s.zero_indices()
    zero = Interval.zero()
    assert [t.is_zero_at(i) for i in t.indices] == [it == zero for it in s.items]
    assert [t.at(i) for i in t.indices] == list(s.items)
    for strict in (False, True):
        assert t.classify(strict) == s.classify(strict)
    assert _outcome(t.alternate_segments) == _outcome(s.alternate_segments)
    if len(s):
        b, e = s.first_index, s.last_index
        first = data.draw(st.integers(b, e))
        last = data.draw(st.integers(first, e))
        for strict in (False, True):
            assert direction_set(t, first, last, strict) == direction_set(s, first, last, strict)
            assert (mu_direction_set(t, first, last, strict)
                    == mu_direction_set(s, first, last, strict))
        for d in Direction:
            assert (first_direction_break(t, d, first, last)
                    == first_direction_break(s, d, first, last))
        for mu in MuDirection:
            assert first_mu_break(t, mu, first, last) == first_mu_break(s, mu, first, last)
        w, ws = t.window(first, last), s.window(first, last)
        assert w == ws and len(w) == len(ws) and w.first_index == first
        assert w.items == ws.items
    assert t != IntervalSequence._from_ints(D, lows, highs, s.base_index + 1)
    # then the elements, and what is computed from them
    assert t.items == s.items
    assert hash(t) == hash(s)
    assert repr(t) == repr(s) and str(t) == str(s)
    assert copy.deepcopy(t) == s


def test_from_ints_empty_sequence():
    t = IntervalSequence._from_ints(6, (), (), 3)
    s = IntervalSequence((), 3)
    assert t == s and hash(t) == hash(s) and repr(t) == repr(s)
    assert len(t) == 0 and t.items == () and t.last_index == 2
    assert t.zero_indices() == () and t.is_degenerate
    with pytest.raises(IndexOutOfRange):
        t.is_zero_at(3)


def test_from_ints_keeps_value_checks():
    with pytest.raises(InvalidBounds):
        IntervalSequence._from_ints(4, (0, 3), (1, 2))
    for bad in (0, -2, True, Fraction(1), 1.0):
        with pytest.raises(ValueError):
            IntervalSequence._from_ints(bad, (0,), (1,))
    with pytest.raises(TypeError):
        IntervalSequence._from_ints(2, (0,), (1,), base_index=False)
    t = IntervalSequence._from_ints(4, (0, 2), (2, 6))
    assert t == seq([(0, Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2))])
    with pytest.raises(FrozenInstanceError):
        t.D = 2


def test_order_sets_are_the_listed_sets():
    from opialcheck import sequences

    inc, dec = Direction.INCREASING, Direction.DECREASING
    mu_inc, mu_dec = MuDirection.MU_INCREASING, MuDirection.MU_DECREASING
    assert sequences._DIRECTION_SETS == (
        frozenset(), frozenset({inc}), frozenset({dec}), frozenset({inc, dec}))
    assert sequences._MU_SETS == (
        frozenset(), frozenset({mu_inc}), frozenset({mu_dec}), frozenset({mu_inc, mu_dec}))


def _reference_bits(xss, strict):
    # bit 1 when every sequence of xss rises (strict) or does not fall at
    # every step, bit 2 when every one falls or does not rise; read step by step
    bits = 3
    for xs in xss:
        for x0, x1 in zip(xs, xs[1:]):
            up = x1 > x0 if strict else x1 >= x0
            down = x1 < x0 if strict else x1 <= x0
            bits &= up | (down << 1)
    return bits


def test_order_bits_match_a_per_step_reference():
    import random

    from opialcheck.sequences import _dir_bits, _mu_bits

    rng = random.Random(2502)
    for _ in range(200):
        n, base = rng.randint(1, 7), rng.randint(-2, 2)
        lows = [rng.randint(-2, 2) for _ in range(n)]
        highs = [a + rng.randint(0, 2) for a in lows]
        s = IntervalSequence._from_ints(rng.randint(1, 3), lows, highs, base)
        for strict in (False, True):
            assert _dir_bits(s, strict=strict) == _reference_bits((lows, highs), strict)
            for first in range(base, base + n):
                for last in range(first, base + n):
                    k, j = first - base, last - base + 1
                    stretch = (lows[k:j], highs[k:j])
                    assert _dir_bits(s, first, last, strict) == _reference_bits(stretch, strict)
                    widths = [c - a for a, c in zip(*stretch)]
                    assert _mu_bits(s, first, last, strict) == _reference_bits((widths,), strict)


def test_direction_set_outside_the_sequence_raises():
    s = seq([(0, 1), (1, 2), (2, 3)], base=1)
    with pytest.raises(IndexOutOfRange, match=r"range \[0, 2\] outside \[1, 3\]"):
        direction_set(s, 0, 2)
    with pytest.raises(IndexOutOfRange):
        mu_direction_set(s, 2, 4)

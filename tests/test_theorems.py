import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opialcheck import (
    ArityMismatch,
    BoundaryNotZero,
    ExponentOutOfRange,
    Interval,
    IntervalSequence,
    LengthMismatch,
    Operator,
    TheoremId,
    TooShort,
    WindowOutOfRange,
    WindowRequired,
    FuzzConfig,
    check_classical,
    check_pair,
    check_single,
    cli,
    lhs_terms,
    lookup,
    oracle,
    ratio_scan,
    registry,
    theorems,
)
from opialcheck.theorems import OutputTooLarge

from conftest import mixed_sequences, rseq, seq


# -- registry ------------------------------------------------------------------


def test_registry_contents():
    specs = registry()
    assert len(specs) == 17
    assert specs[0].id is TheoremId.T2_2
    assert specs[-1].id is TheoremId.T4_5
    assert {s.id.value for s in specs} == {
        "T2_2", "L3_1", "L3_01", "L3_02",
        "T3_1", "T3_2", "T3_3", "T3_4", "T3_5",
        "T3_6", "T3_7", "T3_8", "T3_9", "T3_10",
        "T4_1", "T4_2", "T4_5",
    }


def test_lookup_coerces_strings():
    assert lookup("T3_5").id is TheoremId.T3_5
    assert lookup(TheoremId.T3_5) is lookup("T3_5")
    with pytest.raises(ValueError):
        lookup("T9_9")


def test_operators_and_arity():
    assert lookup("T3_1").operator is Operator.NABLA
    assert lookup("T4_1").operator is Operator.DELTA
    assert lookup("T2_2").operator is Operator.CLASSICAL_FORWARD
    assert lookup("T3_6").arity == 2
    assert lookup("T3_1").arity == 1


def test_windowed_flags():
    windowed = {s.id.value for s in registry() if s.windowed}
    assert windowed == {"L3_02", "T3_2", "T3_4", "T4_2", "T3_7", "T3_9"}
    assert lookup("T3_8").window_optional
    assert not lookup("T3_8").windowed


def test_constants():
    assert lookup("T3_1").constant(2, 3, n=5) == Fraction(108, 5)
    assert lookup("T3_2").constant(1, 2, n=2, m=5) == Fraction(8, 3)
    assert lookup("T3_5").constant(2, 3, m=5) == Fraction(27, 5)
    assert lookup("T2_2").constant(1, 1, n=4) == 1
    assert lookup("T3_6").constant(n=2) == 1
    assert lookup("T3_7").constant(n=1, m=3) == 1
    assert lookup("T3_10").constant(m=5) == Fraction(3, 2)


def test_constant_validation():
    with pytest.raises(ValueError, match="n"):
        lookup("T3_1").constant(1, 1)
    with pytest.raises(ValueError, match="^T3_5 constant needs m$"):
        lookup("T3_5").constant(2, 3)
    with pytest.raises(ExponentOutOfRange):
        lookup("T3_1").constant(0, 1, n=3)
    with pytest.raises(ExponentOutOfRange):
        lookup("T3_1").constant(True, 1, n=3)


# -- single-sequence checks -------------------------------------------------------


def test_t3_5_frozen_values(ex33):
    v = check_single(ex33, 2, 3, "T3_5")
    assert v.in_hypotheses and v.holds
    assert v.lhs == 704
    assert v.rhs == Fraction(31104, 5)
    assert v.constant == Fraction(27, 5)
    assert v.ratio == Fraction(55, 486)
    assert v.lambda1 == 2 and v.lambda2 == 3
    assert v.window is None


def test_t3_5_second_exponent_pair(ex33):
    v = check_single(ex33, 1, 2, "T3_5")
    assert v.holds
    assert v.lhs == 80
    assert v.rhs == 192


def test_t4_5_frozen_values(ex33):
    v = check_single(ex33, 2, 3, "T4_5")
    assert v.in_hypotheses and v.holds
    assert v.lhs == 2496
    assert v.rhs == Fraction(31104, 5)


def test_t3_1_equality_on_doubling_ramp():
    s = seq([(i, 2 * i) for i in range(4)])
    v = check_single(s, 1, 1, "T3_1")
    assert v.in_hypotheses and v.holds
    assert v.lhs == 24 and v.rhs == 24
    assert v.ratio == 1


def test_t4_1_on_doubling_ramp():
    s = seq([(i, 2 * i) for i in range(4)])
    v = check_single(s, 1, 1, "T4_1")
    assert v.in_hypotheses and v.holds
    assert v.lhs == 12 and v.rhs == 24


def test_t3_2_windowed(ex32_n5):
    v = check_single(ex32_n5, 1, 2, "T3_2", window=(2, 5))
    assert v.in_hypotheses and v.holds
    assert v.lhs == Fraction(235, 216)
    assert v.rhs == Fraction(28, 9)
    assert v.constant == Fraction(8, 3)
    assert v.window == (2, 5)


def test_window_validation(ex32_n5):
    with pytest.raises(WindowRequired):
        check_single(ex32_n5, 1, 2, "T3_2")
    with pytest.raises(WindowOutOfRange):
        check_single(ex32_n5, 1, 2, "T3_2", window=(1, 5))
    with pytest.raises(WindowOutOfRange):
        check_single(ex32_n5, 1, 2, "T3_2", window=(2, 6))
    with pytest.raises(WindowOutOfRange):
        check_single(ex32_n5, 1, 2, "T3_2", window=(4, 3))
    with pytest.raises(WindowOutOfRange, match=r"^window must be a pair of indices, got \(2,\)$"):
        check_single(ex32_n5, 1, 2, "T3_2", window=(2,))
    with pytest.raises(WindowOutOfRange, match=r"^window indices must be ints, got \(2, '5'\)$"):
        check_single(ex32_n5, 1, 2, "T3_2", window=(2, "5"))
    with pytest.raises(ValueError):
        check_single(ex32_n5, 1, 2, "T3_1", window=(2, 5))


def test_out_of_hypotheses_still_computes(ex33):
    # ex33 is not monotone, so T3_1 does not apply, but the numbers
    # are still evaluated and reported
    v = check_single(ex33, 1, 1, "T3_1")
    assert not v.in_hypotheses
    failed = [p for p in v.preconditions if not p.passed]
    assert failed and all(p.detail for p in failed)
    assert v.lhs > 0 and v.rhs > 0
    assert v.in_hypotheses == all(p.passed for p in v.preconditions)


def test_exponent_validation(ex33):
    with pytest.raises(ExponentOutOfRange):
        check_single(ex33, 0, 1, "T3_5")
    with pytest.raises(ExponentOutOfRange):
        check_single(ex33, 1, Fraction(1, 2), "T3_5")
    with pytest.raises(ValueError):
        check_single(rseq([0, 1, 0]), 1, 2, "T2_2")


def test_too_short():
    with pytest.raises(TooShort):
        check_single(seq([(0, 0)]), 1, 1, "T3_1")


def test_arity_guards(ex33):
    with pytest.raises(ArityMismatch):
        check_single(ex33, 1, 1, "T3_6")
    with pytest.raises(ArityMismatch):
        check_pair(ex33, ex33, "T3_1")


def test_verdict_jsonable_shape(ex33):
    payload = check_single(ex33, 2, 3, "T3_5").to_jsonable()
    assert payload["theorem"] == "T3_5"
    assert payload["lhs"] == 704
    assert payload["rhs"] == "31104/5"
    assert payload["holds"] is True
    assert isinstance(payload["preconditions"], list)
    assert {"name", "passed", "detail"} <= set(payload["preconditions"][0])


# -- real-sequence lemmas ------------------------------------------------------


def test_classical_frozen_tent():
    v = check_classical([0, 1, 2, 1, 0])
    assert v.theorem is TheoremId.T2_2
    assert v.in_hypotheses and v.holds
    assert v.lhs == 4 and v.rhs == 4


def test_classical_accepts_degenerate_sequence():
    v = check_classical(rseq([0, 1, 2, 1, 0]))
    assert v.lhs == 4 and v.rhs == 4


def test_classical_boundary_enforced():
    with pytest.raises(BoundaryNotZero):
        check_classical([1, 1, 0])
    with pytest.raises(BoundaryNotZero):
        check_classical([0, 1, 1])
    with pytest.raises(ValueError):
        check_classical(seq([(0, 0), (1, 2), (0, 0)]))
    with pytest.raises(TooShort):
        check_classical([0])


def test_l3_1_signed_products():
    v = check_single(rseq([0, 1, 3]), 2, 1, "L3_1")
    assert v.in_hypotheses and v.holds
    assert v.lhs == 19  # 1^2*1 + 3^2*2, signed, no absolute values
    assert v.rhs == 27


def test_l3_01_absolute_products():
    v = check_single(rseq([0, 1, -2]), 1, 1, "L3_01")
    assert v.in_hypotheses and v.holds
    assert v.lhs == 7  # |1*1| + |-2*-3|
    assert v.rhs == 15


def test_l3_02_window():
    v = check_single(rseq([5, 2, 0]), 1, 1, "L3_02", window=(1, 2))
    assert v.in_hypotheses and v.holds
    assert v.lhs == 6
    assert v.rhs == 13


def test_real_lemma_interval_fallback(ex33):
    v = check_single(ex33, 1, 1, "T2_2")
    assert not v.in_hypotheses  # degenerate precondition fails
    assert any("interval norms" in note for note in v.notes)
    assert v.lhs >= 0 and v.rhs >= 0


# -- pair checks ------------------------------------------------------------------


def test_t3_6_equality_case():
    u = seq([(0, 0), (1, 2), (2, 4)])
    v = check_pair(u, u, "T3_6")
    assert v.in_hypotheses and v.holds
    assert v.lhs == 16 and v.rhs == 16
    assert v.lambda1 is None and v.lambda2 is None


def test_t3_7_windowed_pair():
    u = seq([(2, 4), (1, 2), (0, 0)])
    v = check_pair(u, u, "T3_7", window=(0, 2))
    assert v.in_hypotheses and v.holds
    assert v.lhs == 16 and v.rhs == 16


def test_t3_8_default_window():
    u = seq([(0, 0), (1, 2), (2, 4)])
    v = check_pair(u, u, "T3_8")
    assert v.in_hypotheses and v.holds
    assert v.window == (2, 2)
    assert v.lhs == 16 and v.rhs == 16
    assert any("v " in note or "v_" in note or "v on" in note for note in v.notes)


def test_t3_9_frozen():
    u = seq([(1, 2), (0, 0)])
    w = seq([(3, 3), (0, 0)])
    v = check_pair(u, w, "T3_9", window=(0, 1))
    assert v.in_hypotheses and v.holds
    assert v.lhs == 6
    assert v.rhs == Fraction(13, 2)


def test_t3_10_default_and_alt_boundary():
    u = seq([(1, 2), (0, 0), (1, 1), (0, 0)])
    w = seq([(0, 0), (0, 0), (2, 3), (0, 0)])
    v = check_pair(u, w, "T3_10")
    assert v.in_hypotheses and v.holds

    ua = seq([(0, 0), (1, 2), (0, 0)])
    wa = seq([(0, 0), (1, 1), (0, 0)])
    va = check_pair(ua, wa, "T3_10", alt_boundary=True)
    assert va.in_hypotheses and va.holds
    assert any("boundary" in note for note in va.notes)
    # the default reading requires the zero at the second index instead
    vd = check_pair(ua, wa, "T3_10")
    assert not vd.in_hypotheses


def test_alt_boundary_only_t3_10():
    u = seq([(0, 0), (1, 2), (2, 4)])
    with pytest.raises(ValueError):
        check_pair(u, u, "T3_6", alt_boundary=True)


def test_pair_alignment_errors():
    u = seq([(0, 0), (1, 2), (2, 4)])
    short = seq([(0, 0), (1, 2)])
    with pytest.raises(LengthMismatch, match="^lengths differ: 3 vs 2$"):
        check_pair(u, short, "T3_6")
    shifted = seq([(0, 0), (1, 2), (2, 4)], base=1)
    with pytest.raises(LengthMismatch, match="^base indices differ: 0 vs 1$"):
        check_pair(u, shifted, "T3_6")


# -- term inspection ----------------------------------------------------------------


def test_lhs_terms_t3_5(ex33):
    terms = lhs_terms(ex33, 2, 3, "T3_5")
    assert [t[0] for t in terms] == [1, 2, 3, 4, 5]
    assert [t[1] for t in terms] == [32, 128, 288, 256, None]
    v = check_single(ex33, 2, 3, "T3_5")
    assert sum(t[1] for t in terms[:4]) == v.lhs
    assert v.constant * sum(t[2] for t in terms) == v.rhs


def test_lhs_terms_windowed(ex32_n5):
    terms = lhs_terms(ex32_n5, 1, 2, "T3_2", window=(2, 5))
    assert [t[0] for t in terms] == [2, 3, 4, 5]
    assert terms[-1][1] is None
    assert sum(t[1] for t in terms[:3]) == Fraction(235, 216)


def test_lhs_terms_delta_range(ex33):
    terms = lhs_terms(ex33, 2, 3, "T4_5")
    assert [t[0] for t in terms] == [0, 1, 2, 3, 4]
    assert terms[0][1] is None
    assert sum(t[1] for t in terms[1:]) == 2496


# -- differential check against Interval arithmetic ---------------------------------
#
# The engine evaluates on integers after clearing denominators. The reference
# here sums Interval objects built from nabla()/delta(), ** and *, with each
# statement's ranges written out again.


def _single_ranges(tid, b, e, n, m):
    """(operator, lhs indices, rhs indices) of a single-sequence statement."""
    return {
        "T2_2": ("delta", range(b + 1, e), range(b, e)),
        "L3_1": ("nabla", range(b + 1, e + 1), range(b + 1, e + 1)),
        "L3_01": ("nabla", range(b + 1, e + 1), range(b + 1, e + 1)),
        "L3_02": ("nabla", range(n, m), range(n, m + 1)),
        "T3_1": ("nabla", range(b + 1, e + 1), range(b + 1, e + 1)),
        "T3_2": ("nabla", range(n, m), range(n, m + 1)),
        "T3_3": ("nabla", range(b + 1, e + 1), range(b + 1, e + 1)),
        "T3_4": ("nabla", range(n, m), range(n, m + 1)),
        "T3_5": ("nabla", range(b + 1, e), range(b + 1, e + 1)),
        "T4_1": ("delta", range(b, e), range(b, e)),
        "T4_2": ("delta", range(n, m), range(n - 1, m)),
        "T4_5": ("delta", range(b + 1, e), range(b, e)),
    }[tid]


def _reference_single(s, l1, l2, tid, n, m):
    b, e = s.first_index, s.last_index
    op, lhs_rng, rhs_rng = _single_ranges(tid, b, e, n, m)
    d = s.nabla() if op == "nabla" else s.delta()
    terms = [(s.at(i) ** l1) * (d.at(i) ** l2) for i in lhs_rng]
    if tid == "L3_1" and s.is_degenerate:
        # the real lemma sums signed products
        return (sum((t.lo for t in terms), Fraction(0)),
                sum((d.at(i).lo ** (l1 + l2) for i in rhs_rng), Fraction(0)))
    return (sum((t.norm for t in terms), Fraction(0)),
            sum((d.at(i).norm ** (l1 + l2) for i in rhs_rng), Fraction(0)))


_SINGLE_IDS = [s.id.value for s in registry() if s.arity == 1]
_PAIR_IDS = [s.id.value for s in registry() if s.arity == 2]


@settings(max_examples=60, deadline=None)
@given(s=mixed_sequences(), lam=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       data=st.data())
@pytest.mark.parametrize("tid", _SINGLE_IDS)
def test_single_sums_match_interval_reference(tid, s, lam, data):
    l1, l2 = (1, 1) if tid == "T2_2" else lam
    b, e = s.first_index, s.last_index
    window, (n, m) = None, (b, e)  # n, m are read only by windowed statements
    if lookup(tid).windowed:
        n = data.draw(st.integers(b + 1, e))
        m = data.draw(st.integers(n, e))
        window = (n, m)
    v = check_single(s, l1, l2, tid, window=window)
    lhs, rhs = _reference_single(s, l1, l2, tid, n, m)
    assert v.lhs == lhs
    assert v.rhs == v.constant * rhs


def _reference_pair(u, w, terms):
    nu, nw = u.nabla(), w.nabla()
    lhs = sum(((u.at(i - 1) * nw.at(i) + w.at(i) * nu.at(i)).norm for i in terms),
              Fraction(0))
    rhs = sum(((nu.at(i) ** 2 + nw.at(i) ** 2).norm for i in terms), Fraction(0))
    return lhs, rhs


@settings(max_examples=60, deadline=None)
@given(u=mixed_sequences(), data=st.data())
@pytest.mark.parametrize("tid,alt", [(t, False) for t in _PAIR_IDS] + [("T3_10", True)])
def test_pair_sums_match_interval_reference(tid, alt, u, data):
    w = data.draw(mixed_sequences(size=len(u)))
    w = IntervalSequence(w.items, u.base_index)
    b, e = u.first_index, u.last_index
    spec = lookup(tid)
    window = None
    if spec.windowed or (spec.window_optional and data.draw(st.booleans())):
        n = data.draw(st.integers(b, e))
        window = (n, data.draw(st.integers(n, e)))
    v = check_pair(u, w, tid, window=window, alt_boundary=alt)
    n, m = v.window if v.window is not None else (b, e)
    terms = {
        "T3_6": range(b + 1, e + 1),
        "T3_7": range(n + 1, m + 1),
        "T3_8": range(b + 1, n + 1),
        "T3_9": range(n + 1, m + 1),
        "T3_10": range(b + 1, e + 1),
    }[tid]
    lhs, rhs = _reference_pair(u, w, terms)
    assert v.lhs == lhs
    assert v.rhs == v.constant * rhs


# integer endpoints small, mid-sized and up to 10^30 in magnitude, so that
# signs change within and between intervals; one interval in four has zero width
_kernel_ends = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6),
                         st.integers(-10**30, 10**30))


@st.composite
def _kernel_interval(draw):
    lo, hi = sorted((draw(_kernel_ends), draw(_kernel_ends)))
    return (lo, lo) if draw(st.integers(0, 3)) == 0 else (lo, hi)


@settings(max_examples=500, deadline=None)
@given(ends=st.lists(_kernel_interval(), min_size=4, max_size=4))
def test_pair_term_matches_interval_reference(ends):
    # the pair kernel on u_0, u_1, v_0, v_1 gives the Interval reference's
    # lhs and rhs terms at index 1
    u0, u1, v0, v1 = ends
    u = IntervalSequence((Interval(*u0), Interval(*u1)), 0)
    w = IntervalSequence((Interval(*v0), Interval(*v1)), 0)
    assert theorems._pair_term(*u0, *u1, *v0, *v1) == _reference_pair(u, w, [1])


# -- lhs_terms against the verdict and the Interval reference -------------------


def _reference_single_term(s, d, l1, l2, i, signed):
    """The Interval reference's lhs and rhs terms at i (see _reference_single)."""
    t = (s.at(i) ** l1) * (d.at(i) ** l2)
    if signed:
        return t.lo, d.at(i).lo ** (l1 + l2)
    return t.norm, d.at(i).norm ** (l1 + l2)


@settings(max_examples=60, deadline=None)
@given(u=mixed_sequences(), lam=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       data=st.data())
@pytest.mark.parametrize("tid", [s.id.value for s in registry()])
def test_lhs_terms_sum_to_the_verdict(tid, u, lam, data):
    spec = lookup(tid)
    b, e = u.first_index, u.last_index
    window = None
    if spec.arity == 1:
        if spec.sums.shape == "real" and data.draw(st.booleans()):
            # more degenerate draws, with their signs: L3_1's signed path
            u = IntervalSequence([Interval.point(x.lo) for x in u.items], b)
        l1, l2 = (1, 1) if tid == "T2_2" else lam
        n, m = b, e
        if spec.windowed:
            n = data.draw(st.integers(b + 1, e))
            m = data.draw(st.integers(n, e))
            window = (n, m)
        v = check_single(u, l1, l2, tid, window=window)
        terms = lhs_terms(u, l1, l2, tid, window=window)
        op, lhs_rng, rhs_rng = _single_ranges(tid, b, e, n, m)
        d = u.nabla() if op == "nabla" else u.delta()
        signed = tid == "L3_1" and u.is_degenerate

        def reference(i):
            return _reference_single_term(u, d, l1, l2, i, signed)
    else:
        w = data.draw(mixed_sequences(size=len(u)))
        w = IntervalSequence(w.items, u.base_index)
        if spec.windowed or (spec.window_optional and data.draw(st.booleans())):
            n = data.draw(st.integers(b, e))
            window = (n, data.draw(st.integers(n, e)))
        v = check_pair(u, w, tid, window=window)
        terms = lhs_terms((u, w), None, None, tid, window=window)
        n, m = v.window if v.window is not None else (b, e)
        lhs_rng = rhs_rng = {
            "T3_6": range(b + 1, e + 1),
            "T3_7": range(n + 1, m + 1),
            "T3_8": range(b + 1, n + 1),
            "T3_9": range(n + 1, m + 1),
            "T3_10": range(b + 1, e + 1),
        }[tid]

        def reference(i):
            return _reference_pair(u, w, [i])
    assert [t[0] for t in terms] == sorted(set(lhs_rng) | set(rhs_rng))
    for i, tl, tr in terms:
        ref_l, ref_r = reference(i)
        assert tl == (ref_l if i in lhs_rng else None)
        assert tr == (ref_r if i in rhs_rng else None)
    assert sum(t[1] for t in terms if t[1] is not None) == v.lhs
    assert v.constant * sum(t[2] for t in terms if t[2] is not None) == v.rhs


def test_lhs_terms_l3_1_signed_off_hypotheses():
    # degenerate, so L3_1 sums with signs; negative, so out of hypotheses
    s = rseq([0, Fraction(-1, 2), 2, -3])
    v = check_single(s, 1, 2, "L3_1")
    assert not v.in_hypotheses
    terms = lhs_terms(s, 1, 2, "L3_1")
    # x_i (nabla x_i)^2 and (nabla x_i)^3
    assert [t[1:] for t in terms] == [
        (Fraction(-1, 8), Fraction(-1, 8)), (Fraction(25, 2), Fraction(125, 8)), (-75, -125)]
    assert sum(t[1] for t in terms) == v.lhs
    assert v.constant * sum(t[2] for t in terms) == v.rhs


def test_lhs_terms_arity_errors(ex33):
    with pytest.raises(ArityMismatch):
        lhs_terms(ex33, 1, 1, "T3_6")
    with pytest.raises(ArityMismatch):
        lhs_terms((ex33, ex33), 1, 1, "T3_1")
    short = seq([(0, 0), (1, 2)])
    with pytest.raises(LengthMismatch):
        lhs_terms((ex33, short), None, None, "T3_6")


# -- one shared analysis against standalone calls -------------------------------


def _outcome(call):
    """A verdict's JSON form, or the type and text of what the call raised."""
    try:
        return call().to_jsonable()
    except (ValueError, TypeError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _with_zeros(s, positions):
    items = list(s.items)
    for k in positions:
        items[k] = Interval(0, 0)
    return IntervalSequence(tuple(items), s.base_index)


@st.composite
def _documents(draw):
    """A single sequence or a pair of one length and base index, with zeros
    pinned at a few positions (anchors, or stray zeros) on top of the zeros
    mixed_sequences draws."""
    u = draw(mixed_sequences())
    size = len(u)
    zeros = st.lists(st.integers(0, size - 1), max_size=3)
    u = _with_zeros(u, draw(zeros))
    if not draw(st.booleans()):
        return u, None
    v = draw(mixed_sequences(size=size))
    return u, _with_zeros(IntervalSequence(v.items, u.base_index), draw(zeros))


@settings(max_examples=150, deadline=None)
@given(doc=_documents(), lam=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       data=st.data())
def test_shared_analysis_gives_the_standalone_verdicts(doc, lam, data):
    # every statement of matching arity (T3_10 also in its alternate
    # boundary mode), in a random order, on one analysis: each verdict, or
    # error, is the one a call on its own gives, whatever ran before it
    u, v = doc
    b, e = u.first_index, u.last_index
    first = b + (v is None)
    window = data.draw(st.sampled_from(["none", "to end", "inside"]))
    if window != "none":
        n = data.draw(st.integers(first, e))
        window = (n, e if window == "to end" else data.draw(st.integers(n, e)))
    else:
        window = None
    runs = [(spec, False) for spec in registry() if spec.arity == (1 if v is None else 2)]
    if v is not None:
        runs.append((lookup("T3_10"), True))
    analysis = theorems._Analysis(u, v)
    for spec, alt in data.draw(st.permutations(runs)):
        w = window if (spec.windowed or spec.window_optional) else None
        if v is None:
            def call(**shared):
                return check_single(u, *lam, spec.id, window=w, **shared)
        else:
            def call(**shared):
                return check_pair(u, v, spec.id, window=w, alt_boundary=alt, **shared)
        assert _outcome(lambda: call(_analysis=analysis)) == _outcome(call), (spec.id, alt, w)


def test_v_profile_note_reads_the_labels_classify_reports():
    # the note reads v's order bits on first..last through classify's own
    # labels; classify on the window is the reference
    rng = random.Random(8872)
    for _ in range(1500):
        L, D, b = rng.randint(1, 8), rng.randint(1, 4), rng.randint(-2, 2)
        ends = [sorted((rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(L)]
        v = IntervalSequence._from_ints(D, [a for a, _ in ends], [c for _, c in ends], b)
        for first in range(b, b + L):
            for last in range(first, b + L):
                p = v.window(first, last).classify()
                assert theorems._v_profile_note(v, first, last) == (
                    f"v on [{first}, {last}] classifies as {p.direction.value},"
                    f" {p.mu_direction.value} (recorded, not required)"), (v, first, last)


@settings(max_examples=150, deadline=None)
@given(doc=_documents(), data=st.data())
def test_rows_off_the_stray_zero_tests_do_not_read_the_anchors(doc, data):
    # _rows keys a row by its name and range alone unless the name is in
    # _READS_ANCHORS, so every other test, and its row text, must give the
    # same with no anchors as with the plan's
    u, v = doc
    b, e = u.first_index, u.last_index
    m = data.draw(st.integers(b + 1, e))
    for spec in registry():
        if spec.arity != (1 if v is None else 2):
            continue
        hyps, anchors = theorems._plan(spec.preconditions, v is not None, b, e, m)
        for name, holds, detail, lo, hi in hyps:
            if name not in theorems._READS_ANCHORS:
                without, with_anchors = (
                    theorems._pc_row(name, holds(u, v, lo, hi, allowed), detail,
                                     u, v, lo, hi, allowed)
                    for allowed in (frozenset(), anchors))
                assert without == with_anchors, (spec.id, name)


def test_the_stray_zero_tests_read_the_anchors():
    # u_0 and u_2 are stray zeros off the anchors {0, 2} and allowed on them
    u = seq([(0, 0), (1, 1), (0, 0)])
    assert theorems._READS_ANCHORS
    for name in theorems._READS_ANCHORS:
        holds = theorems._HYPOTHESES[name][0]
        assert [bool(holds(u, u, 0, 2, a)) for a in (frozenset(), frozenset({0, 2}))] == \
            [False, True], name


def test_shared_analysis_refuses_another_input(ex33):
    analysis = theorems._Analysis(ex33)
    other = seq([(0, 0), (1, 2), (2, 4)])
    with pytest.raises(ValueError, match="another input"):
        check_single(other, 1, 1, "T3_1", _analysis=analysis)
    with pytest.raises(ValueError, match="another input"):
        check_pair(ex33, ex33, "T3_6", _analysis=analysis)


def _record_term_lists(monkeypatch):
    calls = []
    real = theorems._term_list

    def recording(u, v, nabla, l1, l2, signed, lo, hi):
        calls.append(((nabla, l1, l2, signed), lo, hi))
        return real(u, v, nabla, l1, l2, signed, lo, hi)

    monkeypatch.setattr(theorems, "_term_list", recording)
    return calls


def test_shared_analysis_keeps_one_whole_input_term_list(monkeypatch):
    # a windowed T3_2 check and then T3_1, both nabla at the same exponents,
    # read one list over every nabla index b+1..e, built once
    u = seq([(0, 0), (1, 2), (2, 4), (3, 5), (2, 3), (1, 1), (0, 0)], base=2)
    calls = _record_term_lists(monkeypatch)
    analysis = theorems._Analysis(u)
    windowed = check_single(u, 2, 1, "T3_2", window=(5, 8), _analysis=analysis)
    whole = check_single(u, 2, 1, "T3_1", _analysis=analysis)
    assert calls == [((True, 2, 1, False), 3, 9)]
    assert windowed == check_single(u, 2, 1, "T3_2", window=(5, 8))
    assert whole == check_single(u, 2, 1, "T3_1")


def test_standalone_windowed_check_computes_only_its_window(monkeypatch):
    # T3_2 in the window (50, 63) of 64 elements sums the indices 50..63:
    # 14 terms, not the 63 of the whole input
    u = IntervalSequence._from_ints(1, list(range(63, -1, -1)), [2 * k for k in range(63, -1, -1)],
                                    0)
    steps = []
    real = theorems._step_term

    def counted(*args):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(theorems, "_step_term", counted)
    verdict = check_single(u, 1, 2, "T3_2", window=(50, 63))
    assert len(steps) == 14
    assert verdict.window == (50, 63) and verdict.lhs > 0


# -- the size guard ---------------------------------------------------------------


def _refuses_fast(call, monkeypatch):
    """call raises OutputTooLarge at once: no term, row or grid is built
    (those would run far longer than the bound), within a time and memory
    bound."""
    def unreachable(*_):
        raise AssertionError("evaluated past the size guard")

    for name in ("_term_list", "_rows"):
        monkeypatch.setattr(theorems, name, unreachable)
    monkeypatch.setattr(oracle, "_scan_layout", unreachable)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(OutputTooLarge, match="^input too large: ") as info:
            call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.25 and peak < 1_000_000
    return info.value


_BIG = 10 ** 6


@pytest.mark.parametrize("case", [
    "check_single", "check_single_huge_endpoints", "check_pair", "lhs_terms",
    "lhs_terms_pair", "ratio_scan", "ratio_scan_bound", "fuzz_lambdas", "fuzz_magnitude",
])
def test_library_entry_points_refuse_oversized_input(case, monkeypatch):
    u = IntervalSequence._from_ints(999983, [0] + [7 * 10 ** 5] * 30 + [0],
                                    [0] + [9 * 10 ** 5] * 30 + [0], 0)
    wide = IntervalSequence._from_ints(1, [0, 0], [0, 10 ** 5000], 0)
    pair = (seq([(0, 0), (1, 2)]), IntervalSequence._from_ints(1, [0, 0], [0, 10 ** 3000], 0))
    calls = {
        "check_single": lambda: check_single(u, _BIG, 1, "T3_3"),
        "check_single_huge_endpoints": lambda: check_single(wide, 1, 1, "T3_1"),
        "check_pair": lambda: check_pair(*pair, "T3_6"),
        "lhs_terms": lambda: lhs_terms(u, 1, _BIG, "T4_1"),
        "lhs_terms_pair": lambda: lhs_terms(pair, None, None, "T3_10"),
        "ratio_scan": lambda: ratio_scan("T3_1", _BIG, 1, length=3, bound=1),
        "ratio_scan_bound": lambda: ratio_scan("T3_6", length=3, bound=10 ** 5000),
        "fuzz_lambdas": lambda: FuzzConfig("T3_5", trials=1, seed=0, lambda_range=(1, _BIG)),
        "fuzz_magnitude": lambda: FuzzConfig("T3_6", trials=1, seed=0,
                                             endpoint_magnitude=10 ** 5000),
    }
    exc = _refuses_fast(calls[case], monkeypatch)
    assert isinstance(exc, ValueError) and cli.OutputTooLarge is OutputTooLarge


def test_size_guard_admits_what_it_bounds():
    # the entry points run what the guard admits: the largest exponents the
    # fuzzer draws by default, a scan at its default grid sizes, and a
    # pair statement given huge exponents, which it ignores
    FuzzConfig("T3_5", trials=1, seed=0)
    assert ratio_scan("T3_1", 4, 4, length=4, bound=3).admissible > 0
    pair = (seq([(0, 0), (1, 2), (0, 0)]), seq([(0, 0), (2, 3), (0, 0)]))
    assert lhs_terms(pair, _BIG, _BIG, "T3_6")
    assert check_pair(*pair, "T3_6").rhs > 0


@pytest.mark.parametrize("tid", ["T3_5", "L3_01", "T3_1", "T4_5"])
def test_fuzz_config_guards_what_the_engine_guards(tid):
    # FuzzConfig counts an endpoint's bits by the engine's rule
    # (theorems._endpoint_bits): at length 12 and exponents 4, 4 a magnitude
    # of 1781 bits, whose trials the engine's guard can refuse, is refused at
    # construction, and every trial at 1780 bits runs
    config = dict(trials=3, seed=0, length_range=(12, 12), lambda_range=(4, 4))
    with pytest.raises(OutputTooLarge, match="endpoints of 1782 bits"):
        FuzzConfig(tid, endpoint_magnitude=2**1781 - 1, **config)
    assert oracle.fuzz(FuzzConfig(tid, endpoint_magnitude=2**1780 - 1, **config)).trials_run == 3


def test_order_text_is_the_listed_text():
    from opialcheck import sequences, theorems

    assert theorems._ORDER_TEXT == ("", "increasing", "decreasing", "decreasing and increasing")
    # the order bits are computed in sequences alone
    assert theorems._dir_bits is sequences._dir_bits
    assert theorems._mu_bits is sequences._mu_bits

"""Inequality registry and the exact checking engine.

Seventeen discrete Opial-type statements are registered, each with its
difference operator, arity, precondition names, windowing rule, constant
formula, and sums (``_Sums``: the term shape, the index ranges of both
sides and the constant's arguments). ``check_single`` and ``check_pair``
evaluate both sides exactly and return a ``Verdict``.

Precondition failures never abort a check. Each hypothesis is reported
as passed or failed on the verdict (with the first offending index in
the detail) and the sides are computed regardless, flagged through
``in_hypotheses``. Relaxed-hypothesis experiments depend on reading
numbers off non-conforming inputs.

The four real-sequence statements (T2_2 and the three lemmas) check a
degeneracy hypothesis and, off it, add a note. Their absolute-value sums
are the norm sums of the interval statements, |x_i| = ||u_i|| on
degenerate input, so only L3_1, a signed bound, sums with signs, and only
on degenerate input.

Both sides are computed on integers. Every operation a statement uses
is positively homogeneous: the gH-difference, the set-image product and
integer power, the Minkowski sum and the norm max(-lo, hi). Scaling every
endpoint by D > 0 therefore scales a side built from k factors by D^k
and keeps every hypothesis (zeros, LU order, width order, alternation).
So both sums run on the integer endpoints each sequence is held as
(common denominator D, or D = lcm(Du, Dv) for a pair), on Python ints,
and a side is returned as Fraction(int_sum, D^k) with k = l1 + l2, or
k = 2 for T2_2 and the pair statements: the same exact rational the
interval arithmetic gives. The norm is multiplicative on set-image
products and powers, so a single-sequence term is ||u_i||^l1 * ||Du_i||^l2.
Each term is written once, on ints (_step_term, _pair_term), and the
engine's sides, lhs_terms and the scan's walk all read it.

A term depends on the operator's step, the exponents and the signs, and a
hypothesis row on its name and range, not on the statement. So the engine
reads both from an _Analysis of its input, which keeps each once: the CLI
shares one across every statement it checks on a document, with each term
list over the whole input, and a call on its own sums exactly its ranges.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from collections.abc import Callable
from fractions import Fraction
from itertools import repeat

from ._records import _set, hidden, record
from .intervals import _check_exponent
from .rationals import int_digit_limit, ratio_to_json, rational_to_json
from .sequences import (
    Direction,
    IntervalSequence,
    NotDecomposable,
    TooShort,
    _DIRECTION_LABEL,
    _DIRECTION_SETS,
    _MU_LABEL,
    _alternate_runs,
    _check_aligned,
    _dir_bits,
    _ends,
    _mu_bits,
    first_direction_break,
    first_mu_break,
    record_to_jsonable,
)

class ArityMismatch(TypeError):
    """Single-sequence entry point used with a pair statement, or vice versa."""


class WindowRequired(ValueError):
    """The statement is windowed and no window was supplied."""


class WindowOutOfRange(ValueError):
    """The supplied window does not fit the sequence."""


class BoundaryNotZero(ValueError):
    """Strict classical entry point rejected a nonzero boundary."""


class OutputTooLarge(ValueError):
    """A check of the input could give a number too long to print."""


class BudgetExceeded(RuntimeError):
    """ratio_scan would need more checks than the configured cap."""


class TheoremId(str, enum.Enum):
    T2_2 = "T2_2"
    L3_1 = "L3_1"
    L3_01 = "L3_01"
    L3_02 = "L3_02"
    T3_1 = "T3_1"
    T3_2 = "T3_2"
    T3_3 = "T3_3"
    T3_4 = "T3_4"
    T3_5 = "T3_5"
    T3_6 = "T3_6"
    T3_7 = "T3_7"
    T3_8 = "T3_8"
    T3_9 = "T3_9"
    T3_10 = "T3_10"
    T4_1 = "T4_1"
    T4_2 = "T4_2"
    T4_5 = "T4_5"


class Operator(enum.Enum):
    NABLA = "nabla"
    DELTA = "delta"
    CLASSICAL_FORWARD = "classical-forward"


# PreconditionCheck and Verdict write their JSON out, not record_to_jsonable:
# a Verdict's keys are not in field order, and both run for every verdict of
# every checked document, where the rule measured 2-4 times slower per call.
# They, TheoremSpec and _Sums, which every command builds, also write their
# __init__ out: compiling the four at run time cost about 0.8 ms of a cold
# check's 9.6 ms import and first call (2-core x86_64 VM, Python 3.11).
@record
class PreconditionCheck:
    name: str
    passed: bool
    detail: str = ""

    def __init__(self, name, passed, detail=""):
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "detail", detail)

    def to_jsonable(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@record
class Verdict:
    theorem: TheoremId
    preconditions: tuple[PreconditionCheck, ...]
    lhs: Fraction
    rhs: Fraction
    constant: Fraction
    holds: bool
    ratio: Fraction | None
    in_hypotheses: bool
    lambda1: int | None
    lambda2: int | None
    window: tuple[int, int] | None
    notes: tuple[str, ...] = ()

    def __init__(self, theorem, preconditions, lhs, rhs, constant, holds, ratio,
                 in_hypotheses, lambda1, lambda2, window, notes=()):
        _set(self, "theorem", theorem)
        _set(self, "preconditions", preconditions)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "constant", constant)
        _set(self, "holds", holds)
        _set(self, "ratio", ratio)
        _set(self, "in_hypotheses", in_hypotheses)
        _set(self, "lambda1", lambda1)
        _set(self, "lambda2", lambda2)
        _set(self, "window", window)
        _set(self, "notes", notes)

    def to_jsonable(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "holds": self.holds,
            "in_hypotheses": self.in_hypotheses,
            "lhs": rational_to_json(self.lhs),
            "rhs": rational_to_json(self.rhs),
            "constant": rational_to_json(self.constant),
            "ratio": None if self.ratio is None else rational_to_json(self.ratio),
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "window": None if self.window is None else list(self.window),
            "preconditions": [p.to_jsonable() for p in self.preconditions],
            "notes": list(self.notes),
        }


@record
class TheoremSpec:
    id: TheoremId
    operator: Operator
    arity: int
    windowed: bool
    window_optional: bool
    preconditions: tuple[str, ...]
    constant_params: tuple[str, ...]
    summary: str
    # how the statement is computed, not what it states: left out of
    # equality, hashing and the repr
    constant_fn: Callable = hidden
    sums: _Sums = hidden

    def __init__(self, id, operator, arity, windowed, window_optional, preconditions,
                 constant_params, summary, constant_fn, sums):
        _set(self, "id", id)
        _set(self, "operator", operator)
        _set(self, "arity", arity)
        _set(self, "windowed", windowed)
        _set(self, "window_optional", window_optional)
        _set(self, "preconditions", preconditions)
        _set(self, "constant_params", constant_params)
        _set(self, "summary", summary)
        _set(self, "constant_fn", constant_fn)
        _set(self, "sums", sums)

    def constant(self, l1: int = 1, l2: int = 1, n=None, m=None) -> Fraction:
        """Sharp constant for the given exponents and index parameters.

        The parameters follow the statement as written: n is the count
        of difference terms (or the window start for windowed forms),
        m the window end. Only the parameters named in constant_params
        are read.
        """
        _check_exponent("l1", l1)
        _check_exponent("l2", l2)
        for p in self.constant_params:
            if p == "n" and n is None:
                raise ValueError(f"{self.id.value} constant needs n")
            if p == "m" and m is None:
                raise ValueError(f"{self.id.value} constant needs m")
        return self.constant_fn(l1, l2, n, m)

    to_jsonable = record_to_jsonable


# -- constant formulas ----------------------------------------------------


def _c_opial(l1, l2, n, m):
    return Fraction(l2 * (n + 1) ** l1, l1 + l2)


def _c_opial_window(l1, l2, n, m):
    return Fraction(l2 * (m - n + 1) ** l1, l1 + l2)


def _c_opial_half(l1, l2, n, m):
    return Fraction(l2 * (m // 2 + 1) ** l1, l1 + l2)


def _c_classical(l1, l2, n, m):
    return Fraction((n + 1) // 2, 2)


def _c_pair_count(l1, l2, n, m):
    return Fraction(n, 2)


def _c_pair_window(l1, l2, n, m):
    return Fraction(m - n, 2)


def _c_pair_half(l1, l2, n, m):
    return Fraction((m + 1) // 2, 2)


# -- the sums of each statement ----------------------------------------------


@record
class _Sums:
    """Where a statement's two sums run and what its constant reads.

    shape is the term: "real" (|x_i|^l1 |Dx_i|^l2 on a real sequence, the
    norm terms, signed for L3_1), "interval" (||u_i||^l1 ||Du_i||^l2) or
    "pair" (||u_{i-1} nabla v_i + v_i nabla u_i|| against
    ||nabla u_i||^2 + ||nabla v_i||^2). D is the statement's operator:
    nabla reads (u_{i-1}, u_i), the forward differences (u_i, u_{i+1}).
    lhs and rhs are the half-open ranges of term indices i, each end a
    position in (b, e, n, m) plus an offset. const holds the constant's
    arguments n and m, each None or the positions (p, q) in (b, e, n, m, 0)
    of its value at[p] - at[q].
    """

    shape: str
    lhs: tuple[tuple[int, int], tuple[int, int]]
    rhs: tuple[tuple[int, int], tuple[int, int]]
    const: tuple[tuple[int, int] | None, tuple[int, int] | None]

    def __init__(self, shape, lhs, rhs, const):
        _set(self, "shape", shape)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "const", const)


_SYMBOLS = "benm0"  # first index, last index, window start, window end, zero


def _end(text):
    # "b+1" -> (0, 1): the symbol's position in (b, e, n, m) and the offset
    return _SYMBOLS.index(text[0]), int(text[1:] or 0)


def _sums(shape, lhs, rhs, const):
    """_Sums from the statement as written: ranges "start:stop" over
    b+k, e+k, n+k, m+k, and constant arguments such as "n=e-b m=m"."""
    args = {}
    for item in const.split():
        param, expr = item.split("=")
        plus, _, minus = expr.partition("-")
        args[param] = (_SYMBOLS.index(plus), _SYMBOLS.index(minus or "0"))
    return _Sums(
        shape,
        tuple(_end(x) for x in lhs.split(":")),
        tuple(_end(x) for x in rhs.split(":")),
        (args.get("n"), args.get("m")),
    )


def _frame(spec, b, e, n, m, l1, l2):
    """The lhs and rhs ranges of term indices and the constant of spec on
    the indices b..e with window (n, m) ((b, e) when there is none); the
    caller has checked the exponents, which a pair's constant ignores."""
    t = spec.sums
    at = (b, e, n, m, 0)
    (ls, lo), (le, lf) = t.lhs
    (rs, ro), (re_, rf) = t.rhs
    cn, cm = t.const
    return (range(at[ls] + lo, at[le] + lf), range(at[rs] + ro, at[re_] + rf),
            spec.constant_fn(l1, l2, None if cn is None else at[cn[0]] - at[cn[1]],
                             None if cm is None else at[cm[0]] - at[cm[1]]))


_N = Operator.NABLA
_D = Operator.DELTA
_C = Operator.CLASSICAL_FORWARD

_REGISTRY = {
    s.id: s
    for s in (
        TheoremSpec(TheoremId.T2_2, _C, 1, False, False,
            ("degenerate", "first_zero", "last_zero"), ("n",),
            "classical forward-difference bound for real sequences vanishing at both ends",
            _c_classical, _sums("real", "b+1:e", "b:e", "n=e-b")),
        TheoremSpec(TheoremId.L3_1, _N, 1, False, False,
            ("degenerate", "first_zero", "nonnegative", "nondecreasing"), ("l1", "l2", "n"),
            "signed real bound for non-negative non-decreasing sequences anchored at zero",
            _c_opial, _sums("real", "b+1:e+1", "b+1:e+1", "n=e-b")),
        TheoremSpec(TheoremId.L3_01, _N, 1, False, False,
            ("degenerate", "first_zero"), ("l1", "l2", "n"),
            "absolute-value real bound anchored at zero, no monotonicity required",
            _c_opial, _sums("real", "b+1:e+1", "b+1:e+1", "n=e-b")),
        TheoremSpec(TheoremId.L3_02, _N, 1, True, False,
            ("degenerate", "window_end_zero"), ("l1", "l2", "n", "m"),
            "windowed absolute-value real bound vanishing at the window end",
            _c_opial_window, _sums("real", "n:m", "n:m+1", "n=n m=m")),
        TheoremSpec(TheoremId.T3_1, _N, 1, False, False,
            ("first_zero", "monotone", "mu_increasing"), ("l1", "l2", "n"),
            "backward-difference bound for monotone mu-increasing sequences anchored at zero",
            _c_opial, _sums("interval", "b+1:e+1", "b+1:e+1", "n=e-b")),
        TheoremSpec(TheoremId.T3_2, _N, 1, True, False,
            ("window_end_zero", "monotone", "mu_decreasing"), ("l1", "l2", "n", "m"),
            "windowed backward-difference bound for monotone mu-decreasing sequences",
            _c_opial_window, _sums("interval", "n:m", "n:m+1", "n=n m=m")),
        TheoremSpec(TheoremId.T3_3, _N, 1, False, False,
            ("first_zero", "alternate", "no_other_zero"), ("l1", "l2", "n"),
            "backward-difference bound for piecewise alternating sequences anchored at zero",
            _c_opial, _sums("interval", "b+1:e+1", "b+1:e+1", "n=e-b")),
        TheoremSpec(TheoremId.T3_4, _N, 1, True, False,
            ("window_end_zero", "alternate", "no_other_zero"), ("l1", "l2", "n", "m"),
            "windowed backward-difference bound for piecewise alternating sequences",
            _c_opial_window, _sums("interval", "n:m", "n:m+1", "n=n m=m")),
        TheoremSpec(TheoremId.T3_5, _N, 1, False, False,
            ("first_zero", "last_zero", "alternate", "no_other_zero"), ("l1", "l2", "m"),
            "backward-difference bound for alternating sequences vanishing at both ends",
            _c_opial_half, _sums("interval", "b+1:e", "b+1:e+1", "m=e-b")),
        TheoremSpec(TheoremId.T3_6, _N, 2, False, False,
            ("first_zero", "synchronous", "mu_increasing"), ("n",),
            "pair product-rule bound for synchronous mu-increasing sequences anchored at zero",
            _c_pair_count, _sums("pair", "b+1:e+1", "b+1:e+1", "n=e-b")),
        TheoremSpec(TheoremId.T3_7, _N, 2, True, False,
            ("window_end_zero", "synchronous", "mu_decreasing"), ("n", "m"),
            "windowed pair bound for synchronous mu-decreasing sequences",
            _c_pair_window, _sums("pair", "n+1:m+1", "n+1:m+1", "n=n m=m")),
        TheoremSpec(TheoremId.T3_8, _N, 2, False, True,
            ("first_zero", "alternate_u", "no_other_joint_zero"), ("n",),
            "pair bound with alternating first sequence, both anchored at zero",
            _c_pair_count, _sums("pair", "b+1:n+1", "b+1:n+1", "n=n-b")),
        TheoremSpec(TheoremId.T3_9, _N, 2, True, False,
            ("window_end_zero", "alternate_u", "no_other_joint_zero"), ("n", "m"),
            "windowed pair bound with alternating first sequence, vanishing at the window end",
            _c_pair_window, _sums("pair", "n+1:m+1", "n+1:m+1", "n=n m=m")),
        TheoremSpec(TheoremId.T3_10, _N, 2, False, False,
            ("second_zero", "last_zero", "alternate_u", "no_other_joint_zero"), ("m",),
            "pair bound anchored at the second and the last index",
            _c_pair_half, _sums("pair", "b+1:e+1", "b+1:e+1", "m=e-b")),
        TheoremSpec(TheoremId.T4_1, _D, 1, False, False,
            ("first_zero", "monotone", "mu_increasing"), ("l1", "l2", "n"),
            "forward-difference version of the monotone mu-increasing bound",
            _c_opial, _sums("interval", "b:e", "b:e", "n=e-b")),
        TheoremSpec(TheoremId.T4_2, _D, 1, True, False,
            ("window_end_zero", "monotone", "mu_decreasing"), ("l1", "l2", "n", "m"),
            "forward-difference version of the windowed mu-decreasing bound",
            _c_opial_window, _sums("interval", "n:m", "n-1:m", "n=n m=m")),
        TheoremSpec(TheoremId.T4_5, _D, 1, False, False,
            ("first_zero", "last_zero", "alternate", "no_other_zero"), ("l1", "l2", "m"),
            "forward-difference version of the two-end alternating bound",
            _c_opial_half, _sums("interval", "b+1:e", "b:e", "m=e-b")),
    )
}


def registry() -> tuple[TheoremSpec, ...]:
    """All registered statements, in declaration order."""
    return tuple(_REGISTRY.values())


def lookup(theorem) -> TheoremSpec:
    tid = theorem if isinstance(theorem, TheoremId) else TheoremId(str(theorem))
    return _REGISTRY[tid]


class _Analysis:
    """What the statements read of one input, u or the pair (u, v), each
    fact computed once for all of them: the integer term lists (_terms),
    the reported hypothesis rows (_rows) and the size guard's verdict
    (_guard). check_single and check_pair take one as _analysis; without one
    a call computes only what it reads, and keeps no terms."""

    __slots__ = ("u", "v", "terms", "rows", "admitted")

    def __init__(self, u, v=None):
        self.u, self.v = u, v
        self.terms = {}   # (nabla, l1, l2, signed) -> [(lhs, rhs)] over the whole input
        self.rows = {}    # (name, lo, hi[, anchors]) -> PreconditionCheck
        self.admitted = set()  # exponent pairs (l1, l2) the size guard passed


# -- the hypotheses ---------------------------------------------------------
#
# Every precondition is written once, in _HYPOTHESES: name -> (holds, detail,
# step). holds(u, v, lo, hi, allowed) is its test on the integer endpoints,
# truthy when it passes; v is None for a single sequence, lo..hi the
# absolute indices it reads (an anchor reads lo = hi), allowed the anchors'
# indices. detail(name, got, u, v, lo, hi, allowed) is the text of its
# reported row, built only for a verdict (_pc_row) from got, the value holds
# returned (the order or width bits for the order tests). step is the same
# test read one step (or element) of lo..hi at a time, (kind, bits), or None
# for the anchors and the element tests (degenerate, nonnegative):
# - "order": direction_set is the AND, over the steps, of the LU order bits
#   (1 increasing, 2 decreasing) each step keeps on both endpoints; the test
#   holds exactly when a running AND from bits stays nonzero (for
#   synchronous, one AND over u and then v);
# - "width": a width order holds exactly when every width step keeps bits;
# - "split": alternate_segments raises NotDecomposable exactly at a step that
#   keeps neither order, so alternate holds exactly when no step splits;
# - "zero": a stray (joint) zero fails exactly at its index, off the anchors.
# _plan gives each name its range.


def _zero(s, i):
    k = i - s.base_index
    return s.lows[k] == 0 == s.highs[k]


def _elem(s, i):
    """str(s.at(i)), without building the Interval."""
    k = i - s.base_index
    return f"[{ratio_to_json(s.lows[k], s.D)}, {ratio_to_json(s.highs[k], s.D)}]"


# the reported label of LU order bits (direction_set's values, sorted)
_ORDER_TEXT = tuple(" and ".join(sorted(d.value for d in ds)) for ds in _DIRECTION_SETS)


def _split_free(s, lo, hi):
    # alternate_segments raises NotDecomposable exactly at a step that keeps
    # no LU order: one whose endpoints move strictly apart, so that their
    # differences have a negative product. A range of one element passes.
    lows, highs = _ends(s, lo, hi)
    return min(map(operator.mul, map(operator.sub, lows[1:], lows),
                   map(operator.sub, highs[1:], highs)), default=0) >= 0


def _first_stray(u, v, lo, hi, allowed):
    """The first index of lo..hi off the anchors where u (and v) is [0, 0]."""
    b = u.base_index
    for i in range(lo, hi + 1):
        k = i - b
        if (u.lows[k] == 0 == u.highs[k] and i not in allowed
                and (v is None or v.lows[k] == 0 == v.highs[k])):
            return i
    return None


def _no_order_at(s, lo, hi):
    # the step by which both LU orders of s_lo..s_hi are broken
    return max(first_direction_break(s, Direction.INCREASING, lo, hi),
               first_direction_break(s, Direction.DECREASING, lo, hi))


def _h_zero(u, v, i, _, __):
    return _zero(u, i) and (v is None or _zero(v, i))


def _h_mu(want):
    def holds(u, v, lo, hi, _):
        return want & _mu_bits(u, lo, hi) and (v is None or want & _mu_bits(v, lo, hi))
    return holds


def _d_zero(name, passed, u, v, i, _, __):
    if passed:
        return f"u_{i} = [0, 0]" if v is None else f"u_{i} = v_{i} = [0, 0]"
    sym, s = ("v", v) if _zero(u, i) else ("u", u)
    return f"{sym}_{i} = {_elem(s, i)} (expected [0, 0])"


def _d_element(name, passed, u, v, lo, hi, _):
    # degenerate and nonnegative: the first element that fails
    degenerate = name == "degenerate"
    if passed:
        return f"u_{lo}..u_{hi} are points" if degenerate else "no element drops below zero"
    lows, highs = _ends(u, lo, hi)
    k = next(k for k, (a, c) in enumerate(zip(lows, highs)) if (a != c if degenerate else a < 0))
    what = "has positive width" if degenerate else "drops below zero"
    return f"u_{lo + k} = {_elem(u, lo + k)} {what}"


def _d_nondecreasing(name, bits, u, v, lo, hi, _):
    if bits:
        return f"non-decreasing on [{lo}, {hi}]"
    return f"decreases at i={first_direction_break(u, Direction.INCREASING, lo, hi)}"


def _d_monotone(name, bits, u, v, lo, hi, _):
    if bits:
        return f"{_ORDER_TEXT[bits]} on [{lo}, {hi}]"
    return f"no single order on [{lo}, {hi}]; both orders broken by i={_no_order_at(u, lo, hi)}"


def _d_synchronous(name, shared, u, v, lo, hi, _):
    if shared:
        return f"shared order: {_ORDER_TEXT[shared]}"
    u_bits = _dir_bits(u, lo, hi)
    if u_bits and _dir_bits(v, lo, hi):
        return "u and v are monotone in opposite directions"
    sym, s = ("v", v) if u_bits else ("u", u)
    return f"{sym} admits no single order on [{lo}, {hi}]; broken by i={_no_order_at(s, lo, hi)}"


def _d_mu(name, bits, u, v, lo, hi, _):
    if bits:
        return f"width order holds{'' if v is None else ' for u and v'} on [{lo}, {hi}]"
    bit = 1 if name == "mu_increasing" else 2
    want = _MU_LABEL[bit]
    if v is None:
        return f"width order breaks at i={first_mu_break(u, want, lo, hi)}"
    sym, s = ("v", v) if bit & _mu_bits(u, lo, hi) else ("u", u)
    return f"{sym} width order breaks at i={first_mu_break(s, want, lo, hi)}"


def _d_alternate(name, passed, u, v, lo, hi, _):
    if hi - lo < 1:
        return f"[{lo}, {hi}] is trivially alternate"
    try:
        runs = _alternate_runs(*_ends(u, lo, hi), lo)
    except NotDecomposable as exc:
        return str(exc)
    return f"{len(runs)} segment(s), breakpoints {[start for start, *_ in runs] + [hi]}"


def _d_stray(name, passed, u, v, lo, hi, allowed):
    joint = " joint" if name == "no_other_joint_zero" else ""
    if passed:
        return f"no stray{joint} zero"
    i = _first_stray(u, v if joint else None, lo, hi, allowed)
    return f"{f'u_{i} = v_{i}' if joint else f'u_{i}'} = [0, 0] is a stray{joint} zero"


_HYPOTHESES = {
    "degenerate": (lambda u, v, lo, hi, _: operator.eq(*_ends(u, lo, hi)), _d_element, None),
    "first_zero": (_h_zero, _d_zero, None),
    "second_zero": (_h_zero, _d_zero, None),
    "last_zero": (_h_zero, _d_zero, None),
    "window_end_zero": (_h_zero, _d_zero, None),
    "nonnegative": (lambda u, v, lo, hi, _: min(_ends(u, lo, hi)[0], default=0) >= 0,
                    _d_element, None),
    "nondecreasing": (lambda u, v, lo, hi, _: _dir_bits(u, lo, hi) & 1, _d_nondecreasing,
                      ("order", 1)),
    "monotone": (lambda u, v, lo, hi, _: _dir_bits(u, lo, hi), _d_monotone, ("order", 3)),
    "synchronous": (lambda u, v, lo, hi, _: _dir_bits(u, lo, hi) & _dir_bits(v, lo, hi),
                    _d_synchronous, ("order", 3)),
    "mu_increasing": (_h_mu(1), _d_mu, ("width", 1)),
    "mu_decreasing": (_h_mu(2), _d_mu, ("width", 2)),
    "alternate": (lambda u, v, lo, hi, _: _split_free(u, lo, hi), _d_alternate, ("split", 0)),
    "alternate_u": (lambda u, v, lo, hi, _: _split_free(u, lo, hi), _d_alternate, ("split", 0)),
    "no_other_zero": (lambda u, v, lo, hi, a: _first_stray(u, None, lo, hi, a) is None,
                      _d_stray, ("zero", 0)),
    "no_other_joint_zero": (lambda u, v, lo, hi, a: _first_stray(u, v, lo, hi, a) is None,
                            _d_stray, ("zero", 0)),
}
# an anchor's index as (position in (b, e, m), offset)
_ANCHOR_AT = {"first_zero": (0, 0), "second_zero": (0, 1), "last_zero": (1, 0),
              "window_end_zero": (2, 0)}
# names that a single sequence whose only anchor is at the first index
# checks from one index later (T3_1, T3_3, T4_1)
_SHIFTED = frozenset({"monotone", "mu_increasing", "mu_decreasing", "alternate", "no_other_zero"})


# bounded: the inputs in use recur (a fuzzed statement's lengths and bases,
# a scan's length), and an unbounded cache would grow with every document
@functools.lru_cache(maxsize=128)
def _plan(names, pair, b, e, m):
    """(name, holds, detail, lo, hi) for each of names, in order, on a
    sequence (a pair if pair) over the indices b..e with the window end m;
    and the frozenset of the anchors' indices. An anchor reads its own
    index, every other name the first index (one later if _SHIFTED applies)
    to m."""
    start_only = (not pair and "first_zero" in names
                  and "last_zero" not in names and "window_end_zero" not in names)
    at = (b, e, m)
    plan = []
    for name in names:
        holds, detail, _ = _HYPOTHESES[name]
        if name in _ANCHOR_AT:
            p, o = _ANCHOR_AT[name]
            lo = hi = at[p] + o
        else:
            lo, hi = b + (start_only and name in _SHIFTED), m
        plan.append((name, holds, detail, lo, hi))
    return tuple(plan), frozenset(lo for name, _, _, lo, _ in plan if name in _ANCHOR_AT)


def _hypotheses(names, u, v, m):
    """_plan of names on u (and v) with the window end m."""
    return _plan(names, v is not None, u.base_index, u.base_index + len(u.lows) - 1, m)


def _holds(names, u, v, m):
    """Whether u (and v) satisfy every hypothesis of names at window end m."""
    hyps, allowed = _hypotheses(names, u, v, m)
    return all(holds(u, v, lo, hi, allowed) for _, holds, _, lo, hi in hyps)


def _pc_row(name, got, detail, u, v, lo, hi, allowed):
    return PreconditionCheck(name, bool(got), detail(name, got, u, v, lo, hi, allowed))


# the only tests, and row texts, that read the anchors' indices: the stray
# zero tests
_READS_ANCHORS = frozenset(name for name, (_, _, step) in _HYPOTHESES.items()
                           if step == ("zero", 0))


def _rows(an, names, m):
    """The reported row of each hypothesis of names on the analysis an's
    sequences, in order. A row is frozen and depends only on its name, its
    range and, for a stray-zero test, the anchors, so each is built once
    per analysis and shared by every statement that reads it."""
    u, v, cache = an.u, an.v, an.rows
    hyps, allowed = _hypotheses(names, u, v, m)
    out = []
    for name, holds, detail, lo, hi in hyps:
        key = (name, lo, hi, allowed) if name in _READS_ANCHORS else (name, lo, hi)
        row = cache.get(key)
        if row is None:
            row = cache[key] = _pc_row(name, holds(u, v, lo, hi, allowed), detail,
                                       u, v, lo, hi, allowed)
        out.append(row)
    return tuple(out)


# -- window handling --------------------------------------------------------


def _window_ints(window):
    try:
        n, m = window
    except (TypeError, ValueError):
        raise WindowOutOfRange(f"window must be a pair of indices, got {window!r}")
    for val in (n, m):
        if isinstance(val, bool) or not isinstance(val, int):
            raise WindowOutOfRange(f"window indices must be ints, got {window!r}")
    return n, m


def _window_start(spec, b):
    """The first valid window start on a sequence from index b: b + 1 for a
    single sequence (its windowed sums read u_{n-1}), b for a pair."""
    return b + (spec.arity == 1)


def _resolve_window(spec, b, e, window):
    """The window (n, m) of spec on the indices b..e: (b, e) when spec
    takes none, (e, e) when its optional window is omitted."""
    if spec.windowed or spec.window_optional:
        if window is None:
            if spec.window_optional:
                return e, e
            raise WindowRequired(f"{spec.id.value} needs a window (n, m)")
        n, m = _window_ints(window)
        first = _window_start(spec, b)
        if not (first <= n <= m <= e):
            raise WindowOutOfRange(
                f"window [{n}, {m}] invalid; need {first} <= n <= m <= {e}"
            )
        return n, m
    if window is not None:
        raise ValueError(f"{spec.id.value} does not take a window")
    return b, e


# -- integer terms ----------------------------------------------------------


def _step_term(a0, c0, a1, c1, l1, l2, nabla):
    """A single-sequence statement's lhs and rhs terms on the step from
    [a0, c0] to [a1, c1]: ||u_i||^l1 * ||Du_i||^l2 and ||Du_i||^(l1+l2),
    where u_i is the step's later element for nabla and its earlier one for
    the forward differences.

    The norm of [a, c] is max(-a, c). The gH step has the endpoints a1 - a0
    and c1 - c0 in some order, so its norm is the larger absolute value.
    (Comparisons rather than max(): this runs once per term on every path.)
    """
    s, t = abs(a1 - a0), abs(c1 - c0)
    if t > s:
        s = t
    a, c = (a1, c1) if nabla else (a0, c0)
    return (c if c > -a else -a) ** l1 * s ** l2, s ** (l1 + l2)


def _pair_term(ua0, uc0, ua1, uc1, va0, vc0, va1, vc1):
    """The pair statements' lhs and rhs terms at i, from u_{i-1} = [ua0, uc0],
    u_i = [ua1, uc1], v_{i-1} and v_i on one denominator:
    ||u_{i-1} * nabla v_i + v_i * nabla u_i|| and
    ||(nabla u_i)^2 + (nabla v_i)^2||.

    A four-product does not depend on the order of the factors' endpoints,
    so the gH steps enter as unsorted endpoint differences. The squares
    are [>= 0, ||.||^2], so the norm of their sum is the sum of norms.
    Each four-product is bounded by comparisons: order the two products
    of each left endpoint, then take the smaller low and the larger high.
    """
    gu0, gu1 = ua1 - ua0, uc1 - uc0
    gv0, gv1 = va1 - va0, vc1 - vc0
    a, b, c, d = ua0 * gv0, ua0 * gv1, uc0 * gv0, uc0 * gv1
    if a > b:
        a, b = b, a
    if c > d:
        c, d = d, c
    lo, hi = (a if a < c else c), (b if b > d else d)
    a, b, c, d = va1 * gu0, va1 * gu1, vc1 * gu0, vc1 * gu1
    if a > b:
        a, b = b, a
    if c > d:
        c, d = d, c
    lo += a if a < c else c
    hi += b if b > d else d
    # max(|x|, |y|)^2 is max(x^2, y^2)
    gu0, gu1, gv0, gv1 = gu0 * gu0, gu1 * gu1, gv0 * gv0, gv1 * gv1
    return (-lo if -lo > hi else hi,
            (gu0 if gu0 > gu1 else gu1) + (gv0 if gv0 > gv1 else gv1))


def _term_list(u, v, nabla, l1, l2, signed, lo, hi):
    """The integer (lhs, rhs) term of each index lo..hi-1 on u (and v), over
    the scale _terms gives. signed marks L3_1 on degenerate input, which
    sums x_i^l1 (nabla x_i)^l2 and (nabla x_i)^(l1+l2) with their signs;
    the others sum norms."""
    b = u.base_index
    if v is not None:
        D = math.lcm(u.D, v.D)
        su, sv = D // u.D, D // v.D
        ul, uh, vl, vh = u.lows, u.highs, v.lows, v.highs
        return [_pair_term(ul[k - 1] * su, uh[k - 1] * su, ul[k] * su, uh[k] * su,
                           vl[k - 1] * sv, vh[k - 1] * sv, vl[k] * sv, vh[k] * sv)
                for k in range(lo - b, hi - b)]
    # term i reads the step from position i - b - nabla
    first, stop = lo - b - nabla, hi - b - nabla + 1
    lows, highs = u.lows[first:stop], u.highs[first:stop]
    if signed:
        k = l1 + l2
        return [(x1 ** l1 * (x1 - x0) ** l2, (x1 - x0) ** k) for x0, x1 in zip(lows, lows[1:])]
    return list(map(_step_term, lows, highs, lows[1:], highs[1:],
                    repeat(l1), repeat(l2), repeat(nabla)))


def _terms(u, v, cache, spec, l1, l2, n, m):
    """(lhs_rng, rhs_rng, const, start, terms, scale) on u (and v) in the
    window (n, m): the ranges and constant of _frame, and the integer
    (lhs, rhs) term of each index start, start + 1, ..., up to at least the
    end of both ranges. Each term over scale is the exact rational one:
    scale is D^(l1+l2) for a single sequence, D^2 with D = lcm(Du, Dv) for
    a pair. L3_1 sums with signs exactly on degenerate input.

    The terms depend only on the operator's step (nabla or forward), the
    exponents and the signs, not on the statement: cache, an analysis's
    terms, keeps one list per such key over the whole input (nabla indices
    b+1..e, forward b..e-1), which holds every statement's ranges. Without
    a cache (None) the terms are exactly the statement's indices, kept
    nowhere."""
    b = u.base_index
    e = b + len(u.lows) - 1
    lhs_rng, rhs_rng, const = _frame(spec, b, e, n, m, l1, l2)
    nabla = spec.operator is Operator.NABLA
    signed = spec.id is TheoremId.L3_1 and _holds(("degenerate",), u, None, m)
    if cache is None:
        start = min(lhs_rng.start, rhs_rng.start)
        terms = _term_list(u, v, nabla, l1, l2, signed, start,
                           max(lhs_rng.stop, rhs_rng.stop))
    else:
        key, start = (nabla, l1, l2, signed), b + nabla
        terms = cache.get(key)
        if terms is None:
            terms = cache[key] = _term_list(u, v, nabla, l1, l2, signed, start, e + nabla)
    scale = u.D ** (l1 + l2) if v is None else math.lcm(u.D, v.D) ** 2
    return lhs_rng, rhs_rng, const, start, terms, scale


_LHS, _RHS = operator.itemgetter(0), operator.itemgetter(1)


def _sides(u, v, cache, spec, l1, l2, n, m):
    """(lhs, rhs, scale, const): the sides are lhs / scale and
    const * rhs / scale on u (and v) in the window (n, m); cache as in
    _terms."""
    lhs_rng, rhs_rng, const, start, terms, scale = _terms(u, v, cache, spec, l1, l2, n, m)
    return (sum(map(_LHS, terms[lhs_rng.start - start:lhs_rng.stop - start])),
            sum(map(_RHS, terms[rhs_rng.start - start:rhs_rng.stop - start])), scale, const)


# -- checking ---------------------------------------------------------------


def _check_lambdas(spec, l1, l2):
    _check_exponent("l1", l1)
    _check_exponent("l2", l2)
    if spec.id is TheoremId.T2_2 and (l1, l2) != (1, 1):
        raise ValueError("T2_2 has fixed exponents l1 = l2 = 1")


def _size_guard(e, D, n, l1, l2):
    """Refuse, with OutputTooLarge, a check that could give an integer
    longer than the interpreter prints (Python's default limit where it
    sets none), before anything is evaluated. Every integer a check prints
    (an endpoint, D, the sides, the constant and the ratio, in lowest
    terms) is bounded from the endpoints' bit length e on the common
    denominator D, the length n and k = l1 + l2 (2 for a pair, whose
    caller passes 1, 1): a term has at most k(e + 1) + 1 bits, the
    constant's numerator at most l2 * n^l1 and its denominator at most k."""
    k = l1 + l2
    side = k * (e + 1) + 1 + n.bit_length() + max(l2, 1).bit_length() + l1 * n.bit_length()
    bits = max(side, k * D.bit_length()) + k.bit_length()
    digits = bits * 30103 // 100000 + 1   # log10(2) < 0.30103
    limit = int_digit_limit()
    if digits > limit:
        raise OutputTooLarge(
            f"input too large: endpoints of {e} bits (common denominator"
            f" included) at length {n} and l1 + l2 = {k} can give results of"
            f" {digits} digits, over the {limit}-digit limit for printing them"
        )


def _endpoint_bits(top, scale):
    """The bit count the size guard reads of endpoints of magnitude at most
    top on their own denominator, moved onto a common denominator scale
    times theirs: the one rule of the engine's guard, the scan's and the
    fuzzer's."""
    return top.bit_length() + scale.bit_length()


def _end_bits(s, D):
    # _endpoint_bits of s's largest |endpoint| on the common denominator D
    # (no low exceeds its high)
    return _endpoint_bits(max(max(s.highs), -min(s.lows)) if s.lows else 0, D // s.D)


def _guard(an, l1, l2):
    """_size_guard on the analysis an's sequences, once per exponent pair
    it admits; a pair ignores l1 and l2."""
    u, v = an.u, an.v
    if v is not None:
        l1 = l2 = 1
    if (l1, l2) in an.admitted:
        return
    if v is None:
        D, e = u.D, _end_bits(u, u.D)
    else:
        D = math.lcm(u.D, v.D)
        e = max(_end_bits(u, D), _end_bits(v, D))
    _size_guard(e, D, len(u.lows), l1, l2)
    an.admitted.add((l1, l2))


def _window_of(spec, an, l1, l2, window):
    """The window (n, m) of spec on the analysis an's sequences, after the
    argument checks and the size guard that _check and lhs_terms share."""
    u, v = an.u, an.v
    if v is None:
        _check_lambdas(spec, l1, l2)
    else:
        _check_aligned(u, v)
    if len(u) < 2:
        raise TooShort(f"{spec.id.value} needs at least two elements")
    window = _resolve_window(spec, u.first_index, u.last_index, window)
    _guard(an, l1, l2)
    return window


def _v_profile_note(v, first, last):
    # the labels v.window(first, last).classify() reports
    d, mu = _DIRECTION_LABEL[_dir_bits(v, first, last)], _MU_LABEL[_mu_bits(v, first, last)]
    return f"v on [{first}, {last}] classifies as {d.value}, {mu.value} (recorded, not required)"


def _check(spec, u, v, l1, l2, window, names, notes, an):
    """The verdict of spec on u (and v, for a pair) with the hypotheses
    names, after the given notes. an is the caller's analysis, which must
    be of u (and v); a call without one computes exactly its own terms."""
    cache = None if an is None else an.terms
    if an is None:
        an = _Analysis(u, v)
    elif an.u is not u or an.v is not v:
        raise ValueError("_analysis is of another input")
    n, m = _window_of(spec, an, l1, l2, window)
    pre = _rows(an, names, m)
    # the real statements' first row is degenerate; off it, a note (and
    # L3_1 sums norms instead of signed terms)
    if spec.sums.shape == "real" and not pre[0].passed:
        notes.append("non-degenerate input: evaluated with interval norms")
    if "alternate_u" in names:
        notes.append(_v_profile_note(v, u.first_index, m))
    lhs, rhs, scale, const = _sides(u, v, cache, spec, l1, l2, n, m)
    # the sides are lhs / scale and const * rhs / scale; compared, and
    # divided into the ratio, on ints: 0 when both sides are 0, none when
    # only rhs is
    cd = const.denominator
    lcd, crhs = lhs * cd, const.numerator * rhs
    return Verdict(
        theorem=spec.id,
        preconditions=pre,
        lhs=Fraction(lhs, scale),
        rhs=Fraction(crhs, cd * scale),
        constant=const,
        holds=lcd <= crhs,
        ratio=(Fraction(lcd, crhs) if crhs > 0
               else Fraction(0) if lcd == 0 == crhs else None),
        in_hypotheses=all(p.passed for p in pre),
        lambda1=l1,
        lambda2=l2,
        window=(n, m) if spec.windowed or spec.window_optional else None,
        notes=tuple(notes),
    )


def check_single(seq: IntervalSequence, l1: int, l2: int, theorem, window=None,
                 *, _analysis=None) -> Verdict:
    """Evaluate a single-sequence statement exactly.

    window is required for the windowed statements (a pair (n, m) of
    absolute indices with base+1 <= n <= m <= last) and rejected
    elsewhere. Hypothesis failures are reported, never raised. A sequence
    whose results could be too long to print raises OutputTooLarge before
    anything is evaluated.
    """
    spec = lookup(theorem)
    if spec.arity != 1:
        raise ArityMismatch(f"{spec.id.value} compares a pair of sequences; use check_pair")
    return _check(spec, seq, None, l1, l2, window, spec.preconditions, [], _analysis)


def check_pair(u: IntervalSequence, v: IntervalSequence, theorem, window=None,
               *, alt_boundary: bool = False, _analysis=None) -> Verdict:
    """Evaluate a pair statement exactly.

    T3_7 and T3_9 require a window (n, m); T3_8 accepts an optional one
    (default: both ends at the last index). alt_boundary switches T3_10
    to its first-index anchoring. A pair whose results could be too long
    to print raises OutputTooLarge before anything is evaluated.
    """
    spec = lookup(theorem)
    if spec.arity != 2:
        raise ArityMismatch(f"{spec.id.value} takes a single sequence; use check_single")
    names, notes = spec.preconditions, []
    if alt_boundary:
        if spec.id is not TheoremId.T3_10:
            raise ValueError("alt_boundary applies only to T3_10")
        names = tuple("first_zero" if p == "second_zero" else p for p in names)
        notes.append("alternate boundary mode: anchors at the first and last index")
    return _check(spec, u, v, None, None, window, names, notes, _analysis)


def check_classical(seq) -> Verdict:
    """Strict entry point for the classical real-sequence bound.

    Accepts an iterable of exact reals or a degenerate IntervalSequence.
    Unlike check_single, nonzero boundaries raise BoundaryNotZero here.
    """
    if isinstance(seq, IntervalSequence):
        s = seq
    else:
        s = IntervalSequence.from_reals(seq)
    if not s.is_degenerate:
        raise ValueError("classical check expects a real-valued (degenerate) sequence")
    if len(s) < 2:
        raise TooShort("classical check needs at least two elements")
    if not s.is_zero_at(s.first_index):
        raise BoundaryNotZero(f"u_{s.first_index} = {s.at(s.first_index)} (expected [0, 0])")
    if not s.is_zero_at(s.last_index):
        raise BoundaryNotZero(f"u_{s.last_index} = {s.at(s.last_index)} (expected [0, 0])")
    return check_single(s, 1, 1, TheoremId.T2_2)


def lhs_terms(seq, l1, l2, theorem, window=None):
    """Both sides' per-index terms, as the engine sums them.

    seq is one IntervalSequence for a single-sequence statement and a pair
    (u, v) for a pair statement, which ignores l1 and l2. Returns a list of
    (index, lhs term, rhs term) over the union of the two sides' index
    ranges, each term an exact Fraction, or None where the index is outside
    that side's range. The lhs terms sum to Verdict.lhs and the rhs terms,
    times Verdict.constant, to Verdict.rhs, in or out of the hypotheses.
    Input whose results could be too long to print raises OutputTooLarge
    before anything is evaluated.
    """
    spec = lookup(theorem)
    pair = not isinstance(seq, IntervalSequence)
    if pair != (spec.arity == 2):
        raise ArityMismatch(f"{spec.id.value} compares a pair of sequences" if spec.arity == 2
                            else f"{spec.id.value} takes a single sequence")
    u, v = seq if pair else (seq, None)
    # without a cache, the terms are exactly the union of the two ranges
    n, m = _window_of(spec, _Analysis(u, v), l1, l2, window)
    lhs_rng, rhs_rng, _, start, terms, scale = _terms(u, v, None, spec, l1, l2, n, m)
    return [(i, Fraction(tl, scale) if i in lhs_rng else None,
             Fraction(tr, scale) if i in rhs_rng else None)
            for i, (tl, tr) in enumerate(terms, start)]

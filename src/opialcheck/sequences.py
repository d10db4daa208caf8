"""Finite interval sequences, difference operators, shape classification.

A sequence carries an explicit ``base_index`` so windowed statements
stay unambiguous: the entries are u_b, u_{b+1}, ..., u_{b+len-1}.

Two difference operators are provided. ``nabla`` is the backward
gH-difference (defined from index b+1 on), ``delta`` the forward one
(defined up to the second-to-last index). Monotonicity is the LU order:
a sequence increases when both endpoint sequences are non-decreasing.
The width direction ("mu") is tracked separately because the theorems
hypothesize both at once.

Order predicates here are deliberately non-strict and set-valued: a
constant sequence is simultaneously increasing and decreasing, and the
checking engine needs that, since the hypotheses are satisfied by ties.
``classify`` collapses the sets to a single reported label (ties read
as increasing) purely for presentation.

Every order test runs on integers. A sequence clears its denominators
once: with D the lcm of all endpoint denominators, ``D * u_i`` has
integer endpoints, and multiplying every endpoint by the same D > 0
keeps every comparison of endpoints, of steps and of widths. The view
is cached on the sequence and handed down to its windows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import Interval
from .rationals import as_rational


class TooShort(ValueError):
    """The operation needs at least two elements."""


class LengthMismatch(ValueError):
    """Paired sequences do not align."""


class IndexOutOfRange(IndexError):
    """An index fell outside the sequence."""


class NotDecomposable(ValueError):
    """No segmentation into monotone, mu-monotone pieces exists."""


class Direction(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NON_MONOTONE = "non-monotone"


class MuDirection(enum.Enum):
    MU_INCREASING = "mu-increasing"
    MU_DECREASING = "mu-decreasing"
    MU_NON_MONOTONE = "mu-non-monotone"


class Synchrony(enum.Enum):
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"
    NEITHER = "neither"


@dataclass(frozen=True, slots=True)
class MonotonicityProfile:
    direction: Direction
    mu_direction: MuDirection
    strict: bool
    zero_indices: tuple[int, ...]

    def to_jsonable(self) -> dict:
        return {
            "direction": self.direction.value,
            "mu_direction": self.mu_direction.value,
            "strict": self.strict,
            "zero_indices": list(self.zero_indices),
        }


@dataclass(frozen=True, slots=True)
class Segment:
    start: int
    end: int
    profile: MonotonicityProfile

    def to_jsonable(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "profile": self.profile.to_jsonable(),
        }


@dataclass(frozen=True, slots=True)
class SegmentDecomposition:
    """Greedy maximal segmentation; adjacent segments share an element."""

    breakpoints: tuple[int, ...]
    segments: tuple[Segment, ...]

    def to_jsonable(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "segments": [s.to_jsonable() for s in self.segments],
        }


# order sets by bit pattern: 1 = the increasing order holds, 2 = the decreasing
_DIRECTION_SETS = (
    frozenset(),
    frozenset({Direction.INCREASING}),
    frozenset({Direction.DECREASING}),
    frozenset({Direction.INCREASING, Direction.DECREASING}),
)
_MU_SETS = (
    frozenset(),
    frozenset({MuDirection.MU_INCREASING}),
    frozenset({MuDirection.MU_DECREASING}),
    frozenset({MuDirection.MU_INCREASING, MuDirection.MU_DECREASING}),
)
# the bit of a single order, and the reported label of a bit pattern (ties
# read as increasing)
_ORDER_BIT = {Direction.INCREASING: 1, Direction.DECREASING: 2,
              MuDirection.MU_INCREASING: 1, MuDirection.MU_DECREASING: 2}
_DIRECTION_LABEL = (Direction.NON_MONOTONE, Direction.INCREASING,
                    Direction.DECREASING, Direction.INCREASING)
_MU_LABEL = (MuDirection.MU_NON_MONOTONE, MuDirection.MU_INCREASING,
             MuDirection.MU_DECREASING, MuDirection.MU_INCREASING)


def _order_bits(xs, strict=False):
    """Bit 1 when xs never falls (rises at every step if strict), bit 2
    when it never rises (falls at every step if strict)."""
    steps = list(zip(xs, xs[1:]))
    if strict:
        up = all(a < c for a, c in steps)
        down = all(a > c for a, c in steps)
    else:
        up = all(a <= c for a, c in steps)
        down = all(a >= c for a, c in steps)
    return up | (down << 1)


@dataclass(frozen=True, slots=True)
class IntervalSequence:
    items: tuple[Interval, ...]
    base_index: int = 0
    # (D, D*lo, D*hi) as ints, built on first use; see _int_view
    _ints: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        items = tuple(self.items)
        for it in items:
            if not isinstance(it, Interval):
                raise TypeError(
                    f"expected Interval elements, got {type(it).__name__};"
                    " use from_pairs or from_reals for raw values"
                )
        if not isinstance(self.base_index, int) or isinstance(self.base_index, bool):
            raise TypeError("base_index must be an int")
        object.__setattr__(self, "items", items)

    @classmethod
    def from_pairs(cls, pairs, base_index: int = 0) -> "IntervalSequence":
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs), base_index)

    @classmethod
    def from_reals(cls, values, base_index: int = 0) -> "IntervalSequence":
        return cls(tuple(Interval.point(v) for v in values), base_index)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def first_index(self) -> int:
        return self.base_index

    @property
    def last_index(self) -> int:
        # one below base_index when empty
        return self.base_index + len(self.items) - 1

    @property
    def indices(self) -> range:
        return range(self.base_index, self.base_index + len(self.items))

    @property
    def is_degenerate(self) -> bool:
        return all(it.is_degenerate for it in self.items)

    def at(self, i: int) -> Interval:
        if not (self.base_index <= i <= self.last_index):
            raise IndexOutOfRange(
                f"index {i} outside [{self.base_index}, {self.last_index}]"
            )
        return self.items[i - self.base_index]

    def window(self, n: int, m: int) -> "IntervalSequence":
        """Sub-sequence u_n..u_m keeping absolute indexing."""
        if n > m:
            raise IndexOutOfRange(f"window start {n} exceeds end {m}")
        if n < self.base_index or m > self.last_index:
            raise IndexOutOfRange(
                f"window [{n}, {m}] outside [{self.base_index}, {self.last_index}]"
            )
        lo, hi = n - self.base_index, m - self.base_index + 1
        out = IntervalSequence(self.items[lo:hi], n)
        D, lows, highs = self._int_view()
        object.__setattr__(out, "_ints", (D, lows[lo:hi], highs[lo:hi]))
        return out

    def _int_view(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D, lows, highs): a common denominator D > 0 and the integer
        endpoints D*lo and D*hi of every element.

        D is the lcm of the endpoint denominators, or the parent's D for
        a window. Computed once per sequence.
        """
        if self._ints is None:
            # built from lists: a tuple grown from a generator is resized
            # into place and never taken from the interpreter's free list of
            # its size, so each one freed would leave a block behind there
            items = self.items
            D = math.lcm(*[q.denominator for it in items for q in (it.lo, it.hi)])
            lows = tuple([it.lo.numerator * (D // it.lo.denominator) for it in items])
            highs = tuple([it.hi.numerator * (D // it.hi.denominator) for it in items])
            object.__setattr__(self, "_ints", (D, lows, highs))
        return self._ints

    def reals(self) -> tuple[Fraction, ...]:
        if not self.is_degenerate:
            raise ValueError("sequence has non-degenerate elements")
        return tuple(it.lo for it in self.items)

    def to_pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(it.to_pair() for it in self.items)

    # -- difference operators ------------------------------------------

    def _gh_steps(self, name) -> tuple[Interval, ...]:
        # u_{k+1} gh- u_k for every consecutive pair
        if len(self.items) < 2:
            raise TooShort(f"{name} needs at least two elements")
        return tuple(
            cur.gh_diff(prev)[0] for prev, cur in zip(self.items, self.items[1:])
        )

    def nabla(self) -> "IntervalSequence":
        """Backward gH-differences u_i gh- u_{i-1}, indexed from b+1."""
        return IntervalSequence(self._gh_steps("nabla"), self.base_index + 1)

    def delta(self) -> "IntervalSequence":
        """Forward gH-differences u_{i+1} gh- u_i, indexed from b."""
        return IntervalSequence(self._gh_steps("delta"), self.base_index)

    def prefix_norm_sum(self, i: int) -> Fraction:
        """Sum of element norms over indices <= i.

        Intended for difference sequences: nabla output starts at b+1, so
        the sum at the parent's base index is empty. An empty sequence
        sums to zero for any i. Otherwise i may not exceed the last
        index (the requested prefix would not be covered).
        """
        if not self.items:
            return Fraction(0)
        if i > self.last_index:
            raise IndexOutOfRange(
                f"prefix end {i} exceeds last index {self.last_index}"
            )
        total = Fraction(0)
        for j in range(self.base_index, i + 1):
            total += self.items[j - self.base_index].norm
        return total

    # -- classification -------------------------------------------------

    def zero_indices(self) -> tuple[int, ...]:
        _, lows, highs = self._int_view()
        return tuple(
            i for i, lo, hi in zip(self.indices, lows, highs) if lo == 0 == hi
        )

    def classify(self, strict: bool = False) -> MonotonicityProfile:
        """Collapse the order-predicate sets to one reported label.

        Ties collapse to the increasing label; use direction_set and
        mu_direction_set when the distinction matters.
        """
        _, lows, highs = self._int_view()
        d = _order_bits(lows, strict) & _order_bits(highs, strict)
        mu = _order_bits(_widths(lows, highs), strict)
        return MonotonicityProfile(
            _DIRECTION_LABEL[d], _MU_LABEL[mu], strict, self.zero_indices()
        )

    def alternate_segments(self) -> SegmentDecomposition:
        """Greedy maximal split into monotone, mu-monotone segments.

        Ties extend the open segment. Raises NotDecomposable when some
        step admits no monotone order at all (endpoints moving strictly
        in opposite ways), naming the first such step.
        """
        if len(self.items) < 2:
            raise TooShort("segmentation needs at least two elements")
        _, lo, hi = self._int_view()
        b = self.base_index
        breakpoints = [b]
        segments = []
        seg_start = 0
        # order sets as bits (1 increasing, 2 decreasing) surviving the open
        # segment; they are exactly its non-strict order sets
        allowed_d = allowed_mu = 3
        for k in range(1, len(lo)):
            sd = _step_bits(lo[k - 1], lo[k]) & _step_bits(hi[k - 1], hi[k])
            if not sd:
                raise NotDecomposable(
                    f"no monotone order for the step {b + k - 1} -> {b + k}"
                )
            smu = _step_bits(hi[k - 1] - lo[k - 1], hi[k] - lo[k])
            nd = allowed_d & sd
            nmu = allowed_mu & smu
            if nd and nmu:
                allowed_d, allowed_mu = nd, nmu
            else:
                segments.append(self._segment(seg_start, k - 1, allowed_d, allowed_mu))
                breakpoints.append(b + k - 1)
                seg_start = k - 1
                allowed_d, allowed_mu = sd, smu
        segments.append(self._segment(seg_start, len(lo) - 1, allowed_d, allowed_mu))
        breakpoints.append(self.last_index)
        return SegmentDecomposition(tuple(breakpoints), tuple(segments))

    def _segment(self, start, end, d, mu) -> Segment:
        # positions start..end; d and mu are the stretch's order bits
        _, lo, hi = self._int_view()
        b = self.base_index
        zeros = tuple(b + k for k in range(start, end + 1) if lo[k] == 0 == hi[k])
        profile = MonotonicityProfile(_DIRECTION_LABEL[d], _MU_LABEL[mu], False, zeros)
        return Segment(b + start, b + end, profile)

    def __str__(self) -> str:
        inner = ", ".join(str(it) for it in self.items)
        if self.base_index:
            return f"{{{inner}}}@{self.base_index}"
        return f"{{{inner}}}"


def _widths(lows, highs):
    return [c - a for a, c in zip(lows, highs)]


def _ends(seq, first, last):
    """Integer endpoints (lows, highs) of u_first..u_last, whole sequence
    by default; empty when first > last."""
    b = seq.base_index
    if first is None:
        first = seq.first_index
    if last is None:
        last = seq.last_index
    if first > last:
        return (), ()
    if first < seq.first_index or last > seq.last_index:
        raise IndexOutOfRange(
            f"range [{first}, {last}] outside [{seq.first_index}, {seq.last_index}]"
        )
    _, lows, highs = seq._int_view()
    return lows[first - b : last - b + 1], highs[first - b : last - b + 1]


def direction_set(seq, first=None, last=None, strict: bool = False) -> frozenset:
    """Every LU order the stretch satisfies (empty when neither holds)."""
    lows, highs = _ends(seq, first, last)
    return _DIRECTION_SETS[_order_bits(lows, strict) & _order_bits(highs, strict)]


def mu_direction_set(seq, first=None, last=None, strict: bool = False) -> frozenset:
    """Every width order the stretch satisfies."""
    lows, highs = _ends(seq, first, last)
    return _MU_SETS[_order_bits(_widths(lows, highs), strict)]


def _step_bits(x0, x1):
    # order bits of one step: 1 when it does not fall, 2 when it does not rise
    return (x1 >= x0) | ((x1 <= x0) << 1)


def _first_break(xss, want, start):
    """Absolute index of the first step where some sequence of xss loses
    the order bit ``want``; 0 (a non-monotone label) breaks at the first step."""
    for k in range(1, len(xss[0])):
        if not all(want & _step_bits(xs[k - 1], xs[k]) for xs in xss):
            return start + k
    return None


def first_direction_break(seq, direction: Direction, first=None, last=None):
    """Absolute index of the first step violating the given order, or None."""
    lows, highs = _ends(seq, first, last)
    start = seq.first_index if first is None else first
    return _first_break((lows, highs), _ORDER_BIT.get(direction, 0), start)


def first_mu_break(seq, mu: MuDirection, first=None, last=None):
    lows, highs = _ends(seq, first, last)
    start = seq.first_index if first is None else first
    return _first_break((_widths(lows, highs),), _ORDER_BIT.get(mu, 0), start)


def synchronous(u: IntervalSequence, v: IntervalSequence) -> Synchrony:
    """Shared-direction test; ties count toward synchrony."""
    if len(u) != len(v):
        raise LengthMismatch(f"lengths differ: {len(u)} vs {len(v)}")
    du = direction_set(u)
    dv = direction_set(v)
    if du & dv:
        return Synchrony.SYNCHRONOUS
    if du and dv:
        return Synchrony.ASYNCHRONOUS
    return Synchrony.NEITHER

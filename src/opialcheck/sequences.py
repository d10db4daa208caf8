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

A sequence is held as integers: a common denominator D >= 1 and the
integer endpoints ``D * lo`` and ``D * hi`` of every element. Built from
``Interval`` elements, D is the lcm of their denominators; the generator
and the grid scan hand over their integers and D directly. Multiplying
every endpoint by the same D > 0 keeps every comparison of endpoints, of
steps and of widths, so every order test, the segmentation, the zero
tests and the gH-differences run on these integers, and windows slice
them. The ``Interval`` elements are built only when something reads
them: ``items``, iteration, ``at``, printing, serialization.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction

from ._records import record, refuse_delete, refuse_set
from .intervals import Interval, InvalidBounds
from .rationals import ratio_to_json, rational_to_json


class TooShort(ValueError):
    """The operation needs at least two elements."""


class LengthMismatch(ValueError):
    """Paired sequences do not align."""


def _check_aligned(u, v):
    """Refuse, with LengthMismatch, a pair whose lengths or base indices differ."""
    if len(u) != len(v):
        raise LengthMismatch(f"lengths differ: {len(u)} vs {len(v)}")
    if u.base_index != v.base_index:
        raise LengthMismatch(f"base indices differ: {u.base_index} vs {v.base_index}")


class IndexOutOfRange(IndexError):
    """An index fell outside the sequence."""


class NotDecomposable(ValueError):
    """No segmentation into monotone, mu-monotone pieces exists."""


def input_to_jsonable(built) -> dict:
    """The JSON form of an input, a sequence or a (u, v) pair: each element
    as [lo, hi] in lowest terms, and the base index."""
    def pairs(s):
        D = s.D
        return [[ratio_to_json(a, D), ratio_to_json(c, D)] for a, c in zip(s.lows, s.highs)]

    if isinstance(built, tuple):
        u, v = built
        return {"u": pairs(u), "v": pairs(v), "base_index": u.base_index}
    return {"u": pairs(built), "base_index": built.base_index}


_PLAIN = frozenset({str, int, bool, type(None)})


def _jsonable(value):
    # the commonest kinds first: a report holds mostly scalars and tuples
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is Fraction:
        return rational_to_json(value)
    if kind is tuple or kind is list:
        if kind is tuple and value and isinstance(value[0], IntervalSequence):
            return input_to_jsonable(value)   # a (u, v) pair
        return [_jsonable(x) for x in value]
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(kind, "_shown"):
        return value.to_jsonable()
    if isinstance(value, IntervalSequence):
        return input_to_jsonable(value)
    if kind is frozenset:
        return sorted(map(_jsonable, value))
    raise TypeError(f"no JSON form for {kind.__name__}")


def record_to_jsonable(self) -> dict:
    """A record's JSON form: its shown fields (``_shown``) in order, each
    value converted once. str, int, bool and None stay; a Fraction goes
    through rational_to_json; an enum member becomes its value; a record and
    an input give their own JSON form; any other tuple or list becomes a
    list, a frozenset a sorted list; anything else raises TypeError."""
    return {name: _jsonable(getattr(self, name)) for name in self._shown}


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


@record
class MonotonicityProfile:
    direction: Direction
    mu_direction: MuDirection
    strict: bool
    zero_indices: tuple[int, ...]

    to_jsonable = record_to_jsonable


@record
class Segment:
    start: int
    end: int
    profile: MonotonicityProfile

    to_jsonable = record_to_jsonable


@record
class SegmentDecomposition:
    """Greedy maximal segmentation; adjacent segments share an element."""

    breakpoints: tuple[int, ...]
    segments: tuple[Segment, ...]

    to_jsonable = record_to_jsonable


# the bit of a single order: 1 = the increasing order holds, 2 = the decreasing
_ORDER_BIT = {Direction.INCREASING: 1, Direction.DECREASING: 2,
              MuDirection.MU_INCREASING: 1, MuDirection.MU_DECREASING: 2}
# order sets by bit pattern, and the reported label of a bit pattern (ties
# read as increasing)
_DIRECTION_SETS, _MU_SETS = (
    tuple(frozenset(o for o in kind if _ORDER_BIT.get(o, 0) & bits) for bits in range(4))
    for kind in (Direction, MuDirection))
_DIRECTION_LABEL = (Direction.NON_MONOTONE, Direction.INCREASING,
                    Direction.DECREASING, Direction.INCREASING)
_MU_LABEL = (MuDirection.MU_NON_MONOTONE, MuDirection.MU_INCREASING,
             MuDirection.MU_DECREASING, MuDirection.MU_INCREASING)


def _order_bits(xs, strict=False):
    """Bit 1 when xs never falls (rises at every step if strict), bit 2
    when it never rises (falls at every step if strict)."""
    up, down = (operator.lt, operator.gt) if strict else (operator.le, operator.ge)
    tail = xs[1:]
    return all(map(up, xs, tail)) | (all(map(down, xs, tail)) << 1)


class IntervalSequence:
    """The intervals u_b, ..., u_{b+len-1}, held as integers: a common
    denominator D >= 1 and the endpoints lows[k] = D * lo and
    highs[k] = D * hi of u_{b+k}.

    ``IntervalSequence(items, base_index)`` clears the denominators of the
    given Interval elements (D = their lcm); ``_from_ints`` takes the
    integers directly, with any D >= 1. ``items`` builds the Interval
    elements on first read and keeps them. Equality, hashing and repr mean
    (items, base_index), whatever D is. Instances are immutable.
    """

    __slots__ = ("D", "lows", "highs", "base_index", "_items")

    def __init__(self, items, base_index: int = 0):
        items = tuple(items)
        for it in items:
            if not isinstance(it, Interval):
                raise TypeError(
                    f"expected Interval elements, got {type(it).__name__};"
                    " use from_pairs or from_reals for raw values"
                )
        _check_base(base_index)
        D = math.lcm(*[q.denominator for it in items for q in (it.lo, it.hi)])
        lows = tuple([it.lo.numerator * (D // it.lo.denominator) for it in items])
        highs = tuple([it.hi.numerator * (D // it.hi.denominator) for it in items])
        _fill(self, D, lows, highs, base_index, items)

    @classmethod
    def _from_ints(cls, D, lows, highs, base_index: int = 0) -> "IntervalSequence":
        """The sequence of [lows[k]/D, highs[k]/D]; D need not be in lowest
        terms. Raises InvalidBounds when some lows[k] > highs[k]."""
        if isinstance(D, bool) or not isinstance(D, int) or D < 1:
            raise ValueError(f"common denominator must be an int >= 1, got {D!r}")
        _check_base(base_index)
        lows, highs = tuple(lows), tuple(highs)
        if any(map(operator.gt, lows, highs)):
            k = next(k for k, (a, c) in enumerate(zip(lows, highs)) if a > c)
            raise InvalidBounds(
                f"lower bound {Fraction(lows[k], D)} exceeds upper bound"
                f" {Fraction(highs[k], D)} at index {base_index + k}"
            )
        return _fill(object.__new__(cls), D, lows, highs, base_index, None)

    @classmethod
    def from_pairs(cls, pairs, base_index: int = 0) -> "IntervalSequence":
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs), base_index)

    @classmethod
    def from_reals(cls, values, base_index: int = 0) -> "IntervalSequence":
        return cls(tuple(Interval.point(v) for v in values), base_index)

    @property
    def items(self) -> tuple[Interval, ...]:
        items = self._items
        if items is None:
            D = self.D
            items = tuple([Interval(Fraction(a, D), Fraction(c, D))
                           for a, c in zip(self.lows, self.highs)])
            object.__setattr__(self, "_items", items)
        return items

    __setattr__ = refuse_set
    __delattr__ = refuse_delete

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.base_index != other.base_index or len(self.lows) != len(other.lows):
            return False
        # a/D == a'/D' exactly when a*D' == a'*D
        D, Do = self.D, other.D
        return all(
            a * Do == ao * D and c * Do == co * D
            for a, c, ao, co in zip(self.lows, self.highs, other.lows, other.highs)
        )

    def __hash__(self):
        return hash((self.items, self.base_index))

    def __repr__(self):
        return f"IntervalSequence(items={self.items!r}, base_index={self.base_index!r})"

    def __reduce__(self):
        return (type(self)._from_ints, (self.D, self.lows, self.highs, self.base_index))

    def __len__(self) -> int:
        return len(self.lows)

    def __iter__(self):
        return iter(self.items)

    @property
    def first_index(self) -> int:
        return self.base_index

    @property
    def last_index(self) -> int:
        # one below base_index when empty
        return self.base_index + len(self.lows) - 1

    @property
    def indices(self) -> range:
        return range(self.base_index, self.base_index + len(self.lows))

    @property
    def is_degenerate(self) -> bool:
        return self.lows == self.highs

    def _position(self, i: int) -> int:
        k = i - self.base_index
        if not 0 <= k < len(self.lows):
            raise IndexOutOfRange(
                f"index {i} outside [{self.base_index}, {self.last_index}]"
            )
        return k

    def at(self, i: int) -> Interval:
        """u_i; builds only this element unless items were already read."""
        k = self._position(i)
        if self._items is not None:
            return self._items[k]
        return Interval(Fraction(self.lows[k], self.D), Fraction(self.highs[k], self.D))

    def is_zero_at(self, i: int) -> bool:
        """Whether u_i = [0, 0]."""
        k = self._position(i)
        return self.lows[k] == 0 == self.highs[k]

    def window(self, n: int, m: int) -> "IntervalSequence":
        """Sub-sequence u_n..u_m keeping absolute indexing."""
        if n > m:
            raise IndexOutOfRange(f"window start {n} exceeds end {m}")
        if n < self.base_index or m > self.last_index:
            raise IndexOutOfRange(
                f"window [{n}, {m}] outside [{self.base_index}, {self.last_index}]"
            )
        lo, hi = n - self.base_index, m - self.base_index + 1
        return _fill(object.__new__(IntervalSequence), self.D,
                     self.lows[lo:hi], self.highs[lo:hi], n, None)

    def reals(self) -> tuple[Fraction, ...]:
        if not self.is_degenerate:
            raise ValueError("sequence has non-degenerate elements")
        return tuple(Fraction(a, self.D) for a in self.lows)

    def to_pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(it.to_pair() for it in self.items)

    # -- difference operators ------------------------------------------

    def _gh_steps(self, name, base_index) -> "IntervalSequence":
        # u_{k+1} gh- u_k for every consecutive pair: its endpoints are the
        # two endpoint steps, in order
        lows, highs = self.lows, self.highs
        if len(lows) < 2:
            raise TooShort(f"{name} needs at least two elements")
        dl = [a1 - a0 for a0, a1 in zip(lows, lows[1:])]
        dh = [c1 - c0 for c0, c1 in zip(highs, highs[1:])]
        return _fill(object.__new__(IntervalSequence), self.D,
                     tuple(map(min, dl, dh)), tuple(map(max, dl, dh)), base_index, None)

    def nabla(self) -> "IntervalSequence":
        """Backward gH-differences u_i gh- u_{i-1}, indexed from b+1."""
        return self._gh_steps("nabla", self.base_index + 1)

    def delta(self) -> "IntervalSequence":
        """Forward gH-differences u_{i+1} gh- u_i, indexed from b."""
        return self._gh_steps("delta", self.base_index)

    def prefix_norm_sum(self, i: int) -> Fraction:
        """Sum of element norms over indices <= i.

        Intended for difference sequences: nabla output starts at b+1, so
        the sum at the parent's base index is empty. An empty sequence
        sums to zero for any i. Otherwise i may not exceed the last
        index (the requested prefix would not be covered).
        """
        if not self.lows:
            return Fraction(0)
        if i > self.last_index:
            raise IndexOutOfRange(
                f"prefix end {i} exceeds last index {self.last_index}"
            )
        end = max(0, i - self.base_index + 1)
        return Fraction(
            sum(max(-a, c) for a, c in zip(self.lows[:end], self.highs[:end])), self.D
        )

    # -- classification -------------------------------------------------

    def zero_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, lo, hi in zip(self.indices, self.lows, self.highs) if lo == 0 == hi
        )

    def classify(self, strict: bool = False) -> MonotonicityProfile:
        """Collapse the order-predicate sets to one reported label.

        Ties collapse to the increasing label; use direction_set and
        mu_direction_set when the distinction matters.
        """
        return MonotonicityProfile(
            _DIRECTION_LABEL[_dir_bits(self, strict=strict)],
            _MU_LABEL[_mu_bits(self, strict=strict)], strict, self.zero_indices()
        )

    def alternate_segments(self) -> SegmentDecomposition:
        """Greedy maximal split into monotone, mu-monotone segments.

        Ties extend the open segment. Raises NotDecomposable when some
        step admits no monotone order at all (endpoints moving strictly
        in opposite ways), naming the first such step.
        """
        if len(self.lows) < 2:
            raise TooShort("segmentation needs at least two elements")
        runs = _alternate_runs(self.lows, self.highs, self.base_index)
        return SegmentDecomposition(
            tuple(start for start, *_ in runs) + (self.last_index,),
            tuple(self._segment(*run) for run in runs),
        )

    def _segment(self, start, end, d, mu) -> Segment:
        # indices start..end; d and mu are the stretch's order bits
        lo, hi = self.lows, self.highs
        b = self.base_index
        zeros = tuple(i for i in range(start, end + 1) if lo[i - b] == 0 == hi[i - b])
        profile = MonotonicityProfile(_DIRECTION_LABEL[d], _MU_LABEL[mu], False, zeros)
        return Segment(start, end, profile)

    def __str__(self) -> str:
        inner = ", ".join(str(it) for it in self.items)
        if self.base_index:
            return f"{{{inner}}}@{self.base_index}"
        return f"{{{inner}}}"


def _check_base(base_index):
    if not isinstance(base_index, int) or isinstance(base_index, bool):
        raise TypeError("base_index must be an int")


def _fill(seq, D, lows, highs, base_index, items):
    # sets the fields of a new, not yet shared IntervalSequence
    _set = object.__setattr__
    _set(seq, "D", D)
    _set(seq, "lows", lows)
    _set(seq, "highs", highs)
    _set(seq, "base_index", base_index)
    _set(seq, "_items", items)
    return seq


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
    return seq.lows[first - b : last - b + 1], seq.highs[first - b : last - b + 1]


def _dir_bits(seq, first=None, last=None, strict=False):
    """LU order bits of u_first..u_last, whole sequence by default: 1 when
    both endpoint sequences increase, 2 when both decrease."""
    lows, highs = _ends(seq, first, last)
    return _order_bits(lows, strict) & _order_bits(highs, strict)


def _mu_bits(seq, first=None, last=None, strict=False):
    """Width order bits of u_first..u_last, as _dir_bits."""
    return _order_bits(_widths(*_ends(seq, first, last)), strict)


def direction_set(seq, first=None, last=None, strict: bool = False) -> frozenset:
    """Every LU order the stretch satisfies (empty when neither holds)."""
    return _DIRECTION_SETS[_dir_bits(seq, first, last, strict)]


def mu_direction_set(seq, first=None, last=None, strict: bool = False) -> frozenset:
    """Every width order the stretch satisfies."""
    return _MU_SETS[_mu_bits(seq, first, last, strict)]


def _step_bits(x0, x1):
    # order bits of one step: 1 when it does not fall, 2 when it does not rise
    return (x1 >= x0) | ((x1 <= x0) << 1)


def _alternate_runs(lows, highs, base):
    """The greedy maximal segmentation of the elements lows, highs, indexed
    from base, as (start, end, d, mu): each segment's first and last index
    and its order bits (1 increasing, 2 decreasing) and width order bits.
    Ties extend the open segment, and adjacent segments share an element.
    Raises NotDecomposable at the first step that keeps no LU order."""
    runs = []
    start = base
    # order bits surviving the open segment: exactly its non-strict order sets
    allowed_d = allowed_mu = 3
    for k in range(1, len(lows)):
        sd = _step_bits(lows[k - 1], lows[k]) & _step_bits(highs[k - 1], highs[k])
        if not sd:
            raise NotDecomposable(
                f"no monotone order for the step {base + k - 1} -> {base + k}"
            )
        smu = _step_bits(highs[k - 1] - lows[k - 1], highs[k] - lows[k])
        nd = allowed_d & sd
        nmu = allowed_mu & smu
        if nd and nmu:
            allowed_d, allowed_mu = nd, nmu
        else:
            runs.append((start, base + k - 1, allowed_d, allowed_mu))
            start = base + k - 1
            allowed_d, allowed_mu = sd, smu
    runs.append((start, base + len(lows) - 1, allowed_d, allowed_mu))
    return runs


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

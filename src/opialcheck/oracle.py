"""Randomized and brute-force verification on top of the checking engine.

Provides precondition-conforming input generators, a deterministic
fuzzer with optional hypothesis relaxation, an exhaustive small-grid
ratio scanner, exact checks for the scalar inequalities the proofs
lean on (Young, power mean, product rule), and reproduction of the
bundled worked examples.

Determinism: every random draw comes from a Random instance seeded
from the config seed, the theorem id, and the trial index, so reports
are reproducible bit for bit. Random rationals use denominators <= 16
to keep exact arithmetic fast under repeated multiplication.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from operator import itemgetter

from ._records import record
from .intervals import ExponentOutOfRange, Interval, _check_exponent
from .rationals import as_rational
from .sequences import (
    IntervalSequence,
    _check_aligned,
    _step_bits,
    input_to_jsonable,  # re-exported: oracle.input_to_jsonable
    record_to_jsonable,
)
from .theorems import (
    BudgetExceeded,  # re-exported: oracle.BudgetExceeded
    Operator,
    TheoremId,
    Verdict,
    check_pair,
    check_single,
    lookup,
    registry,
    _ANCHOR_AT,
    _HYPOTHESES,
    _Analysis,
    _check_lambdas,
    _endpoint_bits,
    _frame,
    _holds,
    _hypotheses,
    _pair_term,
    _plan,
    _resolve_window,
    _sides,
    _size_guard,
    _step_term,
    _window_start,
)

_ATTEMPTS = 80
_MAX_DEN = 16   # the largest denominator the generator draws

SequenceInput = IntervalSequence | tuple[IntervalSequence, IntervalSequence]


class InfeasibleProfile(ValueError):
    """No input of the requested length can satisfy the profile."""


class PreconditionViolated(ValueError):
    """product_rule_check called outside the cases where the identity holds."""


class RelaxNotRealized(ValueError):
    """fuzz could not break every relaxed precondition at once: the
    mutation sites do not cover the combination at the drawn length."""


# the names only the pair statements carry
_PAIR_NAMES = frozenset().union(
    *(s.preconditions for s in registry() if s.arity == 2)
).difference(*(s.preconditions for s in registry() if s.arity == 1))
_KNOWN_NAMES = frozenset(_HYPOTHESES)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _plan_at(names, pair, L):
    """theorems._plan of names on the indices 0..L-1 with the window end at
    the last index."""
    return _plan(names, pair, 0, L - 1, L - 1)


# -- random generation ------------------------------------------------------


class _Retry(Exception):
    """Internal: abandon this construction attempt and redraw."""


def _randint(rng, a, b):
    """``rng.randint(a, b)``, the same draw without randrange's argument
    handling: getrandbits of n's bit length, redrawn while >= n, as
    Random._randbelow_with_getrandbits draws below n = b - a + 1."""
    n = b - a + 1
    if n <= 0:
        return rng.randint(a, b)   # its error
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def _weak_sums(rng, total, parts):
    # the running sums of `parts` non-negative integers summing to total
    return sorted(_randint(rng, 0, total) for _ in range(parts - 1)) + [total]


def _pos_comp(rng, total, parts):
    # positive integers summing to total; needs total >= parts
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    out, prev = [], 0
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def _ramp_ints(rng, start, end, steps, up, mu_up):
    """Integer (lo, hi) chain of `steps` elements after start, ending at end.

    Both endpoint coordinates move monotonically (direction `up`) and
    widths move monotonically (direction `mu_up`). The chain follows lo
    when the two directions agree and hi otherwise, so that the other
    endpoint moves by the sum of the two. The caller must pick a feasible
    start/end combination.
    """
    follow_hi = up != mu_up
    s, t = (1 if up else -1), (1 if mu_up else -1)
    x, w = start[follow_hi], start[1] - start[0]
    # how far x and w have moved, in their directions, after each step
    dx = _weak_sums(rng, s * (end[follow_hi] - x), steps)
    dw = _weak_sums(rng, t * (end[1] - end[0] - w), steps)
    out = []
    for a, b in zip(dx, dw):
        xi, wi = x + s * a, w + t * b
        out.append((xi - wi, xi) if follow_hi else (xi, xi + wi))
    return out


def _rand_pair_ints(rng, M, nonnegative=False):
    # endpoints in [-M, M], or in [0, M] if nonnegative
    low = 0 if nonnegative else -M
    a = _randint(rng, low, M)
    b = _randint(rng, low, M)
    return (min(a, b), max(a, b))


def _knot_after(rng, cur, up, M):
    # random integer pair componentwise >= cur (if up) or <= cur, within [-M, M]
    clo, chi = cur
    if up:
        lo = _randint(rng, clo, M)
        hi = _randint(rng, max(lo, chi), M)
    else:
        hi = _randint(rng, -M, chi)
        lo = _randint(rng, -M, min(hi, clo))
    return (lo, hi)


def _degenerate_nums(names, L, rng, M):
    if "nondecreasing" in names:
        start = 0 if ("first_zero" in names or "nonnegative" in names) \
            else _randint(rng, -M // 2, 0)
        step = max(1, (2 * M) // max(1, 3 * L))
        nums = [start]
        for _ in range(L - 1):
            nums.append(min(nums[-1] + _randint(rng, 0, step), M))
    elif "nonnegative" in names:
        nums = [_randint(rng, 0, M) for _ in range(L)]
    else:
        # mix shapes: pure noise rarely stresses the bounds, ramps and
        # small-step walks do
        style = rng.randrange(3)
        if style == 0:
            nums = [_randint(rng, -M, M) for _ in range(L)]
        elif style == 1:
            step = max(1, M // max(1, L))
            s = rng.choice((1, -1))
            nums = [0]
            for _ in range(L - 1):
                nums.append(nums[-1] + s * _randint(rng, 0, step))
        else:
            nums = [_randint(rng, -4, 4)]
            for _ in range(L - 1):
                nums.append(nums[-1] + _randint(rng, -3, 3))
    for i in _plan_at(names, False, L)[1]:
        nums[i] = 0
    return nums


def _monotone_pairs(names, L, rng, M, force_up=None):
    anchor_start = "first_zero" in names
    anchor_end = ("last_zero" in names) or ("window_end_zero" in names)
    mu_up = "mu_decreasing" not in names
    # both width orders: the widths stay constant
    pinned = {"mu_decreasing", "mu_increasing"} <= names
    up = force_up if force_up is not None else (rng.random() < 0.5)
    if "nondecreasing" in names:
        up = True
    if L == 1:
        p = (0, 0) if (anchor_start or anchor_end) else _rand_pair_ints(rng, M)
        return [p]
    if anchor_start and anchor_end:
        # the width path must return to zero, so only the constant zero run fits
        return [(0, 0)] * L
    if anchor_start or anchor_end:
        # build away from the zero anchor; into an end anchor, build with
        # both senses flipped and reverse
        flip = not anchor_start
        up, mu_up = up != flip, mu_up != flip
        ew = _randint(rng, 0, M // 2) if mu_up and not pinned else 0
        x = _randint(rng, 0, M - ew)
        end = (x, x + ew) if up else (-x - ew, -x)
        run = [(0, 0)] + _ramp_ints(rng, (0, 0), end, L - 1, up, mu_up)
        return run[::-1] if flip else run
    # unanchored: free start, end picked to keep the ramp feasible within
    # [-M, M]; the end moves the endpoint the ramp follows (_ramp_ints)
    sw = _randint(rng, 0, M // 2)
    slo = _randint(rng, -M, M - sw)
    start = (slo, slo + sw)
    if pinned:
        ew = sw
    elif mu_up:
        # slo lies in [-M, M - sw], so either cap is at least sw
        ew = min(_randint(rng, sw, max(sw, M // 2)), M - slo if up else M + slo + sw)
    else:
        ew = _randint(rng, 0, sw)
    follow_hi = up != mu_up
    if up:
        x = _randint(rng, start[follow_hi], M if follow_hi else M - ew)
    else:
        x = _randint(rng, ew - M if follow_hi else -M, start[follow_hi])
    end = (x - ew, x) if follow_hi else (x, x + ew)
    return [start] + _ramp_ints(rng, start, end, L - 1, up, mu_up)


def _alternate_pairs(names, L, rng, M):
    anchor_start = "first_zero" in names
    anchor_end = ("last_zero" in names) or ("window_end_zero" in names)
    avoid = "no_other_zero" in names
    if L == 1:
        p = (0, 0) if (anchor_start or anchor_end) else _rand_pair_ints(rng, M)
        return [p]
    k = _randint(rng, 1, min(3, L - 1))
    parts = _pos_comp(rng, L - 1, k)
    cur = (0, 0) if anchor_start else _rand_pair_ints(rng, M)
    up = rng.random() < 0.5
    out = [cur]
    for j, steps in enumerate(parts):
        if j == len(parts) - 1 and anchor_end:
            nxt = (0, 0)
            if cur == (0, 0):
                pass
            elif cur[0] >= 0:
                up = False
            elif cur[1] <= 0:
                up = True
            else:
                raise _Retry  # straddles zero, cannot reach [0,0] in one order
        else:
            nxt = _knot_after(rng, cur, up, M)
            if avoid and nxt == (0, 0):
                amp = max(1, M // 4)
                nxt = (0, _randint(rng, 1, amp)) if up else (-_randint(rng, 1, amp), 0)
        mu_up = (nxt[1] - nxt[0]) >= (cur[1] - cur[0])
        out.extend(_ramp_ints(rng, cur, nxt, steps, up, mu_up))
        cur = nxt
        up = not up
    if avoid:
        lo_i = 1 if anchor_start else 0
        hi_i = L - 2 if anchor_end else L - 1
        for idx in range(lo_i, hi_i + 1):
            if out[idx] == (0, 0):
                raise _Retry
    return out


def _to_sequence(pairs, D, base=0):
    return IntervalSequence._from_ints(D, [a for a, _ in pairs], [b for _, b in pairs], base)


def _build_single(names, L, rng, M, base):
    D = _randint(rng, 1, _MAX_DEN)
    if "degenerate" in names:
        nums = _degenerate_nums(names, L, rng, M)
        return _to_sequence([(k, k) for k in nums], D, base)
    if names & {"monotone", "nondecreasing", "mu_increasing", "mu_decreasing"}:
        # a monotone run keeps the width order too
        return _to_sequence(_monotone_pairs(names, L, rng, M), D, base)
    if "alternate" in names:
        return _to_sequence(_alternate_pairs(names, L, rng, M), D, base)
    pairs = [_rand_pair_ints(rng, M, "nonnegative" in names) for _ in range(L)]
    for i in _plan_at(names, False, L)[1]:
        pairs[i] = (0, 0)
    return _to_sequence(pairs, D, base)


def _build_pair(names, L, rng, M, base):
    Du = _randint(rng, 1, _MAX_DEN)
    Dv = _randint(rng, 1, _MAX_DEN)
    if "synchronous" in names:
        sub = frozenset((names - _PAIR_NAMES) | {"monotone"})
        up = rng.random() < 0.5
        pu = _monotone_pairs(sub, L, rng, M, force_up=up)
        pv = _monotone_pairs(sub, L, rng, M, force_up=up)
        return (_to_sequence(pu, Du, base), _to_sequence(pv, Dv, base))
    if "second_zero" in names:
        # u_1 starts the tail; the tail keeps only the anchors the profile names
        tail_names = {"first_zero"} | (names & {"last_zero", "window_end_zero", "no_other_zero"})
        tail = _alternate_pairs(tail_names, L - 1, rng, M)
        if "first_zero" in names:
            head = (0, 0)
        else:
            a = _randint(rng, 1, max(1, M // 2))
            b = _randint(rng, a, M)
            head = (a, b) if rng.random() < 0.5 else (-b, -a)
        pu = [head] + tail
    else:
        pu = _alternate_pairs(names & {"first_zero", "last_zero", "window_end_zero"}, L, rng, M)
    pv = [_rand_pair_ints(rng, M) for _ in range(L)]
    allowed = _plan_at(names, True, L)[1]
    for i in allowed:
        pv[i] = (0, 0)
    for i in range(L):
        if i not in allowed and pu[i] == (0, 0) and pv[i] == (0, 0):
            pv[i] = (0, _randint(rng, 1, max(1, M // 4)))
    return (_to_sequence(pu, Du, base), _to_sequence(pv, Dv, base))


def _conforms(names, built):
    """Whether built satisfies every hypothesis of the profile names, by the
    engine's own tests (theorems._HYPOTHESES) with the window end at the
    last index."""
    u, v = built if isinstance(built, tuple) else (built, None)
    return _holds(names, u, v, u.base_index + len(u.lows) - 1)


def _generate_with_rng(names, length, rng, magnitude, base=0):
    pair = bool(names & _PAIR_NAMES)
    if {"first_zero", "last_zero", "monotone", "no_other_zero"} <= names and length >= 3:
        raise InfeasibleProfile(
            "monotone with zero anchors at both ends forces interior zeros"
        )
    if "second_zero" in names and length < 2:
        raise InfeasibleProfile("second_zero needs length >= 2")
    for _ in range(_ATTEMPTS):
        try:
            built = (_build_pair if pair else _build_single)(
                names, length, rng, magnitude, base)
        except _Retry:
            continue
        if _conforms(names, built):
            return built
    raise InfeasibleProfile(
        f"could not realize profile {sorted(names)} at length {length}"
    )


def generate(profile, length, seed, magnitude=100) -> SequenceInput:
    """Random input provably satisfying the named preconditions.

    profile is a set of registry precondition names; the presence of a
    pair-only name (synchronous, alternate_u, no_other_joint_zero,
    second_zero) switches the result to a (u, v) pair. Every returned
    input is re-verified against the profile before being handed back.
    """
    names = frozenset(profile)
    unknown = names - _KNOWN_NAMES
    if unknown:
        raise ValueError(f"unknown precondition names: {sorted(unknown)}")
    if not _is_int(length) or length < 1:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    if not _is_int(magnitude) or magnitude < 1:
        raise ValueError(f"magnitude must be a positive integer, got {magnitude!r}")
    rng = random.Random(seed if isinstance(seed, (int, str, bytes)) else str(seed))
    return _generate_with_rng(names, length, rng, magnitude)


# -- fuzzing ----------------------------------------------------------------


@record
class FuzzConfig:
    theorem: TheoremId
    trials: int
    seed: int
    length_range: tuple[int, int] = (2, 12)
    endpoint_magnitude: int = 100
    lambda_range: tuple[int, int] = (1, 4)
    relax: frozenset = frozenset()

    def __post_init__(self):
        spec = lookup(self.theorem)
        object.__setattr__(self, "theorem", spec.id)
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")
        lo, hi = self.length_range
        if not (_is_int(lo) and _is_int(hi) and 2 <= lo <= hi):
            raise ValueError("length_range must satisfy 2 <= min <= max")
        object.__setattr__(self, "length_range", (lo, hi))
        m = self.endpoint_magnitude
        if not _is_int(m) or m < 1:
            raise ValueError("endpoint_magnitude must be a positive integer")
        a, b = self.lambda_range
        if not (_is_int(a) and _is_int(b) and 1 <= a <= b):
            raise ValueError("lambda_range must satisfy 1 <= min <= max")
        object.__setattr__(self, "lambda_range", (a, b))
        # the largest trial: endpoints drawn within m on denominators <=
        # _MAX_DEN; a pair's, on their lcm (at most _MAX_DEN * (_MAX_DEN - 1)),
        # which is at most _MAX_DEN times either one's. The exponents apply
        # only where a trial draws them.
        pair = spec.arity == 2
        lam = 1 if pair or spec.id is TheoremId.T2_2 else b
        scale, D = (_MAX_DEN, _MAX_DEN * (_MAX_DEN - 1)) if pair else (1, _MAX_DEN)
        _size_guard(_endpoint_bits(m, scale), D, hi, lam, lam)
        relax = frozenset(self.relax)
        bad = relax - set(spec.preconditions)
        if bad:
            raise ValueError(
                f"relax names {sorted(bad)} are not preconditions of "
                f"{spec.id.value} (valid: {list(spec.preconditions)})"
            )
        object.__setattr__(self, "relax", relax)

    to_jsonable = record_to_jsonable


@record
class TrialRecord:
    trial: int
    input: SequenceInput
    lambda1: int | None
    lambda2: int | None
    window: tuple[int, int] | None
    relaxed: tuple[str, ...]
    verdict: Verdict

    to_jsonable = record_to_jsonable


@record
class FuzzReport:
    config: FuzzConfig
    trials_run: int
    violations: tuple[TrialRecord, ...]
    max_ratio: Fraction
    max_ratio_witness: SequenceInput | None
    max_ratio_trial: int | None

    to_jsonable = record_to_jsonable


@functools.lru_cache(maxsize=256)
def _mutation_sites(names, L):
    """name -> (kind, sites) for each hypothesis of the profile names but
    synchronous (which rewrites v): the positions k of u at which _mutate
    may break it on a length-L input, from its range lo..hi in
    theorems._plan. kind is "anchor" (the anchor's own index), "step" (a
    step test: u_k is rewritten from u_{k-1}, k in lo+1..hi), "zero" (the
    stray-zero tests: lo..hi off the anchors) or "element" (lo..hi)."""
    ranges, anchors = _plan_at(names, bool(names & _PAIR_NAMES), L)
    out = {}
    for name, _, _, lo, hi in ranges:
        step = _HYPOTHESES[name][2]
        if name in _ANCHOR_AT:
            kind, sites = "anchor", (lo,)
        elif step is None:
            kind, sites = "element", range(lo, hi + 1)
        elif step[0] == "zero":
            kind, sites = "zero", [k for k in range(lo, hi + 1) if k not in anchors]
        else:
            kind, sites = "step", range(lo + 1, hi + 1)
        # L3_1's negative point is kept off its anchor at 0; mu_increasing's
        # u_k copies u_{k-1}'s upper end, which keeps the width order out of
        # a zero anchor (T3_6)
        if name == "nonnegative":
            sites = [k for k in sites if k not in anchors]
        elif name == "mu_increasing":
            sites = [k for k in sites if k - 1 not in anchors]
        if name != "synchronous":
            out[name] = kind, tuple(sites)
    return out


def _relax_fits(names, relax, L):
    # whether each name of relax has a site at length L that no mutation
    # applied after it (in _mutate's sorted order) rewrites: not its own
    # position, nor the one before it for a step mutation. Anchor writes
    # may share a position.
    sites = _mutation_sites(names, L)
    order = sorted(relax - {"synchronous"})
    for ks in itertools.product(*(sites[n][1] for n in order)):
        kept = set()
        anchors = set()
        for name, k in zip(order, ks):
            kind = sites[name][0]
            if k in kept or (k in anchors and kind != "anchor"):
                break
            if kind == "anchor":
                anchors.add(k)
            else:
                kept.add(k)
                if kind == "step":
                    kept.add(k - 1)
        else:
            return True
    return False


def _relax_min_len(names, relax):
    """The shortest length at which _mutate can break every name of relax
    at once on an input of the profile names: each on a position of its
    own that no later mutation rewrites."""
    L = 2
    while not _relax_fits(names, relax, L):
        L += 1
    return L


def _mutate(names, u, v, name, rng, M):
    """Deliberately violate one named precondition in place.

    u and v are (D, lows, highs) with the integer endpoints in lists; v is
    None for a single sequence. A value c is written as c * D. Returns
    False when this input offers no way to apply the mutation (the caller
    regenerates and retries). Side damage to other preconditions is
    acceptable; the verdict records everything.
    """
    if name == "synchronous":
        _, lows, highs = v
        lows[:], highs[:] = [-c for c in highs], [-a for a in lows]
        return True
    D, lows, highs = u
    kind, sites = _mutation_sites(names, len(lows))[name]
    if name == "mu_increasing":
        sites = [k for k in sites if highs[k - 1] > lows[k - 1]]
    if not sites:
        return False
    if kind == "anchor":
        k = sites[0]
        a = rng.choice((1, -1)) * _randint(rng, 1, max(1, M // 4))
        w = 0 if "degenerate" in names else _randint(rng, 0, 2)
        lo, hi = (a, a + w) if a > 0 else (a - w, a)
        lows[k], highs[k] = lo * D, hi * D
        return True
    k = rng.choice(sites)
    if name == "degenerate":
        highs[k] = lows[k] + D
    elif name == "nonnegative":
        lows[k] = highs[k] = -_randint(rng, 1, max(1, M // 4)) * D
    elif name == "no_other_zero":
        lows[k] = highs[k] = 0
    elif name == "no_other_joint_zero":
        lows[k] = highs[k] = v[1][k] = v[2][k] = 0
    elif name == "nondecreasing":
        lows[k] = highs[k] = lows[k - 1] - _randint(rng, 1, 3) * D
    elif name in ("monotone", "alternate", "alternate_u"):
        lows[k], highs[k] = lows[k - 1] - D, highs[k - 1] + D
    elif name == "mu_increasing":
        lows[k] = highs[k] = highs[k - 1]
    else:  # mu_decreasing
        lows[k], highs[k] = lows[k - 1] - D, highs[k - 1]
    return True


def _relaxed(spec, names, built, relax, rng, L, M):
    """A mutation of built (else of a fresh input of spec's profile names)
    on which every name of relax fails its own test in the hypothesis
    table (theorems._hypotheses) at the window end, which in fuzz is the
    last index."""
    for _ in range(_ATTEMPTS):
        u, v = built if spec.arity == 2 else (built, None)
        base = u.base_index
        ends_u = (u.D, list(u.lows), list(u.highs))
        ends_v = None if v is None else (v.D, list(v.lows), list(v.highs))
        if all(_mutate(names, ends_u, ends_v, name, rng, M) for name in sorted(relax)):
            u = IntervalSequence._from_ints(*ends_u, base)
            v = None if v is None else IntervalSequence._from_ints(*ends_v, base)
            hyps, allowed = _hypotheses(names, u, v, base + L - 1)
            if not any(holds(u, v, lo, hi, allowed)
                       for name, holds, _, lo, hi in hyps if name in relax):
                return u if v is None else (u, v)
        built = _generate_with_rng(names, L, rng, M, base)
    raise RelaxNotRealized(
        f"could not violate {sorted(relax)} for {spec.id.value} "
        f"(length {L}); mutation table may not cover this combination"
    )


def _kernel_sides(spec, built, l1, l2, window):
    """The engine's integer sides of a trial (theorems._sides)."""
    u, v = built if spec.arity == 2 else (built, None)
    n, m = _resolve_window(spec, u.first_index, u.last_index, window)
    return _sides(u, v, None, spec, l1, l2, n, m)


def _beats(lcd, crhs, bn, bd):
    """Whether the ratio lcd / crhs raises the running maximum bn / bd of
    fuzz and ratio_scan, which starts at (-1, 0), below every ratio. The
    ratio is 0 when both sides are 0 and none when crhs is otherwise <= 0;
    a relaxed L3_1 trial can give a negative one."""
    return lcd * bd > bn * crhs if crhs > 0 else lcd == 0 == crhs and bn < 0


def _cross_check(spec, built, l1, l2, window, lhs, rhs, relaxed, where, analysis=None):
    """The verdict of check_single or check_pair on built, which must have
    the kernel's sides lhs and rhs, each a (numerator, denominator) pair of
    ints with a positive denominator, and be in hypotheses exactly when
    nothing is relaxed; RuntimeError, naming the check by where(), when it
    does not. The sides are compared by integer cross-multiplication.
    analysis, when given, is the engine's _Analysis of built. fuzz and
    ratio_scan run it on every check their reports show."""
    verdict = (check_single(built, l1, l2, spec.id, window=window, _analysis=analysis)
               if spec.arity == 1 else check_pair(*built, spec.id, window=window, _analysis=analysis))
    (ln, ld), (rn, rd), vl, vr = lhs, rhs, verdict.lhs, verdict.rhs
    if (verdict.in_hypotheses == relaxed or vl.numerator * ld != ln * vl.denominator
            or vr.numerator * rd != rn * vr.denominator):
        raise RuntimeError(
            f"kernel and engine disagree for {spec.id.value} at {where()}: kernel lhs"
            f" {Fraction(ln, ld)}, rhs {Fraction(rn, rd)}, {'out of' if relaxed else 'in'}"
            f" hypotheses; engine lhs {verdict.lhs}, rhs {verdict.rhs}, in_hypotheses"
            f" {verdict.in_hypotheses}"
        )
    return verdict


def _fuzz_window(spec, rng, base, L):
    # an optional window (never on a windowed statement) is omitted 30% of the time
    if not (spec.windowed or spec.window_optional) or (
            spec.window_optional and rng.random() < 0.3):
        return None
    e = base + L - 1
    return (_randint(rng, _window_start(spec, base), e), e)


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Run seeded random trials of one statement and report violations.

    With an empty relax set every generated input conforms to the
    hypotheses (the generator re-verifies it with the engine's own tests),
    so a violation is a bug. With relax names each input is mutated until
    every targeted precondition fails its test, and found violations are
    reported, never asserted: absence of a counterexample proves nothing.
    RelaxNotRealized is raised when a trial finds no input that breaks
    every relaxed name at once.

    Either way each trial's sides are the engine's integer sums, and its
    ratio is compared with the maximum by integer cross-multiplication;
    check_single/check_pair judge only what the report shows, every
    violation and every strict new maximum, and RuntimeError, naming the
    trial, is raised when they disagree.

    Trials are independent; the maximum-ratio witness breaks ties by
    the lowest trial index, so any execution order yields the same
    report.
    """
    spec = lookup(config.theorem)
    tid = spec.id
    names = frozenset(spec.preconditions)
    lmin, lmax = config.length_range
    M = config.endpoint_magnitude
    relax = config.relax
    if relax:
        need = _relax_min_len(names, relax)
        if lmax < need:
            raise ValueError(
                f"length_range too small to violate {', '.join(sorted(relax))}"
                f" (needs length >= {need})"
            )
        lmin = max(lmin, need)
    violations = []
    relaxed = tuple(sorted(relax))
    # the running maximum bn / bd (_beats), reached first at best_trial
    best = best_trial = best_input = None
    bn, bd = -1, 0
    for t in range(config.trials):
        rng = random.Random(f"{config.seed}:{tid.value}:{t}")
        L = _randint(rng, lmin, lmax)
        base = _randint(rng, -4, 4) if rng.random() < 0.25 else 0
        if spec.arity == 2:
            l1 = l2 = None
        elif tid is TheoremId.T2_2:
            l1 = l2 = 1
        else:
            l1 = _randint(rng, *config.lambda_range)
            l2 = _randint(rng, *config.lambda_range)
        built = _generate_with_rng(names, L, rng, M, base)
        window = _fuzz_window(spec, rng, base, L)
        if relax:
            built = _relaxed(spec, names, built, relax, rng, L, M)
        # the engine runs only on a violation or a new maximum, and must agree;
        # it runs its own size guard, since a relaxed mutation (_mutate's
        # monotone, nondecreasing) can step up to 3 * D past the magnitude
        # that FuzzConfig guarded
        lhs, rhs, scale, const = _kernel_sides(spec, built, l1, l2, window)
        cd, crhs = const.denominator, const.numerator * rhs
        lcd = lhs * cd
        better = _beats(lcd, crhs, bn, bd)
        if not (better or lcd > crhs):
            continue
        verdict = _cross_check(spec, built, l1, l2, window, (lhs, scale), (crhs, cd * scale),
                               bool(relax), lambda t=t: f"trial {t}")
        if not verdict.holds:
            violations.append(TrialRecord(
                trial=t, input=built, lambda1=l1, lambda2=l2, window=window,
                relaxed=relaxed, verdict=verdict,
            ))
        if better:
            best, best_trial, best_input = verdict.ratio, t, built
            bn, bd = best.numerator, best.denominator
    return FuzzReport(
        config=config,
        trials_run=config.trials,
        violations=tuple(violations),
        max_ratio=best if best is not None else Fraction(0),
        max_ratio_witness=best_input,
        max_ratio_trial=best_trial,
    )


# -- exhaustive small-grid scan ----------------------------------------------


@record
class ScanReport:
    """Outcome of ratio_scan.

    planned is the full grid times the windows per point, computed before
    any work; it is what the budget is compared with. checked is the
    (point, window) checks decided, and equals planned: every grid point is
    either admissible or cut off with a failing prefix, in every window.
    admissible counts the (point, window) checks in hypotheses, which are
    exactly the points the walk reaches, in every window; violations counts
    those whose lhs exceeds rhs. Both are exact, whether the walk visits the
    points or the DP over the admissibility automaton counts them without
    visiting them (see ratio_scan); the engine judges only what is reported:
    every violation and every point that raises the maximum, and must agree.
    The witness is the first point, in the lexicographic order of the free
    positions (u before v), whose first window reaching max_ratio does so.
    """

    theorem: TheoremId
    lambda1: int | None
    lambda2: int | None
    length: int
    bound: int
    planned: int
    checked: int
    admissible: int
    violations: int
    max_ratio: Fraction
    witness: SequenceInput | None
    witness_window: tuple[int, int] | None

    def __iter__(self):
        # unpacks as (max_ratio, witness)
        return iter((self.max_ratio, self.witness))

    to_jsonable = record_to_jsonable


def _scan_step(tests, prev, pt):
    """The order bits the step prev -> pt keeps under the step tests of
    _scan_layout, which the running bits AND in: 0 when the step fails them,
    3 when the tests read no order."""
    order, split, width = tests
    (plo, phi), (lo, hi) = prev, pt
    d = _step_bits(plo, lo) & _step_bits(phi, hi)
    if (split and not d) or _step_bits(phi - plo, hi - lo) & width != width:
        return 0
    return d if order else 3


# how many grids keep their layered graph (_scan_kept) between ratio_scan
# calls, the only scan state that outlives a call: a sweep over exponents
# reuses one graph
_SCAN_KEPT = 4
# the most entries a kept layered graph holds: its free positions, options
# lists, edges, terms and a single sequence's term classes. A graph that
# passes it leaves _scan_kept, so the scan that filled it keeps it alone
# and the next one starts a new graph. Of the scan_grids grids, T3_6 L3 B2
# has the largest graph, 621 entries (4 positions, 104 lists, 288 edges,
# 225 pair terms); T3_6 L3 B3 has 2,981 in 372 lists, T3_5 L8 B6 3,805
# (its 643 terms in 48 classes) and T3_6 L3 B5 35,055
_SCAN_CAP = 1024


def _scan_layout(spec, L):
    """(acc0, free, rule_at): the starting order bits of a scan on L
    elements (per sequence), the walk positions that are not anchors, and
    the rule that the move at each of them reads: (anchor, the test of the
    step into it, the test of the step into a following anchor, zero).

    Position q (u_0..u_{L-1}, then v_0..v_{L-1} for a pair) has the rule
    (anchor, step, zero): whether it is pinned to [0, 0]; the tests of the
    step into it, None when there are none, else (order, split, width):
    whether it ANDs its order bits into the running bits, whether it must
    keep some order, and the width order bits it must keep; whether a zero
    there (for a pair, a joint zero) fails. A grid anchored everywhere (a
    single sequence of length 2 anchored at both ends) is walked as its
    first position, whose one choice is [0, 0].

    Each test is a hypothesis's step form (theorems._HYPOTHESES) on its
    range from theorems._plan with the window end m = e. The other names
    hold on every grid point (degenerate, nonnegative) or are the anchors,
    which are pinned. No range depends on the window start, so a prefix
    failing a test fails every point below it in every window, and a point
    whose every step passes is in hypotheses in every window: the walk
    reaches exactly the admissible points. The rules are read afresh from
    the hypothesis table on every call.
    """
    ranges, anchors = _plan_at(spec.preconditions, spec.arity == 2, L)
    # (whether it reads u only, lo, hi, kind, bits) of each step form
    tests = [(name == "alternate_u", lo, hi, *form) for name, _, _, lo, hi in ranges
             if (form := _HYPOTHESES[name][2]) is not None]
    acc0 = 3
    rules = []
    for s in range(spec.arity):
        for i in range(L):
            order = split = zero = False
            width = 0
            for u_only, lo, hi, kind, bits in tests:
                if u_only and s:
                    continue
                if kind == "order" and s == i == 0:
                    acc0 &= bits
                if not lo <= i <= hi:
                    continue
                if kind == "zero":
                    zero = zero or (s == spec.arity - 1 and i not in anchors)
                elif i > lo:
                    order = order or kind == "order"
                    split = split or kind == "split"
                    width |= bits if kind == "width" else 0
            step = (order, split, width) if order or split or width else None
            rules.append((i in anchors, step, zero))
    free = tuple(q for q, rule in enumerate(rules) if not rule[0]) or (0,)
    rule_at = []
    for q in free:
        anchor, into, zero = rules[q]
        nxt = rules[q + 1] if (q + 1) % L else None
        rule_at.append((anchor, into, nxt[1] if nxt is not None and nxt[0] else None, zero))
    return acc0, free, tuple(rule_at)


def _scan_moves(rule_at, choices):
    """move(k, prev, acc, u_zero), the moves of the admissibility automaton
    at the k-th free position of a layout (_scan_layout) over the tuple
    choices. Chained from the layout's starting order bits over its free
    positions, they reach exactly the admissible points, in walk order.

    move lists the choices at free[k] that keep the prefix admissible, in
    the order of choices, each as (element, order bits after it): prev is
    the element before free[k], acc the running order bits and u_zero, for
    v, whether u is [0, 0] at that index (True for a single sequence). An
    anchor right after free[k] has no choice of its own, so the step into
    it is tested here; a step between two anchors always passes, and
    u_{L-1} to v_0 is no step.

    A move depends only on the position's rule (whether it is an anchor,
    its step test, the test of the step into a following anchor, its zero
    test), on what the rule reads of prev, acc and u_zero, and on choices,
    and it is keyed by exactly these: each key, and each step test, is
    computed once per call of _scan_moves, memoized in its own dicts, and
    shared by every position with the same rule.
    """
    steps, moves = {}, {}

    def admitted(anchor, into, out, no_zero, prev, acc):
        found = []
        for pt in ((0, 0),) if anchor else choices:
            if no_zero and pt == (0, 0):
                continue
            a = acc
            if into is not None:
                key = (into, prev, pt)
                bits = steps.get(key)
                a &= bits if bits is not None else steps.setdefault(key, _scan_step(*key))
            if a and out is not None:
                key = (out, pt, (0, 0))
                bits = steps.get(key)
                a &= bits if bits is not None else steps.setdefault(key, _scan_step(*key))
            if a:
                found.append((pt, a))
        return tuple(found)

    def move(k, prev, acc, u_zero):
        anchor, into, out, zero = rule_at[k]
        key = (anchor, into, out, zero and u_zero, prev if into else None, acc)
        found = moves.get(key)
        if found is None:
            found = moves[key] = admitted(*key)
        return found

    return move


# the layered graphs (_scan_graph) kept across ratio_scan calls, as their
# bind functions, least recently used first. A graph enters when its first
# scan starts and leaves when it passes _SCAN_CAP entries; after each scan
# the _SCAN_KEPT most recently used stay (ratio_scan). A graph is keyed
# by all it reads: the layout's rules and free positions (_scan_layout), L,
# the arity, the operator (which sets each term's index) and the choices
_scan_kept = {}


def _scan_graph(rule_at, L, free, single, nabla, choices):
    """The layered graph of a grid on the layout (_scan_layout) rule_at,
    free over the tuple choices, the one copy that the walk and the DP
    read, as bind: bind(l1, l2) gives a scan's (options, values).
    options(k, pairs, acc) lists the moves (_scan_moves) at free[k] after
    the prefix in pairs (the walk positions' elements, u then v) with
    running order bits acc, in walk order, each as (element, order bits
    after it, completed). completed holds (i, j) for each term that choosing
    the element completes: its index and the position of its integer terms
    (lhs, rhs) in values. Those run up to the next free position, so they
    also hold the terms of any anchors before free[0].

    A list depends only on k, acc and the elements before free[k] that its
    moves and terms read: the element before it, for v the element of u at
    its index, and those its terms read (fills below). It is keyed by
    exactly these, so a single sequence's key (k, element before free[k],
    acc) is a state of the DP's layer k, and its moves are the state's
    edges; options writes the elements it tries to pairs[free[k]].

    Terms on the same elements share one position j in the graph, so no
    list reads an exponent. A pair's terms read none either, and the graph
    holds their values. A single sequence's term reads its two elements only
    through the norm of its u_i and the norm of its step, the pair that
    _step_term gives at l1 = 1, l2 = 0; so the terms of one such class
    share a position, the graph holds one element pair of each class, and
    each scan computes the class values from those at its own l1 and l2.
    The graph is kept (_scan_kept) while it holds at most _SCAN_CAP
    entries, and a list enters it only once complete, as a tuple; past the
    cap it is the filling scan's own. The step tests and moves are not
    kept: each bind memoizes its own (_scan_moves), and a kept list is read
    without them, since it holds its moves.
    """
    slot = (rule_at, L, free, single, nabla, choices)
    bind = _scan_kept.pop(slot, None)
    if bind is not None:
        _scan_kept[slot] = bind   # the most recently used, last
        return bind
    # the readers: fills[k] holds (index, reader of the elements) of each
    # term that the choice at free[k] completes, and context[k] reads the
    # elements before free[k] that its options list reads. A term is the
    # step into u_q (nabla: term q, forward: term q - 1) on (u_{q-1}, u_q),
    # for a pair the pair term p on (u_{p-1}, u_p, v_{p-1}, v_p), so the
    # readers read nothing else of the statement: no rule, bound or exponent.
    # done[r]: the index of the term that position r completes and the
    # positions it reads, None when r completes none
    if single:
        done = [None] + [(q - 1 + nabla, (q - 1, q)) for q in range(1, L)]
    else:
        done = [None] * (L + 1) + [(p, (p - 1, p, L + p - 1, L + p)) for p in range(1, L)]
    # a position's terms run up to the next free position (anchors have no
    # choice), and the first one's from position 0; context[k] reads the
    # elements in any fixed order, since only context[k] builds the keys of
    # free[k]
    fills, context = [], []
    for start, q, stop in zip((0, *free[1:]), free, (*free[1:], len(done))):
        fill, reads = [], {q - 1, q - L}
        for d in done[start:stop]:
            if d:
                fill.append((d[0], itemgetter(*d[1])))
                reads.update(d[1])
        before = [r for r in reads if 0 <= r < q]
        fills.append(tuple(fill))
        context.append(itemgetter(*before) if before else lambda pairs: ())
    graph = {}
    # ids[at]: the position of the term on the elements at; keys[j]: one
    # element pair of a class of terms (a single sequence) or a term's values
    # (a pair); classes[c]: the position of a single sequence's class c, the
    # norms of u_i and of its step (_step_term at l1 = 1, l2 = 0)
    ids, keys, classes = {}, [], {}
    entries = len(free)
    # whether _scan_kept holds the graph; no list refers to bind, so a graph
    # that is not kept is freed with its last scan
    kept = entries <= _SCAN_CAP

    def bind(l1, l2):
        values = [_step_term(*a, *b, l1, l2, nabla) for a, b in keys] if single else keys
        # the scan's own step tests and moves, freed with it
        move = _scan_moves(rule_at, choices)

        def options(k, pairs, acc):
            nonlocal entries, kept
            key = (k, context[k](pairs), acc)
            opts = graph.get(key)
            if opts is not None:
                return opts
            q = free[k]
            opts, known = [], len(ids) + len(classes)
            for pt, a in move(k, pairs[q - 1], acc, single or pairs[q - L] == (0, 0)):
                pairs[q] = pt
                completed = []
                for i, read in fills[k]:
                    at = read(pairs)
                    j = ids.get(at)
                    if j is None:
                        # a value before its position, so that a term
                        # stopped on the way has none
                        if single:
                            c = _step_term(*at[0], *at[1], 1, 0, nabla)
                            j = classes.get(c)
                            if j is None:
                                values.append(_step_term(*at[0], *at[1], l1, l2, nabla))
                                keys.append(at)
                                j = classes[c] = len(keys) - 1
                        else:
                            keys.append(_pair_term(*at[0], *at[1], *at[2], *at[3]))
                            j = len(keys) - 1
                        ids[at] = j
                    completed.append((i, j))
                opts.append((pt, a, tuple(completed)))
            opts = graph[key] = tuple(opts)
            if kept:
                entries += 1 + len(opts) + len(ids) + len(classes) - known
                if entries > _SCAN_CAP:
                    kept = False
                    _scan_kept.pop(slot, None)
            return opts

        return options, values

    if kept:
        _scan_kept[slot] = bind
    return bind


class _ScanGrid:
    """A grid of ratio_scan, validated, and what its walk and its DP share:
    the statement and its exponents, planned, the starting order bits and
    free positions of its admissibility automaton (_scan_layout), one frame
    per window, the layered graph bound to the scan's exponents (options
    and the terms' values, _scan_graph) and the engine's check of a point
    (judge). Nothing is built before planned is known to be within budget:
    BudgetExceeded is raised first."""

    __slots__ = ("spec", "l1", "l2", "length", "bound", "planned", "choices",
                 "acc0", "free", "frames", "options", "values")

    def __init__(self, theorem, l1, l2, length, bound, budget):
        spec = lookup(theorem)
        if spec.arity == 1:
            _check_lambdas(spec, l1, l2)
        for label, val in (("length", length), ("bound", bound), ("budget", budget)):
            if isinstance(val, bool) or not isinstance(val, int):
                raise ValueError(f"{label} must be an integer")
        if length < 2:
            raise ValueError("length must be at least 2")
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if budget < 1:
            raise ValueError("budget must be positive")
        # the grid's endpoints are integers 0..bound on D = 1, whose bit count
        # is what the engine's guard reads of them (theorems._end_bits); so
        # this guard covers every point, and judge hands the engine these
        # exponents as admitted
        _size_guard(_endpoint_bits(bound, 1), 1, length,
                    *((l1, l2) if spec.arity == 1 else (1, 1)))
        L = length
        e = L - 1
        real_family = spec.sums.shape == "real"
        n_choices = bound + 1 if real_family else (bound + 1) * (bound + 2) // 2
        anchors = _plan_at(spec.preconditions, spec.arity == 2, L)[1]
        slots = (L - len(anchors)) * spec.arity
        first_start = _window_start(spec, 0)
        windowed = spec.windowed or spec.window_optional
        n_windows = e - first_start + 1 if windowed else 1
        # planned = n_windows * n_choices ** slots, multiplied no further than
        # past the budget
        planned = n_windows
        for _ in range(slots if n_choices > 1 else 0):
            if planned > budget:
                break
            planned *= n_choices
        if planned > budget:
            raise BudgetExceeded(
                f"scan needs {n_choices}^{slots} points in {n_windows} window(s) each,"
                f" over the budget of {budget} checks"
            )
        self.spec, self.l1, self.l2, self.length, self.bound = spec, l1, l2, L, bound
        self.planned = planned
        if real_family:
            self.choices = tuple((k, k) for k in range(bound + 1))
        else:
            self.choices = tuple((lo, hi) for lo in range(bound + 1) for hi in range(lo, bound + 1))
        self.acc0, self.free, rule_at = _scan_layout(spec, L)
        # each window's term ranges and constant, on b = 0 and m = e: its
        # sides are lhs_at[el] - lhs_at[sl] and (cn / cd) * (rhs_at[er] -
        # rhs_at[sr]), with lhs_at[i] the sum of the lhs terms of index < i
        self.frames = []
        for window in [(n, e) for n in range(first_start, e + 1)] if windowed else [None]:
            n, m = window if window is not None else (0, e)
            lhs_rng, rhs_rng, const = _frame(spec, 0, e, n, m, l1, l2)
            self.frames.append((lhs_rng.start, lhs_rng.stop, rhs_rng.start, rhs_rng.stop,
                                const.numerator, const.denominator, window))
        single = spec.arity == 1
        nabla = spec.operator is Operator.NABLA
        self.options, self.values = _scan_graph(rule_at, L, self.free, single, nabla,
                                                self.choices)(l1, l2)

    def judge(self, pairs, lhs, crhs, cd, window):
        """(input, verdict): the point whose walk positions hold pairs, and
        the engine's verdict on it in window, which must have the sides lhs
        and crhs / cd (_cross_check). The engine runs no size guard: its
        analysis admits the grid's exponents, which __init__ guarded for
        every point."""
        L = self.length
        u = _to_sequence(pairs[:L], 1)
        v = None if self.spec.arity == 1 else _to_sequence(pairs[L:], 1)
        built = u if v is None else (u, v)
        an = _Analysis(u, v)
        an.admitted.add((self.l1, self.l2) if v is None else (1, 1))
        return built, _cross_check(
            self.spec, built, self.l1, self.l2, window, (lhs, 1), (crhs, cd), False,
            lambda: f"{pairs[:L] if v is None else (pairs[:L], pairs[L:])}, window {window}", an)

    def report(self, points, violations, best, witness, window):
        """The ScanReport of points admissible points (in every window)."""
        single = self.spec.arity == 1
        return ScanReport(
            theorem=self.spec.id,
            lambda1=self.l1 if single else None,
            lambda2=self.l2 if single else None,
            length=self.length,
            bound=self.bound,
            planned=self.planned,
            checked=self.planned,
            admissible=points * len(self.frames),
            violations=violations,
            max_ratio=best if best is not None else Fraction(0),
            witness=witness,
            witness_window=window,
        )


def _scan_walk(grid):
    """ratio_scan's report on grid from the walk, which visits every
    admissible point depth first along the grid's layered graph (options)
    and counts violations exactly (see ratio_scan)."""
    L = grid.length
    acc0, free = grid.acc0, grid.free
    options, values, frames = grid.options, grid.values, grid.frames
    pairs = [(0, 0)] * (grid.spec.arity * L)
    lhs_at = [0] * (L + 1)
    rhs_at = [0] * (L + 1)
    points = violations = 0
    # the running maximum bn / bd (_beats)
    bn, bd = -1, 0
    best = best_input = best_window = None

    last, q_last = len(free) - 1, free[-1]
    stack = []
    acc = acc0
    while True:
        k = len(stack)
        opts = options(k, pairs, acc)
        if k < last:
            stack.append(iter(opts))
        else:
            # every window of each point that a choice at the last free
            # position completes; only a violation or a new maximum reaches
            # the engine, and only then is the choice written to pairs
            points += len(opts)
            for pt, _, completed in opts:
                for i, j in completed:
                    tl, tr = values[j]
                    lhs_at[i + 1] = lhs_at[i] + tl
                    rhs_at[i + 1] = rhs_at[i] + tr
                for sl, el, sr, er, cn, cd, window in frames:
                    lhs = lhs_at[el] - lhs_at[sl]
                    rhs = rhs_at[er] - rhs_at[sr]
                    lcd, crhs = lhs * cd, cn * rhs
                    better = _beats(lcd, crhs, bn, bd)
                    if better or lcd > crhs:
                        pairs[q_last] = pt
                        built, verdict = grid.judge(pairs, lhs, crhs, cd, window)
                        violations += not verdict.holds
                        if better:
                            best, best_input, best_window = verdict.ratio, built, window
                            bn, bd = best.numerator, best.denominator
        # take the next choice at the deepest position that has one left
        while stack:
            step = next(stack[-1], None)
            if step is not None:
                break
            stack.pop()
        if not stack:
            break
        pt, acc, completed = step
        pairs[free[len(stack) - 1]] = pt
        for i, j in completed:
            tl, tr = values[j]
            lhs_at[i + 1] = lhs_at[i] + tl
            rhs_at[i + 1] = rhs_at[i] + tr

    return grid.report(points, violations, best, best_input, best_window)


def _scan_dp(grid):
    """ratio_scan's report on grid, a single sequence without windows,
    decided on the grid's layered graph without visiting the admissible
    points; or None when the walk must decide it, because some point
    violates the inequality (rhs = 0 < lhs among them) and the walk counts
    violations.

    Layer k holds the states (element before free[k], running order bits)
    that the moves reach from the start, and a state's edges are its moves
    (options), each carrying the lhs and rhs terms in the frame that it
    completes. The statements the DP takes are anchored only at their ends,
    so their free positions are adjacent and the element before free[k + 1]
    is the one chosen at free[k]. Every options list the DP builds stays in
    the graph, so a walk that takes the grid over reads them again. One
    counting pass gives admissible and each state's count; a state with
    none (a dead state) stays in the lists, and the walk below skips the
    edges into it.
    The walk's running maxima, its records, are then found by one depth
    first walk over the edges in walk order. Before the first record no
    live edge is skipped, so the first point it reaches, the first
    admissible one, is the first record. After a record of ratio bn/bd a
    point's weight is bd*cd*lhs - bn*cn*rhs, and the next record is the
    first later point whose weight is above 0. The walk skips an edge when
    its prefix weight plus best[k + 1][t], the largest weight of a
    completion from the state t it reaches at that ratio, is at most 0, so
    every point it reaches is the next record (Dinkelbach's parametric
    step, Management Science 13(7), 1967). best is a backward max-plus pass
    over the live edges, grown one layer up from the bottom at a time as
    the walk moves up, and started afresh at each record. The engine then
    judges every record in order, as the walk judges each new maximum, and
    the last one is the witness.
    """
    acc0, free = grid.acc0, grid.free
    (ls, le, rs, re_, cn, cd, _), = grid.frames
    options, values, K, zero = grid.options, grid.values, len(free), (0, 0)
    # edges[k][s]: the moves from state s of layer k, in walk order, as
    # (element, lhs, rhs, index of the state it reaches in layer k + 1);
    # layer K holds one state, the end of every point
    edges = []
    states = [(zero, acc0)]
    # a state's options read only the element before free[k] of pairs (its
    # anchors stay [0, 0]), so they are the walk's at any prefix in it
    pairs = [zero] * grid.length
    for k, q in enumerate(free):
        last = k + 1 == K
        index, layer = {}, []
        for prev, acc in states:
            pairs[q - 1] = prev
            out = []
            for pt, a, completed in options(k, pairs, acc):
                lhs = rhs = 0
                for i, j in completed:
                    tl, tr = values[j]
                    if ls <= i < le:
                        lhs += tl
                    if rs <= i < re_:
                        rhs += tr
                out.append((pt, lhs, rhs, index.setdefault(None if last else (pt, a), len(index))))
            layer.append(out)
        edges.append(layer)
        states = list(index)

    # counts[k][s]: the number of admissible completions of state s of
    # layer k, from the end back; a state with none is dead
    counts = [[1]]
    for layer in reversed(edges):
        counts.insert(0, [sum(counts[0][edge[3]] for edge in out) for out in layer])
    if not counts[0][0]:
        return grid.report(0, 0, None, None, None)

    records = []
    # the last record's ratio as the weight a*lhs - b*rhs, and best[k][s]
    # at it for the layers k >= top; best is None before the first record
    a = b = best = None
    top = K
    # the prefix sums before each layer, and the iterators over the edges
    # of the walk's states, one per layer down to the deepest: a stack, not
    # recursion, since K can pass the interpreter's recursion limit (T3_5
    # at length 1,500 and bound 1 is decided here)
    lhs_at, rhs_at = [0] * K, [0] * K
    stack = [iter(edges[0][0])]
    while stack:
        k = len(stack) - 1
        if best is not None:
            while top > k + 1:
                top -= 1
                nxt, live = best[top + 1], counts[top + 1]
                best[top] = [max([a * el - b * er + nxt[et] for _, el, er, et in out if live[et]],
                                 default=0) for out in edges[top]]
        for pt, l, r, t in stack[-1]:
            lhs, rhs = lhs_at[k] + l, rhs_at[k] + r
            if not counts[k + 1][t] or best is not None and a * lhs - b * rhs + best[k + 1][t] <= 0:
                continue
            pairs[free[k]] = pt
            if k + 1 < K:
                lhs_at[k + 1], rhs_at[k + 1] = lhs, rhs
                stack.append(iter(edges[k + 1][t]))
                break
            lcd, crhs = lhs * cd, cn * rhs
            if not 0 <= lcd <= crhs:
                return None
            records.append((pairs[:], lhs, crhs))
            ratio = Fraction(lcd, crhs) if crhs else Fraction(0)
            a, b = ratio.denominator * cd, ratio.numerator * cn
            best, top = [None] * K + [[0]], K
        else:
            stack.pop()

    for pairs, lhs, crhs in records:
        u, verdict = grid.judge(pairs, lhs, crhs, cd, None)
    return grid.report(counts[0][0], 0, verdict.ratio, u, None)


# what one edge of the DP's size bound costs, in walk visits: the DP passes
# over its edges to count and once per record, the walk visits each
# admissible point once, and planned bounds those. Timed both ways on kept
# graphs (best of 21), on the 144 grids of the 8 statements with lengths
# 3-8, bounds 1-5 and 50 <= planned <= 200,000 (exponents (2, 2), T2_2
# (1, 1)), 1.5 came within 4.3% (geometric mean) of always taking the
# faster path, as close as 2 and closer than 0.5, 1, 3, 4 or 6 (7.7%,
# 6.1%, 5.5%, 5.7%, 10.1%); 34 of the 104 grids it gives the DP ran faster
# walked, T4_1 L7 B1 and L8 B1 the most (the DP took 1.6 times as long)
_DP_PASS_FACTOR = 1.5


def _dp_decides(grid):
    """Whether ratio_scan takes _scan_dp for grid: a single sequence without
    windows whose planned points outnumber _DP_PASS_FACTOR times a bound on the
    DP's edges, L * choices**2 * the order states its tests can reach
    (three when they keep both orders, else one). All of it is known before
    any table is built."""
    spec = grid.spec
    if spec.arity == 2 or spec.windowed or spec.window_optional:
        return False
    orders = {form[1] for name in spec.preconditions
              if (form := _HYPOTHESES[name][2]) is not None and form[0] == "order"}
    states = 3 if orders == {3} else 1
    return grid.planned > _DP_PASS_FACTOR * grid.length * len(grid.choices) ** 2 * states


def ratio_scan(theorem, l1=1, l2=1, *, length, bound, budget=200_000) -> ScanReport:
    """Exhaust all grid sequences and report the worst lhs/rhs ratio.

    Covers every sequence of the given element count whose endpoints are
    integers 0 <= lo <= hi <= bound (scalars for the real-sequence
    statements), with the profile's zero anchors pinned to [0, 0]. Both
    sides are invariant under joint negation, which maps the grid onto
    its non-positive mirror only: sign-changing inputs, where the gH
    difference takes its other cases, are not covered, and can exceed the
    grid's maximum (T4_1 at length 5 reaches 12/35 with endpoints in
    [-2, 2], against 4/15 at bound 2). Windowed statements run every valid
    window start with the end at the last index. Only in-hypotheses
    verdicts compete for the ratio. The report unpacks as
    (max_ratio, witness).

    planned, the grid size times the windows per point, is counted
    arithmetically before anything is built, and BudgetExceeded is raised
    before any work when it exceeds budget. The grid's points are ordered
    lexicographically over the positions u_0..u_{L-1} (then v_0..v_{L-1}),
    each taking its choices in increasing (lo, hi) order: the walk order.
    The admissible points are those the moves of the scan's admissibility
    automaton (_scan_moves) reach, so a prefix that fails a hypothesis
    (see _scan_layout) is never extended, and its points are decided with it
    in every window. The tests are exact, so every point reached is
    admissible in every window. The moves at each free position, each with
    the positions of the terms it completes, are the grid's one layered
    graph (_scan_graph), read by both paths below, which take each term's
    integers from the scan's values (_ScanGrid.values).

    Only the grid's layered graph outlives the scan. It reads no exponent,
    and it is kept with its readers and its terms' elements (for a pair,
    their values) per (rules, length, free positions, arity, operator,
    choices) (_scan_kept), for the _SCAN_KEPT = 4 most recently used grids
    whose graphs stay within _SCAN_CAP entries; a graph that passes the cap
    leaves _scan_kept and evicts none of them. So a sweep over exponents
    builds a kept grid's graph once. The step tests and moves (_scan_moves),
    the single-sequence term values (which read l1 and l2), the frames and
    the paths' own state are built anew for each scan, and a scan on a kept
    graph tests no step, since the graph lists every move it read. The
    graph holds one element pair for each class of a single sequence's
    terms with the same norms (of u_i and of its step), so a scan computes
    one value per class (T3_1 at length 4 and bound 3 has 60 terms in 16
    classes). What a scan leaves behind is bounded by the cap: from empty
    caches, tracemalloc counts 160 bytes retained after one scan of T3_1 at
    length 3 and bound 27 (peak 37.4 MB) and after one of T3_6 at length 3
    and bound 5 (peak 6.7 MB), neither of whose graphs is kept.

    A grid is decided on one of two paths, with the same report:
    - The walk (_scan_walk) visits the admissible points depth first in
      walk order, along the graph. It carries the exact integer prefix
      sums of the lhs and rhs terms (see theorems._Sums): each position
      adds the terms it completes, a pair's while v is walked. At a point,
      each window's sides are differences of these sums, and the ratio is
      compared with the running maximum by integer cross-multiplication.
    - The DP (_scan_dp) counts the admissible points on the same graph,
      whose options are its layers' edges, without visiting them, and
      finds each point at which the walk's running maximum rises with one
      depth-first walk over its layers, which skips every edge that a
      max-plus bound at the last such point's ratio shows cannot lead
      above it; a state that completes no point only costs a wasted
      descent, since its bound over-estimates it. It takes non-windowed
      single-sequence statements, when planned exceeds _DP_PASS_FACTOR
      times the DP's size bound (_dp_decides), and hands the grid to the
      walk when some point violates the inequality, so violations stay
      exact; the walk reads every options list the DP has built again.
    The engine judges only what the report shows: each violation and each
    point that raises the maximum is checked by check_single or
    check_pair (_ScanGrid.judge, on both paths), and RuntimeError is
    raised, naming the point, when the engine's verdict differs in lhs, rhs
    (compared with the scan's integer sides by cross-multiplication) or
    in_hypotheses. The witness is the first point in walk order, with its
    first window, that reaches the maximum.

    Exponent parameters are ignored by the pair statements. A grid whose
    results could be too long to print raises OutputTooLarge before
    anything is built. The size guard runs once per grid, on bound's bit
    length plus one (what the engine's guard reads of an endpoint bound on
    D = 1), so it covers every point, and the engine's checks of the
    records run no guard of their own.
    """
    try:
        grid = _ScanGrid(theorem, l1, l2, length, bound, budget)
        if _dp_decides(grid):
            report = _scan_dp(grid)
            if report is not None:
                return report
        return _scan_walk(grid)
    finally:
        # the _SCAN_KEPT most recently used graphs stay; one that passed the
        # cap has left _scan_kept already, so it evicts none of them
        while len(_scan_kept) > _SCAN_KEPT:
            del _scan_kept[next(iter(_scan_kept))]


# -- scalar proof-step checks -------------------------------------------------


def young_check(a, b, l1, l2) -> bool:
    """Exact weighted arithmetic-geometric bound on two non-negative rationals."""
    a = as_rational(a)
    b = as_rational(b)
    if a < 0 or b < 0:
        raise ValueError("young_check needs non-negative inputs")
    _check_exponent("l1", l1)
    _check_exponent("l2", l2)
    s = l1 + l2
    return a ** l1 * b ** l2 <= Fraction(l1, s) * a ** s + Fraction(l2, s) * b ** s


def holder_mean_check(values, p) -> bool:
    """Power-mean bound: (mean of values)^p <= mean of p-th powers.

    Stated for integer p >= 2 so both sides stay rational.
    """
    if isinstance(p, bool) or not isinstance(p, int) or p < 2:
        raise ExponentOutOfRange(f"p must be an integer >= 2, got {p!r}")
    vals = [as_rational(x) for x in values]
    if not vals:
        raise ValueError("holder_mean_check needs at least one value")
    if any(x < 0 for x in vals):
        raise ValueError("holder_mean_check needs non-negative values")
    n = len(vals)
    mean = sum(vals, Fraction(0)) / n
    return mean ** p <= sum((x ** p for x in vals), Fraction(0)) / n


def product_rule_check(u: IntervalSequence, v: IntervalSequence) -> dict:
    """Exact per-index test of u_{i-1}*(nabla v_i) + v_i*(nabla u_i) == nabla(u_i v_i).

    The identity is claimed only for synchronous pairs that are
    mu-increasing from a joint zero start, or mu-decreasing into a
    joint zero end; anything else raises PreconditionViolated. Returns
    {index: bool} over the difference indices.
    """
    _check_aligned(u, v)
    b, e = u.first_index, u.last_index
    if not (_holds(("first_zero", "synchronous", "mu_increasing"), u, v, e)
            or _holds(("last_zero", "synchronous", "mu_decreasing"), u, v, e)):
        raise PreconditionViolated(
            "identity requires a synchronous pair, either mu-increasing from a "
            "zero start or mu-decreasing into a zero end"
        )
    nu, nv = u.nabla(), v.nabla()
    w = IntervalSequence(tuple(u.at(i) * v.at(i) for i in u.indices), b)
    nw = w.nabla()
    out = {}
    for i in range(b + 1, e + 1):
        lhs = u.at(i - 1) * nv.at(i) + v.at(i) * nu.at(i)
        out[i] = lhs == nw.at(i)
    return out


# -- worked-example reproduction ----------------------------------------------


@record
class ExampleRow:
    label: str
    engine_lhs: Fraction
    engine_rhs: Fraction
    reference_lhs: Fraction | None
    reference_rhs: Fraction | None
    match: bool
    note: str = ""

    to_jsonable = record_to_jsonable


@record
class ExampleReport:
    example: str
    theorem: TheoremId
    description: str
    rows: tuple[ExampleRow, ...]
    match: bool
    note: str = ""

    to_jsonable = record_to_jsonable


def _row(label, v, ref_lhs, ref_rhs, note=""):
    """An example's row: it matches when the verdict v holds with the reference sides."""
    return ExampleRow(label=label, engine_lhs=v.lhs, engine_rhs=v.rhs,
                      reference_lhs=ref_lhs, reference_rhs=ref_rhs,
                      match=v.lhs == ref_lhs and v.rhs == ref_rhs and v.holds, note=note)


def _report(example, theorem, description, rows, note=""):
    """An example's report: it matches when every row does."""
    return ExampleReport(example=example, theorem=theorem, description=description,
                         rows=tuple(rows), match=all(r.match for r in rows), note=note)


def _example_31() -> ExampleReport:
    rows = []
    for n in (3, 5, 8):
        for a, c in ((1, 1), (2, 3)):
            seq = IntervalSequence(
                tuple(Interval(i, 2 * i) for i in range(n + 1))
            )
            v = check_single(seq, a, c, TheoremId.T3_1)
            ref_lhs = Fraction(2 ** (a + c)) * sum(
                (Fraction(i) ** a for i in range(1, n + 1)), Fraction(0)
            )
            ref_rhs = Fraction(c * n * (n + 1) ** a * 2 ** (a + c), a + c)
            rows.append(_row(f"n={n}, l1={a}, l2={c}", v, ref_lhs, ref_rhs))
    return _report("3.1", TheoremId.T3_1,
                   "u_i = [i, 2i]: closed form 2^(l1+l2) * sum(i^l1) for the "
                   "left side, against the chain bound on the right", rows)


def _example_32() -> ExampleReport:
    rows = []
    for n in (3, 5, 8):
        items = [Interval(Fraction(1, i), Fraction(2, i)) for i in range(1, n)]
        items.append(Interval(0, 0))
        seq = IntervalSequence(tuple(items), base_index=1)
        v = check_single(seq, 1, 2, TheoremId.T3_2, window=(2, n))
        ref_lhs = sum(
            (Fraction(8, i ** 3 * (i - 1) ** 2) for i in range(2, n)), Fraction(0)
        )
        ref_sum = sum(
            (Fraction(8, (i * (i - 1)) ** 3) for i in range(2, n)), Fraction(0)
        ) + Fraction(8, (n - 1) ** 3)
        ref_rhs = Fraction(2 * (n - 1), 3) * ref_sum
        rows.append(_row(f"n={n}, l1=1, l2=2, window=(2,{n})", v, ref_lhs, ref_rhs))
    return _report("3.2", TheoremId.T3_2,
                   "u_i = [1/i, 2/i] with a zero tail element: term-by-term "
                   "closed form 8/(i^3 (i-1)^2) on the window [2, n]", rows)


_EX33_PAIRS = ((0, 0), (1, 2), (2, 4), (3, 6), (1, 2), (0, 0))


def _example_33(part: str) -> ExampleReport:
    seq = IntervalSequence(tuple(Interval(a, b) for a, b in _EX33_PAIRS))
    if part == "a":
        l1, l2 = 2, 3
        ref_lhs, ref_rhs = Fraction(704), Fraction(6048)
    else:
        l1, l2 = 1, 2
        ref_lhs, ref_rhs = Fraction(80), Fraction(184)
    v = check_single(seq, l1, l2, TheoremId.T3_5)
    # the published right side drops the final difference term; recompute
    # that truncated variant for the note
    g = seq.nabla()
    trunc = v.constant * sum(
        (g.at(i).norm ** (l1 + l2) for i in range(1, seq.last_index)), Fraction(0)
    )
    note = (
        f"left side {'matches' if v.lhs == ref_lhs else 'differs from'} the reference; "
        f"right side: engine {v.rhs} vs reference {ref_rhs} "
        f"(summing difference norms up to the second-to-last index instead "
        f"gives {trunc})"
    )
    row = _row(f"l1={l1}, l2={l2}", v, ref_lhs, ref_rhs, note)
    return _report(
        f"3.3{part}", TheoremId.T3_5,
        "the up-then-down sequence {[0,0],[1,2],[2,4],[3,6],[1,2],[0,0]}", (row,),
        "" if row.match else
        "engine sums difference norms over every difference in the range; "
        "the reference value corresponds to a shorter sum, a reading under "
        "which the bound fails on other inputs, so the engine keeps the "
        "full range",
    )


def reproduce_examples() -> list:
    """Re-run the bundled worked examples and compare against their
    reference values; mismatches are reported, never papered over."""
    return [_example_31(), _example_32(), _example_33("a"), _example_33("b")]

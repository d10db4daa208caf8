import functools
import gc
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opialcheck import (
    BudgetExceeded,
    ExponentOutOfRange,
    FuzzConfig,
    InfeasibleProfile,
    Interval,
    IntervalSequence,
    LengthMismatch,
    MuDirection,
    PreconditionViolated,
    ScanReport,
    TooShort,
    check_pair,
    check_single,
    direction_set,
    fuzz,
    generate,
    holder_mean_check,
    input_to_jsonable,
    lookup,
    mu_direction_set,
    product_rule_check,
    ratio_scan,
    registry,
    replace,
    reproduce_examples,
    young_check,
)
import opialcheck.oracle as oracle
import opialcheck.theorems as theorems

from conftest import mixed_sequences, seq


# -- generator ---------------------------------------------------------------


def _check_with_full_window(spec, built):
    if spec.arity == 2:
        u, v = built
        window = (u.base_index, u.last_index) if spec.windowed else None
        return check_pair(u, v, spec.id, window=window)
    window = None
    if spec.windowed:
        window = (built.base_index + 1, built.last_index)
    if spec.id.value == "T2_2":
        return check_single(built, 1, 1, spec.id, window=window)
    return check_single(built, 1, 2, spec.id, window=window)


@pytest.mark.parametrize("tid", [s.id for s in registry()], ids=lambda t: t.value)
def test_generate_conforms_for_every_theorem(tid):
    spec = lookup(tid)
    for length, sd in ((4, 0), (7, 1), (5, 2)):
        built = generate(spec.preconditions, length, sd)
        v = _check_with_full_window(spec, built)
        assert v.in_hypotheses, (tid, length, sd, [p for p in v.preconditions if not p.passed])
        assert v.holds


@pytest.mark.parametrize("tid", [s.id for s in registry()], ids=lambda t: t.value)
def test_conforming_generate_and_check_build_no_interval(tid, monkeypatch):
    # sequences are built from integers and checked on them; an Interval is
    # built only to show an element, and a conforming check shows none
    built_count = []
    init = Interval.__init__

    def counting_init(self, *args, **kwargs):
        built_count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Interval, "__init__", counting_init)
    spec = lookup(tid)
    for length, sd in ((4, 0), (7, 1), (9, 2)):
        built = generate(spec.preconditions, length, sd)
        v = _check_with_full_window(spec, built)
        assert v.in_hypotheses
    assert built_count == []
    Interval(0, 1)
    assert built_count == [1]  # the counter itself works


def test_generate_deterministic():
    spec = lookup("T3_5")
    a = generate(spec.preconditions, 6, 42)
    b = generate(spec.preconditions, 6, 42)
    assert a == b
    c = generate(spec.preconditions, 6, 43)
    assert a != c


def test_generate_respects_magnitude():
    spec = lookup("T3_1")
    built = generate(spec.preconditions, 8, 5, magnitude=9)
    for iv in built:
        assert abs(iv.lo) <= 9 and abs(iv.hi) <= 9
        assert iv.lo.denominator <= 16 and iv.hi.denominator <= 16


def test_generate_pair_profiles_return_pairs():
    spec = lookup("T3_6")
    built = generate(spec.preconditions, 4, 3)
    assert isinstance(built, tuple) and len(built) == 2
    assert all(isinstance(s, IntervalSequence) for s in built)


def test_generate_rejects_unknown_names():
    with pytest.raises(ValueError):
        generate(("first_zero", "sorted_by_vibes"), 4, 0)


@pytest.mark.parametrize("length,magnitude,message", [
    (0, 100, "length must be a positive integer, got 0"),
    (True, 100, "length must be a positive integer, got True"),
    (3, 0, "magnitude must be a positive integer, got 0"),
    (3, 1.5, "magnitude must be a positive integer, got 1.5"),
])
def test_generate_argument_checks(length, magnitude, message):
    with pytest.raises(ValueError) as info:
        generate(("first_zero",), length, 0, magnitude)
    assert str(info.value) == message


def test_generate_monotone_run_between_zero_ends_is_zero():
    # the width path must return to zero, so only the constant zero run fits
    built = generate(("first_zero", "last_zero", "monotone"), 3, 0)
    assert [iv.to_pair() for iv in built] == [(0, 0)] * 3


def test_generate_infeasible_combination():
    # zero at both ends plus interior monotone with no other zero cannot
    # coexist once there are interior elements
    profile = ("first_zero", "last_zero", "monotone", "no_other_zero")
    with pytest.raises(InfeasibleProfile):
        generate(profile, 4, 0)


@pytest.mark.parametrize("profile", [("first_zero", "second_zero"),
                                     ("no_other_zero", "second_zero"), ("nonnegative",),
                                     ("mu_increasing",), ("mu_decreasing",),
                                     ("last_zero", "mu_increasing"),
                                     ("mu_decreasing", "mu_increasing"),
                                     ("last_zero", "mu_decreasing", "mu_increasing")],
                         ids=",".join)
def test_generate_realizes_anchor_and_sign_profiles(profile):
    # feasible profiles that no statement uses: a pair with zeros at u_0 and
    # u_1, one whose u has no zero but u_1, a non-negative sequence, and
    # width orders without a monotone run, constant widths among them
    for length, magnitude, seed in itertools.product(range(2, 9), (1, 2, 100), range(4)):
        built = generate(profile, length, seed, magnitude)
        u, v = built if isinstance(built, tuple) else (built, None)
        assert (v is not None) == ("second_zero" in profile)
        assert theorems._holds(frozenset(profile), u, v, u.last_index)


# -- fuzz ---------------------------------------------------------------------


def test_fuzz_config_validation():
    cfg = FuzzConfig(theorem="T3_5", trials=10, seed=0)
    assert cfg.theorem.value == "T3_5"
    with pytest.raises(ValueError):
        FuzzConfig(theorem="T3_5", trials=0, seed=0)
    with pytest.raises(ValueError):
        FuzzConfig(theorem="T3_5", trials=10, seed=0, relax=frozenset({"synchronous"}))
    with pytest.raises(ValueError):
        FuzzConfig(theorem="T3_5", trials=10, seed=0, length_range=(5, 2))


@pytest.mark.parametrize("field,value,message", [
    ("lambda_range", (True, True), "lambda_range must satisfy 1 <= min <= max"),
    ("lambda_range", (1, True), "lambda_range must satisfy 1 <= min <= max"),
    ("length_range", (2, True), "length_range must satisfy 2 <= min <= max"),
    ("length_range", (True, 5), "length_range must satisfy 2 <= min <= max"),
])
def test_fuzz_config_refuses_bool_ranges(field, value, message):
    # a bool is an int to isinstance, and would be printed as true/false
    with pytest.raises(ValueError, match=message):
        FuzzConfig("T3_1", 3, 0, **{field: value})


def test_fuzz_refuses_lengths_too_short_for_its_relax_set():
    config = FuzzConfig("T3_1", 1, 0, length_range=(2, 3), relax={"monotone", "mu_increasing"})
    with pytest.raises(ValueError) as info:
        fuzz(config)
    assert str(info.value) == ("length_range too small to violate monotone, mu_increasing"
                               " (needs length >= 4)")


def test_fuzz_clean_run_no_violations():
    rep = fuzz(FuzzConfig(theorem="T2_2", trials=150, seed=7))
    assert rep.trials_run == 150
    assert rep.violations == ()
    assert rep.max_ratio == 1
    assert rep.max_ratio_witness is not None


def test_fuzz_deterministic():
    a = fuzz(FuzzConfig(theorem="T3_6", trials=60, seed=11))
    b = fuzz(FuzzConfig(theorem="T3_6", trials=60, seed=11))
    assert a.to_jsonable() == b.to_jsonable()


def _record_kernel(monkeypatch):
    """The kernel sums of every fuzz trial: (spec, built, l1, l2, window, sides)."""
    trials = []
    real = oracle._kernel_sides

    def recording(spec, built, l1, l2, window):
        sides = real(spec, built, l1, l2, window)
        trials.append((spec, built, l1, l2, window, sides))
        return sides

    monkeypatch.setattr(oracle, "_kernel_sides", recording)
    return trials


def _engine(spec, built, l1, l2, window, alt_boundary=False):
    if spec.arity == 1:
        return check_single(built, l1, l2, spec.id, window=window)
    return check_pair(*built, spec.id, window=window, alt_boundary=alt_boundary)


def _fuzz_against_engine(spec, config, calls, trials):
    """Run fuzz(config) and judge every trial its kernel summed with the
    engine: the kernel's integer sides give the engine's lhs, rhs, holds
    and ratio, each trial is in hypotheses exactly when nothing is relaxed
    (and then every relaxed name's row fails), the engine ran on exactly the
    violations and the strict new maxima, and the report is the one judging
    every trial with the engine gives. Returns the violating trials."""
    trials.clear()
    calls.clear()
    report = fuzz(config)
    seed = config.seed
    assert len(trials) == config.trials
    best = best_trial = best_input = None
    violations, improvements = [], []
    for t, (_, built, l1, l2, window, (lhs, rhs, scale, const)) in enumerate(trials):
        verdict = _engine(spec, built, l1, l2, window)
        rows = {p.name: p.passed for p in verdict.preconditions}
        assert verdict.in_hypotheses != bool(config.relax), (seed, t)
        assert not any(rows[name] for name in config.relax), (seed, t, rows)
        sides = (Fraction(lhs, scale), const * Fraction(rhs, scale))
        assert sides == (verdict.lhs, verdict.rhs), (seed, t)
        lcd, crhs = lhs * const.denominator, rhs * const.numerator
        assert (lcd <= crhs) == verdict.holds, (seed, t)
        ratio = (Fraction(lcd, crhs) if crhs > 0
                 else Fraction(0) if lcd == 0 == crhs else None)
        assert ratio == verdict.ratio, (seed, t)
        if not verdict.holds:
            violations.append(t)
        if ratio is not None and (best is None or ratio > best):
            best, best_trial, best_input = ratio, t, built
            improvements.append(t)
    assert [r.trial for r in report.violations] == violations
    assert (report.max_ratio, report.max_ratio_trial) == (best, best_trial)
    assert report.max_ratio_witness == best_input
    assert len(calls) == len(set(violations) | set(improvements)), seed
    return violations


@pytest.mark.parametrize("weakened", [False, True], ids=["sharp", "weakened"])
@pytest.mark.parametrize("spec", registry(), ids=lambda s: s.id.value)
def test_fuzz_kernel_matches_engine(spec, weakened, monkeypatch):
    # on every trial (lengths 2-12, exponents 1-4) of three seeds; a
    # constant cut to a quarter, in both, makes violations to find
    if weakened:
        quarter = replace(spec, constant_fn=lambda *a: spec.constant_fn(*a) / 4)
        monkeypatch.setitem(theorems._REGISTRY, spec.id, quarter)
    calls = _count_engine_calls(monkeypatch)
    trials = _record_kernel(monkeypatch)
    for seed in (0, 1, 2):
        violations = _fuzz_against_engine(spec, FuzzConfig(spec.id, trials=150, seed=seed),
                                          calls, trials)
        if weakened:
            assert violations, seed


# every precondition of every statement alone, and every fifth set of two or
# more of them
RELAX_SETS = (
    [(spec, (name,)) for spec in registry() for name in spec.preconditions]
    + [(spec, names) for spec in registry()
       for r in range(2, len(spec.preconditions) + 1)
       for names in itertools.combinations(spec.preconditions, r)][::5]
)


@pytest.mark.parametrize("spec,relax", RELAX_SETS,
                         ids=lambda x: ",".join(x) if isinstance(x, tuple) else x.id.value)
def test_relaxed_fuzz_kernel_matches_engine(spec, relax, monkeypatch):
    # a relaxed trial takes the same path: the kernel's sides off the
    # hypotheses (L3_1's signed sums only on degenerate input) are the
    # engine's, and the engine runs on what the report shows, no more
    calls = _count_engine_calls(monkeypatch)
    trials = _record_kernel(monkeypatch)
    for seed in (1, 2):
        _fuzz_against_engine(spec, FuzzConfig(spec.id, trials=60, seed=seed, relax=set(relax)),
                             calls, trials)


def _kernel_off_by_one(monkeypatch, side):
    real = oracle._sides

    def off_by_one(*args):
        sides = list(real(*args))
        sides[side] += 1
        return tuple(sides)

    monkeypatch.setattr(oracle, "_sides", off_by_one)


@pytest.mark.parametrize("tid", ["T2_2", "L3_1", "T3_1", "T4_2", "T3_6", "T3_8"])
@pytest.mark.parametrize("side", [0, 1])
def test_fuzz_raises_when_the_kernel_is_off_by_one(tid, side, monkeypatch):
    _kernel_off_by_one(monkeypatch, side)
    with pytest.raises(RuntimeError, match=rf"disagree for {tid} at trial \d"):
        fuzz(FuzzConfig(tid, trials=5, seed=0))


@pytest.mark.parametrize("tid,relax", [
    ("L3_1", "degenerate"), ("L3_1", "nondecreasing"), ("L3_1", "nonnegative"),
    ("T2_2", "last_zero"), ("T3_1", "monotone,mu_increasing"), ("T4_2", "window_end_zero"),
    ("T3_6", "synchronous"), ("T3_8", "no_other_joint_zero"),
    ("T3_10", "alternate_u,second_zero"),
])
@pytest.mark.parametrize("side", [0, 1])
def test_relaxed_fuzz_raises_when_the_kernel_is_off_by_one(tid, relax, side, monkeypatch):
    # L3_1 sums norms off degenerate input and signed terms on it
    _kernel_off_by_one(monkeypatch, side)
    with pytest.raises(RuntimeError, match=rf"disagree for {tid} at trial \d"):
        fuzz(FuzzConfig(tid, trials=5, seed=0, relax=set(relax.split(","))))


def _engine_off_in(monkeypatch, engine, field):
    # the engine's verdict with one field wrong: lhs or rhs one more, or
    # in_hypotheses flipped
    real = getattr(oracle, engine)

    def off(*args, **kwargs):
        verdict = real(*args, **kwargs)
        if field == "in_hypotheses":
            return replace(verdict, in_hypotheses=not verdict.in_hypotheses)
        return replace(verdict, **{field: getattr(verdict, field) + 1})

    monkeypatch.setattr(oracle, engine, off)


# each field of the verdict is cross-checked on its own; the rhs cases keep
# the ids they had before the other fields were added
@pytest.mark.parametrize("tid,engine,field", [
    pytest.param("T3_5", "check_single", "rhs", id="T3_5-check_single"),
    pytest.param("T3_9", "check_pair", "rhs", id="T3_9-check_pair"),
    pytest.param("T3_5", "check_single", "lhs", id="T3_5-check_single-lhs"),
    pytest.param("T3_9", "check_pair", "lhs", id="T3_9-check_pair-lhs"),
    pytest.param("T3_5", "check_single", "in_hypotheses", id="T3_5-check_single-in_hypotheses"),
    pytest.param("T3_9", "check_pair", "in_hypotheses", id="T3_9-check_pair-in_hypotheses"),
])
def test_fuzz_raises_when_the_engine_disagrees(tid, engine, field, monkeypatch):
    _engine_off_in(monkeypatch, engine, field)
    with pytest.raises(RuntimeError, match=f"disagree for {tid} at trial 0"):
        fuzz(FuzzConfig(tid, trials=5, seed=0))


def _windows_ending_at_e(spec, u):
    b, e = u.first_index, u.last_index
    if not (spec.windowed or spec.window_optional):
        return [None]
    starts = [(n, e) for n in range(b + 1 if spec.arity == 1 else b, e + 1)]
    return ([None] if spec.window_optional else []) + starts


@st.composite
def _profile_inputs(draw, spec):
    """Mixed sequences (a pair shares u's length and base), or a generator
    output for spec's profile with up to two of its hypotheses broken by
    _mutate."""
    if draw(st.booleans()):
        u = draw(mixed_sequences())
        if spec.arity == 1:
            return u
        v = draw(mixed_sequences(size=len(u)))
        return u, IntervalSequence._from_ints(v.D, v.lows, v.highs, u.base_index)
    names = frozenset(spec.preconditions)
    rng = random.Random(draw(st.integers(0, 2**32)))
    try:
        built = oracle._generate_with_rng(names, draw(st.integers(2, 9)), rng, 20,
                                          draw(st.integers(-4, 4)))
    except InfeasibleProfile:
        assume(False)
    u, v = built if spec.arity == 2 else (built, None)
    ends_u = (u.D, list(u.lows), list(u.highs))
    ends_v = None if v is None else (v.D, list(v.lows), list(v.highs))
    for name in draw(st.lists(st.sampled_from(spec.preconditions), max_size=2, unique=True)):
        oracle._mutate(names, ends_u, ends_v, name, rng, 20)
    u2 = IntervalSequence._from_ints(*ends_u, u.base_index)
    return u2 if v is None else (u2, IntervalSequence._from_ints(*ends_v, u.base_index))


@pytest.mark.parametrize("spec", registry(), ids=lambda s: s.id.value)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_conforms_is_the_engines_in_hypotheses(spec, data):
    # the generator's re-verification and the engine read one hypothesis
    # table: at every window ending at the last index they must agree, or
    # fuzz would draw a different RNG stream or reach the engine off its
    # hypotheses
    built = data.draw(_profile_inputs(spec))
    u = built[0] if spec.arity == 2 else built
    modes = [(spec.preconditions, False)]
    if spec.id.value == "T3_10":
        alt = tuple("first_zero" if p == "second_zero" else p for p in spec.preconditions)
        modes.append((alt, True))
    for names, alt_boundary in modes:
        conforms = oracle._conforms(frozenset(names), built)
        for window in _windows_ending_at_e(spec, u):
            verdict = _engine(spec, built, 1, 1, window, alt_boundary)
            assert conforms == verdict.in_hypotheses, (window, alt_boundary, verdict.preconditions)


# the two-name relax sets that a per-name minimum length let collide: at the
# shortest length either name alone needs, both mutations had only one
# position to share, and fuzz raised RelaxNotRealized
RELAX_SETS_NEEDING_LENGTH = [
    ("T3_1", "monotone", "mu_increasing"),
    ("T4_1", "monotone", "mu_increasing"),
    ("T3_2", "window_end_zero", "monotone"),
    ("T4_2", "window_end_zero", "monotone"),
    ("T3_2", "monotone", "mu_decreasing"),
    ("T4_2", "monotone", "mu_decreasing"),
    ("T3_5", "first_zero", "alternate"),
    ("T4_5", "first_zero", "alternate"),
    ("T3_5", "last_zero", "alternate"),
    ("T4_5", "last_zero", "alternate"),
    ("T3_5", "alternate", "no_other_zero"),
    ("T4_5", "alternate", "no_other_zero"),
    ("T3_8", "first_zero", "alternate_u"),
    ("T3_8", "alternate_u", "no_other_joint_zero"),
]


@pytest.mark.parametrize("tid,a,b", RELAX_SETS_NEEDING_LENGTH)
def test_fuzz_relax_set_runs_to_completion(tid, a, b):
    rep = fuzz(FuzzConfig(tid, trials=1000, seed=0, relax={a, b}))
    assert rep.trials_run == 1000
    for rec in rep.violations:
        assert rec.relaxed == tuple(sorted((a, b)))


def _forced_site(monkeypatch, name, k):
    # _mutate draws its site from _mutation_sites; keep only k for name
    real = oracle._mutation_sites

    def only_k(names, L):
        sites = dict(real(names, L))
        sites[name] = (sites[name][0], (k,))
        return sites

    monkeypatch.setattr(oracle, "_mutation_sites", only_k)


@pytest.mark.parametrize("spec", registry(), ids=lambda s: s.id.value)
def test_every_mutation_site_breaks_its_name(spec, monkeypatch):
    # a site outside the range the engine tests would leave the name's row
    # passing: write at every site of every name on a conforming input and
    # the engine must report that row as failed
    names = frozenset(spec.preconditions)
    tried = set()
    for L, seed in itertools.product(range(2, 9), range(3)):
        built = oracle._generate_with_rng(names, L, random.Random(f"{L}:{seed}"), 20)
        u, v = built if spec.arity == 2 else (built, None)
        for name in spec.preconditions:
            if name == "synchronous":
                continue
            sites = oracle._mutation_sites(names, L)[name][1]
            if name == "mu_increasing":
                sites = [k for k in sites if u.highs[k - 1] > u.lows[k - 1]]
            for k in sites:
                ends_u = (u.D, list(u.lows), list(u.highs))
                ends_v = None if v is None else (v.D, list(v.lows), list(v.highs))
                with monkeypatch.context() as m:
                    _forced_site(m, name, k)
                    assert oracle._mutate(names, ends_u, ends_v, name, random.Random(k), 20)
                cand = IntervalSequence._from_ints(*ends_u, u.base_index)
                if v is not None:
                    cand = (cand, IntervalSequence._from_ints(*ends_v, u.base_index))
                rows = {p.name: p.passed for p in _check_with_full_window(spec, cand).preconditions}
                assert rows[name] is False, (L, name, k, cand)
                tried.add((name, L, k))
    assert {n for n, _, _ in tried} == set(spec.preconditions) - {"synchronous"}


def test_relaxed_fuzz_builds_no_interval(monkeypatch):
    # the mutations rewrite the generated integer endpoints and the
    # candidate is built from them, on every relax set of every statement
    built = []
    init = Interval.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Interval, "__init__", counting_init)
    runs = 0
    for spec in registry():
        for r in range(1, len(spec.preconditions) + 1):
            for relax in itertools.combinations(spec.preconditions, r):
                assert fuzz(FuzzConfig(spec.id, trials=20, seed=3, relax=set(relax))).trials_run
                runs += 1
    assert built == [] and runs == 143
    Interval(0, 1)
    assert built == [1]  # the counter itself works


@pytest.mark.parametrize(
    "tid,name",
    [("T2_2", "last_zero"), ("T3_1", "first_zero"), ("T3_5", "last_zero")],
)
def test_fuzz_relax_finds_violations(tid, name):
    # dropping a boundary anchor makes each bound falsifiable; the seeded
    # search is expected to hit witnesses
    rep = fuzz(FuzzConfig(theorem=tid, trials=200, seed=0, relax=frozenset({name})))
    assert len(rep.violations) > 0
    rec = rep.violations[0]
    assert not rec.verdict.holds
    assert name in rec.relaxed
    assert rep.max_ratio > 1


def test_fuzz_report_jsonable_is_float_free():
    rep = fuzz(FuzzConfig(theorem="T3_2", trials=40, seed=3))
    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
    walk(rep.to_jsonable())


def test_input_to_jsonable_shapes():
    single = generate(lookup("T3_1").preconditions, 4, 0)
    doc = input_to_jsonable(single)
    assert set(doc) == {"u", "base_index"}
    pair = generate(lookup("T3_6").preconditions, 4, 0)
    doc2 = input_to_jsonable(pair)
    assert set(doc2) == {"u", "v", "base_index"}
    assert len(doc2["u"]) == len(doc2["v"]) == 4


# -- exhaustive scan -----------------------------------------------------------


def test_scan_t2_2_small_grid():
    rep = ratio_scan("T2_2", length=4, bound=3)
    assert rep.planned == 16
    assert rep.checked == 16
    assert rep.admissible == 16
    assert rep.violations == 0
    assert rep.max_ratio == Fraction(5, 6)


def test_scan_finds_tent_equality():
    rep = ratio_scan("T2_2", length=5, bound=2)
    assert rep.max_ratio == 1
    assert rep.witness is not None
    assert [x for x in rep.witness.reals()] == [0, 1, 2, 1, 0]


def test_scan_unpacks_to_ratio_and_witness():
    max_ratio, witness = ratio_scan("T3_1", length=3, bound=4)
    assert max_ratio == 1
    assert witness is not None


def test_scan_zero_bound_degenerates():
    rep = ratio_scan("T3_1", length=3, bound=0)
    assert rep.max_ratio == 0
    assert rep.witness is not None
    assert all(iv == Interval.zero() for iv in rep.witness)


def test_scan_pair_grid():
    rep = ratio_scan("T3_6", length=3, bound=2)
    assert rep.planned == 1296
    assert rep.admissible == 225
    assert rep.max_ratio == 1
    assert rep.violations == 0


def test_scan_windowed_single():
    rep = ratio_scan("T3_2", length=4, bound=2)
    assert rep.max_ratio == Fraction(1, 2)
    assert rep.witness_window is not None


def test_scan_budget_guard():
    with pytest.raises(BudgetExceeded, match="budget"):
        ratio_scan("T3_6", length=6, bound=8, budget=1000)


@pytest.mark.parametrize("argument,message", [
    ({"length": 3.0}, "length must be an integer"),
    ({"bound": True}, "bound must be an integer"),
    ({"budget": "10"}, "budget must be an integer"),
    ({"length": 1}, "length must be at least 2"),
    ({"bound": -1}, "bound must be non-negative"),
    ({"budget": 0}, "budget must be positive"),
])
def test_scan_argument_checks(argument, message):
    with pytest.raises(ValueError) as info:
        ratio_scan("T3_1", **{"length": 3, "bound": 1, **argument})
    assert str(info.value) == message


# The exhaustive enumeration ratio_scan ran before it walked admissible
# prefixes: every grid point, every window, judged by the engine. Kept here
# as the reference the walk must reproduce byte for byte. Also returns how
# many (point, window) checks raised the running maximum.
def _product_scan(theorem, l1, l2, length, bound):
    spec = lookup(theorem)
    return _product_scans(spec.id, length, bound, _scan_exponents(spec))[(l1, l2)]


# The reference reports of one grid for each exponent pair in exponents,
# from one pass that builds each grid point once. Cached, so the prefix-test
# loops below reuse what the differential test computed.
@functools.lru_cache(maxsize=None)
def _product_scans(theorem, length, bound, exponents):
    spec = lookup(theorem)
    e = length - 1
    if spec.id.value in ("T2_2", "L3_1", "L3_01", "L3_02"):
        choices = [(k, k) for k in range(bound + 1)]
    else:
        choices = [(lo, hi) for lo in range(bound + 1) for hi in range(lo, bound + 1)]
    names = spec.preconditions
    anchors = set()
    if "first_zero" in names:
        anchors.add(0)
    if "second_zero" in names:
        anchors.add(1)
    if "last_zero" in names or "window_end_zero" in names:
        anchors.add(e)
    free = [p for p in range(length) if p not in anchors]
    if not (spec.windowed or spec.window_optional):
        windows = [None]
    else:
        windows = [(n, e) for n in range(1 if spec.arity == 1 else 0, e + 1)]

    def build(assign):
        pairs = [(0, 0)] * length
        for p, pair in zip(free, assign):
            pairs[p] = pair
        return IntervalSequence.from_pairs(pairs)

    runs = {ex: SimpleNamespace(admissible=0, violations=0, improvements=0,
                                best=None, input=None, window=None)
            for ex in exponents}
    checked = 0
    for assign in itertools.product(choices, repeat=len(free) * spec.arity):
        if spec.arity == 1:
            built = build(assign)
        else:
            built = (build(assign[: len(free)]), build(assign[len(free):]))
        for window in windows:
            checked += 1
            for (l1, l2), run in runs.items():
                if spec.arity == 1:
                    verdict = check_single(built, l1, l2, spec.id, window=window)
                else:
                    verdict = check_pair(*built, spec.id, window=window)
                if not verdict.in_hypotheses:
                    continue
                run.admissible += 1
                run.violations += not verdict.holds
                r = verdict.ratio
                if r is not None and (run.best is None or r > run.best):
                    run.best, run.input, run.window = r, built, window
                    run.improvements += 1
    return {
        (l1, l2): (ScanReport(
            theorem=spec.id,
            lambda1=l1 if spec.arity == 1 else None,
            lambda2=l2 if spec.arity == 1 else None,
            length=length,
            bound=bound,
            planned=len(choices) ** (len(free) * spec.arity) * len(windows),
            checked=checked,
            admissible=run.admissible,
            violations=run.violations,
            max_ratio=run.best if run.best is not None else Fraction(0),
            witness=run.input,
            witness_window=run.window,
        ), run.improvements)
        for (l1, l2), run in runs.items()
    }


def _count_engine_calls(monkeypatch):
    calls = []
    for name in ("check_single", "check_pair"):
        real = getattr(oracle, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    return calls


def _scan_exponents(spec):
    return (((1, 1),) if spec.arity == 2 or spec.id.value == "T2_2"
            else ((1, 1), (2, 3), (3, 1)))


def _scan_grids(spec):
    # lengths 2-6, bounds 0-3 and the exponents the statement takes
    for length in range(2, 7):
        for bound in range(4):
            for l1, l2 in _scan_exponents(spec):
                yield length, bound, l1, l2


@pytest.mark.parametrize("spec", registry(), ids=lambda s: s.id.value)
def test_scan_matches_exhaustive_enumeration(spec, monkeypatch):
    # on every grid of _scan_grids with at most 20000 checks, the walk must
    # give the same report as the full enumeration, and run the engine only
    # on the checks that raise the maximum or violate
    calls = _count_engine_calls(monkeypatch)
    ran = 0
    for length, bound, l1, l2 in _scan_grids(spec):
        try:
            report = ratio_scan(spec.id, l1, l2, length=length, bound=bound, budget=20_000)
        except BudgetExceeded:
            continue
        engine_calls = len(calls)
        want, improvements = _product_scan(spec.id, l1, l2, length, bound)
        assert report.to_jsonable() == want.to_jsonable(), (length, bound, l1, l2)
        assert engine_calls == improvements + want.violations, (length, bound, l1, l2)
        calls.clear()
        ran += 1
    assert ran >= 8


@pytest.mark.parametrize(
    "name", sorted(n for n, row in theorems._HYPOTHESES.items() if row[2] is not None))
def test_scan_prefix_tests_have_teeth(name, monkeypatch):
    # without one prefix test (the name's step form in the hypothesis table)
    # the walk reaches points outside the hypotheses and the kernel counts
    # them: the differential test above must see it on some grid of a
    # statement with that hypothesis (or the engine refuses a point the
    # kernel took as a new maximum)
    holds, detail, _ = theorems._HYPOTHESES[name]
    monkeypatch.setitem(theorems._HYPOTHESES, name, (holds, detail, None))
    for spec in registry():
        if name not in spec.preconditions:
            continue
        for length, bound, l1, l2 in _scan_grids(spec):
            try:
                report = ratio_scan(spec.id, l1, l2, length=length, bound=bound,
                                    budget=20_000)
            except BudgetExceeded:
                continue
            except RuntimeError:
                return
            want, _ = _product_scan(spec.id, l1, l2, length, bound)
            if report.to_jsonable() != want.to_jsonable():
                return
    pytest.fail(f"dropping the {name} prefix test changed no scan report")


# (tid, engine, length, bound) of grids whose records the walk judges, and
# of grids the DP decides
_WALKED = (("T3_1", "check_single", 3, 2), ("T3_6", "check_pair", 3, 2))
_DP_DECIDED = (("T2_2", "check_single", 7, 3), ("T3_5", "check_single", 5, 3))


# each grid checked on every field of the verdict; the walked grids' lhs
# cases keep the ids they had before the others were added
@pytest.mark.parametrize("tid,engine,length,bound,field", [
    *(pytest.param(*grid, "lhs", id=f"{grid[0]}-{grid[1]}") for grid in _WALKED),
    *(pytest.param(*grid, field, id=f"{grid[0]}-{grid[1]}-{field}")
      for grid in _WALKED for field in ("rhs", "in_hypotheses")),
    *(pytest.param(*grid, field, id=f"{grid[0]}-{grid[1]}-{field}")
      for grid in _DP_DECIDED for field in ("lhs", "rhs", "in_hypotheses")),
])
def test_scan_raises_when_the_engine_disagrees(tid, engine, length, bound, field, monkeypatch):
    grid = oracle._ScanGrid(tid, 1, 1, length, bound, 200_000)
    assert oracle._dp_decides(grid) == ((tid, engine, length, bound) in _DP_DECIDED)
    _engine_off_in(monkeypatch, engine, field)
    with pytest.raises(RuntimeError, match=f"disagree for {tid} at"):
        ratio_scan(tid, length=length, bound=bound)


@pytest.mark.parametrize("tid", ["T3_2", "T4_2"])
def test_one_point_windowed_scan_runs_the_engine_once(tid, monkeypatch):
    # bound 0 leaves one point in L - 1 windows; each window's sides are
    # differences of the carried prefix sums, so the scan is linear in L,
    # and only the first window (ratio 0, the first maximum) is re-judged
    calls = _count_engine_calls(monkeypatch)
    rep = ratio_scan(tid, length=5000, bound=0)
    assert rep.planned == rep.checked == rep.admissible == 4999
    assert rep.max_ratio == 0 and rep.witness_window == (1, 4999)
    assert len(calls) <= 1


@pytest.mark.parametrize("spec", registry(), ids=lambda s: s.id.value)
def test_scan_over_budget_runs_no_check(spec, monkeypatch):
    calls = _count_engine_calls(monkeypatch)
    with pytest.raises(BudgetExceeded, match="budget"):
        ratio_scan(spec.id, length=4, bound=2, budget=8)
    assert calls == []


@pytest.mark.parametrize("length,bound", [(2, 1000), (10**6, 1)])
def test_scan_budget_fires_before_building_the_grid(length, bound):
    # a grid far over the budget must be refused before its choices or
    # positions are listed, not after
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="budget"):
            ratio_scan("T3_1", length=length, bound=bound, budget=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _record_calls(monkeypatch, names):
    # name -> the argument tuple of each call of oracle.<name> from now on
    calls = {}
    for name in names:
        def recorded(*args, _real=getattr(oracle, name), _seen=calls.setdefault(name, [])):
            _seen.append(args)
            return _real(*args)

        monkeypatch.setattr(oracle, name, recorded)
    return calls


def _cold_scan_caches():
    # empty the layered graphs that ratio_scan keeps across calls, so that
    # the next scan computes every step test, move, term and options list it
    # reads
    oracle._scan_kept.clear()


def _assert_each_once(calls):
    for name, seen in calls.items():
        assert len(seen) == len(set(seen)), (name, len(seen), len(set(seen)))


# the four grids of the scan_grids benchmark, a windowed pair grid and a
# windowed single-sequence grid
@pytest.mark.parametrize("tid,length,bound", [
    ("T3_1", 4, 3), ("T3_5", 5, 3), ("T3_6", 3, 2), ("T2_2", 7, 3), ("T3_9", 3, 2),
    ("T4_2", 4, 2),
])
def test_scan_does_each_piece_of_work_once(tid, length, bound, monkeypatch):
    # within one scan, each step test and each term kernel runs at most once
    # per argument tuple: the automaton shares its moves between positions
    # and prefixes, and the grid's layered graph shares the terms
    _cold_scan_caches()
    calls = _record_calls(monkeypatch, ("_scan_step", "_step_term", "_pair_term"))
    assert ratio_scan(tid, length=length, bound=bound).admissible > 0
    kernel = "_pair_term" if lookup(tid).arity == 2 else "_step_term"
    assert calls[kernel] and (calls["_scan_step"] or tid == "T2_2")
    _assert_each_once(calls)


@pytest.mark.parametrize("spec", registry(), ids=lambda s: s.id.value)
def test_scan_warm_tables_give_the_cold_reports(spec, monkeypatch):
    # every grid of _scan_grids with at most 20000 checks, scanned after its
    # bound was scanned with the other statements and with this one at
    # other lengths and exponents, gives the report of the same scan from
    # empty tables and runs the engine as often
    calls = _count_engine_calls(monkeypatch)

    def scan(tid, length, bound, l1, l2, budget=20_000):
        calls.clear()
        report = ratio_scan(tid, l1, l2, length=length, bound=bound, budget=budget)
        return report.to_jsonable(), len(calls)

    cold = {}
    for grid in _scan_grids(spec):
        _cold_scan_caches()
        try:
            cold[grid] = scan(spec.id, *grid)
        except BudgetExceeded:
            pass
    ran = 0
    for bound in range(4):
        _cold_scan_caches()
        for other in registry():
            if other is spec:
                continue
            for length in (3, 4):
                try:
                    scan(other.id, length, bound, *_scan_exponents(other)[-1], budget=2_000)
                except BudgetExceeded:
                    pass
        for grid in _scan_grids(spec):
            if grid[1] == bound and grid in cold:
                assert scan(spec.id, *grid) == cold[grid], grid
                ran += 1
    assert ran == len(cold) >= 8


def _count_moves(monkeypatch):
    # the arguments of each call of a move from now on: a layered graph
    # calls its move once for each options list it builds
    calls = []

    def counted_moves(*args, _real=oracle._scan_moves):
        move = _real(*args)

        def counted(*key):
            calls.append(key)
            return move(*key)

        return counted

    monkeypatch.setattr(oracle, "_scan_moves", counted_moves)
    return calls


# the four grids of the scan_grids benchmark: each graph stays under the cap
@pytest.mark.parametrize("tid,length,bound", [("T3_1", 4, 3), ("T3_6", 3, 2), ("T3_5", 5, 3),
                                              ("T2_2", 7, 3)])
def test_a_second_scan_reuses_the_exponent_free_tables(tid, length, bound, monkeypatch):
    # after a scan of the same grid at (1, 1), the scan at (2, 3) (T2_2 at
    # its one pair, (1, 1)) builds no options list and runs no step test
    # again, and for a pair (which takes no exponents) computes no pair
    # term; a single sequence's terms read the exponents and are computed
    # again. The report is the one from empty tables
    args = {"length": length, "bound": bound}
    l1, l2 = (1, 1) if tid == "T2_2" else (2, 3)
    _cold_scan_caches()
    want = ratio_scan(tid, l1, l2, **args).to_jsonable()
    _cold_scan_caches()
    moves = _count_moves(monkeypatch)
    ratio_scan(tid, 1, 1, **args)
    assert moves
    moves.clear()
    calls = _record_calls(monkeypatch, ("_scan_step", "_step_term", "_pair_term"))
    assert ratio_scan(tid, l1, l2, **args).to_jsonable() == want
    assert moves == [] and calls["_scan_step"] == [] and calls["_pair_term"] == []
    assert bool(calls["_step_term"]) == (lookup(tid).arity == 1)


@pytest.mark.parametrize("tid,other,length,bound", [("T3_1", "T4_1", 4, 3), ("T3_2", "T4_2", 4, 2)])
def test_a_scan_graph_of_the_other_operator_is_not_reused(tid, other, length, bound, monkeypatch):
    # the two statements have the same hypotheses, so the same moves, but
    # the operator sets the index of each step's term: after a scan of tid,
    # a scan of other gives the report from empty tables, and runs the
    # engine as often
    calls = _count_engine_calls(monkeypatch)
    args = {"length": length, "bound": bound}
    _cold_scan_caches()
    want = ratio_scan(other, 2, 3, **args).to_jsonable(), len(calls)
    _cold_scan_caches()
    ratio_scan(tid, 2, 3, **args)
    calls.clear()
    assert (ratio_scan(other, 2, 3, **args).to_jsonable(), len(calls)) == want


def test_an_interrupted_scan_keeps_no_part_of_a_list(monkeypatch):
    # a scan stopped while it builds an options list (the first list with
    # more than one move stops after its first) leaves no part of that list
    # in the kept graph: the next scan of the grid, which reads the same
    # graph and moves, gives the report from empty tables
    class Stopped(Exception):
        pass

    def stop():
        raise Stopped

    args = {"length": 4, "bound": 3}
    _cold_scan_caches()
    want = ratio_scan("T3_1", 2, 3, **args).to_jsonable()
    _cold_scan_caches()
    stopped = []

    def stopping_moves(*args, _real=oracle._scan_moves):
        move = _real(*args)

        def stopping_once(*key):
            found = move(*key)
            if stopped or len(found) < 2:
                return found
            stopped.append(key)
            return itertools.chain(found[:1], iter(stop, None))

        return stopping_once

    monkeypatch.setattr(oracle, "_scan_moves", stopping_moves)
    with pytest.raises(Stopped):
        ratio_scan("T3_1", 2, 3, **args)
    assert stopped and len(oracle._scan_kept) == 1
    assert ratio_scan("T3_1", 2, 3, **args).to_jsonable() == want


def test_scan_caches_stay_bounded():
    # more distinct grids, by bound (choice list) and by length, than the
    # cache keeps: it holds at most _SCAN_KEPT graphs
    _cold_scan_caches()
    kept = oracle._SCAN_KEPT
    for n in range(kept + 2):
        ratio_scan("T3_1", length=3, bound=n)
        ratio_scan("T3_1", length=2 + n, bound=1)
        assert len(oracle._scan_kept) <= kept
    assert len(oracle._scan_kept) == kept


# grids whose graphs pass _SCAN_CAP entries: the two pair grids by their
# pair terms, T3_2 by its 4999 free positions and T3_1 L3 B27, at the
# default budget, by its 62,930 edges and 62,524 terms. Each id ends in
# the bytes the scan left behind on Python 3.11 before its row was here:
# the first three before the graph was kept, T3_1's (its step tests and
# moves) before the moves were memoized per scan
@pytest.mark.parametrize("tid,length,bound,budget", [
    pytest.param("T3_6", 3, 5, 10**9, id="T3_6-3-5-2686304"),
    pytest.param("T3_7", 3, 4, 10**9, id="T3_7-3-4-819360"),
    pytest.param("T3_2", 5000, 0, 10**9, id="T3_2-5000-0-2301880"),
    pytest.param("T3_1", 3, 27, 200_000, id="T3_1-3-27-19886696"),
])
def test_scan_caches_keep_at_most_the_cap(tid, length, bound, budget):
    # what one scan from empty caches leaves behind (tracemalloc) when its
    # graph passes the cap is under 64 bytes per entry the cap allows, a
    # third of what a kept graph holds per entry (T3_6 L3 B2 about 180): a
    # graph past _SCAN_CAP entries, with its key, terms, readers, step tests
    # and moves, is the scan's own. These grids leave 160 to 808 bytes on
    # Python 3.11
    ratio_scan(tid, length=3, bound=1)   # loads what a first scan loads
    _cold_scan_caches()
    gc.collect()
    tracemalloc.start()
    try:
        ratio_scan(tid, length=length, bound=bound, budget=budget)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 64 * oracle._SCAN_CAP


def test_a_graph_past_the_cap_by_its_edges_and_terms_is_not_kept(monkeypatch):
    # T3_6 L3 B3 builds 372 options lists, fewer than _SCAN_CAP, but its
    # graph has 2,981 entries (4 free positions, 372 lists, 1,380 edges and
    # 1,225 pair terms): it is not kept, so a second scan builds its lists
    # and calls its moves again, and gives the report from empty caches
    args = {"length": 3, "bound": 3}
    _cold_scan_caches()
    moves = _count_moves(monkeypatch)
    want = ratio_scan("T3_6", **args).to_jsonable()
    assert len(moves) == 372 < oracle._SCAN_CAP
    moves.clear()
    assert ratio_scan("T3_6", **args).to_jsonable() == want
    assert len(moves) == 372


# grids whose graphs pass _SCAN_CAP by one count each: T3_1 L4 B6 has 1,731
# entries (3 free positions, 111 lists, 1,176 edges, 392 terms in 49
# classes), 555 without its edges and 1,290 without its terms; T3_1 L4 B5
# has 1,046 (3, 83, 693 edges, 231 terms in 36 classes), 1,010 without its
# classes and 779 without its terms. Neither graph is kept, so a second scan
# builds its lists and calls its moves again
@pytest.mark.parametrize("length,bound", [
    pytest.param(4, 6, id="edges"), pytest.param(4, 5, id="terms"),
])
def test_a_scan_graph_past_the_cap_by_one_count_is_not_kept(length, bound, monkeypatch):
    args = {"length": length, "bound": bound}
    _cold_scan_caches()
    moves = _count_moves(monkeypatch)
    want = ratio_scan("T3_1", 2, 3, **args).to_jsonable()
    assert oracle._scan_kept == {}
    built = len(moves)
    moves.clear()
    assert ratio_scan("T3_1", 2, 3, **args).to_jsonable() == want
    assert len(moves) == built > 0 and oracle._scan_kept == {}


def test_a_scan_past_the_cap_evicts_no_kept_graph(monkeypatch):
    # T3_1 L3 B27's graph passes the cap, so it takes no place among the
    # kept graphs: after it, the four scan_grids grids, scanned just before,
    # are scanned again without a step test or a move
    grids = [("T3_1", 4, 3), ("T3_5", 5, 3), ("T3_6", 3, 2), ("T2_2", 7, 3)]
    _cold_scan_caches()
    for tid, length, bound in grids:
        ratio_scan(tid, length=length, bound=bound)
    ratio_scan("T3_1", length=3, bound=27)
    assert len(oracle._scan_kept) == len(grids)
    moves = _count_moves(monkeypatch)
    calls = _record_calls(monkeypatch, ("_scan_step",))
    for tid, length, bound in grids:
        ratio_scan(tid, length=length, bound=bound)
    assert moves == [] and calls["_scan_step"] == []


# a spread of grids for every statement: lengths 2-5, bounds up to 8 (7 and
# 8 on either side of a bit) and exponents in both orders; the pair
# statements take five of them within the test's budget
_GUARD_GRIDS = [(2, 0, 1, 1), (3, 1, 2, 3), (4, 3, 3, 1), (3, 7, 1, 2), (2, 8, 2, 1), (5, 2, 1, 1),
                (2, 5, 2, 2), (3, 2, 1, 3)]


@pytest.mark.parametrize("spec", registry(), ids=lambda s: s.id.value)
def test_scan_guards_each_grid_once_for_every_point(spec, monkeypatch):
    # a grid runs the size guard once, on a bit count no smaller than the
    # engine's guard would read on the grid's largest point, and the engine
    # checks of its records run none of their own
    grid_guards, engine_guards = [], []

    def grid_guard(*args, _real=oracle._size_guard):
        grid_guards.append(args)
        return _real(*args)

    def engine_guard(*args, _real=theorems._size_guard):
        engine_guards.append(args)
        return _real(*args)

    monkeypatch.setattr(oracle, "_size_guard", grid_guard)
    monkeypatch.setattr(theorems, "_size_guard", engine_guard)
    calls = _count_engine_calls(monkeypatch)
    ran = 0
    for length, bound, l1, l2 in _GUARD_GRIDS:
        if spec.id.value == "T2_2" or spec.arity == 2:
            l1 = l2 = 1
        grid_guards.clear()
        try:
            ratio_scan(spec.id, l1, l2, length=length, bound=bound, budget=20_000)
        except BudgetExceeded:
            continue
        ran += 1
        top = oracle._to_sequence([(bound, bound)] * length, 1)
        (e, *rest), = grid_guards
        assert e >= theorems._end_bits(top, 1), (length, bound)
        assert rest == [1, length, l1, l2]
    assert ran >= 5 and calls and engine_guards == []


def _grid_points(spec, length, choices):
    # every grid point with the anchors pinned, as the walk positions'
    # elements (u, then v), in the lexicographic order of the free ones
    names = spec.preconditions
    anchors = {q for name, q in (("first_zero", 0), ("second_zero", 1), ("last_zero", length - 1),
                                 ("window_end_zero", length - 1)) if name in names}
    free = [q for q in range(length * spec.arity) if q % length not in anchors]
    for assign in itertools.product(choices, repeat=len(free)):
        pairs = [(0, 0)] * (length * spec.arity)
        for q, pt in zip(free, assign):
            pairs[q] = pt
        yield tuple(pairs)


@pytest.mark.parametrize("spec", registry(), ids=lambda s: s.id.value)
def test_scan_automaton_reaches_exactly_the_points_in_hypotheses(spec):
    # chained from the layout's starting order bits over its free positions,
    # the automaton's moves reach, in walk order, exactly the grid points on
    # which the hypothesis table holds at the window end L - 1, in
    # lexicographic order (the contract a count or a sampler of the
    # automaton relies on); no sum is read
    for length in range(2, 5):
        for bound in range(3):
            if spec.sums.shape == "real":
                choices = [(k, k) for k in range(bound + 1)]
            else:
                choices = [(lo, hi) for lo in range(bound + 1) for hi in range(lo, bound + 1)]
            acc0, free, rule_at = oracle._scan_layout(spec, length)
            move = oracle._scan_moves(rule_at, tuple(choices))
            pairs = [(0, 0)] * (length * spec.arity)
            reached = []

            def walk(k, acc):
                if k == len(free):
                    reached.append(tuple(pairs))
                    return
                q = free[k]
                u_zero = spec.arity == 1 or pairs[q - length] == (0, 0)
                for pt, a in move(k, pairs[q - 1], acc, u_zero):
                    pairs[q] = pt
                    walk(k + 1, a)

            walk(0, acc0)
            want = []
            for point in _grid_points(spec, length, choices):
                u = oracle._to_sequence(point[:length], 1)
                v = oracle._to_sequence(point[length:], 1) if spec.arity == 2 else None
                if theorems._holds(spec.preconditions, u, v, length - 1):
                    want.append(point)
            assert reached == want, (length, bound)


# the statements whose grids the DP can decide: one sequence, no window
_DP_STATEMENTS = [s for s in registry()
                  if s.arity == 1 and not (s.windowed or s.window_optional)]


# grids whose walks raise the running maximum at least 9 times, each
# walkable in seconds: (length, bound, l1, l2, records)
_LONG_RECORD_CHAINS = {
    "L3_01": [(6, 7, 1, 3, 10)],   # 32,768 admissible points
    "T3_5": [(6, 5, 3, 1, 9)],     # 93,664
    "T2_2": [(9, 4, 1, 1, 9)],     # 78,125
}


def _dp_gives_the_walk(args, calls):
    # the DP gives the walk's report on the grid of args, its count pass
    # the walk's admissible, and it runs the engine on the same records;
    # the number of those
    walked = oracle._scan_walk(oracle._ScanGrid(*args))
    walk_calls = len(calls)
    calls.clear()
    decided = oracle._scan_dp(oracle._ScanGrid(*args))
    assert decided is not None, args
    assert decided.admissible == walked.admissible, args
    assert decided.to_jsonable() == walked.to_jsonable(), args
    assert len(calls) == walk_calls, args
    calls.clear()
    return walk_calls


@pytest.mark.parametrize("spec", _DP_STATEMENTS, ids=lambda s: s.id.value)
def test_scan_dp_matches_the_walk(spec, monkeypatch):
    # on every grid of _scan_grids with at most 20000 checks, whichever path
    # the cost rule picks, and on the long record chains, the DP gives the
    # walk's report and runs the engine as often (_dp_gives_the_walk)
    calls = _count_engine_calls(monkeypatch)
    ran = 0
    for length, bound, l1, l2 in _scan_grids(spec):
        try:
            _dp_gives_the_walk((spec.id, l1, l2, length, bound, 20_000), calls)
        except BudgetExceeded:
            continue
        ran += 1
    assert ran >= 20
    for length, bound, l1, l2, records in _LONG_RECORD_CHAINS.get(spec.id.value, ()):
        assert _dp_gives_the_walk((spec.id, l1, l2, length, bound, 10**6), calls) == records


def test_dp_statements_have_adjacent_free_positions():
    # the DP's state after free[k] holds the element chosen there, which is
    # the element before free[k + 1] only when the two are adjacent: every
    # statement it takes is anchored at its ends alone
    for spec in _DP_STATEMENTS:
        for length in range(2, 10):
            free = oracle._scan_layout(spec, length)[1]
            assert free == tuple(range(free[0], free[0] + len(free))), (spec.id, length)


def test_scan_dp_walks_past_dead_states(monkeypatch):
    # with mu_increasing added to T3_5's hypotheses the widths can never
    # shrink to the [0, 0] anchor at the end, so most states complete no
    # admissible point (44 of the 65 edges at length 5, bound 3 end in
    # one). The DP keeps them in its lists, and its bounded walk gives the
    # walk's report and runs the engine as often on every grid of lengths
    # 3-7 and bounds 1-4 with at most 20000 checks
    spec = lookup("T3_5")
    monkeypatch.setitem(theorems._REGISTRY, spec.id, replace(
        spec, preconditions=(*spec.preconditions, "mu_increasing")))
    calls = _count_engine_calls(monkeypatch)
    ran = 0
    for length in range(3, 8):
        for bound in range(1, 5):
            for l1, l2 in _scan_exponents(spec):
                try:
                    _dp_gives_the_walk((spec.id, l1, l2, length, bound, 20_000), calls)
                except BudgetExceeded:
                    continue
                ran += 1
    assert ran == 51
    # neither the walk nor the bound enters a dead state: at length 13,
    # bound 9 the DP takes about 0.04 s on a 2-core x86_64 VM, 2 s when the
    # bound reads the edges into dead states and over 25 s when the walk
    # descends into them too
    start = time.perf_counter()
    rep = oracle._scan_dp(oracle._ScanGrid(spec.id, 1, 1, 13, 9, 10**20))
    assert time.perf_counter() - start < 0.5
    assert rep.max_ratio == Fraction(6, 7) and rep.admissible == 31_381_059_609


@pytest.mark.parametrize("tid,length,bound,path,other", [
    ("T3_5", 5, 3, "_scan_dp", "_scan_walk"),    # planned 1000 > 1.5 * 5 * 10**2
    ("T3_1", 4, 3, "_scan_walk", "_scan_dp"),    # planned 1000 <= 1.5 * 4 * 10**2 * 3
])
def test_scan_cost_rule_picks_one_path(tid, length, bound, path, other, monkeypatch):
    # a grid on each side of the cost rule is decided on its side only
    grid = oracle._ScanGrid(tid, 2, 3, length, bound, 200_000)
    assert oracle._dp_decides(grid) == (path == "_scan_dp")
    want = getattr(oracle, path)(grid).to_jsonable()

    def refused(grid):
        raise AssertionError(f"{other} ran")

    monkeypatch.setattr(oracle, other, refused)
    assert ratio_scan(tid, 2, 3, length=length, bound=bound).to_jsonable() == want


def test_scan_dp_leaves_violating_grids_to_the_walk(monkeypatch):
    # with a quarter of T3_5's constant (for the kernel and the engine alike)
    # the grid has violations: the DP finds a record above 1 before it runs
    # the engine, and the walk counts them
    spec = lookup("T3_5")
    monkeypatch.setitem(theorems._REGISTRY, spec.id, replace(
        spec, constant_fn=lambda *args: spec.constant_fn(*args) / 4))
    calls = _count_engine_calls(monkeypatch)
    grid = oracle._ScanGrid(spec.id, 1, 1, 5, 3, 20_000)
    assert oracle._dp_decides(grid)
    assert oracle._scan_dp(grid) is None
    assert calls == []
    # the DP's attempt and the walk that takes over read one graph: no step
    # test and no term is computed twice in the whole scan
    _cold_scan_caches()
    work = _record_calls(monkeypatch, ("_step_term", "_scan_step"))
    report = ratio_scan(spec.id, length=5, bound=3)
    assert work["_step_term"] and work["_scan_step"]
    _assert_each_once(work)
    scan_calls = len(calls)
    calls.clear()
    walked = oracle._scan_walk(oracle._ScanGrid(spec.id, 1, 1, 5, 3, 20_000))
    assert report.violations > 0 and report.max_ratio > 1
    assert report.to_jsonable() == walked.to_jsonable()
    assert scan_calls == len(calls)


def test_a_grid_the_scan_dp_hands_to_the_walk_keeps_its_lists(monkeypatch):
    # the quarter-constant T3_5 grid above, scanned from empty tables and
    # again on its kept graph: the DP builds every options list and hands
    # the grid to the walk, which reads the same lists. Every list read is,
    # at the end, as it was when first read
    spec = lookup("T3_5")
    monkeypatch.setitem(theorems._REGISTRY, spec.id, replace(
        spec, constant_fn=lambda *args: spec.constant_fn(*args) / 4))
    first_read = {}

    def recorded(*args, _real=oracle._scan_graph):
        bind = _real(*args)

        def binding(l1, l2):
            options, values = bind(l1, l2)

            def reading(k, pairs, acc):
                opts = options(k, pairs, acc)
                first_read.setdefault(id(opts), (opts, list(opts)))
                return opts

            return reading, values

        return binding

    monkeypatch.setattr(oracle, "_scan_graph", recorded)
    _cold_scan_caches()
    want = ratio_scan(spec.id, length=5, bound=3).to_jsonable()
    assert want["violations"] > 0
    assert ratio_scan(spec.id, length=5, bound=3).to_jsonable() == want
    assert first_read
    assert all(list(opts) == seen for opts, seen in first_read.values())


def test_scan_dp_reaches_a_grid_the_walk_cannot():
    # 146,116,825 admissible points: the walk, which visits each, took about
    # 106 s on a 2-core x86_64 VM; the DP counts them and follows the
    # records without visiting them
    start = time.perf_counter()
    rep = ratio_scan("T3_5", 1, 1, length=8, bound=6, budget=10**9)
    assert time.perf_counter() - start < 10
    assert rep.max_ratio == Fraction(6, 7)
    assert rep.admissible == 146_116_825 and rep.violations == 0
    verdict = check_single(rep.witness, 1, 1, "T3_5")
    assert verdict.in_hypotheses and verdict.ratio == Fraction(6, 7)


def test_scan_dp_decides_a_grid_deeper_than_the_recursion_limit():
    # T2_2 at length 1,100 and bound 1 has 1,098 free positions, more than
    # the interpreter's default recursion limit of 1,000: the DP walks its
    # layers on a stack of its own
    grid = oracle._ScanGrid("T2_2", 1, 1, 1100, 1, 2**1100)
    assert oracle._dp_decides(grid) and len(grid.free) == 1098
    rep = ratio_scan("T2_2", length=1100, bound=1, budget=2**1100)
    assert rep.max_ratio == Fraction(1, 550) and rep.admissible == 2**1098


# -- inequality helpers -----------------------------------------------------------


def test_young_frozen_and_random():
    assert young_check(2, 1, 1, 1)
    assert young_check(Fraction(3, 7), Fraction(1, 2), 2, 3)
    rng = random.Random(99)
    for _ in range(300):
        a = Fraction(rng.randrange(0, 40), rng.randrange(1, 9))
        b = Fraction(rng.randrange(0, 40), rng.randrange(1, 9))
        assert young_check(a, b, rng.randrange(1, 5), rng.randrange(1, 5))


def test_young_validation():
    with pytest.raises(ValueError):
        young_check(-1, 1, 1, 1)
    with pytest.raises(ExponentOutOfRange):
        young_check(1, 1, 0, 1)
    with pytest.raises(ExponentOutOfRange):
        young_check(1, 1, 1, Fraction(1, 2))


def test_holder_mean_frozen_and_random():
    assert holder_mean_check([0, 2], 2)
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 6)
        vals = [Fraction(rng.randrange(0, 30), rng.randrange(1, 7)) for _ in range(n)]
        assert holder_mean_check(vals, rng.randrange(2, 6))


def test_holder_mean_validation():
    with pytest.raises(ExponentOutOfRange):
        holder_mean_check([1, 2], 1)
    with pytest.raises(ValueError):
        holder_mean_check([], 2)
    with pytest.raises(ValueError):
        holder_mean_check([1, -2], 3)


def test_product_rule_increasing_case():
    u = seq([(0, 0), (1, 2), (2, 4)])
    v = seq([(0, 0), (1, 3), (3, 7)])
    assert product_rule_check(u, v) == {1: True, 2: True}


def test_product_rule_decreasing_case():
    u = seq([(1, 2), (Fraction(1, 2), 1), (0, 0)])
    assert product_rule_check(u, u) == {1: True, 2: True}


def test_product_rule_guards():
    u = seq([(1, 2), (3, 4)])
    with pytest.raises(PreconditionViolated):
        product_rule_check(u, u)
    a = seq([(0, 0), (1, 2), (2, 4)])
    b = seq([(0, 0), (1, 2)])
    with pytest.raises(LengthMismatch, match="^lengths differ: 3 vs 2$"):
        product_rule_check(a, b)
    with pytest.raises(LengthMismatch, match="^base indices differ: 0 vs 1$"):
        product_rule_check(a, seq([(0, 0), (1, 2), (2, 4)], base=1))


def _hand_written_product_cases(u, v):
    # the reference for product_rule_check's case test, written out with the
    # order sets: a synchronous pair, mu-increasing from a joint zero start
    # or mu-decreasing into a joint zero end
    b, e = u.first_index, u.last_index
    shared = direction_set(u) & direction_set(v)
    mu_u, mu_v = mu_direction_set(u), mu_direction_set(v)
    case_up = (u.is_zero_at(b) and v.is_zero_at(b) and shared
               and MuDirection.MU_INCREASING in mu_u
               and MuDirection.MU_INCREASING in mu_v)
    case_down = (u.is_zero_at(e) and v.is_zero_at(e) and shared
                 and MuDirection.MU_DECREASING in mu_u
                 and MuDirection.MU_DECREASING in mu_v)
    return bool(case_up or case_down)


@st.composite
def _product_pairs(draw):
    # lengths 1-5, endpoints in [-2, 2] on halves, zero ends half the time
    n = draw(st.integers(1, 5))
    base = draw(st.integers(-2, 2))
    halves = st.integers(-4, 4).map(lambda k: Fraction(k, 2))

    def side():
        pairs = [sorted(draw(st.tuples(halves, halves))) for _ in range(n)]
        for i in draw(st.sampled_from(((), (), (), (0,), (n - 1,), (0, n - 1)))):
            pairs[i] = (0, 0)
        return seq(pairs, base)

    return side(), side()


@settings(max_examples=500, deadline=None)
@given(_product_pairs())
def test_product_rule_cases_match_hand_written_rule(pair):
    u, v = pair
    try:
        product_rule_check(u, v)
        admitted = True
    except PreconditionViolated:
        admitted = False
    except TooShort:
        # past the case test, a one-element pair has no differences
        assert len(u) == 1
        admitted = True
    assert admitted == _hand_written_product_cases(u, v)


# -- bundled worked examples ---------------------------------------------------


def test_reproduce_examples_structure():
    reports = reproduce_examples()
    assert [r.example for r in reports] == ["3.1", "3.2", "3.3a", "3.3b"]
    assert [r.match for r in reports] == [True, True, False, False]
    for r in reports:
        assert r.rows
        assert r.match == all(row.match for row in r.rows)


def test_reproduce_examples_mismatch_detail():
    reports = {r.example: r for r in reproduce_examples()}
    row = reports["3.3a"].rows[0]
    assert row.engine_lhs == 704
    assert row.engine_rhs == Fraction(31104, 5)
    assert row.reference_rhs == 6048
    assert row.reference_lhs == 704
    assert not row.match
    assert reports["3.3a"].note != ""

    row_b = reports["3.3b"].rows[0]
    assert row_b.engine_lhs == 80
    assert row_b.engine_rhs == 192
    assert row_b.reference_lhs == 80
    assert row_b.reference_rhs == 184
    assert not row_b.match


def test_reproduce_examples_agreements_hold():
    reports = {r.example: r for r in reproduce_examples()}
    for row in reports["3.1"].rows:
        assert row.match
        assert row.engine_lhs == row.reference_lhs
        assert row.engine_rhs == row.reference_rhs
    for row in reports["3.2"].rows:
        assert row.match

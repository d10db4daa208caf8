"""The package's frozen records keep their behaviour: repr text, equality and
hashing, defaults and __match_args__, their validation errors, frozenness,
and copy, deepcopy and pickle round trips, each on instances from real
calls."""

import copy
import hashlib
import inspect
import json
import pickle
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

import opialcheck
from opialcheck import (
    FuzzConfig,
    Interval,
    InvalidBounds,
    NonRational,
    TheoremId,
    check_pair,
    check_single,
    fuzz,
    lookup,
    ratio_scan,
    replace,
    reproduce_examples,
)
from opialcheck.sequences import record_to_jsonable

from conftest import seq


def _make():
    u = seq([(0, 0), (1, 2), (2, 4), (3, 6), (1, 2), (0, 0)])
    v = seq([(0, 0), (1, 1), (Fraction(3, 2), 2), (0, 0)])
    verdict = check_single(u, 2, 3, "T3_5")
    # relaxing L3_01's first_zero at seed 0 gives one violation
    report = fuzz(FuzzConfig("L3_01", trials=40, seed=0, length_range=(2, 4),
                             endpoint_magnitude=3, relax={"first_zero"}))
    examples = reproduce_examples()
    decomposition = u.alternate_segments()
    spec = lookup("T3_5")
    return {
        "Interval": Interval(Fraction(1, 2), 3),
        "MonotonicityProfile": u.classify(),
        "Segment": decomposition.segments[1],
        "SegmentDecomposition": decomposition,
        "PreconditionCheck": verdict.preconditions[1],
        "Verdict": verdict,
        "pair Verdict": check_pair(v, v, "T3_6"),
        "TheoremSpec": spec,
        "_Sums": spec.sums,
        "FuzzConfig": report.config,
        "TrialRecord": report.violations[0],
        "FuzzReport": report,
        "ScanReport": ratio_scan("T3_1", 1, 2, length=3, bound=1),
        "ExampleRow": examples[2].rows[0],
        "ExampleReport": examples[2],
    }


_INSTANCES = _make()
_NAMES = sorted(_INSTANCES)


def _fields(obj):
    return type(obj).__match_args__


# the sha256 of each instance's repr text, recorded before the records
# stopped being dataclasses
_REPR_SHA256 = {
    "ExampleReport": "22e811aaa1fab5e9fa1f4ce6068989a600c26d448cd2a6bb4dd6cb484d7dd6ce",
    "ExampleRow": "3d19c9de83d43bb81e9e7424bc1bd3712e915a62696367dd6ca4075474308157",
    "FuzzConfig": "19c4b5efe57af9583be0fa7e022a5d69f777b982ca6192b6979c67f9b4fe03cc",
    "FuzzReport": "e927054ca7417a7ea752eb87a360577ecbb7cdc4b7432793ac67142696f5536f",
    "Interval": "8bb86c2eaea8db570e9e3e74ce28a71cdc7204baa3a31001c972fa112f83f7e5",
    "MonotonicityProfile": "70b91bb312207a0dbe2eef9e57f011c73366670fe27564f8d5e9d616a04c9bdb",
    "PreconditionCheck": "16e81eeda273b0c2aaef36728af45d57912f41d5ed397faff47c16bee8402128",
    "ScanReport": "6685652ff6cc9fbda0aa5628f3f973578635b41e68a27678cde0db2ceaccda9b",
    "Segment": "fa34528ade1774952b8fd9a7dc356d9827038e321844c1c9ce07a8307ebb08dd",
    "SegmentDecomposition": "b53f0eee01ed9371ae387728159a762881a94f578f85e0e13aa318b5854740c9",
    "TheoremSpec": "4f6ab6ae42d9a8cb0f643e9d3afc2bdce849211452a171ed37a9ba53799e764e",
    "TrialRecord": "7a922a983ea0105060d002293e31ab19e207f1c440c112e83cf071d6099f1a98",
    "Verdict": "fd369eae319005b38d4a4430b1d271b4d2e555cae64f3c9f7588b320b650df07",
    "_Sums": "67f6256525ab5d86c08e274750e33e4259765ad97e7e76d1660dbd392c214c5a",
    "pair Verdict": "d7b0d1a788f5a3fdc787c66d5fa83abbc0b72b64b8313205613ea74631ad8174",
}


@pytest.mark.parametrize("name", _NAMES)
def test_repr_text_is_unchanged(name):
    obj = _INSTANCES[name]
    assert type(obj).__name__ == name.split()[-1]
    text = repr(obj)
    assert hashlib.sha256(text.encode()).hexdigest() == _REPR_SHA256[name], text


def test_short_reprs_read_as_before():
    text = {name: repr(obj) for name, obj in _INSTANCES.items()}
    assert text["Interval"] == "Interval('1/2', '3')"
    assert text["PreconditionCheck"] == (
        "PreconditionCheck(name='last_zero', passed=True, detail='u_5 = [0, 0]')")
    assert text["_Sums"] == (
        "_Sums(shape='interval', lhs=((0, 1), (1, 0)), rhs=((0, 1), (1, 1)),"
        " const=(None, (1, 0)))")
    assert text["Segment"] == (
        "Segment(start=3, end=5, profile=MonotonicityProfile("
        "direction=<Direction.DECREASING: 'decreasing'>,"
        " mu_direction=<MuDirection.MU_DECREASING: 'mu-decreasing'>, strict=False,"
        " zero_indices=(5,)))")
    assert text["TheoremSpec"] == (
        "TheoremSpec(id=<TheoremId.T3_5: 'T3_5'>, operator=<Operator.NABLA: 'nabla'>,"
        " arity=1, windowed=False, window_optional=False,"
        " preconditions=('first_zero', 'last_zero', 'alternate', 'no_other_zero'),"
        " constant_params=('l1', 'l2', 'm'),"
        " summary='backward-difference bound for alternating sequences vanishing at"
        " both ends')")


# each record's constructor: its parameters' names, kinds and defaults
_SIGNATURES = {
    "Interval": "lo hi",
    "MonotonicityProfile": "direction mu_direction strict zero_indices",
    "Segment": "start end profile",
    "SegmentDecomposition": "breakpoints segments",
    "PreconditionCheck": "name passed detail=''",
    "Verdict": "theorem preconditions lhs rhs constant holds ratio in_hypotheses lambda1 lambda2 window notes=()",
    "TheoremSpec": "id operator arity windowed window_optional preconditions constant_params summary constant_fn sums",
    "_Sums": "shape lhs rhs const",
    "FuzzConfig": "theorem trials seed length_range=(2, 12) endpoint_magnitude=100 lambda_range=(1, 4) relax=frozenset()",
    "TrialRecord": "trial input lambda1 lambda2 window relaxed verdict",
    "FuzzReport": "config trials_run violations max_ratio max_ratio_witness max_ratio_trial",
    "ScanReport": "theorem lambda1 lambda2 length bound planned checked admissible violations max_ratio witness witness_window",
    "ExampleRow": "label engine_lhs engine_rhs reference_lhs reference_rhs match note=''",
    "ExampleReport": "example theorem description rows match note=''",
}


@pytest.mark.parametrize("name", _NAMES)
def test_fields_defaults_and_match_args_are_unchanged(name):
    cls = type(_INSTANCES[name])
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    got = " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                   for p in params)
    assert got == _SIGNATURES[cls.__name__]
    assert cls.__match_args__ == tuple(p.name for p in params)


def _rebuilt(obj, **changes):
    values = {f: getattr(obj, f) for f in _fields(obj)}
    values.update(changes)
    return type(obj)(*values.values())


@pytest.mark.parametrize("name", _NAMES)
def test_equality_and_hash_read_the_fields(name):
    obj = _INSTANCES[name]
    cls = type(obj)
    twin = _rebuilt(obj)
    assert twin is not obj and twin == obj and not twin != obj
    ignored = ("constant_fn", "sums") if cls.__name__ == "TheoremSpec" else ()
    compared = tuple(getattr(obj, f) for f in _fields(obj) if f not in ignored)
    try:
        key = hash(compared)
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == key
    # another class with the same fields never compares equal
    sub = type("Sub", (cls,), {})
    other = sub(*(getattr(obj, f) for f in _fields(obj)))
    assert other != obj and obj != other
    assert obj != compared and obj != object()
    # every compared field takes part, and only those
    for f in _fields(obj):
        altered = copy.copy(obj)
        object.__setattr__(altered, f, object())
        assert (altered == obj) == (f in ignored), f


def test_theorem_spec_ignores_its_functions():
    spec = _INSTANCES["TheoremSpec"]
    other = _rebuilt(spec, constant_fn=lambda *a: Fraction(0), sums=lookup("T2_2").sums)
    assert other == spec and hash(other) == hash(spec) and repr(other) == repr(spec)
    assert other.constant(1, 1, 2, 5) == 0 != spec.constant(1, 1, 2, 5)
    assert _rebuilt(spec, summary="x") != spec


@pytest.mark.parametrize("call,error,message", [
    (lambda: Interval(2, 1), InvalidBounds, "lower bound 2 exceeds upper bound 1"),
    (lambda: Interval(0.5, 1), NonRational,
     "refusing float 0.5: pass an int, a Fraction, or an exact string"),
    (lambda: Interval("1/0", 1), NonRational, "not an exact rational: '1/0'"),
    (lambda: FuzzConfig("T9_9", 1, 0), ValueError, "'T9_9' is not a valid TheoremId"),
    (lambda: FuzzConfig("T3_1", 0, 0), ValueError, "trials must be a positive integer"),
    (lambda: FuzzConfig("T3_1", 1, 1.5), ValueError, "seed must be an integer"),
    (lambda: FuzzConfig("T3_1", 1, 0, (1, 4)), ValueError,
     "length_range must satisfy 2 <= min <= max"),
    (lambda: FuzzConfig("T3_1", 1, 0, endpoint_magnitude=0), ValueError,
     "endpoint_magnitude must be a positive integer"),
    (lambda: FuzzConfig("T3_1", 1, 0, lambda_range=(2, 1)), ValueError,
     "lambda_range must satisfy 1 <= min <= max"),
    (lambda: FuzzConfig("T3_1", 1, 0, relax={"nope"}), ValueError,
     "relax names ['nope'] are not preconditions of T3_1"
     " (valid: ['first_zero', 'monotone', 'mu_increasing'])"),
], ids=["bounds", "float", "zero-denominator", "theorem", "trials", "seed", "length",
        "magnitude", "lambdas", "relax"])
def test_validation_errors_are_unchanged(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_validation_normalizes_fields():
    config = FuzzConfig("T3_1", 3, 0, [2, 5], 7, [1, 2], ["first_zero"])
    assert config.theorem is TheoremId.T3_1
    assert config.length_range == (2, 5) and config.lambda_range == (1, 2)
    assert config.relax == frozenset({"first_zero"})
    iv = Interval(1, "3/2")
    assert (iv.lo, iv.hi) == (Fraction(1), Fraction(3, 2))
    assert type(iv.lo) is Fraction


@pytest.mark.parametrize("name", _NAMES)
def test_records_are_frozen(name):
    obj = _INSTANCES[name]
    for f in _fields(obj):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{f}'"):
            setattr(obj, f, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{f}'"):
            delattr(obj, f)
    assert obj == _rebuilt(obj)


@pytest.mark.parametrize("name", _NAMES)
def test_copy_deepcopy_and_pickle_round_trips(name):
    obj = _INSTANCES[name]
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj)
        assert twin == obj and repr(twin) == repr(obj)
        assert all(getattr(twin, f) == getattr(obj, f) for f in _fields(obj))
    assert copy.copy(obj) is not obj


@pytest.mark.parametrize("name", _NAMES)
def test_records_are_slotted_and_take_no_new_attribute(name):
    # (a slotted frozen dataclass raised TypeError here on Python 3.11)
    obj = _INSTANCES[name]
    assert not hasattr(obj, "__dict__") and type(obj).__slots__ == _fields(obj)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
        obj.extra = 1


@pytest.mark.parametrize("name", _NAMES)
def test_replace_keeps_the_other_fields(name):
    obj = _INSTANCES[name]
    last = _fields(obj)[-1]
    twin = replace(obj, **{last: copy.deepcopy(getattr(obj, last))})
    assert type(twin) is type(obj) and twin == obj and twin is not obj
    assert obj.__replace__() == obj
    if hasattr(copy, "replace"):
        assert copy.replace(obj) == obj
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)


def test_replace_changes_the_given_fields():
    verdict = _INSTANCES["Verdict"]
    changed = replace(verdict, rhs=verdict.rhs + 1, notes=("x",))
    assert (changed.rhs, changed.notes) == (verdict.rhs + 1, ("x",))
    assert changed != verdict
    assert all(getattr(changed, f) is getattr(verdict, f)
               for f in _fields(verdict) if f not in ("rhs", "notes"))


def test_replace_validates_again():
    config = _INSTANCES["FuzzConfig"]
    assert replace(config, theorem="T3_1", relax=[]).theorem is TheoremId.T3_1
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        replace(config, trials=0)
    with pytest.raises(InvalidBounds):
        replace(_INSTANCES["Interval"], lo=4)


# Verdict keeps its own key order; both run on every checked document
_HAND_WRITTEN_JSON = {"PreconditionCheck", "Verdict", "pair Verdict"}


@pytest.mark.parametrize("name", _NAMES)
def test_json_forms_come_from_one_rule(name):
    obj = _INSTANCES[name]
    method = type(obj).__dict__.get("to_jsonable")
    if name in ("Interval", "_Sums"):
        assert method is None
    else:
        assert (method is record_to_jsonable) == (name not in _HAND_WRITTEN_JSON)


def test_json_rule_refuses_a_value_with_no_json_form():
    with pytest.raises(TypeError, match="no JSON form for float"):
        replace(_INSTANCES["ExampleRow"], engine_lhs=0.5).to_jsonable()


# A record's __init__ that its class body does not write out is compiled on
# the first lookup, so each check runs in a fresh interpreter: the records'
# classes, their state (a function, or still the deferred __init__) and what
# the check found
_FIRST_USE_CHILD = textwrap.dedent("""
    import contextlib, copy, inspect, io, json, pickle, sys
    sys.path.insert(0, sys.argv[1])
    import opialcheck
    from opialcheck import _records, intervals, oracle, sequences, theorems

    classes = {cls.__name__: cls for mod in (intervals, sequences, theorems, oracle)
               for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__ == mod.__name__
               and "_shown" in vars(cls)}

    def deferred():
        return sorted(name for name, cls in classes.items()
                      if isinstance(vars(cls)["__init__"], _records._LazyInit))

    def compiled(cls):
        init = vars(cls)["__init__"]
        return type(init).__name__ == "function" and init.__qualname__ == (
            cls.__qualname__ + ".__init__")

    def hashed(obj):
        try:
            return hash(obj)
        except TypeError:
            return "unhashable"

    mode, result = sys.argv[2], {"before": deferred()}
    if mode == "signature":
        result["signatures"] = {
            name: " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                           for p in inspect.signature(cls).parameters.values())
            for name, cls in classes.items()}
    elif mode == "fuzz":
        with contextlib.redirect_stdout(io.StringIO()):
            result["code"] = opialcheck.main(["fuzz", "--theorem", "T3_5", "--trials", "1"])
    elif mode == "wrapped":
        # a wrapper put over the deferred __init__ (as perfbench's tracer does)
        # calls it in the function's place and stays on the class
        Interval = classes["Interval"]
        lazy, calls = vars(Interval)["__init__"], []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return lazy(*args, **kwargs)

        Interval.__init__ = wrapper
        made = [Interval(1, 2), Interval(0, "1/2")]
        result["kept"] = vars(Interval)["__init__"] is wrapper
        Interval.__init__ = lazy
        made.append(Interval(1, 2))
        result["compiled once"] = vars(Interval)["__init__"] is lazy.init
        result["calls"] = len(calls)
        result["reprs"] = [repr(obj) for obj in made]
    else:
        # the first instance of each class comes from pickle.loads, copy.copy
        # or replace; an original that copy and replace start from is made
        # without calling __init__
        result["cases"] = []
        for name, class_name, fields, blob, shown in pickle.loads(sys.stdin.buffer.read()):
            cls = classes[class_name]
            if mode == "pickle":
                before = name in deferred()
                original, first = pickle.loads(blob), pickle.loads(blob)
            else:
                original = object.__new__(cls)
                for field, value in zip(cls.__match_args__, pickle.loads(fields)):
                    object.__setattr__(original, field, value)
                before = name in deferred()
                copier = copy.copy if mode == "copy" else opialcheck.replace
                first = copier(original)
            result["cases"].append([
                name, before, compiled(cls), type(first) is cls and first == original,
                hashed(first) == hashed(original), repr(first) == shown])
    result["after"] = deferred()
    print(json.dumps(result))
""")


def _first_use(mode, payload=b""):
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _FIRST_USE_CHILD, pkg_dir, mode],
        input=payload, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


# the records whose class body writes __init__ out, as every command builds
# them; every other one is compiled on its first use
_WRITTEN_OUT_INIT = {"TheoremSpec", "_Sums", "PreconditionCheck", "Verdict"}


def test_written_out_inits_are_never_compiled():
    compiled = {type(obj).__name__ for obj in _INSTANCES.values()
                if vars(type(obj))["__init__"].__code__.co_filename == "<string>"}
    assert compiled == set(_SIGNATURES) - _WRITTEN_OUT_INIT


def test_signatures_compile_each_deferred_init():
    result = _first_use("signature")
    assert set(result["before"]) == set(_SIGNATURES) - _WRITTEN_OUT_INIT
    assert result["signatures"] == _SIGNATURES
    assert result["after"] == []


def test_cold_fuzz_compiles_only_the_records_it_makes():
    result = _first_use("fuzz")
    assert result["code"] == 0
    deferred = set(result["after"])
    assert {"ScanReport", "ExampleRow", "ExampleReport", "Segment",
            "SegmentDecomposition"} <= deferred
    assert not deferred & {"FuzzConfig", "FuzzReport", "Verdict", "PreconditionCheck"}


def test_a_wrapped_deferred_init_is_called_in_its_place():
    result = _first_use("wrapped")
    assert result["kept"] and result["calls"] == 2 and result["compiled once"]
    assert "Interval" in result["before"] and "Interval" not in result["after"]
    assert result["reprs"] == ["Interval('1', '2')", "Interval('0', '1/2')",
                               "Interval('1', '2')"]


@pytest.mark.parametrize("mode", ["pickle", "copy", "replace"])
def test_first_instance_by_pickle_copy_or_replace(mode):
    # _INSTANCES lists each record before any record that holds it, so each
    # class is still deferred when its own case starts
    payload = pickle.dumps([
        (name, type(obj).__name__, pickle.dumps(tuple(getattr(obj, f) for f in _fields(obj))),
         pickle.dumps(obj), repr(obj))
        for name, obj in _INSTANCES.items()])
    result = _first_use(mode, payload)
    cases = result["cases"]
    assert [case[0] for case in cases] == list(_INSTANCES)
    first_uses = {name for name, before, *_ in cases if before}
    assert first_uses == set(_INSTANCES) - _WRITTEN_OUT_INIT - {"pair Verdict"}
    for name, _, compiled, equal, same_hash, same_repr in cases:
        assert compiled and equal and same_hash and same_repr, name
    assert result["after"] == []


def test_record_needs_two_shown_fields():
    from opialcheck._records import hidden, record

    with pytest.raises(TypeError, match="needs at least two shown fields"):
        @record
        class One:
            x: int

    with pytest.raises(TypeError, match="needs at least two shown fields"):
        @record
        class OneShown:
            x: int
            y: int = hidden

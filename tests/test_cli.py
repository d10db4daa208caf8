import contextlib
import io
import itertools
import json
import os
import pickle
import shutil
import subprocess
import sys
import textwrap
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opialcheck
from opialcheck import (
    Interval, IntervalSequence, NonRational, input_to_jsonable, rational_to_json, registry,
)
from opialcheck import cli, theorems
from opialcheck.cli import SchemaError, main, parse_sequence
from opialcheck.rationals import rational_from_text

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def sample(name):
    """Absolute path of a bundled sample, wherever pytest started."""
    return str(SAMPLES / name)


# -- document parsing -----------------------------------------------------------


def test_parse_sequence_from_text():
    s = parse_sequence('{"u": [[0, 0], ["1/3", "2/3"]], "base_index": 1}')
    assert isinstance(s, IntervalSequence)
    assert s.base_index == 1
    assert s.at(2).lo == Fraction(1, 3)


def test_parse_sequence_pair():
    u, v = parse_sequence('{"u": [[0, 0], [1, 2]], "v": [[0, 0], [1, 3]]}')
    assert u.base_index == v.base_index == 0
    assert v.at(1).hi == 3


def test_decimal_text_is_exact():
    # JSON number literals are read as exact decimals, never binary floats
    s = parse_sequence('{"u": [[0, 0.1]]}')
    assert s.at(0).hi == Fraction(1, 10)
    s2 = parse_sequence('{"u": [[0, "0.1"]]}')
    assert s2.at(0).hi == Fraction(1, 10)


def test_float_objects_rejected_with_path():
    with pytest.raises(NonRational, match=r"u\[0\]\[1\]"):
        parse_sequence({"u": [[0, 0.1]]})


def test_schema_errors():
    with pytest.raises(SchemaError, match="NaN"):
        parse_sequence('{"u": [[0, NaN]]}')
    with pytest.raises(SchemaError, match=r"u\[0\]"):
        parse_sequence('{"u": [[2, 1]]}')
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_sequence('{"u": [[0, 0]], "extra": 1}')
    with pytest.raises(SchemaError, match="missing required key"):
        parse_sequence('{"v": [[0, 0]]}')
    with pytest.raises(SchemaError, match="top level"):
        parse_sequence('[1, 2]')
    with pytest.raises(SchemaError, match="base_index"):
        parse_sequence('{"u": [[0, 0]], "base_index": true}')


_MIXED_KEYS_CHILD = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    from opialcheck.cli import SchemaError, parse_sequence
    try:
        parse_sequence({"u": [[0, 0]], "b": 1, 2: 0, "a": 1, None: 0, 1: 0, (1, "x"): 0})
    except SchemaError as exc:
        print(exc)
""")


def test_unknown_keys_of_mixed_types_are_refused_in_a_fixed_order():
    # a dict built in Python may mix key types, which sorted() cannot
    # compare: the strings come first, in their own order (so an all-string
    # message is unchanged), then the other keys by type name and text
    with pytest.raises(SchemaError) as info:
        parse_sequence({"u": [[0, 0]], 1: 2, "x": 3})
    assert str(info.value) == "unknown keys: ['x', 1] (allowed: u, v, base_index)"
    with pytest.raises(SchemaError) as info:
        parse_sequence({"u": [[0, 0]], "zeta": 1, "Beta": 2, "alpha": 3})
    assert str(info.value) == "unknown keys: ['Beta', 'alpha'] and 1 more (allowed: u, v, base_index)"
    # the same message whatever the hash seed orders the set by
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    seen = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", _MIXED_KEYS_CHILD, pkg_dir],
            capture_output=True, text=True, timeout=60, env={"PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        seen.add(proc.stdout)
    assert seen == {"unknown keys: ['a', 'b'] and 4 more (allowed: u, v, base_index)\n"}
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_sequence('not json')


def test_round_trip_preserves_values(tmp_path):
    doc = {"u": [["-3/7", "1/7"], [0, 0], ["5/2", 3]], "base_index": 2}
    s = parse_sequence(json.dumps(doc))
    assert s.to_pairs() == (
        (Fraction(-3, 7), Fraction(1, 7)),
        (Fraction(0), Fraction(0)),
        (Fraction(5, 2), Fraction(3)),
    )


# every message as the Interval-building parser gave it
@pytest.mark.parametrize("doc,exc,message", [
    ('{"u": [[2, 1]]}', SchemaError, "u[0]: lower bound 2 exceeds upper bound 1"),
    ('{"u": [[0, 0], ["3/2", "1/2"]], "v": [[0, 0], [0, 0]]}', SchemaError,
     "u[1]: lower bound 3/2 exceeds upper bound 1/2"),
    ('{"u": [[0, 0]], "v": [[0, 0], [5, 4.5]]}', SchemaError,
     "v[1]: lower bound 5 exceeds upper bound 9/2"),
    ('{"u": [["-1/3", "-2/3"]]}', SchemaError,
     "u[0]: lower bound -1/3 exceeds upper bound -2/3"),
    ('{"u": [[0, 1]], "v": [[1, 0]]}', SchemaError,
     "v[0]: lower bound 1 exceeds upper bound 0"),
    ('{"u": [[2, 1], ["abc", 0]]}', SchemaError,
     "u[0]: lower bound 2 exceeds upper bound 1"),
    ('{"u": [[0, true]]}', NonRational, "u[0][1]: cannot interpret True as a rational"),
    ('{"u": [[false, 1]]}', NonRational, "u[0][0]: cannot interpret False as a rational"),
    ('{"u": [["abc", 1]]}', NonRational, "u[0][0]: not an exact rational: 'abc'"),
    ('{"u": [[0, "1/0"]]}', NonRational, "u[0][1]: not an exact rational: '1/0'"),
    ('{"u": [[0, "0x10"]]}', NonRational, "u[0][1]: not an exact rational: '0x10'"),
    ('{"u": [[0, "nan"]]}', NonRational, "u[0][1]: not an exact rational: 'nan'"),
    ('{"u": [[0, null]]}', NonRational, "u[0][1]: cannot interpret NoneType as a rational"),
    ('{"u": [[0, [1]]]}', NonRational, "u[0][1]: cannot interpret list as a rational"),
    ('{"u": [["x", 1]], "v": [[1, 0]]}', NonRational, "u[0][0]: not an exact rational: 'x'"),
    ('{"u": [[0, "1/2"], [1, "abc"]], "v": [[3, 2]]}', NonRational,
     "u[1][1]: not an exact rational: 'abc'"),
    ({"u": [[0, 0.1]]}, NonRational,
     "u[0][1]: refusing float 0.1: pass an int, a Fraction, or an exact string"),
    ('{"u": [[0, 0]], "base_index": 1.5}', SchemaError,
     "base_index: expected an integer, got Fraction(3, 2)"),
    ('{"u": [[0, 0]], "base_index": 1.0}', SchemaError,
     "base_index: expected an integer, got Fraction(1, 1)"),
    ('{"u": [[0, 0]], "base_index": true}', SchemaError,
     "base_index: expected an integer, got True"),
    ('{"u": [[0, 0]], "v": [[1, 0]], "base_index": "x"}', SchemaError,
     "base_index: expected an integer, got 'x'"),
    ('{"u": [[0, 0], [1]]}', SchemaError, "u[1]: expected a two-element [lo, hi] pair"),
    ('{"u": {"a": 1}}', SchemaError, "u: expected a list of [lo, hi] pairs"),
])
def test_parse_error_messages(doc, exc, message):
    with pytest.raises(exc) as info:
        parse_sequence(doc)
    assert type(info.value) is exc
    assert str(info.value) == message


def _endpoint_texts(value):
    """JSON texts of an exact rational: "p/q" (not always in lowest terms),
    an int when integral, and for a value with at most six decimals a
    decimal string and bare JSON decimal literals."""
    texts = [json.dumps(f"{value.numerator * k}/{value.denominator * k}") for k in (1, 3)]
    if value.denominator == 1:
        texts.append(str(value.numerator))
    if 10 ** 6 % value.denominator == 0:
        fixed = format(Decimal(value.numerator) / Decimal(value.denominator), "f")
        micros = value.numerator * (10 ** 6 // value.denominator)
        texts += [json.dumps(fixed), fixed if "." in fixed else fixed + ".0",
                  f"{micros}e-6", json.dumps(f"{micros}E-06")]
    return texts


_values = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.builds(Fraction, st.integers(-400, 400), st.sampled_from([2, 4, 5, 8, 10, 25, 1000])),
    st.builds(Fraction, st.integers(-3_000_000, 3_000_000),
              st.sampled_from([3, 7, 12, 999_983, 1_000_003])),
)


# endpoint texts the int parse path must read as the Fraction route reads
# them, or decline so that the Fraction route gives its value or its error:
# signs, whitespace, underscores, non-ASCII digits, q = 0, decimals,
# exponents, and digit strings longer than the interpreter reads as ints
_EDGE_VALUES = [
    ('"6/4"', Fraction(3, 2)), ('"-6/4"', Fraction(-3, 2)), ('"-0"', Fraction(0)),
    ('"-0/5"', Fraction(0)), ('"0/7"', Fraction(0)), ('"007/014"', Fraction(1, 2)),
    ('"+3"', Fraction(3)), ('"+3/4"', Fraction(3, 4)), ('" 3"', Fraction(3)),
    ('"3 "', Fraction(3)), ('"3/4 "', Fraction(3, 4)), ('"1_000"', Fraction(1000)),
    ('"1_0/3"', Fraction(10, 3)), ('"\\uff13"', Fraction(3)),
    ('"\\uff11/\\uff12"', Fraction(1, 2)), ('"\\u0663"', Fraction(3)),
    ('"1e3"', Fraction(1000)), ('"-2E-2"', Fraction(-1, 50)), ('"2.50"', Fraction(5, 2)),
    ('"-.5"', Fraction(-1, 2)), ("-0", Fraction(0)), ("-0.0", Fraction(0)),
    ("1E2", Fraction(100)),
]
_EDGE_ERRORS = [
    '"\\u00b2"', '"1/0"', '"0/0"', '"-1/0"', '"0x10"', '"1/2e1"', '"1/-2"', '"--1"', '"-"',
    '"3/"', '"/3"', '"1/2/3"', '""', '"' + "7" * 4301 + '"', '"1/' + "3" * 4301 + '"',
]


@st.composite
def _endpoint(draw):
    # (value, text); about one endpoint in ten is an edge text with a value,
    # one in sixty a text the parser refuses (value None)
    roll = draw(st.integers(0, 59))
    if roll < 6:
        text, value = draw(st.sampled_from(_EDGE_VALUES))
        return value, text
    if roll == 59:
        return None, draw(st.sampled_from(_EDGE_ERRORS))
    value = draw(_values)
    return value, draw(st.sampled_from(_endpoint_texts(value)))


@st.composite
def _items(draw):
    pairs = draw(st.lists(st.tuples(_endpoint(), _endpoint()), max_size=8))
    return [sorted(pair, key=lambda e: e[0]) if None not in (pair[0][0], pair[1][0])
            else list(pair) for pair in pairs]


def _items_json(items):
    return "[" + ", ".join(f"[{lo[1]}, {hi[1]}]" for lo, hi in items) + "]"


def _interval_sequence(items, base):
    return IntervalSequence(tuple(Interval(lo[0], hi[0]) for lo, hi in items), base)


def _fraction_parse(text):
    """The sequences of a document read the Fraction way: every endpoint
    through cli._endpoint (as_rational) and every element an Interval."""
    doc = cli._json_loads_exact(text)
    seqs = []
    for key in ("u", "v") if "v" in doc else ("u",):
        items = []
        for j, (lo_raw, hi_raw) in enumerate(doc[key]):
            lo = cli._endpoint(lo_raw, key, j, 0)
            hi = cli._endpoint(hi_raw, key, j, 1)
            if lo > hi:
                raise SchemaError(f"{key}[{j}]: lower bound {lo} exceeds upper bound {hi}")
            items.append(Interval(lo, hi))
        seqs.append(IntervalSequence(tuple(items), doc["base_index"]))
    return seqs


def _interval_echo(seqs):
    # the echo serialized from the Interval elements
    doc = {name: [[rational_to_json(it.lo), rational_to_json(it.hi)] for it in s.items]
           for name, s in zip(("u", "v"), seqs)}
    doc["base_index"] = seqs[0].base_index
    return doc


@settings(max_examples=300, deadline=None)
@given(u=_items(), v=st.one_of(st.none(), _items()), base=st.integers(-4, 4))
def test_parse_matches_interval_construction(u, v, base):
    # the int parse path gives the sequences, common denominator included,
    # and the echo that reading every endpoint as a Fraction and building
    # Interval elements gives, or that route's exception and message
    text = f'{{"u": {_items_json(u)}, "base_index": {base}'
    text += "}" if v is None else f', "v": {_items_json(v)}}}'
    drawn = [e[0] for items in (u, v) if items is not None for pair in items for e in pair]
    try:
        want = _fraction_parse(text)
    except (SchemaError, NonRational) as exc:
        assert None in drawn
        with pytest.raises(type(exc)) as info:
            parse_sequence(text)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    assert None not in drawn
    # the Fraction route and the ints both give the values that were drawn
    assert want == [_interval_sequence(items, base) for items in (u, v) if items is not None]
    got = parse_sequence(text)
    got_seqs = [got] if v is None else list(got)
    assert got_seqs == want
    for g, w in zip(got_seqs, want):
        assert (g.D, g.lows, g.highs, g.base_index) == (w.D, w.lows, w.highs, w.base_index)
    assert input_to_jsonable(got) == _interval_echo(want)


CONFORMING_SAMPLE_CHECKS = [
    ["ex31_n5.json", "--theorem", "T3_1"],
    ["ex32_n5.json", "--theorem", "T3_2", "--l2", "2", "--window", "2,5"],
    ["ex33.json", "--theorem", "T3_5", "--l1", "2", "--l2", "3"],
    ["pair_t36.json", "--theorem", "T3_6"],
    ["tent_classical.json", "--theorem", "T2_2"],
]


@pytest.mark.parametrize("args", CONFORMING_SAMPLE_CHECKS, ids=lambda a: a[0])
def test_conforming_check_builds_no_interval(capsys, monkeypatch, args):
    # a document goes straight to ints and is echoed from them; building one
    # Interval per element would count 5 or 6 here
    built = []
    real_init = Interval.__init__

    def counted(self, *a, **kw):
        built.append(1)
        real_init(self, *a, **kw)

    monkeypatch.setattr(Interval, "__init__", counted)
    code, out, _ = run_cli(capsys, ["check", "--in", sample(args[0])] + args[1:])
    assert code == 0
    assert json.loads(out)["verdict"]["in_hypotheses"] is True
    assert built == []


def test_discovery_builds_no_interval(capsys, monkeypatch):
    # ex32_n5 fails hypotheses of several statements; each failed row prints
    # its element from the integers
    built = []
    real_init = Interval.__init__

    def counted(self, *a, **kw):
        built.append(1)
        real_init(self, *a, **kw)

    monkeypatch.setattr(Interval, "__init__", counted)
    code, out, _ = run_cli(capsys, ["check", "--in", sample("ex32_n5.json")])
    assert code == 2
    rows = [p for v in json.loads(out)["verdicts"] for p in v["preconditions"]]
    assert any(" = [" in p["detail"] and not p["passed"] for p in rows)
    assert built == []


# -- printed size ---------------------------------------------------------------


@pytest.mark.parametrize("doc", [
    '{"u": [[0, 0], [1e4000, 1e4000], [0, 0]]}',
    '{"u": [[0, 1e4300]]}',
    '{"u": [[0, 0], [1e3000, 1e3000]], "v": [[0, 0], [1, 1]]}',
])
def test_oversized_documents_are_refused_before_checking(capsys, tmp_path, monkeypatch, doc):
    # a result past the interpreter's int-to-text limit cannot be printed,
    # so the document is refused before any statement runs
    path = tmp_path / "big.json"
    path.write_text(doc)
    calls = []
    monkeypatch.setattr(cli, "check_single", lambda *a, **k: calls.append(1))
    monkeypatch.setattr(cli, "check_pair", lambda *a, **k: calls.append(1))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["check", "--in", str(path)])
    assert time.perf_counter() - start < 0.25
    assert code == 3 and out == "" and calls == []
    assert err.startswith("error: input too large") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err


# 4291 digits, within the interpreter's 4300-digit limit for int text: the
# document is read, and the size guard refuses it
_X, _D = "1" + "0" * 4290, "1." + "0" * 4289 + "1"


@pytest.mark.parametrize("endpoint", ["X", '"X"', '"X/3"', "D", '"D"'])
def test_endpoints_within_the_digit_limit_reach_the_size_guard(capsys, tmp_path, endpoint):
    path = tmp_path / "big.json"
    path.write_text('{"u": [[0, %s]]}' % endpoint.replace("X", _X).replace("D", _D))
    code, out, err = run_cli(capsys, ["check", "--in", str(path)])
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert err.startswith("error: input too large: ")


# documents past the decoder's nesting depth or past the 4300-digit limit for
# int text, or with a long value or key to echo, with the one line each is
# refused with
_BIG, _LONG = "1" + "0" * 5000, "1." + "0" * 4999 + "1"
_NESTED = "[" * 100_000 + "]" * 100_000
_KEYS = [f"{k:03}" + "k" * 4997 for k in range(100)]
_UNREADABLE = {
    "nested-object": ('{"u": %s}' % _NESTED, SchemaError, "invalid JSON: nested too deeply to decode"),
    "nested-array": (_NESTED, SchemaError, "invalid JSON: nested too deeply to decode"),
    "int-literal": ('{"u": [[0, %s]]}' % _BIG, SchemaError,
                    "refusing a number literal of more than 4300 digits"),
    "decimal-literal": ('{"u": [[0, %s]]}' % _LONG, NonRational,
                        f"refusing '{_LONG[:37]}...': more than 4300 digits"),
    "int-string": ('{"u": [[0, "%s"]]}' % _BIG, NonRational,
                   f"u[0][1]: refusing '{_BIG[:37]}...': more than 4300 digits"),
    "ratio-string": ('{"u": [["1/%s", 1]]}' % _BIG, NonRational,
                     f"u[0][0]: refusing '1/{_BIG[:35]}...': more than 4300 digits"),
    "decimal-string": ('{"u": [[0, "%s"]]}' % _LONG, NonRational,
                       f"u[0][1]: refusing '{_LONG[:37]}...': more than 4300 digits"),
    "base-index-string": ('{"u": [[0, 0]], "base_index": "%s"}' % ("x" * 5000), SchemaError,
                          f"base_index: expected an integer, got '{'x' * 37}...'"),
    "base-index-list": ('{"u": [[0, 0]], "base_index": [%s]}' % ", ".join(["7"] * 2000),
                        SchemaError, f"base_index: expected an integer, got [{'7, ' * 12}..."),
    "base-index-past-the-limit": ('{"u": [[0, 0]], "base_index": 1e4300}', SchemaError,
                                  "base_index: expected an integer,"
                                  " got a Fraction too large to show"),
    "unknown-key": ('{"u": [[0, 0]], "%s": 1}' % ("k" * 5000), SchemaError,
                    f"unknown keys: ['{'k' * 37}...'] (allowed: u, v, base_index)"),
    "unknown-keys": (json.dumps({"u": [[0, 0]], **dict.fromkeys(_KEYS, 1)}), SchemaError,
                     f"unknown keys: ['{_KEYS[0][:37]}...', '{_KEYS[1][:37]}...'] and 98 more"
                     " (allowed: u, v, base_index)"),
}


@pytest.mark.parametrize("doc,exc,message", _UNREADABLE.values(), ids=_UNREADABLE)
def test_unreadable_documents_are_refused_in_one_line(capsys, tmp_path, doc, exc, message):
    with pytest.raises(exc) as info:
        parse_sequence(doc)
    assert type(info.value) is exc and str(info.value) == message
    path = tmp_path / "doc.json"
    path.write_text(doc)
    for command in ("check", "classify"):
        assert run_cli(capsys, [command, "--in", str(path)]) == (3, "", f"error: {message}\n")
    assert len(f"error: {message}\n".encode()) < 200


def _guard_output_size(built, l1, l2):
    # the size guard check runs on a parsed document (theorems._guard)
    theorems._guard(theorems._Analysis(*built) if isinstance(built, tuple)
                    else theorems._Analysis(built), l1, l2)


@pytest.mark.parametrize("name", sorted(p.name for p in SAMPLES.glob("*.json")))
@pytest.mark.parametrize("l1,l2", [(1, 1), (4, 4)])
def test_every_sample_is_admitted(name, l1, l2):
    _guard_output_size(parse_sequence((SAMPLES / name).read_text()), l1, l2)


@pytest.mark.parametrize("digits", [1000, 1400, 2100, 2150, 4000])
@pytest.mark.parametrize("l1,l2", [(1, 1), (1, 2)])
@pytest.mark.parametrize("den", [1, 999983])
def test_admitted_documents_print(capsys, tmp_path, digits, l1, l2, den):
    # whatever the bound admits runs and prints, and it refuses no tent
    # whose sides (about digits * (l1 + l2) digits) stay within 4000
    x = 10 ** digits
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"u": [[0, 0], [f"{x}/{den}", f"{x + 1}/{den}"],
                                      [f"{x}/{den}", f"{x}/{den}"], [0, 0]]}))
    try:
        _guard_output_size(parse_sequence(path.read_text()), l1, l2)
    except cli.OutputTooLarge:
        assert digits * (l1 + l2) > 4000
        return
    code, out, _ = run_cli(capsys, ["check", "--in", str(path),
                                    "--l1", str(l1), "--l2", str(l2)])
    assert code in (0, 1, 2)
    assert json.loads(out)["verdicts"]


# -- decimal exponents ----------------------------------------------------------


def test_decimal_exponent_cap_boundary():
    cap = opialcheck.rationals.MAX_DECIMAL_EXPONENT
    assert parse_sequence(f'{{"u": [[0, 1e{cap}]]}}').at(0).hi == 10 ** cap
    edge = parse_sequence(f'{{"u": [["1E-{cap}", "1e+0{cap}"]]}}').at(0)
    assert (edge.lo, edge.hi) == (Fraction(1, 10 ** cap), 10 ** cap)
    with pytest.raises(NonRational, match=f"larger than {cap} in magnitude"):
        parse_sequence(f'{{"u": [[0, 1e{cap + 1}]]}}')
    with pytest.raises(NonRational, match=r"^u\[0\]\[0\]: refusing '1e-4_301'"):
        parse_sequence('{"u": [["1e-4_301", 0]]}')
    with pytest.raises(NonRational):
        opialcheck.as_rational(" 1e" + "0" * 50 + "9" * 9 + " ")


# Fraction expands the exponent in full: unguarded, the first document takes
# about a second and the last ones hang and take hundreds of MB, so they run
# in a child with a timeout and a cap on its address space
_HOSTILE_DOCS = [
    '{"u": [[0, 1e2000000]]}',
    '{"u": [[0, "1e2000000"]]}',
    '{"u": [[0, 1e999999999]]}',
    '{"u": [["-1E-999999999", 0]]}',
    '{"u": [[0, 1], [0, "1e1' + "0" * 5000 + '"]]}',
]
_HOSTILE_CHILD = textwrap.dedent("""
    import contextlib, io, json, sys, time, tracemalloc
    try:
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    except (ImportError, ValueError, OSError):
        pass
    from opialcheck.cli import main
    results = []
    for path in sys.argv[1:]:
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--in", path])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        results.append([code, out.getvalue(), err.getvalue(), elapsed, peak])
    print(json.dumps(results))
""")


def test_hostile_exponents_fail_fast(tmp_path):
    paths = []
    for k, doc in enumerate(_HOSTILE_DOCS):
        path = tmp_path / f"hostile{k}.json"
        path.write_text(doc)
        paths.append(str(path))
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _HOSTILE_CHILD, *paths],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(_HOSTILE_DOCS)
    for doc, (code, out, err, elapsed, peak) in zip(_HOSTILE_DOCS, results):
        assert code == 3 and out == "", doc[:40]
        assert err.startswith("error:") and "decimal exponent larger than 4300" in err
        assert err.count("\n") == 1 and len(err) < 200
        assert elapsed < 0.25, (doc[:40], elapsed)
        assert peak < 1_000_000, (doc[:40], peak)


# the exponent pattern is compiled on the first call of rational_from_text;
# a refusal must not depend on an earlier call having compiled it
_FIRST_EXPONENT_CHILD = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    from opialcheck.rationals import NonRational, rational_from_text
    for text in sys.argv[2:]:
        try:
            print(repr(rational_from_text(text)))
        except NonRational as exc:
            print(exc)
""")


@pytest.mark.parametrize("text", ["1e4301", "-7E-04301", " 2.5e+99999 ", "1e\u0660\u06604301"])
def test_exponent_refusal_fires_on_the_first_call(text):
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _FIRST_EXPONENT_CHILD, pkg_dir, text, "1.5e3", text],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    refusal = f"refusing {text!r}: decimal exponent larger than 4300 in magnitude"
    assert proc.stdout.splitlines() == [refusal, "Fraction(1500, 1)", refusal]


# the digits of another script a Fraction string may hold
_SCRIPT_ZEROS = (0x660, 0x966, 0xFF10)


@pytest.mark.parametrize("zero", _SCRIPT_ZEROS)
def test_exponent_padded_with_zeros_of_any_script_reads_as_fraction(zero):
    # the cap is on the exponent's value: leading zeros of another script,
    # which Fraction reads, count no more than ASCII ones
    z = chr(zero)
    for text, value in ((f"-0.0e-{z}4290", Fraction(0)), (f"3e{z}{z}0{z}1_2", Fraction(3 * 10**12)),
                        (f"5E+{z * 9}4290", Fraction(5 * 10**4290))):
        assert parse_sequence(json.dumps({"u": [[text, text]]}, ensure_ascii=False)).at(0) == \
            Interval(value, value), text


@st.composite
def _number_texts(draw):
    """(literal, string, exponent): a JSON number text with a sign, an
    integer part with or without leading zeros (or long enough to straddle
    the 4300-digit limit), 1-60 fraction digits and an optional exponent
    near +-4300; the same text as a string may add whitespace, "+", "_"
    between digits and digits of another script. exponent is the
    magnitude of the decimal exponent, 0 without one."""
    sign = draw(st.sampled_from(["", "-"]))
    head = draw(st.one_of(
        st.just("0"), st.integers(1, 10**20).map(str), st.integers(0, 999).map(lambda k: f"0{k}"),
        st.integers(4230, 4320).map(lambda n: "9" * n),
    ))
    tail = draw(st.text("0123456789", min_size=1, max_size=60))
    exponent = draw(st.one_of(st.none(), st.integers(-4310, -4290), st.integers(4290, 4310),
                              st.integers(-20, 20)))
    mark = ""
    if exponent is not None:
        mark = draw(st.sampled_from("eE")) + ("-" if exponent < 0 else draw(st.sampled_from(["", "+"])))
        mark += "0" * draw(st.integers(0, 2)) + str(abs(exponent))
    body = f"{head}.{tail}{mark}"
    literal = sign + body
    # the string form: maybe "+" for no sign, "_" between two digits, some
    # digits of another script, whitespace around
    text = ("+" if not sign and draw(st.booleans()) else sign) + body
    if draw(st.booleans()):
        spots = [k for k in range(1, len(text)) if text[k - 1].isdigit() and text[k].isdigit()]
        if spots:
            k = draw(st.sampled_from(spots))
            text = f"{text[:k]}_{text[k:]}"
    if draw(st.booleans()):
        # the digits at the positions a 16-bit mask marks, repeating
        zero, mask = draw(st.sampled_from(_SCRIPT_ZEROS)), draw(st.integers(1, 2**16 - 1))
        text = "".join(chr(zero + int(c)) if c.isdigit() and mask >> k % 16 & 1 else c
                       for k, c in enumerate(text))
    space = st.text(" \t\n", max_size=2)
    text = draw(space) + text + draw(space)
    return literal, text, abs(exponent or 0)


def _decoded(text, exponent, where):
    """Fraction(text), or the refusal the decoder gives it: an exponent past
    4300 first, then more than 4300 digits, then any text Fraction does not
    read. An exponent counts as past 4300 by its value alone: its leading
    zeros, of any script, are not counted. where prefixes the message, as for
    a string endpoint."""
    shown = repr(text if len(text) <= 40 else text[:37] + "...")
    if exponent > 4300:
        return NonRational, f"{where}refusing {shown}: decimal exponent larger than 4300 in magnitude"
    if sum(map(str.isdecimal, text)) > 4300:
        return NonRational, f"{where}refusing {shown}: more than 4300 digits"
    try:
        return Fraction(text)
    except ValueError:
        return NonRational, f"{where}not an exact rational: {shown}"


def _parsed(doc):
    # the one endpoint of the document, or the refusal it gets
    try:
        item = parse_sequence(doc).at(0)
    except (SchemaError, NonRational) as exc:
        return type(exc), str(exc)
    assert item.lo == item.hi
    return item.lo


@settings(max_examples=300, deadline=None)
@given(number=_number_texts())
def test_number_texts_decode_as_fraction_reads_them(number):
    # a number text as a JSON literal and as a string reads exactly as
    # Fraction(text), or is refused with the decoder's message
    literal, text, exponent = number
    doc = '{"u": [[%s, %s]]}' % (literal, literal)
    try:
        json.loads(doc)
    except json.JSONDecodeError as exc:   # a leading zero
        expected = (SchemaError, f"invalid JSON: {exc}")
    else:
        expected = _decoded(literal, exponent, "")
    assert _parsed(doc) == expected
    quoted = json.dumps(text)
    assert _parsed('{"u": [[%s, %s]]}' % (quoted, quoted)) == _decoded(text, exponent, "u[0][0]: ")


_PLAIN_DECIMALS_CHILD = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    from opialcheck import cli, rationals
    code = cli.main(["check", "--in", sys.argv[2]])
    print(code, rationals._exponent.__name__)
    rationals.rational_from_text("1e3")
    print(rationals._exponent.__name__)
""")


def test_plain_decimals_leave_the_exponent_pattern_uncompiled(tmp_path):
    # a document whose endpoints are plain decimals, as literals and as
    # strings, is checked without compiling the exponent pattern
    path = tmp_path / "decimals.json"
    path.write_text('{"u": [[0.0, 0.25], ["0.5", 1.75], [-0.125, "2.5"], [0.0, 0.0]]}')
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PLAIN_DECIMALS_CHILD, pkg_dir, str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # the pattern's search method replaces the function on the first call
    # that reads an exponent
    (code, name), compiled = (line.split() for line in proc.stdout.splitlines()[-2:])
    assert code in {"0", "1", "2"} and name == "_exponent" and compiled == ["search"]


def _json_loads_outcome(text):
    """What json.loads(text), with the decoder's hooks, gives: the value, or
    the error type and text that cli._json_loads_exact must give for it."""
    try:
        return json.loads(text, parse_float=rational_from_text, parse_constant=cli._reject)
    except json.JSONDecodeError as exc:
        return SchemaError, f"invalid JSON: {exc}"
    except RecursionError:
        return SchemaError, "invalid JSON: nested too deeply to decode"
    except (SchemaError, NonRational) as exc:
        return type(exc), str(exc)
    except ValueError:   # an int literal past the int-text limit
        return SchemaError, "refusing a number literal of more than 4300 digits"


def _decoder_outcome(text):
    try:
        return cli._json_loads_exact(text)
    except (SchemaError, NonRational) as exc:
        return type(exc), str(exc)


# documents at the edges of the decoder: a BOM, characters that are not JSON
# whitespace around a document, extra data, nothing at all, the non-finite
# constants, a leading zero, a raw control character, a bad escape, a trailing
# comma, duplicate keys, nesting past the recursion limit and an int literal
# past the digit limit
_DECODER_EDGES = {
    "bom": "\ufeff{}", "bom-only": "\ufeff", "form-feed-before": "\f{}",
    "form-feed-after": "{}\f", "no-break-space-before": "\u00a0{}",
    "no-break-space-after": "{}\u00a0", "line-separator-before": "\u2028{}",
    "line-separator-after": "{}\u2028", "json-whitespace": " \t\n\r{} \t\n\r",
    "extra-word": "{} x", "extra-object": "{}{}", "extra-after-lines": "{}\n\n]",
    "empty": "", "whitespace-only": " \n", "nan": "NaN", "minus-infinity": "-Infinity",
    "infinity-inside": '{"u": [[0, Infinity]]}', "leading-zero": "01",
    "leading-zero-inside": "[1, 01]", "control-character": '"a\x01b"',
    "bad-escape": '"\\q"', "lone-surrogate-escape": '"\\ud800"', "trailing-comma": "[1,]",
    "trailing-comma-in-object": '{"a": 1,}', "duplicate-keys": '{"a": 1, "a": 2}',
    "open-brackets": "[" * 100_000, "nested-brackets": "[" * 100_000 + "]" * 100_000,
    "long-int": "1" * 5000, "long-int-inside": "[%s]" % ("1" * 5000),
    "decimals": "[1.5, -0.25e3, 1E-2, 1e4301]", "bare-point-after": "1.",
    "bare-point-before": ".5", "cut-literal": "tru", "missing-colon": '{"u" 1}',
    "document": '{"u": [[0, 1]]}',
}


# scalar tokens json reads (its non-finite constants among them), and tokens
# it refuses
_JSON_TOKENS = st.sampled_from([
    "0", "-1", "12", "-0", "1.5", "-0.25e3", "1E-2", "2e+1", "true", "false", "null",
    '"a"', '"\\u00e9"', '""', '"\\ud800"', '"\\/"', "NaN", "Infinity", "-Infinity",
])
_BAD_TOKENS = st.sampled_from(["01", "1.", ".5", "1e", "tru", '"\\q"', '"\x01"', '"a'])


@st.composite
def _json_documents(draw):
    """A JSON text, with whitespace between its tokens (in one document of
    four, also spaces that JSON does not skip) and a token JSON refuses at
    about one place in ten, then up to two characters dropped, put in or
    replaced."""
    odd = draw(st.integers(0, 3)) == 0
    spaces = st.text(" \t\n\r\f\u00a0\u2028" if odd else " \t\n\r", max_size=2)

    def value(depth):
        kind = draw(st.integers(0, 2 if depth < 3 else 0))
        if kind == 0:
            return draw(_BAD_TOKENS if draw(st.integers(0, 9)) == 0 else _JSON_TOKENS)
        items = [value(depth + 1) for _ in range(draw(st.integers(0, 3)))]
        if kind == 1:
            return "[%s]" % ",".join(draw(spaces) + item + draw(spaces) for item in items)
        return "{%s}" % ",".join(f'{draw(spaces)}"{draw(st.sampled_from("abu"))}"'
                                 f"{draw(spaces)}:{item}" for item in items)

    text = draw(spaces) + value(0) + draw(spaces)
    for _ in range(draw(st.integers(0, 2))):
        if not text:
            break
        k = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(("drop", "insert", "replace")))
        char = "" if edit == "drop" else draw(st.sampled_from(',:[]{}" x0\ufeff\t'))
        text = text[:k] + char + text[k + (edit != "insert"):]
    return text


def _same_outcome(text):
    got, want = _decoder_outcome(text), _json_loads_outcome(text)
    # repr tells True from 1 and Fraction(1) from 1, and shows dict order
    assert repr(got) == repr(want), text[:80]


@pytest.mark.parametrize("text", _DECODER_EDGES.values(), ids=_DECODER_EDGES)
def test_decoder_matches_json_loads_at_its_edges(text):
    _same_outcome(text)


@settings(max_examples=500, deadline=None)
@given(text=_json_documents())
def test_decoder_matches_json_loads(text):
    _same_outcome(text)


# -- command driver -----------------------------------------------------------------


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_targeted_pass(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("tent_classical.json"),
        "--theorem", "T2_2", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["holds"] is True
    assert doc["verdict"]["lhs"] == 4
    assert doc["verdict"]["rhs"] == 4


def test_check_targeted_out_of_hypotheses(capsys):
    # ex33 breaks the monotonicity requirement, so the claim does not apply
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"),
        "--theorem", "T3_1", "--format", "json",
    ])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"]["in_hypotheses"] is False


def test_check_windowed_requires_window(capsys):
    code, _, err = run_cli(capsys, [
        "check", "--in", sample("ex32_n5.json"), "--theorem", "T3_2",
    ])
    assert code == 3
    assert "error:" in err

    code2, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex32_n5.json"), "--theorem", "T3_2",
        "--l1", "1", "--l2", "2", "--window", "2,5", "--format", "json",
    ])
    assert code2 == 0
    doc = json.loads(out)
    assert doc["verdict"]["lhs"] == "235/216"
    assert doc["verdict"]["rhs"] == "28/9"


def test_check_discovery(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["verdicts"]) == 8
    skipped = {row["theorem"] for row in doc["skipped"]}
    assert skipped == {"L3_02", "T3_2", "T3_4", "T4_2"}
    for row in doc["skipped"]:
        assert "window" in row["reason"]
    conforming = [v for v in doc["verdicts"] if v["in_hypotheses"]]
    assert conforming and all(v["holds"] for v in conforming)


def test_check_discovery_none_conforming(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text('{"u": [[1, 2], [3, 4]]}')
    code, out, _ = run_cli(capsys, ["check", "--in", str(path), "--format", "json"])
    assert code == 2
    doc = json.loads(out)
    assert all(not v["in_hypotheses"] for v in doc["verdicts"])


def test_check_discovery_pair(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("pair_t36.json"), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    names = {v["theorem"] for v in doc["verdicts"]}
    assert names == {"T3_6", "T3_8", "T3_10"}
    assert {row["theorem"] for row in doc["skipped"]} == {"T3_7", "T3_9"}


@pytest.mark.parametrize("flags,message", [
    (["--l1", "0"], "l1 must be >= 1, got 0"),
    (["--l1", "-5"], "l1 must be >= 1, got -5"),
    (["--l2", "0"], "l2 must be >= 1, got 0"),
])
def test_check_discovery_refuses_bad_exponents(capsys, flags, message):
    # a single sequence's exponents are checked once, before any statement,
    # with the message and exit code a named statement gives them
    argv = ["check", "--in", sample("ex33.json")] + flags
    assert run_cli(capsys, argv) == (3, "", f"error: {message}\n")
    assert run_cli(capsys, argv + ["--theorem", "T3_1"]) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["--in", sample("ex32_n5.json"), "--theorem", "T3_2", "--window", "a,b"],
     "--window expects two integers, got 'a,b'"),
    (["--in", sample("ex33.json"), "--theorem", "T3_6"], "T3_6 takes a pair; the input has no v"),
    (["--in", sample("pair_t36.json"), "--theorem", "T3_1"],
     "T3_1 takes a single sequence; drop v"),
    (["--in", sample("ex33.json"), "--theorem", "T3_1", "--alt-boundary"],
     "--alt-boundary applies only to T3_10"),
    (["--in", sample("ex33.json"), "--alt-boundary"],
     "--alt-boundary needs an explicit --theorem T3_10"),
], ids=["window", "pair-statement", "single-statement", "alt-boundary-statement",
        "alt-boundary-discovery"])
def test_check_usage_errors(capsys, argv, message):
    assert run_cli(capsys, ["check", *argv]) == (3, "", f"error: {message}\n")


def test_check_failed_verdict_exits_1_with_the_witness(capsys, monkeypatch):
    # no conforming input breaks a statement, so T2_2's in-hypotheses verdict
    # is turned into a failed one, as a counterexample would give it
    check = cli.check_single

    def failing(*args, **kwargs):
        verdict = check(*args, **kwargs)
        if verdict.theorem.value == "T2_2" and verdict.in_hypotheses:
            return opialcheck.replace(verdict, holds=False)
        return verdict

    monkeypatch.setattr(cli, "check_single", failing)
    code, out, _ = run_cli(capsys, ["check", "--in", sample("tent_classical.json"),
                                    "--theorem", "T2_2"])
    doc = json.loads(out)
    assert code == 1 and doc["verdict"]["holds"] is False
    assert doc["summary"] == "inequality FAILED under satisfied preconditions"
    assert doc["witness"] == doc["input"]
    code, out, _ = run_cli(capsys, ["check", "--in", sample("tent_classical.json")])
    doc = json.loads(out)
    assert code == 1
    assert doc["summary"] == "4 of 8 applicable, 1 failed"
    assert [v["theorem"] for v in doc["verdicts"] if not v["holds"]] == ["T2_2"]
    assert doc["witness"] == doc["input"]


def test_check_discovery_pair_ignores_exponents(capsys):
    plain = run_cli(capsys, ["check", "--in", sample("pair_t36.json")])
    assert run_cli(capsys, ["check", "--in", sample("pair_t36.json"), "--l1", "0"]) == plain
    assert plain[0] == 0


def test_check_discovery_skips_t2_2_on_other_exponents(capsys):
    code, out, _ = run_cli(capsys, ["check", "--in", sample("tent_classical.json"),
                                    "--l1", "2"])
    skipped = {row["theorem"]: row["reason"] for row in json.loads(out)["skipped"]}
    assert skipped["T2_2"] == "T2_2 has fixed exponents l1 = l2 = 1"
    assert code in (0, 2)


def test_check_discovery_notes_v_profile_alike_for_each_statement(capsys):
    # T3_8 (window omitted: m = e) and T3_10 both note v's profile on the
    # same indices, in the same words
    code, out, _ = run_cli(capsys, ["check", "--in", sample("pair_t36.json")])
    notes = [n for row in json.loads(out)["verdicts"] for n in row["notes"]
             if n.startswith("v on ")]
    assert code == 0 and len(notes) == 2 and notes[0] == notes[1]


def test_check_refuses_a_misaligned_pair_before_any_statement(capsys, tmp_path):
    # a pair whose lengths differ is an input error (exit 3) in discovery as
    # for a named statement, never a list of skipped statements
    path = tmp_path / "doc.json"
    path.write_text('{"u": [[0, 0], [1, 1]], "v": [[0, 0]]}')
    for extra in ([], ["--window", "0,1"], ["--theorem", "T3_6"]):
        code, out, err = run_cli(capsys, ["check", "--in", str(path), *extra])
        assert (code, out, err) == (3, "", "error: lengths differ: 2 vs 1\n"), extra


def test_check_documents_share_nothing_across_calls(capsys, tmp_path):
    # two documents of one shape, checked in turn in one process, print what
    # each prints in a process of its own: no analysis outlives its document
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"u": [[0, 0], [2, 3], [0, 0], [1, 5], [3, 4], [0, 0]]}))
    runs = [[str(other)], [sample("ex33.json")], [str(other), "--l1", "2", "--l2", "3"],
            [sample("ex33.json"), "--l1", "2", "--l2", "3", "--window", "2,5"],
            [sample("pair_t36.json")]]
    in_turn = [run_cli(capsys, ["check", "--in", *argv]) for argv in runs]
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_dir, env.get("PYTHONPATH")) if p)
    for argv, (code, out, err) in zip(runs, in_turn):
        proc = subprocess.run([sys.executable, "-m", "opialcheck", "check", "--in", *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
    assert in_turn[0][1] != in_turn[1][1]


def test_check_alt_boundary_guard(capsys):
    code, _, err = run_cli(capsys, [
        "check", "--in", sample("pair_t36.json"),
        "--theorem", "T3_6", "--alt-boundary",
    ])
    assert code == 3
    assert "alt_boundary" in err


def test_classify_single(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--in", sample("ex33.json"), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["u"]["direction"] == "non-monotone"
    assert doc["u"]["mu_direction"] == "mu-non-monotone"
    assert doc["u"]["segments"]["breakpoints"] == [0, 3, 5]
    parts = doc["u"]["segments"]["segments"]
    assert [p["profile"]["direction"] for p in parts] == ["increasing", "decreasing"]


def test_classify_pair(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--in", sample("pair_t36.json"), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"u", "v", "synchrony"}
    assert doc["synchrony"] == "synchronous"


def test_classify_reports_what_it_cannot_decide(capsys, tmp_path):
    # u's step [0, 3] -> [1, 2] keeps neither LU order, and v is longer
    path = tmp_path / "doc.json"
    path.write_text('{"u": [[0, 3], [1, 2]], "v": [[0, 0], [1, 1], [2, 2]]}')
    code, out, _ = run_cli(capsys, ["classify", "--in", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["u"]["segments"] is None
    assert doc["u"]["segments_error"] == "no monotone order for the step 0 -> 1"
    assert doc["synchrony"] is None and doc["synchrony_error"] == "lengths differ: 2 vs 3"


def test_fuzz_clean_exit_zero(capsys):
    code, out, _ = run_cli(capsys, [
        "fuzz", "--theorem", "T2_2", "--trials", "40", "--seed", "3",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["trials_run"] == 40
    assert doc["violations"] == []


def test_fuzz_relax_exit_one(capsys):
    code, out, _ = run_cli(capsys, [
        "fuzz", "--theorem", "T2_2", "--trials", "200", "--seed", "0",
        "--relax", "last_zero", "--format", "json",
    ])
    assert code == 1
    doc = json.loads(out)
    assert len(doc["violations"]) == 9
    assert doc["violations"][0]["verdict"]["holds"] is False


RELAX_PAIRS = [
    (spec.id.value, f"{a},{b}")
    for spec in registry()
    for a, b in itertools.combinations(spec.preconditions, 2)
]


@pytest.mark.parametrize("theorem,relax", RELAX_PAIRS)
def test_fuzz_relax_pairs_exit_cleanly(capsys, theorem, relax):
    # a combination the mutation table cannot break at a drawn length is a
    # usage error (exit 3), never an uncaught exception or a false exit 1
    code, out, err = run_cli(capsys, [
        "fuzz", "--theorem", theorem, "--relax", relax,
        "--trials", "200", "--seed", "0", "--format", "json",
    ])
    assert code in (0, 1, 3)
    if code == 3:
        assert err.startswith("error: could not violate") and out == ""
    else:
        assert json.loads(out)["trials_run"] == 200


@pytest.mark.parametrize("theorem,relax", [
    ("T3_1", "monotone,mu_increasing"),
    ("T3_5", "first_zero,alternate"),
    ("T4_5", "last_zero,alternate"),
])
def test_fuzz_relax_uncovered_combination_is_usage_error(
    capsys, monkeypatch, theorem, relax
):
    # a relax set the mutation table cannot break is a usage error (exit 3);
    # these sets now run to completion, so the table is made to break nothing
    monkeypatch.setattr(opialcheck.oracle, "_mutate", lambda *args: False)
    code, out, err = run_cli(capsys, [
        "fuzz", "--theorem", theorem, "--relax", relax,
        "--trials", "20", "--seed", "0",
    ])
    assert code == 3
    assert err.startswith("error: could not violate") and out == ""


def test_scan_exit_codes(capsys):
    code, out, _ = run_cli(capsys, [
        "scan", "--theorem", "T2_2", "--length", "4", "--bound", "2",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0

    code2, _, err = run_cli(capsys, [
        "scan", "--theorem", "T3_6", "--length", "6", "--bound", "8",
        "--budget", "1000",
    ])
    assert code2 == 3
    assert "budget" in err


def test_examples_command(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--format", "json"])
    assert code == 0
    reports = json.loads(out)
    assert [r["example"] for r in reports] == ["3.1", "3.2", "3.3a", "3.3b"]
    assert [r["match"] for r in reports] == [True, True, False, False]


def test_check_default_format_is_json(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"), "--theorem", "T3_5",
        "--l1", "2", "--l2", "3",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["rhs"] == "31104/5"


def test_json_output_is_float_free(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex32_n5.json"), "--theorem", "T3_2",
        "--l1", "1", "--l2", "2", "--window", "2,5", "--format", "json",
    ])
    assert code == 0

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


# strings with non-ASCII, control characters, quotes, backslashes and lone
# surrogates; ints beyond 64 bits
_json_strings = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\U0001f600'),
), max_size=12)
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.integers(-10**40, 10**40), _json_strings)
# two-element lists of scalars, which the writer writes in one step inside a
# list (an echoed [lo, hi]), beside lists and dicts of any size
_json_pairs = st.lists(_json_scalars, min_size=2, max_size=2)
_json_values = st.recursive(
    st.one_of(_json_scalars, _json_pairs),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_json_strings, inner, max_size=4)),
    max_leaves=30,
)


class _Int(int):
    pass


# values a report never holds: floats, a Fraction, tuples, an int subclass,
# dicts with keys other than str
_REFUSED = [1.5, -0.0, Fraction(1, 2), (1, 2), (), _Int(3), {1: "a"}, {None: 0}]


@settings(max_examples=300, deadline=None)
@given(obj=_json_values, bad=st.sampled_from(_REFUSED), in_dict=st.booleans(),
       pair=_json_pairs, scalar=_json_scalars,
       container=st.one_of(st.lists(_json_values, max_size=3),
                           st.dictionaries(_json_strings, _json_values, max_size=3)),
       first=st.booleans())
def test_json_writer_matches_json_dumps(obj, bad, in_dict, pair, scalar, container, first):
    # the report writer gives json.dumps(obj, indent=2) byte for byte, and
    # refuses every type a report does not hold, at any depth
    assert cli._json_text(obj) == json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        cli._json_text({"k": [obj, bad]} if in_dict else [obj, {"k": bad}])
    # a pair of scalars, a pair holding a container and a pair holding a
    # refused value, in either slot, in a list below a dict, a list and a dict
    mixed = [scalar, container] if first else [container, scalar]
    doc = {"a": [{"pair": pair, "mixed": mixed, "more": [pair, obj, mixed]}]}
    assert cli._json_text(doc) == json.dumps(doc, indent=2)
    refused = [scalar, bad] if first else [bad, scalar]
    with pytest.raises(TypeError):
        cli._json_text({"a": [{"more": [pair, refused]}]} if in_dict
                       else [{"a": [refused, pair]}])


def test_table_format_smoke(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"), "--theorem", "T3_5",
        "--l1", "2", "--l2", "3",
    ])
    assert code == 0
    assert "T3_5" in out
    assert "704" in out
    assert "31104/5" in out


def test_table_prints_an_empty_value_on_its_key_line(capsys):
    assert cli._tableize({"a": [], "b": {}, "c": [[], {"d": []}], "e": 1}) == (
        "a: []\nb: {}\nc:\n  - []\n  -\n    d: []\ne: 1")
    code, out, _ = run_cli(capsys, ["check", "--in", sample("ex33.json"), "--theorem", "T3_5",
                                    "--format", "table"])
    assert code == 0 and "  notes: []\n" in out and "\n\n" not in out


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["check", "--in", "/nonexistent.json"])
    assert code == 3 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code2, _, err2 = run_cli(capsys, ["check", "--in", str(bad)])
    assert code2 == 3 and "invalid JSON" in err2

    code3, _, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"), "--theorem", "T99",
    ])
    assert code3 == 3

    code4, _, _ = run_cli(capsys, [])
    assert code4 == 3


# "--" attached as an option's value is that value on every Python: argparse
# on 3.10-3.12 dropped it and handed the command [], where 3.13 kept it
DASH_DASH_VALUES = {
    "in": (["check", "--in=--"], "No such file or directory: '--'"),
    "format": (["scan", "--theorem", "T3_1", "--length", "3", "--bound", "1", "--format=--"],
               "argument --format: invalid choice: '--'"),
    "l1": (["check", "--in", sample("ex33.json"), "--l1=--"],
           "argument --l1: invalid int value: '--'"),
    "relax": (["fuzz", "--theorem", "T3_5", "--trials", "1", "--relax=--"],
              "relax names ['--'] are not preconditions of T3_5"),
}


@pytest.mark.parametrize("argv,message", DASH_DASH_VALUES.values(), ids=DASH_DASH_VALUES)
def test_attached_dash_dash_is_the_value(capsys, argv, message):
    assert cli._parse_canonical(argv) is None
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert message in err
    assert "not list" not in err


# call sequences, with their exit codes, in which a parser that kept state
# from one call would change the next: a flag, --help, a usage error, an
# option's value
REUSE_SEQUENCES = {
    "alt_boundary": [
        (["check", "--in", sample("pair_t36.json"), "--theorem", "T3_10",
          "--alt-boundary"], 2),
        (["check", "--in", sample("pair_t36.json"), "--theorem", "T3_10"], 2),
    ],
    "help": [
        (["--help"], 0),
        (["check", "--in", sample("tent_classical.json"), "--theorem", "T2_2"], 0),
    ],
    "usage_error": [
        (["check", "--theorem", "T2_2"], 3),
        (["check", "--in", sample("tent_classical.json"), "--theorem", "T2_2"], 0),
    ],
    "relax": [
        (["fuzz", "--theorem", "T2_2", "--relax", "last_zero", "--trials", "60"], 1),
        (["fuzz", "--theorem", "T2_2", "--trials", "60"], 0),
    ],
}


@pytest.mark.parametrize("calls", REUSE_SEQUENCES.values(), ids=REUSE_SEQUENCES)
def test_parser_reuse_leaks_no_state(capsys, monkeypatch, calls):
    # each call of the sequence on the one cached parser gives what a
    # freshly built parser gives it; the canonical parser declines every
    # argv, so each call reaches argparse
    monkeypatch.setattr(cli, "_parse_canonical", lambda argv: None)
    fresh = []
    for argv, _ in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    cli._build_parser.cache_clear()
    reused = [run_cli(capsys, argv) for argv, _ in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [code for _, code in calls]
    assert reused[0][1:] != reused[1][1:]


def test_help_exits_zero(capsys):
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["check", "--help"])[0] == 0


# argv pieces for the canonical parser: each command's options with values
# drawn for them (None: a flag given bare; a flag given a value is left to
# argparse, which refuses it), options and abbreviations it must leave to
# argparse, values of every kind argparse reads differently, and stray tokens
_NUMBERS = ("0", "1", "2", "3", "-5", " 3", "+3", "3_0", "\u0663", "", "x")
_FORMATS = ("json", "table", "xml")
_OPTION_VALUES = {
    "check": {
        "--in": (sample("ex33.json"), sample("pair_t36.json"), sample("tent_classical.json"),
                 "/nonexistent.json", ""),
        "--theorem": ("T3_5", "T2_2", "T3_10", "T99", ""),
        "--l1": ("1", "2", "-5", " 3", "+3", "3_0", "\u0663", "x"),
        "--l2": ("1", "2", "-5", " 3", "+3", "3_0", "\u0663", "x"),
        "--window": ("1,3", "-1,3", "0,2", "x"),
        "--alt-boundary": (None, None, "x"),
        "--format": _FORMATS,
    },
    "classify": {
        "--in": (sample("ex33.json"), sample("pair_t36.json"), "/nonexistent.json", ""),
        "--strict": (None, None, ""),
        "--format": _FORMATS,
    },
    "fuzz": {
        "--theorem": ("T3_5", "T2_2", "T99", ""),
        "--trials": _NUMBERS,
        "--seed": _NUMBERS,
        "--relax": ("", "last_zero", "first_zero,last_zero", " last_zero , ", "bogus", "a=b"),
        "--format": _FORMATS,
    },
    "scan": {
        "--theorem": ("T3_1", "T2_2", "T3_10", "T99", ""),
        "--l1": _NUMBERS,
        "--l2": _NUMBERS,
        "--length": ("1", "2", "3", "-5", " 3", "+3", "\u0663", "", "x"),
        "--bound": ("0", "1", "-5", " 1", "+1", "1_0", "", "x"),
        "--budget": ("10", "200000", "-5", " 30", "3_0", "", "x"),
        "--format": _FORMATS,
    },
    "examples": {"--format": _FORMATS},
}
# the options each command requires, with valid values
_REQUIRED = {
    "check": ["--in", sample("ex33.json")],
    "classify": ["--in", sample("ex33.json")],
    "fuzz": ["--theorem", "T3_5"],
    "scan": ["--theorem", "T3_1", "--length", "3", "--bound", "1"],
    "examples": [],
}
_ALL_FLAGS = sorted({flag for options in _OPTION_VALUES.values() for flag in options})
_ANY_VALUES = sorted({v for options in _OPTION_VALUES.values() for values in options.values()
                        for v in values if v is not None} | {"--", "-", "a=b"})
_ODD_FLAGS = ("--help", "--bogus", "--the", "--tri", "--l", "--i", "--form")
_STRAY_TOKENS = ("--", "-h", "-x", "stray", "")


@st.composite
def _check_argvs(draw):
    command = draw(st.sampled_from(("check",) * 6 + ("classify", "fuzz", "scan", "examples") * 2
                                   + ("checks", "--help")))
    options = _OPTION_VALUES.get(command, _OPTION_VALUES["check"])
    argv = [command]
    if draw(st.booleans()):
        argv += _REQUIRED.get(command, _REQUIRED["check"])
    # a third of the lists hold only the command's options, without
    # repeats, each with a value drawn for it, which the canonical parser
    # may accept; a third are the same with the first option abbreviated; a
    # third hold anything
    mode = draw(st.sampled_from(("canonical", "abbreviated", "any")))
    count = draw(st.integers(0, len(options)))
    if mode == "any":
        flags = [draw(st.sampled_from(_ALL_FLAGS + list(_ODD_FLAGS))) for _ in range(count)]
        forms = ("separate", "attached", "bare", "stray")
    else:
        flags = draw(st.permutations(tuple(options)))[:count]
        if len(argv) > 1 and draw(st.integers(0, 3)):
            # mostly no repeat of the required options given above
            flags = [flag for flag in flags if flag not in argv]
        forms = ("separate", "attached")
    for j, flag in enumerate(flags):
        form = draw(st.sampled_from(forms))
        value = draw(st.sampled_from(_ANY_VALUES if mode == "any" else options[flag]))
        if mode == "abbreviated" and j == 0:
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        if value is None:
            argv.append(flag)
        elif form == "separate":
            argv += [flag, value]
        elif form == "attached":
            argv.append(f"{flag}={value}")
        elif form == "bare":
            argv.append(draw(st.sampled_from((flag, f"{flag}="))))
        else:
            argv.append(draw(st.sampled_from(_STRAY_TOKENS)))
    return argv


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1500, deadline=None)
@given(argv=_check_argvs())
def test_check_parser_namespace_matches_argparse(argv):
    fast = cli._parse_canonical(argv)
    if fast is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            slow = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}, which the canonical parser accepts")
    assert vars(fast) == vars(slow)


@settings(max_examples=300, deadline=None)
@given(argv=_check_argvs())
def test_check_parser_leaves_output_unchanged(argv):
    # every argv gives what it gives when argparse parses it
    fast = _run_captured(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_canonical", lambda argv: None)
        slow = _run_captured(argv)
    assert fast == slow


# the forms each command is given, which take the parser without argparse
CANONICAL_FORMS = [
    ["check", "--in", sample("ex33.json")],
    ["check", "--in", sample("ex33.json"), "--theorem", "T3_5", "--l1", "2", "--l2", "3",
     "--format", "table"],
    ["check", "--in=" + sample("ex33.json"), "--window=-1,3", "--format=json"],
    ["check", "--alt-boundary", "--in", sample("pair_t36.json"), "--theorem", "T3_10"],
    ["classify", "--in", sample("ex33.json")],
    ["classify", "--strict", "--format", "table", "--in=" + sample("ex33.json")],
    ["fuzz", "--theorem", "T3_5", "--trials", "1"],
    ["fuzz", "--relax=first_zero,last_zero", "--seed=-3", "--theorem=T2_2", "--trials", "60",
     "--format", "table"],
    ["fuzz", "--theorem", "T2_2", "--relax", ""],
    ["scan", "--theorem", "T3_1", "--length", "3", "--bound", "1"],
    ["scan", "--bound=1", "--length=3", "--theorem=T3_6", "--l1", "2", "--l2", "3",
     "--budget", "500", "--format", "json"],
    ["examples"],
    ["examples", "--format=table"],
]


def test_check_parser_accepts_canonical_forms():
    for argv in CANONICAL_FORMS:
        args = cli._parse_canonical(argv)
        assert args is not None and vars(args) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.skipif(shutil.which("opialcheck") is None,
                    reason="console script not on PATH (pip install -e .)")
def test_console_script_installed():
    exe = shutil.which("opialcheck")
    assert exe is not None
    proc = subprocess.run(
        [exe, "examples", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["example"] == "3.1"


def test_module_entry_point():
    # run the package under test, from the repo root, wherever pytest started
    root = Path(__file__).resolve().parents[1]
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "opialcheck", "check",
         "--in", "samples/tent_classical.json", "--theorem", "T2_2"],
        capture_output=True, text=True, timeout=120, cwd=root, env=env,
    )
    assert proc.returncode == 0


# the stdlib modules whose import once made up most of the package's start-up
_COLD_START_HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis")

_COLD_START_CHILD = textwrap.dedent("""
    import contextlib, io, sys
    sys.path.insert(0, sys.argv[1])
    import opialcheck
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [opialcheck.main(["check", "--in", sys.argv[2]]),
                 opialcheck.main(["fuzz", "--theorem", "T3_5", "--trials", "1"]),
                 opialcheck.main(["scan", "--theorem", "T3_1", "--length", "3",
                                  "--bound", "1"])]
    print(codes, sorted(set(sys.argv[3:]) & set(sys.modules)))
""")


def test_cold_start_imports_no_heavy_stdlib_module():
    # isolated and without site, so nothing but the package imports them
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _COLD_START_CHILD, pkg_dir,
         str(SAMPLES / "ex33.json"), *_COLD_START_HEAVY],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] []\n"


# what a plain check does not run, so must not load: site preloads random
# and shutil, hence -S below
_PLAIN_CHECK_UNUSED = ("opialcheck.oracle", "random", "argparse", "gettext", "locale", "shutil",
                       "json", "json.decoder", "json.encoder", "json.scanner")

_PLAIN_CHECK_CHILD = textwrap.dedent("""
    import contextlib, io, sys
    sys.path.insert(0, sys.argv[1])
    import opialcheck
    with contextlib.redirect_stdout(io.StringIO()):
        code = opialcheck.main(["check", "--in", sys.argv[2]])
    loaded = sorted(set(sys.argv[3:]) & set(sys.modules))
    submodule = opialcheck.oracle.__name__
    from opialcheck import fuzz, ratio_scan, BudgetExceeded
    unresolved = [name for name in opialcheck.__all__ if not hasattr(opialcheck, name)]
    print(code, loaded, submodule, unresolved)
""")


def test_cold_plain_check_loads_only_what_it_runs():
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PLAIN_CHECK_CHILD, pkg_dir,
         str(SAMPLES / "ex33.json"), *_PLAIN_CHECK_UNUSED],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 [] opialcheck.oracle []\n"


_COLD_INVALID_CHILD = textwrap.dedent("""
    import contextlib, io, sys
    sys.path.insert(0, sys.argv[1])
    import opialcheck
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = opialcheck.main(["check", "--in", sys.argv[2]])
    print(code, err.getvalue(), end="")
""")


# a document for each error the decoder gives
_INVALID_JSON = {
    "empty": "", "bom": "\ufeff{}", "not-json-space": "\f{}", "extra-data": '{"u": []} x',
    "trailing-comma": '{"u": [[0, 1],]}', "trailing-comma-in-object": '{"u": [],}',
    "bad-escape": '"\\q"', "bad-unicode-escape": '"\\u12"', "control-character": '"a\x01"',
    "unterminated-string": '"abc', "unquoted-key": "{u: []}", "missing-colon": '{"u" []}',
    "missing-comma": '{"u": [] "v": []}', "missing-comma-in-array": "[1 2]",
}


@pytest.mark.parametrize("doc", _INVALID_JSON.values(), ids=_INVALID_JSON)
def test_cold_check_refuses_invalid_json_with_its_text(tmp_path, doc):
    # json is first imported on the error path, and gives the error its text
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as info:
        json.loads(doc)
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _COLD_INVALID_CHILD, pkg_dir, str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"3 error: invalid JSON: {info.value}\n"


# what a canonical fuzz or scan does not run, so must not load: neither
# decodes JSON; random and oracle stay, as both commands use them
_FUZZ_SCAN_UNUSED = ("argparse", "gettext", "locale",
                     "json", "json.decoder", "json.encoder", "json.scanner")

_FUZZ_SCAN_CHILD = textwrap.dedent("""
    import contextlib, io, sys
    sys.path.insert(0, sys.argv[1])
    import opialcheck
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [opialcheck.main(["fuzz", "--theorem", "T3_5", "--trials", "1"]),
                 opialcheck.main(["scan", "--theorem", "T3_1", "--length", "3",
                                  "--bound", "1"])]
    loaded = sorted(set(sys.argv[2:]) & set(sys.modules))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        argparse_codes = [opialcheck.main(["--help"]),
                          opialcheck.main(["scan", "--theorem", "T3_1"])]
    print(codes, loaded, argparse_codes)
""")


def test_cold_fuzz_and_scan_skip_argparse():
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _FUZZ_SCAN_CHILD, pkg_dir, *_FUZZ_SCAN_UNUSED],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] [] [0, 3]\n"


# cli takes encode_basestring_ascii and its scanner from the C module _json,
# and from json on an interpreter without it; reports read the same either
# way, and each edge document decodes as with the C scanner, or is refused
# with the text json.loads gives it there (json's Python scanner words two
# errors apart from the C one)
_NO_C_JSON_CHILD = textwrap.dedent(r"""
    import pickle, sys
    sys.path.insert(0, sys.argv[1])
    sys.modules["_json"] = None
    from opialcheck import cli
    from opialcheck.rationals import NonRational, rational_from_text
    import json, json.encoder
    obj = {"k\u00e9y": ["a\"b\\c/\x00\x1f\x7f\u2028\ud800\U0001f600", 2 ** 70, None, True],
           "": {}, "l": [[], {"x": False}]}
    print(cli.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii,
          cli._json_text(obj) == json.dumps(obj, indent=2), cli.make_scanner)
    values, unlike = [], []
    for name, text in pickle.loads(sys.stdin.buffer.read()).items():
        try:
            got = cli._json_loads_exact(text)
            values.append(got)
        except (cli.SchemaError, NonRational) as exc:
            got = type(exc), str(exc)
        try:
            want = json.loads(text, parse_float=rational_from_text, parse_constant=cli._reject)
        except json.JSONDecodeError as exc:
            want = cli.SchemaError, f"invalid JSON: {exc}"
        except RecursionError:
            want = cli.SchemaError, "invalid JSON: nested too deeply to decode"
        except (cli.SchemaError, NonRational) as exc:
            want = type(exc), str(exc)
        except ValueError:
            want = cli.SchemaError, "refusing a number literal of more than 4300 digits"
        if repr(got) != repr(want):
            unlike.append(name)
    print(unlike)
    print(repr(values))
""")


def test_json_writer_without_the_c_encoder():
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _NO_C_JSON_CHILD, pkg_dir],
        input=pickle.dumps(_DECODER_EDGES), capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    written, unlike, values = proc.stdout.decode().splitlines()
    assert (written, unlike) == ("True True None", "[]")
    decoded = [out for out in map(_decoder_outcome, _DECODER_EDGES.values())
               if type(out) is not tuple]
    assert values == repr(decoded)
    import json.encoder

    assert cli.encode_basestring_ascii is json.encoder.encode_basestring_ascii


def test_lazy_oracle_names_are_the_oracle_names():
    from opialcheck import oracle

    assert oracle.BudgetExceeded is theorems.BudgetExceeded is opialcheck.BudgetExceeded
    assert cli.BudgetExceeded is theorems.BudgetExceeded
    for name in ("fuzz", "ratio_scan", "reproduce_examples", "FuzzConfig"):
        assert getattr(cli, name) is getattr(oracle, name) is getattr(opialcheck, name)
    assert set(opialcheck.__all__) <= set(dir(opialcheck))
    with pytest.raises(AttributeError):
        opialcheck.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_each_public_name_is_its_owner_modules_name():
    # every name written once, under the submodule that defines it
    owners = opialcheck._NAMES
    assert sum(map(len, owners.values())) == len(opialcheck._OWNER) == 65
    assert opialcheck.__all__ == [*sorted(opialcheck._OWNER), "__version__"]
    for module, names in owners.items():
        assert getattr(opialcheck, module).__name__ == f"opialcheck.{module}"
        for name in names:
            assert getattr(opialcheck, name) is getattr(getattr(opialcheck, module), name)


_BARE_IMPORT_CHILD = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    import opialcheck
    print(sorted(name for name in sys.modules if name.startswith("opialcheck")))
""")


def test_bare_import_loads_no_submodule():
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _BARE_IMPORT_CHILD, pkg_dir],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['opialcheck']\n"


_CALL_TIME_CHILD = textwrap.dedent("""
    import contextlib, io, sys
    sys.path.insert(0, sys.argv[1])
    from opialcheck import cli

    class Report:
        violations = 0

        def to_jsonable(self):
            return {}

    calls = []

    def fake(name):
        def call(*args, **kwargs):
            calls.append(name)
            return Report()
        return call

    loaded = "opialcheck.oracle" in sys.modules
    cli.ratio_scan = fake("ratio_scan")
    cli.fuzz = fake("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["scan", "--theorem", "T3_1", "--length", "3", "--bound", "1"]),
                 cli.main(["fuzz", "--theorem", "T3_5", "--trials", "1"])]
    print(loaded, codes, calls)
""")


def test_oracle_names_are_looked_up_at_call_time():
    # a fresh process, so the patch lands before oracle is imported: the
    # handlers must call the replacements (perfbench/tracing.py wraps them)
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _CALL_TIME_CHILD, pkg_dir],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False [0, 0] ['ratio_scan', 'fuzz']\n"


NON_STRING_ARGVS = {
    "int_value": ["scan", "--theorem", "T3_1", "--length", 3, "--bound", "1"],
    "int_command": [3],
    "none_flag": ["check", None],
    "path_value": ["check", "--in", SAMPLES / "ex33.json"],
}


@pytest.mark.parametrize("argv", NON_STRING_ARGVS.values(), ids=NON_STRING_ARGVS)
def test_non_string_token_exits_3(capsys, argv):
    # refused once, before either parser reads the argv
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not a string" in err


def test_window_without_comma_exits_3(capsys):
    code, out, err = run_cli(capsys, [
        "check", "--in", sample("ex32_n5.json"), "--theorem", "T3_2", "--window", "1",
    ])
    assert code == 3 and out == ""
    assert "--window expects n,m" in err


def test_oracle_names_bind_on_first_read(monkeypatch):
    from opialcheck import oracle

    for name in cli._ORACLE_NAMES:
        monkeypatch.delitem(vars(cli), name, raising=False)
    assert cli.fuzz is oracle.fuzz
    assert all(vars(cli)[name] is getattr(oracle, name) for name in cli._ORACLE_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        cli.nowhere

"""Command-line front end.

Reads sequence files shaped like

    {"u": [[0, 0], [1, 2], ["1/2", "3/4"]], "v": [...], "base_index": 0}

where endpoints are integers, exact decimal literals, or "p/q" strings.
Floats that cannot be stated exactly must be rewritten as strings; the
parser never rounds.

Exit codes: 0 the checked inequality holds (or the command simply
succeeded), 1 an in-hypotheses verdict failed (the output carries the
witness), 2 preconditions unsatisfied, 3 bad input or usage.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from fractions import Fraction

try:
    # the C encoder and scanner json itself uses: a command that succeeds
    # never imports json, which only a decoding error loads
    from _json import encode_basestring_ascii, make_scanner
except ImportError:   # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii
    make_scanner = None

from .intervals import _check_exponent
from .rationals import (
    NonRational, _shown, as_rational, int_digit_limit, ratio_to_json, rational_from_text,
)
from .sequences import (
    IntervalSequence, NotDecomposable, _check_aligned, input_to_jsonable, synchronous,
)
from .theorems import (
    BudgetExceeded, OutputTooLarge, _Analysis, _guard, check_pair, check_single, lookup,
    registry,
)

# the oracle names the fuzz, scan and examples handlers call. They are bound
# in this module on first use, not at import, so a plain check never loads
# oracle; each stays a module attribute that a caller may replace
_ORACLE_NAMES = ("FuzzConfig", "fuzz", "ratio_scan", "reproduce_examples")


def _load_oracle():
    from . import oracle

    names = globals()
    for name in _ORACLE_NAMES:
        # a name already bound (replaced by a caller) is kept
        names.setdefault(name, getattr(oracle, name))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        _load_oracle()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SchemaError(ValueError):
    """Input document does not match the expected schema."""


_ALLOWED_KEYS = {"u", "v", "base_index"}


def _key_order(key):
    # strings first, in their own order; any other key after them, by type
    # name and shown text, so a mixed set sorts alike under every hash seed
    return ("", key) if isinstance(key, str) else (type(key).__name__, _shown(key))


def _reject(name):
    raise SchemaError(f"non-finite number {name} is not accepted")


# json.loads(text, parse_float=rational_from_text, parse_constant=_reject),
# split as json.JSONDecoder.decode splits it: the scanner reads one value at
# an index, and decode skips the whitespace " \t\n\r" around it. parse_float
# sees the literal digits, so decimal notation stays exact
if make_scanner is None:
    from json import JSONDecoder

    _scan_once = JSONDecoder(parse_float=rational_from_text, parse_constant=_reject).scan_once
else:
    _scan_once = make_scanner(types.SimpleNamespace(
        strict=True, object_hook=None, object_pairs_hook=None,
        parse_float=rational_from_text, parse_int=int, parse_constant=_reject,
    ))

_JSON_SPACE = " \t\n\r"


def _scan(text, start):
    try:
        return _scan_once(text, start)
    except SystemError:
        # the C scanner of Python 3.10 and 3.11 takes JSONDecodeError from a
        # json.decoder already imported, and without one fails this way;
        # with it imported, the same scan raises the error json.loads gives
        import json.decoder

        return _scan_once(text, start)


def _invalid_json(message, text, pos):
    # the text json.loads gives the error; json is loaded only here
    from json.decoder import JSONDecodeError

    return SchemaError(f"invalid JSON: {JSONDecodeError(message, text, pos)}")


def _json_loads_exact(text):
    if text.startswith("\ufeff"):
        raise _invalid_json("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        value, end = _scan(text, len(text) - len(text.lstrip(_JSON_SPACE)))
    except StopIteration as exc:
        raise _invalid_json("Expecting value", text, exc.value) from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply to decode") from None
    except SchemaError:
        raise
    except ValueError as exc:
        # the scanner's JSONDecodeError, or an int literal past the int-text limit
        from json.decoder import JSONDecodeError

        if isinstance(exc, JSONDecodeError):
            raise SchemaError(f"invalid JSON: {exc}") from None
        raise SchemaError(f"refusing a number literal of more than {int_digit_limit()}"
                          " digits") from None
    extra = text[end:].lstrip(_JSON_SPACE)
    if extra:
        raise _invalid_json("Extra data", text, len(text) - len(extra))
    return value


def _endpoint(value, key, j, side):
    try:
        return as_rational(value)
    except NonRational as exc:
        raise type(exc)(f"{key}[{j}][{side}]: {exc}") from None


def _ratio(value, key, j, side):
    """(p, q), q >= 1, of an endpoint in lowest terms. An int, a Fraction
    (a decimal literal as the decoder reads it), or an ASCII "p" or "p/q"
    string (p optionally negative, q > 0), goes straight to ints; every
    other value is read by _endpoint, with its errors."""
    if type(value) is int:
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den or 1)
            except ValueError:   # longer than the interpreter reads as int text
                q = 0
            if q:
                g = math.gcd(p, q)
                return p // g, q // g
    exact = _endpoint(value, key, j, side)
    return exact.numerator, exact.denominator


def _parse_items(raw, key, base):
    # straight to the common denominator D and the integer endpoints
    if not isinstance(raw, list):
        raise SchemaError(f"{key}: expected a list of [lo, hi] pairs")
    los, his = [], []
    for j, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError(f"{key}[{j}]: expected a two-element [lo, hi] pair")
        lo = _ratio(entry[0], key, j, 0)
        hi = _ratio(entry[1], key, j, 1)
        if lo[0] * hi[1] > hi[0] * lo[1]:
            raise SchemaError(f"{key}[{j}]: lower bound {ratio_to_json(*lo)}"
                              f" exceeds upper bound {ratio_to_json(*hi)}")
        los.append(lo)
        his.append(hi)
    D = math.lcm(*[q for _, q in los], *[q for _, q in his])
    return IntervalSequence._from_ints(
        D, [p * (D // q) for p, q in los], [p * (D // q) for p, q in his], base
    )


def parse_sequence(document):
    """Build a sequence, or a (u, v) pair, from a JSON document.

    Accepts the raw JSON text or an already-parsed dict. Unknown keys
    are rejected so typos fail loudly instead of being ignored.
    """
    doc = _json_loads_exact(document) if isinstance(document, str) else document
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    unknown = sorted(set(doc) - _ALLOWED_KEYS, key=_key_order)
    if unknown:
        # at most two keys are quoted, each up to 40 characters
        more = f" and {len(unknown) - 2} more" if len(unknown) > 2 else ""
        raise SchemaError(f"unknown keys: [{', '.join(map(_shown, unknown[:2]))}]{more}"
                          " (allowed: u, v, base_index)")
    if "u" not in doc:
        raise SchemaError("missing required key: u")
    base = doc.get("base_index", 0)
    if isinstance(base, bool) or not isinstance(base, int):
        raise SchemaError(f"base_index: expected an integer, got {_shown(base)}")
    u = _parse_items(doc["u"], "u", base)
    if "v" in doc:
        v = _parse_items(doc["v"], "v", base)
        return (u, v)
    return u


# the inverse of parse_sequence up to lowest-terms normalization
sequence_to_jsonable = input_to_jsonable


# -- output -------------------------------------------------------------------


def _tableize(payload, indent=0):
    # payload is a dict or a list: _emit passes nothing else, nor does the recursion
    pad = "  " * indent
    items = (((f"{key}:", val) for key, val in payload.items()) if isinstance(payload, dict)
             else (("-", val) for val in payload))
    lines = []
    for head, val in items:
        if isinstance(val, (dict, list)) and val:
            lines.append(f"{pad}{head}")
            lines.append(_tableize(val, indent + 1))
        else:
            # a scalar, or an empty list or dict as [] or {}
            lines.append(f"{pad}{head} {val}")
    return "\n".join(lines)


# the text of each scalar a report holds, by exact type, as json.dumps gives it
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj, pad="\n"):
    """``json.dumps(obj, indent=2)``, byte for byte, for exactly the types a
    report holds: dicts with str keys, lists, str, int, bool and None. Any
    other value, a subclass of these included, raises TypeError.

    A scalar inside a container is written in place, and a list of two
    scalars inside a list (every echoed [lo, hi]) in one step."""
    scalars = _JSON_SCALARS
    scalar = scalars.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = pad + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        parts = []
        for key, val in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            scalar = scalars.get(type(val))
            parts.append(f"{encode_basestring_ascii(key)}: "
                         f"{scalar(val) if scalar else _json_text(val, inner)}")
        return f"{{{inner}{f',{inner}'.join(parts)}{pad}}}"
    if type(obj) is list:
        if not obj:
            return "[]"
        deeper = inner + "  "
        parts = []
        for val in obj:
            scalar = scalars.get(type(val))
            if scalar is not None:
                parts.append(scalar(val))
            elif (type(val) is list and len(val) == 2
                  and (first := scalars.get(type(val[0])))
                  and (second := scalars.get(type(val[1])))):
                parts.append(f"[{deeper}{first(val[0])},{deeper}{second(val[1])}{inner}]")
            else:
                parts.append(_json_text(val, inner))
        return f"[{inner}{f',{inner}'.join(parts)}{pad}]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload, fmt):
    if fmt == "table":
        print(_tableize(payload))
    else:
        print(_json_text(payload))


# -- commands -------------------------------------------------------------


def _read_input(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence(fh.read())


def _parse_window(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--window expects n,m, got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(f"--window expects two integers, got {text!r}") from None


def _run_one(spec, built, args, window, analysis):
    pair = isinstance(built, tuple)
    if spec.arity == 2 and not pair:
        raise ValueError(f"{spec.id.value} takes a pair; the input has no v")
    if spec.arity == 1 and pair:
        raise ValueError(f"{spec.id.value} takes a single sequence; drop v")
    if spec.arity == 1:
        if args.alt_boundary:
            raise ValueError("--alt-boundary applies only to T3_10")
        return check_single(built, args.l1, args.l2, spec.id, window=window,
                            _analysis=analysis)
    u, v = built
    return check_pair(u, v, spec.id, window=window, alt_boundary=args.alt_boundary,
                      _analysis=analysis)


def _cmd_check(args):
    built = _read_input(args.path)
    window = _parse_window(args.window) if args.window else None
    pair = isinstance(built, tuple)
    # one analysis per document: every statement checked reads its terms and rows
    analysis = _Analysis(*built) if pair else _Analysis(built)
    if not (args.theorem or pair):
        # discovery checks the exponents once, as every single statement would
        _check_exponent("l1", args.l1)
        _check_exponent("l2", args.l2)
    # refuse an oversized document, or a misaligned pair, before any
    # statement runs
    _guard(analysis, args.l1, args.l2)
    if pair:
        _check_aligned(*built)
    payload = {"input": input_to_jsonable(built)}
    if args.theorem:
        verdicts = [_run_one(lookup(args.theorem), built, args, window, analysis)]
        payload["verdict"] = verdicts[0].to_jsonable()
    else:
        # discovery: try everything of matching arity, report all verdicts
        if args.alt_boundary:
            raise ValueError("--alt-boundary needs an explicit --theorem T3_10")
        verdicts, skipped = [], []
        for spec in registry():
            if spec.arity != (2 if pair else 1):
                continue
            if spec.windowed and window is None:
                skipped.append({"theorem": spec.id.value, "reason": "needs --window"})
                continue
            w = window if (spec.windowed or spec.window_optional) else None
            try:
                verdicts.append(_run_one(spec, built, args, w, analysis))
            except (ValueError, TypeError, ArithmeticError) as exc:
                skipped.append({"theorem": spec.id.value, "reason": str(exc)})
        payload["verdicts"] = [v.to_jsonable() for v in verdicts]
        payload["skipped"] = skipped
    conforming = [v for v in verdicts if v.in_hypotheses]
    failed = [v for v in conforming if not v.holds]
    if args.theorem:
        payload["summary"] = ("preconditions unsatisfied" if not conforming
                              else "inequality FAILED under satisfied preconditions" if failed
                              else "inequality holds")
    elif conforming:
        payload["summary"] = (f"{len(conforming)} of {len(verdicts)} applicable, "
                              f"{len(failed)} failed")
    else:
        payload["summary"] = "no statement's preconditions are satisfied"
    if failed:
        payload["witness"] = payload["input"]
    _emit(payload, args.format)
    return 2 if not conforming else 1 if failed else 0


def _cmd_classify(args):
    built = _read_input(args.path)
    pair = isinstance(built, tuple)
    seqs = built if pair else (built,)
    payload = {}
    for name, s in zip(("u", "v"), seqs):
        entry = s.classify(strict=args.strict).to_jsonable()
        try:
            entry["segments"] = s.alternate_segments().to_jsonable()
        except (NotDecomposable, ValueError) as exc:
            entry["segments"] = None
            entry["segments_error"] = str(exc)
        payload[name] = entry
    if pair:
        try:
            payload["synchrony"] = synchronous(built[0], built[1]).value
        except ValueError as exc:
            payload["synchrony"] = None
            payload["synchrony_error"] = str(exc)
    _emit(payload, args.format)
    return 0


def _cmd_fuzz(args):
    _load_oracle()
    relax = frozenset(
        part for part in (s.strip() for s in (args.relax or "").split(",")) if part
    )
    config = FuzzConfig(
        lookup(args.theorem).id, trials=args.trials, seed=args.seed, relax=relax
    )
    report = fuzz(config)
    _emit(report.to_jsonable(), args.format)
    return 1 if report.violations else 0


def _cmd_scan(args):
    _load_oracle()
    report = ratio_scan(
        lookup(args.theorem).id, args.l1, args.l2,
        length=args.length, bound=args.bound, budget=args.budget,
    )
    _emit(report.to_jsonable(), args.format)
    return 1 if report.violations else 0


def _cmd_examples(args):
    _load_oracle()
    _emit([r.to_jsonable() for r in reproduce_examples()], args.format)
    return 0


_FORMAT = {"dest": "format", "choices": ("json", "table"), "default": "json",
           "help": "output rendering (default json)"}

# each command's handler, help line and options, in the order its help lists
# them: the argparse subparsers are built from this table and
# _parse_canonical reads it, so the two agree on every dest, default, type
# and choice
_COMMANDS = {
    "check": (_cmd_check, "evaluate one statement, or every applicable one", {
        "--in": {"dest": "path", "required": True,
                 "help": "JSON file with u (and optionally v)"},
        "--theorem": {"dest": "theorem", "help": "statement id such as T3_5; omit to discover"},
        "--l1": {"dest": "l1", "type": int, "default": 1, "help": "first exponent (default 1)"},
        "--l2": {"dest": "l2", "type": int, "default": 1, "help": "second exponent (default 1)"},
        "--window": {"dest": "window", "help": "window as n,m for the windowed statements"},
        "--alt-boundary": {"dest": "alt_boundary", "action": "store_true", "default": False,
                           "help": "T3_10 variant anchored at the first element"},
        "--format": _FORMAT,
    }),
    "classify": (_cmd_classify, "monotonicity profile and segmentation", {
        "--in": {"dest": "path", "required": True},
        "--strict": {"dest": "strict", "action": "store_true", "default": False,
                     "help": "use strict orders instead of the default non-strict ones"},
        "--format": _FORMAT,
    }),
    "fuzz": (_cmd_fuzz, "seeded random trials of one statement", {
        "--theorem": {"dest": "theorem", "required": True},
        "--trials": {"dest": "trials", "type": int, "default": 1000},
        "--seed": {"dest": "seed", "type": int, "default": 0},
        "--relax": {"dest": "relax", "default": "",
                    "help": "comma-separated precondition names to violate on purpose"},
        "--format": _FORMAT,
    }),
    "scan": (_cmd_scan, "exhaustive small-grid worst-ratio search", {
        "--theorem": {"dest": "theorem", "required": True},
        "--l1": {"dest": "l1", "type": int, "default": 1},
        "--l2": {"dest": "l2", "type": int, "default": 1},
        "--length": {"dest": "length", "type": int, "required": True, "help": "element count"},
        "--bound": {"dest": "bound", "type": int, "required": True,
                    "help": "endpoints range over integers 0..bound"},
        "--budget": {"dest": "budget", "type": int, "default": 200_000,
                     "help": "refuse scans needing more checks than this"},
        "--format": _FORMAT,
    }),
    "examples": (_cmd_examples, "re-run the bundled worked examples", {"--format": _FORMAT}),
}


def _parse_canonical(argv):
    """The namespace argparse gives a canonical argv (a list of str),
    without loading argparse, or None for any other argv.

    Canonical: a command of _COMMANDS, then its options, each at most once
    and in full, every required one among them. A valued option is given as
    ``--opt value`` or ``--opt=value``, its value of the option's type and
    choices; a flag (``store_true``) is given bare. A separate value may not
    start with "-", where argparse could read an option, and no value may be
    "--", which argparse versions read differently. None leaves every other
    argv, with its messages and exit codes, to argparse.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = command[2]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        if value == "--":
            return None
        given[flag] = value
    names = {"command": argv[0]}
    for flag, spec in options.items():
        if flag not in given:
            if spec.get("required"):
                return None
            names[spec["dest"]] = spec.get("default")
            continue
        value = given[flag]
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        names[spec["dest"]] = value
    return types.SimpleNamespace(**names)


@functools.cache
def _build_parser():
    # built once per process: parse_args returns a fresh Namespace each
    # call and every default is immutable, so calls share nothing
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        def _get_values(self, action, arg_strings):
            # Python 3.10-3.12 drop an option's attached value "--" (as in
            # --in=--) and store []; 3.13 reads the value "--", as here
            if action.option_strings and arg_strings == ["--"]:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

    parser = ArgumentParser(
        prog="opialcheck",
        description="Exact checking of Opial-type inequalities on interval sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        for flag, spec in options.items():
            cmd.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for token in argv:
        if not isinstance(token, str):
            print(f"error: argument {token!r} is not a string", file=sys.stderr)
            return 3
    args = _parse_canonical(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 for --help, 2 for usage errors
            code = exc.code if isinstance(exc.code, int) else 0
            return 0 if code == 0 else 3
    try:
        return _COMMANDS[args.command][0](args)
    except (BudgetExceeded, ValueError, TypeError, ArithmeticError, OSError) as exc:
        # SchemaError, NonRational and OutputTooLarge among them
        print(f"error: {exc}", file=sys.stderr)
        return 3

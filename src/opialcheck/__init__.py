"""Exact checking of Opial-type inequalities for interval sequences.

Everything is computed in rational arithmetic; no floats enter or
leave. The public surface re-exports the interval algebra, sequence
tools, the statement registry with its checkers, the command line and
the randomized verification layer (``oracle``). ``import opialcheck``
loads none of them: each public name, and each submodule, imports its
module on first use, so a plain check never loads ``oracle``.
"""

__version__ = "0.1.0"

# each public name under the submodule that defines it
_NAMES = {
    "_records": ("replace",),
    "rationals": ("NonRational", "Rational", "as_rational", "format_rational",
                  "rational_to_json"),
    "intervals": ("DivisorContainsZero", "ExponentOutOfRange", "GhCase", "HDiffNotExist",
                  "Interval", "InvalidBounds"),
    "sequences": ("Direction", "IndexOutOfRange", "IntervalSequence", "LengthMismatch",
                  "MonotonicityProfile", "MuDirection", "NotDecomposable", "Segment",
                  "SegmentDecomposition", "Synchrony", "TooShort", "direction_set",
                  "first_direction_break", "first_mu_break", "input_to_jsonable",
                  "mu_direction_set", "synchronous"),
    "theorems": ("ArityMismatch", "BoundaryNotZero", "BudgetExceeded", "Operator",
                 "PreconditionCheck", "TheoremId", "TheoremSpec", "Verdict",
                 "WindowOutOfRange", "WindowRequired", "check_classical", "check_pair",
                 "check_single", "lhs_terms", "lookup", "registry"),
    "cli": ("SchemaError", "main", "parse_sequence", "sequence_to_jsonable"),
    "oracle": ("ExampleReport", "ExampleRow", "FuzzConfig", "FuzzReport",
               "InfeasibleProfile", "PreconditionViolated", "RelaxNotRealized",
               "ScanReport", "TrialRecord", "fuzz", "generate", "holder_mean_check",
               "product_rule_check", "ratio_scan", "reproduce_examples", "young_check"),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing the submodule binds it here under its own name
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_OWNER, *_NAMES})

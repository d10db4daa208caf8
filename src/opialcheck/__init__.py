"""Exact checking of Opial-type inequalities for interval sequences.

Everything is computed in rational arithmetic; no floats enter or
leave. The public surface re-exports the interval algebra, sequence
tools, the statement registry with its checkers, and the randomized
verification layer (``oracle``), which is imported on first use.
"""

from ._records import replace
from .rationals import NonRational, Rational, as_rational, format_rational, rational_to_json
from .intervals import (
    DivisorContainsZero,
    ExponentOutOfRange,
    GhCase,
    HDiffNotExist,
    Interval,
    InvalidBounds,
)
from .sequences import (
    Direction,
    IndexOutOfRange,
    IntervalSequence,
    LengthMismatch,
    MonotonicityProfile,
    MuDirection,
    NotDecomposable,
    Segment,
    SegmentDecomposition,
    Synchrony,
    TooShort,
    direction_set,
    first_direction_break,
    first_mu_break,
    input_to_jsonable,
    mu_direction_set,
    synchronous,
)
from .theorems import (
    ArityMismatch,
    BoundaryNotZero,
    BudgetExceeded,
    Operator,
    PreconditionCheck,
    TheoremId,
    TheoremSpec,
    Verdict,
    WindowOutOfRange,
    WindowRequired,
    check_classical,
    check_pair,
    check_single,
    lhs_terms,
    lookup,
    registry,
)
from .cli import SchemaError, main, parse_sequence, sequence_to_jsonable

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "BoundaryNotZero",
    "BudgetExceeded",
    "Direction",
    "DivisorContainsZero",
    "ExampleReport",
    "ExampleRow",
    "ExponentOutOfRange",
    "FuzzConfig",
    "FuzzReport",
    "GhCase",
    "HDiffNotExist",
    "IndexOutOfRange",
    "InfeasibleProfile",
    "Interval",
    "IntervalSequence",
    "InvalidBounds",
    "LengthMismatch",
    "MonotonicityProfile",
    "MuDirection",
    "NonRational",
    "NotDecomposable",
    "Operator",
    "PreconditionCheck",
    "PreconditionViolated",
    "Rational",
    "RelaxNotRealized",
    "ScanReport",
    "SchemaError",
    "Segment",
    "SegmentDecomposition",
    "Synchrony",
    "TheoremId",
    "TheoremSpec",
    "TooShort",
    "TrialRecord",
    "Verdict",
    "WindowOutOfRange",
    "WindowRequired",
    "as_rational",
    "check_classical",
    "check_pair",
    "check_single",
    "direction_set",
    "first_direction_break",
    "first_mu_break",
    "format_rational",
    "fuzz",
    "generate",
    "holder_mean_check",
    "input_to_jsonable",
    "lhs_terms",
    "lookup",
    "main",
    "mu_direction_set",
    "parse_sequence",
    "product_rule_check",
    "ratio_scan",
    "rational_to_json",
    "registry",
    "replace",
    "reproduce_examples",
    "sequence_to_jsonable",
    "synchronous",
    "young_check",
    "__version__",
]


# the names of __all__ not bound above belong to the randomized verification
# layer, oracle, which is imported on first use of one of them (or of
# opialcheck.oracle itself), so that a plain check never loads it
_ORACLE_NAMES = frozenset(__all__) - set(globals())


def __getattr__(name):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing the submodule binds it here as oracle
    __import__(f"{__name__}.oracle")
    if name == "oracle":
        return oracle
    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES})

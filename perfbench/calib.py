"""Calibration: fixed pieces of stdlib work whose time measures how fast the
machine runs Python right now.

Timed figures are divided by a speed factor, the work's time over its time
at the reference speed, so drift in the machine's speed cancels. The work
does not touch the program, and the number of repeats is always fixed by the
caller, never sized from the program's own times. Call times are scaled by
the kernel below; set-up times by ``import_speed``, because the ratio of
import work to the kernel's work drifts with the machine's state.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction

KERNEL_REF_S = 0.0004     # one kernel repeat at the reference speed
IMPORT_REF_S = 0.0008     # one import_speed repeat at the reference speed
_IMPORT_LIKE = ("fractions", "dataclasses", "json.decoder", "argparse")


@dataclass(frozen=True)
class _Pair:
    a: Fraction
    b: Fraction


def _kernel():
    # exact fractions, frozen dataclasses and JSON text, the kinds of work
    # the program does
    acc = Fraction(0)
    items = []
    for i in range(1, 40):
        p = _Pair(Fraction(i, 7), Fraction(i + 3, 11))
        items.append(p)
        acc += p.a * p.b - Fraction(1, i)
    return acc, json.dumps([[str(p.a), str(p.b)] for p in items])


def calibrate(reps):
    """Seconds ``reps`` kernel repeats take, as measured."""
    t0 = time.perf_counter()
    for _ in range(reps):
        _kernel()
    return time.perf_counter() - t0


def import_speed(reps):
    """Speed factor from work like an import's: running the code of a few
    stdlib modules into fresh namespaces (compiled beforehand, as an import
    from cached bytecode does not compile)."""
    codes = []
    for name in _IMPORT_LIKE:
        path = importlib.import_module(name).__file__
        with open(path, encoding="utf-8") as fh:
            codes.append(compile(fh.read(), path, "exec"))
    t0 = time.perf_counter()
    for _ in range(reps):
        for code in codes:
            exec(code, {"__name__": "calib_copy"})
    return (time.perf_counter() - t0) / (reps * IMPORT_REF_S)

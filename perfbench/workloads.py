"""Workload definitions: the CLI calls each workload makes and the checks on
their outputs.

A workload is a fixed list of call slots; one pass over them is a round.
Round r draws its inputs from (seed, r), so the same seed gives the same
inputs, and every round brings fresh ones: a run's figures average over many
inputs per slot instead of repeating one draw. Slots are stratified by the
input properties that set a call's cost (statement, grid, document family,
length, denominator kind, flags), so every seed covers the same mix.

Every call carries a checker. Checkers hold for any seed: exit codes,
echoes of the input, internal consistency of each verdict, no violation under
satisfied hypotheses, and exact agreement with the independent sums in
``reference.py`` where those apply. For the seeds stored in ``expected.json``
round 0's outputs are also compared with the stored ones.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference

THEOREMS = (
    "T2_2", "L3_1", "L3_01", "L3_02", "T3_1", "T3_2", "T3_3", "T3_4", "T3_5",
    "T3_6", "T3_7", "T3_8", "T3_9", "T3_10", "T4_1", "T4_2", "T4_5",
)
FUZZ_TRIALS = 60

# (statement, length, bound): one grid per statement family named in the
# benchmark description; sizes keep a round near 1.5 s on one core.
SCAN_GRIDS = (
    ("T3_1", 4, 3),   # monotone, anchored at the start
    ("T3_5", 5, 3),   # alternating, anchored at both ends
    ("T3_6", 3, 2),   # pair statement
    ("T2_2", 7, 3),   # real-valued: every grid point is admissible
)
PAIR_THEOREMS = {"T3_6", "T3_7", "T3_8", "T3_9", "T3_10"}
SINGLE_WINDOWED = {"L3_02", "T3_2", "T3_4", "T4_2"}
PAIR_WINDOWED = {"T3_7", "T3_9"}

LARGE_PRIMES = (999907, 999917, 999931, 999953, 999959, 999961, 999979, 999983,
                1000003, 1000033, 1000037, 1000039, 1000081, 1000099)
# check_docs slots: every family x length x denominator kind, 96 documents
DOC_FAMILIES = ("ramp", "tent", "random", "pair")
DOC_LENGTHS = (4, 8, 16, 24, 40, 64)
DOC_DENOMINATORS = ("int", "small", "decimal", "large")
OPTION_KINDS = ("discover", "exponents", "window", "targeted")


@dataclass
class Call:
    """One call of ``opialcheck.main`` and how to judge what it printed."""

    label: str                # names the slot in stored outputs and messages
    part: str                 # group the slot is reported under
    argv: list
    units: Callable           # (rc, stdout) -> work units the call stands for
    check: Callable           # (rc, stdout) -> list of problem strings
    summary: Callable         # (rc, stdout) -> JSON-able value stored for a seed


@dataclass
class Workload:
    name: str
    unit: str                 # what throughput_per_s counts
    warm_argv: list           # the first call timed as part of setup
    make_round: Callable      # round index -> list of Calls, same slots every round
    cal_reps: int             # calibration kernel repeats after each call; a fixed
                              # number (about a quarter of a typical call when it was
                              # chosen), so the program's own speed never sizes it


def _rng(workload, seed, r):
    return random.Random(f"perfbench:{workload}:{seed}:{r}")


def _exponent_orders(workload, seed, slots):
    """For each slot, all 16 exponent pairs (l1, l2) in 1..4 in an order the
    seed picks. Round r takes entry r mod 16, so every run covers the same
    exponents whatever the seed; they weigh heavily on a call's cost."""
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    return [_rng(f"{workload}:exponents", seed, k).sample(pairs, len(pairs))
            for k in range(slots)]


def _frac(value):
    return Fraction(value) if isinstance(value, int) else Fraction(str(value))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- fuzz_all -----------------------------------------------------------------


# statements whose fuzz witnesses the reference can re-check: their exponents
# are fixed, so the report does not need to say which ones a trial drew
_FUZZ_REFERENCE = ("T2_2", "T3_6")


def _fuzz_check(tid, seed):
    def check(rc, out):
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}, expected 0")
        rep = json.loads(out)
        cfg = rep["config"]
        if (cfg["theorem"], cfg["trials"], cfg["seed"], cfg["relax"]) != (
                tid, FUZZ_TRIALS, seed, []):
            problems.append(f"config echo {cfg}")
        if rep["trials_run"] != FUZZ_TRIALS:
            problems.append(f"trials_run {rep['trials_run']}")
        if rep["violations"]:
            problems.append(f"{len(rep['violations'])} violations in hypotheses")
        ratio = _frac(rep["max_ratio"])
        if ratio > 1:
            problems.append(f"max_ratio {ratio} > 1")
        if tid in _FUZZ_REFERENCE and rep["max_ratio_witness"] is not None:
            lhs, rhs = reference.sums_for(tid, rep["max_ratio_witness"], 1, 1)
            if (lhs / rhs if rhs else Fraction(0)) != ratio:
                problems.append("the witness's reference ratio differs from max_ratio")
        return problems

    return check


def fuzz_all(seed, root, workdir, expected):
    def make_round(r):
        rng = _rng("fuzz_all", seed, r)
        calls = []
        for tid in THEOREMS:
            fseed = rng.randrange(2 ** 31)
            calls.append(Call(
                label=tid, part=tid,
                argv=["fuzz", "--theorem", tid, "--trials", str(FUZZ_TRIALS),
                      "--seed", str(fseed), "--format", "json"],
                units=lambda rc, out: FUZZ_TRIALS,
                check=_fuzz_check(tid, fseed),
                summary=lambda rc, out: sha256(out),
            ))
        return calls

    warm = ["fuzz", "--theorem", "T3_5", "--trials", "1", "--seed", "0", "--format", "json"]
    return Workload("fuzz_all", "trials", warm, make_round, cal_reps=28)


# -- scan_grids ---------------------------------------------------------------

_SCAN_FIELDS = ("max_ratio", "witness", "witness_window", "admissible", "violations")


def grid_key(tid, length, bound):
    return f"{tid}/L{length}/B{bound}"


def _scan_check(tid, l1, l2, length, bound, known_admissible):
    pair = tid in PAIR_THEOREMS

    def check(rc, out):
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}, expected 0")
        rep = json.loads(out)
        echo = (rep["theorem"], rep["length"], rep["bound"], rep["lambda1"], rep["lambda2"])
        want = (tid, length, bound, None if pair else l1, None if pair else l2)
        if echo != want:
            problems.append(f"echo {echo} != {want}")
        if rep["violations"] != 0:
            problems.append(f"{rep['violations']} violations in hypotheses")
        if not rep["admissible"] <= rep["checked"] <= rep["planned"]:
            problems.append("admissible <= checked <= planned does not hold")
        if known_admissible is not None and rep["admissible"] != known_admissible:
            problems.append(f"admissible {rep['admissible']} != {known_admissible}")
        ratio = _frac(rep["max_ratio"])
        if ratio > 1:
            problems.append(f"max_ratio {ratio} > 1")
        if rep["witness_window"] is not None:
            problems.append("witness_window set for a statement without windows")
        sums = reference.sums_for(tid, rep["witness"], l1, l2)
        if sums is not None:
            lhs, rhs = sums
            got = lhs / rhs if rhs else Fraction(0)
            if got != ratio:
                problems.append(f"witness ratio {got} != reported max_ratio {ratio}")
        return problems

    return check


def _scan_summary(rc, out):
    rep = json.loads(out)
    return {k: rep[k] for k in _SCAN_FIELDS}


def scan_grids(seed, root, workdir, expected):
    # admissible counts do not depend on the exponents, so the stored ones
    # hold for every seed
    admissible = expected.get("scan_admissible", {})

    orders = _exponent_orders("scan_grids", seed, len(SCAN_GRIDS))

    def make_round(r):
        calls = []
        for (tid, length, bound), order in zip(SCAN_GRIDS, orders):
            l1, l2 = order[r % len(order)]
            if tid == "T2_2":
                l1 = l2 = 1   # the statement fixes its exponents
            key = grid_key(tid, length, bound)
            calls.append(Call(
                label=key, part=key,
                argv=["scan", "--theorem", tid, "--l1", str(l1), "--l2", str(l2),
                      "--length", str(length), "--bound", str(bound), "--format", "json"],
                units=lambda rc, out: json.loads(out)["admissible"],
                check=_scan_check(tid, l1, l2, length, bound, admissible.get(key)),
                summary=_scan_summary,
            ))
        return calls

    warm = ["scan", "--theorem", "T3_1", "--length", "3", "--bound", "1", "--format", "json"]
    return Workload("scan_grids", "admissible grid points", warm, make_round, cal_reps=190)


# -- check_docs ---------------------------------------------------------------


def _weak_parts(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _denominator(rng, kind):
    """(denominator, written as decimal literals) for one denominator kind."""
    if kind == "int":
        return 1, False
    if kind == "small":
        return rng.randint(2, 16), False
    if kind == "decimal":
        return 1000, True
    return rng.choice(LARGE_PRIMES), False


def _ramp(rng, length, D, degenerate):
    # zero-anchored, one LU order, widths non-decreasing, no later zero
    lo = w = 0
    pts = [(0, 0)]
    for k in range(length - 1):
        lo += rng.randint(1 if k == 0 else 0, 3 * D)
        if not degenerate:
            w += rng.randint(0, 2 * D)
        pts.append((lo, lo + w))
    return pts


def _tent(rng, length, D, degenerate):
    # zero at both ends: a ramp up to a peak, then down to zero
    peak = rng.randint(1, length - 2)
    up = _ramp(rng, peak + 1, D, degenerate)
    plo, phi = up[-1]
    steps = length - 1 - peak
    dlo = _weak_parts(rng, plo, steps)
    dw = _weak_parts(rng, phi - plo, steps)
    if dlo[-1] == 0:   # keep the interior free of zeros
        big = dlo.index(max(dlo))
        dlo[big] -= 1
        dlo[-1] += 1
    pts = list(up)
    lo, w = plo, phi - plo
    for a, b in zip(dlo, dw):
        lo -= a
        w -= b
        pts.append((lo, lo + w))
    return pts


def _random_pts(rng, length, D):
    out = []
    for _ in range(length):
        a, c = rng.randint(-40 * D, 40 * D), rng.randint(-40 * D, 40 * D)
        out.append((min(a, c), max(a, c)))
    return out


def _maybe_negate(rng, pts):
    if rng.random() < 0.5:
        return [(-hi, -lo) for lo, hi in pts]
    return pts


def _to_fracs(pts, D):
    return [(Fraction(lo, D), Fraction(hi, D)) for lo, hi in pts]


def _render_value(q, decimal):
    if q.denominator == 1:
        return str(q.numerator)
    if decimal:
        # exact decimal literal: the parser reads JSON numbers as exact decimals
        sign = "-" if q < 0 else ""
        scaled = abs(q) * 1000
        return f"{sign}{scaled.numerator // 1000}.{scaled.numerator % 1000:03d}"
    return f'"{q.numerator}/{q.denominator}"'


def _render_doc(u, v, base, decimal):
    def arr(seq):
        return "[" + ", ".join(
            f"[{_render_value(lo, decimal)}, {_render_value(hi, decimal)}]" for lo, hi in seq
        ) + "]"

    parts = [f'"u": {arr(u)}']
    if v is not None:
        parts.append(f'"v": {arr(v)}')
    if base:
        parts.append(f'"base_index": {base}')
    return "{" + ", ".join(parts) + "}\n"


def _make_doc(rng, family, length, den_kind):
    base = rng.randint(-4, 4) if rng.random() < 0.25 else 0
    D, decimal = _denominator(rng, den_kind)
    v = None
    if family == "ramp":
        degenerate = rng.random() < 0.3
        u = _to_fracs(_maybe_negate(rng, _ramp(rng, length, D, degenerate)), D)
    elif family == "tent":
        degenerate = rng.random() < 0.4
        u = _to_fracs(_maybe_negate(rng, _tent(rng, length, D, degenerate)), D)
    elif family == "random":
        # large denominators mix per element, coprime to each other
        pool = [D] + (rng.sample(LARGE_PRIMES, 2) if den_kind == "large" else [])
        dens = [rng.choice(pool) for _ in range(length)]
        u = [(Fraction(a, d), Fraction(c, d))
             for (a, c), d in zip(_random_pts(rng, length, max(pool)), dens)]
    else:
        # u and v over coprime denominators when large
        Dv = rng.choice([p for p in LARGE_PRIMES if p != D]) if den_kind == "large" else D
        if rng.random() < 0.6:
            pu, pv = _ramp(rng, length, D, False), _ramp(rng, length, Dv, False)
            if rng.random() < 0.5:
                pu = [(-hi, -lo) for lo, hi in pu]
                pv = [(-hi, -lo) for lo, hi in pv]
        else:
            pu, pv = _random_pts(rng, length, D), _random_pts(rng, length, Dv)
        u = _to_fracs(pu, D)
        v = _to_fracs(pv, Dv)
    return u, v, base, decimal


def _doc_options(rng, kind, family, length, base, pair, exponents):
    """CLI flags of one option kind: discovery alone, discovery with
    exponents, discovery with exponents and a window, or one statement."""
    b, e = base, base + length - 1
    lo_n = b if pair else b + 1
    if kind == "discover":
        return [], 1, 1
    l1, l2 = exponents
    if kind == "exponents":
        return ["--l1", str(l1), "--l2", str(l2)], l1, l2
    if kind == "window":
        n = rng.randint(lo_n, e)
        # "--window=n,m": a negative n must not read as an option
        return ["--window=%d,%d" % (n, e), "--l1", str(l1), "--l2", str(l2)], l1, l2
    if pair:
        tid = rng.choice(sorted(PAIR_THEOREMS))
    else:
        choices = {
            "ramp": ["T3_1", "T4_1", "T3_3", "L3_1", "L3_01"],
            "tent": ["T3_5", "T4_5", "T2_2"],
        }.get(family, [t for t in THEOREMS if t not in PAIR_THEOREMS])
        tid = rng.choice(choices)
    if tid == "T2_2":
        l1 = l2 = 1
    flags = ["--theorem", tid, "--l1", str(l1), "--l2", str(l2)]
    if tid in SINGLE_WINDOWED or tid in PAIR_WINDOWED or (tid == "T3_8" and rng.random() < 0.5):
        n = rng.randint(lo_n, e)
        m = rng.randint(n, e)
        flags.append("--window=%d,%d" % (n, m))
    return flags, l1, l2


def _echo(u, v, base):
    def pairs(seq):
        return [[q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
                 for q in iv] for iv in seq]

    out = {"u": pairs(u)}
    if v is not None:
        out["v"] = pairs(v)
    out["base_index"] = base
    return out


def _verdict_problems(vd, doc, l1, l2):
    problems = []
    tid = vd["theorem"]
    lhs, rhs = _frac(vd["lhs"]), _frac(vd["rhs"])
    flags = [p["passed"] for p in vd["preconditions"]]
    if vd["holds"] != (lhs <= rhs):
        problems.append(f"{tid}: holds={vd['holds']} but lhs <= rhs is {lhs <= rhs}")
    if vd["in_hypotheses"] != all(flags):
        problems.append(f"{tid}: in_hypotheses disagrees with the precondition flags")
    if vd["in_hypotheses"] and not vd["holds"]:
        problems.append(f"{tid}: inequality fails under satisfied hypotheses")
    if rhs > 0 and _frac(vd["ratio"]) != lhs / rhs:
        problems.append(f"{tid}: ratio is not lhs/rhs")
    if tid not in PAIR_THEOREMS and (vd["lambda1"], vd["lambda2"]) != (l1, l2):
        problems.append(f"{tid}: exponents {vd['lambda1']},{vd['lambda2']} != {l1},{l2}")
    if vd["window"] is None:
        sums = reference.sums_for(tid, doc, l1, l2)
        if sums is not None and sums != (lhs, rhs):
            problems.append(f"{tid}: lhs/rhs differ from the reference sums")
    return problems


def _check_doc_check(doc, l1, l2, targeted):
    def check(rc, out):
        if rc not in (0, 2):
            return [f"exit {rc}, expected 0 or 2"]
        payload = json.loads(out)
        problems = []
        if payload["input"] != _echo(doc["u"], doc.get("v"), doc["base_index"]):
            problems.append("input echo differs from the document")
        verdicts = [payload["verdict"]] if targeted else payload["verdicts"]
        for vd in verdicts:
            problems.extend(_verdict_problems(vd, doc, l1, l2))
        conforming = [vd for vd in verdicts if vd["in_hypotheses"]]
        if rc != (0 if conforming else 2):
            problems.append(f"exit {rc} with {len(conforming)} conforming verdicts")
        return problems

    return check


def _check_doc_summary(targeted):
    def summary(rc, out):
        payload = json.loads(out)
        verdicts = [payload["verdict"]] if targeted else payload["verdicts"]
        rows = [[vd["theorem"], vd["lhs"], vd["rhs"], vd["holds"], vd["in_hypotheses"],
                 [p["passed"] for p in vd["preconditions"]]] for vd in verdicts]
        return sha256(json.dumps([rc, rows], separators=(",", ":")))

    return summary


def _load_sample(path):
    raw = json.loads(path.read_text(encoding="utf-8"))
    conv = [(_frac(lo), _frac(hi)) for lo, hi in raw["u"]]
    v = [(_frac(lo), _frac(hi)) for lo, hi in raw["v"]] if "v" in raw else None
    return conv, v, raw.get("base_index", 0)


def _doc_call(rng, label, part, path, u, v, base, kind, exponents):
    pair = v is not None
    flags, l1, l2 = _doc_options(rng, kind, part, len(u), base, pair, exponents)
    doc = {"u": u, "v": v, "base_index": base} if pair else {"u": u, "base_index": base}
    targeted = "--theorem" in flags
    return Call(
        label=label, part=part,
        argv=["check", "--in", str(path)] + flags + ["--format", "json"],
        units=lambda rc, out: 1,
        check=_check_doc_check(doc, l1, l2, targeted),
        summary=_check_doc_summary(targeted),
    )


def check_docs(seed, root, workdir, expected):
    samples = [(path, *_load_sample(path)) for path in sorted((root / "samples").glob("*.json"))]
    if not samples:
        raise FileNotFoundError(f"no sample documents under {root / 'samples'}")

    slots = len(samples) + len(DOC_FAMILIES) * len(DOC_LENGTHS) * len(DOC_DENOMINATORS)
    orders = _exponent_orders("check_docs", seed, slots)

    def make_round(r):
        rng = _rng("check_docs", seed, r)
        exponents = iter([order[r % len(order)] for order in orders])
        calls = []
        for i, (path, u, v, base) in enumerate(samples):
            kind = OPTION_KINDS[i % len(OPTION_KINDS)]
            calls.append(_doc_call(rng, path.name, "sample", path, u, v, base, kind,
                                   next(exponents)))
        for fi, family in enumerate(DOC_FAMILIES):
            for li, length in enumerate(DOC_LENGTHS):
                for di, den in enumerate(DOC_DENOMINATORS):
                    u, v, base, decimal = _make_doc(rng, family, length, den)
                    label = f"{family}-L{length}-{den}"
                    path = workdir / f"{label}.json"
                    path.write_text(_render_doc(u, v, base, decimal), encoding="utf-8")
                    # option kinds rotate so each family, length and
                    # denominator kind meets all four equally often
                    kind = OPTION_KINDS[(fi + li + di) % len(OPTION_KINDS)]
                    calls.append(_doc_call(rng, label, family, path, u, v, base, kind,
                                           next(exponents)))
        return calls

    warm = ["check", "--in", str(root / "samples" / "ex33.json"), "--format", "json"]
    return Workload("check_docs", "documents", warm, make_round, cal_reps=7)


BUILDERS = {"fuzz_all": fuzz_all, "scan_grids": scan_grids, "check_docs": check_docs}

#!/usr/bin/env python3
"""Benchmark of opialcheck through its public entry point ``opialcheck.main``.

    python3 perfbench/run.py --workload fuzz_all --seed 0 --seconds 30 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) in this process
on one thread, closed loop: each call starts after the previous one returns.
The package is imported from ``src/`` next to this directory; an installed
copy is never used. Every output is checked; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics from untraced rounds, with times
scaled to a reference machine speed by calibration slices run between the
calls (perfbench/README.md says why). --trace 1 wraps the package's layer
boundaries (tracing.py), reports the per-layer metrics and the tracing
overhead, and writes the spans of one round to .perfbench/. --record
rewrites expected.json from the stored seeds.

Exit status: 0 when every output checks, 1 when some output is wrong, 2 when
the benchmark cannot run here (no result line is printed then).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 0
HELD_OUT_SEED = 9173
STORED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
MIN_ROUNDS = 5            # per-slot means need a few rounds
TRACE_ROUNDS = 3          # rounds the traced run covers, fixed so counts repeat
MAX_MEASURE_S = 120       # keeps a run inside 180 s whatever --seconds says
SETUP_REPS = 15           # set-up repeats at least, one after each timed round
SETUP_CAL_REPS = 50       # import_speed repeats that scale each set-up, about as long as it
TAIL_Q = 0.90             # tail percentile; check_docs has >= 10 documents beyond it

# Times the import and first call, then calibrates in the same process, so
# the set-up time is scaled by the speed it ran at.
_SETUP_CODE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import opialcheck
with contextlib.redirect_stdout(io.StringIO()):
    rc = opialcheck.main(sys.argv[4:])
dt = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calib
print(dt / calib.import_speed(int(sys.argv[3])), rc)
"""


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


# -- environment and import ---------------------------------------------------


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def import_package():
    src = ROOT / "src"
    if not (src / "opialcheck" / "__init__.py").is_file():
        raise SetupError(f"no opialcheck sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("opialcheck")
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"opialcheck was imported from {origin}, not from {src}")
    mods = {name: importlib.import_module(f"opialcheck.{name}") for name in tracing.MODULES}
    return pkg, mods, str(origin.parent.relative_to(ROOT))


# -- set-up -------------------------------------------------------------------


def setup_once(argv):
    """Seconds a fresh interpreter takes to import the package and make the
    workload's first call, interpreter start-up excluded, at the reference
    speed."""
    res = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CODE, str(ROOT / "src"), str(HERE),
         str(SETUP_CAL_REPS), *argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    fields = res.stdout.split()
    if res.returncode != 0 or len(fields) != 2 or fields[1] not in ("0", "2"):
        raise SetupError(f"set-up call failed: {res.stderr.strip() or res.stdout.strip()}")
    return float(fields[0])


# -- running calls ----------------------------------------------------------


def call_once(main, argv, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = tracer.root(main, argv) if tracer else main(argv)
        except Exception:  # a crash is one failed operation; the run goes on
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def digest(rc, out):
    return hashlib.sha256(f"{rc}\n{out}".encode("utf-8")).hexdigest()


class Round:
    """Times and outcome of one round."""

    def __init__(self, times, speed, units, digests):
        self.times = times        # seconds per slot, as measured
        self.speed = speed        # calibration time / reference time
        self.units = units        # work units done
        self.digests = digests    # sha256 of each slot's exit code and stdout

    @property
    def scaled(self):
        """Per-slot times at the reference speed."""
        return [t / self.speed for t in self.times]


class Runner:
    """Runs and checks rounds of one workload; keeps the failure tally."""

    def __init__(self, wl, main, stored):
        self.wl = wl
        self.main = main
        self.stored = stored      # round 0's stored outputs for this seed, or None
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.slots = None
        self.summaries = {}

    def _fail(self, label, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{label}: {message}")

    def run(self, r, tracer=None, expect=None):
        """Run round r: every call, each followed by a calibration slice,
        then every check. ``expect`` holds digests the outputs must equal."""
        calls = self.wl.make_round(r)
        labels = [c.label for c in calls]
        if self.slots is None:
            self.slots = calls
        elif labels != [c.label for c in self.slots]:
            raise RuntimeError(f"round {r} has other slots than round 0")
        results, times, cal_s = [], [], 0.0
        for call in calls:
            rc, out, err, dt = call_once(self.main, call.argv, tracer)
            cal_s += calib.calibrate(self.wl.cal_reps)
            results.append((rc, out, err))
            times.append(dt)
        units, digests = 0, []
        for call, (rc, out, err) in zip(calls, results):
            self.attempted += 1
            digests.append(digest(rc, out))
            if expect is not None:
                if digests[-1] != expect[len(digests) - 1]:
                    self._fail(call.label, f"round {r}: output differs from the untraced run")
                continue
            problems = self._check(call, rc, out, err, r)
            if problems:
                self._fail(call.label, f"round {r}: " + "; ".join(problems))
            else:
                units += call.units(rc, out)
        if r == 0 and self.stored is not None and set(self.stored) != set(labels):
            self._fail("round 0", "the slots differ from those stored for this seed")
        speed = cal_s / (len(calls) * self.wl.cal_reps * calib.KERNEL_REF_S)
        return Round(times, speed, units, digests)

    def _check(self, call, rc, out, err, r):
        if rc is None:
            return ["raised " + err.strip().splitlines()[-1]]
        try:
            problems = call.check(rc, out)
            if r == 0:
                self.summaries[call.label] = call.summary(rc, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [f"unreadable output ({type(exc).__name__}: {exc}); stderr: {err.strip()}"]
        if r == 0 and self.stored is not None and not problems:
            if self.stored.get(call.label) != self.summaries[call.label]:
                problems = ["output differs from the stored output for this seed"]
        return problems


# -- statistics ---------------------------------------------------------------


def quantile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n, q):
    """How many of n sorted samples lie past the position quantile() reads
    for q."""
    return n - 1 - math.floor(q * (n - 1))


def trimmed_mean(values, cut=0.2):
    """Mean of the middle values, a share ``cut`` dropped at each end. Robust
    to stray slow calls like a median, but it averages the spread of input
    costs more efficiently."""
    xs = sorted(values)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k])


def end_to_end(runner, rounds):
    """End-to-end metrics at the reference speed. Each round's call times are
    divided by the speed factor its calibration slices measured, which
    cancels the machine's drift; each slot's time is then its trimmed mean
    over the rounds."""
    per_slot = [trimmed_mean(ts) for ts in zip(*(r.scaled for r in rounds))]
    parts = {}
    for call, t in zip(runner.slots, per_slot):
        parts.setdefault(call.part, []).append(t)
    part_time = {p: statistics.median(ts) for p, ts in parts.items()}
    worst_part = max(part_time, key=part_time.get)
    metrics = {
        "throughput_per_s": (trimmed_mean(r.units / sum(r.scaled) for r in rounds), "1/s"),
        "p50_ms": (statistics.median(per_slot) * 1e3, "ms"),
        "tail_ms": (quantile(per_slot, TAIL_Q) * 1e3, "ms"),
        "worst_ms": (part_time[worst_part] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {"speed_factor": statistics.median(r.speed for r in rounds),
           "raw_throughput_per_s": statistics.median(r.units / sum(r.times) for r in rounds)}
    return metrics, worst_part, raw


def aliases(wl, runner, metrics, worst_part):
    """The workload's metrics under the names perf issues cite."""
    thr, worst_s = metrics["throughput_per_s"][0], metrics["worst_ms"][0] / 1e3
    n = len(runner.slots)
    if wl.name == "fuzz_all":
        return [("fuzz.trials_per_s", thr, "1/s", ""),
                ("fuzz.worst_trials_per_s", workloads.FUZZ_TRIALS / worst_s, "1/s", worst_part)]
    if wl.name == "scan_grids":
        return [("scan.admissible_per_s", thr, "1/s", ""),
                ("scan.max_grid_s", worst_s, "s", worst_part)]
    return [("check.p50_ms", metrics["p50_ms"][0], "ms", f"{n} documents"),
            ("check.tail_ms", metrics["tail_ms"][0], "ms",
             f"p{TAIL_Q * 100:.0f} of {n} documents, {beyond(n, TAIL_Q)} beyond"),
            ("check.docs_per_s", thr, "1/s", "")]


# -- modes ------------------------------------------------------------------


def load_expected():
    if not EXPECTED.is_file():
        raise SetupError(f"missing {EXPECTED}")
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def run_timed(runner, seconds):
    """Timed rounds, each followed by one set-up repeat, so the repeats are
    spread over the run. Returns the rounds and setup_s, the median repeat."""
    rounds, setups = [], []
    start = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS or len(setups) < SETUP_REPS
           or time.perf_counter() - start < seconds):
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start > MAX_MEASURE_S:
            break
        rounds.append(runner.run(len(rounds) + 1))
        setups.append(setup_once(runner.wl.warm_argv))
    return rounds, statistics.median(setups)


def run_traced(runner, mods, span_path, header):
    """Rounds 1..TRACE_ROUNDS untraced, then the same rounds traced."""
    plain = [runner.run(r) for r in range(1, TRACE_ROUNDS + 1)]
    tracer = tracing.Tracer(mods)
    tracer.install()
    traced = []
    try:
        for r, before in zip(range(1, TRACE_ROUNDS + 1), plain):
            rnd = runner.run(r, tracer, expect=before.digests)
            traced.append((rnd, *tracer.take()))
    finally:
        tracer.uninstall()
    tracing.write_spans(span_path, traced[0][1], header)
    metrics = tracing.layer_metrics([(spans, counts, rnd.speed) for rnd, spans, counts in traced],
                                    tracer.installed)
    overhead = (sum(sum(rnd.scaled) for rnd, _, _ in traced)
                / sum(sum(rnd.scaled) for rnd in plain) - 1)
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def record():
    """Rewrite expected.json from round 0 of each stored seed."""
    out = {"seeds": {}, "scan_admissible": {}}
    main = import_package()[0].main
    for seed in STORED_SEEDS:
        out["seeds"][str(seed)] = {}
        for name, build in workloads.BUILDERS.items():
            workdir = OUT_DIR / f"record-{name}-{seed}-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                runner = Runner(build(seed, ROOT, workdir, {}), main, None)
                runner.run(0)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if runner.failed:
                raise SetupError(f"{name} seed {seed}: {runner.messages}")
            out["seeds"][str(seed)][name] = runner.summaries
            if name == "scan_grids":
                out["scan_admissible"].update(
                    {k: v["admissible"] for k, v in runner.summaries.items()})
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")


def report(line_metrics):
    for name, value, unit, note in line_metrics:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {unit:<6} {note}")


def benchmark(args):
    env = environment()
    pkg, mods, origin = import_package()
    env["imported_from"] = origin
    expected = load_expected()
    stored = expected["seeds"].get(str(args.seed), {}).get(args.workload)
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, ROOT, workdir, expected)
        runner = Runner(wl, pkg.main, stored)
        first = runner.run(0)
        print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        check_note = "compared with the stored outputs" if stored is not None else "invariants"
        print(f"round 0: {len(runner.slots)} calls checked ({check_note}), "
              f"digest {hashlib.sha256(''.join(first.digests).encode()).hexdigest()[:16]}")
        if args.trace:
            span_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json.gz"
            header = {"workload": wl.name, "seed": args.seed, "env": env}
            metrics = run_traced(runner, mods, span_path, header)
            print(f"per-layer metrics, totals over rounds 1-{TRACE_ROUNDS} traced "
                  f"(spans of round 1 in {span_path.relative_to(ROOT)}):")
            report([(k, v, u, "") for k, (v, u) in metrics.items()])
        else:
            rounds, setup_s = run_timed(runner, args.seconds)
            metrics, worst_part, raw = end_to_end(runner, rounds)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
            print(f"rounds: 1-{len(rounds)} timed, {len(runner.slots)} calls each, "
                  f"{statistics.median(r.units for r in rounds)} {wl.unit} per round (median)")
            print("end-to-end metrics (times at the reference speed):")
            report([(k, v, u, "") for k, (v, u) in metrics.items()])
            report(aliases(wl, runner, metrics, worst_part))
            print("unscaled, for reference:")
            report([("speed_factor", raw["speed_factor"], "", "calibration time / reference"),
                    ("raw_throughput_per_s", raw["raw_throughput_per_s"], "1/s", "")])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    frac = runner.failed / runner.attempted
    print(f"  {'failed_frac':<32} {frac:>14.6g} {'':<6} {runner.failed} of {runner.attempted} calls")
    for message in runner.messages:
        print(f"FAILED {message}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the stored seeds and exit")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        return benchmark(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in layer tracing for the traced benchmark run.

The tracer replaces functions of the imported ``opialcheck`` modules with
wrappers at the boundaries the per-layer metrics name, and restores them
afterwards; nothing under ``src/`` is edited. Timed boundaries record a span
(name, start, end, parent) in memory; the interval and rational boundaries
only count calls, so wrapping the hottest functions stays cheap. A boundary
whose functions no longer exist is skipped, and the metrics read at it are
reported as null.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

# spans: layer name -> (module, attribute) pairs; a module attribute that
# another module imported is wrapped in the importer, where the call is made.
# Besides these, cli.emit covers every to_jsonable method and theorems.pre
# every _pc_* precondition check.
_SPANS = {
    "cli.parse": [("cli", "parse_sequence")],
    "cli.emit": [("cli", "_emit"), ("cli", "input_to_jsonable"),
                 ("oracle", "input_to_jsonable")],
    "oracle.fuzz": [("cli", "fuzz")],
    "oracle.scan": [("cli", "ratio_scan")],
    "oracle.generate": [("oracle", "_generate_with_rng")],
    "oracle.reverify": [("oracle", "_conforms")],
    "oracle.to_sequence": [("oracle", "_to_sequence")],
    "theorems.check": [("cli", "check_single"), ("cli", "check_pair"),
                       ("oracle", "check_single"), ("oracle", "check_pair")],
    "sequences.order": [(mod, fn) for mod in ("theorems", "oracle")
                        for fn in ("direction_set", "mu_direction_set",
                                   "first_direction_break", "first_mu_break")],
}
_METHOD_SPANS = {
    "sequences.diff": ("sequences", "IntervalSequence", ("nabla", "delta")),
    "sequences.segment": ("sequences", "IntervalSequence", ("alternate_segments",)),
}
_COUNTS = {
    "oracle.build": [("oracle", "_build_single"), ("oracle", "_build_pair")],
}
_METHOD_COUNTS = {
    "intervals.constructed": ("intervals", "Interval", ("__init__",)),
    "intervals.gh_diff": ("intervals", "Interval", ("gh_diff",)),
    "intervals.mul": ("intervals", "Interval", ("__mul__", "__rmul__")),
    "intervals.pow": ("intervals", "Interval", ("__pow__",)),
}
MODULES = ("cli", "oracle", "theorems", "sequences", "intervals", "rationals")

# boundaries a metric is read at, where that is not its name up to the last
# dot; the root span cli.main is always there
_READ_AT = {
    "cli.calls": (),
    "cli.main.total_s": (),
    "oracle.generate.yield": ("oracle.generate", "oracle.build"),
    "oracle.scan.build_s": ("oracle.scan", "oracle.to_sequence"),
    "theorems.in_hypotheses_ratio": ("theorems.check",),
    "intervals.constructed": ("intervals.constructed",),
}


class Tracer:
    def __init__(self, modules):
        """``modules`` maps the short names in MODULES to imported modules."""
        self.mods = modules
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self._patches = []
        self._wrappers = {}
        self.installed = set()    # boundary names with at least one wrapper

    # -- wrapping ------------------------------------------------------------

    def _replace(self, owner, attr, name, make):
        if owner is None:
            return
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            return
        # one wrapper per function and layer, however many names it has
        key = (name, original)
        if key not in self._wrappers:
            self._wrappers[key] = make(original)
            self._wrappers[key].__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrappers[key])
        self.installed.add(name)

    def _span(self, name, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (name, t0, t1, stack[-1] if stack else -1)
                if on_return is not None:
                    on_return(result)
                return result
            return wrapper
        return make

    def _count(self, key):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _on_verdict(self, verdict):
        self.counts["theorems.verdicts"] += 1
        self.counts["theorems.in_hypotheses"] += bool(getattr(verdict, "in_hypotheses", False))

    def _on_scan(self, report):
        self.counts["oracle.scan.checked"] += getattr(report, "checked", 0)
        self.counts["oracle.scan.admissible"] += getattr(report, "admissible", 0)

    def _on_generated(self, _built):
        self.counts["oracle.generated"] += 1

    def install(self):
        hooks = {"theorems.check": self._on_verdict, "oracle.scan": self._on_scan,
                 "oracle.generate": self._on_generated}
        mods = self.mods
        for name, sites in _SPANS.items():
            for mod, attr in sites:
                self._replace(mods[mod], attr, name, self._span(name, hooks.get(name)))
        for attr in sorted(vars(mods["theorems"])):
            if attr.startswith("_pc_"):
                self._replace(mods["theorems"], attr, "theorems.pre", self._span("theorems.pre"))
        for mod in ("theorems", "oracle", "sequences"):
            for obj in list(vars(mods[mod]).values()):
                if (isinstance(obj, type) and obj.__module__ == mods[mod].__name__
                        and "to_jsonable" in obj.__dict__):
                    self._replace(obj, "to_jsonable", "cli.emit", self._span("cli.emit"))
        for name, (mod, cls, attrs) in _METHOD_SPANS.items():
            for attr in attrs:
                self._replace(getattr(mods[mod], cls, None), attr, name, self._span(name))
        for name, sites in _COUNTS.items():
            for mod, attr in sites:
                self._replace(mods[mod], attr, name, self._count(name))
        for name, (mod, cls, attrs) in _METHOD_COUNTS.items():
            for attr in attrs:
                self._replace(getattr(mods[mod], cls, None), attr, name, self._count(name))
        as_rational = getattr(mods["rationals"], "as_rational", None)
        for mod in MODULES:
            if as_rational is not None and getattr(mods[mod], "as_rational", None) is as_rational:
                self._replace(mods[mod], "as_rational", "rationals.as_rational",
                              self._count("rationals.as_rational"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -------------------------------------------------------------

    def root(self, fn, *args):
        """Call ``fn`` under a root span named cli.main."""
        return self._span("cli.main")(fn)(*args)

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(rounds, installed):
    """Per-layer metrics summed over rounds of (spans, counts, speed); each
    round's times are divided by its speed factor. Each value is paired with
    its unit; a metric read at a boundary not in ``installed`` is None."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    scan_build = 0.0
    for spans, round_counts, speed in rounds:
        for key, n in round_counts.items():
            counts[key] += n
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            d = (t1 - t0) / speed
            calls[name] += 1
            total[name] += d
            self_s[name] += d - child[i] / speed
            if name == "oracle.to_sequence" and parent >= 0 and spans[parent][0] == "oracle.scan":
                scan_build += d

    def ratio(num, den):
        return num / den if den else 0.0

    c = counts.get
    metrics = {
        "cli.calls": calls["cli.main"],
        "cli.main.total_s": total["cli.main"],
        "cli.parse.calls": calls["cli.parse"],
        "cli.parse.self_s": self_s["cli.parse"],
        "cli.emit.self_s": self_s["cli.emit"],
        "oracle.generate.calls": calls["oracle.generate"],
        "oracle.generate.self_s": self_s["oracle.generate"],
        "oracle.generate.total_s": total["oracle.generate"],
        "oracle.build.calls": c("oracle.build", 0),
        "oracle.generate.yield": ratio(c("oracle.generated", 0), c("oracle.build", 0)),
        "oracle.reverify.calls": calls["oracle.reverify"],
        "oracle.reverify.total_s": total["oracle.reverify"],
        "oracle.scan.build_s": scan_build,
        "oracle.scan.checked": c("oracle.scan.checked", 0),
        "oracle.scan.admissible_ratio": ratio(c("oracle.scan.admissible", 0),
                                              c("oracle.scan.checked", 0)),
        "theorems.check.calls": calls["theorems.check"],
        "theorems.check.self_s": self_s["theorems.check"],
        "theorems.pre.calls": calls["theorems.pre"],
        "theorems.pre.total_s": total["theorems.pre"],
        "theorems.in_hypotheses_ratio": ratio(c("theorems.in_hypotheses", 0),
                                              c("theorems.verdicts", 0)),
        "sequences.diff.calls": calls["sequences.diff"],
        "sequences.diff.self_s": self_s["sequences.diff"],
        "sequences.order.calls": calls["sequences.order"],
        "sequences.order.self_s": self_s["sequences.order"],
        "sequences.segment.calls": calls["sequences.segment"],
        "sequences.segment.self_s": self_s["sequences.segment"],
        "intervals.constructed": c("intervals.constructed", 0),
        "intervals.gh_diff.calls": c("intervals.gh_diff", 0),
        "intervals.mul.calls": c("intervals.mul", 0),
        "intervals.pow.calls": c("intervals.pow", 0),
        "rationals.as_rational.calls": c("rationals.as_rational", 0),
    }
    out = {}
    for name, value in metrics.items():
        needs = _READ_AT.get(name, (name.rsplit(".", 1)[0],))
        if not installed.issuperset(needs):
            value = None
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith(("ratio", "yield")) else "count")
        out[name] = (value, unit)
    return out


def write_spans(path, spans, header):
    """Write one round's spans, times as measured, in microseconds from the
    round's first span."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t_base = min((s[1] for s in spans), default=0.0)
    rows = [[index[n], round((t0 - t_base) * 1e6, 2), round((t1 - t_base) * 1e6, 2), p]
            for n, t0, t1, p in spans]
    doc = dict(header, names=names, columns=["name", "start_us", "end_us", "parent"],
               spans=rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))

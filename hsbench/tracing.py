"""In-memory spans around the calls the benchmark makes into hsrec.

A span is (name, start, end, parent, attrs). Spans are kept in a list in
start order, so a parent always precedes its children; nothing is written
until the run ends. The untraced run uses NullTracer, whose spans cost one
attribute lookup and a nullcontext.

`installed` wraps, from outside the package, the public names the solver
loop and the file reader call through. It replaces module attributes, so
it sees every call made through those modules' globals and no other.
"""

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

# Direct children of a solve span, grouped into the shares the benchmark
# reports. Everything not covered by a child is the loop's own arithmetic.
SHARE_OF = {
    "project": "project",
    "adjoint": "adjoint",
    "tv": "tv",
    "prox_l1": "prox",
    "basis_apply": "prox",
    "haar.analyze": "prox",
    "haar.synthesize": "prox",
    "cost.hybrid": "cost",
    "cost.bpdn": "cost",
}
SHARES = ("project", "adjoint", "tv", "prox", "cost", "loop")


class NullTracer:
    enabled = False

    def span(self, name, **attrs):
        return contextlib.nullcontext(attrs)

    def wrap(self, fn, name, attrs_fn=None):
        return fn


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record a span; yields its attrs dict so the caller can add results."""
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, attrs_fn=None):
        def traced(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced


def _rademacher_attrs(gen, shape):
    return {"entries": int(np.prod(shape))}


@contextlib.contextmanager
def installed(tracer):
    """Wrap the traced hsrec names while the block runs (no-op untraced)."""
    if not tracer.enabled:
        yield
        return
    from hsrec import formats, rng, solvers

    targets = [(solvers, "project", "project", None),
               (solvers, "adjoint", "adjoint", None),
               (solvers, "tv_sum_and_subgradient", "tv", None),
               (solvers, "prox_l1", "prox_l1", None),
               (solvers, "basis_apply", "basis_apply", None),
               (solvers, "cost_hybrid", "cost.hybrid", None),
               (solvers, "cost_bpdn", "cost.bpdn", None),
               (rng, "rademacher", "rademacher", _rademacher_attrs)]
    # The reader builds its operators through these helpers today; fall back
    # to the classes so the read-side build spans survive their removal.
    for axis, cls in (("spatial", "SpatialProjector"),
                      ("spectral", "SpectralProjector")):
        helper = f"build_{axis}_projector"
        name = helper if hasattr(formats, helper) else cls
        targets.append((formats, name, f"build.{axis}", None))
    saved = []
    for module, attr, name, attrs_fn in targets:
        if not hasattr(module, attr):
            continue
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, attrs_fn))
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def trace_haar(tracer, haar):
    """Span the analyze/synthesize calls of one HaarBasis instance."""
    haar.analyze = tracer.wrap(haar.analyze, "haar.analyze")
    haar.synthesize = tracer.wrap(haar.synthesize, "haar.synthesize")
    return haar


def analyze(spans):
    """Self time per span and per-name totals.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap because the program is single-threaded.
    """
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    self_time = [d - c for d, c in zip(durations, child_time)]
    by_name = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, *_), dur, own in zip(spans, durations, self_time):
        entry = by_name[name]
        entry["count"] += 1
        entry["total_s"] += dur
        entry["self_s"] += own
    return durations, self_time, dict(by_name)


def nearest(spans, predicate):
    """For each span, the index of the closest ancestor-or-self matching
    predicate(name), or -1."""
    out = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if predicate(name):
            out.append(i)
        else:
            out.append(out[parent] if parent >= 0 else -1)
    return out


def solve_shares(spans, durations, self_time):
    """Share of all solve time spent in each SHARES category.

    A category's time is the full duration of the solve's direct children
    in it, so a project call made inside the cost counts as cost; 'loop'
    is the solve span's own self time.
    """
    totals = dict.fromkeys(SHARES, 0.0)
    solve_total = 0.0
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name.startswith("solve."):
            solve_total += durations[i]
            totals["loop"] += self_time[i]
        elif parent >= 0 and spans[parent][0].startswith("solve."):
            totals[SHARE_OF.get(name, "loop")] += durations[i]
    if solve_total == 0.0:
        return dict.fromkeys(SHARES, 0.0)
    return {k: v / solve_total for k, v in totals.items()}


def dump(spans, path):
    """Write spans as JSON lines: name, start and end (s), parent, attrs."""
    with open(path, "w") as fh:
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "attrs": attrs}) + "\n")

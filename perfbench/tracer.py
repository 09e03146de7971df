"""In-process tracing of the mary layers, from outside the package.

The tracer replaces public names in the mary modules with timing wrappers,
patching each name where its caller looks it up (``mary.cli.residue_b``,
``mary.congruence.count_b_series``, ``mary.series.mul`` and so on), and
restores the originals afterwards.  Nothing inside ``src/`` is changed.

Three kinds of wrapper, chosen by how often a call happens:

* span: one record per call (name, start, end, parent span), for the
  per-cell and per-expansion calls, a few thousand per command at most;
* fold: the per-n hot calls (about 216k per verify) only add to a call
  counter and a time sum, because one span each would inflate the run;
* count: the innermost calls, counted but not timed.

Every timed wrapper charges its elapsed time to the enclosing wrapper, so
each layer also gets a self time: its own time minus its timed children.
"""

from __future__ import annotations

import importlib
import itertools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer -> the (module, attribute) names its calls go through
SPANS = {
    "cli.cell": (("mary.cli", "_verify_cell"),),
    "cli.grid_build": (("mary.cli", "default_grid"),),
    "congruence.expand_theorem": (
        ("mary.cli", "expand_b_theorem"),
        ("mary.cli", "expand_c_theorem"),
    ),
    "congruence.expand_product": (
        ("mary.cli", "expand_b_product"),
        ("mary.cli", "expand_c_product"),
    ),
    "counting.series": (
        ("mary.cli", "count_b_series"),
        ("mary.cli", "count_c_series"),
        ("mary.congruence", "count_b_series"),
        ("mary.congruence", "count_c_series"),
    ),
    "series.mul": (("mary.series", "mul"),),
}
FOLDED = {
    "congruence.residue": (("mary.cli", "residue_b"), ("mary.cli", "residue_c")),
    "congruence.hypothesis": (
        ("mary.cli", "check_hypothesis"),
        ("mary.congruence", "check_hypothesis"),
    ),
}
COUNTED = {
    "series.coprimality_witness": (
        ("mary.congruence", "coprimality_witness"),
        ("mary.series", "coprimality_witness"),
    ),
}

# spans of these layers also record their (small) arguments, which say
# which command or which grid cell they belong to
DETAILED = frozenset({"cli.command", "cli.cell"})


class Tracer:
    """Spans, call counts and inclusive/self times for one traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._ids = itertools.count(1)
        # one frame per active timed call: [span id or None, child seconds]
        self._stack: list[list] = [[None, 0.0]]

    def timed(self, layer: str, fn, *, keep_span: bool):
        detailed = layer in DETAILED
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(self._ids) if keep_span else None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                calls[layer] += 1
                total[layer] += elapsed
                self_time[layer] += elapsed - frame[1]
                if keep_span:
                    span = {
                        "id": frame[0],
                        "parent": self._enclosing_span(),
                        "name": layer,
                        "start": start,
                        "end": end,
                        "self": elapsed - frame[1],
                    }
                    if detailed:
                        span["args"] = repr(args)
                    self.spans.append(span)

        return wrapper

    def counted(self, layer: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enclosing_span(self):
        for span_id, _ in reversed(self._stack):
            if span_id is not None:
                return span_id
        return None

    @contextmanager
    def installed(self):
        """Patch every traced name that exists; restore them all on exit."""
        saved = []
        plans = [(SPANS, lambda layer, fn: self.timed(layer, fn, keep_span=True)),
                 (FOLDED, lambda layer, fn: self.timed(layer, fn, keep_span=False)),
                 (COUNTED, self.counted)]
        try:
            for table, make in plans:
                for layer, names in table.items():
                    for module_name, attr in names:
                        module = importlib.import_module(module_name)
                        original = getattr(module, attr, None)
                        if original is None:
                            continue
                        saved.append((module, attr, original))
                        setattr(module, attr, make(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

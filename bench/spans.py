"""In-memory span tracer for the benchmark's traced runs.

A span is recorded by replacing a public dlab function with a timing wrapper
at the module binding its caller looks up.  ``from .blocks import concat_all``
gives ``thm1`` its own binding, so the wrapper goes on ``thm1.concat_all`` as
well as on ``blocks``.  Span names are the defining module and function
(``blocks.concat_all``) whichever binding was wrapped; the parent link says
where the call came from.  Nothing under ``src/`` changes, and an untraced
run installs no wrapper at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
import types
from collections import Counter

# (module, attribute) of every binding a traced run wraps.
TRACED = (
    ("cli", "main"),
    ("cli", "dump_tdseq"),
    ("blocks", "load_tdseq"),
    ("blocks", "read_tdseq"),
    ("blocks", "write_tdseq"),
    ("thm1", "build"),
    ("thm1", "concat_all"),
    ("thm1", "scale"),
    ("thm1", "check_c1"),
    ("thm1", "check_c2prime"),
    ("thm1", "check_c3"),
    ("thm1", "literal_smallness_falsifier"),
    ("thm1", "check_tails"),
    ("thm2", "build_to_stage"),
    ("thm2", "solve_spacers"),
    ("thm2", "build_stage"),
    ("thm2", "solve_transitive_spacers"),
    ("thm2", "build_transitive_stage"),
    ("thm2", "stage_reports"),
    ("thm2", "sliding_falsifier"),
    ("thm2", "concat_all"),
    ("thm2", "scale"),
    ("thm2", "zeros"),
    ("recurrence", "pair_separation_check"),
    ("recurrence", "escape_witness"),
    ("recurrence", "cross_omega_witness"),
    ("recurrence", "epsilon_recurrence_times"),
    ("oracle", "sweep"),
    ("oracle", "check_map_determinism"),
    ("oracle", "lemma7_checks"),
    ("oracle", "is_td"),
)

# Spans whose first argument is a FiniteSystem; its table keys the span so
# a map's determinism and power-fact checks can be joined into one sample.
MAP_KEYED = {"oracle.check_map_determinism", "oracle.lemma7_checks"}


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Records spans ``[name, start, end, parent, key]`` in call order.

    ``parent`` is the index of the enclosing span, -1 at top level.  The
    process is single-threaded, so one stack gives the nesting.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def _open(self, name: str, key=None) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, key]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around harness code."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = span_name(original)
        keyed = name in MAP_KEYED
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name, args[0].table if keyed else None)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def count_calls(self, module, attr: str, counter: str, measure) -> None:
        """Add ``measure(result)`` to ``counter`` on every call; records no span."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.counts[counter] += measure(result)
            return result

        setattr(module, attr, counted)
        self._patched.append((module, attr, original))

    def install(self, modules: dict) -> None:
        for mod, attr in TRACED:
            self.wrap(modules[mod], attr)
        # Escape and limit-pair witnesses both size their scan here.
        self.count_calls(
            modules["recurrence"], "_admissible_centers", "recurrence.centers",
            lambda lo_hi: lo_hi[1] - lo_hi[0] + 1,
        )

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write every span as ``[id, name, start, end, parent, run_id]``."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "name", "start", "end", "parent", "run_id"],
                    "spans": [
                        [i, s[0], s[1], s[2], s[3], self.run_id]
                        for i, s in enumerate(self.spans)
                    ],
                },
                f,
            )
            f.write("\n")


def _noop(x):
    return x


def wrapper_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one span wrapper adds to a call, timed in this process.

    The best of ``rounds`` batches of a wrapped and of a plain no-op call;
    the difference is what each recorded span costs the traced run.
    """
    module = types.SimpleNamespace(f=_noop)
    tracer = Tracer("calibration")
    tracer.wrap(module, "f")

    def per_call(fn) -> float:
        best = math.inf
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                fn(None)
            best = min(best, time.perf_counter() - start)
            tracer.spans.clear()
        return best / calls

    return max(0.0, per_call(module.f) - per_call(_noop))


# -- analysis -----------------------------------------------------------------


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def span_table(spans: list, wall_s: float) -> list:
    """Rows ``(name, calls, self_s, share of wall)``, largest self time first."""
    selfs = self_times(spans)
    calls, total = Counter(), Counter()
    for s, own in zip(spans, selfs):
        calls[s[0]] += 1
        total[s[0]] += own
    rows = [(n, calls[n], total[n], total[n] / wall_s) for n in calls]
    rows.sort(key=lambda r: -r[2])
    return rows


def enclosed(spans: list, names: set) -> list:
    """For each span, whether it is named in ``names`` or lies inside one that is."""
    inside = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        inside[i] = name in names or (parent >= 0 and inside[parent])
    return inside


def without(spans: list, names: set) -> list:
    """The spans outside those named in ``names``, re-indexed.

    A span outside them has its parent outside them too, so every parent
    link survives.
    """
    index, out = {}, []
    for i, (s, inside) in enumerate(zip(spans, enclosed(spans, names))):
        if not inside:
            index[i] = len(out)
            out.append([s[0], s[1], s[2], index.get(s[3], -1), s[4]])
    return out


def outer_time(spans: list, names: set) -> float:
    """Wall time inside spans named in ``names``, not counting nested ones twice."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        enclosed = parent >= 0 and inside[parent]
        inside[i] = enclosed or name in names
        if name in names and not enclosed:
            total += end - start
    return total


def self_time(spans: list, names: set) -> float:
    return sum(
        own for s, own in zip(spans, self_times(spans)) if s[0] in names
    )


def map_samples_ms(spans: list) -> list:
    """Per-map time: a map's power-fact check plus its determinism check, if any.

    Sweeps and seeded maps run the two checks back to back on one table;
    maps from a permutations-only sweep have only the power-fact check.
    """
    out = []
    pending = None
    for name, start, end, _, key in spans:
        if name == "oracle.check_map_determinism":
            pending = (key, end - start)
        elif name == "oracle.lemma7_checks":
            extra = pending[1] if pending is not None and pending[0] == key else 0.0
            out.append((end - start + extra) * 1e3)
            pending = None
    return out


def percentile(samples: list, pct: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]

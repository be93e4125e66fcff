"""Per-layer metrics: what each one aggregates from a traced repetition.

Kinds:
  outer   wall time inside the named spans (a nested span is not counted twice)
  self    self time of the named spans (duration minus child spans)
  calls   number of spans with the name
  counter a count the harness or a call hook recorded
Other metrics are derived in ``per_layer`` below.

thm2-pair ends with a transitive build, whose stages 1-3 run the same solver
as the stage-5 build.  Its whole step is one ``step.thm2.transitive`` span,
reported as ``thm2.transitive_s``; the ``SOLVER`` metrics count only the
spans outside it, so they describe the stage-5 build alone.
"""

from __future__ import annotations

from spans import map_samples_ms, outer_time, percentile, self_time, without

# (name, unit, kind, span names)
PER_LAYER = (
    ("thm1.build_s", "s", "outer", {"thm1.build"}),
    ("thm1.c1_s", "s", "outer", {"thm1.check_c1"}),
    ("thm1.c3_s", "s", "outer", {"thm1.check_c3"}),
    ("thm1.c2prime_s", "s", "outer", {"thm1.check_c2prime"}),
    ("thm1.literal_s", "s", "outer", {"thm1.literal_smallness_falsifier"}),
    ("thm1.tails_s", "s", "outer", {"thm1.check_tails"}),
    ("thm1.symbols", "count", "counter", None),
    ("thm1.nonzeros", "count", "counter", None),
    ("thm1.distinct_values", "count", "counter", None),
    ("thm1.build_peak_mb", "MB", "counter", None),
    ("blocks.write_tdseq_s", "s", "outer", {"blocks.dump_tdseq", "blocks.write_tdseq"}),
    ("blocks.read_tdseq_s", "s", "outer", {"blocks.load_tdseq", "blocks.read_tdseq"}),
    ("blocks.tdseq_bytes", "bytes", "counter", None),
    ("blocks.concat_all_s", "s", "self", {"blocks.concat_all"}),
    ("blocks.scale_s", "s", "self", {"blocks.scale"}),
    ("blocks.zeros_s", "s", "self", {"blocks.zeros"}),
    ("thm2.build_peak_mb", "MB", "counter", None),
    ("thm2.solve_s", "s", "outer", {"thm2.solve_spacers"}),
    ("thm2.build_stage_s", "s", "outer", {"thm2.build_stage"}),
    ("thm2.build_stage_calls", "count", "calls", {"thm2.build_stage"}),
    ("thm2.solver_accept_ratio", "ratio", "derived", None),
    ("thm2.stage_reports_s", "s", "outer", {"thm2.stage_reports"}),
    ("thm2.transitive_s", "s", "outer", {"step.thm2.transitive"}),
    ("thm2.symbols", "count", "counter", None),
    ("thm2.nonzeros", "count", "counter", None),
    ("recurrence.escape_s", "s", "outer", {"recurrence.escape_witness"}),
    ("recurrence.omega_s", "s", "outer", {"recurrence.cross_omega_witness"}),
    ("recurrence.pair_sep_s", "s", "outer", {"recurrence.pair_separation_check"}),
    ("recurrence.epsilon_times_s", "s", "outer", {"recurrence.epsilon_recurrence_times"}),
    ("recurrence.centers", "count", "counter", None),
    ("recurrence.witness_runs", "count", "counter", None),
    ("oracle.sweep_s", "s", "outer", {"oracle.sweep"}),
    ("oracle.is_td_s", "s", "self", {"oracle.is_td"}),
    ("oracle.is_td_calls", "count", "calls", {"oracle.is_td"}),
    ("oracle.lemma7_s", "s", "self", {"oracle.lemma7_checks"}),
    ("oracle.lemma7_calls", "count", "calls", {"oracle.lemma7_checks"}),
    ("oracle.check_map_s", "s", "self", {"oracle.check_map_determinism"}),
    ("oracle.maps", "count", "derived", None),
    ("oracle.map_ms_p50", "ms", "derived", None),
    ("oracle.map_ms_p99", "ms", "derived", None),
    ("cli.self_s", "s", "self", {"cli.main"}),
    ("report.lines", "count", "counter", None),
    ("report.bytes", "bytes", "counter", None),
    ("bench.check_s", "s", "self", {"bench.check", "bench.counters"}),
    ("trace.wall_s", "s", "derived", None),
    ("trace.coverage", "ratio", "derived", None),
    ("trace.overhead_s", "s", "derived", None),
)

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

TRANSITIVE_STEP = {"step.thm2.transitive"}
SOLVER = {"thm2.solve_s", "thm2.build_stage_s", "thm2.build_stage_calls", "thm2.stage_reports_s"}

# The p99 needs at least this many maps to have ten samples beyond it.
P99_MIN_SAMPLES = 1000


def per_layer(spans: list, counts: dict, wall_s: float, span_cost_s: float) -> dict:
    """Every per-layer metric of one traced repetition.

    ``span_cost_s`` is what one span wrapper adds to a call (timed by
    ``spans.wrapper_cost`` in the same worker); the tracing overhead is that
    times the number of spans, plus the counters only a traced run computes.
    """
    out = {}
    stage5 = without(spans, TRANSITIVE_STEP)
    for name, _, kind, names in PER_LAYER:
        scope = stage5 if name in SOLVER else spans
        if kind == "outer":
            out[name] = outer_time(scope, names)
        elif kind == "self":
            out[name] = self_time(scope, names)
        elif kind == "calls":
            out[name] = sum(1 for s in scope if s[0] in names)
        elif kind == "counter":
            out[name] = counts.get(name, 0)
    builds = out["thm2.build_stage_calls"]
    accepted = sum(1 for s in stage5 if s[0] == "thm2.solve_spacers")
    out["thm2.solver_accept_ratio"] = accepted / builds if builds else 0.0
    maps = map_samples_ms(spans)
    out["oracle.maps"] = len(maps)
    out["oracle.map_ms_p50"] = percentile(maps, 50)
    out["oracle.map_ms_p99"] = percentile(maps, 99) if len(maps) >= P99_MIN_SAMPLES else 0.0
    out["trace.wall_s"] = wall_s
    top = sum(e - s for _, s, e, parent, _ in spans if parent < 0)
    out["trace.coverage"] = top / wall_s if wall_s else 0.0
    out["trace.overhead_s"] = len(spans) * span_cost_s + outer_time(spans, {"bench.counters"})
    return out

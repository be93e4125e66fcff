"""One benchmark repetition in a fresh process.

The parent (``run.py``) spawns this script once per repetition and reads the
last line of its standard output, one JSON object.  dlab is imported first,
from the checkout's ``src``, so the parent can time set-up as spawn to import.

Modes:
  setup   import dlab and report when that finished; nothing else
  plain   run the workload untouched and time it
  traced  run it with spans around the layer calls, then report per-layer
          metrics and the tracemalloc peak of the workload's build
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dlab  # noqa: E402
import dlab.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--golden", help="golden digest file; default bench/golden.json")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(dlab.__file__).startswith(src + os.sep):
        print(f"error: imported dlab from {dlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"imported_at": IMPORTED_AT}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    os.chdir(ROOT)
    size = workloads.SIZES[args.size]
    with open(args.golden or os.path.join(ROOT, "bench", "golden.json"), encoding="utf-8") as f:
        golden = json.load(f)[args.size]

    tracer = None
    if args.mode == "traced":
        # Only traced workers load the tracer, so plain ones carry nothing extra.
        import layers
        import spans
        import tracemalloc

        tracer = spans.Tracer(f"{args.workload}/{args.size}/seed{args.seed}/rep{args.rep}")
        tracer.install({m: getattr(dlab, m) for m in ("blocks", "cli", "oracle", "recurrence", "thm1", "thm2")})
    gate = workloads.Gate(golden, args.seed, tracer)
    start = time.perf_counter()
    workloads.WORKLOADS[args.workload](gate, size, args.seed)
    wall = time.perf_counter() - start

    result.update(
        wall_s=wall,
        ops=gate.ops,
        failed=gate.failed,
        steps=gate.summary(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        tracer.uninstall()
        tracer.count("report.lines", sum(len(s.lines) for s in gate.steps))
        tracer.count("report.bytes", sum(len(line) + 1 for s in gate.steps for line in s.lines))
        spans_dir = os.path.join(ROOT, "bench", "out", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_file = os.path.join(spans_dir, f"{args.workload}-{args.size}-seed{args.seed}-rep{args.rep}.json")
        tracer.dump(spans_file)
        metrics = layers.per_layer(tracer.spans, tracer.counts, wall, spans.wrapper_cost())
        peak = workloads.peak_build(args.workload, size)
        if peak is not None:
            name, build = peak
            tracemalloc.start()
            built = build()
            metrics[name] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            del built
        result.update(
            per_layer=metrics,
            table=spans.span_table(tracer.spans, wall),
            spans_file=os.path.relpath(spans_file, ROOT),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

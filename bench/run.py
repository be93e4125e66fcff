"""dlab benchmark: three workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload thm1-rigid --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1

Each repetition runs in a fresh worker process (``worker.py``), one at a
time, with no cache warmed beforehand: a CLI user pays the builds and the
partition tables on every invocation.  Repetitions continue until the next
one would end after ``--seconds``; there is always at least one.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``);
times are rescaled by a CPU speed probe, see ``probe`` and bench/README.md.
With ``--trace 1`` every repetition is traced and the metrics are the
per-layer ones.  Every run also writes a results file with provenance under
``bench/out/results/``.  Exits 2 if the harness cannot run, 1 if any
operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("thm1-rigid", "thm2-pair", "oracle-sweep")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Extra spawns that only import dlab, so set-up has several samples even
# when one repetition fills the run.
SETUP_SPAWNS = 7
WORKER_TIMEOUT_S = 170
# The speed probe: a fixed loop that shares no code with dlab, run in this
# process every PROBE_PERIOD_S while a worker runs.  Shared hosts swing a
# CPU's speed by up to 2x for tens of seconds at a time; time metrics are
# rescaled to a CPU on which the probe takes PROBE_REF_S, by the factor
# PROBE_REF_S / median probe time.  Fitted over sets of ten seeds, the
# workloads' wall time followed probe time to a power between 0.45 and 1.4,
# depending on the workload and the hour, so the correction is partial (see
# bench/README.md).  Neither process is pinned: pinned to separate CPUs, the
# probe tracked the worker's speed less well.
PROBE_REF_S = 0.0012
PROBE_PERIOD_S = 0.1


class HarnessError(RuntimeError):
    """The benchmark itself could not run."""


def probe() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i % 7
    return time.perf_counter() - start


def spawn(mode: str, args, workload: str = "", rep: int = 0) -> dict:
    """Run one worker; probe CPU speed while it runs and once after."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(args.seed), "--size", args.size,
        "--rep", str(rep),
    ]
    if args.golden:
        cmd += ["--golden", args.golden]
    probes = []
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    while True:
        try:
            stdout, stderr = proc.communicate(timeout=PROBE_PERIOD_S)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() - spawned_at > WORKER_TIMEOUT_S:
                proc.kill()
                proc.communicate()
                raise HarnessError(
                    f"{mode} worker for {workload} exceeded {WORKER_TIMEOUT_S} s"
                ) from None
            probes.append(probe())
    probes.append(probe())
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"{mode} worker for {workload} exited {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    # CLOCK_MONOTONIC is shared by every process on the machine.
    result["setup_s"] = result["imported_at"] - spawned_at
    # The median, because a probe the OS interrupts reads far too slow.
    result["probe_s"] = statistics.median(probes)
    result["speed"] = PROBE_REF_S / result["probe_s"]
    return result


def measure(workload: str, args) -> dict:
    """Run the repetitions of one workload and reduce them to metrics.

    Raw times are kept as samples; the metrics are medians of each sample
    times the speed factor of the worker it came from.
    """
    setup_runs = [spawn("setup", args) for _ in range(SETUP_SPAWNS)]
    kind = "traced" if args.trace else "plain"
    reps = []
    deadline = time.monotonic() + args.seconds
    while True:
        started = time.monotonic()
        reps.append(spawn(kind, args, workload, len(reps)))
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    workers = setup_runs + reps
    samples = {
        "raw_wall_s": [r["wall_s"] for r in reps],
        "raw_setup_s": [r["setup_s"] for r in workers],
        "wall_s": [r["wall_s"] * r["speed"] for r in reps],
        "setup_s": [r["setup_s"] * r["speed"] for r in workers],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "probe_s": [r["probe_s"] for r in workers],
    }
    ops = {r["ops"] for r in reps}
    if len(ops) != 1:
        raise HarnessError(f"{workload}: repetitions attempted different numbers of operations {sorted(ops)}")
    out = {
        "workload": workload,
        "samples": samples,
        "medians": {name: statistics.median(v) for name, v in samples.items()},
        "repetitions": len(reps),
        "ops": ops.pop(),
        "failed": sum(r["failed"] for r in reps),
        "steps": next((r["steps"] for r in reps if r["failed"]), reps[0]["steps"]),
    }
    if args.trace:
        out["per_layer"] = {
            name: statistics.median(r["per_layer"][name] for r in reps)
            for name, _, _, _ in PER_LAYER
        }
        out["table"] = reps[0]["table"]
        out["spans_files"] = [r["spans_file"] for r in reps]
    else:
        out["end_to_end"] = {name: out["medians"][name] for name, _ in END_TO_END}
    return out


# -- provenance -----------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above ROOT."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, results: list) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "seed": args.seed,
        "size": args.size,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "repetitions": {
            r["workload"]: {name: len(v) for name, v in r["samples"].items()} for r in results
        },
        "probe_ref_s": PROBE_REF_S,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- output -----------------------------------------------------------------------


def print_result(res: dict, args) -> None:
    w = res["workload"]
    reps = res["repetitions"]
    print(f"== {w}  seed={args.seed} size={args.size} seconds={args.seconds} trace={args.trace}")
    if not args.trace:
        print(f"  {'metric':<14}{'median':>14}  {'unit':<6}samples")
        for name, unit in END_TO_END:
            print(f"  {name:<14}{res['end_to_end'][name]:>14.4f}  {unit:<6}{len(res['samples'][name])}")
        med = res["medians"]
        print(
            f"  (as measured: wall {med['raw_wall_s']:.4f} s, setup {med['raw_setup_s']:.4f} s; "
            f"speed probe {med['probe_s'] * 1e3:.3f} ms against {PROBE_REF_S * 1e3:.3f} ms)"
        )
    print(f"  {'ops':<14}{res['ops']:>14}  count per repetition, {reps} repetitions")
    print(f"  {'ops_failed':<14}{res['failed']:>14}  count over all {reps} repetitions")
    for step in res["steps"]:
        for problem in step["problems"]:
            print(f"  FAILED {step['step']}: {problem}")
    if not args.trace:
        return
    layer = res["per_layer"]
    print(f"  -- per layer: first traced repetition, wall {res['samples']['raw_wall_s'][0]:.4f} s")
    print(f"  {'span':<38}{'calls':>8}{'self_s':>12}{'share':>9}")
    for name, calls, own, share in res["table"]:
        print(f"  {name:<38}{calls:>8}{own:>12.4f}{share:>8.1%}")
    uncovered = 1 - layer["trace.coverage"]
    flag = "FLAG: " if uncovered > 0.10 else ""
    print(f"  {flag}named spans leave {uncovered:.1%} of the traced wall unaccounted for")
    print(f"  -- per-layer metrics: medians over {reps} traced repetitions")
    for name, unit, _, _ in PER_LAYER:
        if layer[name]:
            print(f"  {name:<38}{layer[name]:>16.6g}  {unit}")
    idle = [name for name, _, _, _ in PER_LAYER if not layer[name]]
    if idle:
        print(f"  zero on this workload: {' '.join(idle)}")


def write_results(res: dict, prov: dict, args) -> str:
    out_dir = os.path.join(HERE, "out", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{res['workload']}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    units = dict(END_TO_END) | {name: unit for name, unit, _, _ in PER_LAYER}
    record = {
        "provenance": prov,
        "workload": res["workload"],
        "repetitions": res["repetitions"],
        "ops_per_repetition": res["ops"],
        "ops_failed": res["failed"],
        "medians": res["medians"],
        "samples": res["samples"],
        "steps": res["steps"],
    }
    if not args.trace:
        record["end_to_end"] = {k: {"value": v, "unit": units[k]} for k, v in res["end_to_end"].items()}
    else:
        record["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
        record["table"] = [
            {"span": n, "calls": c, "self_s": s, "share": f} for n, c, s, f in res["table"]
        ]
        record["spans_files"] = res["spans_files"]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return os.path.relpath(path, ROOT)


def metrics_of(res: dict, trace: int, prefix: str = "") -> dict:
    if trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        values = res["per_layer"]
    else:
        units = dict(END_TO_END)
        values = res["end_to_end"]
    return {prefix + k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every step at small stages (self-test)")
    parser.add_argument("--golden", help="golden digest file (default bench/golden.json)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dlab", "__init__.py")):
        print(f"error: no dlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args) for w in workloads]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov = provenance(args, results)
    metrics = {}
    for res in results:
        print_result(res, args)
        print(f"  results: {write_results(res, prov, args)}")
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update(metrics_of(res, args.trace, prefix))
    print(
        f"provenance: python {prov['python']}, nproc {prov['nproc']}, "
        f"cpu {prov['cpu_model']}, commit {prov['commit']}"
    )
    attempted = sum(r["ops"] * r["repetitions"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

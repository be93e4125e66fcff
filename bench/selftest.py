"""Self-test of the benchmark harness on tiny sizes.

    python3 bench/selftest.py

Runs every workload at thm1 stage 4, thm2 stage 3 and oracle n <= 4, and
checks that:
  - each run is correct and reports every metric BENCHMARK.json names, with
    its unit, untraced and traced;
  - in each traced run every child span lies inside its parent, in the same
    repetition;
  - planting one wrong golden digest, for each digest in turn, makes
    ops_failed > 0;
  - in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "selftest")


def run(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--size", "tiny", "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def nesting_problems(path: str) -> list:
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        spans = json.load(f)["spans"]
    by_id = {s[0]: s for s in spans}
    out = []
    nested = 0
    for sid, name, start, end, parent, run_id in spans:
        if end < start:
            out.append(f"{path}: span {sid} {name} ends before it starts")
        if parent < 0:
            continue
        nested += 1
        _, pname, pstart, pend, _, prun = by_id[parent]
        if not (pstart <= start and end <= pend and prun == run_id):
            out.append(f"{path}: span {sid} {name} escapes its parent {parent} {pname}")
    if not nested:
        out.append(f"{path}: no nested spans recorded")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for w in workloads:
            code, result, err = run("--workload", w, "--trace", str(trace))
            if result is None:
                problems.append(f"{w} trace={trace}: no result (exit {code}): {err[-500:]}")
                continue
            if code != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{w} trace={trace}: exit {code}, result {result['correct']} "
                                f"{result['failed']}/{result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metric units differ: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if trace:
                with open(os.path.join(HERE, "out", "results", f"{w}-tiny-seed0-trace1.json"), encoding="utf-8") as f:
                    for path in json.load(f)["spans_files"]:
                        problems.extend(nesting_problems(path))

    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as f:
        golden = json.load(f)
    for key in sorted(golden["tiny"]["digests"]):
        planted = json.loads(json.dumps(golden))
        planted["tiny"]["digests"][key] = "0" * 64
        path = os.path.join(SCRATCH, "golden-planted.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(planted, f)
        code, result, err = run("--workload", "all", "--golden", path)
        if result is None or result["failed"] < 1 or result["correct"] or code != 1:
            problems.append(f"planted wrong digest for {key} went unnoticed (exit {code})")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result, _ = run("--workload", workloads[0], root=bare)
    if code == 0 or result is not None:
        problems.append(f"without dlab sources the benchmark exited {code} with result {result}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'FAIL' if problems else 'PASS'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

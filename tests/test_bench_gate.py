"""The benchmark's correctness gate, run in the test suite: every workload at
the measured size must match ``bench/golden.json``, so a change that moves a
golden digest fails here and not first in a benchmark run."""

import json
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"


def _load_workloads():
    # Executed from its source, so no bytecode cache is written under bench/.
    workloads = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), workloads.__dict__)
    return workloads


def test_every_workload_matches_the_golden_digests(monkeypatch):
    workloads = _load_workloads()
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())["full"]
    monkeypatch.chdir(ROOT)  # the workloads write and report repo-relative paths
    size = workloads.SIZES["full"]
    for name, run in workloads.WORKLOADS.items():
        gate = workloads.Gate(golden, 0)
        run(gate, size, 0)
        problems = [(s["step"], s["problems"]) for s in gate.summary() if s["failed"]]
        assert gate.ops > 0, name
        assert gate.failed == 0, (name, problems)

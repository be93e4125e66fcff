"""The mutant list of ``tests/mutants.py`` cannot rot silently: each source
text still occurs exactly once, each mutant still compiles, and each node id
that must kill one still exists."""

import os
import subprocess
import sys

from child_env import CHILD_ENV
from mutants import MUTANTS, ROOT, mutated


def test_each_mutant_names_one_place_and_one_verdict():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert ("kills" in mutant) != ("equivalent" in mutant), mutant["name"]
        assert mutant.get("kills", True) and mutant.get("equivalent", True)
        path = os.path.join(ROOT, "src", mutant["file"])
        with open(path) as f:
            source = f.read()
        assert mutant["replacement"] != mutant["text"]
        compile(mutated(mutant, source), path, "exec")  # occurs once, still parses


def test_every_killing_node_id_exists():
    node_ids = sorted({i for m in MUTANTS for i in m.get("kills", ())})
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *node_ids],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert set(node_ids) <= set(result.stdout.splitlines())

"""Mutation runner: each listed boundary mutant of ``src/dlab`` must be killed.

Run from anywhere, with the standard library and pytest only:

    python3 tests/mutants.py

Each entry of ``MUTANTS`` names a file under ``src``, an exact source text
that occurs there once, and its replacement.  It then gives either ``kills``,
the pytest node ids that must each fail on the mutant, or ``equivalent``, why
no test can tell the mutant from the program (such entries are listed, not
run).

The runner copies ``src``, ``tests`` and ``pyproject.toml`` into a
``tempfile`` directory, checks that the listed node ids pass there unmutated
and that the child imports ``dlab`` from the copy, then applies one mutant at
a time and runs one child pytest per node id, one child at a time.  A mutant
is killed when every listed node id fails: its test fails, its run crashes,
or it runs out of its 120 s or of its 1 GiB address space (a mutant that
stops the walk from advancing loops and grows its run list).  Exit 0 when
every mutant that is not equivalent is killed, 1 when one survives or fails
only some of its node ids, 2 when the unmutated copy does not pass.

The list starts with the span walk of ``dlab.recurrence``.  The mutants that
earlier changes ran by hand in a scratch copy (CHANGES.md: the sweep,
``check_cap``, the C3 gate, the copy audit) wait for a later change to be
listed here.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEMORY_LIMIT = 1 << 30
TIMEOUT_S = 120

WALK = "tests/test_recurrence.py::test_span_walk_matches_dense_runs_with_planted_boundaries"
RANDOM_STATES = (
    "tests/test_recurrence.py::test_escape_and_omega_match_dense_references_on_random_states"
)
HAND_ESCAPE = "tests/test_recurrence.py::test_escape_hand_state_x_side_two_choices_each"

MUTANTS = [
    {
        "name": "merge-ge",  # neighbours 2w + 1 apart stop sharing a span
        "file": "dlab/recurrence.py",
        "text": "map(gt, map(sub, positions[1:], positions)",
        "replacement": 'map(__import__("operator").ge, map(sub, positions[1:], positions)',
        "kills": [WALK],
    },
    {
        "name": "sentinel-hi",  # the sentinel covers the last center
        "file": "dlab/recurrence.py",
        "text": "clipped += starts[i:k] + [hi + 1], ends[i:k] + [hi + 1]",
        "replacement": "clipped += starts[i:k] + [hi], ends[i:k] + [hi]",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "clip-lo",  # a span that ends at lo is dropped
        "file": "dlab/recurrence.py",
        "text": "i, k = bisect_left(ends, lo), bisect_right(starts, hi)",
        "replacement": "i, k = bisect_right(ends, lo), bisect_right(starts, hi)",
        "kills": [WALK],
    },
    {
        "name": "clip-hi",  # a span that starts at hi is dropped
        "file": "dlab/recurrence.py",
        "text": "i, k = bisect_left(ends, lo), bisect_right(starts, hi)",
        "replacement": "i, k = bisect_left(ends, lo), bisect_left(starts, hi)",
        "kills": [WALK],
    },
    {
        "name": "free-1-ge",
        "file": "dlab/recurrence.py",
        "text": "if s1[a] > j:",
        "replacement": "if s1[a] >= j:",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "free-2-ge",
        "file": "dlab/recurrence.py",
        "text": "if s2[b] > j:",
        "replacement": "if s2[b] >= j:",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "free-3-ge",
        "file": "dlab/recurrence.py",
        "text": "if s3[c] > j:",
        "replacement": "if s3[c] >= j:",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "stop-clamp",  # an r = 3 run runs past the end of r = 2's span
        "file": "dlab/recurrence.py",
        "text": "        if e2[b] < stop:\n            stop = e2[b] + 1\n",
        "replacement": "",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "stop-clamp-le",
        "file": "dlab/recurrence.py",
        "text": "if s2[b] < stop:",
        "replacement": "if s2[b] <= stop:",
        "equivalent": "at s2[b] == stop the clamp writes the value stop already holds",
    },
    {
        "name": "failure-return",
        "file": "dlab/recurrence.py",
        "text": "        return runs, j\n",
        "replacement": "        return runs, j + 1\n",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "escape-shift",
        "file": "dlab/recurrence.py",
        "text": "d = r * scale_len",
        "replacement": "d = (r - 1) * scale_len",
        "kills": [RANDOM_STATES, HAND_ESCAPE],
    },
    {
        "name": "omega-shift",
        "file": "dlab/recurrence.py",
        "text": "repeat(r * time)",
        "replacement": "repeat((r - 1) * time)",
        "kills": [RANDOM_STATES],
    },
    {
        "name": "omega-dedup",
        "file": "dlab/recurrence.py",
        "text": "_spans(sorted(ret[r] + esc[r]), w)",
        "replacement": "_spans(sorted(set(ret[r] + esc[r])), w)",
        "equivalent": "a repeated position is a gap of 0, which shares a span anyway",
    },
]


def mutated(mutant: dict, source: str) -> str:
    """``source`` with the mutant's text replaced; the text must occur once."""
    count = source.count(mutant["text"])
    if count != 1:
        raise ValueError(f"{mutant['name']}: source text occurs {count} times, not once")
    return source.replace(mutant["text"], mutant["replacement"])


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(copy: str, node_ids: list):
    """Exit code of one child pytest on ``node_ids`` in ``copy``, or None when
    it runs out of time."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
            cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S,
            preexec_fn=_limit_memory,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _kills(copy: str, mutant: dict) -> list:
    """The mutant's node ids that do not fail on it, each run on its own: a
    failure leaves a frame full of runs behind it that would starve the next
    test of memory."""
    path = os.path.join(copy, "src", mutant["file"])
    with open(path) as f:
        source = f.read()
    with open(path, "w") as f:
        f.write(mutated(mutant, source))
    try:
        # Exit 1 is a failed test; 2 and 3 an interrupted or crashed run;
        # 0 a pass, and 4 or 5 node ids that were not run.
        return [
            node_id for node_id in mutant["kills"]
            if _pytest(copy, [node_id]) in (0, 4, 5)
        ]
    finally:
        with open(path, "w") as f:
            f.write(source)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dlab-mutants-") as copy:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        where = subprocess.run(
            [sys.executable, "-c", "import dlab; print(dlab.__file__)"],
            env={**os.environ, "PYTHONPATH": os.path.join(copy, "src")},
            capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(copy):
            print(f"the child imports dlab from {where or 'nowhere'}, not from the copy")
            return 2
        node_ids = sorted({i for m in MUTANTS for i in m.get("kills", ())})
        if _pytest(copy, node_ids) != 0:
            print("the listed tests do not pass on the unmutated copy")
            return 2
        survivors = 0
        for mutant in MUTANTS:
            if "equivalent" in mutant:
                print(f"EQUIVALENT {mutant['name']}: {mutant['equivalent']}")
                continue
            passed = _kills(copy, mutant)
            if passed:
                survivors += 1
                print(f"SURVIVED {mutant['name']}: not failed by {', '.join(passed)}")
            else:
                print(f"KILLED {mutant['name']}")
    print(f"{survivors} of {sum('kills' in m for m in MUTANTS)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

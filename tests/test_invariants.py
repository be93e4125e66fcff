"""Construction invariants are explicit checks, so they hold under ``python -O``."""

import math
import subprocess
import sys

import pytest

from child_env import CHILD_ENV

# Each script corrupts one construction step; its key names it, and the error
# it must meet is the key up to its first " (".
CORRUPTED_BUILDS = {
    "stage 2 does not extend stage 1": """
from dlab import thm1
from dlab.blocks import Block
real = thm1.concat_all
def corrupt(blocks, base):
    out = real(blocks, base=base)
    return Block([0] + [out[i] for i in range(out.base + 1, out.last + 1)], base=out.base)
thm1.concat_all = corrupt
thm1.build(3)
""",
    "stage 2 has length 9, expected 4 x 3": """
from dlab import thm1
real = thm1.concat_all
thm1.concat_all = lambda blocks, base: real(blocks[1:], base=base)
thm1.build(2)
""",
    # Every copy at ratio 1, so the row ends in stage 1's two zeros.
    "stage 2 ends in 2 zeros, need 3 (built)": """
from dlab import thm1
thm1._ratios = lambda m: (1,) * (m + 3)
thm1.build(2)
""",
    "stage 2 ends in 2 zeros, need 3 (layout)": """
from dlab import thm1
thm1._ratios = lambda m: (1,) * (m + 3)
thm1.step(thm1.build(1), flat=False)
""",
    "stage 2 x does not hold stage 1 at its center": """
from dlab import thm2
real = thm2.scale
thm2.scale = lambda t, b: real(t / 2, b)
thm2.build_to_stage(3)
""",
}

PROBE = """
import sys
from dlab.blocks import InvariantError
print("optimize", sys.flags.optimize)
try:
{body}
except InvariantError as exc:
    print("InvariantError", exc)
else:
    print("no error")
"""


@pytest.mark.parametrize("name", sorted(CORRUPTED_BUILDS))
def test_corrupted_step_raises_under_optimize(name):
    body = "\n".join("    " + line for line in CORRUPTED_BUILDS[name].strip().splitlines())
    result = subprocess.run(
        [sys.executable, "-O", "-c", PROBE.format(body=body)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1] == f"InvariantError {name.split(' (')[0]}"


# The export reads the top stage from its copy layout, so it keeps the
# layout's record checks: with no zero tail it is an internal error, and no
# file is written.
EXPORT_PROBE = """
import os, sys
from dlab import cli, thm1
print("optimize", sys.flags.optimize)
thm1._ratios = lambda m: (1,) * (m + 3)
print("exit", cli.main(["thm1", "build", "--stage", "2", "--out", {out!r}]))
print("written", os.path.exists({out!r}))
"""


def test_export_keeps_the_top_stage_checks_under_optimize(tmp_path):
    out = str(tmp_path / "x2.tdseq")
    result = subprocess.run(
        [sys.executable, "-O", "-c", EXPORT_PROBE.format(out=out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.stdout.splitlines() == ["optimize 1", "exit 3", "written False"]
    assert result.stderr == (
        "internal error: InvariantError('stage 2 ends in 2 zeros, need 3')\n"
    )


# Stage 5 with one value changed inside copy 2: the copy-layout audit must
# refuse without relying on ``assert``, so C3 and C2PRIME scan the whole prefix.
REFUSED_AUDIT = """
import sys
from fractions import Fraction
from dlab import thm1
from dlab.blocks import Block
print("optimize", sys.flags.optimize)
built = thm1.build(5)
syms = [0] * built.length
for p, v in built.prefix.nonzero_items():
    syms[p - 1] = v
syms[864] = Fraction(1)
state = thm1.Thm1State(built.lengths, Block(syms))
print("audited", state.copy_ratios is not None)
print(thm1.check_c3(state, 4).line())
print(thm1.check_c2prime(state, 4).line())
"""


def test_refused_copy_audit_scans_flat_under_optimize():
    result = subprocess.run(
        [sys.executable, "-O", "-c", REFUSED_AUDIT],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1",
        "audited False",
        "CHECK C3 FAIL stage=5 kmax=4 k=2 pos=865 value=1/1 shifted=1/5 bound=1/2",
        "CHECK C2PRIME FAIL stage=5 jmax=4 j=1 pos=865 value=1/1 window_max=2/5 slack=1/2",
    ]


# The copy-layout record of a top stage refuses what would make it another
# row than the one its checks read, without relying on ``assert``.
RECORD_REFUSALS = {
    "symbol 3/2 outside [0, 1]": "CopyLayout(stage2.prefix, (1, Fraction(3, 2)))",
    "layout pitch 12 is not the previous stage length (lengths (3, 24))":
        "thm1.Thm1State((3, 24), CopyLayout(stage2.prefix, (1, 1)))",
    "layout copy 0 is scaled by 1/2: the prefix does not extend stage 2":
        "thm1.Thm1State((3, 12, 24), CopyLayout(stage2.prefix, (Fraction(1, 2), 1)))",
}

RECORD_PROBE = """
import sys
from fractions import Fraction
from dlab import thm1
from dlab.blocks import CopyLayout
print("optimize", sys.flags.optimize)
stage2 = thm1.build(2)
try:
    {body}
except ValueError as exc:
    print("ValueError", exc)
else:
    print("no error")
"""


@pytest.mark.parametrize("message", sorted(RECORD_REFUSALS))
def test_layout_record_refusals_hold_under_optimize(message):
    result = subprocess.run(
        [sys.executable, "-O", "-c", RECORD_PROBE.format(body=RECORD_REFUSALS[message])],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["optimize 1", f"ValueError {message}"]


# The sweep reads each escaping point off the map's partition masks, and a
# table of non-ints is refused, both without relying on ``assert``: with no
# partition left forward invariant only, map 0, 0, 1 fails at its first
# escaping point.
PLANTED_MASKS = """
import sys
from dlab import oracle
print("optimize", sys.flags.optimize)
real = oracle._partition_masks
oracle._partition_masks = lambda table: (real(table)[0], 0)
print(oracle.check_map_determinism(oracle.make_system([0, 0, 1])).line())
try:
    oracle.FiniteSystem((True, False))
except TypeError as exc:
    print("TypeError", exc)
"""


def test_planted_partition_masks_fail_the_sweep_under_optimize():
    result = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_MASKS],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1",
        "CHECK SWEEP_MAP FAIL n=3 map=0,0,1 onto=false part=lemma6 x=1",
        "TypeError table entry 0 is True, not an int",
    ]


# The tables the oracle builds without the record checks (the sweep's maps,
# lemma7's powers) and the pair tables ``_on_cycles`` walks are ones those
# checks admit, without relying on ``assert``: each is rebuilt through
# ``FiniteSystem(...)`` and compared.
TRUSTED_PROBE = """
import sys
from dlab import oracle
print("optimize", sys.flags.optimize)
real = oracle.FiniteSystem._trusted
counts = {"tables": 0, "unequal": 0}
def guarded(cls, table):
    system = real(table)
    counts["tables"] += 1
    counts["unequal"] += oracle.FiniteSystem(table) != system
    return system
oracle.FiniteSystem._trusted = classmethod(guarded)
small = [s for n in range(1, 4) for s in oracle.all_systems(n)]
for s in small:
    guarded(None, s.pair_table)
for n in range(1, 6):
    for s in oracle.all_permutation_systems(n):
        oracle.lemma7_checks(s, 4)
    list(oracle.all_systems(n))
print(counts)
"""


def test_trusted_tables_pass_the_checks_under_optimize():
    result = subprocess.run(
        [sys.executable, "-O", "-c", TRUSTED_PROBE],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    # The 32 maps on n <= 3 points and their pair tables; per n <= 5, n!
    # permutations, each with 3 powers, and n^n maps.
    tables = 2 * 32 + sum(4 * math.factorial(n) + n**n for n in range(1, 6))
    assert result.stdout.splitlines() == [
        "optimize 1", f"{{'tables': {tables}, 'unequal': 0}}"
    ]


# Records refuse assignment and deletion of their fields (and of their cached
# values) by raising, not by ``assert``.
FROZEN_PROBE = """
import sys
from dlab import oracle, recurrence, thm1, thm2
from dlab.blocks import Block, CopyLayout
from dlab.report import CheckReport
print("optimize", sys.flags.optimize)
report = CheckReport("Z", "PASS")
state2 = thm2.initial_state()
records = [
    report,
    CopyLayout(Block([1]), (1,)),
    oracle.make_system([0]),
    oracle.Partition(((0,),)),
    thm1.build(2),
    thm2.SpacerChoice(0, 1, 2),
    state2,
    recurrence.centered_point(state2.x, 0, 0),
    recurrence.WitnessRuns(report, ()),
    recurrence.CrossOmegaWitness(report, (), ()),
]
for record in records:
    refused = 0
    names = record._fields + ("pair_table", "copy_ratios")
    for name in names:
        for change in (lambda: setattr(record, name, None), lambda: delattr(record, name)):
            try:
                change()
            except AttributeError:
                refused += 1
    print(type(record).__name__, refused == 2 * len(names))
"""


def test_record_fields_stay_frozen_under_optimize():
    result = subprocess.run(
        [sys.executable, "-O", "-c", FROZEN_PROBE],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["optimize 1"] + [
        f"{name} True"
        for name in (
            "CheckReport", "CopyLayout", "FiniteSystem", "Partition", "Thm1State",
            "SpacerChoice", "Thm2State", "CenteredPoint", "WitnessRuns",
            "CrossOmegaWitness",
        )
    ]


# The witness walk finds its first blocked center by comparisons alone, never
# by ``assert``: planted failing escape and limit-pair states print the same
# FAIL lines, center and part included, with and without ``-O``.
PLANTED_WITNESSES = """
import sys
from fractions import Fraction
from dlab import recurrence, thm2
from dlab.blocks import Block
print("optimize", sys.flags.optimize)
state = thm2.build_stage(thm2.initial_state(), thm2.SpacerChoice(2, 8, 18))
syms = [0] * len(state.y)
for p, v in state.y.nonzero_items():
    syms[p - state.y.base] = v
for p in (3, 6, 9):  # y nonzero at every multiple of m_1 = 3 from center 0
    syms[p - state.y.base] = Fraction(1)
bad = thm2.Thm2State(state.x, Block(syms, base=state.y.base), (3,), (9,), state.spacers)
print(recurrence.escape_witness(bad, 1, 0, "YatM").report.line())
print(recurrence.cross_omega_witness(bad, 1, 0).report.line())
"""


def test_planted_witness_failures_print_the_same_lines_under_optimize():
    outputs = []
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, "-c", PLANTED_WITNESSES],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.splitlines())
    assert [lines[0] for lines in outputs] == ["optimize 0", "optimize 1"]
    assert outputs[0][1:] == outputs[1][1:] == [
        "CHECK ESCAPE FAIL stage=2 side=YatM k=1 w=0 centers=46 center=-3",
        "CHECK CROSS_OMEGA FAIL stage=2 k=1 w=0 side=x center=-3 part=b",
    ]

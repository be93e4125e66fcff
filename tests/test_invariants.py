"""Construction invariants are explicit checks, so they hold under ``python -O``."""

import subprocess
import sys

import pytest

from child_env import CHILD_ENV

# Each script corrupts one construction step; its key is the error it must meet.
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
    assert lines[1] == f"InvariantError {name}"

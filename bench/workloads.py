"""The benchmark's workloads and the correctness gate around them.

Each workload is a list of steps that call dlab's public API the way a user
of the CLI would.  A step declares how many operations it attempts (one
report, one witness call, one TDSEQ round trip or one oracle map each) and
the gate counts those that raised, gave an unexpected verdict or whose
output did not match the golden digest.  A failure never aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from fractions import Fraction

from dlab import blocks, cli, oracle, recurrence, thm1, thm2
from dlab.report import INFO, PASS

DEFAULT_SEED = 0

# Problem sizes.  "full" is what the benchmark measures; "tiny" runs the same
# steps in about a second for the harness self-test.
SIZES = {
    "full": {
        "thm1_stage": 8, "thm1_kmax": 20, "thm1_jmax": 4,
        "thm2_stage": 5, "thm2_kmax": 4, "transitive_stage": 4,
        "witness_w": 1, "eps_radius": 8, "eps_horizon": 2000,
        "sweep_nmax": 5, "power_max": 4, "perm_sweep_n": 6,
        "seeded_n": 8, "seeded_maps": 20,
    },
    "tiny": {
        "thm1_stage": 4, "thm1_kmax": 10, "thm1_jmax": 3,
        "thm2_stage": 3, "thm2_kmax": 2, "transitive_stage": 3,
        "witness_w": 1, "eps_radius": 8, "eps_horizon": 1000,
        "sweep_nmax": 4, "power_max": 4, "perm_sweep_n": 4,
        "seeded_n": 4, "seeded_maps": 20,
    },
}

# Diagnostics that report INFO by design; every other check must PASS.
INFO_CHECKS = {"LITERAL2_FALSIFIER", "SLIDING_FALSIFIER", "SWEEP_SAMPLED"}

# Relative to the checkout root, which is the worker's working directory.
# It is part of the THM1_BUILD report line, so it is fixed.
TDSEQ_PATH = "bench/out/work/thm1.tdseq"


def digest(lines) -> str:
    """sha256 of the lines as the CLI prints them."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def run_cli(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().splitlines()


class Step:
    """Output and outcome of one step."""

    def __init__(self, name: str, ops: int, seeded: bool, per_line: bool):
        self.name = name
        self.ops = ops
        self.seeded = seeded  # output depends on the seed
        self.per_line = per_line  # each CHECK line is one operation
        self.items = []  # CheckReport objects or ready lines
        self.extra = {}  # further golden digests, by key
        self.unexpected = 0
        self.problems = []
        self.failed = 0
        self.lines = []

    def add(self, *items) -> None:
        self.items.extend(items)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.unexpected += 1
            self.problems.append(what)


class Gate:
    """Runs steps, counts operations and failures, compares golden digests.

    ``golden`` maps digest keys to sha256 hex digests, plus the seed the
    seeded digests were recorded with.  ``tracer`` is set in a traced run only.
    """

    def __init__(self, golden, seed: int, tracer=None):
        self.golden = golden
        self.seed = seed
        self.tracer = tracer
        self.steps = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def count(self, name: str, value) -> None:
        if self.tracer:
            self.tracer.count(name, value)

    @contextlib.contextmanager
    def step(self, name: str, ops: int, seeded: bool = False, per_line: bool = True):
        step = Step(name, ops, seeded, per_line)
        try:
            yield step
        except Exception as exc:  # the gate records it and goes on
            step.problems.append(f"raised {type(exc).__name__}: {exc}")
            step.failed = ops
        with self.span("bench.check"):
            self._finish(step)
        self.steps.append(step)

    def _finish(self, step: Step) -> None:
        step.lines = [x if isinstance(x, str) else x.line() for x in step.items]
        if step.failed:
            return
        bad = step.unexpected
        if step.per_line:
            for line in step.lines:
                parts = line.split()
                if parts[:1] == ["CHECK"]:
                    want = INFO if parts[1] in INFO_CHECKS else PASS
                    if parts[2] != want:
                        bad += 1
                        step.problems.append(f"unexpected verdict: {line}")
        digests = {step.name: digest(step.lines), **step.extra}
        step.extra = digests
        if not step.seeded or self.seed == self.golden["seed"]:
            for key, value in digests.items():
                if self.golden["digests"].get(key) != value:
                    bad = step.ops
                    step.problems.append(f"golden mismatch: {key}")
        step.failed = min(step.ops, bad)

    @property
    def ops(self) -> int:
        return sum(s.ops for s in self.steps)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.steps)

    def summary(self) -> list:
        return [
            {
                "step": s.name, "ops": s.ops, "failed": s.failed,
                "lines": len(s.lines), "digests": s.extra, "problems": s.problems[:5],
            }
            for s in self.steps
        ]


# -- workloads -----------------------------------------------------------------


def thm1_rigid(gate: Gate, size: dict, seed: int) -> None:
    """thm1 verify session, then a TDSEQ export read back and compared."""
    stage = size["thm1_stage"]
    with gate.step("thm1.verify", ops=5) as step:
        code, lines = run_cli([
            "thm1", "verify", "--stage", str(stage),
            "--kmax", str(size["thm1_kmax"]), "--jmax", str(size["thm1_jmax"]),
        ])
        step.add(*lines)
        step.expect(code == 0, f"exit code {code}")
    # The build report plus the round trip.
    with gate.step("thm1.tdseq", ops=2) as step:
        os.makedirs(os.path.dirname(TDSEQ_PATH), exist_ok=True)
        try:
            code, lines = run_cli(["thm1", "build", "--stage", str(stage), "--out", TDSEQ_PATH])
            step.add(*lines)
            step.expect(code == 0, f"exit code {code}")
            loaded = blocks.load_tdseq(TDSEQ_PATH)
            built = thm1.build(stage)
            with gate.span("bench.check"):
                step.expect(loaded == built.prefix, "loaded TDSEQ differs from the built prefix")
                with open(TDSEQ_PATH, "rb") as f:
                    data = f.read()
                step.extra["thm1.tdseq.bytes"] = hashlib.sha256(data).hexdigest()
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(TDSEQ_PATH)
        if gate.tracer:
            with gate.span("bench.counters"):
                prefix = built.prefix
                nz = prefix.nonzero_positions
                gate.count("thm1.symbols", len(prefix))
                gate.count("thm1.nonzeros", len(nz))
                values = {v for _, v in prefix.nonzero_items()}
                gate.count("thm1.distinct_values", len(values) + (len(nz) < len(prefix)))
                gate.count("blocks.tdseq_bytes", len(data))


def _spacer_lines(state) -> list:
    return [c.log_line(r + 1) for r, c in enumerate(state.spacers)]


def thm2_pair(gate: Gate, size: dict, seed: int) -> None:
    """thm2 verify set, the recurrence witnesses, then a transitive build."""
    stage, kmax, w = size["thm2_stage"], size["thm2_kmax"], size["witness_w"]
    state = None
    with gate.step("thm2.verify", ops=4 * (stage - 1) + 3) as step:
        state = thm2.build_to_stage(stage)
        step.add(*_spacer_lines(state))
        step.add(*thm2.stage_reports(state))
        step.add(thm2.sliding_falsifier(state, stage - 1))
        gate.count("thm2.symbols", len(state.x) + len(state.y))
        gate.count("thm2.nonzeros", len(state.x.nonzero_positions) + len(state.y.nonzero_positions))
    with gate.step("recur.pair_sep", ops=1) as step:
        step.add(recurrence.pair_separation_check(state, state.half_width))
    with gate.step("recur.escape", ops=2 * kmax) as step:
        for k in range(1, kmax + 1):
            for side in recurrence.ESCAPE_SIDES:
                result = recurrence.escape_witness(state, k, w, side)
                gate.count("recurrence.witness_runs", len(result.runs))
                step.add(result.report)
                step.add(*(
                    f"WITNESS kind=escape side={side} k={k} center={a}..{b} r={r}"
                    for a, b, r in result.runs
                ))
    with gate.step("recur.omega", ops=kmax) as step:
        for k in range(1, kmax + 1):
            result = recurrence.cross_omega_witness(state, k, w)
            gate.count("recurrence.witness_runs", len(result.x_side_runs) + len(result.y_side_runs))
            step.add(result.report)
            for side, runs in (("x", result.x_side_runs), ("y", result.y_side_runs)):
                step.add(*(
                    f"WITNESS kind=omega side={side} k={k} center={a}..{b} r={r}"
                    for a, b, r in runs
                ))
    with gate.step("recur.epsilon", ops=1) as step:
        radius, horizon, eps = size["eps_radius"], size["eps_horizon"], Fraction(1)
        pair = (
            recurrence.centered_point(state.x, 0, radius),
            recurrence.centered_point(state.y, 0, radius),
        )
        times = recurrence.epsilon_recurrence_times(pair, eps, horizon)
        step.add(
            f"EPSILON_RETURNS stage={stage} radius={radius} epsilon={eps} "
            f"horizon={horizon} times={','.join(map(str, times))}"
        )
        step.expect(times == [], f"pair returns within epsilon at {times[:5]}")
    state = None  # release the large stage before the next build
    tstage = size["transitive_stage"]
    with gate.step("thm2.transitive", ops=tstage + 1) as step, gate.span("step.thm2.transitive"):
        tstate = thm2.build_to_stage(tstage, transitive=True)
        step.add(*_spacer_lines(tstate))
        step.add(*thm2.stage_reports(tstate))


def seeded_tables(seed: int, n: int, count: int) -> list:
    """``count`` random permutations of {0..n-1}; the oracle sees only these."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(n), n)) for _ in range(count)]


def oracle_sweep(gate: Gate, size: dict, seed: int) -> None:
    """Exhaustive CLI sweep, a permutations-only sweep, then seeded maps."""
    nmax, power_max = size["sweep_nmax"], size["power_max"]
    maps = sum(n**n for n in range(1, nmax + 1))
    with gate.step("oracle.cli_sweep", ops=2 * maps + nmax) as step:
        code, lines = run_cli(["oracle", "sweep", "--nmax", str(nmax), "--Nmax", str(power_max)])
        step.add(*lines)
        step.expect(code == 0, f"exit code {code}")
    perm_n = size["perm_sweep_n"]
    perms = sum(math.factorial(n) for n in range(1, perm_n + 1))
    with gate.step("oracle.perm_sweep", ops=perms + perm_n) as step:
        step.add(*oracle.sweep(perm_n, power_max=power_max, permutations_only=True))
    tables = seeded_tables(seed, size["seeded_n"], size["seeded_maps"])
    with gate.step("oracle.seeded", ops=len(tables), seeded=True, per_line=False) as step:
        for table in tables:
            try:
                system = oracle.make_system(table)
                det = oracle.check_map_determinism(system)
                facts = oracle.lemma7_checks(system, power_max)
            except Exception as exc:  # one map failing must not hide the rest
                step.expect(False, f"map {table} raised {type(exc).__name__}: {exc}")
                continue
            step.add(det, facts)
            step.expect(det.verdict == PASS and facts.verdict == PASS, f"map {table}: {det.line()} / {facts.line()}")


WORKLOADS = {
    "thm1-rigid": thm1_rigid,
    "thm2-pair": thm2_pair,
    "oracle-sweep": oracle_sweep,
}


def peak_build(workload: str, size: dict):
    """(metric, build) whose tracemalloc peak a traced run of the workload reports."""
    if workload == "thm1-rigid":
        return "thm1.build_peak_mb", lambda: thm1.build(size["thm1_stage"])
    if workload == "thm2-pair":
        return "thm2.build_peak_mb", lambda: thm2.build_to_stage(size["thm2_stage"])
    return None

"""Command-line driver: reproducible batch runs with line-oriented reports.

Every command prints ``CHECK <id> <PASS|FAIL|INFO> key=value...`` lines (plus
``SPACERS``/``WITNESS`` lines where applicable) and exits 0 when nothing
failed, 1 on any FAIL, 2 on configuration or resource errors, 3 on an
internal error (a fault in the program, reported on one stderr line).
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import oracle as oracle_mod
from . import recurrence, thm1, thm2
from .blocks import DEFAULT_MAX_SYMBOLS, ResourceCapError, dump_tdseq
from .report import CheckReport, INFO

SWEEP_EXHAUSTIVE_BOUND = 6
SAMPLED_SWEEP_DEFAULT = 200


def _thm1_state(args) -> thm1.Thm1State:
    return thm1.build(args.stage, max_symbols=args.max_symbols)


def _thm2_state(args) -> thm2.Thm2State:
    return thm2.build_to_stage(
        args.stage,
        transitive=getattr(args, "transitive", False),
        iteration_cap=args.iteration_cap,
        max_symbols=args.max_symbols,
    )


def cmd_thm1_build(args) -> list:
    state = _thm1_state(args)
    dump_tdseq(state.prefix, args.out)
    report = CheckReport(
        "THM1_BUILD",
        "PASS",
        (("stage", state.stage), ("length", state.length), ("out", args.out)),
    )
    return [report.line()]


def _check_verify_args(args) -> None:
    """Reject verify flags that no build could satisfy, before building."""
    if args.stage < 2:
        raise ValueError(f"stage={args.stage} has no scale to verify (need stage >= 2)")
    if args.kmax < 1:
        raise ValueError("kmax must be >= 1")
    jmax = getattr(args, "jmax", None)
    if jmax is not None and not 1 <= jmax <= args.stage - 1:
        raise ValueError(f"jmax={jmax} out of admissible range 1..{args.stage - 1}")


def cmd_thm1_verify(args) -> list:
    _check_verify_args(args)
    state = _thm1_state(args)
    c3_kmax = min(args.kmax, state.stage - 1)
    jmax = args.jmax if args.jmax is not None else min(args.kmax, state.stage - 1)
    reports = [
        thm1.check_c1(state, args.kmax),
        thm1.check_c2prime(state, jmax),
        thm1.check_c3(state, c3_kmax),
        thm1.literal_smallness_falsifier(state, c3_kmax),
        thm1.check_tails(state),
    ]
    return [r.line() for r in reports]


def cmd_thm2_build(args) -> list:
    state = _thm2_state(args)
    lines = [
        choice.log_line(r + 1) for r, choice in enumerate(state.spacers)
    ]
    dump_tdseq(state.x, args.out_x)
    dump_tdseq(state.y, args.out_y)
    report = CheckReport(
        "THM2_BUILD",
        "PASS",
        (
            ("stage", state.stage),
            ("length", state.common_length),
            ("transitive", state.transitive),
            ("out_x", args.out_x),
            ("out_y", args.out_y),
        ),
    )
    lines.append(report.line())
    return lines


def cmd_thm2_verify(args) -> list:
    _check_verify_args(args)
    state = _thm2_state(args)
    reports = thm2.stage_reports(state, args.kmax)
    reports.append(thm2.sliding_falsifier(state, state.stage - 1))
    return [r.line() for r in reports]


def cmd_recur_pair_sep(args) -> list:
    state = _thm2_state(args)
    horizon = args.horizon if args.horizon is not None else state.half_width
    return [recurrence.pair_separation_check(state, horizon).line()]


def cmd_recur_escape(args) -> list:
    state = _thm2_state(args)
    lines = []
    for side in recurrence.ESCAPE_SIDES:
        result = recurrence.escape_witness(state, args.k, args.w, side)
        lines.append(result.report.line())
        lines.extend(
            f"WITNESS kind=escape side={side} k={args.k} center={a}..{b} r={r}"
            for a, b, r in result.runs
        )
    return lines


def cmd_recur_omega(args) -> list:
    state = _thm2_state(args)
    result = recurrence.cross_omega_witness(state, args.k, args.w)
    lines = [result.report.line()]
    lines.extend(
        f"WITNESS kind=omega side=x k={args.k} center={a}..{b} r={r}"
        for a, b, r in result.x_side_runs
    )
    lines.extend(
        f"WITNESS kind=omega side=y k={args.k} center={a}..{b} r={r}"
        for a, b, r in result.y_side_runs
    )
    return lines


def _sampled_systems(n: int, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield oracle_mod.make_system(
            tuple(rng.randrange(n) for _ in range(n))
        )


def cmd_oracle_sweep(args) -> list:
    if args.nmax < 1:
        raise ValueError("nmax must be >= 1")
    if args.sample < 0:
        raise ValueError("sample must be >= 0")
    oracle_mod.check_exhaustive_size(args.nmax)  # before any sweep, not at n = nmax
    lines = []
    exhaustive_max = min(args.nmax, SWEEP_EXHAUSTIVE_BOUND)
    reports = oracle_mod.sweep(
        exhaustive_max,
        power_max=args.power_max,
        permutations_only=args.permutations_only,
    )
    lines.extend(r.line() for r in reports)
    # Above the exhaustive bound the sweep samples; seeded, so still reproducible.
    for n in range(SWEEP_EXHAUSTIVE_BOUND + 1, args.nmax + 1):
        lines.append(
            CheckReport(
                "SWEEP_SAMPLED",
                INFO,
                (("n", n), ("sample", args.sample), ("seed", args.seed)),
            ).line()
        )
        for sys_ in _sampled_systems(n, args.sample, args.seed + n):
            if args.permutations_only and not sys_.onto:
                continue
            lines.append(oracle_mod.check_map_determinism(sys_).line())
            lines.append(oracle_mod.lemma7_checks(sys_, args.power_max).line())
    return lines


def cmd_oracle_lemma6(args) -> list:
    sys_ = oracle_mod.make_system(args.map.split(","))
    _, partition, report = oracle_mod.lemma6_relation(sys_, args.point)
    return [report.line(), f"PARTITION {partition.label()}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlab",
        description="Build and verify the determinism counterexample constructions.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def add_caps(p, iteration_cap=False):
        p.add_argument(
            "--max-symbols",
            type=int,
            default=DEFAULT_MAX_SYMBOLS,
            help="refuse builds beyond this many symbols",
        )
        if iteration_cap:
            p.add_argument(
                "--iteration-cap",
                type=int,
                default=thm2.DEFAULT_ITERATION_CAP,
                help="spacer-solver retry budget",
            )

    p_thm1 = top.add_parser("thm1", help="one-sided rigid point").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_thm1.add_parser("build", help="build a stage and write it as TDSEQ")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--out", required=True)
    add_caps(p)
    p.set_defaults(handler=cmd_thm1_build)
    p = p_thm1.add_parser("verify", help="run the stage verifiers")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--jmax", type=int, default=None)
    add_caps(p)
    p.set_defaults(handler=cmd_thm1_verify)

    p_thm2 = top.add_parser("thm2", help="orthogonal centered pair").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_thm2.add_parser("build", help="solve spacers, build, write both TDSEQ files")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--transitive", action="store_true")
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)
    add_caps(p, iteration_cap=True)
    p.set_defaults(handler=cmd_thm2_build)
    p = p_thm2.add_parser("verify", help="run the stage verifiers")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--transitive", action="store_true")
    add_caps(p, iteration_cap=True)
    p.set_defaults(handler=cmd_thm2_verify)

    p_recur = top.add_parser("recur", help="recurrence analysis").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_recur.add_parser("pair-sep", help="pair never returns jointly")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    add_caps(p, iteration_cap=True)
    p.set_defaults(handler=cmd_recur_pair_sep)
    p = p_recur.add_parser("escape", help="zero-window escape witnesses")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    add_caps(p, iteration_cap=True)
    p.set_defaults(handler=cmd_recur_escape)
    p = p_recur.add_parser("omega", help="limit-pair witnesses")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    add_caps(p, iteration_cap=True)
    p.set_defaults(handler=cmd_recur_omega)

    p_oracle = top.add_parser("oracle", help="finite-system ground truth").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_oracle.add_parser("sweep", help="exhaustive sweeps over small systems")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--permutations-only", action="store_true")
    p.add_argument("--Nmax", dest="power_max", type=int, default=4)
    p.add_argument("--sample", type=int, default=SAMPLED_SWEEP_DEFAULT)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_oracle_sweep)
    p = p_oracle.add_parser("lemma6", help="escaping-point relation for one map")
    p.add_argument("--map", required=True, help="comma-separated value table")
    p.add_argument("--point", type=int, required=True)
    p.set_defaults(handler=cmd_oracle_lemma6)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.handler(args)
    except (ResourceCapError, thm2.SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a program fault must not read as a FAIL (exit 1)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    failed = False
    for line in lines:
        print(line)
        parts = line.split()
        if parts and parts[0] == "CHECK" and len(parts) > 2 and parts[2] == "FAIL":
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

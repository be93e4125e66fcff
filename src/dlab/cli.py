"""Command-line driver: reproducible batch runs with line-oriented reports.

Every command prints ``CHECK <id> <PASS|FAIL|INFO> key=value...`` lines (plus
``SPACERS``/``WITNESS`` lines where applicable) and exits 0 when nothing
failed, 1 on any FAIL, 2 on configuration or resource errors, 3 on an
internal error (a fault in the program, reported on one stderr line).
Identical invocations produce byte-identical output.

Only what every command needs is imported here.  Each handler imports the
construction or oracle modules it runs, so a command compiles or loads no
module that it does not run (README "Start-up").
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .blocks import (
    DEFAULT_MAX_NONZEROS,
    DEFAULT_MAX_NONZEROS_PER_BLOCK,
    ResourceCapError,
    check_admissible,
    check_cap,
    dump_tdseq,
)
from .report import CheckReport, INFO

SWEEP_EXHAUSTIVE_BOUND = 6
# main writes the report this many lines at a time, one write per batch.
# For the 100,144 lines of `oracle sweep --nmax 6 --Nmax 4` to /dev/null,
# with the FAIL scan, that takes 48 ms against 100 ms for one print per line,
# and main's tracemalloc peak is 0.5 MB against 10 MB for one joined write
# (Python 3.11.7 on a 2-vCPU Xeon).
WRITE_BATCH = 4096
# lemma6 codes every pair of its relation's orbit block, n^2 of them on a
# path of n points, and every pair of the block's image: 1,000 entries take
# 0.27 s and 179 MB (Python 3.11.7 on a 2-vCPU Xeon), and the memory grows
# as n^2.
LEMMA6_MAP_BOUND = 1000
# lemma7_checks keeps the N+1 tables of T^0..T^N and ORs N(N+1)/2 limit sets
# per point, so a sweep grows as N^2: at the bound, `oracle sweep --nmax 8
# --Nmax 64` (the largest sweep the bounds admit) takes 31 s and 64 MB peak
# RSS, and `--nmax 3 --Nmax 64` 0.06 s (Python 3.11.7 on a 2-vCPU Xeon).
SWEEP_POWER_BOUND = 64
SAMPLED_SWEEP_DEFAULT = 200

# --max-symbols caps the nonzeros a stage stores (for thm1, stage S-1, the one
# it builds); a build writes TDSEQ 1, one line per position, so there it caps
# positions too (README "Command line").
CAP_HELP = "refuse a stage storing more than this many nonzeros (per block for thm2)"
BUILD_CAP_HELP = (
    f"{CAP_HELP} or having more than this many positions (TDSEQ 1 writes one "
    "line per position)"
)


def _thm2_state(args, max_positions=None):
    from . import thm2

    return thm2.build_to_stage(
        args.stage,
        transitive=getattr(args, "transitive", False),
        max_nonzeros=args.max_symbols,
        max_positions=max_positions,
    )


def _thm1_top(args):
    """Stage S as a copy layout of stage S-1, the one stage built and capped (1: flat)."""
    from . import thm1

    if args.stage < 2:
        return thm1.build(args.stage, args.max_symbols)
    return thm1.step(thm1.build(args.stage - 1, args.max_symbols), flat=False)


def cmd_thm1_build(args) -> list:
    from . import thm1

    check_cap(args.stage, args.max_symbols, thm1.predicted_length, "has {} positions")
    state = _thm1_top(args)
    dump_tdseq(state.prefix, args.out)
    report = CheckReport(
        "THM1_BUILD",
        "PASS",
        (("stage", state.stage), ("length", state.length), ("out", args.out)),
    )
    return [report]


def _check_stage_args(args) -> None:
    """Reject verify and recur flags that no build could satisfy, before building."""
    if args.stage < 2:
        raise ValueError(f"stage={args.stage} has no scale to verify (need stage >= 2)")
    if getattr(args, "kmax", 1) < 1:
        raise ValueError("kmax must be >= 1")
    for name in ("jmax", "k"):
        value = getattr(args, name, None)
        if value is not None:
            check_admissible(name, value, args.stage)
    if getattr(args, "w", 0) < 0:
        raise ValueError("w must be >= 0")
    if getattr(args, "horizon", None) is not None and args.horizon < 1:
        raise ValueError("horizon must be >= 1")  # the upper bound needs the build


def cmd_thm1_verify(args) -> list:
    from . import thm1

    _check_stage_args(args)
    state = _thm1_top(args)
    return thm1.stage_reports(state, args.kmax, args.jmax)


def cmd_thm2_build(args) -> list:
    if os.path.realpath(args.out_x) == os.path.realpath(args.out_y):
        raise ValueError(f"--out-x and --out-y name one file: {args.out_x}")
    # Each stage's length is checked as soon as it is built, before any file
    # is opened.
    state = _thm2_state(args, max_positions=args.max_symbols)
    items = [
        choice.log_line(r + 1) for r, choice in enumerate(state.spacers)
    ]
    dump_tdseq(state.x, args.out_x)
    dump_tdseq(state.y, args.out_y)
    items.append(CheckReport(
        "THM2_BUILD",
        "PASS",
        (
            ("stage", state.stage),
            ("length", state.common_length),
            ("transitive", state.transitive),
            ("out_x", args.out_x),
            ("out_y", args.out_y),
        ),
    ))
    return items


def cmd_thm2_verify(args) -> list:
    from . import thm2

    _check_stage_args(args)
    state = _thm2_state(args)
    reports = thm2.stage_reports(state, args.kmax)
    reports.append(thm2.sliding_falsifier(state, state.stage - 1))
    return reports


def cmd_recur_pair_sep(args) -> list:
    from . import recurrence

    _check_stage_args(args)
    state = _thm2_state(args)
    horizon = args.horizon if args.horizon is not None else state.half_width
    return [recurrence.pair_separation_check(state, horizon)]


def _witness_lines(kind: str, side: str, k: int, runs) -> list:
    return [
        f"WITNESS kind={kind} side={side} k={k} center={a}..{b} r={r}"
        for a, b, r in runs
    ]


def cmd_recur_escape(args) -> list:
    from . import recurrence

    _check_stage_args(args)
    state = _thm2_state(args)
    items = []
    for side in recurrence.ESCAPE_SIDES:
        result = recurrence.escape_witness(state, args.k, args.w, side)
        items.append(result.report)
        items.extend(_witness_lines("escape", side, args.k, result.runs))
    return items


def cmd_recur_omega(args) -> list:
    from . import recurrence

    _check_stage_args(args)
    state = _thm2_state(args)
    result = recurrence.cross_omega_witness(state, args.k, args.w)
    return [
        result.report,
        *_witness_lines("omega", "x", args.k, result.x_side_runs),
        *_witness_lines("omega", "y", args.k, result.y_side_runs),
    ]


def _sampled_systems(n: int, count: int, seed: int, permutations_only: bool):
    import random

    from . import oracle

    rng = random.Random(seed)
    for _ in range(count):
        if permutations_only:
            table = rng.sample(range(n), n)
        else:
            table = [rng.randrange(n) for _ in range(n)]
        yield oracle.make_system(table)


def cmd_oracle_sweep(args) -> list:
    from . import oracle

    if args.nmax < 1:
        raise ValueError("nmax must be >= 1")
    if args.power_max < 1:
        raise ValueError("Nmax must be >= 1")
    if args.power_max > SWEEP_POWER_BOUND:
        raise ValueError(
            f"Nmax {args.power_max} exceeds the power bound {SWEEP_POWER_BOUND} "
            "(the power checks grow as Nmax^2 per map)"
        )
    if args.sample < 0:
        raise ValueError("sample must be >= 0")
    oracle.check_exhaustive_size(args.nmax)  # before any sweep, not at n = nmax
    exhaustive_max = min(args.nmax, SWEEP_EXHAUSTIVE_BOUND)
    reports = oracle.sweep(
        exhaustive_max,
        power_max=args.power_max,
        permutations_only=args.permutations_only,
    )
    # Above the exhaustive bound the sweep samples; seeded, so still reproducible.
    for n in range(SWEEP_EXHAUSTIVE_BOUND + 1, args.nmax + 1):
        reports.append(
            CheckReport(
                "SWEEP_SAMPLED",
                INFO,
                (("n", n), ("sample", args.sample), ("seed", args.seed)),
            )
        )
        for sys_ in _sampled_systems(
            n, args.sample, args.seed + n, args.permutations_only
        ):
            reports.append(oracle.check_map_determinism(sys_))
            reports.append(oracle.lemma7_checks(sys_, args.power_max))
    return reports


def cmd_oracle_lemma6(args) -> list:
    from . import oracle

    entries = args.map.split(",")
    if len(entries) > LEMMA6_MAP_BOUND:
        raise ValueError(
            f"--map has {len(entries)} entries, the bound is {LEMMA6_MAP_BOUND}"
        )
    table = []
    for number, entry in enumerate(entries, 1):
        # The TDSEQ integer grammar: no sign, space or '_'.
        if not re.fullmatch("0|[1-9][0-9]*", entry):
            raise ValueError(f"--map entry {entry!r} is not an integer 0|[1-9][0-9]*")
        try:
            table.append(int(entry))
        except ValueError as err:  # more digits than int() converts
            raise ValueError(
                f"--map entry {number} has {len(entry)} digits, more than int() converts"
            ) from err
    sys_ = oracle.make_system(table)
    _, partition, report = oracle.lemma6_relation(sys_, args.point)
    return [report, f"PARTITION {partition.label()}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlab",
        description="Build and verify the determinism counterexample constructions.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def add_caps(p, cap_help, default):
        p.add_argument(
            "--max-symbols",
            type=int,
            default=default,
            help=f"{cap_help} (default {default:,})",
        )

    p_thm1 = top.add_parser("thm1", help="one-sided rigid point").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_thm1.add_parser("build", help="build a stage and write it as TDSEQ")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--out", required=True)
    add_caps(p, BUILD_CAP_HELP, DEFAULT_MAX_NONZEROS)
    p.set_defaults(handler=cmd_thm1_build)
    p = p_thm1.add_parser("verify", help="run the stage verifiers")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--jmax", type=int, default=None)
    add_caps(p, CAP_HELP, DEFAULT_MAX_NONZEROS)
    p.set_defaults(handler=cmd_thm1_verify)

    p_thm2 = top.add_parser("thm2", help="orthogonal centered pair").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_thm2.add_parser("build", help="solve spacers, build, write both TDSEQ files")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--transitive", action="store_true")
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)
    add_caps(p, BUILD_CAP_HELP, DEFAULT_MAX_NONZEROS)
    p.set_defaults(handler=cmd_thm2_build)
    p = p_thm2.add_parser("verify", help="run the stage verifiers")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--transitive", action="store_true")
    add_caps(p, CAP_HELP, DEFAULT_MAX_NONZEROS_PER_BLOCK)
    p.set_defaults(handler=cmd_thm2_verify)

    p_recur = top.add_parser("recur", help="recurrence analysis").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_recur.add_parser("pair-sep", help="pair never returns jointly")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    add_caps(p, CAP_HELP, DEFAULT_MAX_NONZEROS_PER_BLOCK)
    p.set_defaults(handler=cmd_recur_pair_sep)
    p = p_recur.add_parser("escape", help="zero-window escape witnesses")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    add_caps(p, CAP_HELP, DEFAULT_MAX_NONZEROS_PER_BLOCK)
    p.set_defaults(handler=cmd_recur_escape)
    p = p_recur.add_parser("omega", help="limit-pair witnesses")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    add_caps(p, CAP_HELP, DEFAULT_MAX_NONZEROS_PER_BLOCK)
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
        # A handler returns its reports and its ready lines, in print order.
        lines = [x if type(x) is str else x.line() for x in args.handler(args)]
    except MemoryError:  # a resource error; its str() is empty
        print("error: out of memory (MemoryError)", file=sys.stderr)
        return 2
    except (ResourceCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a program fault must not read as a FAIL (exit 1)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    failed = False
    try:
        for start in range(0, len(lines), WRITE_BATCH):
            batch = lines[start : start + WRITE_BATCH]
            for line in batch:
                if line.startswith("CHECK ") and line.split(maxsplit=3)[2:3] == ["FAIL"]:
                    failed = True
            # Read at each write, so that redirect_stdout reaches it.
            sys.stdout.write("\n".join(batch) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; a cut report is no FAIL
        # Python flushes stdout again at exit; send that flush nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print("error: stdout was closed before the report was written", file=sys.stderr)
        except BrokenPipeError:  # stderr is the same closed pipe (2>&1)
            pass
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: every criterion at its stated tolerance, one line each.

All assertions are exact rational comparisons (tolerance zero) unless the
criterion itself states a bound.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dlab import oracle, recurrence, thm1, thm2
from dlab.blocks import dump_tdseq, load_tdseq

from child_env import CHILD_ENV

F = Fraction


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {label}")
        raise
    print(f"ACCEPTANCE {number} PASS {label}")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dlab.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def test_criterion_1_build_lengths():
    with criterion(1, "thm1 stages 1..8 build with the exact length ladder"):
        start = time.perf_counter()
        state = thm1.build(8)
        elapsed = time.perf_counter() - start
        assert state.lengths == (3, 12, 60, 360, 2520, 20160, 181440, 1814400)
        assert elapsed < 30.0, f"stage-8 build took {elapsed:.1f}s"


def test_criterion_2_thm1_verifiers(thm1_stage8):
    with criterion(2, "thm1 stage-8 C1/C3/C2PRIME/TAILS pass; literal form refuted"):
        start = time.perf_counter()
        assert thm1.check_c1(thm1_stage8, 20).passed
        assert thm1.check_c3(thm1_stage8, 6).passed          # strict < 1/k
        assert thm1.check_c2prime(thm1_stage8, 4).passed     # non-strict
        assert thm1.check_tails(thm1_stage8).passed
        elapsed = time.perf_counter() - start
        # The boundary-tight instance: value 1/2 at position 7 followed by
        # n_1 = 3 zeros meets 0 + 1/2 with equality (prefixes never change).
        p = thm1_stage8.prefix
        assert p[7] == F(1, 2) and max(p[8], p[9], p[10]) == 0
        assert p[7] == 0 + F(1, 2)
        # The uncorrected smallness statement is refuted on the stage-2 prefix.
        falsifier = thm1.literal_smallness_falsifier(thm1.build(2), 4)
        assert dict(falsifier.witness)["found"] is True
        assert elapsed < 120.0, f"stage-8 verify took {elapsed:.1f}s"


def test_criterion_3_thm2_solver_stages(thm2_states):
    with criterion(3, "thm2 solver builds stages 1..4; all gate conditions pass"):
        assert thm2_states[-1].stage == 4
        falsifier_fired = False
        for state in thm2_states[1:]:
            r = state.stage - 1
            for k in range(1, r + 1):
                assert thm2.check_rigidity_x(state, k).passed
                assert thm2.check_rigidity_y(state, k).passed
                assert thm2.check_sparseness_x(state, k).passed
                assert thm2.check_sparseness_y(state, k).passed
            # Orthogonality, exhaustively over every index of both blocks.
            assert state.x[0] == 1 and state.y[0] == 1
            for i in range(state.x.base, state.x.last + 1):
                assert i == 0 or state.x[i] == 0 or state.y[i] == 0
            assert thm2.check_orthogonality(state).passed
            assert thm2.check_zero_tails(state).passed
            rep = thm2.sliding_falsifier(state, r)
            if dict(rep.witness)["found"]:
                falsifier_fired = True
        assert falsifier_fired


def test_criterion_4_pair_separation(thm2_stage4):
    with criterion(4, "pair separation over the full usable range"):
        horizon = thm2_stage4.half_width
        rep = recurrence.pair_separation_check(thm2_stage4, horizon)
        assert rep.passed, rep.line()


def test_criterion_5_escape_and_omega(thm2_stage4):
    with criterion(5, "escape and limit-pair witnesses, k <= 3, w <= k"):
        for k in (1, 2, 3):
            for w in range(k + 1):
                for side in ("XatN", "YatM"):
                    res = recurrence.escape_witness(thm2_stage4, k, w, side)
                    assert res.report.passed, res.report.line()
                    covered = sum(b - a + 1 for a, b, _ in res.runs)
                    assert covered == dict(res.report.params)["centers"]
                cross = recurrence.cross_omega_witness(thm2_stage4, k, w)
                assert cross.report.passed, cross.report.line()
                assert cross.x_side_runs and cross.y_side_runs


def test_criterion_6_transitive_variant(thm2_transitive4):
    with criterion(6, "transitive interleave + one further stage"):
        s = thm2_transitive4
        assert s.transitive
        assert thm2.check_orthogonality(s).passed
        assert thm2.check_zero_tails(s).passed
        for k in (1, 2):
            assert thm2.check_transitive_rigidity(s, k).passed


def test_criterion_7_finite_oracle_sweeps():
    with criterion(7, "finite oracle exhaustive sweeps"):
        start = time.perf_counter()
        count = 0
        for sys_ in oracle.all_systems(5):
            count += 1
            td, witness = oracle.is_td(sys_)
            assert td == sys_.onto
            if not td:
                assert witness == oracle.Partition.diagonal(5)
            omega = oracle._omega_table(sys_.table)
            for x in range(5):
                if not omega[x] >> x & 1:
                    _, _, rep = oracle.lemma6_relation(sys_, x)
                    assert rep.passed
        assert count == 5**5 == 3125
        # Limit-set decomposition for every map on up to 6 points, N <= 4;
        # the permutations among them also exercise the power-determinism step.
        for n in range(1, 7):
            for sys_ in oracle.all_systems(n):
                assert oracle.lemma7_checks(sys_, 4).passed
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle sweeps took {elapsed:.1f}s"


def test_criterion_8_determinism_and_round_trip(tmp_path, thm2_states):
    with criterion(8, "byte-identical reruns and TDSEQ round trips"):
        a = run_cli("thm1", "verify", "--stage", "4", "--kmax", "3")
        b = run_cli("thm1", "verify", "--stage", "4", "--kmax", "3")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stderr == b.stderr
        c = run_cli("thm2", "verify", "--stage", "3", "--kmax", "2")
        d = run_cli("thm2", "verify", "--stage", "3", "--kmax", "2")
        assert c.stdout == d.stdout
        block6 = thm1.build(6).prefix
        path = tmp_path / "stage6.tdseq"
        dump_tdseq(block6, path)
        assert load_tdseq(path) == block6
        stage3 = thm2_states[2]
        for name, blk in (("x", stage3.x), ("y", stage3.y)):
            path = tmp_path / f"stage3_{name}.tdseq"
            dump_tdseq(blk, path)
            assert load_tdseq(path) == blk


def test_criterion_9_hand_instance_golden():
    with criterion(9, "worked stage-1 instance pinned as golden"):
        choice = thm2.SpacerChoice(s=2, sp=8, tp=18)
        state = thm2.build_stage(thm2.initial_state(), choice)
        assert tuple(state.x.nonzero_positions) == (-3, 0, 3)
        assert tuple(state.y.nonzero_positions) == (-9, 0, 9)
        assert state.x[0] == state.y[0] == 1
        assert state.x[3] == state.y[9] == F(1, 2)
        # Measured common length: 2*24 + 3*1 + 2*2 = 55 on both sides.
        assert state.common_length == 55
        assert state.m_times == (3,) and state.n_times == (9,)
        for rep in thm2.stage_reports(state):
            assert rep.passed, rep.line()
        assert recurrence.pair_separation_check(state, 27).passed
        assert recurrence.cross_omega_witness(state, 1, 0).report.passed

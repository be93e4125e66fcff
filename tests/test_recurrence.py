import random
from fractions import Fraction

import pytest

from dlab import recurrence as rec
from dlab import thm1, thm2
from dlab.blocks import Block, zeros

from naive_refs import naive_escape_choices, naive_omega_choices

F = Fraction


def centered_zero(radius):
    return rec.centered_point(zeros(4 * radius + 1, base=-2 * radius), 0, radius)


def test_window_distance_identity():
    p = rec.centered_point(zeros(9, base=-4), 0, 2)
    assert rec.window_distance(p, p) == 0


def test_window_distance_weights():
    z = centered_zero(2)
    spike0 = rec.centered_point(Block([0, 0, 1, 0, 0], base=-2), 0, 2)
    assert rec.window_distance(z, spike0) == 1
    spike2 = rec.centered_point(Block([0, 0, 0, 0, 1], base=-2), 0, 2)
    assert rec.window_distance(z, spike2) == F(1, 4)


def test_window_distance_shape_mismatch():
    with pytest.raises(ValueError):
        rec.window_distance(centered_zero(2), centered_zero(3))


def test_window_point_out_of_range_is_error():
    b = Block([1, 0, 0], base=1)
    with pytest.raises(IndexError):
        rec.one_sided_point(b, 0, radius=5)
    p = rec.one_sided_point(b, 0, radius=2)
    with pytest.raises(IndexError):
        p.value(3)
    with pytest.raises(IndexError):
        p.shifted(5)


def test_window_distance_is_a_metric():
    blocks = [
        Block([0, F(1, 2), 1, 0, F(1, 3)], base=-2),
        Block([F(1, 5), 0, 1, F(2, 3), 0], base=-2),
        Block([0, 0, 1, 0, 0], base=-2),
    ]
    points = [rec.centered_point(b, 0, 2) for b in blocks]
    for a in points:
        for b in points:
            d = rec.window_distance(a, b)
            assert d == rec.window_distance(b, a)
            assert (d == 0) == (a.block.symbols == b.block.symbols)
            for c in points:
                assert rec.window_distance(a, c) <= d + rec.window_distance(b, c)


def test_deeper_radius_agrees_within_tail(thm1_stage4):
    block = thm1_stage4.prefix
    for w, delta in ((4, 3), (6, 5)):
        small = rec.one_sided_point(block, 0, w)
        big = rec.one_sided_point(block, 0, w + delta)
        d_small = rec.window_distance(small, small.shifted(12))
        d_big = rec.window_distance(big, big.shifted(12))
        assert abs(d_big - d_small) <= rec.tail_bound(w)


def test_epsilon_times_contain_rigidity_time(thm1_stage4):
    p = rec.one_sided_point(thm1_stage4.prefix, 0, radius=20)
    eps = F(1, 2) + rec.tail_bound(20)
    times = rec.epsilon_recurrence_times(p, eps, horizon=60)
    assert 12 in times
    assert times == sorted(times)


def test_epsilon_times_on_fixed_zero_point():
    p = rec.centered_point(zeros(101, base=-50), 0, radius=5)
    assert rec.epsilon_recurrence_times(p, F(1, 1000), 40) == list(range(1, 41))


def test_epsilon_times_metric_restatement_of_rigidity(thm1_stage4):
    # Any window starting with a nonzero recurs at time n_k within 1/k + tail.
    s = thm1_stage4
    w = 12
    for k in (1, 2, 3):
        n_k = s.length_of_stage(k)
        for j in (0, 3, 12, 60):
            p = rec.one_sided_point(s.prefix, j, radius=w)
            if all(p.value(i) == 0 for i in range(1, k + 1)):
                continue
            eps = F(1, k) + rec.tail_bound(w)
            assert n_k in rec.epsilon_recurrence_times(p, eps, horizon=n_k)


def test_pair_point_never_recurs(thm2_states):
    state = thm2_states[2]
    w = 4
    pair = (
        rec.centered_point(state.x, 0, w),
        rec.centered_point(state.y, 0, w),
    )
    horizon = state.half_width - w
    assert rec.epsilon_recurrence_times(pair, F(1), horizon) == []


def test_pair_separation_on_hand_state():
    choice = thm2.SpacerChoice(s=2, t=24, sp=8, tp=18)
    state = thm2.build_stage(thm2.initial_state(), choice)
    assert rec.pair_separation_check(state, 27).passed


def test_pair_separation_full_range(thm2_stage4):
    rep = rec.pair_separation_check(thm2_stage4, thm2_stage4.half_width)
    assert rep.passed


def test_pair_separation_detects_planted_collision():
    choice = thm2.SpacerChoice(s=2, t=24, sp=8, tp=18)
    state = thm2.build_stage(thm2.initial_state(), choice)
    syms = list(state.y.symbols)
    syms[3 - state.y.base] = F(1)
    bad = thm2.Thm2State(
        2, state.x, Block(syms, base=state.y.base), (3,), (9,), state.spacers
    )
    rep = rec.pair_separation_check(bad, 27)
    assert not rep.passed and dict(rep.witness)["n"] == 3


def test_pair_separation_range_errors(thm2_states):
    with pytest.raises(ValueError, match="usable range"):
        rec.pair_separation_check(thm2_states[1], 10**9)


# -- escape witnesses -------------------------------------------------------------


def hand_stage2():
    return thm2.build_stage(thm2.initial_state(), thm2.SpacerChoice(2, 24, 8, 18))


def test_escape_hand_state_x_side_two_choices_each():
    state = hand_stage2()
    res = rec.escape_witness(state, 1, 1, "XatN")
    assert res.passed
    chosen = {}
    for a, b, r in res.runs:
        for j in range(a, b + 1):
            chosen[j] = r
    for j in chosen:
        valid = naive_escape_choices(state.x, 9, 1, j)
        assert len(valid) >= 2
        assert chosen[j] == valid[0]  # smallest valid r is reported


def test_escape_hand_state_y_side_w0():
    state = hand_stage2()
    res = rec.escape_witness(state, 1, 0, "YatM")
    assert res.passed
    chosen = {j: r for a, b, r in res.runs for j in range(a, b + 1)}
    # Centers on the outer nonzeros still find an r, shifted off the support.
    for j in (-9, 9):
        if j in chosen:
            assert chosen[j] in naive_escape_choices(state.y, 3, 0, j)
    lo = min(a for a, _, _ in res.runs)
    hi = max(b for _, b, _ in res.runs)
    for j in range(lo, hi + 1):
        assert chosen[j] == naive_escape_choices(state.y, 3, 0, j)[0]


def test_escape_runs_cover_admissible_range(thm2_stage4):
    res = rec.escape_witness(thm2_stage4, 2, 1, "XatN")
    assert res.passed
    covered = 0
    prev_end = None
    for a, b, r in res.runs:
        assert r in (1, 2, 3)
        if prev_end is not None:
            assert a == prev_end + 1
        covered += b - a + 1
        prev_end = b
    assert covered == dict(res.report.params)["centers"]


def test_escape_rejects_wide_window(thm2_states):
    state = thm2_states[1]
    with pytest.raises(ValueError, match="below the scale"):
        rec.escape_witness(state, 1, state.n(1), "XatN")


def test_escape_rejects_unknown_side(thm2_states):
    with pytest.raises(ValueError, match="side"):
        rec.escape_witness(thm2_states[1], 1, 0, "sideways")


def test_escape_detects_dense_mutation():
    state = hand_stage2()
    syms = list(state.y.symbols)
    for pos in (3, 6, 9):  # fill every shift multiple from center 0
        syms[pos - state.y.base] = F(1)
    bad = thm2.Thm2State(
        2, state.x, Block(syms, base=state.y.base), (3,), (9,), state.spacers
    )
    res = rec.escape_witness(bad, 1, 0, "YatM")
    assert not res.passed
    assert dict(res.report.witness)["center"] <= 0


# -- the limit-pair certificate -----------------------------------------------------


def test_cross_omega_hand_state():
    res = rec.cross_omega_witness(hand_stage2(), 1, 0)
    assert res.passed
    assert res.x_side_runs and res.y_side_runs


def test_cross_omega_deepest(thm2_stage4):
    for k in (1, 2, 3):
        for w in range(k + 1):
            res = rec.cross_omega_witness(thm2_stage4, k, w)
            assert res.passed, res.report.line()


def test_cross_omega_implied_by_rigidity_and_escape(thm2_states):
    for state in thm2_states[1:]:
        for k in range(1, state.stage):
            for w in (0, min(k, 2)):
                premises = (
                    thm2.check_rigidity_x(state, k).passed
                    and thm2.check_rigidity_y(state, k).passed
                    and rec.escape_witness(state, k, w, "XatN").passed
                    and rec.escape_witness(state, k, w, "YatM").passed
                )
                if premises:
                    assert rec.cross_omega_witness(state, k, w).passed


def test_cross_omega_failure_names_escape_part():
    state = hand_stage2()
    syms = list(state.y.symbols)
    for pos in (3, 6, 9):
        syms[pos - state.y.base] = F(1)
    bad = thm2.Thm2State(
        2, state.x, Block(syms, base=state.y.base), (3,), (9,), state.spacers
    )
    res = rec.cross_omega_witness(bad, 1, 0)
    assert not res.passed
    w = dict(res.report.witness)
    assert w["side"] == "x" and w["part"] == "b"


# -- differential checks against the dense references ------------------------------


def _random_pair_state(rng):
    """A centered pair with random supports and times, so witnesses fail often."""
    half = rng.randint(8, 30)
    stage = rng.randint(2, 4)
    blocks = []
    for _side in "xy":
        density = rng.choice((0.05, 0.15, 0.4))
        syms = [F(rng.randint(1, 6), 6) if rng.random() < density else 0
                for _ in range(2 * half + 1)]
        syms[half] = 1
        blocks.append(Block(syms, base=-half))
    times = [tuple(rng.randint(3, half // 2) for _ in range(stage - 1)) for _ in "mn"]
    return thm2.Thm2State(stage, *blocks, *times, ())


def _runs_from_choices(lo, hi, choose):
    """Constant runs of the smallest valid r per center, and the first center
    with none."""
    runs = []
    for j in range(lo, hi + 1):
        valid = choose(j)
        if not valid:
            return tuple(runs), j
        if runs and runs[-1][2] == valid[0]:
            runs[-1] = (runs[-1][0], j, valid[0])
        else:
            runs.append((j, j, valid[0]))
    return tuple(runs), None


def test_escape_and_omega_match_dense_references_on_random_states():
    rng = random.Random(4242)
    failures = {"ESCAPE": 0, "CROSS_OMEGA": 0}
    for _ in range(150):
        state = _random_pair_state(rng)
        k = rng.randint(1, state.stage - 1)
        w = rng.randint(0, 2)
        for side, block, scale_len in (("XatN", state.x, state.n(k)),
                                       ("YatM", state.y, state.m(k))):
            res = rec.escape_witness(state, k, w, side)
            lo, hi = block.base + w, block.last - w - 3 * scale_len
            runs, fail = _runs_from_choices(
                lo, hi, lambda j: naive_escape_choices(block, scale_len, w, j))
            assert res.runs == runs
            assert res.passed == (fail is None)
            if fail is not None:
                failures["ESCAPE"] += 1
                assert dict(res.report.witness)["center"] == fail
        res = rec.cross_omega_witness(state, k, w)
        want = None
        for side, ret, esc, time, got in (
            ("x", state.x, state.y, state.m(k), res.x_side_runs),
            ("y", state.y, state.x, state.n(k), res.y_side_runs),
        ):
            lo, hi = ret.base + w, ret.last - w - 3 * time

            def both(j):
                ret_ok, esc_ok = naive_omega_choices(ret, esc, time, F(3, k), w, j)
                return [r for r in ret_ok if r in esc_ok]

            runs, fail = _runs_from_choices(lo, hi, both)
            assert got == runs
            if fail is not None and want is None:
                ret_ok, esc_ok = naive_omega_choices(ret, esc, time, F(3, k), w, fail)
                part = "ab"  # what blocks the center: return (a), escape (b)
                if ret_ok and not esc_ok:
                    part = "b"
                elif esc_ok and not ret_ok:
                    part = "a"
                want = (("side", side), ("center", fail), ("part", part))
        assert res.passed == (want is None)
        if want is not None:
            failures["CROSS_OMEGA"] += 1
            assert res.report.witness == want
    assert min(failures.values()) > 30

import random
from fractions import Fraction

import pytest

from dlab import recurrence as rec
from dlab import thm1, thm2
from dlab.blocks import Block

from naive_refs import (
    dense,
    naive_close_pair,
    naive_escape_choices,
    naive_omega_choices,
    naive_pair_separation,
    naive_return_times,
    naive_window_distance,
)

F = Fraction


def tail_bound(radius):
    """Worst-case contribution of the coordinates beyond the radius."""
    return F(1, 2 ** (radius + 1))


def test_window_distance_identity():
    # d(T^n p, p) = 0 where the window repeats: a period-3 view returns at
    # every multiple of 3 for any epsilon > 0, and nowhere else.
    p = rec.centered_point(Block([1, 0, F(1, 2)] * 12, base=-18), 0, 2)
    assert rec.epsilon_recurrence_times((p,), F(1, 10**9), 12) == [3, 6, 9, 12]


def test_window_distance_weights():
    # A lone 1 at relative index i puts the view 2^-|i| from the zero window,
    # and a return needs a distance strictly below epsilon.
    p = rec.centered_point(Block([0] * 20 + [1] + [0] * 9, base=-10), 0, 2)
    for epsilon, missed in (
        (F(1), [10]),
        (F(1, 2), [9, 10, 11]),
        (F(1, 4), [8, 9, 10, 11, 12]),
        (F(1, 4) + F(1, 10**6), [9, 10, 11]),
    ):
        times = rec.epsilon_recurrence_times((p,), epsilon, 15)
        assert times == [n for n in range(1, 16) if n not in missed]


def test_window_point_out_of_range_is_error():
    b = Block([1, 0, 0, 0, 0], base=-2)
    with pytest.raises(IndexError):
        rec.centered_point(b, 0, radius=3)
    with pytest.raises(IndexError):
        rec.centered_point(b, 2, radius=1)
    with pytest.raises(IndexError):
        rec.centered_point(b, -2, radius=1)
    with pytest.raises(ValueError):
        rec.centered_point(b, 0, radius=-1)
    p = rec.centered_point(b, -1, radius=1)
    assert rec.epsilon_recurrence_times((p,), F(1), 2) == [1, 2]
    with pytest.raises(IndexError):
        rec.epsilon_recurrence_times((p,), F(1), 3)
    with pytest.raises(ValueError):
        rec.epsilon_recurrence_times((p,), F(1), 0)


def test_window_distance_is_a_metric():
    blocks = [
        Block([0, F(1, 2), 1, 0, F(1, 3)], base=-2),
        Block([F(1, 5), 0, 1, F(2, 3), 0], base=-2),
        Block([0, 0, 1, 0, 0], base=-2),
    ]
    points = [(b, 0) for b in blocks]
    for a in points:
        for b in points:
            d = naive_window_distance(a, b, 2)
            assert d == naive_window_distance(b, a, 2)
            assert (d == 0) == (dense(a[0]) == dense(b[0]))
            for c in points:
                assert naive_window_distance(a, c, 2) <= d + naive_window_distance(b, c, 2)


def test_deeper_radius_agrees_within_tail(thm1_stage4):
    block = thm1_stage4.prefix
    for w, delta in ((4, 3), (6, 5)):
        d_small = naive_window_distance((block, 12), (block, 0), w, one_sided=True)
        d_big = naive_window_distance((block, 12), (block, 0), w + delta, one_sided=True)
        assert abs(d_big - d_small) <= tail_bound(w)


def test_epsilon_times_contain_rigidity_time(thm1_stage4):
    view = (thm1_stage4.prefix, 0, 20)
    times = naive_return_times([view], F(1, 2) + tail_bound(20), 60, one_sided=True)
    assert 12 in times


def test_epsilon_times_on_fixed_zero_point():
    p = rec.centered_point(Block([0] * 101, base=-50), 0, radius=5)
    assert rec.epsilon_recurrence_times((p,), F(1, 1000), 40) == list(range(1, 41))


def test_epsilon_times_metric_restatement_of_rigidity(thm1_stage4):
    # Any window starting with a nonzero recurs at time n_k within 1/k + tail.
    s = thm1_stage4
    w = 12
    for k in (1, 2, 3):
        n_k = s.length_of_stage(k)
        for j in (0, 3, 12, 60):
            if all(s.prefix[j + i] == 0 for i in range(1, k + 1)):
                continue
            d = naive_window_distance((s.prefix, j + n_k), (s.prefix, j), w, one_sided=True)
            assert d < F(1, k) + tail_bound(w)


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
    choice = thm2.SpacerChoice(s=2, sp=8, tp=18)
    state = thm2.build_stage(thm2.initial_state(), choice)
    assert rec.pair_separation_check(state, 27).passed


def test_pair_separation_full_range(thm2_stage4):
    rep = rec.pair_separation_check(thm2_stage4, thm2_stage4.half_width)
    assert rep.passed


def test_pair_separation_detects_planted_collision():
    choice = thm2.SpacerChoice(s=2, sp=8, tp=18)
    state = thm2.build_stage(thm2.initial_state(), choice)
    syms = list(dense(state.y))
    syms[3 - state.y.base] = F(1)
    bad = thm2.Thm2State(
        state.x, Block(syms, base=state.y.base), (3,), (9,), state.spacers
    )
    rep = rec.pair_separation_check(bad, 27)
    assert not rep.passed and dict(rep.witness)["n"] == 3


def test_pair_separation_range_errors(thm2_states):
    with pytest.raises(ValueError, match="usable range"):
        rec.pair_separation_check(thm2_states[1], 10**9)


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("centre", [F(0), F(1, 2)])
def test_pair_without_unit_centre_is_refused(side, centre):
    # pair_separation_check has no x(0) = y(0) = 1 branch; the state is where
    # that requirement is enforced.
    state = thm2.build_stage(thm2.initial_state(), thm2.SpacerChoice(2, 8, 18))
    syms = list(dense(getattr(state, side)))
    syms[-state.x.base] = centre
    blocks = {"x": state.x, "y": state.y, side: Block(syms, base=state.x.base)}
    with pytest.raises(ValueError, match="central symbols must equal 1"):
        thm2.Thm2State(
            blocks["x"], blocks["y"], state.m_times, state.n_times, state.spacers
        )


# -- escape witnesses -------------------------------------------------------------


def hand_stage2():
    return thm2.build_stage(thm2.initial_state(), thm2.SpacerChoice(2, 8, 18))


def test_escape_hand_state_x_side_two_choices_each():
    state = hand_stage2()
    res = rec.escape_witness(state, 1, 1, "XatN")
    assert res.report.passed
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
    assert res.report.passed
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
    assert res.report.passed
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
    syms = list(dense(state.y))
    for pos in (3, 6, 9):  # fill every shift multiple from center 0
        syms[pos - state.y.base] = F(1)
    bad = thm2.Thm2State(
        state.x, Block(syms, base=state.y.base), (3,), (9,), state.spacers
    )
    res = rec.escape_witness(bad, 1, 0, "YatM")
    assert not res.report.passed
    assert dict(res.report.witness)["center"] <= 0


# -- the limit-pair certificate -----------------------------------------------------


def test_cross_omega_hand_state():
    res = rec.cross_omega_witness(hand_stage2(), 1, 0)
    assert res.report.passed
    assert res.x_side_runs and res.y_side_runs


def test_cross_omega_deepest(thm2_stage4):
    for k in (1, 2, 3):
        for w in range(k + 1):
            res = rec.cross_omega_witness(thm2_stage4, k, w)
            assert res.report.passed, res.report.line()


def test_cross_omega_implied_by_rigidity_and_escape(thm2_states):
    for state in thm2_states[1:]:
        for k in range(1, state.stage):
            for w in (0, min(k, 2)):
                premises = (
                    thm2.check_rigidity_x(state, k).passed
                    and thm2.check_rigidity_y(state, k).passed
                    and rec.escape_witness(state, k, w, "XatN").report.passed
                    and rec.escape_witness(state, k, w, "YatM").report.passed
                )
                if premises:
                    assert rec.cross_omega_witness(state, k, w).report.passed


def test_cross_omega_failure_names_escape_part():
    state = hand_stage2()
    syms = list(dense(state.y))
    for pos in (3, 6, 9):
        syms[pos - state.y.base] = F(1)
    bad = thm2.Thm2State(
        state.x, Block(syms, base=state.y.base), (3,), (9,), state.spacers
    )
    res = rec.cross_omega_witness(bad, 1, 0)
    assert not res.report.passed
    w = dict(res.report.witness)
    assert w["side"] == "x" and w["part"] == "b"


# -- differential checks against the dense references ------------------------------


def _random_pair_state(rng):
    """A centered pair with random supports and times, so witnesses fail often.

    Stages reach 7, so k reaches 6 and the return bound 3/k drops below the
    largest symbol: the return part can block a center as well as the escape.
    """
    half = rng.randint(12, 40)
    stage = rng.randint(2, 7)
    blocks = []
    for _side in "xy":
        density = rng.choice((0.05, 0.15, 0.4))
        syms = [F(rng.randint(1, 6), 6) if rng.random() < density else 0
                for _ in range(2 * half + 1)]
        syms[half] = 1
        blocks.append(Block(syms, base=-half))
    times = [tuple(rng.randint(3, half // 4) for _ in range(stage - 1)) for _ in "mn"]
    return thm2.Thm2State(*blocks, *times, ())


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
    parts = {"a": 0, "b": 0, "ab": 0}
    single_center_runs = 0
    for _ in range(300):
        state = _random_pair_state(rng)
        k = rng.randint(1, state.stage - 1)
        # Up to 4, so the spans of the outer nonzeros cross the lo/hi clip.
        w = rng.randint(0, min(4, state.m(k) - 1, state.n(k) - 1))
        for side, block, scale_len in (("XatN", state.x, state.n(k)),
                                       ("YatM", state.y, state.m(k))):
            res = rec.escape_witness(state, k, w, side)
            lo, hi = block.base + w, block.last - w - 3 * scale_len
            runs, fail = _runs_from_choices(
                lo, hi, lambda j: naive_escape_choices(block, scale_len, w, j))
            assert res.runs == runs
            single_center_runs += sum(a == b for a, b, _ in runs)
            assert res.report.passed == (fail is None)
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
            single_center_runs += sum(a == b for a, b, _ in runs)
            if fail is not None and want is None:
                ret_ok, esc_ok = naive_omega_choices(ret, esc, time, F(3, k), w, fail)
                part = "ab"  # what blocks the center: return (a), escape (b)
                if ret_ok and not esc_ok:
                    part = "b"
                elif esc_ok and not ret_ok:
                    part = "a"
                want = (("side", side), ("center", fail), ("part", part))
        assert res.report.passed == (want is None)
        if want is not None:
            failures["CROSS_OMEGA"] += 1
            parts[dict(want)["part"]] += 1
            assert res.report.witness == want
    assert min(failures.values()) > 30, failures
    assert all(parts.values()), parts
    assert single_center_runs > 0


def test_epsilon_times_match_the_dense_metric():
    rng = random.Random(1729)
    values = (F(0),) * 4 + (F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4))
    returned = 0
    for _ in range(250):
        radius, horizon = rng.randint(0, 4), rng.randint(1, 25)
        views = []
        for _side in range(rng.choice((1, 2))):
            length = 2 * radius + 1 + horizon + rng.randint(0, 6)
            base = rng.randint(-length, 3)
            syms = [rng.choice(values) for _ in range(length)]
            if rng.random() < 0.3:  # periodic, so that returns happen
                period = rng.randint(1, 5)
                syms = [syms[i % period] for i in range(length)]
            shift = rng.randint(base + radius, base + length - 1 - radius - horizon)
            views.append((Block(syms, base=base), shift, radius))
        epsilon = rng.choice((F(1), F(1, 2), F(1, 8), F(3, 16)))
        met = None
        if rng.random() < 0.5:
            # epsilon exactly a distance the scan meets: the strict < drops it
            met = rng.randint(1, horizon)
            epsilon = max(naive_window_distance((b, s + met), (b, s), r)
                          for b, s, r in views)
        points = tuple(rec.centered_point(b, s, r) for b, s, r in views)
        want = naive_return_times(views, epsilon, horizon)
        assert rec.epsilon_recurrence_times(points, epsilon, horizon) == want
        assert met not in want
        returned += bool(want)
    assert returned > 80


def _separated_pair_state(rng):
    """A centered pair whose supports meet only at 0 and whose x nonzeros sit
    more than n_k apart, with defects planted half of the time each: a shared
    nonzero of x and y, and two nonzeros of x within one cell."""
    half = rng.randint(12, 40)
    stage = rng.randint(2, 4)
    times = [tuple(rng.randint(3, half // 3) for _ in range(stage - 1)) for _ in "mn"]
    k = rng.randint(1, stage - 1)
    cell = times[1][k - 1]
    x = [F(0)] * (2 * half + 1)
    for sign in (1, -1):
        p = 0
        while abs(p) <= half:
            x[half + p] = F(rng.randint(1, 4), 4)
            p += sign * rng.randint(cell + 1, 2 * cell + 2)
    y = [F(rng.randint(1, 3), 3) if not v and rng.random() < 0.2 else F(0) for v in x]
    shared = [i for i in range(half + 1, len(x)) if x[i]]
    if shared and rng.random() < 0.5:
        y[rng.choice(shared)] = F(rng.randint(1, 3), 3)
    if rng.random() < 0.5:
        p = rng.randrange(len(x))
        x[min(len(x) - 1, p + rng.randint(1, cell))] = F(1, 2)
        x[p] = F(1)
    x[half] = y[half] = F(1)
    state = thm2.Thm2State(
        Block(x, base=-half), Block(y, base=-half), *times, ()
    )
    return state, k


def test_pair_separation_matches_dense_reference():
    rng = random.Random(2718)
    seen = {"PASS": 0, "FAIL": 0}
    for _ in range(300):
        state, _k = _separated_pair_state(rng)
        horizon = rng.randint(1, state.half_width)
        rep = rec.pair_separation_check(state, horizon)
        want = naive_pair_separation(state.x, state.y, horizon)
        assert rep.passed == (want is None)
        seen[rep.verdict] += 1
        if want is not None:
            assert rep.witness == want
        else:
            # No joint return at coordinate 0 means none within epsilon = 1.
            w = rng.randint(0, min(4, horizon - 1))
            pair = (rec.centered_point(state.x, 0, w), rec.centered_point(state.y, 0, w))
            assert rec.epsilon_recurrence_times(pair, F(1), horizon - w) == []
    assert min(seen.values()) > 60, seen


def test_sliding_falsifier_matches_dense_reference():
    rng = random.Random(3141)
    seen = {"found": 0, "clear": 0}
    for _ in range(300):
        state, k = _separated_pair_state(rng)
        cell = state.n(k)
        rep = thm2.sliding_falsifier(state, k)
        close = naive_close_pair(state.x, cell)
        if close is None:
            seen["clear"] += 1
            assert rep.witness == (("found", False),)
        else:
            seen["found"] += 1
            a, b = close
            offset = b - 2 * cell
            assert rep.witness == (
                ("found", True), ("offset", offset), ("pos_a", a), ("pos_b", b)
            )
            # Both nonzeros lie in the three cells that start at the offset.
            assert offset <= a < b < offset + 3 * cell
    assert min(seen.values()) > 100, seen

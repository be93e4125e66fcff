import hashlib
import random
from fractions import Fraction

import pytest

from dlab import recurrence as rec
from dlab import thm1, thm2
from dlab.blocks import Block, shift_violations

from naive_refs import (
    dense,
    naive_close_pair,
    naive_escape_choices,
    naive_omega_choices,
    naive_pair_separation,
    naive_return_times,
    naive_runs,
    naive_shift_violations,
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
        n_k = s.lengths[k - 1]
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


# -- the run walk against its dense reference --------------------------------------


def _planted_walk(rng):
    """Random blocking lists for r = 1, 2, 3 over centers lo..hi, each with
    one planted boundary case."""
    w = rng.choice((0, 0, 1, 2, 3))
    lo = rng.randint(-10, 10)
    hi = lo + rng.randint(0, 30)
    blocked = {
        r: [rng.randint(lo - 2 * w - 3, hi + 2 * w + 3)
            for _ in range(rng.choice((0, 1, 2, 4, 8)))]
        for r in (1, 2, 3)
    }
    r = rng.choice((1, 2, 3))
    plant = rng.choice(("duplicate", "link", "before lo", "past hi", "fail", "empty"))
    if plant == "duplicate" and blocked[r]:
        blocked[r].append(rng.choice(blocked[r]))
    elif plant == "link":  # neighbours 2w + 1 apart merge, 2w + 2 apart do not
        q = rng.randint(lo - w, hi + w)
        blocked[r] += [q, q + 2 * w + rng.choice((1, 2))]
    elif plant == "before lo":  # spans from before lo, some ending at lo
        blocked[r].append(lo + rng.randint(-w - 1, w - 1))
    elif plant == "past hi":  # spans from hi, hi + 1 and beyond
        blocked[r].append(hi + w + rng.randint(0, 3))
    elif plant == "fail":  # every r covers a center at lo, at hi or between
        f = rng.choice((lo, hi, rng.randint(lo, hi)))
        for s in (1, 2, 3):
            blocked[s].append(f + rng.randint(-w, w))
    elif plant == "empty":
        blocked[r] = []
    return {s: sorted(p) for s, p in blocked.items()}, w, lo, hi


def test_span_walk_matches_dense_runs_with_planted_boundaries():
    rng = random.Random(2029)
    seen = dict.fromkeys((
        "duplicate", "gap 2w+1", "gap 2w+2", "span from before lo", "span ends at lo",
        "span starts at hi", "span starts past hi + 1", "empty list", "w = 0",
        "failure at lo", "failure at hi", "failure mid-range", "no failure",
    ), 0)
    for _ in range(3000):
        blocked, w, lo, hi = _planted_walk(rng)
        spans = [rec._spans(blocked[r], w) for r in (1, 2, 3)]
        for positions, (starts, ends) in zip(blocked.values(), spans):
            # The spans are the centers within w of a position, with a free
            # center between any two of them.
            near = {q + d for q in positions for d in range(-w, w + 1)}
            assert {j for a, b in zip(starts, ends) for j in range(a, b + 1)} == near
            assert all(b + 1 < a for a, b in zip(starts[1:], ends))
            gaps = {b - a for a, b in zip(positions, positions[1:])}
            seen["duplicate"] += 0 in gaps
            seen["gap 2w+1"] += 2 * w + 1 in gaps
            seen["gap 2w+2"] += 2 * w + 2 in gaps
            seen["span from before lo"] += any(a < lo <= b for a, b in zip(starts, ends))
            seen["span ends at lo"] += lo in ends
            seen["span starts at hi"] += hi in starts
            seen["span starts past hi + 1"] += any(a > hi + 1 for a in starts)
            seen["empty list"] += not positions
        seen["w = 0"] += w == 0
        runs, failure = rec._assign_runs(spans, lo, hi)
        assert (runs, failure) == naive_runs(blocked, w, lo, hi)
        if failure is None:
            seen["no failure"] += 1
        elif lo < hi:
            key = {lo: "failure at lo", hi: "failure at hi"}.get(failure, "failure mid-range")
            seen[key] += 1
    assert all(seen.values()), seen


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


def _dense_omega(state, k, w):
    """The x and y side runs and the CROSS_OMEGA witness (None on a pass)
    that the dense references give."""
    sides, want = [], None
    for side, ret, esc, time in (
        ("x", state.x, state.y, state.m(k)),
        ("y", state.y, state.x, state.n(k)),
    ):
        lo, hi = ret.base + w, ret.last - w - 3 * time

        def both(j):
            ret_ok, esc_ok = naive_omega_choices(ret, esc, time, F(3, k), w, j)
            return [r for r in ret_ok if r in esc_ok]

        runs, fail = _runs_from_choices(lo, hi, both)
        sides.append(runs)
        if fail is not None and want is None:
            ret_ok, esc_ok = naive_omega_choices(ret, esc, time, F(3, k), w, fail)
            part = "ab"  # what blocks the center: return (a), escape (b)
            if ret_ok and not esc_ok:
                part = "b"
            elif esc_ok and not ret_ok:
                part = "a"
            want = (("side", side), ("center", fail), ("part", part))
    return sides, want


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
        sides, want = _dense_omega(state, k, w)
        assert [res.x_side_runs, res.y_side_runs] == sides
        single_center_runs += sum(a == b for runs in sides for a, b, _ in runs)
        assert res.report.passed == (want is None)
        if want is not None:
            failures["CROSS_OMEGA"] += 1
            parts[dict(want)["part"]] += 1
            assert res.report.witness == want
    assert min(failures.values()) > 30, failures
    assert all(parts.values()), parts
    assert single_center_runs > 0


# -- the limit-pair return part: the I/II verdict and the 3/k scans -------------------


def _planted_side(rng, half, time, k, plant):
    """A centered block whose return part at ``time`` and scale k carries
    ``plant``, over sprinkled nonzeros off the tent that holds its central 1.

    - rigid: x(j*time) = 1 - |j|/k, sprinkles at most 1/k, so no step of
      ``time`` moves x by more than 1/k and the probe finds nothing;
    - shallow: the tent falls by 2/k or 3/k per step, so the probe finds a
      violation and the 3/k scan at r = 1 finds none;
    - comb: the 1/k tent on the even multiples of ``time`` and zeros on the
      odd ones, so the probe at ``time`` fails, the 3/k scan at r = 2 finds
      nothing and a probe at 2 * time would pass;
    - steep: the tent falls by more than 3/k per step over sprinkles of any
      value, so every 3/k scan finds a violation.
    """
    step = {"rigid": F(1, k), "comb": F(1, k), "shallow": F(rng.choice((2, 3)), k),
            "steep": F(rng.randint(4, k), k)}[plant]
    spacing = 2 if plant == "comb" else 1
    small = plant != "steep"
    density = rng.choice((0, 0.01, 0.05, 0.15))
    syms = [(F(rng.randint(1, 4), 4 * k) if small else F(rng.randint(1, 6), 6))
            if rng.random() < density else F(0) for _ in range(2 * half + 1)]
    for j in range(-2 * k - 1, 2 * k + 2):
        value = max(F(0), 1 - abs(j) // spacing * step) if j % spacing == 0 else F(0)
        if value or plant == "comb":  # the comb clears the multiples off its tent
            syms[half + j * time] = value
    return Block(syms, base=-half)


def _planted_omega_state(rng):
    """A stage-7 pair at scale k in 4..6 whose sides each carry a plant, and
    its window half-width."""
    k = rng.randint(4, 6)
    half = rng.randint(100, 140)  # the tents reach (2k + 1) * 7 <= 91
    times = [[rng.randint(3, half // 4) for _ in range(6)] for _ in "mn"]
    # Distinct primes, so that the tents alone seldom block every escape.
    times[0][k - 1], times[1][k - 1] = rng.sample((3, 5, 7), 2)
    plants = [rng.choice(("rigid", "shallow", "comb", "steep")) for _ in "xy"]
    x = _planted_side(rng, half, times[0][k - 1], k, plants[0])
    y = _planted_side(rng, half, times[1][k - 1], k, plants[1])
    state = thm2.Thm2State(x, y, tuple(times[0]), tuple(times[1]), ())
    w = rng.choice((0, 0, 1, 2))
    return state, k, w


def _witness_lines(res, k):
    """The ``dlab recur omega`` lines of a limit-pair witness."""
    return [res.report.line()] + [
        f"WITNESS kind=omega side={side} k={k} center={a}..{b} r={r}"
        for side, runs in (("x", res.x_side_runs), ("y", res.y_side_runs))
        for a, b, r in runs
    ]


# sha256 of the lines of the planted states below, as the witness printed them
# when it ran all three 3/k scans on every side.
PLANTED_OMEGA_DIGEST = "c066ebb8553b48fdf3e43e64ab9f7cdb4cc20b835109622100dc9c4ddd9b6633"


def test_omega_probe_branches_match_dense_references_on_planted_states():
    rng = random.Random(6021)
    seen = dict.fromkeys((
        "probe passes", "probe fails, a scan is empty", "probe and every scan fail",
        "return blocks a center", "FAIL a", "FAIL b", "FAIL ab", "PASS",
    ), 0)
    digest = hashlib.sha256()
    for _ in range(160):
        state, k, w = _planted_omega_state(rng)
        res = rec.cross_omega_witness(state, k, w)
        sides, want = _dense_omega(state, k, w)
        assert [res.x_side_runs, res.y_side_runs] == sides
        assert res.report.witness == (want if want is not None else (
            ("x_runs", len(sides[0])), ("y_runs", len(sides[1])),
        ))
        seen["PASS" if want is None else "FAIL " + dict(want)["part"]] += 1
        for ret, time, escape_side, runs in (
            (state.x, state.m(k), "YatM", res.x_side_runs),
            (state.y, state.n(k), "XatN", res.y_side_runs),
        ):
            probe = naive_shift_violations(ret, time, F(1, k))
            scans = [list(shift_violations(ret, r * time, F(3, k))) for r in (1, 2, 3)]
            escape = rec.escape_witness(state, k, w, escape_side)
            if not probe:
                seen["probe passes"] += 1
                # 1/k per step of the time is at most 3/k in three steps.
                assert not any(scans)
                assert runs == escape.runs
            else:
                seen["probe fails, a scan is empty" if not all(scans)
                     else "probe and every scan fail"] += 1
                seen["return blocks a center"] += runs != escape.runs
        for line in _witness_lines(res, k):
            digest.update(line.encode() + b"\n")
    assert min(seen.values()) > 10, seen
    assert digest.hexdigest() == PLANTED_OMEGA_DIGEST


def test_omega_sides_are_escape_runs_on_the_built_pair():
    # Conditions I and II hold on the built pair, so each side's runs are the
    # other block's escape runs at its time.
    state = thm2.build_to_stage(5)
    for k in range(1, 5):
        res = rec.cross_omega_witness(state, k, 1)
        assert res.report.passed
        assert res.x_side_runs == rec.escape_witness(state, k, 1, "YatM").runs
        assert res.y_side_runs == rec.escape_witness(state, k, 1, "XatN").runs


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

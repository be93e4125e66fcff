import random
import tracemalloc
from fractions import Fraction

import pytest

from dlab import thm2
from dlab.blocks import Block, ResourceCapError, window

from naive_refs import (
    naive_phase_exists,
    naive_shift_violations,
    naive_smallest_phase,
)

F = Fraction


def hand_block(end, inner, values):
    """end zeros, v1, inner zeros, v2, inner zeros, v3, end zeros; centered."""
    syms = (
        [F(0)] * end
        + [values[0]]
        + [F(0)] * inner
        + [values[1]]
        + [F(0)] * inner
        + [values[2]]
        + [F(0)] * end
    )
    return Block(syms, base=-(len(syms) - 1) // 2)


@pytest.fixture(scope="module")
def hand_stage2():
    """The worked stage-1 step: s=2, sp=8, tp=18, t=24."""
    choice = thm2.SpacerChoice(s=2, t=24, sp=8, tp=18)
    return thm2.build_stage(thm2.initial_state(), choice)


def test_initial_state():
    s = thm2.initial_state()
    assert s.common_length == 1 and s.x[0] == 1 and s.y[0] == 1
    assert s.m_times == () and s.times_max() == 0


def test_hand_choice_satisfies_length_identity():
    # t = tp + r (sp - s) at r = 1: 24 = 18 + (8 - 2).
    thm2.SpacerChoice(s=2, t=24, sp=8, tp=18)
    with pytest.raises(ValueError, match="sp > s"):
        thm2.SpacerChoice(s=8, t=24, sp=2, tp=18)


def test_hand_stage2_blocks(hand_stage2):
    s = hand_stage2
    half = [F(1, 2), F(1), F(1, 2)]
    assert s.x == hand_block(24, 2, half)
    assert s.y == hand_block(18, 8, half)
    assert s.common_length == 55
    assert s.x.nonzero_positions == (-3, 0, 3)
    assert s.y.nonzero_positions == (-9, 0, 9)
    assert s.m_times == (3,) and s.n_times == (9,)


def test_hand_stage2_center_consistency(hand_stage2):
    assert hand_stage2.x[0] == 1
    assert window(hand_stage2.x, 0, 0) == Block([1], base=0)


def test_hand_stage2_passes_all_verifiers(hand_stage2):
    s = hand_stage2
    for rep in thm2.stage_reports(s):
        assert rep.passed, rep.line()
    assert thm2.check_rigidity_x(s, 1).passed
    assert thm2.check_sparseness_x(s, 1).passed  # span 7 fits one 9-cell
    assert thm2.check_sparseness_y(s, 1).passed  # singleton gaps of 3 cells
    assert thm2.check_orthogonality(s).passed


def test_hand_stage2_sliding_falsifier(hand_stage2):
    rep = thm2.sliding_falsifier(hand_stage2, 1)
    w = dict(rep.witness)
    assert rep.verdict == "INFO" and w["found"] is True
    # The witnessed boundary splits two nonzeros into adjacent cells.
    assert w["pos_b"] - w["pos_a"] <= 9


def test_build_stage_rejects_bad_identity():
    with pytest.raises(ValueError, match="length-identity"):
        thm2.build_stage(thm2.initial_state(), thm2.SpacerChoice(2, 23, 8, 18))


def test_build_to_stage_resource_cap(monkeypatch):
    # The cap counts stored nonzeros: stage 2 stores 3 per block.  It is
    # checked once, from the stage number, before any build.
    def build(*args, **kwargs):
        raise AssertionError("build_stage ran past the cap")

    monkeypatch.setattr(thm2, "build_stage", build)
    with pytest.raises(
        ResourceCapError, match="^stage 2 stores 3 nonzeros per block, cap is 2$"
    ):
        thm2.build_to_stage(2, max_symbols=2)


def test_rigidity_matches_naive(hand_stage2):
    s = hand_stage2
    assert naive_shift_violations(s.x, s.m(1), F(1)) == []
    assert naive_shift_violations(s.y, s.n(1), F(1)) == []


def test_rigidity_adjacent_scale_gap(thm2_states):
    # Shift-by-pitch differences realize exactly the 1/(r+1) scale gaps.
    for state in thm2_states[1:]:
        r = state.stage - 1
        k = r
        shift = state.m(k)
        worst = max(
            abs(state.x.at_or_zero(p + shift) - state.x[p])
            for p in state.x.nonzero_positions
        )
        assert worst <= F(1, k)
        assert thm2.check_rigidity_x(state, k).passed


def test_phased_sparseness_against_naive(thm2_states):
    for state in thm2_states[1:3]:
        for k in range(1, state.stage):
            for block, cell in ((state.x, state.n(k)), (state.y, state.m(k))):
                rep_phase = dict(
                    thm2.check_sparseness_x(state, k).witness
                    if block is state.x
                    else thm2.check_sparseness_y(state, k).witness
                )["phase"]
                assert rep_phase == naive_smallest_phase(block, cell)


def test_sparseness_failure_has_witness():
    # Three nonzeros two cells apart admit no phase at cell length 2.
    x = Block([1, 0, 1, 0, 1], base=-2)
    state = thm2.Thm2State(2, x, hand_block(1, 0, [F(1, 2), F(1), F(1, 2)]), (2,), (2,), (thm2.SpacerChoice(0, 0, 1, 0),))
    rep = thm2.check_sparseness_x(state, 1)
    assert not rep.passed
    w = dict(rep.witness)
    assert w["pos_a"] in x.nonzero_positions and w["pos_b"] in x.nonzero_positions


def test_orthogonality_failure_witness(hand_stage2):
    syms = list(hand_stage2.y.symbols)
    syms[3 - hand_stage2.y.base] = F(1)  # collide with x's nonzero at +3
    bad = thm2.Thm2State(
        2, hand_stage2.x, Block(syms, base=hand_stage2.y.base),
        (3,), (9,), hand_stage2.spacers,
    )
    rep = thm2.check_orthogonality(bad)
    assert not rep.passed and dict(rep.witness)["pos"] == 3


def test_zero_tails_requirement(hand_stage2):
    rep = thm2.check_zero_tails(hand_stage2)
    assert rep.passed
    assert dict(rep.params)["required"] == 18  # 2 * max(m_1, n_1)


def test_pair_never_returns_at_coordinate_zero(hand_stage2):
    # With orthogonal supports and centers equal to 1, every nonzero shift
    # moves the pair a full unit away at coordinate 0.
    s = hand_stage2
    for p in range(s.x.base, s.x.last + 1):
        if p != 0:
            assert max(1 - s.x[p], 1 - s.y[p]) == 1


# -- solver ---------------------------------------------------------------------


def test_solver_stage1_choice_properties():
    state = thm2.initial_state()
    built = thm2.solve_spacers(state)
    choice = built.spacers[-1]
    ell = state.common_length
    # Seed rule keeps the y pitch a multiple of the x pitch.
    assert (ell + choice.sp) % (ell + choice.s) == 0
    assert built == thm2.build_stage(state, choice)
    for rep in thm2.stage_reports(built):
        assert rep.passed, rep.line()


def test_solver_zero_cap_reports_condition():
    with pytest.raises(thm2.SolverError) as err:
        thm2.solve_spacers(thm2.initial_state(), iteration_cap=0)
    assert "CHECK III FAIL" in str(err.value)


def test_build_to_stage_builds_each_accepted_stage_once(monkeypatch):
    built, solved = [], []
    real_build, real_solve = thm2.build_stage, thm2.solve_spacers

    def build(state, choice, **kwargs):
        built.append((state.stage, choice))
        return real_build(state, choice, **kwargs)

    def solve(state, **kwargs):
        solved.append(state.stage)
        return real_solve(state, **kwargs)

    monkeypatch.setattr(thm2, "build_stage", build)
    monkeypatch.setattr(thm2, "solve_spacers", solve)
    state = thm2.build_to_stage(5)
    assert solved == [1, 2, 3, 4]
    assert set(enumerate(state.spacers, 1)) <= set(built)
    assert len(built) == len(set(built))


def test_no_solver_candidate_fails_zero_tails(monkeypatch):
    # _propose sets t >= tp = 2 max(m_r, n_r), twice the largest time, so
    # no candidate can fail Z and the solver has no Z branch.
    built = []
    real_build = thm2.build_stage

    def build(state, choice):
        built.append(real_build(state, choice))
        return built[-1]

    monkeypatch.setattr(thm2, "build_stage", build)
    thm2.build_to_stage(6)
    thm2.build_to_stage(5, transitive=True)
    assert len(built) > 10
    for state in built:
        assert thm2.check_zero_tails(state).passed, state.spacers[-1]


def test_solver_deterministic():
    a = thm2.solve_spacers(thm2.initial_state())
    b = thm2.solve_spacers(thm2.initial_state())
    assert a.spacers == b.spacers


def test_solver_states_pass_everything(thm2_states):
    for state in thm2_states[1:]:
        for rep in thm2.stage_reports(state):
            assert rep.passed, rep.line()


def test_stagewise_center_consistency(thm2_states):
    for prev, cur in zip(thm2_states, thm2_states[1:]):
        assert window(cur.x, prev.x.base, prev.x.last) == prev.x
        assert window(cur.y, prev.y.base, prev.y.last) == prev.y


def test_pitches_match_copy_bases(thm2_states):
    for prev, cur in zip(thm2_states, thm2_states[1:]):
        r = prev.stage
        choice = cur.spacers[-1]
        assert cur.m_times[-1] == prev.common_length + choice.s
        assert cur.n_times[-1] == prev.common_length + choice.sp
        # The unscaled center copy sits r pitches from the first copy.
        first_copy_base = cur.x.base + choice.t
        assert first_copy_base + r * cur.m_times[-1] == prev.x.base


def test_sliding_falsifier_fires_at_deepest_scale(thm2_states):
    for state in thm2_states[1:]:
        rep = thm2.sliding_falsifier(state, state.stage - 1)
        assert dict(rep.witness)["found"] is True


def test_verify_dispatch_and_range_errors(thm2_states):
    state = thm2_states[1]
    with pytest.raises(ValueError, match="admissible range"):
        thm2.check_rigidity_x(state, 5)


# -- transitive variant -----------------------------------------------------------


def test_interleave_hand_example():
    state = thm2.initial_state()
    out = thm2.build_transitive_stage(state, za=2, zb=6, zc=4, zd=4)
    assert out.common_length == 19
    assert out.x.nonzero_positions == (-3, 0, 3)
    assert out.y.nonzero_positions == (-5, 0, 5)
    assert out.transitive
    # The partner block appears whole on both sides of center.
    assert window(out.x, -3, -3).symbols == state.y.symbols
    assert window(out.x, 3, 3).symbols == state.y.symbols


def test_interleave_rejects_equal_offsets():
    with pytest.raises(ValueError, match=r"\|a\| != \|c\|"):
        thm2.build_transitive_stage(thm2.initial_state(), 2, 6, 2, 6)


def test_interleave_rejects_unbalanced_lengths():
    with pytest.raises(ValueError, match="unequal interleave lengths"):
        thm2.build_transitive_stage(thm2.initial_state(), 2, 6, 4, 5)


def test_interleave_rejects_thin_spacers(thm2_states):
    state = thm2_states[1]
    with pytest.raises(ValueError, match="zero-tail bound"):
        thm2.build_transitive_stage(state, 1, 30, 2, 29)


def _random_centered_pair(rng, shared: bool):
    """A centred pair with x(0) = y(0) = 1, orthogonal unless ``shared``."""
    half = rng.randint(1, 8)
    x, y = [F(0)] * (2 * half + 1), [F(0)] * (2 * half + 1)
    for i in range(2 * half + 1):
        side = rng.choice((x, y, None, None))
        if side is not None:
            side[i] = F(rng.randint(1, 5), 5)
    x[half] = y[half] = F(1)
    if shared:
        p = rng.choice([i for i in range(2 * half + 1) if i != half])
        x[p] = y[p] = F(1, 2)
    stage = rng.randint(1, 4)
    times = tuple(rng.randint(1, 30) for _ in range(2 * (stage - 1)))
    return thm2.Thm2State(
        stage, Block(x, base=-half), Block(y, base=-half),
        times[: stage - 1], times[stage - 1:], (),
    )


def test_interleave_is_built_once_and_keeps_orthogonality(monkeypatch, thm2_states):
    # Every copy is shifted by at least the block length and the copy offsets
    # differ by zc - za = 2*span + 2, so the first build meets V exactly when
    # the input does: there is nothing to retry.
    calls = []
    real = thm2.build_transitive_stage

    def build(state, *lengths):
        calls.append(lengths)
        return real(state, *lengths)

    monkeypatch.setattr(thm2, "build_transitive_stage", build)
    rng = random.Random(53)
    states = [*thm2_states, thm2.solve_spacers(thm2_states[-1])]
    states += [_random_centered_pair(rng, False) for _ in range(200)]
    for state in states:
        calls.clear()
        out = thm2.solve_transitive_spacers(state)
        assert len(calls) == 1
        assert thm2.check_orthogonality(out).passed
    for _ in range(50):
        calls.clear()
        with pytest.raises(ValueError, match="breaks support orthogonality"):
            thm2.solve_transitive_spacers(_random_centered_pair(rng, True))
        assert len(calls) == 1


def test_transitive_build_passes_gate(thm2_transitive4):
    s = thm2_transitive4
    assert s.transitive and s.stage == 4
    assert thm2.check_orthogonality(s).passed
    assert thm2.check_zero_tails(s).passed
    for k in (1, 2, 3):
        assert thm2.check_transitive_rigidity(s, k).passed


def test_transitive_rigidity_uses_both_shifts(thm2_transitive4):
    # The interleaved copies break plain one-shift rigidity (the partner
    # material does not repeat at the partner's time); the min over both
    # shifts is what survives.
    s = thm2_transitive4
    failed_plain = any(
        not thm2.check_rigidity_x(s, k).passed
        or not thm2.check_rigidity_y(s, k).passed
        for k in (1, 2, 3)
    )
    assert failed_plain
    for k in (1, 2, 3):
        assert thm2.check_transitive_rigidity(s, k).passed


def test_sparseness_without_phase_reports_phase_0_clash():
    # Nonzeros 3 apart sit 1 or 2 cells of length 2 apart under every phase.
    x = Block([1, 0, 0, 1, 0, 0, 1], base=-3)
    y = Block([0, 0, 0, 1, 0, 0, 0], base=-3)
    state = thm2.Thm2State(2, x, y, (2,), (2,), (thm2.SpacerChoice(0, 0, 1, 0),))
    assert not naive_phase_exists(x, 2)
    rep = thm2.check_sparseness_x(state, 1)
    assert rep.line() == "CHECK III FAIL stage=2 k=1 cell=2 phase=0 pos_a=-3 pos_b=0"


def _block_at(positions):
    """A 0/1 block whose nonzeros sit exactly at ``positions``."""
    base = min(positions)
    syms = [0] * (max(positions) - base + 1)
    for p in positions:
        syms[p - base] = 1
    return Block(syms, base=base)


def test_phased_sparseness_against_naive_on_random_blocks():
    rng = random.Random(31)
    failures = 0
    for _ in range(300):
        cell = rng.randint(1, 6)
        syms = [int(rng.random() < 0.25) for _ in range(rng.randint(1, 40))]
        block = Block(syms, base=rng.randint(-20, 20))
        phase, witness = thm2._phased_sparseness(block, cell)
        assert phase == naive_smallest_phase(block, cell)
        if phase is not None:
            continue
        failures += 1
        w = dict(witness)
        assert phase is None and w["phase"] == 0
        nz = block.nonzero_positions
        a, b = w["pos_a"], w["pos_b"]
        assert b == nz[nz.index(a) + 1]
        assert 0 < b // cell - a // cell < 3
    assert failures > 50


def test_phased_sparseness_on_one_pair_is_the_smallest_phase():
    # Every residue of a and every gap up to 4L: the pair's cell count steps
    # between q and q + 1 across the arc a+1 .. a+r, which wraps past L - 1
    # whenever (a+1) mod L + r > L.
    wrapped = 0
    for cell in range(1, 9):
        for a in range(-cell, cell):
            for gap in range(1, 4 * cell + 1):
                block = _block_at((a, a + gap))
                phase, _ = thm2._phased_sparseness(block, cell)
                assert phase == naive_smallest_phase(block, cell), (cell, a, gap)
                wrapped += (a + 1) % cell + gap % cell > cell
    assert wrapped > 400


def test_phased_sparseness_at_gaps_around_cell_multiples():
    # Runs of gaps L-1, L, L+1, 2L-1, 2L, 2L+1, 3L-1, 3L and 3L+1, where the
    # clash rule changes (q = 0, 1, 2, 3), from seeded starts so the arcs
    # wrap past L - 1.
    rng = random.Random(47)
    outcomes = {"none": 0, "zero": 0, "later": 0}
    wrapped = 0
    for _ in range(400):
        cell = rng.randint(2, 12)
        gaps = [q * cell + d for q in (1, 2, 3) for d in (-1, 0, 1)]
        pos = [rng.randint(-3 * cell, 3 * cell)]
        for _ in range(rng.randint(1, 5)):
            pos.append(pos[-1] + rng.choice(gaps))
        block = _block_at(pos)
        phase, witness = thm2._phased_sparseness(block, cell)
        assert phase == naive_smallest_phase(block, cell), (cell, pos)
        if phase is None:
            assert witness == (("phase", 0),) + tuple(
                zip(("pos_a", "pos_b"), thm2._cell_clash(pos, cell, 0))
            )
        outcomes["none" if phase is None else "zero" if phase == 0 else "later"] += 1
        wrapped += any(
            (a + 1) % cell + (b - a) % cell > cell for a, b in zip(pos, pos[1:])
        )
    assert min(outcomes.values()) > 30, outcomes
    assert wrapped > 150


def test_stage5_build_stores_only_nonzeros():
    # Each stage-5 block covers 29.4M positions but holds 945 nonzeros.
    tracemalloc.start()
    try:
        state = thm2.build_to_stage(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(state.x) == 29_399_257 and len(state.x.nonzero_positions) == 945
    assert peak < 8 * 2**20


def test_transitive_rigidity_against_naive_on_random_states():
    rng = random.Random(47)
    failures = 0
    for _ in range(200):
        half = rng.randint(1, 12)
        blocks = []
        for _side in "xy":
            syms = [F(rng.randint(1, 4), 4) if rng.random() < 0.3 else 0
                    for _ in range(2 * half + 1)]
            syms[half] = 1
            blocks.append(Block(syms, base=-half))
        m, n = rng.randint(1, 2 * half + 2), rng.randint(1, 2 * half + 2)
        k = rng.randint(1, 4)
        times = [rng.randint(1, 9) for _ in range(4)]
        m_times, n_times = list(times), list(times)
        m_times[k - 1], n_times[k - 1] = m, n
        state = thm2.Thm2State(5, *blocks, tuple(m_times), tuple(n_times), (), True)
        bound = F(1, k)
        rep = thm2.check_transitive_rigidity(state, k)
        want = None
        for name, block in zip("xy", blocks):
            both = sorted(set(naive_shift_violations(block, m, bound))
                          & set(naive_shift_violations(block, n, bound)))
            if both:
                i = both[0]
                v = block.at_or_zero(i)
                want = (("side", name), ("pos", i),
                        ("diff_m", abs(block.at_or_zero(i + m) - v)),
                        ("diff_n", abs(block.at_or_zero(i + n) - v)))
                break
        assert rep.passed == (want is None)
        if want is not None:
            failures += 1
            assert rep.witness == want
    assert failures > 20

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from dlab import thm1
from dlab.blocks import Block, CopyLayout, ResourceCapError, concat_all, scale, window

from naive_refs import (
    dense,
    naive_c1_max,
    naive_c2prime_violations,
    naive_c3_violations,
)

F = Fraction

# Hand expansion of the copy formula at stage 2: the stage-1 block twice,
# then the 1/2-scaled copy, then the zero copy.
X2 = (1, 0, 0, 1, 0, 0, F(1, 2), 0, 0, 0, 0, 0)

# Stage lengths follow n_{m+1} = (m+3) n_m from n_1 = 3.
LENGTHS = (3, 12, 60, 360, 2520, 20160, 181440, 1814400)


def hand_x3():
    """Stage 3 assembled by hand from the X2 literal (independent of step())."""
    out = list(X2) + list(X2)
    for t in (F(2, 3), F(1, 3), F(0)):
        out.extend(t * v for v in X2)
    return tuple(out)


def test_initial_state():
    s = thm1.initial_state()
    assert s.stage == 1 and s.lengths == (3,)
    assert s.prefix == Block([1, 0, 0], base=1)


def test_step_matches_hand_expansion():
    s2 = thm1.step(thm1.initial_state())
    assert dense(s2.prefix) == X2
    assert s2.lengths == (3, 12)
    s3 = thm1.step(s2)
    assert dense(s3.prefix) == hand_x3()
    assert s3.lengths == (3, 12, 60)


def test_build_lengths_through_stage_8(thm1_stage8):
    assert thm1_stage8.lengths == LENGTHS
    assert thm1_stage8.length == 1814400
    assert thm1.build(6).length == 20160


def test_predicted_length_matches_measured():
    n = 3  # stage m + 1 is m + 3 copies of stage m
    for m in range(1, 31):
        assert thm1.predicted_length(m) == n
        if m < 7:
            assert thm1.build(m).length == n
        n *= m + 3


def test_predicted_nonzeros_matches_measured():
    for m in range(1, 8):
        assert thm1.predicted_nonzeros(m) == len(thm1.build(m).prefix.nonzero_positions)


def test_prefix_consistency():
    states = {m: thm1.build(m) for m in range(1, 6)}
    for m in range(1, 5):
        small = states[m].prefix
        for big_stage in range(m + 1, 6):
            big = states[big_stage].prefix
            assert window(big, 1, small.last) == small


def test_resource_cap_refuses_before_building():
    with pytest.raises(
        ResourceCapError, match="^stage 8 stores 181440 nonzeros, cap is 100000$"
    ):
        thm1.build(8, max_nonzeros=10**5)
    # (m+1)!/2 of stage 5000 has more digits than str() prints, and that of
    # stage 1000000 takes minutes to multiply out; past both the cap and
    # 2**64 neither is formed.
    for m in (5000, 10**6):
        with pytest.raises(
            ResourceCapError,
            match=rf"^stage {m} stores more than 2\*\*{m - 1} nonzeros, cap is 100000000$",
        ):
            thm1.build(m)


def test_window_example_on_x2():
    s2 = thm1.build(2)
    assert dense(window(s2.prefix, 7, 12)) == (F(1, 2), 0, 0, 0, 0, 0)
    # The second stage opens with two stage-1 copies.
    assert dense(window(s2.prefix, 4, 6)) == dense(thm1.build(1).prefix)


def test_tail_zeros_invariant():
    for m in range(1, 7):
        s = thm1.build(m)
        assert s.prefix.trailing_zero_run() >= m + 1


# -- C1 -------------------------------------------------------------------------


def test_c1_on_stage_3():
    s = thm1.build(3)
    rep = thm1.check_c1(s, 5)
    assert rep.passed
    assert dict(rep.witness)["max_run"] == 5
    # The run sits at the junction of the two leading stage-2 copies.
    assert dict(rep.witness)["one_at"] == 13
    assert not thm1.check_c1(s, 6).passed


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_c1_matches_naive_and_grows(m):
    s = thm1.build(m)
    rep = thm1.check_c1(s, 1)
    found = dict(rep.witness)["max_run"]
    assert found == naive_c1_max(dense(s.prefix))
    assert found >= m
    if m >= 3:
        assert found >= s.lengths[m - 3]  # junction run covers a stage-(m-2) length


def test_c1_matches_naive_on_random_blocks():
    rng = random.Random(1212)
    for _ in range(300):
        syms = [rng.choice((F(0), F(0), F(1), F(1, 2), F(2, 3)))
                for _ in range(rng.randint(3, 40))]
        state = thm1.Thm1State((len(syms),), Block(syms, base=1))
        w = dict(thm1.check_c1(state, 1).witness)
        best = naive_c1_max(syms)
        assert w["max_run"] == best
        # The first 1 after a zero run of that length (none for length 0).
        ones = [i + 1 for i, v in enumerate(syms)
                if v == 1 and i >= best and not any(syms[i - best : i])]
        assert w["one_at"] == (ones[0] if best else None)


# -- C3 -------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_c3_matches_naive(m):
    s = thm1.build(m)
    syms = dense(s.prefix)
    for k in range(1, m):
        assert naive_c3_violations(syms, s.lengths[k - 1], k) == []
    assert thm1.check_c3(s, m - 1).passed


def test_c3_passes_exhaustively_per_stage():
    for m in range(2, 7):
        assert thm1.check_c3(thm1.build(m), m - 1).passed


def test_c3_example_values_on_stage_3():
    s = thm1.build(3)
    p = s.prefix
    # Second-copy start against its shift by n_2 = 12: |1 - 2/3| = 1/3 < 1/2.
    assert p[13] == 1 and p[25] == F(2, 3)
    assert abs(p[13] - p[25]) == F(1, 3) < F(1, 2)


def test_c3_rejects_out_of_range_k():
    with pytest.raises(ValueError, match="admissible range"):
        thm1.check_c3(thm1.build(3), 3)


def test_c3_detects_planted_violation():
    s = thm1.build(3)
    syms = list(dense(s.prefix))
    syms[40] = F(1)  # stray spike breaks the shift-by-3 bound nearby
    mutated = thm1.Thm1State(s.lengths, Block(syms, base=1))
    rep = thm1.check_c3(mutated, 2)
    assert not rep.passed
    w = dict(rep.witness)
    assert w["k"] >= 1 and abs(w["value"] - w["shifted"]) >= F(1, w["k"])


def _sparse_state(lengths, values):
    syms = [F(0)] * lengths[-1]
    for pos, v in values.items():
        syms[pos - 1] = v
    return thm1.Thm1State(lengths, Block(syms, base=1))


def _gap_row(refused, ratios):
    """A copy layout at pitch 20 whose walk at scale 2 refuses ``refused`` pairs in one gap.

    Copy 0 holds 1/5 at offset 1, and 3/5 at offset 20 and at offsets
    2..refused + 1.  Across the seam from the zero copy 3 to copy 4 (c = 1),
    each 3/5 breaks the bound 1/2 against a 0 whose gate sees no nonzero,
    until q = 80, which the 1/5 at 81 gates when 81 <= last - n_2.  Every
    other step is at most 1/2 * 3/5.
    """
    copy0 = [F(1, 5)] + [F(3, 5)] * refused + [F(0)] * (18 - refused) + [F(3, 5)]
    return CopyLayout(Block(copy0, base=1), ratios)


GATED = (1, 1, F(1, 2), 0, 1, 1)  # limit = 100: q = 80 fails
PAST = GATED[:-1]  # limit = 80: the 1/5 at 81 gates nothing
FAIL_AT_80 = "CHECK C3 FAIL stage=3 kmax=2 k=2 pos=80 value=0/1 shifted=3/5 bound=1/2"


@pytest.mark.parametrize("lengths, values, line", [
    # Pair (5, 8) breaks the bound 1/2, but its gate reads positions 4..5
    # only: the nonzero at 6 = last - n_2 + 1 opens no window.
    ((2, 3, 8), {1: F(1, 4), 6: F(1, 3), 8: F(1)}, "CHECK C3 PASS stage=3 kmax=2"),
    # After the run around 1, eighteen refused pairs (q, q + 100) in one gap,
    # then the first position the nonzero at 22 gates: the walk must resume
    # there, at 21, not after it.
    ((2, 100, 250), {1: F(1, 4), 22: F(1, 4), **{q + 100: F(1, 2) for q in range(3, 22)}},
     "CHECK C3 FAIL stage=3 kmax=2 k=2 pos=21 value=0/1 shifted=1/2 bound=1/2"),
    # A gap of one refused pair, (12, 112), two before the nonzero at 14: the
    # gate reads up to q + k - 1 = 13 and no further.  The walk resumes
    # right after it, at 13, which 14 gates.
    pytest.param(
        (2, 100, 250), {10: F(1, 4), 14: F(1, 4), **{q: F(1, 2) for q in (112, 113, 212, 213)}},
        "CHECK C3 FAIL stage=3 kmax=2 k=2 pos=13 value=0/1 shifted=1/2 bound=1/2",
        id="one-refused-then-gated"),
    # At scale 3 the pair (9, 29) is refused: its gate reads 7..9 only.  The
    # next nonzero, 10, lies past limit = 9 but within k - 1 of 9, so a walk
    # resumed at 10 - k + 1 = 8 would meet the same pair again.
    pytest.param(
        (2, 4, 20, 29), {6: F(2, 5), 10: F(2, 5), 26: F(2, 5), 29: F(2, 5)},
        "CHECK C3 PASS stage=4 kmax=3", id="next-nonzero-past-limit-in-reach"),
    # 1, 15, 16 and 17 refused pairs in one gap, then a gated failure; and
    # gaps whose next nonzero lies past limit.  Each is checked as its
    # layout record and as the row it stands for.
    *[pytest.param((3, 20, 120), _gap_row(r, GATED), FAIL_AT_80, id=f"gap-{r}-gated")
      for r in (1, 15, 16, 17)],
    *[pytest.param((3, 20, 100), _gap_row(r, PAST), "CHECK C3 PASS stage=3 kmax=2",
                   id=f"gap-{r}-past-limit")
      for r in (1, 17)],
])
def test_c3_gate_bounds_and_gap_resumption(lengths, values, line):
    if isinstance(values, CopyLayout):
        states = list(_flat(lengths, values.copy0, values.ratios))
    else:
        states = [_sparse_state(lengths, values)]
    kmax = len(lengths) - 1
    expected = _expected_c3(states[-1], kmax)  # of the flat row
    for state in states:
        rep = thm1.check_c3(state, kmax)
        assert rep.line() == line
        assert rep.passed == (expected is None)
        if expected is not None:
            assert (dict(rep.witness)["k"], dict(rep.witness)["pos"]) == expected


# -- C2PRIME --------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_c2prime_matches_naive(m):
    s = thm1.build(m)
    syms = dense(s.prefix)
    for j in range(1, m):
        assert naive_c2prime_violations(syms, s.lengths[j - 1], j) == []
    assert thm1.check_c2prime(s, m - 1).passed


def test_c2prime_boundary_tight_instance_on_x2():
    s = thm1.build(2)
    assert thm1.check_c2prime(s, 1).passed
    # Position 7 opens the scaled copy: value 1/2 followed by three zeros,
    # so the bound 0 + 1/2 is met with equality; strict comparison would fail.
    p = s.prefix
    eps = max(p[i] for i in range(8, 11))
    assert p[7] == eps + F(1, 2)


def test_c2prime_detects_corruption():
    s = thm1.build(3)
    syms = list(dense(s.prefix))
    assert syms[49] == 0
    syms[49] = F(1)  # position 50: a 1 followed by the final zero run
    mutated = thm1.Thm1State(s.lengths, Block(syms, base=1))
    rep = thm1.check_c2prime(mutated, 2)
    assert not rep.passed
    assert dict(rep.witness)["pos"] == 50


def _c2prime_hits(row, j, n_j):
    """Every C2PRIME failure of the row as (pos, value, window_max), found by
    resuming ``_c2prime_first`` past each hit."""
    hits, lo = [], row.base
    while (hit := thm1._c2prime_first(row, j, n_j, lo, row.last)) is not None:
        hits.append(hit)
        lo = hit[0] + 1
    return hits


def _naive_c2prime_hits(syms, n_j, j):
    return [(1 + i, syms[i], max(syms[i + 1 : i + 1 + n_j]))
            for i in naive_c2prime_violations(syms, n_j, j)]


@pytest.mark.parametrize("syms, n_j, j, want", [
    # The window max 1/2 at 3 (no candidate at j = 1) covers 1, then leaves
    # the window before the next candidate 5, which fails on what is left.
    ((1, 0, F(1, 2), 0, 1, 0, 0, 0, 0), 3, 1, [(5, 1, 0)]),
    ((1, 0, F(1, 2), 0, 1, F(1, 4), 0, 0, 0), 3, 1, [(5, 1, F(1, 4))]),
    # The max 1 at 2 is in the window of 1, then leaves it by becoming the
    # next candidate, whose window (2, 4] starts after it.
    ((F(3, 4), 1, F(3, 4), 0, 0, 0, 0), 2, 1, [(3, F(3, 4), 0)]),
])
def test_c2prime_sliding_max_planted(syms, n_j, j, want):
    syms = tuple(map(F, syms))
    row = CopyLayout(Block(syms, base=1), (1,))
    assert _c2prime_hits(row, j, n_j) == want == _naive_c2prime_hits(syms, n_j, j)


def test_c2prime_failure_on_a_layout_prints_the_flat_line():
    # Stage 4 as copies of stage 3 at planted ratios: the copy at ratio 1
    # after two zero copies breaks scale 3 in copy 4, read through a cover.
    s3 = thm1.build(3)
    ratios = (1, F(3, 4), 0, 0, 1, 0)
    layout = thm1.Thm1State(LENGTHS[:4], CopyLayout(s3.prefix, ratios))
    syms = tuple(c * v for c in ratios for v in dense(s3.prefix))
    flat = thm1.Thm1State(LENGTHS[:4], Block(syms, base=1))
    line = "CHECK C2PRIME FAIL stage=4 jmax=3 j=3 pos=256 value=1/1 window_max=2/3 slack=1/4"
    assert thm1.check_c2prime(layout, 3).line() == thm1.check_c2prime(flat, 3).line() == line
    # The dense scan: scales 1 and 2 hold, and scale 3 first fails there.
    assert not any(naive_c2prime_violations(syms, LENGTHS[j - 1], j) for j in (1, 2))
    assert _naive_c2prime_hits(syms, LENGTHS[2], 3)[0] == (256, 1, F(2, 3))


def test_c2prime_sliding_max_matches_naive_on_seeded_rows():
    # Dense rows put a candidate at nearly every nonzero, sparse ones leave
    # long zero runs between few candidates, and rows of two copies put the
    # second copy's windows through ``cover``'s built window.
    rng = random.Random(7919)
    values = {
        "dense": (F(1), F(3, 4), F(2, 3), F(1, 2), F(1, 3), 0),
        "sparse": (F(1), F(1, 2), F(1, 5)) + (0,) * 9,
    }
    hits = {True: 0, False: 0}
    for trial in range(200):
        kind = "dense" if trial % 2 else "sparse"
        syms = tuple(F(rng.choice(values[kind])) for _ in range(rng.randint(2, 40)))
        ratios = (1,) if trial % 3 else (1, rng.choice((F(1, 2), F(2, 3), 0, 1)))
        row = CopyLayout(Block(syms, base=1), ratios)
        flat = tuple(c * v for c in ratios for v in syms)
        for j in (1, 2, 3):
            for n_j in range(1, min(8, len(flat) - 1) + 1):
                want = _naive_c2prime_hits(flat, n_j, j)
                assert _c2prime_hits(row, j, n_j) == want, (flat, n_j, j)
                hits[bool(want)] += 1
    assert min(hits.values()) > 500, hits


# -- scale invariance and exactness ----------------------------------------------


@pytest.mark.parametrize("t", [F(1), F(1, 2), F(3, 7)])
def test_c3_c2prime_scale_invariant(t):
    from dlab.blocks import scale

    s = thm1.build(4)
    scaled = thm1.Thm1State(s.lengths, scale(t, s.prefix))
    assert thm1.check_c3(scaled, 3).passed
    assert thm1.check_c2prime(scaled, 3).passed


def test_denominators_divide_stage_products():
    for m in range(1, 6):
        s = thm1.build(m)
        product = math.prod(range(2, m + 1)) or 1
        for _, v in s.prefix.nonzero_items():
            assert product % v.denominator == 0


# -- the literal-form falsifier ---------------------------------------------------


def test_falsifier_finds_witness_on_x2():
    s = thm1.build(2)
    rep = thm1.literal_smallness_falsifier(s, 4)
    w = dict(rep.witness)
    assert rep.verdict == "INFO" and w["found"] is True
    # The found witness really violates the uncorrected bound.
    p = s.prefix
    eps = max(p[w["pos"] + d] for d in range(1, w["k"] + 1))
    assert w["value"] > eps + F(1, w["k"])
    # The window 1,0,0,1/2,0 at position 4 is another violating instance.
    assert p[4] > max(p[5], p[6], p[7]) + F(1, 3)


def test_falsifier_clean_on_stage_1():
    rep = thm1.literal_smallness_falsifier(thm1.initial_state(), 1)
    assert dict(rep.witness)["found"] is False


def test_state_invariant_validation():
    with pytest.raises(ValueError, match="prefix does not match"):
        thm1.Thm1State((4,), Block([1, 0, 0]))
    with pytest.raises(TypeError):  # the stage is len(lengths), never passed
        thm1.Thm1State(1, (3,), Block([1, 0, 0]))


@pytest.mark.parametrize(
    "lengths", [(-3, 12), (0, 12), (0, 5, 12), (12, 12), (5, 3, 12), (3.0, 12), ()]
)
def test_state_refuses_bad_stage_lengths(lengths):
    # A negative or zero n_k would make C3 shift backwards or by nothing, and
    # an unsorted history would skip or repeat scales.
    with pytest.raises(ValueError, match="not strictly increasing positive ints"):
        thm1.Thm1State(lengths, Block([1] + [0] * 11))


# -- differential checks against the dense references ----------------------------


def _random_symbol(rng):
    q = rng.randint(1, 40)
    return F(rng.randint(1, q), q)


def _random_state(rng):
    """A small state with planted spikes and dips and arbitrary denominators.

    Half start from a built stage (rigid, so a plant decides the verdict);
    half are sparse random blocks with random increasing stage lengths.
    """
    if rng.random() < 0.5:
        built = thm1.build(rng.choice((3, 4)))
        lengths = built.lengths
        syms = list(dense(built.prefix))
        if rng.random() < 0.5:
            t = _random_symbol(rng)
            syms = [t * v for v in syms]
    else:
        stage = rng.randint(2, 4)
        length = rng.randint(stage + 8, 70)
        lengths = tuple(sorted(rng.sample(range(1, length), stage - 1))) + (length,)
        density = rng.choice((0.1, 0.3))
        syms = [_random_symbol(rng) if rng.random() < density else F(0)
                for _ in range(length)]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(syms))
        if rng.random() < 0.5:
            syms[i] = max(syms[i], _random_symbol(rng))  # spike
        else:
            syms[i] = syms[i] * rng.randint(0, 2) / 3  # dip
    return thm1.Thm1State(lengths, Block(syms, base=1))


def _expected_c3(state, kmax):
    """(k, pos) of the first C3 failure, derived from the dense reference."""
    syms = dense(state.prefix)
    for k in range(1, kmax + 1):
        n_k = state.lengths[k - 1]
        starts = naive_c3_violations(syms, n_k, k)
        if starts:
            q = next(q for q in range(starts[0], len(syms) - n_k)
                     if abs(syms[q] - syms[q + n_k]) >= F(1, k))
            return k, q + 1
    return None


def _expected_c2prime(state, jmax):
    """(j, pos, window_max) of the first C2PRIME failure, from the dense reference."""
    syms = dense(state.prefix)
    for j in range(1, jmax + 1):
        n_j = state.lengths[j - 1]
        offsets = naive_c2prime_violations(syms, n_j, j)
        if offsets:
            i = offsets[0]
            return j, i + 1, max(syms[i + 1 : i + 1 + n_j])
    return None


def test_c3_c2prime_match_dense_references_on_random_states():
    rng = random.Random(20101022)
    verdicts = {True: 0, False: 0}
    for _ in range(250):
        state = _random_state(rng)
        kmax = state.stage - 1
        p = state.prefix

        rep = thm1.check_c3(state, kmax)
        expected = _expected_c3(state, kmax)
        assert rep.passed == (expected is None), rep.line()
        verdicts[rep.passed] += 1
        if expected is not None:
            w = dict(rep.witness)
            k, pos = expected
            assert (w["k"], w["pos"]) == (k, pos), rep.line()
            n_k = state.lengths[k - 1]
            assert (w["value"], w["shifted"]) == (p[pos], p[pos + n_k])
            assert w["bound"] == F(1, k)

        rep = thm1.check_c2prime(state, kmax)
        expected = _expected_c2prime(state, kmax)
        assert rep.passed == (expected is None), rep.line()
        verdicts[rep.passed] += 1
        if expected is not None:
            w = dict(rep.witness)
            j, pos, eps = expected
            assert (w["j"], w["pos"], w["window_max"]) == (j, pos, eps), rep.line()
            assert (w["value"], w["slack"]) == (p[pos], F(1, j + 1))
    # Both verdicts are well represented, so neither branch goes untested.
    assert min(verdicts.values()) > 100, verdicts


def test_fail_report_lines_are_exact():
    # Lines as the Fraction-based verifiers printed them; only values change form.
    s = thm1.build(3)
    syms = list(dense(s.prefix))
    syms[24], syms[25], syms[29] = F(1, 7), F(5, 7), F(1)
    mutated = thm1.Thm1State(s.lengths, Block(syms, base=1))
    assert thm1.check_c3(mutated, 2).line() == (
        "CHECK C3 FAIL stage=3 kmax=2 k=1 pos=30 value=1/1 shifted=0/1 bound=1/1"
    )
    assert thm1.check_c2prime(mutated, 2).line() == (
        "CHECK C2PRIME FAIL stage=3 jmax=2 j=1 pos=30 value=1/1 "
        "window_max=1/3 slack=1/2"
    )
    syms[29] = 0
    mutated = thm1.Thm1State(s.lengths, Block(syms, base=1))
    assert thm1.check_c3(mutated, 2).line() == (
        "CHECK C3 FAIL stage=3 kmax=2 k=2 pos=13 value=1/1 shifted=1/7 bound=1/2"
    )


# -- seam scans on audited copy layouts -------------------------------------------


def _copy_layout_state(rng):
    """Stages 2..R built as rows of copies c_j * (previous stage) from a random seed.

    c_0 = 1 and every other c_j is drawn from {0, 1/4, 1/2, 3/4, 1}, so the
    layout is exactly what ``Thm1State.copy_ratios`` accepts.
    """
    seed = [_random_symbol(rng) if rng.random() < 0.5 else F(0)
            for _ in range(rng.randint(2, 5))]
    block = Block(seed, base=1)
    lengths = [len(block)]
    for _ in range(rng.randint(1, 4)):
        factors = [F(1)] + [F(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 3))]
        block = concat_all([scale(c, block) for c in factors], base=1)
        lengths.append(len(block))
    return thm1.Thm1State(tuple(lengths), block)


def _at_top_seam(state, pos, before, after):
    """pos lies in seam - before .. seam + after for some copy seam of the top stage."""
    pitch = state.lengths[-2]
    return any(seam - before <= pos <= seam + after
               for seam in range(pitch, state.length, pitch))


def _record_scans(monkeypatch):
    """Log (k, whether lo..hi covers the whole prefix) of each scanner call."""
    calls = []

    def recording(real):
        def first(row, k, n_k, lo, hi):
            calls.append((k, lo <= row.base and hi >= row.last))
            return real(row, k, n_k, lo, hi)
        return first

    monkeypatch.setattr(thm1, "_c3_first", recording(thm1._c3_first))
    monkeypatch.setattr(thm1, "_c2prime_first", recording(thm1._c2prime_first))
    return calls


def test_seam_scans_match_dense_references_on_copy_layouts(monkeypatch):
    calls = _record_scans(monkeypatch)
    rng = random.Random(16)
    verdicts = {"C3": {True: 0, False: 0}, "C2PRIME": {True: 0, False: 0}}
    fail_sites = set()
    for _ in range(600):
        state = _copy_layout_state(rng)
        assert state.copy_ratios is not None
        kmax = state.stage - 1
        p = state.prefix
        calls.clear()

        rep = thm1.check_c3(state, kmax)
        expected = _expected_c3(state, kmax)
        assert rep.passed == (expected is None), rep.line()
        verdicts["C3"][rep.passed] += 1
        if expected is not None:
            w = dict(rep.witness)
            k, pos = expected
            assert (w["k"], w["pos"]) == (k, pos), rep.line()
            n_k = state.lengths[k - 1]
            assert (w["value"], w["shifted"]) == (p[pos], p[pos + n_k])
            seam = _at_top_seam(state, pos, n_k + k - 2, k - 1)
            fail_sites.add(("C3", seam))

        rep = thm1.check_c2prime(state, kmax)
        expected = _expected_c2prime(state, kmax)
        assert rep.passed == (expected is None), rep.line()
        verdicts["C2PRIME"][rep.passed] += 1
        if expected is not None:
            w = dict(rep.witness)
            j, pos, eps = expected
            assert (w["j"], w["pos"], w["window_max"]) == (j, pos, eps), rep.line()
            n_j = state.lengths[j - 1]
            fail_sites.add(("C2PRIME", _at_top_seam(state, pos, n_j - 1, 0)))
        # A FAIL witness comes from the seam ranges too: only the newest
        # scale, whose B_{k+1} is the whole prefix, is scanned over all of it.
        assert {k for k, whole in calls if whole} <= {state.stage - 1}
    for check, counts in verdicts.items():
        assert min(counts.values()) > 100, (check, counts)
    # Failures both at the top stage's seams and deep inside its copies, where
    # only a failure already present in the stage below can put them.
    assert fail_sites == {(c, seam) for c in verdicts for seam in (True, False)}


def _plant_perturbed_value(s5):
    syms = list(dense(s5.prefix))
    assert syms[864] == F(2, 5)
    syms[864] = F(1)  # position 865, inside copy 2 (721..1080) of stage 5
    return s5.lengths, syms


def _plant_shifted_copy(s5):
    syms = list(dense(s5.prefix))
    syms[720:1080] = [F(0)] + syms[720:1079]  # copy 2 moved right by one
    return s5.lengths, syms


def _plant_doubled_copy(s5):
    syms = list(dense(scale(F(1, 2), s5.prefix)))
    syms[1440:1800] = [2 * v for v in syms[:360]]  # copy 4 is 2 x copy 0
    return s5.lengths, syms


def _plant_length_not_a_multiple(s5):
    syms = list(dense(s5.prefix))[:2340]  # stage 5 cut inside its all-zero copy 6
    syms[2199] = F(1)
    return s5.lengths[:-1] + (2340,), syms


@pytest.mark.parametrize("plant, c3_line, c2prime_line", [
    (_plant_perturbed_value,
     "CHECK C3 FAIL stage=5 kmax=4 k=2 pos=865 value=1/1 shifted=1/5 bound=1/2",
     "CHECK C2PRIME FAIL stage=5 jmax=4 j=1 pos=865 value=1/1 window_max=2/5 slack=1/2"),
    (_plant_shifted_copy,
     "CHECK C3 FAIL stage=5 kmax=4 k=4 pos=361 value=1/1 shifted=0/1 bound=1/4",
     "CHECK C2PRIME PASS stage=5 jmax=4"),
    (_plant_doubled_copy,
     "CHECK C3 FAIL stage=5 kmax=4 k=4 pos=1081 value=3/10 shifted=1/1 bound=1/4",
     "CHECK C2PRIME FAIL stage=5 jmax=4 j=4 pos=1516 value=1/1 window_max=3/4 slack=1/5"),
    (_plant_length_not_a_multiple,
     "CHECK C3 FAIL stage=5 kmax=4 k=1 pos=2200 value=1/1 shifted=0/1 bound=1/1",
     "CHECK C2PRIME FAIL stage=5 jmax=4 j=1 pos=2200 value=1/1 window_max=0/1 slack=1/2"),
])
def test_refused_audit_prints_the_flat_lines(plant, c3_line, c2prime_line):
    # Lines as the flat scan of the whole prefix prints them.  The perturbed
    # value and the cut stage fail inside a copy at an old scale, where a seam
    # scan would not look.
    lengths, syms = plant(thm1.build(5))
    state = thm1.Thm1State(lengths, Block(syms, base=1))
    assert state.copy_ratios is None
    assert thm1.check_c3(state, 4).line() == c3_line
    assert thm1.check_c2prime(state, 4).line() == c2prime_line


@pytest.mark.parametrize("lengths, syms, ratios", [
    pytest.param((2, 4), (1, 0, 1, 0), ((1, 1),), id="copy-at-ratio-1"),
    pytest.param((2, 4), (1, 0, F(1, 2), 0), ((1, F(1, 2)),), id="copy-at-ratio-1/2"),
    pytest.param((2, 4), (F(1, 2), 0, 1, 0), None, id="copy-above-ratio-1"),
    pytest.param((2, 4), (1, 0, 0, 1), None, id="copy-moved-by-one"),
    pytest.param((2, 4), (0, 0, 0, 1), None, id="nonzero-copy-of-an-empty-copy-0"),
    pytest.param((3, 6), (1, 0, 0, 1, 0, F(1, 2)), None, id="copy-with-one-more-nonzero"),
    pytest.param((2, 5), (1, 0, 1, 0, 0), None, id="length-not-a-multiple"),
])
def test_copy_audit_on_planted_layouts(lengths, syms, ratios):
    # Each refusal of the audit, and a ratio at its largest admitted value.
    assert thm1.Thm1State(lengths, Block(syms, base=1)).copy_ratios == ratios


def test_built_stages_scan_no_old_scale_over_the_whole_prefix(monkeypatch, thm1_stage8):
    calls = _record_scans(monkeypatch)
    for state in [thm1.build(m) for m in range(3, 8)] + [thm1_stage8]:
        assert state.copy_ratios is not None
        newest = state.stage - 1
        calls.clear()
        assert thm1.check_c3(state, newest).passed
        # Every ratio step is 0 or 1/(k+1) < 1/k, so C3 scans only seam
        # ranges: none for the newest scale, none over the whole prefix.
        assert not any(whole for _, whole in calls), state.stage
        assert {k for k, _ in calls} == set(range(1, newest)), state.stage
        calls.clear()
        jmax = min(4, newest)
        assert thm1.check_c2prime(state, jmax).passed
        # C2PRIME keeps all of B_{j+1}: only the newest scale, whose B_{j+1}
        # is the prefix, is scanned over the whole of it.
        assert {k for k, whole in calls if whole} <= {newest}, state.stage
        assert {k for k, _ in calls} == set(range(1, jmax + 1)), state.stage


def _ratio_layout(seed, *rows):
    """Stages built from ``seed`` as rows of copies c_j * (previous stage)."""
    block = Block(seed, base=1)
    lengths = [len(block)]
    for row in rows:
        block = concat_all([scale(c, block) for c in row], base=1)
        lengths.append(len(block))
    return thm1.Thm1State(tuple(lengths), block)


H = F(1, 2)


@pytest.mark.parametrize("seed, rows, line", [
    # A step of exactly 1/2 = 1/k at the newest scale: 1 against 1/2.
    ([1, 0, 0], [(1, H, 0), (1, 1, H)],
     "CHECK C3 FAIL stage=3 kmax=2 k=2 pos=10 value=1/1 shifted=1/2 bound=1/2"),
    # The same step at an old scale, deep inside B_3.
    ([1, 0, 0], [(1, H, 0), (1, 1, H), (1, 1)],
     "CHECK C3 FAIL stage=4 kmax=3 k=2 pos=10 value=1/1 shifted=1/2 bound=1/2"),
    # A step of 1 > 1/2 from copy 1 of B_3 to copy 2, far from any seam.
    ([1, 0, 0], [(1, 1, H, 0), (1, 1, 0, 0), (1, 1, 1)],
     "CHECK C3 FAIL stage=4 kmax=3 k=2 pos=13 value=1/1 shifted=0/1 bound=1/2"),
    # A step of exactly 1 = 1/k at scale 1.
    ([1, 0, 0], [(1, 0), (1, 1, 1)],
     "CHECK C3 FAIL stage=3 kmax=2 k=1 pos=1 value=1/1 shifted=0/1 bound=1/1"),
    # Steps of 1/2 over symbols of at most 1/2 stay below the bound.
    ([H, 0, 0], [(1, H, 0), (1, 1, H), (1, 1)],
     "CHECK C3 PASS stage=4 kmax=3"),
])
def test_ratio_steps_at_the_bound_are_scanned(monkeypatch, seed, rows, line):
    calls = _record_scans(monkeypatch)
    state = _ratio_layout(seed, *rows)
    assert state.copy_ratios == tuple(tuple(map(F, row)) for row in rows)
    kmax = state.stage - 1
    rep = thm1.check_c3(state, kmax)
    assert rep.line() == line
    expected = _expected_c3(state, kmax)
    assert rep.passed == (expected is None)
    if expected is not None:
        w = dict(rep.witness)
        assert (w["k"], w["pos"]) == expected
    # No call spans the whole prefix: the witness came from a copy range.
    assert not any(whole for _, whole in calls)


# -- the top stage as a copy-layout record ----------------------------------------


def _verify_lines(state, kmax, jmax):
    """The five report lines of ``dlab thm1 verify``, as the CLI computes them."""
    return [r.line() for r in thm1.stage_reports(state, kmax, jmax)]


def _layout(state):
    """The state's top stage as its copy layout over the stage below."""
    return thm1.step(thm1.build(state.stage - 1), flat=False)


def _flat(lengths, copy0, ratios):
    """The record (lengths, CopyLayout(copy0, ratios)) and the row it stands for, built."""
    record = thm1.Thm1State(lengths, CopyLayout(copy0, ratios))
    row = concat_all([scale(c, copy0) for c in ratios], base=1)
    return record, thm1.Thm1State(lengths, row)


def test_layout_verify_equals_flat_line_for_line(thm1_stage8):
    for m in range(2, 10):
        flat = thm1_stage8 if m == 8 else thm1.build(m)
        layout = _layout(flat)
        assert isinstance(layout.prefix, CopyLayout)
        assert layout.lengths == flat.lengths
        assert layout.copy_ratios == flat.copy_ratios
        # C2PRIME at j = m - 1 reads a window of n_{m-1} symbols per
        # candidate, and LITERAL2 at kmax = 1 finds no witness, so the flat
        # scan walks every nonzero: each runs only where that stays small.
        jmaxes = {1, min(4, m - 1)} | ({m - 1} if m <= 6 else set())
        for kmax in (1 if m <= 7 else 2, m - 1, 20):
            for jmax in sorted(jmaxes):
                assert _verify_lines(layout, kmax, jmax) == _verify_lines(flat, kmax, jmax), (
                    m, kmax, jmax,
                )


def test_layout_records_match_their_built_rows_on_random_layouts():
    # Random copy rows, half with a spike or dip in copy 0 so that its audit
    # refuses and every scale scans the whole row in copy pairs.
    rng = random.Random(23)
    fails = set()
    for _ in range(400):
        state = _copy_layout_state(rng)
        below, ratios = _below_and_ratios(state)
        syms = list(dense(below.prefix))
        if rng.random() < 0.5:
            i = rng.randrange(len(syms))
            syms[i] = _random_symbol(rng) if rng.random() < 0.5 else F(0)
        record, flat = _flat(state.lengths, Block(syms, base=1), ratios)
        kmax = state.stage - 1
        lines = _verify_lines(record, kmax, kmax)
        assert lines == _verify_lines(flat, kmax, kmax)
        fails.update(line.split()[1] for line in lines if " FAIL " in line)
    assert fails == {"C1", "C2PRIME", "C3", "TAILS"}


def _below_and_ratios(state):
    """The stage-(s-1) state and the top stage's ratios of an audited state."""
    below = thm1.Thm1State(state.lengths[:-1], window(state.prefix, 1, state.lengths[-2]))
    return below, state.copy_ratios[-1]


S5 = thm1.build(5)
R5 = thm1._ratios(4)  # 1, 1, 4/5, 3/5, 2/5, 1/5, 0; not read off the audit it tests
B4 = thm1.build(4).prefix


def _with(block, pos, value):
    syms = list(dense(block))
    syms[pos - 1] = value
    return Block(syms, base=1)


@pytest.mark.parametrize("copy0, ratios, planted", [
    # Non-monotone ratios: a step of 2/5 >= 1/4 at the newest scale.
    (B4, (1, 1, F(2, 5), F(4, 5), F(3, 5), F(1, 5), 0),
     "CHECK C3 FAIL stage=5 kmax=4 k=4 pos=361 value=1/1 shifted=2/5 bound=1/4"),
    # A zero copy mid-row, then a copy at 1: the run before its first 1
    # crosses a whole zero copy.
    (B4, (1, 1, F(4, 5), 0, 1, F(1, 5), 0),
     "CHECK C1 PASS stage=5 kmax=4 max_run=437 one_at=1441"),
    # A perturbed copy-0 value: the audit of stage 4 refuses.
    (_with(B4, 200, F(1)), R5,
     "CHECK C3 FAIL stage=5 kmax=4 k=1 pos=200 value=1/1 shifted=0/1 bound=1/1"),
    # A 1 at the end of copy 0 sits before every seam, and the last copy is
    # not zero, so the row ends in that 1 scaled.
    (_with(B4, 360, F(1)), R5[:-1] + (F(1, 5),),
     "CHECK TAILS FAIL stage=5 required=6 zero_run=0"),
])
def test_planted_records_print_the_flat_lines(copy0, ratios, planted):
    record, flat = _flat(S5.lengths, copy0, ratios)
    for kmax, jmax in ((4, 4), (2, 1), (20, 3)):
        assert _verify_lines(record, kmax, jmax) == _verify_lines(flat, kmax, jmax)
    assert planted in _verify_lines(record, 4, 4)


def test_literal_falsifier_on_layouts_matches_the_built_row():
    # Copy 0 rises, so no window inside it holds a witness: each lies at the
    # end of a copy, where the window crosses a seam or meets the row's end.
    rng = random.Random(2010)
    found = {True: 0, False: 0}
    for _ in range(400):
        pitch = rng.randint(2, 7)
        syms = sorted(_random_symbol(rng) if rng.random() < 0.6 else F(0)
                      for _ in range(pitch))
        if rng.random() < 0.3:
            syms[rng.randrange(pitch)] = _random_symbol(rng)  # not rising everywhere
        ratios = [F(1)] + [F(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 4))]
        record, flat = _flat((pitch, pitch * len(ratios)), Block(syms, base=1), ratios)
        kmax = rng.randint(1, pitch)
        rep = thm1.literal_smallness_falsifier(record, kmax)
        assert rep.line() == thm1.literal_smallness_falsifier(flat, kmax).line()
        w = dict(rep.witness)
        found[w["found"]] += 1
        if w["found"]:
            pos = w["pos"]
            found["past copy 0"] = found.get("past copy 0", 0) + (pos > pitch)
            found["seam"] = found.get("seam", 0) + ((pos - 1) // pitch != (pos + w["k"] - 1) // pitch)
    # Most witnesses already lie at the end of copy 0; a few only later.
    past = found.pop("past copy 0")
    assert min(found.values()) > 50 and past >= 5, (found, past)


def test_record_refuses_ratios_outside_the_unit_interval_and_a_wrong_pitch():
    with pytest.raises(ValueError, match=r"symbol 3/2 outside \[0, 1\]"):
        CopyLayout(B4, (1, F(3, 2)))
    with pytest.raises(ValueError, match=r"symbol -1/5 outside \[0, 1\]"):
        CopyLayout(B4, (1, F(-1, 5)))
    with pytest.raises(ValueError, match="at least one copy"):
        CopyLayout(B4, ())
    with pytest.raises(TypeError):
        CopyLayout(CopyLayout(B4, R5), R5)
    lengths = S5.lengths
    with pytest.raises(ValueError, match="layout pitch 360 is not the previous stage length"):
        thm1.Thm1State(lengths[:-2] + (720, 2520), CopyLayout(B4, R5))
    with pytest.raises(ValueError, match="layout pitch 360 is not the previous stage length"):
        thm1.Thm1State((2520,), CopyLayout(B4, R5))
    with pytest.raises(ValueError, match="prefix does not match recorded length"):
        thm1.Thm1State(lengths, CopyLayout(B4, R5[:-1]))
    with pytest.raises(ValueError, match="copy 0 is scaled by 1/2"):
        thm1.Thm1State(lengths, CopyLayout(B4, (F(1, 2),) + R5[1:]))
    with pytest.raises(ValueError, match="exceeds the layout pitch 360"):
        thm1.literal_smallness_falsifier(_layout(S5), 361)


def test_layout_reads_as_its_built_row():
    rng = random.Random(5)
    for _ in range(100):
        copy0 = Block([_random_symbol(rng) if rng.random() < 0.4 else 0
                       for _ in range(rng.randint(1, 6))])
        ratios = [F(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 4))]
        row = CopyLayout(copy0, ratios)
        built = concat_all([scale(c, copy0) for c in ratios], base=1)
        assert (row.base, row.last, len(row), row.pitch) == (1, built.last, len(built), len(copy0))
        assert row.trailing_zero_run() == built.trailing_zero_run()
        for i in range(1, built.last + 1):
            assert row.cover(i, i)[i] == built[i]
            for j in range(i, min(i + 2 * row.pitch, built.last + 1)):
                assert row.nonzero_in(i, j) == list(built.nonzero_in(i, j))
                if (j - 1) // row.pitch - (i - 1) // row.pitch <= 1:
                    assert dense(window(row.cover(i, j), i, j)) == dense(window(built, i, j))
                else:
                    with pytest.raises(ValueError, match="two adjacent copies"):
                        row.cover(i, j)


def test_layout_pieces_and_pair_covers_read_as_the_built_row():
    rng = random.Random(41)
    met = 0  # pair covers whose two ranges just meet
    for _ in range(60):
        copy0 = Block([_random_symbol(rng) if rng.random() < 0.4 else 0
                       for _ in range(rng.randint(1, 5))])
        ratios = [F(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 4))]
        row = CopyLayout(copy0, ratios)
        built = concat_all([scale(c, copy0) for c in ratios], base=1)
        pitch, last = row.pitch, row.last
        for lo in range(1 - pitch, last + pitch + 1):
            for hi in range(lo - 1, last + pitch + 1):
                inside = range(max(lo, 1), min(hi, last) + 1)
                copies = sorted({(p - 1) // pitch for p in inside})
                assert row.pieces(lo, hi) == [
                    (t, min(p for p in inside if (p - 1) // pitch == t),
                     max(p for p in inside if (p - 1) // pitch == t))
                    for t in copies
                ]
        for a in range(1, last + 1):
            for b in range(a, last + 1):
                for shift in range(1, last - b + 1):
                    try:
                        part = row.pair_cover(a, b, shift)
                    except ValueError as err:
                        assert "two adjacent copies" in str(err)
                        continue
                    met += a + shift == b + 1
                    assert part.base <= a and b + shift <= part.last
                    for q in range(a, b + 1):
                        assert part[q] == built[q] and part[q + shift] == built[q + shift]
    assert met > 100, met


def test_flat_build_of_stage_9_peaks_under_32_mb():
    # 1,814,400 nonzeros at 8 bytes of position and 4 of value id each are
    # 21.8 MB; one scaled copy costs a table, not a pass over the nonzeros.
    tracemalloc.start()
    try:
        thm1.build(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 10**6, peak


def test_layout_verify_peaks_well_below_the_flat_build():
    # build(9) peaks at least at what it returns: an int64 array of its
    # positions and an array of one 4-byte value id per nonzero (its table
    # holds 758 values).
    prefix = thm1.build(9).prefix
    built = sys.getsizeof(prefix._nonzero) + sys.getsizeof(prefix._ids)
    del prefix
    tracemalloc.start()
    try:
        assert _verify_lines(thm1.step(thm1.build(8), flat=False), 20, 4)
        verified = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stage-9 row holds 1,814,400 nonzeros; the record stores stage 8's
    # 181,440, and its covers hold at most two of its copies at a time.
    assert verified < built / 4, (verified, built)

import math
import random
from fractions import Fraction

import pytest

from dlab import thm1
from dlab.blocks import Block, ResourceCapError, window

from naive_refs import (
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
    assert s2.prefix.symbols == X2
    assert s2.lengths == (3, 12)
    s3 = thm1.step(s2)
    assert s3.prefix.symbols == hand_x3()
    assert s3.lengths == (3, 12, 60)


def test_build_lengths_through_stage_8(thm1_stage8):
    assert thm1_stage8.lengths == LENGTHS
    assert thm1_stage8.length == 1814400
    assert thm1.build(6).length == 20160


def test_predicted_length_matches_measured():
    for m in range(1, 7):
        assert thm1.predicted_length(m) == thm1.build(m).length


def test_prefix_consistency():
    states = {m: thm1.build(m) for m in range(1, 6)}
    for m in range(1, 5):
        small = states[m].prefix
        for big_stage in range(m + 1, 6):
            big = states[big_stage].prefix
            assert window(big, 1, small.last) == small


def test_resource_cap_refuses_before_building():
    with pytest.raises(ResourceCapError, match="1814400"):
        thm1.build(8, max_symbols=10**6)


def test_window_example_on_x2():
    s2 = thm1.build(2)
    assert window(s2.prefix, 7, 12).symbols == (F(1, 2), 0, 0, 0, 0, 0)
    # The second stage opens with two stage-1 copies.
    assert window(s2.prefix, 4, 6).symbols == thm1.build(1).prefix.symbols


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
    assert found == naive_c1_max(s.prefix.symbols)
    assert found >= m
    if m >= 3:
        assert found >= s.lengths[m - 3]  # junction run covers a stage-(m-2) length


# -- C3 -------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_c3_matches_naive(m):
    s = thm1.build(m)
    syms = s.prefix.symbols
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
    syms = list(s.prefix.symbols)
    syms[40] = F(1)  # stray spike breaks the shift-by-3 bound nearby
    mutated = thm1.Thm1State(3, s.lengths, Block(syms, base=1))
    rep = thm1.check_c3(mutated, 2)
    assert not rep.passed
    w = dict(rep.witness)
    assert w["k"] >= 1 and abs(w["value"] - w["shifted"]) >= F(1, w["k"])


# -- C2PRIME --------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_c2prime_matches_naive(m):
    s = thm1.build(m)
    syms = s.prefix.symbols
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
    syms = list(s.prefix.symbols)
    assert syms[49] == 0
    syms[49] = F(1)  # position 50: a 1 followed by the final zero run
    mutated = thm1.Thm1State(3, s.lengths, Block(syms, base=1))
    rep = thm1.check_c2prime(mutated, 2)
    assert not rep.passed
    assert dict(rep.witness)["pos"] == 50


# -- scale invariance and exactness ----------------------------------------------


@pytest.mark.parametrize("t", [F(1), F(1, 2), F(3, 7)])
def test_c3_c2prime_scale_invariant(t):
    from dlab.blocks import scale

    s = thm1.build(4)
    scaled = thm1.Thm1State(4, s.lengths, scale(t, s.prefix))
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
    with pytest.raises(ValueError):
        thm1.Thm1State(2, (3,), Block([1, 0, 0]))
    with pytest.raises(ValueError):
        thm1.Thm1State(1, (4,), Block([1, 0, 0]))


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
        stage, lengths = built.stage, built.lengths
        syms = list(built.prefix.symbols)
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
    return thm1.Thm1State(stage, lengths, Block(syms, base=1))


def _expected_c3(state, kmax):
    """(k, pos) of the first C3 failure, derived from the dense reference."""
    syms = state.prefix.symbols
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
    syms = state.prefix.symbols
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
    syms = list(s.prefix.symbols)
    syms[24], syms[25], syms[29] = F(1, 7), F(5, 7), F(1)
    mutated = thm1.Thm1State(3, s.lengths, Block(syms, base=1))
    assert thm1.check_c3(mutated, 2).line() == (
        "CHECK C3 FAIL stage=3 kmax=2 k=1 pos=30 value=1/1 shifted=0/1 bound=1/1"
    )
    assert thm1.check_c2prime(mutated, 2).line() == (
        "CHECK C2PRIME FAIL stage=3 jmax=2 j=1 pos=30 value=1/1 "
        "window_max=1/3 slack=1/2"
    )
    syms[29] = 0
    mutated = thm1.Thm1State(3, s.lengths, Block(syms, base=1))
    assert thm1.check_c3(mutated, 2).line() == (
        "CHECK C3 FAIL stage=3 kmax=2 k=2 pos=13 value=1/1 shifted=1/7 bound=1/2"
    )

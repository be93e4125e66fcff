import io
import math
import random
from fractions import Fraction

import pytest

import dlab
from dlab import blocks, thm1
from dlab.blocks import (
    Block,
    TdseqFormatError,
    common_numerators,
    concat_all,
    read_tdseq,
    scale,
    window,
    write_tdseq,
    zeros,
)

from naive_refs import naive_shift_violations

F = Fraction


def test_concat_basic():
    out = concat_all([Block([1, 0, 0]), Block([1, 0, 0])])
    assert out.symbols == (1, 0, 0, 1, 0, 0)
    assert out.base == 1 and out.length == 6


def test_concat_rebases_second_operand():
    b = Block([F(1, 2), 0, 0], base=40)
    out = concat_all([Block([1, 0, 0], base=1), b])
    assert out.symbols == (1, 0, 0, F(1, 2), 0, 0)
    assert out.nonzero_positions == (1, 4)


def test_public_names_resolve():
    for name in dlab.__all__:
        assert hasattr(dlab, name), name
    # Deleted with the tests that were their only callers.
    assert not {"concat", "sup_distance"} & set(dlab.__all__)


def test_empty_block_rejected():
    with pytest.raises(ValueError):
        Block([])
    with pytest.raises(ValueError):
        zeros(0)


def test_symbol_range_enforced():
    with pytest.raises(ValueError):
        Block([F(3, 2)])
    with pytest.raises(ValueError):
        Block([-1])


def test_scale_by_zero_and_half():
    b = Block([1, 0, 0])
    assert scale(0, b).symbols == (0, 0, 0)
    assert scale(0, b).nonzero_positions == ()
    assert scale(F(1, 2), b).symbols == (F(1, 2), 0, 0)


def test_scale_composes_exactly():
    b = Block([1, 0, 0])
    assert scale(F(2, 3), scale(F(1, 2), b)) == scale(F(1, 3), b)


def test_scale_identity_and_nonzero_support():
    b = Block([1, 0, F(1, 3), 0], base=-1)
    assert scale(1, b) == b
    assert scale(F(1, 7), b).nonzero_positions == b.nonzero_positions


def test_concat_associative():
    a, b, c = Block([1]), Block([F(1, 2), 0]), Block([0, F(1, 3)])
    assert concat_all([concat_all([a, b]), c]) == concat_all([a, concat_all([b, c])])
    assert concat_all([a, b, c]) == concat_all([a, concat_all([b, c])])


def test_window_prefix():
    b = Block([1, 0, 0, 1], base=1)
    w = window(b, 1, 2)
    assert w.base == 1 and w.symbols == (1, 0)


def test_window_keeps_absolute_positions():
    b = Block([0, F(1, 2), 0, 1], base=10)
    w = window(b, 11, 13)
    assert w.base == 11
    assert w.nonzero_positions == (11, 13)
    assert w[11] == F(1, 2)


def test_window_out_of_range_reports_bound():
    b = Block([1, 0, 0], base=1)
    with pytest.raises(IndexError, match="above block last position 3"):
        window(b, 2, 4)
    with pytest.raises(IndexError, match="below block base 1"):
        window(b, 0, 2)
    with pytest.raises(IndexError, match="empty window"):
        window(b, 3, 2)


def test_getitem_out_of_range():
    b = Block([1, 0], base=5)
    assert b[5] == 1
    with pytest.raises(IndexError):
        b[7]
    assert b.at_or_zero(7) == 0


def test_scale_is_lipschitz_for_t_below_one():
    def dist(u, v):
        return max(abs(p - q) for p, q in zip(u.symbols, v.symbols))

    a = Block([1, F(1, 2), 0])
    b = Block([F(1, 3), 1, F(1, 4)])
    for t in (F(1), F(1, 2), F(2, 7)):
        assert dist(scale(t, a), scale(t, b)) <= dist(a, b)


def test_nonzero_iteration_sorted_and_nonzero():
    b = Block([0, F(1, 2), 0, 1, 0], base=-2)
    items = list(b.nonzero_items())
    assert items == [(-1, F(1, 2)), (1, F(1))]
    assert b.count_nonzero_in(-2, 0) == 1
    assert b.nonzero_in(0, 2) == (1,)


def test_zero_runs():
    b = Block([0, 0, 1, 0, 0, 0], base=1)
    assert b.leading_zero_run() == 2
    assert b.trailing_zero_run() == 3
    assert zeros(5).leading_zero_run() == 5


# -- TDSEQ ---------------------------------------------------------------------


def test_tdseq_round_trip():
    b = Block([1, 0, F(1, 2), F(2, 3), 0], base=-2)
    buf = io.StringIO()
    write_tdseq(b, buf)
    assert read_tdseq(io.StringIO(buf.getvalue())) == b


def test_tdseq_exact_bytes():
    buf = io.StringIO()
    write_tdseq(Block([1, 0, F(1, 2)], base=1), buf)
    assert buf.getvalue() == "TDSEQ 1\nbase 1\nlength 3\n1/1\n0/1\n1/2\n"


@pytest.mark.parametrize(
    "text",
    [
        "TDSEQ 2\nbase 1\nlength 1\n1/1\n",   # wrong version
        "TDSEQ 1\nbase 1\nlength 2\n1/1\n",   # symbol count mismatch
        "TDSEQ 1\nbase 1\nlength 1\n2/4\n",   # not lowest terms
        "TDSEQ 1\nbase 1\nlength 1\n3/2\n",   # above 1
        "TDSEQ 1\nbase 1\nlength 1\n1/0\n",   # zero denominator
        "TDSEQ 1\nbase 1\nlength 1\n0.5\n",   # not p/q
        "TDSEQ 1\nbase 1\nlength 1\n1/1",     # missing final newline
        "TDSEQ 1\nbase +1\nlength 1\n1/1\n",  # sign on a nonnegative base
        "TDSEQ 1\nbase 1_0\nlength 1\n1/1\n", # digit separator
        "TDSEQ 1\nbase 1\nlength 1\n01/2\n",  # leading zero in a symbol
        "TDSEQ 1\nbase 1\nlength 1\n 1/1\n",  # leading space in a symbol
        "TDSEQ 1\nbase -0\nlength 1\n1/1\n",  # negative zero base
        "TDSEQ 1\nbase 1\nlength 01\n1/1\n",  # leading zero in the length
        "TDSEQ 1\nbase 1\nlength 1\n1/1 \n",  # trailing space
        "TDSEQ 1\nbase 1\nlength 1\n\u0661/1\n",  # non-ASCII digit
        "TDSEQ 1\nbase 1\nlength 0\n",         # empty block
    ],
)
def test_tdseq_rejects_malformed(text):
    with pytest.raises(TdseqFormatError):
        read_tdseq(io.StringIO(text))


def _random_block(rng):
    q = rng.randint(1, 30)
    syms = [F(rng.randint(0, q), q) if rng.random() < 0.4 else 0
            for _ in range(rng.randint(1, 40))]
    return Block(syms, base=rng.randint(-50, 50))


def test_tdseq_random_round_trips_both_ways():
    rng = random.Random(1010)
    for _ in range(200):
        b = _random_block(rng)
        buf = io.StringIO()
        write_tdseq(b, buf)
        text = buf.getvalue()
        back = read_tdseq(io.StringIO(text))
        assert back == b and back.nonzero_positions == b.nonzero_positions
        again = io.StringIO()
        write_tdseq(back, again)
        assert again.getvalue() == text


def test_tdseq_parses_each_distinct_symbol_once(monkeypatch):
    buf = io.StringIO()
    write_tdseq(thm1.build(4).prefix, buf)
    body = buf.getvalue().splitlines()[3:]
    parsed = []
    real = blocks.parse_symbol
    monkeypatch.setattr(blocks, "parse_symbol", lambda t: parsed.append(t) or real(t))
    read_tdseq(io.StringIO(buf.getvalue()))
    assert sorted(parsed) == sorted(set(body))


def test_common_numerators_are_exact():
    rng = random.Random(7)
    for _ in range(50):
        b = _random_block(rng)
        den, nums = common_numerators(b)
        values = [v for _, v in b.nonzero_items()]
        assert den == math.lcm(*(v.denominator for v in values))
        assert [F(n, den) for n in nums] == values
    assert common_numerators(zeros(3)) == (1, [])


def test_common_denominator_of_stage_8(thm1_stage8):
    den, nums = common_numerators(thm1_stage8.prefix)
    assert den == 40320 and len(set(nums)) == 382


# -- sparse storage against a plain dense tuple ----------------------------------


def _dense_case(rng):
    """(base, dense tuple) with values drawn from a small pool, so the same
    Fraction objects repeat as they do in the built constructions."""
    pool = [F(rng.randint(1, q), q) for q in (rng.randint(1, 12) for _ in range(4))]
    density = rng.choice((0.0, 0.1, 0.5, 1.0))
    syms = tuple(
        rng.choice(pool) if rng.random() < density else F(0)
        for _ in range(rng.randint(1, 25))
    )
    return rng.randint(-30, 30), syms


def _tdseq_text(base, syms):
    body = "".join(f"{v.numerator}/{v.denominator}\n" for v in syms)
    return f"TDSEQ 1\nbase {base}\nlength {len(syms)}\n{body}"


def _check_against_dense(b, base, syms):
    assert b.base == base and len(b) == len(syms) and b.last == base + len(syms) - 1
    assert b.symbols == syms
    assert b.nonzero_positions == tuple(base + i for i, v in enumerate(syms) if v)
    assert list(b.nonzero_items()) == [(base + i, v) for i, v in enumerate(syms) if v]
    for i, v in enumerate(syms, base):
        assert b[i] == v and b.at_or_zero(i) == v
    for i in (base - 2, base - 1, b.last + 1, b.last + 2):
        assert b.at_or_zero(i) == 0
        with pytest.raises(IndexError):
            b[i]


def test_sparse_block_matches_dense_tuple():
    rng = random.Random(2024)
    for _ in range(300):
        base, syms = _dense_case(rng)
        b = Block(syms, base=base)
        _check_against_dense(b, base, syms)

        parts = [_dense_case(rng) for _ in range(rng.randint(1, 4))]
        out_base = rng.randint(-30, 30)
        joined = concat_all([Block(s, base=pb) for pb, s in parts], base=out_base)
        _check_against_dense(joined, out_base, sum((s for _, s in parts), ()))

        t = rng.choice((F(0), F(1), F(1, 3), F(5, 7)))
        _check_against_dense(scale(t, b), base, tuple(t * v for v in syms))

        i = rng.randint(base, b.last)
        j = rng.randint(i, b.last)
        _check_against_dense(window(b, i, j), i, syms[i - base : j - base + 1])

        # Equal content reached another way compares and hashes equal.
        again = b
        if i < b.last:
            again = concat_all([window(b, base, i), window(b, i + 1, b.last)])
        assert again == b and hash(again) == hash(b)
        other_base, other = _dense_case(rng)
        same = (other_base, other) == (base, syms)
        assert (Block(other, base=other_base) == b) == same
        if any(syms):
            k = next(k for k, v in enumerate(syms) if v)
            changed = syms[:k] + (syms[k] / 2,) + syms[k + 1 :]
            assert Block(changed, base=base) != b

        nonzero = [v for v in syms if v]
        den = math.lcm(*(v.denominator for v in nonzero))
        nums = [v.numerator * den // v.denominator for v in nonzero]
        assert common_numerators(b) == (den, nums)
        assert common_numerators(b) is common_numerators(b)

        buf = io.StringIO()
        write_tdseq(b, buf)
        assert buf.getvalue() == _tdseq_text(base, syms)
        _check_against_dense(read_tdseq(io.StringIO(buf.getvalue())), base, syms)


def test_shift_violations_match_dense_scan():
    rng = random.Random(99)
    split = 0  # cases where the two modes disagree: a difference equals the bound
    for _ in range(300):
        base, syms = _dense_case(rng)
        shift = rng.randint(1, len(syms) + 2)
        bound = rng.choice((F(0), F(1, 4), F(1, 2), F(1), F(1, 3), F(2, 7)))
        if bound and shift < len(syms):
            # Plant differences exactly at the bound.
            syms = list(syms)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(syms) - shift)
                if syms[i] + bound <= 1:
                    syms[i + shift] = syms[i] + bound
                elif syms[i] >= bound:
                    syms[i + shift] = syms[i] - bound
        b = Block(syms, base=base)
        modes = (False, True) if bound else (False,)
        found = {}
        for at_bound in modes:
            hits = list(blocks.shift_violations(b, shift, bound, at_bound=at_bound))
            found[at_bound] = [i for i, _, _ in hits]
            assert found[at_bound] == naive_shift_violations(b, shift, bound, at_bound)
            for i, here, there in hits:
                assert here is b.at_or_zero(i) and there is b.at_or_zero(i + shift)
        split += len(found) == 2 and found[False] != found[True]
    assert split >= 100


def test_shift_violations_refuse_bounds_that_zeros_break():
    # Positions where both sides are 0 are never visited, so a bound they
    # would break must be refused, not silently under-reported.
    b = Block([1, 0, F(1, 2)])
    for bound, at_bound in ((F(0), True), (F(-1, 3), True), (F(-1, 3), False)):
        with pytest.raises(ValueError):
            list(blocks.shift_violations(b, 1, bound, at_bound=at_bound))
    assert [i for i, _, _ in blocks.shift_violations(b, 1, F(0))] == [0, 1, 2, 3]

import copy
import io
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

import dlab
from dlab import blocks, thm1, thm2
from dlab.blocks import (
    Block,
    ResourceCapError,
    TdseqFormatError,
    check_cap,
    common_numerators,
    concat_all,
    read_tdseq,
    scale,
    window,
    write_tdseq,
    zeros,
)

from naive_refs import (
    dense,
    naive_common_numerators,
    naive_read_tdseq,
    naive_scale,
    naive_shift_violations,
    naive_tdseq_text,
)

F = Fraction


def test_check_cap_forms_the_count_only_up_to_the_caps_bit_length():
    # The bit length of max(7, 2**64) is 65: stage 66 forms its count, and
    # stage 67 is refused from its number alone.
    formed = []

    def count(stage):
        formed.append(stage)
        return 2**80

    with pytest.raises(
        ResourceCapError, match=rf"^stage 66 has {2**80} positions, cap is 7$"
    ):
        check_cap(66, 7, count, "has {} positions")
    with pytest.raises(
        ResourceCapError, match=r"^stage 67 has more than 2\*\*66 positions, cap is 7$"
    ):
        check_cap(67, 7, count, "has {} positions")
    check_cap(67, 2**80, count, "has {} positions")
    check_cap(10**6, None, count, "has {} positions")
    assert formed == [66, 67]


def test_concat_basic():
    out = concat_all([Block([1, 0, 0]), Block([1, 0, 0])])
    assert dense(out) == (1, 0, 0, 1, 0, 0)
    assert out.base == 1 and out.length == 6


def test_concat_rebases_second_operand():
    b = Block([F(1, 2), 0, 0], base=40)
    out = concat_all([Block([1, 0, 0], base=1), b])
    assert dense(out) == (1, 0, 0, F(1, 2), 0, 0)
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


def test_block_copy_and_pickle_rebuild_an_equal_block():
    made = [
        Block([0, Fraction(1, 2), 1, 0], base=-2),
        Block([0, 0, 0], base=5),
        zeros(4),
        scale(Fraction(1, 3), Block([1, 0, Fraction(2, 3)])),
        thm1.build(3).prefix,
    ]
    for block in made:
        for twin in (copy.copy(block), copy.deepcopy(block),
                     pickle.loads(pickle.dumps(block))):
            assert type(twin) is Block and twin == block and hash(twin) == hash(block)
            assert twin.nonzero_positions == block.nonzero_positions
            # Values come back as the canonical symbol objects.
            for got, want in zip(twin._values, block._values):
                assert got is blocks.as_symbol(want)


class _Payload:
    """Pickles as a block rebuilt from the given arguments."""

    def __init__(self, *args):
        self.args = args

    def __reduce__(self):
        return Block([1]).__reduce__()[0], self.args


TAMPERED = {
    "positions out of order": (0, 4, (2, 1), (F(1), F(1, 2))),
    "repeated position": (0, 4, (1, 1), (F(1), F(1, 2))),
    "position below the range": (0, 4, (-1, 1), (F(1), F(1, 2))),
    "position above the range": (0, 4, (1, 4), (F(1), F(1, 2))),
    "non-int position": (0, 4, (1, 2.0), (F(1), F(1, 2))),
    "bool position": (0, 4, (True,), (F(1),)),
    "zero value": (0, 4, (1, 2), (F(1), F(0))),
    "value above 1": (0, 4, (1, 2), (F(1), F(3, 2))),
    "negative value": (0, 4, (1,), (F(-1, 2),)),
    "string value": (0, 4, (1,), ("1/2",)),
    "fewer values": (0, 4, (1, 2), (F(1),)),
    "empty block": (0, 0, (), ()),
    "non-int length": (0, 4.0, (), ()),
}


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_tampered_block_payload_is_refused(name):
    data = pickle.dumps(_Payload(*TAMPERED[name]))
    with pytest.raises(ValueError):
        pickle.loads(data)


def test_symbol_range_enforced():
    with pytest.raises(ValueError):
        Block([F(3, 2)])
    with pytest.raises(ValueError):
        Block([-1])


def test_scale_by_zero_and_half():
    b = Block([1, 0, 0])
    assert dense(scale(0, b)) == (0, 0, 0)
    assert scale(0, b).nonzero_positions == ()
    assert dense(scale(F(1, 2), b)) == (F(1, 2), 0, 0)


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
    assert w.base == 1 and dense(w) == (1, 0)


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
        return max(abs(p - q) for p, q in zip(dense(u), dense(v)))

    a = Block([1, F(1, 2), 0])
    b = Block([F(1, 3), 1, F(1, 4)])
    for t in (F(1), F(1, 2), F(2, 7)):
        assert dist(scale(t, a), scale(t, b)) <= dist(a, b)


def test_nonzero_iteration_sorted_and_nonzero():
    b = Block([0, F(1, 2), 0, 1, 0], base=-2)
    items = list(b.nonzero_items())
    assert items == [(-1, F(1, 2)), (1, F(1))]
    assert b.nonzero_in(-2, 0) == (-1,)
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
        "TDSEQ 1\nbase 1\nlength 1\n1/10/1\n",  # a 0/1 that does not start a line
        "TDSEQ 1\nbase 1\nlength 1\n00/1\n",   # leading zero in a zero symbol
        "TDSEQ 1\nbase 1\nlength 1\n0/10/1\n", # a zero line run into the next
        "TDSEQ 1\nbase 1\nlength 1\n10/1\n",   # above 1, ending in 0/1
        "TDSEQ 1\nbase 1\nlength 1\n\x00\n",    # NUL line
        "TDSEQ 1\nbase 1\nlength 2\n\x001/1\n", # NUL before a symbol
        "TDSEQ 1\nbase 1\nlength 2\n1/1\n\n",  # empty line
        "TDSEQ 1\nbase 1\nlength 1\n1/1\r\n",  # carriage return
        "TDSEQ 1\nbase 1\nlength 1\n0/1\r\n",  # carriage return after a zero
        "TDSEQ 1\nbase 1\nlength 1\n0/1",     # unterminated zero line
        "TDSEQ 1\nbase 1\nlength 2\n1/1\n0/1", # unterminated last zero line
        "TDSEQ 1\nbase 1\nlength 1\n/1\n",     # deleted numerator
        "TDSEQ 1\nbase 1\nlength 1\n0/\n",     # deleted denominator
        "TDSEQ 1\nbase 1\nlength 2\n0/11/1\n", # deleted newline
        # Numbers with more digits than int() converts (4,300 by default).
        pytest.param(f"TDSEQ 1\nbase {'9' * 5000}\nlength 1\n1/1\n", id="long-base"),
        pytest.param(f"TDSEQ 1\nbase 1\nlength {'9' * 5000}\n1/1\n", id="long-length"),
        pytest.param(f"TDSEQ 1\nbase 1\nlength 1\n1/{'9' * 5000}\n", id="long-denominator"),
        pytest.param(f"TDSEQ 1\nbase 1\nlength 1\n{'1' * 5000}/{'3' * 5000}\n",
                     id="long-numerator"),
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
    # Zero lines are counted, never parsed.
    assert sorted(parsed) == sorted(set(body) - {"0/1"})


class _ShortReads(io.StringIO):
    """A stream whose ``read(n)`` returns at most ``limit`` characters."""

    def __init__(self, text, limit):
        super().__init__(text)
        self.limit = limit

    def read(self, n=-1):
        return super().read(min(n, self.limit))


# Lines planted into a body: all but the last two break the grammar.
_PLANTED_LINES = ("1/10/1", "00/1", "0/10/1", "10/1", "\x00", "", "\r", "0/1", "1/2")


def _malformed_tdseq(rng):
    """A written block's text, mostly with one planted change in its body.

    One block in five holds a zero run longer than the reader's piece bound.
    """
    length = rng.randint(1, 60)
    density = rng.choice((0.05, 0.3, 0.8))
    syms = [F(rng.randint(1, 4), 4) if rng.random() < density else 0
            for _ in range(length)]
    if rng.random() < 0.2:
        at = rng.randint(0, length)
        syms[at:at] = [0] * (blocks._PIECE_BOUND + rng.randint(1, 40))
    buf = io.StringIO()
    write_tdseq(Block(syms, base=rng.randint(-9, 9)), buf)
    *header, body = buf.getvalue().split("\n", 3)
    lines = body.split("\n")[:-1]
    at = rng.randrange(len(lines))
    kind = rng.randrange(6)  # 5: unchanged
    if kind == 0:
        lines[at] = rng.choice(_PLANTED_LINES)
    elif kind == 1:
        lines.insert(at, rng.choice(_PLANTED_LINES))
        header[2] = f"length {len(lines)}"
    body = "".join(line + "\n" for line in lines)
    if kind == 2:
        body = body[:-1]  # unterminated last line
    elif kind == 3:
        for _ in range(rng.randint(1, 2)):
            cut = rng.randrange(len(body))
            body = body[:cut] + body[cut + 1:]
    elif kind == 4:
        cut = rng.randrange(len(body) + 1)
        body = body[:cut] + rng.choice(("\r", "\x00", "0")) + body[cut:]
    return "\n".join(header) + "\n" + body


def test_tdseq_reader_matches_line_by_line_reference_on_planted_malformations():
    rng = random.Random(1818)
    refused = long_runs = 0
    for _ in range(3000):
        text = _malformed_tdseq(rng)
        expected = naive_read_tdseq(text)
        refused += expected is None
        long_runs += "0/1\n" * (blocks._PIECE_BOUND + 1) in text
        # Short reads cut chunks inside lines and inside zero runs; reads of
        # 300 characters also cut pieces longer than the piece bound, which
        # the reader computes without keeping.
        streams = [io.StringIO(text)] + [_ShortReads(text, n) for n in (1, 3, 7, 300)]
        for stream in streams:
            try:
                got = read_tdseq(stream)
            except TdseqFormatError as err:
                assert expected is None, (text, err)
                assert "\\x00" not in str(err), (text, err)  # quotes input, not the marker
            else:
                assert got == expected, text
    assert 500 < refused < 2500  # both outcomes well exercised
    assert long_runs > 400


def test_tdseq_error_quotes_the_input_line():
    for body in ("1/10/1\n1/2\n", "1/2\n1/10/1\n"):
        with pytest.raises(TdseqFormatError, match="'1/10/1'"):
            read_tdseq(io.StringIO(f"TDSEQ 1\nbase 1\nlength 2\n{body}"))


def test_tdseq_read_memory_stays_bounded():
    block = concat_all([zeros(400_000), Block([F(1, 2)]), zeros(599_997),
                        Block([1, F(1, 3)])])
    buf = io.StringIO()
    write_tdseq(block, buf)
    stream = io.StringIO(buf.getvalue())
    tracemalloc.start()
    try:
        got = read_tdseq(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == block and got.nonzero_positions == (400_001, 999_999, 1_000_000)
    assert peak < 2_000_000, peak  # the body is read in bounded chunks


def test_tdseq_read_keeps_no_piece_past_the_bound():
    # About 2,000 distinct zero runs, each longer than the piece bound: kept
    # as keys of the piece table they would hold some 4 MB.
    gaps = range(blocks._PIECE_BOUND + 1, blocks._PIECE_BOUND + 4001, 2)
    values = [F(1, 2), F(1, 3), 1]
    block = concat_all([concat_all([zeros(g - 1), Block([values[g % 3]])]) for g in gaps])
    buf = io.StringIO()
    write_tdseq(block, buf)
    stream = io.StringIO(buf.getvalue())
    tracemalloc.start()
    try:
        got = read_tdseq(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == block and len(got.nonzero_positions) == len(gaps)
    assert peak < 2_000_000, peak


def _random_layout(rng):
    """A copy layout whose copy 0 may lead or end with zeros or be all zeros."""
    base, syms = _dense_case(rng)
    lead, trail = rng.choice((0, 0, 1, 5)), rng.choice((0, 0, 2, 7))
    syms = (F(0),) * lead + syms + (F(0),) * trail
    pool = [F(0), F(1), F(1, 2), F(2, 3), F(1, 7)]
    ratios = []
    while len(ratios) < rng.randint(1, 8):
        ratios += [rng.choice(pool)] * rng.choice((1, 1, 2, 3))  # runs of one ratio
    return blocks.CopyLayout(Block(syms, base=base), ratios)


def test_layout_export_matches_its_materialization_byte_for_byte():
    rng = random.Random(2626)
    seen = dict.fromkeys(("zero ratio", "repeat", "lead", "trail", "all zero",
                          "negative base"), 0)
    for _ in range(400):
        row = _random_layout(rng)
        copy0, ratios = row.copy0, row.ratios
        flat = concat_all([scale(c, copy0) for c in ratios])
        buf, flat_buf = io.StringIO(), io.StringIO()
        write_tdseq(row, buf)
        write_tdseq(flat, flat_buf)
        text = buf.getvalue()
        assert text == flat_buf.getvalue()
        assert text == naive_tdseq_text(row.base, dense(flat))
        assert read_tdseq(io.StringIO(text)) == flat
        seen["zero ratio"] += 0 in ratios
        seen["repeat"] += any(map(F.__eq__, ratios, ratios[1:]))
        seen["lead"] += copy0.leading_zero_run() > 0
        seen["trail"] += copy0.trailing_zero_run() > 0
        seen["all zero"] += not copy0.nonzero_positions
        seen["negative base"] += row.base < 0
    assert min(seen.values()) >= 20, seen


class _Discard:
    """A text sink that keeps nothing but the characters' count."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


def test_layout_export_holds_one_copy_text_at_a_time():
    rng = random.Random(2727)
    copy0 = Block([rng.choice((F(1, 2), F(1, 3), 1)) if rng.random() < 0.05 else 0
                   for _ in range(50_000)])
    row = blocks.CopyLayout(copy0, [F(1, r) for r in range(1, 41)])
    peaks, chars = [], []
    for written in (copy0, row):
        sink = _Discard()
        tracemalloc.start()
        try:
            write_tdseq(written, sink)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        chars.append(sink.chars)
    assert chars[1] > 39 * chars[0]  # the whole row was written
    # Forty copies peak near one: a second copy's text held at once would
    # add about chars[0].
    assert peaks[1] < peaks[0] + chars[0] // 2, (peaks, chars)


def test_every_producer_caches_the_table_a_fresh_derivation_gives():
    rng = random.Random(2121)
    for _ in range(200):
        base, syms = _dense_case(rng)
        b = _distinct_objects(rng, base, syms)
        other_base, other = _dense_case(rng)
        i = rng.randint(b.base, b.last)
        j = rng.randint(i, b.last)
        blocks._distinct_values(b)  # a window must not inherit this table
        buf = io.StringIO()
        write_tdseq(b, buf)
        made = [
            b,
            Block(syms, base=base),
            zeros(len(syms)),
            scale(F(0), b),
            scale(rng.choice((F(1, 3), F(5, 7), F(1, 2))), b),
            concat_all([b, _distinct_objects(rng, other_base, other), scale(F(1, 2), b)]),
            window(b, i, j),
            read_tdseq(io.StringIO(buf.getvalue())),
        ]
        for blk in made:
            table = blocks._distinct_values(blk)
            assert table == blocks._by_object([v for _, v in blk.nonzero_items()])
            assert all(id(v) == k for k, v in table.items())
            assert common_numerators(blk) == naive_common_numerators(dense(blk))


def test_thm1_path_never_walks_the_nonzeros_for_distinct_values(monkeypatch):
    # The table comes from the producers; only stage 1's Block([1, 0, 0])
    # derives one from its values.
    sizes = []
    real = blocks._by_object

    def recording(values):
        values = tuple(values)
        sizes.append(len(values))
        return real(values)

    monkeypatch.setattr(blocks, "_by_object", recording)
    prefix = thm1.build(7).prefix
    common_numerators(prefix)
    write_tdseq(prefix, io.StringIO())
    distinct = len({v for _, v in prefix.nonzero_items()})
    assert sizes and max(sizes) <= distinct < len(prefix.nonzero_positions) // 10


def test_load_tdseq_refuses_non_ascii_bytes(tmp_path):
    path = tmp_path / "e.tdseq"
    path.write_bytes("TDSEQ 1\nbase 1\nlength 1\n\u00e9/1\n".encode("utf-8"))
    with pytest.raises(TdseqFormatError, match="non-ASCII byte 0xc3") as info:
        blocks.load_tdseq(path)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


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


def _check_against_dense(b, base, syms):
    assert b.base == base and len(b) == len(syms) and b.last == base + len(syms) - 1
    assert dense(b) == syms
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
        _check_against_dense(scale(t, b), base, naive_scale(t, syms))

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

        assert common_numerators(b) == naive_common_numerators(syms)
        assert common_numerators(b) is common_numerators(b)

        buf = io.StringIO()
        write_tdseq(b, buf)
        assert buf.getvalue() == naive_tdseq_text(base, syms)
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
            # Bounded by lo..hi, the walk gives the hits in that range.
            lo = rng.randint(base - shift - 2, b.last + 2)
            hi = rng.randint(lo - 1, b.last + 2)
            bounded = blocks.shift_violations(b, shift, bound, at_bound, lo=lo, hi=hi)
            assert list(bounded) == [h for h in hits if lo <= h[0] <= hi]
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


# -- one canonical object per symbol value ---------------------------------------


def _assert_canonical(*blocks_):
    """Across the blocks, each value is held by one object: its canonical one."""
    objects = {id(v): v for b in blocks_ for _, v in b.nonzero_items()}
    assert len(objects) == len(set(objects.values()))
    for v in objects.values():
        # A fresh object of the same value must coerce to the one held.
        assert blocks.as_symbol(F(v.numerator, v.denominator)) is v


def test_built_and_read_blocks_hold_one_object_per_value(thm2_stage4, thm2_transitive4):
    prefix = thm1.build(6).prefix
    _assert_canonical(prefix)
    _assert_canonical(thm2_stage4.x, thm2_stage4.y)
    _assert_canonical(thm2_transitive4.x, thm2_transitive4.y)
    buf = io.StringIO()
    write_tdseq(prefix, buf)
    _assert_canonical(read_tdseq(io.StringIO(buf.getvalue())), prefix)


def _distinct_objects(rng, base, syms):
    """The block of ``syms``, each nonzero held by a fresh object or the canonical one."""
    nonzero = [(base + i, v) for i, v in enumerate(syms) if v]
    values = tuple(
        F(v.numerator, v.denominator) if rng.random() < 0.7 else blocks.as_symbol(v)
        for _, v in nonzero
    )
    return Block._trusted(base, len(syms), tuple(p for p, _ in nonzero), values)


def test_per_value_work_does_not_rely_on_canonical_objects():
    rng = random.Random(4242)
    repeated = 0  # blocks where one value sits in two distinct objects
    for _ in range(300):
        base, syms = _dense_case(rng)
        b = _distinct_objects(rng, base, syms)
        values = [v for _, v in b.nonzero_items()]
        repeated += len({id(v) for v in values}) > len(set(values))

        t = rng.choice((F(0), F(1), F(1, 3), F(5, 7)))
        scaled = scale(t, b)
        assert dense(scaled) == naive_scale(t, syms)
        if t != 1:  # scale by 1 returns the block itself
            _assert_canonical(scaled)
        assert common_numerators(b) == naive_common_numerators(syms)
        buf = io.StringIO()
        write_tdseq(b, buf)
        assert buf.getvalue() == naive_tdseq_text(base, syms)

        for twin in (Block(syms, base=base), _distinct_objects(rng, base, syms)):
            assert twin == b and hash(twin) == hash(b)
        other_base, other = _dense_case(rng)
        same = (other_base, other) == (base, syms)
        assert (_distinct_objects(rng, other_base, other) == b) == same
        if values:
            k = rng.randrange(len(values))
            changed = values[:k] + [values[k] / 2] + values[k + 1 :]
            assert Block._trusted(base, len(b), b.nonzero_positions, tuple(changed)) != b
    assert repeated >= 100

"""Small-scope tests: the layout arguments checked on every input up to a
small size, not on seeded samples.

Each test enumerates every block, or every copy row, over the symbols
{0, 1/2, 1} up to a few positions, and compares the sparse code with a
dense reading of the same data.  Boundary bugs in such code tend to show
on the smallest inputs (Jackson, *Software Abstractions*, 2006).
"""

import copy
import io
import pickle
from fractions import Fraction
from itertools import product

import pytest

from dlab.blocks import (
    Block,
    CopyLayout,
    concat_all,
    read_tdseq,
    scale,
    shift_violations,
    window,
    write_tdseq,
    zeros,
)

from naive_refs import dense, naive_numbering, naive_shift_violations

F = Fraction
SYMBOLS = (F(0), F(1, 2), F(1))
SHIFTS = range(-6, 7)
BOUNDS = [(bound, at_bound) for bound in (F(1, 3), F(1, 2), F(1)) for at_bound in (False, True)]


def every_block(lengths):
    """Every block of each length over ``SYMBOLS``, based at 0."""
    for length in lengths:
        for syms in product(SYMBOLS, repeat=length):
            yield Block(syms, base=0)


def every_row():
    """(layout, built row) for every copy 0 of length 2 or 3 over ``SYMBOLS``
    with c_0 = 1 and up to two more ratios from ``SYMBOLS``, or c_0 = 0 or
    1/2 and up to one more."""
    one = [()] + [(c,) for c in SYMBOLS]
    more = {F(1): one + list(product(SYMBOLS, repeat=2)), F(0): one, F(1, 2): one}
    for copy0 in every_block((2, 3)):
        for c0, extras in more.items():
            for extra in extras:
                ratios = (c0, *extra)
                yield CopyLayout(copy0, ratios), concat_all([scale(c, copy0) for c in ratios])


def copies_of(row, lo, hi):
    """The copy indices that the positions lo..hi of ``row`` fall in."""
    return sorted({(p - row.base) // row.pitch for p in range(lo, hi + 1)})


@pytest.mark.parametrize("length", range(1, 7))
def test_shift_violations_on_every_small_block(length):
    for block in every_block((length,)):
        for shift, (bound, at_bound) in product(SHIFTS, BOUNDS):
            hits = list(shift_violations(block, shift, bound, at_bound))
            assert [i for i, _, _ in hits] == naive_shift_violations(
                block, shift, bound, at_bound
            ), (block, shift, bound, at_bound)
            for i, here, there in hits:
                assert (here, there) == (block.at_or_zero(i), block.at_or_zero(i + shift))


def test_shift_violations_on_every_window_of_the_blocks_up_to_4():
    # Every lo..hi over the positions the walk can read, one past each end,
    # empty ranges included.
    for block in every_block(range(1, 5)):
        for shift, (bound, at_bound) in product(SHIFTS, BOUNDS):
            hits = list(shift_violations(block, shift, bound, at_bound))
            first, last = block.base - max(0, shift) - 1, block.last - min(0, shift) + 1
            for lo in range(first, last + 1):
                for hi in range(lo - 1, last + 1):
                    assert list(shift_violations(block, shift, bound, at_bound, lo=lo, hi=hi)) == [
                        h for h in hits if lo <= h[0] <= hi
                    ], (block, shift, bound, at_bound, lo, hi)


def test_layout_pieces_and_nonzeros_on_every_small_row():
    for row, built in every_row():
        assert (row.base, row.last, len(row)) == (built.base, built.last, len(built))
        assert row.trailing_zero_run() == built.trailing_zero_run()
        for lo in range(row.base - row.pitch, row.last + row.pitch + 1):
            for hi in range(lo - 1, row.last + row.pitch + 1):
                a, b = max(lo, row.base), min(hi, row.last)
                assert row.pieces(lo, hi) == [
                    (t, max(a, row.base + t * row.pitch),
                     min(b, row.base + (t + 1) * row.pitch - 1))
                    for t in copies_of(row, a, b)
                ], (row, lo, hi)
                assert row.nonzero_in(lo, hi) == [
                    p for p in range(a, b + 1) if built[p]
                ], (row, lo, hi)


def test_layout_covers_on_every_small_row():
    for row, built in every_row():
        for i in range(row.base - 1, row.last + 2):
            for j in range(i, row.last + 2):
                if i < row.base or j > row.last or len(copies_of(row, i, j)) > 2:
                    with pytest.raises(ValueError, match="two adjacent copies"):
                        row.cover(i, j)
                    continue
                part = row.cover(i, j)
                assert part.base <= i and j <= part.last, (row, i, j)
                assert [part[q] for q in range(i, j + 1)] == [
                    built[q] for q in range(i, j + 1)
                ], (row, i, j)
        for a in range(row.base, row.last + 1):
            for b in range(a, row.last + 1):
                for shift in range(1, row.last - b + 1):
                    try:
                        part = row.pair_cover(a, b, shift)
                    except ValueError as err:
                        # Refused only when a read it needs meets three copies.
                        assert "two adjacent copies" in str(err)
                        assert max(
                            len(copies_of(row, a, b)),
                            len(copies_of(row, a + shift, b + shift)),
                            len(copies_of(row, a, b + shift)) if a + shift <= b + 1 else 0,
                        ) > 2, (row, a, b, shift)
                        continue
                    assert part.base <= a and b + shift <= part.last, (row, a, b, shift)
                    for q in range(a, b + 1):
                        assert (part[q], part[q + shift]) == (built[q], built[q + shift])


def _made_by_every_producer():
    """(block, the symbols it reads as) from each producer on every small input."""
    for length in range(1, 5):
        for syms in product(SYMBOLS, repeat=length):
            b = Block(syms, base=0)
            buf = io.StringIO()
            write_tdseq(b, buf)
            yield from (
                (b, syms), (copy.copy(b), syms), (pickle.loads(pickle.dumps(b)), syms),
                (read_tdseq(io.StringIO(buf.getvalue())), syms), (zeros(length), (F(0),) * length),
            )
            yield from ((scale(t, b), tuple(t * v for v in syms)) for t in SYMBOLS)
            for i in range(length):
                yield from ((window(b, i, j), syms[i : j + 1]) for j in range(i, length))
    short = [syms for length in (1, 2, 3) for syms in product(SYMBOLS, repeat=length)]
    for first, second in product(short, repeat=2):
        yield concat_all([Block(first, base=0), Block(second, base=5)]), first + second
    for row, built in every_row():
        read = lambda part: tuple(built[q] for q in range(part.base, part.last + 1))
        for i in range(row.base, row.last + 1):
            two = row.base + ((i - row.base) // row.pitch + 2) * row.pitch - 1
            for j in range(i, min(row.last, two) + 1):
                part = row.cover(i, j)
                yield part, read(part)
                # A pair cover is a cover unless its two reads are apart and
                # lie in no one cover: then it joins them with zeros.
                for shift in range(max(j - i + 2, part.last - j + 1), row.last - j + 1):
                    try:
                        gapped = row.pair_cover(i, j, shift)
                    except ValueError:  # the second read meets three copies
                        continue
                    yield gapped, dense(gapped)


def test_every_producer_numbers_its_values_canonically():
    # Each block holds its distinct values once, each used, numbered by first
    # appearance; so == and hash agree with equality of the dense symbols.
    wanted, groups = {}, {}
    for block, syms in _made_by_every_producer():
        assert dense(block) == syms, (block, syms)
        if syms not in wanted:
            wanted[syms] = (*naive_numbering(syms), "I")
        numbering = (block._table, list(block._ids), block._ids.typecode)
        assert numbering == wanted[syms], (block, numbering)
        groups.setdefault((block.base, syms), set()).add(block)
    # Blocks of one dense reading collapse to one set member, and blocks of
    # different readings stay apart.
    assert all(len(group) == 1 for group in groups.values())
    assert len(set().union(*groups.values())) == len(groups)

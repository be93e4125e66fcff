"""Exact-arithmetic block algebra: symbols in [0,1], indexed blocks, TDSEQ files.

A block is a finite run of exact rational symbols occupying the integer
positions ``base .. base + length - 1``.  Blocks are immutable; every
operation returns a new block.  A block stores only its nonzero symbols: the
strictly increasing int64 array of their absolute positions (8 bytes each, no
int object per position), the table of their distinct values, and one
``array('I')`` id per nonzero that indexes that table.  Every other position
holds 0 implicitly, so building, scaling, windowing and scanning a block
cost O(#nonzero) whatever its length, and a position read is a bisect.  So
a block's range base .. base + length - 1 lies in [-2**63, 2**63); a block
that would leave it is refused with a ``ValueError`` before any position is
stored.

The constructions repeat a few hundred values over up to millions of
nonzeros, so per-value work (products, numerators, TDSEQ text) runs once per
table entry.  The table holds each value once, every entry is used, and
entries are numbered in order of first appearance: a canonical form, so
equal blocks have equal tables and ids.  Every producer keeps it: ``scale``
maps the table and shares the ids, ``concat_all`` merges its inputs' tables
by value, ``window`` renumbers its slice, and ``Block(...)``, ``read_tdseq``
and ``_checked_block`` (which copy and pickle rebuild through) number the
values as they read them.

A ``CopyLayout`` stands for a block that is a row of scaled copies of one
block, without building it: thm1's top stage is read and written so.
"""

from __future__ import annotations

import io
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from operator import gt, index, itemgetter, sub

from .report import Record, format_symbol

ZERO = Fraction(0)
# Default `check_cap` cap on the nonzeros a build stores and the positions a
# TDSEQ 1 export writes: it admits thm1 stage 10 to build, stage 9 to export.
DEFAULT_MAX_NONZEROS = 10**8
# Default cap on the nonzeros each thm2 block stores
# (`thm2.predicted_nonzeros`).  Stage 7 stores 135,135 and runs at the
# default.  Stage 8 would store 2,027,025, and its CLI verify at `--kmax 7`
# takes 12.4-12.6 s and 269 MB peak RSS (Python 3.11.7, 2-vCPU Xeon); stage 9
# would store 34,459,425.  Both are refused before any build.
DEFAULT_MAX_NONZEROS_PER_BLOCK = 10**6


def _check_range(base: int, length: int, error=ValueError) -> None:
    """Raise ``error`` unless base .. base + length - 1 lies in [-2**63, 2**63)."""
    if not (-(2**63) <= base and base + length - 1 < 2**63):
        raise error(
            f"block range {base}..{base + length - 1} leaves the int64 positions "
            f"[-2**63, 2**63)"
        )


def _numbered(values) -> tuple:
    """``(table, ids)``: the distinct ``values`` in order of first appearance,
    and the index in that table of each value."""
    number = {}
    ids = array("I", [number.setdefault(v, len(number)) for v in values])
    return tuple(number), ids


class TdseqFormatError(ValueError):
    """Raised when a TDSEQ stream violates the format."""


class ResourceCapError(RuntimeError):
    """A build would exceed its cap; raised before allocating."""


def check_cap(stage: int, cap: "int | None", count, noun: str) -> None:
    """Raise ResourceCapError if ``count(stage)`` exceeds ``cap`` (None: no cap).

    ``noun`` places the count in the message, as in ``"stores {} nonzeros"``
    or ``"has {} positions"``.  Every capped count exceeds 2**(stage-1), so
    a stage with stage-1 past the bit length of max(cap, 2**64) is refused
    without forming the count: for a stage in the millions that takes
    minutes and gives too many digits to print.
    """
    if cap is None:
        return
    if stage - 1 > max(cap, 2**64).bit_length():
        need = f"more than 2**{stage - 1}"
    else:
        need = count(stage)
        if need <= cap:
            return
    raise ResourceCapError(f"stage {stage} {noun.format(need)}, cap is {cap}")


def check_admissible(name: str, value: int, stage: int) -> None:
    """Raise ValueError unless 1 <= value <= stage - 1, a scale the stage verifies."""
    if not 1 <= value <= stage - 1:
        raise ValueError(f"{name}={value} out of admissible range 1..{stage - 1}")


class InvariantError(RuntimeError):
    """A construction step broke one of its own invariants: a program fault."""


def as_symbol(value) -> Fraction:
    """Coerce to an exact rational symbol, enforcing 0 <= value <= 1."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f < 0 or f > 1:
        raise ValueError(f"symbol {f} outside [0, 1]")
    return f


class Block:
    """Immutable finite block of rational symbols with an integer base index.

    ``_nonzero`` is the strictly increasing int64 array of the nonzero
    positions, ``_table`` the tuple of their distinct symbols and ``_ids``
    the index in it of each one's symbol (module docstring).
    """

    __slots__ = ("base", "length", "_nonzero", "_table", "_ids", "_numerators")

    def __init__(self, symbols: Iterable, base: int = 1):
        base = index(base)
        nonzero, values = [], []
        length = 0
        for length, v in enumerate(symbols, 1):
            v = as_symbol(v)
            if v:
                nonzero.append(base + length - 1)
                values.append(v)
        if not length:
            raise ValueError("a block holds at least one symbol")
        self._assign(base, length, array("q"), *_numbered(values))
        self._nonzero.extend(nonzero)  # once _assign has admitted the range

    @classmethod
    def _trusted(cls, base: int, length: int, nonzero: array, table: tuple, ids: array):
        # Fast path for internal constructors that already guarantee the
        # invariant: nonzero an int64 array strictly increasing inside
        # base..base+length-1, and (table, ids) the canonical numbering of
        # the nonzero Fractions at those positions.  A producer that could
        # overflow int64 passes an empty array and fills it after this returns.
        blk = object.__new__(cls)
        blk._assign(base, length, nonzero, table, ids)
        return blk

    def _assign(self, base: int, length: int, nonzero: array, table: tuple, ids: array) -> None:
        _check_range(base, length)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_nonzero", nonzero)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_numerators", None)  # common_numerators cache

    def __setattr__(self, name, value):
        raise AttributeError("blocks are immutable")

    def __reduce__(self):  # copy and pickle rebuild through the checks
        values = tuple(map(self._table.__getitem__, self._ids))
        return _checked_block, (self.base, self.length, self._nonzero, values)

    # -- geometry ----------------------------------------------------------

    @property
    def last(self) -> int:
        """Largest covered position."""
        return self.base + self.length - 1

    def __len__(self) -> int:
        return self.length

    # -- access ------------------------------------------------------------

    def __getitem__(self, i: int) -> Fraction:
        """Symbol at absolute position ``i``; out-of-range access is an error."""
        if not self.base <= i <= self.last:
            raise IndexError(
                f"position {i} outside block range [{self.base}, {self.last}]"
            )
        return self.at_or_zero(i)

    def at_or_zero(self, i: int) -> Fraction:
        """Symbol at ``i``, reading positions outside the block as 0.

        Only for verifiers whose contract explicitly treats the surroundings
        as zero; everything else should use ``block[i]`` and get the error.
        """
        k = bisect_left(self._nonzero, i)
        if k < len(self._nonzero) and self._nonzero[k] == i:
            return self._table[self._ids[k]]
        return ZERO

    @property
    def nonzero_positions(self) -> memoryview:
        """Strictly increasing absolute positions carrying nonzero symbols,
        as a read-only int64 view (compare it with ``tuple(...)``)."""
        return memoryview(self._nonzero).toreadonly()

    def nonzero_items(self) -> Iterator[tuple]:
        """(position, symbol) for every nonzero symbol, in increasing position."""
        return zip(self._nonzero, map(self._table.__getitem__, self._ids))

    def nonzero_in(self, lo: int, hi: int) -> memoryview:
        """Nonzero positions p with lo <= p <= hi (sorted), a read-only view."""
        a = bisect_left(self._nonzero, lo)
        b = bisect_right(self._nonzero, hi)
        return self.nonzero_positions[a:b]

    def leading_zero_run(self) -> int:
        if not self._nonzero:
            return self.length
        return self._nonzero[0] - self.base

    def trailing_zero_run(self) -> int:
        if not self._nonzero:
            return self.length
        return self.last - self._nonzero[-1]

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return (
            self.base == other.base
            and self.length == other.length
            and self._nonzero == other._nonzero
            and self._table == other._table
            and self._ids == other._ids
        )

    def __hash__(self) -> int:
        return hash((
            self.base, self.length, self._nonzero.tobytes(), self._table, self._ids.tobytes()
        ))

    def __repr__(self) -> str:
        shown = ",".join(
            str(self.at_or_zero(i))
            for i in range(self.base, self.base + min(self.length, 8))
        )
        if self.length > 8:
            shown += ",..."
        return f"Block(base={self.base}, length={self.length}, [{shown}])"


def _checked_block(base, length, nonzero, values) -> Block:
    """The block that ``Block.__reduce__`` describes, refused with a
    ``ValueError`` unless it is one: int ``base`` and ``length >= 1``, int
    ``nonzero`` positions strictly increasing inside the range, and as many
    ``values``, each a nonzero ``Fraction`` in [0, 1], numbered as read."""
    if type(base) is not int or type(length) is not int or length < 1:
        raise ValueError(f"block base {base!r} and length {length!r} must be ints, length >= 1")
    nonzero, values = tuple(nonzero), tuple(values)
    if len(nonzero) != len(values):
        raise ValueError(f"{len(nonzero)} nonzero positions for {len(values)} values")
    bounds = (base - 1, *nonzero, base + length)
    if not all(type(p) is int for p in nonzero) or not all(map(gt, bounds[1:], bounds)):
        raise ValueError(
            f"nonzero positions must be ints increasing strictly inside "
            f"[{base}, {base + length - 1}]"
        )
    if not all(isinstance(v, Fraction) and v for v in values):
        raise ValueError("a value at a nonzero position is 0 or not a Fraction")
    block = Block._trusted(base, length, array("q"), *_numbered(map(as_symbol, values)))
    block._nonzero.extend(nonzero)  # once _assign has admitted the range
    return block


def zeros(length: int) -> Block:
    if length < 1:
        raise ValueError("a block holds at least one symbol")
    return Block._trusted(1, length, array("q"), (), array("I"))


def concat_all(blocks: Sequence[Block], base: "int | None" = None) -> Block:
    """Concatenate left to right; result starts at ``base`` (default: first block's)."""
    if not blocks:
        raise ValueError("nothing to concatenate")
    if base is None:
        base = blocks[0].base
    starts = list(accumulate((blk.length for blk in blocks), initial=base))
    # Each input's table entries land in the merged table in its order, after
    # the entries its predecessors used, so first appearance orders it.
    number, ids = {}, array("I")
    for blk in blocks:
        remap = [number.setdefault(v, len(number)) for v in blk._table]
        kept = remap == list(range(len(remap)))  # its ids stand as they are
        ids.extend(blk._ids if kept else map(remap.__getitem__, blk._ids))
    out = Block._trusted(base, starts[-1] - base, array("q"), tuple(number), ids)
    # Filled once _assign has admitted the range, so no shifted position
    # overflows: an input in place is one buffer copy, any other one pass.
    for start, blk in zip(starts, blocks):
        delta = start - blk.base
        out._nonzero.extend(map(delta.__add__, blk._nonzero) if delta else blk._nonzero)
    return out


def scale(t, b: Block) -> Block:
    """Pointwise product t*b at the same base; t must lie in [0,1]."""
    t = as_symbol(t)
    if t == 1:
        return b
    if not t:
        return Block._trusted(b.base, b.length, array("q"), (), array("I"))
    # t > 0 keeps distinct values distinct, so the ids stand as they are.
    return Block._trusted(b.base, b.length, b._nonzero, tuple(t * v for v in b._table), b._ids)


def window(b: Block, i: int, j: int) -> Block:
    """Sub-block at positions i..j (inclusive), based at i: ``b`` if that is all."""
    if i == b.base and j == b.last:
        return b
    if i < b.base:
        raise IndexError(f"window start {i} below block base {b.base}")
    if j > b.last:
        raise IndexError(f"window end {j} above block last position {b.last}")
    if i > j:
        raise IndexError(f"empty window: start {i} exceeds end {j}")
    a = bisect_left(b._nonzero, i)
    c = bisect_right(b._nonzero, j)
    ids = b._ids[a:c]
    used = list(dict.fromkeys(ids))  # the slice's ids, by first appearance
    if used != list(range(len(used))):
        ids = array("I", map(dict(zip(used, range(len(used)))).__getitem__, ids))
    table = tuple(map(b._table.__getitem__, used))
    return Block._trusted(i, j - i + 1, b._nonzero[a:c], table, ids)


class CopyLayout(Record):
    """The row of copies c_0*B, c_1*B, ..., c_{J-1}*B, each as long as B: a block kept unbuilt.

    Copy t holds positions base + t*L .. base + (t+1)*L - 1, with L = len(B)
    the pitch and base = B.base; ``pieces`` cuts a range at those seams.  Only
    B and the ratios are stored, so a row whose copies would not fit in
    memory can still be read: by its nonzero positions in a range, by its
    trailing zero run, through ``cover`` and ``pair_cover``, which build a
    block only from the copies a read meets, and by ``write_tdseq``, copy by
    copy.  Every ratio lies in [0, 1], like every symbol.
    """

    __slots__ = _fields = ("copy0", "ratios")

    def __init__(self, copy0: Block, ratios: tuple):
        if not isinstance(copy0, Block):
            raise TypeError(f"copy 0 must be a Block, not {type(copy0).__name__}")
        ratios = tuple(map(as_symbol, ratios))  # refuses a ratio outside [0, 1]
        if not ratios:
            raise ValueError("a copy layout holds at least one copy")
        object.__setattr__(self, "copy0", copy0)
        object.__setattr__(self, "ratios", ratios)

    @property
    def base(self) -> int:
        return self.copy0.base

    @property
    def pitch(self) -> int:
        return self.copy0.length

    @property
    def last(self) -> int:
        return self.base + len(self) - 1

    def __len__(self) -> int:
        return self.pitch * len(self.ratios)

    @classmethod
    def of(cls, x: "Block | CopyLayout") -> "CopyLayout":
        """``x`` as a row of copies: a block is a row of one copy at ratio 1."""
        return x if isinstance(x, CopyLayout) else cls(x, (1,))

    def pieces(self, lo: int, hi: int) -> list:
        """``(t, a, b)`` for each copy t that lo..hi meets, clipped to the row:
        a..b is the part of lo..hi in copy t."""
        base, pitch = self.base, self.pitch
        lo, hi = max(lo, base), min(hi, self.last)
        return [
            (t, max(lo, base + t * pitch), min(hi, base + (t + 1) * pitch - 1))
            for t in range((lo - base) // pitch, (hi - base) // pitch + 1) if lo <= hi
        ]

    def nonzero_in(self, lo: int, hi: int) -> list:
        """Nonzero positions p with lo <= p <= hi (sorted)."""
        out = []
        for t, a, b in self.pieces(lo, hi):
            if self.ratios[t]:
                shift = t * self.pitch
                out.extend(map(shift.__add__, self.copy0.nonzero_in(a - shift, b - shift)))
        return out

    def trailing_zero_run(self) -> int:
        nz = self.copy0.nonzero_positions
        live = [t for t, c in enumerate(self.ratios) if c]
        if not nz or not live:
            return len(self)
        return self.last - (live[-1] * self.pitch + nz[-1])

    def cover(self, i: int, j: int) -> Block:
        """A block that reads as the row at positions i..j, built from at most two copies.

        That is copy 0 itself if i..j lies in it and c_0 = 1 (it holds more
        than i..j); otherwise the window i..j.  A range that meets three or
        more copies is refused: callers cut their reads into copy pairs.
        """
        parts = self.pieces(i, j)
        if not parts or i < self.base or j > self.last or len(parts) > 2:
            raise ValueError(
                f"positions {i}..{j} do not lie in two adjacent copies of the layout"
            )
        if parts[-1][0] == 0 and self.ratios[0] == 1:
            return self.copy0
        return concat_all([
            scale(self.ratios[t], window(self.copy0, a - t * self.pitch, b - t * self.pitch))
            for t, a, b in parts
        ], base=i)

    def pair_cover(self, a: int, b: int, shift: int) -> Block:
        """A block that reads as the row at a..b and at a+shift..b+shift.

        Copy 0 itself if it holds both; otherwise the two covers, with zeros
        between them when they do not meet, so that only what a walk of the
        pairs (q, q + shift), a <= q <= b, reads is built.
        """
        here = self.cover(a, b)
        if b + shift <= here.last:
            return here
        if a + shift <= b + 1:
            return self.cover(a, b + shift)
        gap = zeros(a + shift - b - 1)
        return concat_all([window(here, a, b), gap, self.cover(a + shift, b + shift)], base=a)


def shift_violations(
    block: Block,
    shift: int,
    bound: Fraction,
    at_bound: bool = False,
    lo: "int | None" = None,
    hi: "int | None" = None,
) -> Iterator[tuple]:
    """Yield ``(i, v(i), v(i + shift))`` for each i with |v(i+shift) - v(i)| > bound.

    With ``at_bound`` the test is >= bound.  Positions outside the block read
    as 0, and hits come in increasing i, only those in ``lo .. hi`` when
    given.  Symbols are integer numerators over the block's common
    denominator D, and |b - a| / D > p / q iff |b - a| > (p * D) // q.  As
    |b - a| <= max(a, b) for a, b >= 0, every hit has a side whose numerator
    passes that limit, and C-level filters list those nonzeros, from ``lo``
    by bisection.  Two pointers walk them as i and as i + shift, and both
    sides of each i they list are read at two more pointers that only move
    right, by bisection when they must move: Python-level work is per listed
    nonzero.  The walk never visits an i where both sides are 0, so a bound
    such an i would break (negative, or 0 with ``at_bound``) is refused.
    """
    if bound < 0 or (at_bound and not bound):
        raise ValueError(f"bound {bound} would flag positions where both sides are 0")
    den, nums = common_numerators(block)
    nz, table, ids = block._nonzero, block._table, block._ids
    limit = bound.numerator * den
    if at_bound:
        limit -= 1  # on integers, x >= y is x > y - 1
    limit //= bound.denominator
    a = b = 0
    a_end = b_end = n = len(nz)
    if lo is not None:
        a, b = bisect_left(nz, lo), bisect_left(nz, lo + shift)
    if hi is not None:
        a_end, b_end = bisect_right(nz, hi), bisect_right(nz, hi + shift)
    lefts = compress(range(a, a_end), map(gt, nums[a:a_end], repeat(limit)))
    rights = compress(range(b, b_end), map(gt, nums[b:b_end], repeat(limit)))
    # Every nz[:pa] lies below the next i, every nz[:pb] below i + shift.
    pa, pb = a, b
    # An exhausted pointer reads ``end``, past every i the other one reads:
    # nz[a] <= last and nz[b] - shift <= last - shift.
    end = block.last + max(0, -shift) + 1
    a, b = next(lefts, a_end), next(rights, b_end)
    i = nz[a] if a < a_end else end
    j = nz[b] - shift if b < b_end else end
    while i < end or j < end:
        q = i if i < j else j
        if i == q:
            pa, a = a, next(lefts, a_end)
            i = nz[a] if a < a_end else end
        elif pa < n and nz[pa] < q:
            pa = bisect_left(nz, q, pa)
        if j == q:
            pb, b = b, next(rights, b_end)
            j = nz[b] - shift if b < b_end else end
        elif pb < n and nz[pb] < q + shift:
            pb = bisect_left(nz, q + shift, pb)
        x = nums[pa] if pa < n and nz[pa] == q else 0
        y = nums[pb] if pb < n and nz[pb] == q + shift else 0
        if abs(y - x) > limit:
            yield q, table[ids[pa]] if x else ZERO, table[ids[pb]] if y else ZERO


def common_numerators(block: Block) -> tuple:
    """Exact integer view of the nonzero symbols: ``(D, nums)``.

    ``D`` is the lcm of the nonzero symbols' denominators (1 for an all-zero
    block), and ``nums[i] / D`` is the symbol at ``nonzero_positions[i]``, so
    sums, differences and comparisons of symbols become integer operations.
    Computed once per block and cached on it; callers must not mutate
    ``nums``.
    """
    if block._numerators is None:
        d = math.lcm(*{v.denominator for v in block._table})
        num = [v.numerator * (d // v.denominator) for v in block._table]
        nums = list(map(num.__getitem__, block._ids))
        object.__setattr__(block, "_numerators", (d, nums))
    return block._numerators


# -- TDSEQ 1 file format ----------------------------------------------------
#
#   TDSEQ 1
#   base <integer>
#   length <integer>
#   p/q          (one per line, lowest terms, 0 <= p <= q, q >= 1)
#
# Text, newline-terminated, no trailing whitespace; bit-exact round trips.
# Integers are plain ASCII decimals, 0|[1-9][0-9]*, with a leading '-' allowed
# for base only, so every accepted stream is exactly the one write_tdseq
# produces for the block it reads as.

_NATURAL = "(?:0|[1-9][0-9]*)"
_SYMBOL_RE = re.compile(f"({_NATURAL})/({_NATURAL})")
_BASE_RE = re.compile("base (0|-?[1-9][0-9]*)")
_LENGTH_RE = re.compile(f"length ({_NATURAL})")
_TOO_LONG = "a number with more digits than int() converts"
_MARK = "\x00"  # what the reader folds each zero line to; no valid line holds it
_CHUNK = 1 << 16  # characters per body read, so memory stays bounded
_PIECE_BOUND = 64  # longest zero run a reader keeps in its piece table


def parse_symbol(text: str) -> Fraction:
    match = _SYMBOL_RE.fullmatch(text)
    if match is None:
        raise TdseqFormatError(f"bad symbol {text!r}: expected p/q in plain decimals")
    try:
        p, q = int(match[1]), int(match[2])
    except ValueError as err:  # more digits than int() converts
        raise TdseqFormatError(
            f"bad symbol line of {len(text)} characters: {_TOO_LONG}"
        ) from err
    if q < 1:
        raise TdseqFormatError(f"bad symbol {text!r}: denominator must be >= 1")
    if not 0 <= p <= q:
        raise TdseqFormatError(f"bad symbol {text!r}: value outside [0, 1]")
    f = Fraction(p, q)
    if f.numerator != p or f.denominator != q:
        raise TdseqFormatError(f"bad symbol {text!r}: not in lowest terms")
    return f


class _PieceTable(dict):
    """Body piece, a run of markers then one nonzero line -> (id, lines spanned).

    Each distinct line parses once, as the piece of no markers, and its
    symbol takes the next id in ``symbols``: read in body order, the ids
    number the values by first appearance.  A piece whose marker run is
    longer than _PIECE_BOUND is computed but not kept, so the table holds at
    most _PIECE_BOUND + 1 pieces per distinct line, however long or varied
    the zero runs.
    """

    def __init__(self):
        super().__init__()
        self.symbols = []

    def __missing__(self, piece: str) -> tuple:
        line = piece.lstrip(_MARK)
        markers = len(piece) - len(line)
        if markers:
            entry = (self[line][0], markers + 1)
        else:
            # A marker inside a line is a "0/1\n" that did not start one, so
            # the input line it ends is head + "0/1": never a valid symbol,
            # and what the error quotes.
            head, mark, _ = line.partition(_MARK)
            self.symbols.append(parse_symbol(head + "0/1" if mark else line))
            entry = (len(self.symbols) - 1, 1)
        if markers <= _PIECE_BOUND:
            self[piece] = entry
        return entry


def write_tdseq(block: "Block | CopyLayout", stream: io.TextIOBase) -> None:
    # Copy 0's text is its pieces, each the zero lines since the previous
    # nonzero and then its line, and a tail of zero lines; copy t has the same
    # pieces with each line scaled by c_t, so each distinct piece is formatted
    # once per ratio, a repeated ratio repeats the text, and one copy's text
    # is held at a time.
    row = CopyLayout.of(block)
    copy0 = row.copy0
    nz = copy0._nonzero
    gaps = map(sub, nz, chain((copy0.base - 1,), nz))
    pieces = {}  # (gap, id of the value) -> its index
    order = [pieces.setdefault(p, len(pieces)) for p in zip(gaps, copy0._ids)]
    order.append(len(pieces))  # the tail
    tail = "0/1\n" * copy0.trailing_zero_run()
    stream.write(f"TDSEQ 1\nbase {row.base}\nlength {len(row)}\n")
    ratio = text = None
    for c in row.ratios:
        if c != ratio:
            ratio, text = c, None  # release the previous copy's text first
            if c:
                lines = [format_symbol(c * v) + "\n" for v in copy0._table]
                texts = ["0/1\n" * (gap - 1) + lines[k] for gap, k in pieces]
                texts.append(tail)
                text = "".join([texts[i] for i in order])
            else:
                text = "0/1\n" * row.pitch
        stream.write(text)


def _header_line(stream: io.TextIOBase) -> str:
    line = stream.readline()
    if not line:
        raise TdseqFormatError("truncated TDSEQ stream")
    if not line.endswith("\n"):
        raise TdseqFormatError(f"header line {line!r} not newline-terminated")
    return line[:-1]


def _header_int(stream: io.TextIOBase, pattern: "re.Pattern", what: str) -> int:
    line = _header_line(stream)
    match = pattern.fullmatch(line)
    if match is None:
        raise TdseqFormatError(f"bad {what} line {line!r}")
    try:
        return int(match[1])
    except ValueError as err:  # more digits than int() converts
        raise TdseqFormatError(f"bad {what} line: {_TOO_LONG}") from err


def read_tdseq(stream: io.TextIOBase) -> Block:
    header = _header_line(stream)
    if header != "TDSEQ 1":
        raise TdseqFormatError(f"bad header {header!r}")
    base = _header_int(stream, _BASE_RE, "base")
    length = _header_int(stream, _LENGTH_RE, "length")
    _check_range(base, length, TdseqFormatError)
    nonzero, ids = array("q"), array("I")
    table = _PieceTable()
    position = base  # of the next body line
    partial = []  # text read since the last newline
    # The body is read in chunks cut after their last newline.  In each, every
    # zero line folds to one marker, so splitting at the newlines left gives
    # pieces that are a run of markers then one nonzero line, and a last piece
    # of markers only.  Each piece maps through the piece table to its symbol
    # and the lines it spans, whose running sum places the nonzeros:
    # Python-level work is per nonzero, not per line.
    while chunk := stream.read(_CHUNK):
        if _MARK in chunk:
            raise TdseqFormatError("NUL character in TDSEQ body")
        cut = chunk.rfind("\n") + 1
        if not cut:
            partial.append(chunk)
            continue
        partial.append(chunk[:cut])
        text = "".join(partial)
        partial = [chunk[cut:]]
        *pieces, trailing = text.replace("0/1\n", _MARK).split("\n")
        entries = list(map(table.__getitem__, pieces))
        ids.extend(map(itemgetter(0), entries))
        spans = accumulate(map(itemgetter(1), entries), initial=position - 1)
        try:
            nonzero.extend(islice(spans, 1, None))
        except OverflowError:  # the header's range ends below 2**63
            raise TdseqFormatError(f"expected {length} symbols, found more") from None
        line = trailing.lstrip(_MARK)
        if line:
            table[line]  # holds a marker, so it raises
        # The last piece is markers only: one zero line each.
        position = (nonzero[-1] + 1 if entries else position) + len(trailing)
    rest = "".join(partial)
    if rest:
        raise TdseqFormatError(f"symbol line {rest!r} not newline-terminated")
    if position == base:
        raise TdseqFormatError("truncated TDSEQ stream")
    if position - base != length:
        raise TdseqFormatError(f"expected {length} symbols, found {position - base}")
    return Block._trusted(base, length, nonzero, tuple(table.symbols), ids)


def dump_tdseq(block: "Block | CopyLayout", path) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        write_tdseq(block, f)


def load_tdseq(path) -> Block:
    with open(path, "r", encoding="ascii", newline="") as f:
        try:
            return read_tdseq(f)
        except UnicodeDecodeError as err:
            byte = err.object[err.start]
            raise TdseqFormatError(f"non-ASCII byte {byte:#04x} in {path}") from err

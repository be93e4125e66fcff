"""Exact-arithmetic block algebra: symbols in [0,1], indexed blocks, TDSEQ files.

A block is a finite run of exact rational symbols occupying the integer
positions ``base .. base + length - 1``.  Blocks are immutable; every
operation returns a new block.  A block stores only its nonzero symbols: the
strictly increasing tuple of their absolute positions and a parallel tuple of
their values.  Every other position holds 0 implicitly, so building, scaling,
windowing and scanning a block cost O(#nonzero) whatever its length, and a
position read is a bisect.  ``Block.symbols`` builds the dense tuple on
demand, in O(length), for tests and references only.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

ZERO = Fraction(0)
DEFAULT_MAX_SYMBOLS = 10**8  # default ResourceCapError budget, in positions


class TdseqFormatError(ValueError):
    """Raised when a TDSEQ stream violates the format."""


class ResourceCapError(RuntimeError):
    """A build would exceed the configured symbol budget; raised before allocating."""


class InvariantError(RuntimeError):
    """A construction step broke one of its own invariants: a program fault."""


def as_symbol(value) -> Fraction:
    """Coerce to an exact rational symbol, enforcing 0 <= value <= 1."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f < 0 or f > 1:
        raise ValueError(f"symbol {f} outside [0, 1]")
    return ZERO if not f else f


class Block:
    """Immutable finite block of rational symbols with an integer base index."""

    __slots__ = ("base", "length", "_nonzero", "_values", "_numerators")

    def __init__(self, symbols: Iterable, base: int = 1):
        base = int(base)
        nonzero, values = [], []
        length = 0
        for length, v in enumerate(symbols, 1):
            v = as_symbol(v)
            if v:
                nonzero.append(base + length - 1)
                values.append(v)
        if not length:
            raise ValueError("a block holds at least one symbol")
        self._assign(base, length, tuple(nonzero), tuple(values))

    @classmethod
    def _trusted(cls, base: int, length: int, nonzero: tuple, values: tuple):
        # Fast path for internal constructors that already guarantee the
        # invariant: nonzero strictly increasing inside base..base+length-1,
        # values the nonzero canonical Fractions at those positions.
        blk = object.__new__(cls)
        blk._assign(base, length, nonzero, values)
        return blk

    def _assign(self, base: int, length: int, nonzero: tuple, values: tuple) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_nonzero", nonzero)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_numerators", None)  # common_numerators cache

    def __setattr__(self, name, value):
        raise AttributeError("blocks are immutable")

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
            return self._values[k]
        return ZERO

    @property
    def symbols(self) -> tuple:
        """Dense tuple of every symbol, built on each call in O(length)."""
        syms = [ZERO] * self.length
        for p, v in zip(self._nonzero, self._values):
            syms[p - self.base] = v
        return tuple(syms)

    @property
    def nonzero_positions(self) -> tuple:
        """Strictly increasing absolute positions carrying nonzero symbols."""
        return self._nonzero

    def nonzero_items(self) -> Iterator[tuple]:
        """(position, symbol) for every nonzero symbol, in increasing position."""
        return zip(self._nonzero, self._values)

    def nonzero_in(self, lo: int, hi: int) -> Sequence[int]:
        """Nonzero positions p with lo <= p <= hi (sorted)."""
        a = bisect_left(self._nonzero, lo)
        b = bisect_right(self._nonzero, hi)
        return self._nonzero[a:b]

    def count_nonzero_in(self, lo: int, hi: int) -> int:
        return bisect_right(self._nonzero, hi) - bisect_left(self._nonzero, lo)

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
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self.base, self.length, self._nonzero, self._values))

    def __repr__(self) -> str:
        shown = ",".join(
            str(self.at_or_zero(i))
            for i in range(self.base, self.base + min(self.length, 8))
        )
        if self.length > 8:
            shown += ",..."
        return f"Block(base={self.base}, length={self.length}, [{shown}])"


def zeros(length: int, base: int = 1) -> Block:
    if length < 1:
        raise ValueError("a block holds at least one symbol")
    return Block._trusted(base, length, (), ())


def concat_all(blocks: Sequence[Block], base: "int | None" = None) -> Block:
    """Concatenate left to right; result starts at ``base`` (default: first block's)."""
    if not blocks:
        raise ValueError("nothing to concatenate")
    if base is None:
        base = blocks[0].base
    nonzero = []
    values = []
    offset = base
    for blk in blocks:
        delta = offset - blk.base
        if delta:
            nonzero.extend([p + delta for p in blk._nonzero])
        else:
            nonzero.extend(blk._nonzero)
        values.extend(blk._values)
        offset += blk.length
    return Block._trusted(base, offset - base, tuple(nonzero), tuple(values))


def scale(t, b: Block) -> Block:
    """Pointwise product t*b at the same base; t must lie in [0,1]."""
    t = as_symbol(t)
    if t == 1:
        return b
    if not t:
        return Block._trusted(b.base, b.length, (), ())
    # Blocks repeat a few values many times, so multiply each value object
    # once.  Keying by id is sound: b._values keeps every keyed object alive.
    products = {}
    values = []
    for v in b._values:
        out = products.get(id(v))
        if out is None:
            out = products[id(v)] = t * v
        values.append(out)
    return Block._trusted(b.base, b.length, b._nonzero, tuple(values))


def window(b: Block, i: int, j: int) -> Block:
    """Sub-block at positions i..j (inclusive), based at i."""
    if i < b.base:
        raise IndexError(f"window start {i} below block base {b.base}")
    if j > b.last:
        raise IndexError(f"window end {j} above block last position {b.last}")
    if i > j:
        raise IndexError(f"empty window: start {i} exceeds end {j}")
    a = bisect_left(b._nonzero, i)
    c = bisect_right(b._nonzero, j)
    return Block._trusted(i, j - i + 1, b._nonzero[a:c], b._values[a:c])


def shift_violations(
    block: Block, shift: int, bound: Fraction, at_bound: bool = False
) -> Iterator[tuple]:
    """Yield ``(i, v(i), v(i + shift))`` for each i with |v(i+shift) - v(i)| > bound.

    With ``at_bound`` the test is >= bound.  Positions outside the block read
    as 0, and hits come in increasing i.  Two pointers walk the nonzeros once
    as i and once as i + shift, comparing integer numerators over the block's
    common denominator D: |b - a| / D > p / q iff |b - a| * q > p * D.  The
    walk never visits an i where both sides are 0, so a bound such an i would
    break (negative, or 0 with ``at_bound``) is refused.
    """
    if bound < 0 or (at_bound and not bound):
        raise ValueError(f"bound {bound} would flag positions where both sides are 0")
    den, nums = common_numerators(block)
    vals = block._values
    bound_den, limit = bound.denominator, bound.numerator * den
    if at_bound:
        limit -= 1  # on integers, x >= y is x > y - 1
    n = len(vals)
    ends = block._nonzero + (math.inf,)  # a pointer at n reads past every i
    a = b = 0
    while a < n or b < n:
        i, j = ends[a], ends[b] - shift
        if i == j:
            if abs(nums[b] - nums[a]) * bound_den > limit:
                yield i, vals[a], vals[b]
            a += 1
            b += 1
        elif i < j:
            if nums[a] * bound_den > limit:
                yield i, vals[a], ZERO
            a += 1
        else:
            if nums[b] * bound_den > limit:
                yield j, ZERO, vals[b]
            b += 1


def common_numerators(block: Block) -> tuple:
    """Exact integer view of the nonzero symbols: ``(D, nums)``.

    ``D`` is the lcm of the nonzero symbols' denominators (1 for an all-zero
    block), and ``nums[i] / D`` is the symbol at ``nonzero_positions[i]``, so
    sums, differences and comparisons of symbols become integer operations.
    Computed once per block and cached on it; callers must not mutate
    ``nums``.
    """
    if block._numerators is None:
        values = block._values
        d = math.lcm(*{v.denominator for v in values})
        nums = [v.numerator * (d // v.denominator) for v in values]
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


def format_symbol(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def parse_symbol(text: str) -> Fraction:
    match = _SYMBOL_RE.fullmatch(text)
    if match is None:
        raise TdseqFormatError(f"bad symbol {text!r}: expected p/q in plain decimals")
    p, q = int(match[1]), int(match[2])
    if q < 1:
        raise TdseqFormatError(f"bad symbol {text!r}: denominator must be >= 1")
    if not 0 <= p <= q:
        raise TdseqFormatError(f"bad symbol {text!r}: value outside [0, 1]")
    f = Fraction(p, q)
    if f.numerator != p or f.denominator != q:
        raise TdseqFormatError(f"bad symbol {text!r}: not in lowest terms")
    return ZERO if not f else f


class _SymbolTable(dict):
    """Body line (with its newline) -> symbol; each distinct line parses once."""

    def __missing__(self, line: str) -> Fraction:
        if not line.endswith("\n"):
            raise TdseqFormatError(f"symbol line {line!r} not newline-terminated")
        value = self[line] = parse_symbol(line[:-1])
        return value


def write_tdseq(block: Block, stream: TextIO) -> None:
    lines = ["0/1"] * len(block)
    for p, v in block.nonzero_items():
        lines[p - block.base] = format_symbol(v)
    stream.write(f"TDSEQ 1\nbase {block.base}\nlength {len(block)}\n")
    stream.write("\n".join(lines))
    stream.write("\n")


def _header_line(stream: TextIO) -> str:
    line = stream.readline()
    if not line:
        raise TdseqFormatError("truncated TDSEQ stream")
    if not line.endswith("\n"):
        raise TdseqFormatError(f"header line {line!r} not newline-terminated")
    return line[:-1]


def _header_int(stream: TextIO, pattern: "re.Pattern", what: str) -> int:
    line = _header_line(stream)
    match = pattern.fullmatch(line)
    if match is None:
        raise TdseqFormatError(f"bad {what} line {line!r}")
    return int(match[1])


def read_tdseq(stream: TextIO) -> Block:
    header = _header_line(stream)
    if header != "TDSEQ 1":
        raise TdseqFormatError(f"bad header {header!r}")
    base = _header_int(stream, _BASE_RE, "base")
    length = _header_int(stream, _LENGTH_RE, "length")
    nonzero, values = [], []
    count = 0
    # parse_symbol returns the shared ZERO for every zero symbol.
    for count, v in enumerate(map(_SymbolTable().__getitem__, stream), 1):
        if v is not ZERO:
            nonzero.append(base + count - 1)
            values.append(v)
    if not count:
        raise TdseqFormatError("truncated TDSEQ stream")
    if count != length:
        raise TdseqFormatError(f"expected {length} symbols, found {count}")
    return Block._trusted(base, length, tuple(nonzero), tuple(values))


def dump_tdseq(block: Block, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        write_tdseq(block, f)


def load_tdseq(path) -> Block:
    with open(path, "r", encoding="ascii", newline="") as f:
        return read_tdseq(f)

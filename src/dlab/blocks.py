"""Exact-arithmetic block algebra: symbols in [0,1], indexed blocks, TDSEQ files.

A block is a finite run of exact rational symbols occupying the integer
positions ``base .. base + length - 1``.  Blocks are immutable; every
operation returns a new block.  Alongside the dense symbol tuple each block
keeps a sorted tuple of its nonzero positions, so sparse scans (orthogonality,
escape windows, run analysis) cost O(#nonzero) instead of O(length).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

ZERO = Fraction(0)
ONE = Fraction(1)


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

    __slots__ = ("base", "_symbols", "_nonzero")

    def __init__(self, symbols: Iterable, base: int = 1):
        syms = tuple(as_symbol(v) for v in symbols)
        if not syms:
            raise ValueError("a block holds at least one symbol")
        object.__setattr__(self, "base", int(base))
        object.__setattr__(self, "_symbols", syms)
        object.__setattr__(
            self, "_nonzero", tuple(i + base for i, v in enumerate(syms) if v)
        )

    @classmethod
    def _trusted(cls, symbols: tuple, base: int, nonzero: tuple) -> "Block":
        # Fast path for internal constructors that already guarantee the
        # invariants (symbols canonical Fractions in [0,1], nonzero sorted).
        blk = object.__new__(cls)
        object.__setattr__(blk, "base", base)
        object.__setattr__(blk, "_symbols", symbols)
        object.__setattr__(blk, "_nonzero", nonzero)
        return blk

    def __setattr__(self, name, value):
        raise AttributeError("blocks are immutable")

    # -- geometry ----------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self._symbols)

    @property
    def last(self) -> int:
        """Largest covered position."""
        return self.base + len(self._symbols) - 1

    def __len__(self) -> int:
        return len(self._symbols)

    def covers(self, i: int) -> bool:
        return self.base <= i <= self.last

    # -- access ------------------------------------------------------------

    def __getitem__(self, i: int) -> Fraction:
        """Symbol at absolute position ``i``; out-of-range access is an error."""
        if not self.base <= i <= self.last:
            raise IndexError(
                f"position {i} outside block range [{self.base}, {self.last}]"
            )
        return self._symbols[i - self.base]

    def at_or_zero(self, i: int) -> Fraction:
        """Symbol at ``i``, reading positions outside the block as 0.

        Only for verifiers whose contract explicitly treats the surroundings
        as zero; everything else should use ``block[i]`` and get the error.
        """
        if self.base <= i <= self.last:
            return self._symbols[i - self.base]
        return ZERO

    @property
    def symbols(self) -> tuple:
        return self._symbols

    @property
    def nonzero_positions(self) -> tuple:
        """Strictly increasing absolute positions carrying nonzero symbols."""
        return self._nonzero

    def nonzero_items(self) -> Iterator[tuple]:
        for p in self._nonzero:
            yield p, self._symbols[p - self.base]

    def nonzero_in(self, lo: int, hi: int) -> Sequence[int]:
        """Nonzero positions p with lo <= p <= hi (sorted)."""
        a = bisect_left(self._nonzero, lo)
        b = bisect_right(self._nonzero, hi)
        return self._nonzero[a:b]

    def count_nonzero_in(self, lo: int, hi: int) -> int:
        return bisect_right(self._nonzero, hi) - bisect_left(self._nonzero, lo)

    def leading_zero_run(self) -> int:
        if not self._nonzero:
            return len(self._symbols)
        return self._nonzero[0] - self.base

    def trailing_zero_run(self) -> int:
        if not self._nonzero:
            return len(self._symbols)
        return self.last - self._nonzero[-1]

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self.base == other.base and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash((self.base, self._symbols))

    def __repr__(self) -> str:
        shown = ",".join(str(v) for v in self._symbols[:8])
        if len(self._symbols) > 8:
            shown += ",..."
        return f"Block(base={self.base}, length={len(self._symbols)}, [{shown}])"

    def rebase(self, new_base: int) -> "Block":
        """Same symbols at a new base (shares storage)."""
        delta = new_base - self.base
        return Block._trusted(
            self._symbols, new_base, tuple(p + delta for p in self._nonzero)
        )


def zeros(length: int, base: int = 1) -> Block:
    if length < 1:
        raise ValueError("a block holds at least one symbol")
    return Block._trusted((ZERO,) * length, base, ())


def concat(a: Block, b: Block) -> Block:
    """Concatenation ab; b is re-based to start at a.base + a.length."""
    return concat_all([a, b], base=a.base)


def concat_all(blocks: Sequence[Block], base: "int | None" = None) -> Block:
    """Concatenate left to right; result starts at ``base`` (default: first block's)."""
    if not blocks:
        raise ValueError("nothing to concatenate")
    if base is None:
        base = blocks[0].base
    syms = []
    nonzero = []
    offset = base
    for blk in blocks:
        delta = offset - blk.base
        syms.extend(blk._symbols)
        if delta:
            nonzero.extend(p + delta for p in blk._nonzero)
        else:
            nonzero.extend(blk._nonzero)
        offset += len(blk._symbols)
    return Block._trusted(tuple(syms), base, tuple(nonzero))


def scale(t, b: Block) -> Block:
    """Pointwise product t*b at the same base; t must lie in [0,1]."""
    t = as_symbol(t)
    if t == 1:
        return b
    if not t:
        return Block._trusted((ZERO,) * len(b._symbols), b.base, ())
    syms = list(b._symbols)
    for p in b._nonzero:
        syms[p - b.base] = t * syms[p - b.base]
    return Block._trusted(tuple(syms), b.base, b._nonzero)


def window(b: Block, i: int, j: int) -> Block:
    """Sub-block at positions i..j (inclusive), based at i."""
    if i < b.base:
        raise IndexError(f"window start {i} below block base {b.base}")
    if j > b.last:
        raise IndexError(f"window end {j} above block last position {b.last}")
    if i > j:
        raise IndexError(f"empty window: start {i} exceeds end {j}")
    lo = i - b.base
    a = bisect_left(b._nonzero, i)
    c = bisect_right(b._nonzero, j)
    return Block._trusted(b._symbols[lo : j - b.base + 1], i, b._nonzero[a:c])


def sup_distance(a: Block, b: Block) -> Fraction:
    """Exact coordinatewise supremum distance between equal-length blocks.

    Positions are compared by offset from each block's own base.
    """
    if len(a._symbols) != len(b._symbols):
        raise ValueError(
            f"length mismatch: {len(a._symbols)} vs {len(b._symbols)}"
        )
    best = ZERO
    # Only offsets where at least one side is nonzero can contribute.
    offsets = {p - a.base for p in a._nonzero}
    offsets.update(p - b.base for p in b._nonzero)
    for off in offsets:
        d = a._symbols[off] - b._symbols[off]
        if d < 0:
            d = -d
        if d > best:
            best = d
    return best


def common_numerators(block: Block) -> tuple:
    """Exact integer view of the nonzero symbols: ``(D, nums)``.

    ``D`` is the lcm of the nonzero symbols' denominators (1 for an all-zero
    block), and ``nums[i] / D`` is the symbol at ``nonzero_positions[i]``, so
    sums, differences and comparisons of symbols become integer operations.
    """
    values = [block._symbols[p - block.base] for p in block._nonzero]
    d = math.lcm(*{v.denominator for v in values})
    return d, [v.numerator * (d // v.denominator) for v in values]


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
    syms = tuple(map(_SymbolTable().__getitem__, stream))
    if not syms:
        raise TdseqFormatError("truncated TDSEQ stream")
    if len(syms) != length:
        raise TdseqFormatError(f"expected {length} symbols, found {len(syms)}")
    # parse_symbol returns the shared ZERO for every zero symbol.
    nonzero = tuple(i for i, v in enumerate(syms, base) if v is not ZERO)
    return Block._trusted(syms, base, nonzero)


def dump_tdseq(block: Block, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        write_tdseq(block, f)


def load_tdseq(path) -> Block:
    with open(path, "r", encoding="ascii", newline="") as f:
        return read_tdseq(f)

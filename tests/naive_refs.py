"""Brute-force reference checks, written straight off the condition statements.

These stay deliberately dumb (dense scans, no index tricks) so they remain an
independent route against the package's sparse verifiers.
"""

import math
from fractions import Fraction
from functools import lru_cache

from dlab.blocks import Block
from dlab.oracle import (
    FORWARD_INVARIANT_ONLY,
    INVARIANT,
    NOT_FORWARD_INVARIANT,
    Partition,
)


def dense(block):
    """Every symbol of ``block`` in position order, zeros included."""
    syms = [Fraction(0)] * len(block)
    for p, v in block.nonzero_items():
        syms[p - block.base] = v
    return tuple(syms)


def naive_c1_max(symbols):
    """Longest zero run immediately followed by a symbol equal to 1."""
    best = run = 0
    for v in symbols:
        if v == 1 and run > best:
            best = run
        run = run + 1 if v == 0 else 0
    return best


def naive_c3_violations(symbols, n_k, k):
    """0-based start offsets violating the strict shift-by-n_k bound."""
    out = []
    for i in range(len(symbols) - n_k - k + 1):
        if all(symbols[i + d] == 0 for d in range(k)):
            continue
        worst = max(abs(symbols[i + d] - symbols[i + n_k + d]) for d in range(k))
        if not worst < Fraction(1, k):
            out.append(i)
    return out


def naive_c2prime_violations(symbols, n_j, j):
    out = []
    for i in range(len(symbols) - n_j):
        eps = max(symbols[i + 1 : i + 1 + n_j])
        if not symbols[i] <= eps + Fraction(1, j + 1):
            out.append(i)
    return out


def naive_scale(t, symbols):
    return tuple(t * v for v in symbols)


def naive_common_numerators(symbols):
    """(lcm of the nonzero denominators, each nonzero's numerator over it)."""
    nonzero = [v for v in symbols if v]
    den = math.lcm(*(v.denominator for v in nonzero))
    return den, [v.numerator * den // v.denominator for v in nonzero]


def naive_tdseq_text(base, symbols):
    body = "".join(f"{v.numerator}/{v.denominator}\n" for v in symbols)
    return f"TDSEQ 1\nbase {base}\nlength {len(symbols)}\n{body}"


def _naive_natural(text):
    """Plain ASCII decimal with no sign or leading zero."""
    if text == "0":
        return True
    return text != "" and text[0] != "0" and all(c in "0123456789" for c in text)


def naive_read_tdseq(text):
    """The block a TDSEQ 1 text holds, read line by line off the grammar, or
    None if the text breaks it."""
    lines = text.split("\n")
    if lines.pop() != "" or len(lines) < 4 or lines[0] != "TDSEQ 1":
        return None
    base, length = lines[1], lines[2]
    if not base.startswith("base ") or not length.startswith("length "):
        return None
    base, length = base[5:], length[7:]
    negative = base.startswith("-") and base != "-0"
    if not (_naive_natural(base[1:]) if negative else _naive_natural(base)):
        return None
    if not _naive_natural(length) or int(length) != len(lines) - 3:
        return None
    symbols = []
    for line in lines[3:]:
        p, slash, q = line.partition("/")
        if not (slash and _naive_natural(p) and _naive_natural(q)):
            return None
        p, q = int(p), int(q)
        if not (q >= 1 and p <= q and math.gcd(p, q) == 1):
            return None
        symbols.append(Fraction(p, q))
    return Block(symbols, base=int(base))


def naive_shift_violations(block, shift, bound, at_bound=False):
    """Positions where |v(i+shift) - v(i)| > bound (>= with at_bound), outside
    read as 0."""
    out = []
    for i in range(block.base - shift, block.last + 1):
        d = abs(block.at_or_zero(i + shift) - block.at_or_zero(i))
        if d > bound or (at_bound and d == bound):
            out.append(i)
    return out


def naive_phase_works(block, cell, phase):
    """Does the given phase satisfy the at-most-one-in-three cell rule?"""
    cells = sorted({(p - phase) // cell for p in block.nonzero_positions})
    return all(b - a >= 3 for a, b in zip(cells, cells[1:]))


def naive_phase_exists(block, cell):
    return any(naive_phase_works(block, cell, c) for c in range(cell))


def naive_smallest_phase(block, cell):
    """The smallest working phase in [0, cell), or None."""
    return min((c for c in range(cell) if naive_phase_works(block, cell, c)), default=None)


def naive_escape_choices(block, scale_len, w, center):
    """All r in {1,2,3} zeroing the window of half-width w shifted by r*scale."""
    valid = []
    for r in (1, 2, 3):
        lo = center - w + r * scale_len
        hi = center + w + r * scale_len
        if all(block[i] == 0 for i in range(lo, hi + 1)):
            valid.append(r)
    return valid


def naive_runs(blocked, w, lo, hi):
    """(runs, first_failure) over the centers lo..hi: the smallest r in
    {1, 2, 3} with no position of ``blocked[r]`` within w of the center, as
    runs (start, end, r) of equal choices, up to the first center where no r
    is free (None if every center has one)."""
    runs = []
    for j in range(lo, hi + 1):
        free = [r for r in (1, 2, 3) if all(abs(q - j) > w for q in blocked[r])]
        if not free:
            return runs, j
        if runs and runs[-1][2] == free[0]:
            runs[-1] = (runs[-1][0], j, free[0])
        else:
            runs.append((j, j, free[0]))
    return runs, None


def naive_omega_choices(returning, escaping, time, bound, w, center):
    """(return_ok, escape_ok): the r in {1,2,3} for which ``returning`` moves
    by at most ``bound`` on the window of half-width w when shifted by r*time,
    and those for which ``escaping`` is 0 on the shifted window."""
    window = range(center - w, center + w + 1)
    return_ok = [r for r in (1, 2, 3)
                 if all(abs(returning[i + r * time] - returning[i]) <= bound
                        for i in window)]
    escape_ok = naive_escape_choices(escaping, time, w, center)
    return return_ok, escape_ok


def naive_window_distance(p, q, radius, one_sided=False):
    """d_W between views p = (block, shift) and q: the max over the window of
    2^-|i| |x(s+i) - y(t+i)|, with i in -radius..radius (centred) or 1..radius
    (one-sided).  A read outside a block raises IndexError."""
    (x, s), (y, t) = p, q
    lo = 1 if one_sided else -radius
    return max(abs(x[s + i] - y[t + i]) / 2 ** abs(i) for i in range(lo, radius + 1))


def naive_return_times(views, epsilon, horizon, one_sided=False):
    """n in 1..horizon with d(T^n p, p) < epsilon in the max product metric
    over the views (block, shift, radius)."""
    return [
        n for n in range(1, horizon + 1)
        if max(naive_window_distance((b, s + n), (b, s), r, one_sided)
               for b, s, r in views) < epsilon
    ]


def naive_pair_separation(x, y, horizon):
    """None when x(0) = y(0) = 1 and for every n in 1..horizon the shifted pair
    is at least 1 from the pair at coordinate 0; else the witness: pos 0, or
    the smallest such n, with the values there."""
    if x[0] != 1 or y[0] != 1:
        return (("pos", 0), ("x", x[0]), ("y", y[0]))
    for n in range(1, horizon + 1):
        if max(abs(x[n] - x[0]), abs(y[n] - y[0])) < 1:
            return (("n", n), ("x", x[n]), ("y", y[n]))
    return None


def naive_close_pair(x, cell):
    """The first nonzero b of x with another nonzero at most ``cell`` before
    it, and the nearest such a, as (a, b); None if there is none."""
    for b in range(x.base, x.last + 1):
        if x[b]:
            near = [a for a in range(max(x.base, b - cell), b) if x[a]]
            if near:
                return near[-1], b
    return None


def naive_growth_strings(n, prefix=()):
    """Every restricted growth string of length n, lexicographically."""
    if len(prefix) == n:
        yield prefix
        return
    for g in range(max(prefix, default=-1) + 2):
        yield from naive_growth_strings(n, prefix + (g,))


def naive_same_masks(n):
    """``oracle._same_masks(n)`` by its first definition: each pair's mask is
    a string of "1"/"0", one digit per partition and the last first, read in
    base 2."""
    rgs = tuple(naive_growth_strings(n))
    full = (1 << len(rgs)) - 1
    same = [[full] * n for _ in range(n)]
    for x in range(n):
        for y in range(x):
            bits = "".join("1" if g[x] == g[y] else "0" for g in reversed(rgs))
            same[x][y] = same[y][x] = int(bits, 2)
    return rgs, full, tuple(map(tuple, same))


def naive_partition_blocks(n):
    """The blocks (sorted tuples, sorted) of every partition of {0..n-1}, in
    restricted-growth-string order."""
    for rgs in naive_growth_strings(n):
        blocks = {}
        for x, g in enumerate(rgs):
            blocks.setdefault(g, []).append(x)
        yield tuple(sorted(tuple(blk) for blk in blocks.values()))


@lru_cache(maxsize=None)
def all_partitions(n):
    """Every partition of {0..n-1} (Bell(n) many), in restricted-growth-string
    order, as ``Partition`` records."""
    return tuple(Partition(blocks) for blocks in naive_partition_blocks(n))


def naive_pairs(partition):
    """All related ordered pairs (a, b) of ``partition``, diagonal included."""
    return frozenset((a, b) for blk in partition.blocks for a in blk for b in blk)


def naive_classify_relation(table, partition):
    """The image {(Ta, Tb) : a ~ b} against the pair set itself: strictly
    inside it, equal to it, or neither."""
    rel = naive_pairs(partition)
    image = frozenset((table[a], table[b]) for a, b in rel)
    if image < rel:
        return FORWARD_INVARIANT_ONLY
    if image == rel:
        return INVARIANT
    return NOT_FORWARD_INVARIANT


def naive_first_forward_invariant_only(table):
    """The blocks of the first partition of {0..n-1}, in restricted-growth-
    string order, whose image {(Ta, Tb) : a ~ b} is strictly inside its own
    pair set; None if none is."""
    for blocks in naive_partition_blocks(len(table)):
        rel = frozenset((a, b) for blk in blocks for a in blk for b in blk)
        if frozenset((table[a], table[b]) for a, b in rel) < rel:
            return blocks
    return None


def naive_power_table(table, n):
    """The value table of the n-fold composition: each point iterated n times."""
    out = []
    for x in range(len(table)):
        for _ in range(n):
            x = table[x]
        out.append(x)
    return tuple(out)


def naive_omega_limit(table, x):
    """The points T^i x for n <= i < 2n on n points: after n steps the orbit
    is on its cycle, and n more steps go round the whole cycle."""
    n = len(table)
    for _ in range(n):
        x = table[x]
    out = set()
    for _ in range(n):
        out.add(x)
        x = table[x]
    return frozenset(out)


def naive_orbit_points(table, x):
    """The points T^i x for 0 <= i < n on n points: every point the orbit of
    x reaches, its cycle included."""
    out = set()
    for _ in range(len(table)):
        out.add(x)
        x = table[x]
    return frozenset(out)


def naive_mask(points):
    """The int with bit z set for each z in ``points``."""
    return sum(1 << z for z in set(points))

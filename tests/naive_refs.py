"""Brute-force reference checks, written straight off the condition statements.

These stay deliberately dumb (dense scans, no index tricks) so they remain an
independent route against the package's sparse verifiers.
"""

from fractions import Fraction


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


def naive_escape_choices(block, scale_len, w, center):
    """All r in {1,2,3} zeroing the window of half-width w shifted by r*scale."""
    valid = []
    for r in (1, 2, 3):
        lo = center - w + r * scale_len
        hi = center + w + r * scale_len
        if all(block[i] == 0 for i in range(lo, hi + 1)):
            valid.append(r)
    return valid


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


def naive_first_forward_invariant_only(table):
    """The blocks (sorted tuples, sorted) of the first partition of
    {0..n-1}, in restricted-growth-string order, whose image
    {(Ta, Tb) : a ~ b} is strictly inside its own pair set; None if none is."""
    n = len(table)

    def growth_strings(prefix):
        if len(prefix) == n:
            yield prefix
            return
        for g in range(max(prefix, default=-1) + 2):
            yield from growth_strings(prefix + [g])

    for rgs in growth_strings([]):
        blocks = {}
        for x, g in enumerate(rgs):
            blocks.setdefault(g, []).append(x)
        rel = frozenset((a, b) for blk in blocks.values() for a in blk for b in blk)
        if frozenset((table[a], table[b]) for a, b in rel) < rel:
            return tuple(sorted(tuple(blk) for blk in blocks.values()))
    return None

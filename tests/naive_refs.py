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

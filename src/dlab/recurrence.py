"""Metric-level recurrence analysis on finite windows of the built points.

The ambient space is metrized with the exact weighted supremum

    d_W(x, y) = max over |i| <= W of 2^(-|i|) |x(i) - y(i)|

whose truncation to radius W is within 2^(-(W+1)) of any deeper radius, since
symbols lie in [0,1].  All arithmetic is exact; window accesses outside the
built range are errors, never implicit zeros, so nothing gets "verified" on
data that was never constructed.

On top of the metric sit the recurrence tools: epsilon-return times of
centred views, the certificate that the built pair never jointly returns (at
every nonzero shift one coordinate is 0 where both centers are 1), and two
witnesses whose runs one body builds.  The escape witness finds, for every
window center, a multiple r <= 3 of a time that shifts one sequence onto an
all-zero window.  The limit-pair witness asks the same of one sequence while
the other moves by at most 3/k, which is what plants (x, zero) and (zero, y)
in the pair's limit set.  Its return part first reads thm2's verdict on
condition I or II: where each step of the time moves the returning
sequence by at most 1/k, three steps move it by at most 3/k, so nothing
blocks a center but the escape, and the limit-pair runs are the escape runs
of the other sequence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress, repeat
from operator import add, gt, sub

from .blocks import Block, common_numerators, shift_violations
from .report import CheckReport, FAIL, PASS, Record
from .thm2 import Thm2State, check_rigidity_x, check_rigidity_y

ESCAPE_SIDES = ("XatN", "YatM")


class CenteredPoint(Record):
    """The radius-W view of T^shift applied to a built block: its coordinates
    shift - radius .. shift + radius, all inside the block."""

    __slots__ = _fields = ("block", "shift", "radius")

    def __init__(self, block: Block, shift: int, radius: int):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        # Fail as early as the view is formed, not on first access.
        block[shift - radius]
        block[shift + radius]
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "radius", radius)


def centered_point(block: Block, shift: int = 0, radius: int = 8) -> CenteredPoint:
    return CenteredPoint(block, shift, radius)


def epsilon_recurrence_times(points: tuple, epsilon: Fraction, horizon: int) -> list:
    """All n in [1, horizon] with d(T^n p, p) < epsilon, increasing.

    ``points`` is a tuple of centred views, compared in the max product
    metric.  The deepest shift is range-checked up front, so a too-large
    horizon fails before any scan.  Each view's integer numerators over its
    block's D are read once into a dense row, and 2^-|i| |b - a| / D < p / q
    is tested as |b - a| * q < p * D * 2^|i|, heaviest coordinates first.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not points:
        raise ValueError("points must hold at least one view")
    epsilon = Fraction(epsilon)
    rows = []
    for p in points:
        CenteredPoint(p.block, p.shift + horizon, p.radius)  # the deepest shift
        lo, hi = p.shift - p.radius, p.shift + p.radius + horizon
        den, nums = common_numerators(p.block)
        row = [0] * (hi - lo + 1)
        a = bisect_left(p.block.nonzero_positions, lo)
        b = bisect_right(p.block.nonzero_positions, hi)
        for q, v in zip(p.block.nonzero_positions[a:b], nums[a:b]):
            row[q - lo] = v
        limits = sorted(
            (epsilon.numerator * den << abs(i), i + p.radius)
            for i in range(-p.radius, p.radius + 1)
        )
        rows.append((row, limits))
    q = epsilon.denominator
    return [
        n for n in range(1, horizon + 1)
        if all(abs(row[c + n] - row[c]) * q < limit
               for row, limits in rows for limit, c in limits)
    ]


def pair_separation_check(state: Thm2State, horizon: int) -> CheckReport:
    """The built pair stays at product distance >= 1 from itself at every shift.

    Passes iff min(x(n), y(n)) = 0 for every n in [1, horizon]: coordinate 0
    of the shifted pair then differs from 1 by exactly 1 on at least one
    side.  x(0) = y(0) = 1 needs no test here: ``Thm2State`` refuses any
    pair without it.
    """
    if not 1 <= horizon <= state.half_width:
        raise ValueError(
            f"horizon {horizon} outside usable range 1..{state.half_width}"
        )
    params = (("stage", state.stage), ("horizon", horizon))
    shared = set(state.x.nonzero_in(1, horizon)) & set(
        state.y.nonzero_in(1, horizon)
    )
    if shared:
        n = min(shared)
        return CheckReport(
            "PAIR_SEP", FAIL, params,
            (("n", n), ("x", state.x[n]), ("y", state.y[n])),
        )
    return CheckReport("PAIR_SEP", PASS, params)


# -- escape and limit-pair witnesses ------------------------------------------


def _spans(positions, w: int):
    """Merged center ranges [q - w, q + w] of increasing ``positions``, as
    parallel lists (starts, ends).

    Neighbours at most 2w + 1 apart have ranges that overlap or touch, so
    they share a span; equal neighbours are a gap of 0 and share one too.  A
    gap above 2w + 1 cuts the list, so at least one center lies between any
    two spans.  The gaps, the cuts and the span ends are ``map`` and
    ``compress`` passes: no Python loop runs per position.
    """
    if not positions:
        return [], []
    cut = list(map(gt, map(sub, positions[1:], positions), repeat(2 * w + 1)))
    firsts = [positions[0], *compress(positions[1:], cut)]
    lasts = [*compress(positions, cut), positions[-1]]
    return list(map(sub, firsts, repeat(w))), list(map(add, lasts, repeat(w)))


def _near(positions, j: int, w: int) -> bool:
    """Does some q in the increasing ``positions`` lie in [j - w, j + w]?"""
    i = bisect_left(positions, j - w)
    return i < len(positions) and positions[i] <= j + w


def _assign_runs(spans, lo: int, hi: int):
    """Per-center smallest r whose spans leave the center free, as runs over
    [lo, hi].

    ``spans`` holds the (starts, ends) lists of ``_spans`` for r = 1, 2, 3,
    in that order: r is free at center j iff no span of r covers j.  Each
    pair is clipped to the spans that reach [lo, hi] and ends in a sentinel
    span at hi + 1, which no center reaches; so the pointer of r never runs
    past its list, and r is free at j once its pointer is on the sentinel.

    At center j the pointer of each r rests on its first span that ends at
    or after j, and the choice is the smallest r whose span there starts
    after j.  The choice holds until a smaller r's span ends (stop = end + 1)
    or the chosen r's span starts (stop = start), whichever comes first, so
    the walk jumps straight to that stop.  There the choice changes: a
    smaller r is free at end + 1, since merged spans leave a free center
    between them, or the chosen r is covered at its start.  So every run is
    maximal when it is made.  The stop is at most hi + 1, the sentinel's
    start.

    Returns (runs, first_failure): runs are (start, end, r) with start..end
    inclusive; first_failure is the smallest center no r frees, or None.
    """
    clipped = []
    for starts, ends in spans:
        i, k = bisect_left(ends, lo), bisect_right(starts, hi)
        clipped += starts[i:k] + [hi + 1], ends[i:k] + [hi + 1]
    s1, e1, s2, e2, s3, e3 = clipped
    a = b = c = 0
    runs = []
    j = lo
    while j <= hi:
        while e1[a] < j:
            a += 1
        if s1[a] > j:
            stop = s1[a]
            runs.append((j, stop - 1, 1))
            j = stop
            continue
        stop = e1[a] + 1
        while e2[b] < j:
            b += 1
        if s2[b] > j:
            if s2[b] < stop:
                stop = s2[b]
            runs.append((j, stop - 1, 2))
            j = stop
            continue
        if e2[b] < stop:
            stop = e2[b] + 1
        while e3[c] < j:
            c += 1
        if s3[c] > j:
            if s3[c] < stop:
                stop = s3[c]
            runs.append((j, stop - 1, 3))
            j = stop
            continue
        return runs, j
    return runs, None


class WitnessRuns(Record):
    """A per-center choice map compressed into constant runs."""

    __slots__ = _fields = ("report", "runs")

    def __init__(self, report: CheckReport, runs: tuple):
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "runs", runs)


def _admissible_centers(block: Block, scale_len: int, w: int):
    # Keep both the window around the center and its three shifts in range.
    lo, hi = block.base + w, block.last - w - 3 * scale_len
    if lo > hi:
        raise ValueError(
            f"no admissible centers: block too short for 3 shifts of {scale_len}"
        )
    return lo, hi


def _witness_runs(escaping: Block, time: int, w: int, centers: tuple, returns=((), (), ())):
    """Per-center smallest r in {1,2,3} whose shift by r * time takes the
    window off the nonzeros of ``escaping`` and off the return positions
    ``returns[r - 1]``, as ``_assign_runs`` gives it over ``centers``.

    A nonzero q blocks r at the centers within w of q - r * time.  Moving
    every position by d moves every merged span by d, so the nonzeros'
    spans are merged once and moved back by each r's shift; an r with
    return positions merges them with the moved nonzeros instead.
    """
    nz = escaping.nonzero_positions.tolist()  # read once: each view read boxes an int
    starts, ends = _spans(nz, w)
    spans = []
    for r, blocked in zip((1, 2, 3), returns):
        d = r * time
        if blocked:
            # Both lists increase, so the sort is one linear merge of two
            # runs.  A position in both lists is a gap of 0, which the spans
            # merge.
            spans.append(_spans(sorted(blocked + list(map(sub, nz, repeat(d)))), w))
        else:
            spans.append((list(map(sub, starts, repeat(d))), list(map(sub, ends, repeat(d)))))
    return _assign_runs(spans, *centers)


def escape_witness(state: Thm2State, k: int, w: int, side: str) -> WitnessRuns:
    """For every admissible center, an r in {1,2,3} shifting the window onto zeros.

    Side XatN asks for x identically 0 on [j-w+r*n_k, j+w+r*n_k]; YatM asks
    the same of y at multiples of m_k.  Phased sparseness plus the zero tails
    make some r work; a center where none does is reported as the failure
    witness.
    """
    if side not in ESCAPE_SIDES:
        raise ValueError(f"side must be one of {ESCAPE_SIDES}, got {side!r}")
    block, scale_len = (state.x, state.n(k)) if side == "XatN" else (state.y, state.m(k))
    if w < 0:
        raise ValueError("w must be >= 0")
    if w >= scale_len:
        raise ValueError(f"window half-width {w} must stay below the scale {scale_len}")
    lo, hi = _admissible_centers(block, scale_len, w)
    runs, failure = _witness_runs(block, scale_len, w, (lo, hi))
    params = (("stage", state.stage), ("side", side), ("k", k), ("w", w), ("centers", hi - lo + 1))
    if failure is not None:
        report = CheckReport("ESCAPE", FAIL, params, (("center", failure),))
    else:
        report = CheckReport("ESCAPE", PASS, params, (("runs", len(runs)),))
    return WitnessRuns(report, tuple(runs))


def _one_sided_omega(k: int, w: int, returning: Block, escaping: Block, time: int,
                     rigid: bool):
    """Centers where some r <= 3 keeps ``returning`` within 3/k and zeroes ``escaping``.

    ``rigid`` is the verdict of the 1/k rigidity of ``returning`` at
    ``time``: condition I on the x side (time m_k), II on the y side (time
    n_k), as ``thm2`` decides it, reading 0 outside the block.  When it
    holds, then for every q and r <= 3

        |v(q + r*time) - v(q)| <= sum over i < r of
            |v(q + (i+1)*time) - v(q + i*time)| <= r/k <= 3/k,

    so the return part blocks no center, and the runs are exactly the
    escape runs of ``escaping`` at ``time``.  Only when it fails do the
    three 3/k scans run, and their positions block the centers within w as
    the shifted nonzeros do.
    """
    centers = _admissible_centers(returning, time, w)
    returns = ((), (), ())
    if not rigid:
        bound = Fraction(3, k)
        returns = [[q for q, _, _ in shift_violations(returning, r * time, bound)]
                   for r in (1, 2, 3)]
    runs, failure = _witness_runs(escaping, time, w, centers, returns)
    if failure is None:
        return runs, None
    # Classify what blocked the failing center: the return part (a), the
    # escape part (b), or both.  A nonzero q blocks the escape of r there
    # when it lies within w of failure + r * time.
    ret_ok = any(not _near(blocked, failure, w) for blocked in returns)
    esc_ok = any(not _near(escaping.nonzero_positions, failure + r * time, w)
                 for r in (1, 2, 3))
    part = "ab"
    if ret_ok and not esc_ok:
        part = "b"
    elif esc_ok and not ret_ok:
        part = "a"
    return runs, (failure, part)


class CrossOmegaWitness(Record):
    # r-choices planting (x, zero): x returns, y escapes; and (zero, y) likewise.
    __slots__ = _fields = ("report", "x_side_runs", "y_side_runs")

    def __init__(self, report: CheckReport, x_side_runs: tuple, y_side_runs: tuple):
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "x_side_runs", x_side_runs)
        object.__setattr__(self, "y_side_runs", y_side_runs)


def cross_omega_witness(state: Thm2State, k: int, w: int) -> CrossOmegaWitness:
    """Certify both limit pairs (x, zero) and (zero, y) at scale k, radius w.

    For each admissible center some r in {1,2,3} must satisfy (a) the
    returning block moves by at most 3/k on the window and (b) the other
    block is identically 0 on the shifted window.  The x side uses m_k, the
    y side n_k.
    """
    if w < 0:
        raise ValueError("w must be >= 0")
    m_k, n_k = state.m(k), state.n(k)
    if w >= m_k or w >= n_k:
        raise ValueError(f"window half-width {w} must stay below both scales")
    x_runs, x_fail = _one_sided_omega(
        k, w, state.x, state.y, m_k, check_rigidity_x(state, k).passed)
    y_runs, y_fail = _one_sided_omega(
        k, w, state.y, state.x, n_k, check_rigidity_y(state, k).passed)
    params = (("stage", state.stage), ("k", k), ("w", w))
    if x_fail is not None or y_fail is not None:
        side, (center, part) = ("x", x_fail) if x_fail is not None else ("y", y_fail)
        witness = (("side", side), ("center", center), ("part", part))
        report = CheckReport("CROSS_OMEGA", FAIL, params, witness)
    else:
        witness = (("x_runs", len(x_runs)), ("y_runs", len(y_runs)))
        report = CheckReport("CROSS_OMEGA", PASS, params, witness)
    return CrossOmegaWitness(report, tuple(x_runs), tuple(y_runs))

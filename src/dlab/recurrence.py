"""Metric-level recurrence analysis on finite windows of the built points.

The ambient space is metrized with the exact weighted supremum

    d_W(x, y) = max over |i| <= W of 2^(-|i|) |x(i) - y(i)|

whose truncation to radius W is within 2^(-(W+1)) of any deeper radius, since
symbols lie in [0,1].  All arithmetic is exact; window accesses outside the
built range are errors, never implicit zeros, so nothing gets "verified" on
data that was never constructed.

On top of the metric sit the recurrence tools: epsilon-return times of
centred views, the certificate that the built pair never jointly returns (at
every nonzero shift one coordinate is 0 where both centers are 1), and the
escape witnesses: for every window center some multiple r <= 3 of a return
time shifts one sequence onto an all-zero window while the other side moves
by at most 3/k, which is what plants (x, zero) and (zero, y) in the pair's
limit set.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .blocks import Block, common_numerators, shift_violations
from .report import CheckReport, FAIL, PASS, Record
from .thm2 import Thm2State

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


def _spans(positions, w: int) -> list:
    """Merged center ranges [q - w, q + w] of increasing ``positions``, in one
    pass.  Ranges that overlap or touch are joined, so at least one center
    lies between any two spans."""
    spans = []
    for q in positions:
        if spans and q - w <= spans[-1][1] + 1:
            spans[-1][1] = q + w
        else:
            spans.append([q - w, q + w])
    return spans


def _near(positions, j: int, w: int) -> bool:
    """Does some q in the increasing ``positions`` lie in [j - w, j + w]?"""
    i = bisect_left(positions, j - w)
    return i < len(positions) and positions[i] <= j + w


def _assign_runs(blocked: dict, w: int, lo: int, hi: int):
    """Per-center smallest r whose blocking positions are all farther than w
    from the center, as runs over [lo, hi].

    ``blocked`` maps r = 1, 2, 3, in that order, to increasing positions.
    One pointer per r walks that r's spans.  At center j the choice is the
    smallest r whose current span does not cover j.  It holds until a
    smaller r's span ends or the chosen r's next span starts, so the walk
    jumps straight there.  At that point the choice changes: a smaller r is
    free, since merged spans leave a free center between them, or the
    chosen r is covered.  So every run is maximal when it is made.

    Returns (runs, first_failure): runs are (start, end, r) with start..end
    inclusive; first_failure is the smallest center no r frees, or None.
    """
    # Each list ends in a span at hi + 1, which no center reaches.
    choices = [(r, _spans(p, w) + [[hi + 1, hi + 1]]) for r, p in blocked.items()]
    at = [0] * len(choices)
    runs = []
    j = lo
    while j <= hi:
        stop = hi + 1
        for i, (r, spans) in enumerate(choices):
            n = at[i]
            while spans[n][1] < j:
                n += 1
            at[i] = n
            start, end = spans[n]
            if start > j:
                stop = min(stop, start)
                runs.append((j, stop - 1, r))
                j = stop
                break
            stop = min(stop, end + 1)
        else:
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
    nz = block.nonzero_positions
    blocked = {r: [p - r * scale_len for p in nz] for r in (1, 2, 3)}
    runs, failure = _assign_runs(blocked, w, lo, hi)
    params = (
        ("stage", state.stage),
        ("side", side),
        ("k", k),
        ("w", w),
        ("centers", hi - lo + 1),
    )
    if failure is not None:
        report = CheckReport(
            "ESCAPE", FAIL, params, (("center", failure),)
        )
        return WitnessRuns(report, tuple(runs))
    report = CheckReport("ESCAPE", PASS, params, (("runs", len(runs)),))
    return WitnessRuns(report, tuple(runs))


def _one_sided_omega(k: int, w: int, returning: Block, escaping: Block, time: int):
    """Centers where some r <= 3 keeps ``returning`` within 3/k and zeroes ``escaping``."""
    bound = Fraction(3, k)
    lo, hi = _admissible_centers(returning, time, w)
    ret, esc = {}, {}
    for r in (1, 2, 3):
        ret[r] = [q for q, _, _ in shift_violations(returning, r * time, bound)]
        esc[r] = [p - r * time for p in escaping.nonzero_positions]
    # Both lists increase, so the sort is one linear merge of two runs.
    runs, failure = _assign_runs(
        {r: sorted(ret[r] + esc[r]) for r in (1, 2, 3)}, w, lo, hi
    )
    if failure is None:
        return runs, None
    # Classify what blocked the failing center: the return part (a), the
    # escape part (b), or both.
    ret_ok = any(not _near(ret[r], failure, w) for r in (1, 2, 3))
    esc_ok = any(not _near(esc[r], failure, w) for r in (1, 2, 3))
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
    returning block moves by at most 3/k on the window (three applications
    of the 1/k rigidity) and (b) the other block is identically 0 on the
    shifted window.  The x side uses m_k, the y side n_k.
    """
    if w < 0:
        raise ValueError("w must be >= 0")
    m_k, n_k = state.m(k), state.n(k)
    if w >= m_k or w >= n_k:
        raise ValueError(f"window half-width {w} must stay below both scales")
    x_runs, x_fail = _one_sided_omega(k, w, state.x, state.y, m_k)
    y_runs, y_fail = _one_sided_omega(k, w, state.y, state.x, n_k)
    params = (("stage", state.stage), ("k", k), ("w", w))
    if x_fail is not None or y_fail is not None:
        side, (center, part) = (
            ("x", x_fail) if x_fail is not None else ("y", y_fail)
        )
        report = CheckReport(
            "CROSS_OMEGA", FAIL, params,
            (("side", side), ("center", center), ("part", part)),
        )
    else:
        report = CheckReport(
            "CROSS_OMEGA", PASS, params,
            (("x_runs", len(x_runs)), ("y_runs", len(y_runs))),
        )
    return CrossOmegaWitness(report, tuple(x_runs), tuple(y_runs))

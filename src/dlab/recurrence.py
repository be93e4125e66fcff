"""Metric-level recurrence analysis on finite windows of the built points.

The ambient space is metrized with the exact weighted supremum

    d_W(x, y) = max over admissible |i| <= W of 2^(-|i|) |x(i) - y(i)|

whose truncation to radius W is within 2^(-(W+1)) of any deeper radius, since
symbols lie in [0,1].  All arithmetic is rational; window accesses outside
the built range are errors, never implicit zeros, so nothing gets "verified"
on data that was never constructed.

On top of the metric sit the recurrence tools: epsilon-return times of a
shifted view, the certificate that the built pair never jointly returns (at
every nonzero shift one coordinate is 0 where both centers are 1), and the
escape witnesses: for every window center some multiple r <= 3 of a return
time shifts one sequence onto an all-zero window while the other side moves
by at most 3/k, which is what plants (x, zero) and (zero, y) in the pair's
limit set.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction

from .blocks import Block, ZERO, shift_violations
from .report import CheckReport, FAIL, PASS
from .thm2 import Thm2State

ESCAPE_SIDES = ("XatN", "YatM")


def tail_bound(radius: int) -> Fraction:
    """Worst-case contribution of coordinates beyond the radius."""
    return Fraction(1, 2 ** (radius + 1))


@dataclass(frozen=True)
class WindowPoint:
    """A radius-W view of the point T^shift applied to a built block.

    ``min_rel`` is the smallest admissible relative coordinate: 1 for
    one-sided sequences, -radius for centered ones.
    """

    block: Block
    shift: int
    radius: int
    min_rel: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.min_rel not in (1, -self.radius):
            raise ValueError("min_rel must be 1 (one-sided) or -radius (centered)")
        # Fail as early as the view is formed, not on first access.
        self.value(self.min_rel)
        self.value(self.radius)

    def value(self, rel: int) -> Fraction:
        if not self.min_rel <= rel <= self.radius:
            raise IndexError(f"relative index {rel} outside window")
        return self.block[self.shift + rel]

    def shifted(self, n: int) -> "WindowPoint":
        return replace(self, shift=self.shift + n)


def one_sided_point(block: Block, shift: int = 0, radius: int = 8) -> WindowPoint:
    return WindowPoint(block, shift, radius, 1)


def centered_point(block: Block, shift: int = 0, radius: int = 8) -> WindowPoint:
    return WindowPoint(block, shift, radius, -radius)


def window_distance(p: WindowPoint, q: WindowPoint) -> Fraction:
    """Exact d_W between two equal-shape views."""
    if p.radius != q.radius or p.min_rel != q.min_rel:
        raise ValueError("window shapes differ")
    best = ZERO
    for rel in range(p.min_rel, p.radius + 1):
        d = p.value(rel) - q.value(rel)
        if d < 0:
            d = -d
        if d:
            d = d / (1 << abs(rel))
            if d > best:
                best = d
    return best


def point_distance(p, q) -> Fraction:
    """window_distance extended to pairs of views with the max product metric."""
    if isinstance(p, WindowPoint):
        return window_distance(p, q)
    return max(window_distance(a, b) for a, b in zip(p, q))


def _shift_point(p, n: int):
    if isinstance(p, WindowPoint):
        return p.shifted(n)
    return tuple(v.shifted(n) for v in p)


def epsilon_recurrence_times(p, epsilon: Fraction, horizon: int) -> list:
    """All n in [1, horizon] with d(T^n p, p) < epsilon, increasing.

    ``p`` is a WindowPoint or a pair of them (product system).  Every access
    must stay inside the built blocks; the extreme shift is range-checked up
    front so a too-large horizon fails before any partial scan.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _shift_point(p, horizon)  # raises if the deepest shift leaves the block
    times = []
    for n in range(1, horizon + 1):
        if point_distance(_shift_point(p, n), p) < epsilon:
            times.append(n)
    return times


def pair_separation_check(state: Thm2State, horizon: int) -> CheckReport:
    """The built pair stays at product distance >= 1 from itself at every shift.

    Passes iff x(0) = y(0) = 1 and min(x(n), y(n)) = 0 for every n in
    [1, horizon]: coordinate 0 of the shifted pair then differs from 1 by
    exactly 1 on at least one side.
    """
    if not 1 <= horizon <= state.half_width:
        raise ValueError(
            f"horizon {horizon} outside usable range 1..{state.half_width}"
        )
    params = (("stage", state.stage), ("horizon", horizon))
    if state.x[0] != 1 or state.y[0] != 1:
        return CheckReport(
            "PAIR_SEP", FAIL, params,
            (("pos", 0), ("x", state.x[0]), ("y", state.y[0])),
        )
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


def _merge_intervals(intervals: list) -> list:
    """Merge possibly overlapping closed integer intervals."""
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + 1:
            if hi > mhi:
                merged[-1] = (mlo, hi)
        else:
            merged.append((lo, hi))
    return merged


def _center_intervals(positions, w: int, lo: int, hi: int) -> list:
    """Merged centers j in [lo, hi] within distance w of one of ``positions``."""
    return _merge_intervals([
        (max(q - w, lo), min(q + w, hi))
        for q in positions
        if q + w >= lo and q - w <= hi
    ])


def _in_intervals(merged: list, j: int) -> bool:
    idx = bisect_right(merged, (j, float("inf"))) - 1
    return idx >= 0 and merged[idx][0] <= j <= merged[idx][1]


def _assign_runs(bad_by_r: dict, lo: int, hi: int):
    """Per-center smallest r whose interval set misses the center, as runs.

    Returns (runs, first_failure): runs are (start, end, r) with start..end
    inclusive; first_failure is the smallest center no r covers, or None.
    """
    cuts = {lo, hi + 1}
    for merged in bad_by_r.values():
        for a, b in merged:
            if a > hi or b < lo:
                continue
            cuts.add(max(a, lo))
            cuts.add(min(b, hi) + 1)
    points = sorted(cuts)
    runs = []
    for start, stop in zip(points, points[1:]):
        choice = None
        for r in sorted(bad_by_r):
            if not _in_intervals(bad_by_r[r], start):
                choice = r
                break
        if choice is None:
            return runs, start
        if runs and runs[-1][2] == choice and runs[-1][1] == start - 1:
            runs[-1] = (runs[-1][0], stop - 1, choice)
        else:
            runs.append((start, stop - 1, choice))
    return runs, None


@dataclass(frozen=True)
class WitnessRuns:
    """A per-center choice map compressed into constant runs."""

    report: CheckReport
    runs: tuple

    @property
    def passed(self) -> bool:
        return self.report.passed


def _escape_params(state: Thm2State, side: str, k: int):
    if side == "XatN":
        return state.x, state.n(k)
    if side == "YatM":
        return state.y, state.m(k)
    raise ValueError(f"side must be one of {ESCAPE_SIDES}, got {side!r}")


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
    block, scale_len = _escape_params(state, side, k)
    if w < 0:
        raise ValueError("w must be >= 0")
    if w >= scale_len:
        raise ValueError(f"window half-width {w} must stay below the scale {scale_len}")
    lo, hi = _admissible_centers(block, scale_len, w)
    nz = block.nonzero_positions
    bad = {
        r: _center_intervals([p - r * scale_len for p in nz], w, lo, hi)
        for r in (1, 2, 3)
    }
    runs, failure = _assign_runs(bad, lo, hi)
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


def _one_sided_omega(
    state: Thm2State, k: int, w: int, returning: Block, escaping: Block, time: int
):
    """Centers where some r <= 3 keeps ``returning`` within 3/k and zeroes ``escaping``."""
    bound = Fraction(3, k)
    lo, hi = _admissible_centers(returning, time, w)
    ret_bad, esc_bad, bad = {}, {}, {}
    for r in (1, 2, 3):
        moved = shift_violations(returning, r * time, bound)
        ret_bad[r] = _center_intervals([q for q, _, _ in moved], w, lo, hi)
        zeroed = [p - r * time for p in escaping.nonzero_positions]
        esc_bad[r] = _center_intervals(zeroed, w, lo, hi)
        bad[r] = _merge_intervals(ret_bad[r] + esc_bad[r])
    runs, failure = _assign_runs(bad, lo, hi)
    if failure is None:
        return runs, None
    # Classify what blocked the failing center: the return part (a), the
    # escape part (b), or both.
    ret_ok = any(not _in_intervals(ret_bad[r], failure) for r in (1, 2, 3))
    esc_ok = any(not _in_intervals(esc_bad[r], failure) for r in (1, 2, 3))
    part = "ab"
    if ret_ok and not esc_ok:
        part = "b"
    elif esc_ok and not ret_ok:
        part = "a"
    return runs, (failure, part)


@dataclass(frozen=True)
class CrossOmegaWitness:
    report: CheckReport
    x_side_runs: tuple  # r-choices planting (x, zero): x returns, y escapes
    y_side_runs: tuple  # r-choices planting (zero, y): y returns, x escapes

    @property
    def passed(self) -> bool:
        return self.report.passed


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
    x_runs, x_fail = _one_sided_omega(state, k, w, state.x, state.y, m_k)
    y_runs, y_fail = _one_sided_omega(state, k, w, state.y, state.x, n_k)
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

"""Stagewise construction of the one-sided rigid point and its finite verifiers.

Stage 1 is the block ``1 0 0`` at positions 1..3.  Each stage appends scaled
copies of the previous stage:

    next = prev prev ((m/(m+1)) prev) ((m-1)/(m+1) prev) ... ((1/(m+1)) prev) (0 prev)

so stage m+1 has (m+3) copies of stage m and length (m+3) * n_m.  The prefix
is never rewritten, only extended.  The verifiers certify, on the finite
prefix, the three properties the construction is designed for:

  C1     unbounded zero-runs immediately followed by the symbol 1
  C3     shift-by-n_k rigidity, strict 1/k bound, gated on a nonzero window
  C2PRIME  smallness propagation: a symbol exceeds the next n_j symbols'
           maximum by at most 1/(j+1)  (non-strict; the bound is attained)
  TAILS  the final (stage+1) symbols are 0

plus a diagnostic falsifier for the uncorrected smallness statement (hypothesis
over k symbols with bound 1/k), which the constructed point itself refutes.

C3 and C2PRIME scan each scale only where its smallest failure can lie.
Write B_r for the stage-r block, the first n_r symbols of the prefix.  A test
at position q reads the span q+left .. q+right, with (left, right) =
(1-k, n_k+k-1) for C3 at scale k and (0, n_j) for C2PRIME at scale j.
Suppose B_r is a row of copies c*B_{r-1} at pitch L = n_{r-1}, each with
0 <= c <= 1, and that some test fails at a position q past B_{k+1}.  Take
the smallest B_r that holds q; q lies in its copy j >= 1.  If the span
crosses no seam of B_r or of a later block, it lies inside copy j, or runs
from it past the end of the prefix.  A copy with c = 0 is all zeros and
breaks neither bound.  Otherwise the test at q - jL fails too: c <= 1 only
shrinks differences, c > 0 keeps the nonzero pattern that the C3 gate
reads, and a span that the end of the prefix cuts short is cut no shorter
jL positions earlier.  So the smallest failing position of scale k lies in
B_{k+1}, or its span crosses a seam jL of some later B_r, which puts it in
[jL - right + 1, jL - left].  Those ranges, taken seam by seam after B_{k+1},
increase by both start and end, so the first hit in them is the smallest
failing position: the first (k, pos) witness of a scan of the whole prefix,
which finds no failure where they find none.  For the newest scale,
k = stage - 1, B_{k+1} already is the whole prefix.

C3 narrows B_{k+1} itself by the ratio steps.  B_{k+1} is J copies c_j*B_k
at pitch n_k.  For q in copy j <= J-2, the pair (q, q + n_k) reads
c_j*B_k(o) and c_{j+1}*B_k(o) at one offset o, and B_k <= 1, so the pair is
at most |c_j - c_{j+1}| apart: it can reach the bound 1/k only if that step
does.  For q in the last copy, q + n_k lies past B_{k+1}: past the prefix
when B_{k+1} is all of it, so no test runs there, and otherwise the span
crosses the seam n_{k+1} of B_{k+2}, whose range [n_{k+1} - n_k - k + 2,
n_{k+1} + k - 1] holds the whole last copy.  So C3 scans, of B_{k+1}, only
the copies j <= J-2 with a step of 1/k or more, which end before that seam
range does and start before it.  The list still increases by start and end,
and the first hit is the flat scan's first witness.  In the construction
every step is 0 or 1/(k+1) < 1/k: the newest scale scans nothing, and an old
scale only its seam ranges.  C2PRIME's span reads a maximum across copies,
so it keeps the whole of B_{j+1}.

The ranges need the copy layout, and ``Thm1State.copy_ratios`` checks it
exactly, once per state, for every r >= 2.  If the audit refuses, each scale
is scanned over the whole prefix.

C3's gate says where a failure can lie before any pair is compared.  The
gate of q reads the window starts max(1, q-k+1) .. min(q, last - n_k - k + 1)
and the k symbols of each, so the positions max(1, q-k+1) .. min(q+k-1,
last - n_k): it sees a nonzero exactly when one lies within k - 1 of q and
at most at last - n_k.  So the pairs are walked from the run of positions
around the first such nonzero.  A pair the gate refuses at q has no such
nonzero within k - 1, so the walk resumes at once, by bisection, at p - k + 1
for the next such nonzero p, the next position the gate passes, if any.

The top stage need not be built.  ``step(state, flat=False)`` keeps B_s as a
``CopyLayout``: the flat B_{s-1} as copy 0 and the ratios c_j, so it stores
s!/2 nonzeros, not (s+1)!/2.  The record's checks are ``step``'s, raised
without ``assert``: every c_j in [0, 1] (``CopyLayout``), a pitch of n_{s-1}
and c_0 = 1, so B_s extends B_{s-1} (``Thm1State``), and the stage's length
and zero tail (``step``).  Each verifier has one implementation, which reads
the prefix as a row of copies; a flat prefix is a row of one copy.

  C3, C2PRIME  The scan ranges above need the ratios of every B_r: those of
      B_2..B_{s-1} are audited on copy 0, which is B_{s-1}, and those of B_s
      are the record's.  Each range is cut at copy seams, so the positions a
      scan reads, at most n_k <= n_{s-1} past its own, meet at most two
      adjacent copies, and a cover of them is all it builds.
  C1  A 1 in copy j is c_j*v with c_j = 1 and v = 1, both being at most 1,
      so copy j holds 1s only if c_j = 1, and then at copy 0's offsets.  The
      zeros before each are copy 0's, except before the copy's first nonzero,
      where the run reaches back across the seam to the last nonzero of an
      earlier copy.  Copy 0 comes first and a later run must be longer to
      replace the witness, so copy 0's scan is improved only there.
  TAILS  The zeros after the last nonzero of the last copy with c_j > 0.
  LITERAL2  At p in copy j >= 1 whose window p+1..p+kmax stays in copy j,
      the symbol and its window are c_j times copy 0's at the same offset,
      and c_j*(v - eps) > 1/k implies v - eps > 1/k: a witness there has one
      in copy 0, earlier.  So the first witness lies at a position of copy 0
      with a whole window, or else among the last kmax + 1 positions of a
      copy, whose windows cross a seam or meet the end; those read covers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, repeat
from operator import eq, sub

from .blocks import (
    DEFAULT_MAX_NONZEROS,
    Block,
    CopyLayout,
    InvariantError,
    ZERO,
    check_admissible,
    check_cap,
    common_numerators,
    concat_all,
    scale,
    shift_violations,
    window,
)
from .report import CheckReport, FAIL, INFO, PASS, Record

ONE = Fraction(1)


class Thm1State(Record):
    """Construction state: lengths n_1..n_stage (so stage = their count) and the prefix.

    The prefix is B_stage, flat, or its ``CopyLayout``: copies c_j * B_{stage-1}
    at pitch n_{stage-1} with c_0 = 1, which is never built (module docstring).
    """

    _fields = ("lengths", "prefix")
    __slots__ = ("lengths", "prefix", "__dict__")  # __dict__ holds copy_ratios

    def __init__(self, lengths: tuple, prefix: "Block | CopyLayout"):
        n = lengths
        if not (
            n
            and all(isinstance(v, int) for v in n)
            and n[0] >= 1
            and all(map(int.__lt__, n, n[1:]))
        ):
            raise ValueError(
                f"stage lengths {n!r} are not strictly increasing positive ints"
            )
        p = prefix
        if isinstance(p, CopyLayout):
            if len(n) < 2 or p.pitch != n[-2]:
                raise ValueError(
                    f"layout pitch {p.pitch} is not the previous stage length "
                    f"(lengths {n!r})"
                )
            if p.ratios[0] != 1:
                raise ValueError(
                    f"layout copy 0 is scaled by {p.ratios[0]}: the prefix does "
                    f"not extend stage {len(n) - 1}"
                )
        if p.base != 1 or len(p) != n[-1]:
            raise ValueError("prefix does not match recorded length")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "prefix", prefix)

    @property
    def stage(self) -> int:
        return len(self.lengths)

    @property
    def length(self) -> int:
        return self.lengths[-1]

    @cached_property
    def copy_ratios(self) -> "tuple | None":
        """The ratios c_j of each B_r, r >= 2, as a row of copies c_j * B_{r-1}.

        Entry r - 2 lists c_0 = 1, c_1, ... for B_r, or the whole is None if
        some B_r is not such a row with every 0 <= c_j <= 1.  For each r >= 2,
        with L = n_{r-1}, it checks exactly:
          - n_r is a multiple of L;
          - copy j (positions jL+1 .. (j+1)L) holds no nonzero (c_j = 0), or
            its nonzero positions are copy 0's shifted by jL;
          - its numerators are then copy 0's times one ratio c_j <= 1.
        Copy 0 is B_{r-1} itself.  The C3 and C2PRIME seam scans need this
        layout, and C3 reads the steps c_j - c_{j+1}; computed once per state.
        A numerator n * c_j must be an integer, so the product is formed once
        per distinct numerator of copy 0 and the copy compares as one list.
        For a layout, B_2..B_{stage-1} are audited on copy 0, and the entry for
        B_stage is the layout's own ratios, which define it.
        """
        if isinstance(self.prefix, CopyLayout):
            below = Thm1State(self.lengths[:-1], self.prefix.copy0).copy_ratios
            return None if below is None else below + (self.prefix.ratios,)
        nz = self.prefix.nonzero_positions
        _, nums = common_numerators(self.prefix)
        layout = []
        for size, total in zip(self.lengths, self.lengths[1:]):
            if total % size:
                return None
            cut = [bisect_right(nz, end) for end in range(0, total + 1, size)]
            pos0, num0 = nz[: cut[1]], nums[: cut[1]]
            distinct = set(num0)
            ratios = [Fraction(1)]
            for j in range(1, len(cut) - 1):
                a, b = cut[j], cut[j + 1]
                if a == b:
                    ratios.append(ZERO)
                    continue
                if b - a != len(pos0):
                    return None
                shift = j * size
                if not all(map(eq, map(sub, nz[a:b], pos0), repeat(shift))):
                    return None
                top, bottom = nums[a], num0[0]  # c_j = top / bottom
                if top > bottom:
                    return None
                image = {n: n * top // bottom for n in distinct if not n * top % bottom}
                if len(image) < len(distinct):
                    return None  # some n * c_j is not an integer
                if nums[a:b] != list(map(image.__getitem__, num0)):
                    return None
                ratios.append(Fraction(top, bottom))
            layout.append(tuple(ratios))
        return tuple(layout)


def initial_state() -> Thm1State:
    return Thm1State((3,), Block([1, 0, 0], base=1))


def _ratios(m: int) -> tuple:
    """The ratios of stage m+1's copies of stage m: 1, 1, m/(m+1), ..., 1/(m+1), 0."""
    return (ONE, ONE, *(Fraction(r, m + 1) for r in range(m, -1, -1)))


def step(state: Thm1State, flat: bool = True) -> Thm1State:
    """Extend by one stage per the copy formula; length grows by factor m+3.

    With ``flat=False`` the new stage is kept as the ``CopyLayout`` of those
    copies of the (flat) prefix, and nothing is built.
    """
    m = state.stage
    prev = state.prefix
    row = CopyLayout(prev, _ratios(m))
    nxt = concat_all([scale(c, prev) for c in row.ratios], base=1) if flat else row
    if len(nxt) != (m + 3) * len(prev):
        raise InvariantError(
            f"stage {m + 1} has length {len(nxt)}, expected {m + 3} x {len(prev)}"
        )
    # Extension only: the new prefix starts with the old one, which is a
    # layout's copy 0 itself.
    if flat and window(nxt, prev.base, prev.last) != prev:
        raise InvariantError(f"stage {m + 1} does not extend stage {m}")
    # Zero tail grows past the m+2 the next stage requires.
    if nxt.trailing_zero_run() < m + 2:
        raise InvariantError(
            f"stage {m + 1} ends in {nxt.trailing_zero_run()} zeros, need {m + 2}"
        )
    return Thm1State(state.lengths + (len(nxt),), nxt)


def predicted_length(m: int) -> int:
    """Length of the stage-m prefix: 3 times 4 * 5 * ... * (m + 2) copies."""
    return math.factorial(m + 2) // 2


def predicted_nonzeros(m: int) -> int:
    """Nonzeros the stage-m prefix stores: stage j+1 keeps j+2 nonzero copies."""
    return math.factorial(m + 1) // 2


def build(m: int, max_nonzeros: int = DEFAULT_MAX_NONZEROS) -> Thm1State:
    """Build the stage-m state; refuses one over ``max_nonzeros`` before allocating.

    The cap counts the nonzeros the stage stores, (m+1)!/2.  A caller that
    writes every position (TDSEQ 1) checks ``predicted_length`` itself.
    """
    if m < 1:
        raise ValueError("stage must be >= 1")
    check_cap(m, max_nonzeros, predicted_nonzeros, "stores {} nonzeros")
    state = initial_state()
    for _ in range(m - 1):
        state = step(state)
    return state


# -- verifiers ---------------------------------------------------------------


def check_c1(state: Thm1State, kmax: int) -> CheckReport:
    """Some position carries k zeros immediately followed by a 1, for each k <= kmax.

    Equivalent to: the longest zero-run immediately preceding a 1 is >= kmax.
    Reports the maximal k found and where.  A 1 is a numerator equal to the
    common denominator D, and ``list.index`` finds each such nonzero at C
    speed, so the Python loop runs once per 1, not once per nonzero.  Copy 0
    is scanned so; a later copy with c_j = 1 can only improve on it at its
    first nonzero, whose run reaches back across the seam (module docstring).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    row = CopyLayout.of(state.prefix)
    nz = row.copy0.nonzero_positions
    den, nums = common_numerators(row.copy0)
    best_k = 0
    best_pos = None
    i = -1
    for _ in range(nums.count(den)):
        i = nums.index(den, i + 1)
        run = nz[i] - (nz[i - 1] if i else 0) - 1
        if run > best_k:
            best_k, best_pos = run, nz[i]
    if nz and nums[0] == den:
        end = None  # the last nonzero before copy j
        for j, c in enumerate(row.ratios):
            start = j * row.pitch
            if j and c == 1 and start + nz[0] - end - 1 > best_k:
                best_k, best_pos = start + nz[0] - end - 1, start + nz[0]
            if c:
                end = start + nz[-1]
    params = (("stage", state.stage), ("kmax", kmax))
    witness = (("max_run", best_k), ("one_at", best_pos))
    verdict = PASS if best_k >= kmax else FAIL
    return CheckReport("C1", verdict, params, witness)


def _scan_ranges(
    state: Thm1State, k: int, left: int, right: int, step_bound=None
) -> list:
    """Ranges (lo, hi) of positions that hold scale k's smallest failure, if any.

    A test at q reads the span q + left .. q + right.  The ranges are B_{k+1},
    then, for each seam jL of every later B_r, the positions whose span
    crosses it (module docstring; positions count from 1, so seam jL sits
    after position jL).  With ``step_bound`` (C3's 1/k), B_{k+1} narrows to
    its copies j <= J-2 whose ratio step |c_j - c_{j+1}| reaches the bound.
    Without an audited copy layout, the whole prefix.
    """
    n = state.lengths
    if state.copy_ratios is None:
        return [(1, state.length)]
    if step_bound is None:
        ranges = [(1, n[k])]
    else:
        size, c = n[k - 1], state.copy_ratios[k - 1]
        ranges = [
            (j * size + 1, (j + 1) * size)
            for j in range(len(c) - 1)
            if abs(c[j] - c[j + 1]) >= step_bound
        ]
    for size, last in zip(n[k:], n[k + 1 :]):
        ranges.extend((seam - right + 1, seam - left) for seam in range(size, last, size))
    return ranges


def _first_failure(state: Thm1State, top: int, first, span):
    """``(k, hit)`` at the smallest failing scale k <= top, or None.

    ``first(row, k, n_k, lo, hi)`` returns the first hit of the scale-k test
    at positions lo..hi of the row of copies, reading at most n_k past hi, and
    ``span(k, n_k)`` the offsets (left, right) of the span the test at q
    reads, then C3's ratio-step bound; the first hit over ``_scan_ranges`` is
    smallest.  Each range goes in the row's ``pieces``, one per copy it meets,
    so that the reads of each meet at most two copies.
    """
    row = CopyLayout.of(state.prefix)
    for k in range(1, top + 1):
        n_k = state.lengths[k - 1]
        for lo, hi in _scan_ranges(state, k, *span(k, n_k)):
            for _, lo, hi in row.pieces(lo, hi):
                hit = first(row, k, n_k, lo, hi)
                if hit is not None:
                    return k, hit
    return None


def _c3_first(row: CopyLayout, k: int, n_k: int, lo: int, hi: int):
    """First gated C3 failure ``(q, value, shifted)`` with lo <= q <= hi.

    The pair (q, q + n_k) lies in the row, and the gate of q passes exactly
    when a nonzero p <= last - n_k lies within k - 1 of q (module docstring):
    the candidates are runs of positions around those nonzeros.
    ``shift_violations`` in its at-bound mode walks the pairs.  Where its
    reads lie in copy 0, which is built, one walk crosses the gaps between
    runs; elsewhere each run is walked on a cover of what it reads.  A walk
    resumes at the next run at its first refused pair (module docstring).
    """
    limit = row.last - n_k  # the last position a gate reads
    lo, hi = max(lo, 1), min(hi, limit)
    if limit - k + 1 < 1:
        return None  # no admissible window start
    built = hi + n_k <= row.pitch
    if built:
        nz = row.copy0.nonzero_positions
    else:
        nz = row.nonzero_in(lo - k + 1, min(hi + k - 1, limit))
    bound = Fraction(1, k)
    while True:  # each pass returns or moves lo past a walked pair
        i = bisect_left(nz, lo - k + 1)  # the first nonzero whose run reaches lo
        if i == len(nz) or nz[i] > limit:
            return None
        lo, end = max(lo, nz[i] - k + 1), i
        if lo > hi:
            return None
        if not built:  # the run ends where nonzeros are more than 2k - 2 apart
            while end + 1 < len(nz) and nz[end + 1] - nz[end] <= 2 * k - 2:
                end += 1
        b = hi if built else min(hi, nz[end] + k - 1)
        part = row.pair_cover(lo, b, n_k)
        hit = next(shift_violations(part, n_k, bound, at_bound=True, lo=lo, hi=b), None)
        if hit is None:
            lo = b + 1
            continue
        g = bisect_left(nz, hit[0] - k + 1)
        if g < len(nz) and nz[g] <= min(hit[0] + k - 1, limit):
            return hit
        lo = hit[0] + 1  # refused: the top finds the next run, past the gap


def check_c3(state: Thm1State, kmax: int) -> CheckReport:
    """Strict rigidity: shifting by n_k moves no symbol by 1/k or more.

    For every k <= kmax and every position i with i + n_k + k - 1 in range,
    if the window x(i..i+k-1) is not identically 0 then
    max_{0<=d<k} |x(i+d) - x(i+n_k+d)| < 1/k.

    ``shift_violations`` in its at-bound mode lists the pairs (q, q+n_k) that
    break the bound, in increasing q, on the runs of positions whose gating
    windows see a nonzero; the first is the failure.  Reports it as
    (k, position) with both values, smallest k first, then smallest position.

    On an audited state scale k is scanned on the copies of B_{k+1} whose
    ratio step reaches 1/k, then only at q in [jL - n_k - k + 2, jL + k - 1]
    around seams (module docstring).
    """
    check_admissible("kmax", kmax, state.stage)
    params = (("stage", state.stage), ("kmax", kmax))
    found = _first_failure(
        state, kmax, _c3_first, lambda k, n_k: (1 - k, n_k + k - 1, Fraction(1, k))
    )
    if found is None:
        return CheckReport("C3", PASS, params)
    k, (q, value, shifted) = found
    return CheckReport(
        "C3",
        FAIL,
        params,
        (
            ("k", k),
            ("pos", q),
            ("value", value),
            ("shifted", shifted),
            ("bound", Fraction(1, k)),
        ),
    )


def _c2prime_first(row: CopyLayout, j: int, n_j: int, lo: int, hi: int):
    """First C2PRIME failure ``(p, value, window_max)``, lo <= p <= hi, p + n_j <= last."""
    lo, hi = max(lo, 1), min(hi, row.last - n_j)
    if lo > hi:
        return None
    part = row.cover(lo, hi + n_j)
    nz = part.nonzero_positions
    den, nums = common_numerators(part)
    a, b = bisect_left(nz, lo), bisect_right(nz, hi)
    # Both ends of the window (p, p + n_j] only move right, so its maximum is
    # the front of a deque of nonzero indices with decreasing numerators.
    window = deque()
    r = a  # the next nonzero index to enter a window
    for i in compress(range(a, b), map((den // (j + 1)).__lt__, islice(nums, a, b))):
        p = nz[i]
        while window and window[0] <= i:
            window.popleft()
        r = max(r, i + 1)
        while r < len(nz) and nz[r] <= p + n_j:
            while window and nums[window[-1]] <= nums[r]:
                window.pop()
            window.append(r)
            r += 1
        eps = nums[window[0]] if window else 0
        if (nums[i] - eps) * (j + 1) > den:
            return p, part[p], Fraction(eps, den)
    return None


def check_c2prime(state: Thm1State, jmax: int) -> CheckReport:
    """Smallness propagation: x(i) <= max(next n_j symbols) + 1/(j+1), non-strict.

    Symbols are integer numerators over their common denominator D.  The
    window maximum is >= 0, so only a nonzero whose numerator exceeds
    D // (j+1) can break the bound, and the scan visits those alone, reading
    the maximum of the nonzeros in (p, p + n_j] for each off one sliding
    maximum.  The bound is attained with equality inside the construction,
    which is why a failure needs (value - window_max) * (j+1) > D strictly.

    On an audited state an old scale is scanned on B_{j+1}, then only at p in
    [jL - n_j + 1, jL] around seams (module docstring).
    """
    check_admissible("jmax", jmax, state.stage)
    params = (("stage", state.stage), ("jmax", jmax))
    found = _first_failure(state, jmax, _c2prime_first, lambda j, n_j: (0, n_j))
    if found is None:
        return CheckReport("C2PRIME", PASS, params)
    j, (p, value, eps) = found
    return CheckReport(
        "C2PRIME",
        FAIL,
        params,
        (
            ("j", j),
            ("pos", p),
            ("value", value),
            ("window_max", eps),
            ("slack", Fraction(1, j + 1)),
        ),
    )


def check_tails(state: Thm1State) -> CheckReport:
    """The final stage+1 symbols of the prefix are 0."""
    need = state.stage + 1
    run = state.prefix.trailing_zero_run()
    params = (("stage", state.stage), ("required", need))
    if run >= need:
        return CheckReport("TAILS", PASS, params, (("zero_run", run),))
    return CheckReport("TAILS", FAIL, params, (("zero_run", run),))


def _literal_first(block: Block, positions, kmax: int, last: int):
    """First ``(p, k, value, window_max)`` over ``positions`` of ``block``, windows clipped at last."""
    for p in positions:
        a = block[p]
        eps = ZERO
        # b_{k+1} must exist, so the window needs k+1 symbols after p.
        for k in range(1, min(kmax, last - p - 1) + 1):
            v = block[p + k]
            if v > eps:
                eps = v
            if a > eps + Fraction(1, k):
                return p, k, a, eps
    return None


def literal_smallness_falsifier(state: Thm1State, kmax: int) -> CheckReport:
    """Diagnostic: search for a window refuting the uncorrected smallness bound.

    The uncorrected statement reads: if the k symbols after position i are
    all <= eps then x(i) <= eps + 1/k.  The built point refutes it (take eps
    to be the window maximum).  INFO either way; the witness, when found, is
    the first (position, k) in lexicographic scan order.  It is sought in copy
    0 and then at the end of each copy (module docstring), so on a layout
    ``kmax`` may not exceed the pitch.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    row = CopyLayout.of(state.prefix)
    pitch, last = row.pitch, row.last
    if len(row.ratios) > 1 and kmax > pitch:
        raise ValueError(f"kmax={kmax} exceeds the layout pitch {pitch}")
    params = (("stage", state.stage), ("kmax", kmax))
    inner = pitch - kmax  # the last copy-0 position whose window stays in it
    hit = _literal_first(row.copy0, row.copy0.nonzero_in(1, inner), kmax, last)
    for t, c in enumerate(row.ratios):
        if hit is not None:
            break
        if c:
            lo, hi = t * pitch + max(inner + 1, 1), (t + 1) * pitch
            part = row.cover(lo, min(hi + kmax, last))
            hit = _literal_first(part, part.nonzero_in(lo, hi), kmax, last)
    if hit is None:
        return CheckReport("LITERAL2_FALSIFIER", INFO, params, (("found", False),))
    p, k, a, eps = hit
    return CheckReport(
        "LITERAL2_FALSIFIER",
        INFO,
        params,
        (("found", True), ("pos", p), ("k", k), ("value", a), ("window_max", eps)),
    )


def stage_reports(state: Thm1State, kmax: int, jmax: "int | None" = None) -> list:
    """The reports of ``dlab thm1 verify``: C1 for k <= kmax, C2PRIME for
    j <= jmax, C3 and LITERAL2 for k <= min(kmax, stage - 1), and TAILS.
    ``jmax`` defaults to min(kmax, stage - 1)."""
    c3_kmax = min(kmax, state.stage - 1)
    return [
        check_c1(state, kmax),
        check_c2prime(state, c3_kmax if jmax is None else jmax),
        check_c3(state, c3_kmax),
        literal_smallness_falsifier(state, c3_kmax),
        check_tails(state),
    ]

"""Paired centered blocks with orthogonal supports, and the spacer solver.

Stage 1 is the single symbol 1 at position 0 for both blocks.  A stage step
surrounds each block with 2r scaled copies of itself and zero spacers:

    x_next = v (1/(r+1) x) u ... u (r/(r+1) x) u x u (r/(r+1) x) u ... u (1/(r+1) x) v

with u, v zero blocks of lengths s, t; the partner block y uses lengths
s', t'.  Both results have the same odd length and keep position 0 on the
unscaled central copy, so earlier stages are never rewritten.  The step
defines the return times

    m_r = len + s      (pitch between copy bases on the x side)
    n_r = len + s'     (pitch on the y side)

The verifiers certify on the finite blocks:

    I / II      shift by m_k / n_k moves no symbol of x / y by more than 1/k
    III / IV    phased sparseness: some length-n_k (resp. m_k) partition has
                at most one nonzero block among any three consecutive
    V           supports meet only at position 0, where both symbols are 1
    Z           leading/trailing zero runs cover 2x every defined time

plus the sliding-window falsifier (the any-offset reading of III fails as
soon as two nonzeros sit within one block length) and the weakened rigidity
that survives the transitive interleave (repeat at distance m_k OR n_k).

The solver picks spacer lengths by seeding congruences that keep copy
placement phase-aligned across stages, then doubling sp until III holds at
the new scale; it builds each stage once and verifies nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import le, sub

from .blocks import (
    DEFAULT_MAX_NONZEROS_PER_BLOCK,
    Block,
    InvariantError,
    check_admissible,
    check_cap,
    concat_all,
    scale,
    shift_violations,
    window,
    zeros,
)
from .report import CheckReport, FAIL, INFO, PASS, Record


class SpacerChoice(Record):
    """Zero-block lengths s for the x side and (sp, tp) for the y side; t is computed."""

    __slots__ = _fields = ("s", "sp", "tp")

    def __init__(self, s: int, sp: int, tp: int):
        if min(s, sp, tp) < 0:
            raise ValueError("spacer lengths must be nonnegative")
        if sp <= s:
            raise ValueError(f"need sp > s, got sp={sp} s={s}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "sp", sp)
        object.__setattr__(self, "tp", tp)

    def t(self, r: int) -> int:
        """x's end length at step r: the length identity 2t + 2r*s = 2tp + 2r*sp
        (x and y of stage r + 1 have one length) solved for t."""
        return self.tp + r * (self.sp - self.s)

    def log_line(self, r: int) -> str:
        return f"SPACERS r={r} s={self.s} t={self.t(r)} sp={self.sp} tp={self.tp}"


class Thm2State(Record):
    """Stage state: the two centered blocks, the times defined so far, history.
    The stage is computed, len(m_times) + 1: each step defines one m_r, n_r."""

    __slots__ = _fields = ("x", "y", "m_times", "n_times", "spacers", "transitive")

    def __init__(
        self,
        x: Block,
        y: Block,
        m_times: tuple,
        n_times: tuple,
        spacers: tuple,
        transitive: bool = False,
    ):
        if len(x) != len(y):
            raise ValueError("blocks must share a common length")
        if len(x) % 2 == 0:
            raise ValueError("common length must be odd")
        half = (len(x) - 1) // 2
        if x.base != -half or y.base != -half:
            raise ValueError("blocks must be center-indexed")
        if x[0] != 1 or y[0] != 1:
            raise ValueError("central symbols must equal 1")
        if len(m_times) != len(n_times):
            raise ValueError("m and n time histories must have equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "m_times", m_times)
        object.__setattr__(self, "n_times", n_times)
        object.__setattr__(self, "spacers", spacers)
        object.__setattr__(self, "transitive", transitive)

    @property
    def stage(self) -> int:
        return len(self.m_times) + 1

    @property
    def common_length(self) -> int:
        return len(self.x)

    @property
    def half_width(self) -> int:
        return (len(self.x) - 1) // 2

    def times_max(self) -> int:
        """Largest defined return time (0 at stage 1)."""
        return max(self.m_times + self.n_times, default=0)

    def m(self, k: int) -> int:
        check_admissible("k", k, self.stage)
        return self.m_times[k - 1]

    def n(self, k: int) -> int:
        check_admissible("k", k, self.stage)
        return self.n_times[k - 1]


def initial_state() -> Thm2State:
    one = Block([1], base=0)
    return Thm2State(one, one, (), (), ())


def _centered(parts, gap: int, end: int) -> Block:
    """end zeros, the parts separated by gap zeros, end zeros; centered at 0."""
    laid = [zeros(end)] if end else []
    for idx, part in enumerate(parts):
        if idx > 0 and gap:
            laid.append(zeros(gap))
        laid.append(part)
    if end:
        laid.append(zeros(end))
    length = sum(len(b) for b in laid)
    return concat_all(laid, base=-(length - 1) // 2)


def _surround(block: Block, r: int, gap: int, end: int) -> Block:
    """v copy u copy ... u copy v with 2r+1 scaled copies, centered."""
    scales = [Fraction(i, r + 1) for i in range(1, r + 1)]
    scales = scales + [Fraction(1)] + scales[::-1]
    # Consecutive copy scales differ by exactly 1/(r+1) <= 1/r.
    if any(
        abs(scales[i] - scales[i + 1]) != Fraction(1, r + 1)
        for i in range(len(scales) - 1)
    ):
        raise InvariantError(f"copy scales {scales} do not step by 1/{r + 1}")
    out = _centered([scale(tscale, block) for tscale in scales], gap, end)
    length = 2 * end + (2 * r + 1) * len(block) + 2 * r * gap
    if len(out) != length:
        raise InvariantError(f"surround gave length {len(out)}, expected {length}")
    return out


def build_stage(state: Thm2State, choice: SpacerChoice) -> Thm2State:
    """One construction step; defines m_r and n_r and re-centers the result.

    Stores 2r+1 scaled copies of each block's nonzeros; there is no cap here,
    since ``build_to_stage`` caps the target and every earlier step stores fewer.
    """
    r = state.stage
    ell = state.common_length
    t = choice.t(r)
    x_next = _surround(state.x, r, choice.s, t)
    y_next = _surround(state.y, r, choice.sp, choice.tp)
    if len(x_next) != len(y_next):
        raise InvariantError(
            f"stage {r + 1} lengths differ: x {len(x_next)}, y {len(y_next)}"
        )
    m_r = ell + choice.s
    n_r = ell + choice.sp
    # Pitch audit: r pitches of m_r (n_r) step from the first copy base to
    # the central copy base, which the centering must place at state.x.base.
    if x_next.base + t + r * m_r != state.x.base:
        raise InvariantError(f"stage {r + 1} x copies are off the pitch m_{r}={m_r}")
    if y_next.base + choice.tp + r * n_r != state.y.base:
        raise InvariantError(f"stage {r + 1} y copies are off the pitch n_{r}={n_r}")
    # Center consistency: the stage-r block sits unchanged at the center.
    if window(x_next, state.x.base, state.x.last) != state.x:
        raise InvariantError(f"stage {r + 1} x does not hold stage {r} at its center")
    if window(y_next, state.y.base, state.y.last) != state.y:
        raise InvariantError(f"stage {r + 1} y does not hold stage {r} at its center")
    return Thm2State(
        x=x_next,
        y=y_next,
        m_times=state.m_times + (m_r,),
        n_times=state.n_times + (n_r,),
        spacers=state.spacers + (choice,),
        transitive=state.transitive,
    )


def build_transitive_stage(state: Thm2State, za: int, zc: int, zd: int) -> Thm2State:
    """Interleave step: x' = b y a x a y b and y' = d x c y c x d.

    za, zc, zd are the zero-block lengths |a|, |c|, |d|.  |b| is computed,
    zd + zc - za: the interleave balance |b|+|a| = |d|+|c| is what gives x'
    and y' one length.  All four must be nonnegative and cover the zero-tail
    bound, and the copy offsets must differ (|a| != |c|).  The
    support-orthogonality condition is re-verified on the result and a
    violation is an error.
    """
    zb = zd + zc - za
    if min(za, zb, zc, zd) < 0:
        raise ValueError("interleave spacer lengths must be nonnegative")
    if za == zc:
        raise ValueError(
            f"need |a| != |c|: copies at identical offsets +-{za + state.common_length} "
            "would overlap nonzero symbols"
        )
    bound = 2 * state.times_max()
    if min(za, zb, zc, zd) < bound:
        raise ValueError(
            f"interleave spacers must be >= the zero-tail bound {bound}"
        )

    x_prime = _centered([state.y, state.x, state.y], za, zb)
    y_prime = _centered([state.x, state.y, state.x], zc, zd)
    if len(x_prime) != len(y_prime):
        raise InvariantError(
            f"interleave lengths differ: x {len(x_prime)}, y {len(y_prime)}"
        )
    out = Thm2State(
        x=x_prime,
        y=y_prime,
        m_times=state.m_times,
        n_times=state.n_times,
        spacers=state.spacers,
        transitive=True,
    )
    orth = check_orthogonality(out)
    if not orth.passed:
        raise ValueError(f"interleave breaks support orthogonality: {orth.line()}")
    return out


# -- verifiers ---------------------------------------------------------------


def _rigidity(check_id: str, state: Thm2State, block: Block, shift: int, k: int):
    """Shifting ``block`` by ``shift`` moves every symbol by at most 1/k."""
    params = (("stage", state.stage), ("k", k), ("shift", shift))
    hit = next(shift_violations(block, shift, Fraction(1, k)), None)
    if hit is None:
        return CheckReport(check_id, PASS, params)
    i, v0, v1 = hit
    return CheckReport(
        check_id, FAIL, params, (("pos", i), ("value", v0), ("shifted", v1))
    )


def check_rigidity_x(state: Thm2State, k: int) -> CheckReport:
    """Condition I: shifting x by m_k moves every symbol by at most 1/k."""
    return _rigidity("I", state, state.x, state.m(k), k)


def check_rigidity_y(state: Thm2State, k: int) -> CheckReport:
    """Condition II: shifting y by n_k moves every symbol by at most 1/k."""
    return _rigidity("II", state, state.y, state.n(k), k)


def _cell_clash(nz, length: int, phase: int):
    """First consecutive nonzeros (a, b) whose ``phase`` cells are 1 or 2 apart:
    the witness ``_phased_sparseness`` reports when no phase works."""
    for a, b in zip(nz, nz[1:]):
        if 0 < (b - phase) // length - (a - phase) // length < 3:
            return a, b
    return None


def _phased_sparseness(block: Block, length: int):
    """Search for a phase c in [0, length) packing nonzeros so that any three
    consecutive length-``length`` cells contain at most one nonzero cell.

    Cell boundaries sit at c + j*length.  For consecutive nonzeros a < b with
    b - a = q*length + r (0 <= r < length), the boundaries in (a, b] number
    q + 1 when c mod length lies on the arc of residues a+1 .. a+r, and q
    otherwise.  So the pair puts its nonzeros 1 or 2 cells apart for c on the
    arc when q = 0, for every c when q = 1, for c off the arc when q = 2,
    and never when q >= 3.  The arcs of a run of gaps below ``length`` join
    into the residues of the run's span, so the bad phases are one interval
    per run and per gap of q = 1 or 2; sorting them and sweeping from 0
    finds the smallest phase none covers.  Returns (phase, None), or
    (None, witness) naming phase 0 and the first consecutive nonzeros that
    break the rule under it.
    """
    nz = block.nonzero_positions
    bad = []  # [start, stop) phase intervals; stop may pass length
    # Only the gaps of a cell or more take a Python step; compress filters
    # the rest, which dominate the large cells of a 10^5-nonzero block.
    first = 0  # index of the first nonzero of the current run
    long_gaps = map(le, repeat(length), map(sub, nz[1:], nz))
    for i in compress(range(1, len(nz)), long_gaps):
        a, b = nz[i - 1], nz[i]
        start = (nz[first] + 1) % length
        bad.append((start, start + a - nz[first]))
        q, r = divmod(b - a, length)
        if q == 1:
            bad.append((0, length))
        elif q == 2:  # off the arc: residues b+1 .. a+length
            start = (b + 1) % length
            bad.append((start, start + length - r))
        first = i
    if nz:
        start = (nz[first] + 1) % length
        bad.append((start, start + nz[-1] - nz[first]))
    bad.extend([(start - length, stop - length) for start, stop in bad if stop > length])
    phase = 0
    for start, stop in sorted(bad):
        if start > phase:
            break
        phase = max(phase, stop)
    if phase < length:
        return phase, None
    pos_a, pos_b = _cell_clash(nz, length, 0)
    return None, (("phase", 0), ("pos_a", pos_a), ("pos_b", pos_b))


def _sparseness(check_id: str, state: Thm2State, block: Block, length: int, k: int):
    """Some phase leaves at most one nonzero length-``length`` cell per three."""
    params = (("stage", state.stage), ("k", k), ("cell", length))
    phase, witness = _phased_sparseness(block, length)
    if phase is not None:
        return CheckReport(check_id, PASS, params, (("phase", phase),))
    return CheckReport(check_id, FAIL, params, witness)


def check_sparseness_x(state: Thm2State, k: int) -> CheckReport:
    """Condition III (phased): x has at most one nonzero length-n_k cell per three."""
    return _sparseness("III", state, state.x, state.n(k), k)


def check_sparseness_y(state: Thm2State, k: int) -> CheckReport:
    """Condition IV (phased): y has at most one nonzero length-m_k cell per three."""
    return _sparseness("IV", state, state.y, state.m(k), k)


def check_orthogonality(state: Thm2State) -> CheckReport:
    """Condition V: min(x(p), y(p)) = 0 away from 0, and x(0) = y(0) = 1.

    Only the first half needs checking here: ``Thm2State`` refuses a pair
    whose x(0) or y(0) is not 1, so every state passed in has it.
    """
    params = (("stage", state.stage),)
    shared = set(state.x.nonzero_positions).intersection(state.y.nonzero_positions)
    shared.discard(0)
    if shared:
        p = min(shared)
        return CheckReport(
            "V", FAIL, params, (("pos", p), ("x", state.x[p]), ("y", state.y[p]))
        )
    return CheckReport("V", PASS, params)


def check_zero_tails(state: Thm2State) -> CheckReport:
    """Condition Z: both ends of both blocks are 0 for 2x the largest time."""
    need = 2 * state.times_max()
    runs = (
        ("x_lead", state.x.leading_zero_run()),
        ("x_trail", state.x.trailing_zero_run()),
        ("y_lead", state.y.leading_zero_run()),
        ("y_trail", state.y.trailing_zero_run()),
    )
    params = (("stage", state.stage), ("required", need))
    for name, run in runs:
        if run < need:
            return CheckReport("Z", FAIL, params, ((name, run),))
    return CheckReport("Z", PASS, params, runs)


def sliding_falsifier(state: Thm2State, k: int) -> CheckReport:
    """Diagnostic: the any-offset reading of III fails once two nonzeros of x
    sit within one cell length of each other.  INFO either way; a found
    witness names the offset whose three consecutive cells contain two
    nonzero ones.
    """
    length = state.n(k)
    params = (("stage", state.stage), ("k", k), ("cell", length))
    nz = state.x.nonzero_positions
    for a, b in zip(nz, nz[1:]):
        if b - a <= length:
            offset = b - 2 * length
            return CheckReport(
                "SLIDING_FALSIFIER",
                INFO,
                params,
                (
                    ("found", True),
                    ("offset", offset),
                    ("pos_a", a),
                    ("pos_b", b),
                ),
            )
    return CheckReport("SLIDING_FALSIFIER", INFO, params, (("found", False),))


def check_transitive_rigidity(state: Thm2State, k: int) -> CheckReport:
    """Weakened rigidity: every symbol repeats within 1/k at distance m_k or n_k."""
    m_k, n_k = state.m(k), state.n(k)
    bound = Fraction(1, k)
    params = (("stage", state.stage), ("k", k), ("m", m_k), ("n", n_k))
    for name, block in (("x", state.x), ("y", state.y)):
        # A failing position breaks the bound at both distances.
        fails_n = {i for i, _, _ in shift_violations(block, n_k, bound)}
        for i, v, w in shift_violations(block, m_k, bound):
            if i in fails_n:
                return CheckReport(
                    "TRANSITIVE_RIGIDITY",
                    FAIL,
                    params,
                    (("side", name), ("pos", i), ("diff_m", abs(w - v)),
                     ("diff_n", abs(block.at_or_zero(i + n_k) - v))),
                )
    return CheckReport("TRANSITIVE_RIGIDITY", PASS, params)


def stage_reports(state: Thm2State, kmax: "int | None" = None) -> list:
    """All gate conditions for the state, ordered by id; the k-indexed ones
    for k = 1..min(kmax, stage - 1), every admissible k by default."""
    if kmax is not None and kmax < 1:
        raise ValueError("kmax must be >= 1")
    reports = []
    ks = range(1, state.stage if kmax is None else min(kmax + 1, state.stage))
    if state.transitive:
        reports.extend(check_transitive_rigidity(state, k) for k in ks)
    else:
        reports.extend(check_rigidity_x(state, k) for k in ks)
        reports.extend(check_rigidity_y(state, k) for k in ks)
        reports.extend(check_sparseness_x(state, k) for k in ks)
        reports.extend(check_sparseness_y(state, k) for k in ks)
    reports.append(check_orthogonality(state))
    reports.append(check_zero_tails(state))
    return reports


# -- spacer solver ------------------------------------------------------------


def _align_up(raw: int, ell: int, modulus: int) -> int:
    """Smallest value >= raw making ell + value divisible by modulus."""
    rem = (ell + raw) % modulus
    return raw if rem == 0 else raw + modulus - rem


def solve_spacers(state: Thm2State) -> Thm2State:
    """The next stage, built once with spacer lengths chosen by rule.

    s starts at twice the largest defined time and sp at r copy pitches, each
    rounded up to a congruence that keeps copies phase-aligned across stages:
    m_r = ell + s is a multiple of every n_k, and n_r = ell + sp a multiple
    of m_r and of every m_k.  Unless the state is interleaved (its gate has
    no III), raw sp then doubles until n_r >= 2r*m_r + w_r, the support width
    of x_{r+1} (2r+1 copies of x_r, of support width w_r, at pitch m_r).
    That is III at k = r: consecutive nonzeros of x_{r+1} are less than n_r
    apart (below ell inside a copy, m_r < n_r between copies), so III passes
    exactly when the whole support fits one length-n_r cell.  A solver that
    built, verified and doubled sp on each FAIL accepted these same spacers
    (tests pin them).  Z holds by construction: s > every earlier time and
    sp >= r*m_r > s, so tp = 2*max(m_r, n_r) = 2*n_r is twice the largest
    time, and t = tp + r*(sp - s) >= tp.  Nothing here verifies:
    ``stage_reports`` on the target does.  The choice is the returned
    ``spacers[-1]``; equal states yield equal choices.
    """
    r = state.stage
    ell = state.common_length
    raw_s = max(2 * state.times_max(), 1)
    s = _align_up(raw_s, ell, math.lcm(*state.n_times))
    m_r = ell + s
    y_mod = math.lcm(m_r, *state.m_times)
    raw_sp = r * (ell + raw_s)
    sp = _align_up(max(raw_sp, r * m_r), ell, y_mod)
    if not state.transitive:
        nz = state.x.nonzero_positions
        width = 2 * r * m_r + nz[-1] - nz[0] + 1
        while ell + sp < width:
            raw_sp *= 2
            sp = _align_up(max(raw_sp, r * m_r), ell, y_mod)
    tp = 2 * (ell + sp)
    return build_stage(state, SpacerChoice(s=s, sp=sp, tp=tp))


def solve_transitive_spacers(state: Thm2State) -> Thm2State:
    """The interleave, built once with lengths (za, zb, zc, zd).

    Both supports lie in [-span, span].  Every copy is shifted by at least
    the block length 2*span + 1 and the two copy offsets differ by
    zc - za = 2*span + 2, so no shifted support meets another: the result
    passes V exactly when ``state`` does, and no wider zc could change that.
    """
    zd = max(1, 2 * state.times_max())
    span = state.half_width
    za = zd + span + 1
    zc = za + 2 * span + 2
    return build_transitive_stage(state, za, zc, zd)


def predicted_nonzeros(stage: int, transitive: bool) -> int:
    """Nonzeros per block at ``stage``: step r keeps 2r+1 copies, the interleave 3."""
    return math.prod(range(3, 2 * stage, 2)) * (3 if transitive else 1)


def build_to_stage(
    target: int,
    transitive: bool = False,
    max_nonzeros: int = DEFAULT_MAX_NONZEROS_PER_BLOCK,
    max_positions: "int | None" = None,
) -> Thm2State:
    """Drive the solver from stage 1 up to ``target``.

    With ``transitive`` the interleave step runs just before the final build,
    so the last stage exercises the weakened rigidity.  The target stores
    more nonzeros per block than any earlier build, so ``max_nonzeros`` is
    checked once, for the target, before anything is built.
    ``max_positions``, if given, refuses the first built stage longer than
    it: only a built stage knows its length.
    """
    if target < 1:
        raise ValueError("target stage must be >= 1")
    if transitive and target < 2:
        raise ValueError("transitive build needs a target stage >= 2")
    check_cap(
        target,
        max_nonzeros,
        lambda t: predicted_nonzeros(t, transitive),
        "stores {} nonzeros per block",
    )
    state = initial_state()
    while state.stage < target:
        if transitive and state.stage == target - 1:
            state = solve_transitive_spacers(state)
        state = solve_spacers(state)
        check_cap(
            state.stage, max_positions, lambda _: len(state.x), "has {} positions"
        )
    return state

"""Brute-force ground truth for determinism theory on finite systems.

A finite system is a total endomap of {0..n-1}.  Everything the infinite
theory states abstractly is decidable here by enumeration: equivalence
relations are partitions (enumerated as restricted growth strings), the
limit set of a point is the cycle its orbit falls into, and a system is
deterministic exactly when no partition is forward-invariant without being
invariant.

Non-onto maps are deliberately admitted even though the ambient theory
assumes onto: on a finite space onto means bijective, and only non-onto maps
exhibit the forward-invariant-but-not-invariant relations this oracle exists
to exercise.  Every sweep report carries the onto flag for that reason.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import chain, permutations, product as iter_product

from .report import CheckReport, FAIL, PASS, Record

NOT_FORWARD_INVARIANT = "NOT_FORWARD_INVARIANT"
FORWARD_INVARIANT_ONLY = "FORWARD_INVARIANT_ONLY"
INVARIANT = "INVARIANT"

DEFAULT_EXHAUSTIVE_BOUND = 8  # is_td masks are Bell(8) = 4140 bits wide


class FiniteSystem(Record):
    """Endomap on {0..size-1} given by its value table; size is len(table).

    ``FiniteSystem(table)`` checks the table; ``_trusted`` skips the checks
    for a table the oracle derives from one already checked (every map of a
    sweep, a power)."""

    __slots__ = _fields = ("table",)

    def __init__(self, table: tuple):
        if type(table) is not tuple:
            raise TypeError(f"table must be a tuple, not {type(table).__name__}")
        if not table:
            raise ValueError("table must not be empty")
        if set(map(type, table)) != {int}:  # a bool or 1.0 is not a point
            place = next(i for i, v in enumerate(table) if type(v) is not int)
            raise TypeError(f"table entry {place} is {table[place]!r}, not an int")
        if min(table) < 0 or max(table) >= len(table):
            raise ValueError("table values must lie in 0..size-1")
        object.__setattr__(self, "table", table)

    @classmethod
    def _trusted(cls, table: tuple) -> "FiniteSystem":
        # Fast path for a tuple of ints in 0..len(table)-1, which is what
        # ``__init__`` would accept.
        sys = object.__new__(cls)
        object.__setattr__(sys, "table", table)
        return sys

    @property
    def size(self) -> int:
        return len(self.table)

    @property
    def onto(self) -> bool:
        return len(set(self.table)) == len(self.table)

    @property
    def pair_table(self) -> tuple:
        """The value table of the product map (a, b) -> (Ta, Tb), with pair
        (a, b) coded a * size + b.  Built on each read."""
        table = self.table
        n = len(table)
        return tuple([u * n + v for u in table for v in table])


def make_system(table) -> FiniteSystem:
    """The system of ``table``'s entries, each taken by ``operator.index``, so
    an integer type converts exactly and 1.7 is refused, not truncated."""
    return FiniteSystem(tuple(map(operator.index, table)))


class Partition(Record):
    """Equivalence relation on {0..size-1}, stored as canonical sorted nonempty
    blocks; size is the number of points the blocks hold."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple):
        if not all(blocks):
            raise ValueError("blocks must be nonempty")
        seen = sorted(chain.from_iterable(blocks))
        if seen != list(range(len(seen))):
            raise ValueError("blocks must partition 0..size-1")
        canonical = tuple(sorted(map(tuple, map(sorted, blocks))))
        if canonical != blocks:
            raise ValueError("blocks must be in canonical sorted form")
        object.__setattr__(self, "blocks", blocks)

    @property
    def size(self) -> int:
        return sum(map(len, self.blocks))

    @classmethod
    def from_blocks(cls, blocks) -> "Partition":
        return cls(tuple(sorted(tuple(sorted(blk)) for blk in blocks)))

    @classmethod
    def from_rgs(cls, rgs) -> "Partition":
        groups = {}
        for x, g in enumerate(rgs):
            groups.setdefault(g, []).append(x)
        return cls.from_blocks(groups.values())

    @classmethod
    def diagonal(cls, size: int) -> "Partition":
        return cls.from_blocks((x,) for x in range(size))

    def label(self) -> str:
        return "|".join(",".join(str(x) for x in blk) for blk in self.blocks)


def restricted_growth_strings(n: int):
    """All restricted growth strings of length n, lexicographically."""
    a = [0] * n
    top = [0] * n  # top[j] = max(a[:j]) for j >= 1
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] > top[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        rest = max(top[j], a[j])
        for i in range(j + 1, n):
            a[i] = 0
            top[i] = rest


def classify_relation(sys: FiniteSystem, partition: Partition) -> str:
    """Compare the image relation {(Ta, Tb)} against the relation itself.

    The comparison is raw containment of pair sets; the image of an
    equivalence relation under the pair map need not be one, and no closure
    is taken.  A pair (a, b) is coded a * n + b.  The pairs of a block B go
    to T(B) x T(B), so the image is the pair set of the blocks' images.
    """
    n = sys.size
    if partition.size != n:
        raise ValueError(
            f"size mismatch: system {n}, partition {partition.size}"
        )
    rel = frozenset([a * n + b for blk in partition.blocks for a in blk for b in blk])
    images = [set(map(sys.table.__getitem__, blk)) for blk in partition.blocks]
    image = frozenset([u * n + v for blk in images for u in blk for v in blk])
    if image < rel:
        return FORWARD_INVARIANT_ONLY
    if image == rel:
        return INVARIANT
    return NOT_FORWARD_INVARIANT


def check_exhaustive_size(size: int) -> None:
    """Refuse a size whose partitions ``is_td`` could not enumerate."""
    if size > DEFAULT_EXHAUSTIVE_BOUND:
        raise ValueError(
            f"size {size} exceeds the exhaustive bound {DEFAULT_EXHAUSTIVE_BOUND} "
            "(partition count grows like Bell numbers)"
        )


def is_td(sys: FiniteSystem):
    """Exhaustive determinism check: no partition is forward-invariant only.

    Returns (verdict, witness); the witness is the first forward-invariant-
    only partition found, with the diagonal tested first since it is the
    canonical witness whenever the map is not onto.
    """
    table = sys.table
    n = len(table)
    check_exhaustive_size(n)
    # The diagonal's image is the pairs (Tx, Tx), always inside it, and
    # strictly so exactly when T misses a point.
    if len(set(table)) < n:  # forward-invariant only
        return False, _diagonal(n)
    return _scan_partitions(table)


@lru_cache(maxsize=None)
def _diagonal(n: int) -> Partition:
    """The diagonal partition of {0..n-1}, built once per n."""
    return Partition.diagonal(n)


@lru_cache(maxsize=None)
def _same_masks(n: int) -> tuple:
    """(RGS tuple, full mask, same): bit i of ``same[x][y]`` is set exactly
    when x and y share a block of the i-th partition in RGS order."""
    rgs = tuple(restricted_growth_strings(n))
    full = (1 << len(rgs)) - 1
    # labels[x][g] has bit i set when the i-th RGS gives x the label g: x's
    # labels as bytes, last partition first, translated to "1" at g, else "0".
    digits = [b"0" * g + b"1" + b"0" * (255 - g) for g in range(n)]
    columns = map(bytes, zip(*reversed(rgs)))
    labels = [[int(column.translate(d), 2) for d in digits] for column in columns]
    same = [[full] * n for _ in range(n)]
    for x in range(n):
        for y in range(x):
            shared = map(operator.and_, labels[x], labels[y])
            same[x][y] = same[y][x] = reduce(operator.or_, shared)
    return rgs, full, tuple(map(tuple, same))


@lru_cache(maxsize=None)
def _closure_index(n: int) -> dict:
    """Block mask -> RGS index of the partition of {0..n-1} into that block and
    singletons, for every nonempty block (bit y set when y is in it)."""
    index = {g: i for i, g in enumerate(_same_masks(n)[0])}
    out = {}
    for block in range(1, 1 << n):
        labels = {}  # the block's points share the key -1
        rgs = tuple(
            labels.setdefault(-1 if block >> y & 1 else y, len(labels)) for y in range(n)
        )
        out[block] = index[rgs]
    return out


def _partition_masks(table: tuple) -> tuple:
    """(forward invariant, forward invariant only) as masks over ``_same_masks``:
    the definition evaluated on every partition at once, with no theorem.  A
    partition is forward invariant when x ~ y implies Tx ~ Ty, and then
    strictly bigger than its image when some c ~ d has no a ~ b with Ta = c
    and Tb = d; for c = d that is a point with no preimage.  ``same[c][c]``
    is full, so the fold stops at the first such point: the mask is full."""
    n = len(table)
    _, full, same = _same_masks(n)
    bad = strict = 0
    for x in range(n):
        for y in range(x):
            bad |= same[x][y] & ~same[table[x]][table[y]]
    preimages = [[] for _ in range(n)]
    for a, c in enumerate(table):
        preimages[c].append(a)
    for c in range(n):
        for d in range(c + 1):
            covered = 0
            for a in preimages[c]:
                for b in preimages[d]:
                    covered |= same[a][b]
            strict |= same[c][d] & ~covered
        if strict == full:  # no later OR can add a bit
            break
    forward = full & ~bad
    return forward, forward & strict


@lru_cache(maxsize=None)
def _scan_partitions(table: tuple):
    """(False, first forward-invariant-only partition in RGS order), or
    (True, None) when there is none.  Memoized per table: only onto tables
    get past ``is_td``'s diagonal test, so it holds at most n! per size."""
    found = _partition_masks(table)[1]
    if not found:
        return True, None
    rgs = _same_masks(len(table))[0]
    return False, Partition.from_rgs(rgs[(found & -found).bit_length() - 1])


def _orbit_mask(table: tuple, x: int) -> int:
    """The orbit x, Tx, T^2 x, ... of the map ``table`` as a bit mask (bit z
    set when z is on it), walked up to its first repeat: at most n steps."""
    mask, cur = 0, x
    while not mask >> cur & 1:
        mask |= 1 << cur
        cur = table[cur]
    return mask


def _omega_table(table: tuple) -> tuple:
    """The limit set of every point of the map ``table`` as a bit mask (bit z
    set when z is in it), from one walk of its functional graph: each walk
    runs until it closes a new cycle or lands on a point already labelled,
    and every point on it gets that cycle, retraced from the walk's start."""
    omega = [0] * len(table)  # 0: not reached yet; -1: on the current walk
    for start in range(len(table)):
        if omega[start]:
            continue
        cur = start
        while not omega[cur]:
            omega[cur] = -1
            cur = table[cur]
        limit = omega[cur]
        if limit < 0:  # the walk closed a new cycle at cur: go round it once
            limit = 1 << cur
            z = table[cur]
            while z != cur:
                limit |= 1 << z
                z = table[z]
        z = start
        while omega[z] < 0:
            omega[z] = limit
            z = table[z]
    return tuple(omega)


def lemma6_relation(sys: FiniteSystem, x: int):
    """Escaping-point construction: the orbit closure of a non-recurrent point
    spans a relation that is forward-invariant but not invariant.

    Returns (points, partition, report); an error if x is recurrent, since
    the construction needs the orbit to leave x behind.
    """
    table, n = sys.table, sys.size
    if not 0 <= x < n:
        raise ValueError(f"point {x} outside 0..{n - 1}")
    after = _orbit_mask(table, table[x])
    closure = after | 1 << x  # the orbit of x, its cycle included
    # x is recurrent exactly when the orbit of Tx comes back to it.
    if after >> x & 1:
        raise ValueError(
            f"point {x} is forward recurrent; the construction needs an "
            "escaping point"
        )
    block = tuple(y for y in range(n) if closure >> y & 1)
    rest = [(y,) for y in range(n) if not closure >> y & 1]
    partition = Partition.from_blocks([block, *rest])
    cls = classify_relation(sys, partition)
    verdict = PASS if cls == FORWARD_INVARIANT_ONLY else FAIL
    report = CheckReport(
        "LEMMA6",
        verdict,
        (("n", n), ("x", x)),
        (("classified", cls), ("points", ",".join(map(str, block)))),
    )
    return frozenset(block), partition, report


def _on_cycles(table) -> bool:
    """Every point of the map ``table`` lies on a cycle, from one walk of its
    functional graph.  A point is marked once its walk reaches it; a walk
    from an unmarked point runs to the first marked one.  If that is its
    start, the walk went round one cycle; if not, it met a cycle (its own, or
    one an earlier walk closed) that leaves its start out."""
    seen = bytearray(len(table))
    for start in range(len(table)):
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            cur = table[cur]
        if cur != start:
            return False
    return True


def all_pairs_recurrent(sys: FiniteSystem) -> bool:
    """Every pair recurrent for the product map: every pair code a * n + b
    lies on a cycle of ``pair_table``, walked once by ``_on_cycles``."""
    return _on_cycles(sys.pair_table)


def _lemma7_fail(params: tuple, table: tuple, *witness) -> CheckReport:
    """A LEMMA7 FAIL names its map first, in the form SWEEP_MAP prints it."""
    return CheckReport("LEMMA7", FAIL, params, (("map", ",".join(map(str, table))), *witness))


def lemma7_checks(sys: FiniteSystem, n_max: int, *, omega=None) -> CheckReport:
    """Power-map recurrence facts, checked exhaustively for 1 <= N <= n_max.

    (a) a point recurrent for the map is recurrent for every power;
    (b) the limit set under the map is exactly the union over k < N of the
        limit sets of T^k x under the N-th power (an OR of masks);
    (c) if every pair is recurrent for the product then every power is
        deterministic.

    (a) and (b) are read for N >= 2 only: at N = 1 they compare the map's
    limit sets with themselves and cannot fail.  (c) tests every N, and only
    when every point is recurrent: a diagonal pair (x, x) returns only if x
    does, so ``all_pairs_recurrent`` is walked only then.
    ``omega`` is the map's ``_omega_table`` when the caller has walked it
    already, as ``sweep`` does once for both of a map's checks.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    table = sys.table
    size = len(table)
    base = _omega_table(table) if omega is None else omega
    params = (("n", size), ("n_max", n_max))
    powers = [tuple(range(size)), table]  # powers[k] is the table of T^k
    for _ in range(n_max - 1):
        powers.append(tuple(map(table.__getitem__, powers[-1])))
    omegas = {n: _omega_table(powers[n]) for n in range(2, n_max + 1)}

    every_recurrent = True
    for x in range(size):
        base_omega = base[x]
        base_recurrent = base_omega >> x & 1
        every_recurrent = every_recurrent and base_recurrent
        for n in range(2, n_max + 1):
            omega_n = omegas[n]
            if base_recurrent and not omega_n[x] >> x & 1:
                return _lemma7_fail(params, table, ("part", "a"), ("x", x), ("power", n))
            decomposition = 0
            for k in range(n):
                decomposition |= omega_n[powers[k][x]]
            if decomposition != base_omega:
                return _lemma7_fail(params, table, ("part", "b"), ("x", x), ("power", n))
    if every_recurrent and all_pairs_recurrent(sys):
        for n in range(1, n_max + 1):
            td, witness = is_td(FiniteSystem._trusted(powers[n]) if n > 1 else sys)
            if not td:
                return _lemma7_fail(
                    params, table, ("part", "c"), ("power", n), ("witness", witness.label())
                )
    return CheckReport("LEMMA7", PASS, params)


# -- exhaustive sweeps ---------------------------------------------------------


def all_systems(n: int):
    """All n^n endomaps on n points, in table-lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return map(FiniteSystem._trusted, iter_product(range(n), repeat=n))


def all_permutation_systems(n: int):
    """The n! bijections of n points, in the same table-lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return map(FiniteSystem._trusted, permutations(range(n)))


def check_map_determinism(sys: FiniteSystem, *, omega=None) -> CheckReport:
    """One map's determinism facts: td iff bijective; diagonal witness else;
    the escaping-point relation works at every non-recurrent point, read off
    ``_partition_masks`` (``lemma6_relation`` is the pair-set path for one
    point of a map of any size).  ``omega`` is the map's ``_omega_table``
    when the caller has walked it already."""
    td, witness = is_td(sys)
    table = sys.table
    size = len(table)
    onto = sys.onto
    params = (("n", size), ("map", ",".join(map(str, table))), ("onto", onto))
    if td != onto:
        return CheckReport(
            "SWEEP_MAP", FAIL, params, (("part", "td_vs_onto"), ("td", td))
        )
    if not td and witness != _diagonal(size):
        return CheckReport(
            "SWEEP_MAP", FAIL, params,
            (("part", "witness"), ("witness", witness.label())),
        )
    # At each escaping point, lemma6_relation's partition (the orbit closure
    # and singletons) must be forward invariant only: one bit of the map's
    # masks, scanned once and only if some point escapes.
    if omega is None:
        omega = _omega_table(table)
    only = None
    for x in range(size):
        if omega[x] >> x & 1:
            continue
        if only is None:
            only = _partition_masks(table)[1]
            index = _closure_index(size)
        if not only >> index[_orbit_mask(table, x)] & 1:
            return CheckReport(
                "SWEEP_MAP", FAIL, params, (("part", "lemma6"), ("x", x))
            )
    return CheckReport("SWEEP_MAP", PASS, params, (("td", td),))


def sweep(n_max: int, power_max: int = 4, permutations_only: bool = False) -> list:
    """Exhaustive sweep reports for all systems up to n_max points.

    Per size: one determinism report per map (unless permutations_only) and
    one power-facts report per map, then a summary line.  The two checks of a
    map share one walk of its limit sets.
    """
    reports = []
    for n in range(1, n_max + 1):
        count = 0
        systems = all_permutation_systems(n) if permutations_only else all_systems(n)
        for sys in systems:
            count += 1
            omega = _omega_table(sys.table)
            if not permutations_only:
                reports.append(check_map_determinism(sys, omega=omega))
            reports.append(lemma7_checks(sys, power_max, omega=omega))
        reports.append(
            CheckReport(
                "SWEEP_SUMMARY",
                PASS,
                (
                    ("n", n),
                    ("maps", count),
                    ("permutations_only", permutations_only),
                    ("power_max", power_max),
                ),
            )
        )
    return reports

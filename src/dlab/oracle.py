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

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product as iter_product

from .report import CheckReport, FAIL, PASS

NOT_FORWARD_INVARIANT = "NOT_FORWARD_INVARIANT"
FORWARD_INVARIANT_ONLY = "FORWARD_INVARIANT_ONLY"
INVARIANT = "INVARIANT"

DEFAULT_EXHAUSTIVE_BOUND = 8  # Bell(8) = 4140 partitions per is_td call


@dataclass(frozen=True)
class FiniteSystem:
    """Endomap on {0..size-1} given by its value table."""

    size: int
    table: tuple

    def __post_init__(self):
        if self.size < 1 or len(self.table) != self.size:
            raise ValueError("table length must equal the system size")
        if any(not 0 <= v < self.size for v in self.table):
            raise ValueError("table values must lie in 0..size-1")

    @property
    def onto(self) -> bool:
        return len(set(self.table)) == self.size


def make_system(table) -> FiniteSystem:
    table = tuple(int(v) for v in table)
    return FiniteSystem(len(table), table)


def product_system(a: FiniteSystem, b: FiniteSystem) -> FiniteSystem:
    """Coordinatewise product; point (p, q) is encoded as p * b.size + q."""
    table = tuple(
        a.table[p] * b.size + b.table[q]
        for p in range(a.size)
        for q in range(b.size)
    )
    return FiniteSystem(a.size * b.size, table)


def power_system(sys: FiniteSystem, n: int) -> FiniteSystem:
    """The n-fold composition, n >= 1."""
    if n < 1:
        raise ValueError("power must be >= 1")
    table = tuple(range(sys.size))
    for _ in range(n):
        table = tuple(sys.table[v] for v in table)
    return FiniteSystem(sys.size, table)


@dataclass(frozen=True)
class Partition:
    """Equivalence relation on {0..size-1}, stored as canonical sorted blocks."""

    size: int
    blocks: tuple

    def __post_init__(self):
        seen = sorted(x for blk in self.blocks for x in blk)
        if seen != list(range(self.size)):
            raise ValueError("blocks must partition 0..size-1")
        canonical = tuple(sorted(tuple(sorted(blk)) for blk in self.blocks))
        if canonical != self.blocks:
            raise ValueError("blocks must be in canonical sorted form")

    @classmethod
    def from_blocks(cls, size: int, blocks) -> "Partition":
        canonical = tuple(sorted(tuple(sorted(blk)) for blk in blocks))
        return cls(size, canonical)

    @classmethod
    def from_rgs(cls, rgs) -> "Partition":
        groups = {}
        for x, g in enumerate(rgs):
            groups.setdefault(g, []).append(x)
        return cls.from_blocks(len(rgs), groups.values())

    @classmethod
    def diagonal(cls, size: int) -> "Partition":
        return cls.from_blocks(size, ((x,) for x in range(size)))

    def pairs(self) -> frozenset:
        """All related ordered pairs, diagonal included."""
        out = []
        for blk in self.blocks:
            out.extend((a, b) for a in blk for b in blk)
        return frozenset(out)

    def label(self) -> str:
        return "|".join(",".join(str(x) for x in blk) for blk in self.blocks)


def restricted_growth_strings(n: int):
    """All restricted growth strings of length n, lexicographically."""
    a = [0] * n
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] > max(a[:j]):
            j -= 1
        if j == 0:
            return
        a[j] += 1
        for i in range(j + 1, n):
            a[i] = 0


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple:
    """Every partition of {0..n-1} (Bell(n) many), RGS order."""
    return tuple(Partition.from_rgs(rgs) for rgs in restricted_growth_strings(n))


@lru_cache(maxsize=None)
def _labelled_partitions(n: int) -> tuple:
    """``all_partitions(n)`` paired with their restricted growth strings,
    which serve as block labels: x lies in block ``rgs[x]``."""
    return tuple(zip(restricted_growth_strings(n), all_partitions(n)))


def classify_relation(sys: FiniteSystem, partition: Partition) -> str:
    """Compare the image relation {(Ta, Tb)} against the relation itself.

    The comparison is raw containment of pair sets; the image of an
    equivalence relation under the pair map need not be one, and no closure
    is taken.
    """
    if partition.size != sys.size:
        raise ValueError(
            f"size mismatch: system {sys.size}, partition {partition.size}"
        )
    rel = partition.pairs()
    image = _image(sys.table, rel)
    if image < rel:
        return FORWARD_INVARIANT_ONLY
    if image == rel:
        return INVARIANT
    return NOT_FORWARD_INVARIANT


def _image(table: tuple, rel: frozenset) -> frozenset:
    """The image {(Ta, Tb) : (a, b) in rel} of a pair set under the pair map."""
    return frozenset((table[a], table[b]) for a, b in rel)


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
    check_exhaustive_size(sys.size)
    diag, rel = _diagonal(sys.size)
    if _image(sys.table, rel) < rel:  # forward-invariant only
        return False, diag
    return _scan_partitions(sys.table)


@lru_cache(maxsize=None)
def _diagonal(n: int) -> tuple:
    """The diagonal partition of {0..n-1} and its pair set, built once per n."""
    diag = Partition.diagonal(n)
    return diag, diag.pairs()


@lru_cache(maxsize=None)
def _scan_partitions(table: tuple):
    """(False, first forward-invariant-only partition in RGS order), or
    (True, None) when there is none.

    A partition is forward invariant exactly when each block maps into one
    block, i.e. ``rgs[table[x]]`` is constant on every block; only those
    partitions pay for building their pair set and the strict-containment
    test.  Memoized per table: only onto tables get past ``is_td``'s
    diagonal test, so the cache holds at most n! entries per size.
    """
    n = len(table)
    for rgs, partition in _labelled_partitions(n):
        image_block = [-1] * n
        for x in range(n):
            target = rgs[table[x]]
            seen = image_block[rgs[x]]
            if seen < 0:
                image_block[rgs[x]] = target
            elif seen != target:
                break
        else:
            rel = partition.pairs()
            if _image(table, rel) < rel:  # forward-invariant only
                return False, partition
    return True, None


def orbit(sys: FiniteSystem, x: int) -> list:
    """Forward orbit x, Tx, ... up to (and excluding) the first repeat."""
    seen = {}
    out = []
    cur = x
    while cur not in seen:
        seen[cur] = len(out)
        out.append(cur)
        cur = sys.table[cur]
    return out


def omega_limit(sys: FiniteSystem, x: int) -> frozenset:
    """Exact limit set: the cycle the forward orbit of x falls into."""
    out = orbit(sys, x)
    # The orbit stops where its last point maps back into it: the cycle entry.
    return frozenset(out[out.index(sys.table[out[-1]]) :])


def is_recurrent(sys: FiniteSystem, x: int) -> bool:
    return x in omega_limit(sys, x)


def lemma6_relation(sys: FiniteSystem, x: int):
    """Escaping-point construction: the orbit closure of a non-recurrent point
    spans a relation that is forward-invariant but not invariant.

    Returns (points, partition, report); an error if x is recurrent, since
    the construction needs the orbit to leave x behind.
    """
    if not 0 <= x < sys.size:
        raise ValueError(f"point {x} outside 0..{sys.size - 1}")
    if is_recurrent(sys, x):
        raise ValueError(
            f"point {x} is forward recurrent; the construction needs an "
            "escaping point"
        )
    points = frozenset(orbit(sys, x))  # orbit already contains its cycle
    rest = ((y,) for y in range(sys.size) if y not in points)
    partition = Partition.from_blocks(sys.size, [tuple(sorted(points)), *rest])
    cls = classify_relation(sys, partition)
    verdict = PASS if cls == FORWARD_INVARIANT_ONLY else FAIL
    report = CheckReport(
        "LEMMA6",
        verdict,
        (("n", sys.size), ("x", x)),
        (("classified", cls), ("points", ",".join(map(str, sorted(points))))),
    )
    return points, partition, report


def all_pairs_recurrent(sys: FiniteSystem) -> bool:
    """Every pair recurrent for the product map.

    A non-onto map has a point outside the image, which is not recurrent, so
    only onto maps need the full product scan.
    """
    if not sys.onto:
        return False
    prod = product_system(sys, sys)
    return all(is_recurrent(prod, p) for p in range(prod.size))


def lemma7_checks(sys: FiniteSystem, n_max: int) -> CheckReport:
    """Power-map recurrence facts, checked exhaustively for 1 <= N <= n_max.

    (a) a point recurrent for the map is recurrent for every power;
    (b) the limit set under the map is exactly the union over k < N of the
        limit sets of T^k x under the N-th power;
    (c) if every pair is recurrent for the product then every power is
        deterministic.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    params = (("n", sys.size), ("n_max", n_max))
    powers = {0: FiniteSystem(sys.size, tuple(range(sys.size))), 1: sys}
    for n in range(2, n_max + 1):
        powers[n] = power_system(sys, n)
    omegas = {n: _omega_table(powers[n]) for n in range(1, n_max + 1)}

    for x in range(sys.size):
        base_omega = omegas[1][x]
        base_recurrent = x in base_omega
        for n in range(1, n_max + 1):
            omega = omegas[n]
            if base_recurrent and x not in omega[x]:
                return CheckReport(
                    "LEMMA7", FAIL, params,
                    (("part", "a"), ("x", x), ("power", n)),
                )
            decomposition = frozenset().union(
                *(omega[powers[k].table[x]] for k in range(n))
            )
            if decomposition != base_omega:
                return CheckReport(
                    "LEMMA7", FAIL, params,
                    (("part", "b"), ("x", x), ("power", n)),
                )
    if all_pairs_recurrent(sys):
        for n in range(1, n_max + 1):
            td, witness = is_td(powers[n])
            if not td:
                return CheckReport(
                    "LEMMA7", FAIL, params,
                    (("part", "c"), ("power", n), ("witness", witness.label())),
                )
    return CheckReport("LEMMA7", PASS, params)


def _omega_table(sys: FiniteSystem) -> tuple:
    """``omega_limit(sys, z)`` for every z, from one walk of the functional
    graph: each walk runs until it closes a new cycle or lands on a point
    already labelled, and every point on it gets that cycle as its limit set.
    """
    omega = [None] * sys.size
    for start in range(sys.size):
        path = {}  # point -> step, in walk order
        cur = start
        while omega[cur] is None and cur not in path:
            path[cur] = len(path)
            cur = sys.table[cur]
        limit = omega[cur]
        if limit is None:  # the walk closed a new cycle at cur
            limit = frozenset(list(path)[path[cur]:])
        for z in path:
            omega[z] = limit
    return tuple(omega)


# -- exhaustive sweeps ---------------------------------------------------------


def all_systems(n: int):
    """All n^n endomaps on n points, in table-lexicographic order."""
    for table in iter_product(range(n), repeat=n):
        yield FiniteSystem(n, table)


def all_permutation_systems(n: int):
    """The n! bijections of n points, in the same table-lexicographic order."""
    for table in permutations(range(n)):
        yield FiniteSystem(n, table)


def check_map_determinism(sys: FiniteSystem) -> CheckReport:
    """One map's determinism facts: td iff bijective; diagonal witness else;
    the escaping-point relation works at every non-recurrent point."""
    td, witness = is_td(sys)
    params = (
        ("n", sys.size),
        ("map", ",".join(str(v) for v in sys.table)),
        ("onto", sys.onto),
    )
    if td != sys.onto:
        return CheckReport(
            "SWEEP_MAP", FAIL, params, (("part", "td_vs_onto"), ("td", td))
        )
    if not td and witness != _diagonal(sys.size)[0]:
        return CheckReport(
            "SWEEP_MAP", FAIL, params,
            (("part", "witness"), ("witness", witness.label())),
        )
    for x in range(sys.size):
        if is_recurrent(sys, x):
            continue
        _, _, rep = lemma6_relation(sys, x)
        if not rep.passed:
            return CheckReport(
                "SWEEP_MAP", FAIL, params, (("part", "lemma6"), ("x", x))
            )
    return CheckReport("SWEEP_MAP", PASS, params, (("td", td),))


def sweep(n_max: int, power_max: int = 4, permutations_only: bool = False) -> list:
    """Exhaustive sweep reports for all systems up to n_max points.

    Per size: one determinism report per map (unless permutations_only) and
    one power-facts report per map, then a summary line.
    """
    reports = []
    for n in range(1, n_max + 1):
        count = 0
        systems = all_permutation_systems(n) if permutations_only else all_systems(n)
        for sys in systems:
            count += 1
            if not permutations_only:
                reports.append(check_map_determinism(sys))
            reports.append(lemma7_checks(sys, power_max))
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

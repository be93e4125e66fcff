import math
import random
import signal

import pytest

from dlab import oracle as o
from dlab.report import CheckReport, FAIL, PASS

from naive_refs import (
    all_partitions,
    naive_classify_relation,
    naive_first_forward_invariant_only,
    naive_growth_strings,
    naive_mask,
    naive_omega_limit,
    naive_on_cycle,
    naive_orbit_points,
    naive_pair_table,
    naive_pairs,
    naive_power_table,
    naive_same_masks,
)


def sys_(table):
    return o.make_system(table)


# -- relations and classification ---------------------------------------------------


def test_classify_identity_map_everything_invariant():
    ident = sys_([0, 1, 2])
    for p in all_partitions(3):
        assert o.classify_relation(ident, p) == o.INVARIANT


def test_classify_diagonal_under_non_onto():
    s = sys_([1, 2, 2])
    assert o.classify_relation(s, o.Partition.diagonal(3)) == o.FORWARD_INVARIANT_ONLY


def test_classify_full_relation_on_two_cycle():
    s = sys_([1, 0])
    assert o.classify_relation(s, o.Partition.from_blocks([(0, 1)])) == o.INVARIANT


def test_classify_not_forward_invariant():
    # 3-cycle with blocks {0,1},{2}: the image of (0,1) is (2,0), crossing blocks.
    s = sys_([2, 0, 1])
    p = o.Partition.from_blocks([(0, 1), (2,)])
    assert o.classify_relation(s, p) == o.NOT_FORWARD_INVARIANT


def _lemma6_partitions(system):
    return [o.lemma6_relation(system, x)[1] for x in range(system.size)
            if x not in naive_omega_limit(system.table, x)]


def test_classify_relation_matches_the_pair_set_definition():
    # Every partition of every map on up to 4 points and of the seeded maps
    # on 6-8 points, then the escaping-point relations a sweep classifies.
    rng = random.Random(6007)
    tables = [s.table for n in range(1, 5) for s in o.all_systems(n)]
    tables += _seeded_scan_tables(rng)
    cases = [(o.make_system(t), all_partitions(len(t))) for t in tables]
    for n in (6, 7, 8):
        for _ in range(20):
            system = o.make_system([rng.randrange(n) for _ in range(n)])
            cases.append((system, _lemma6_partitions(system)))
    counts = {}
    for system, partitions in cases:
        for partition in partitions:
            cls = o.classify_relation(system, partition)
            counts[cls] = counts.get(cls, 0) + 1
            assert cls == naive_classify_relation(system.table, partition), (
                system.table, partition.label())
    assert min(counts.values()) > 1000, counts


def test_pair_table_is_the_product_table_built_once():
    rng = random.Random(6011)
    systems = [s for n in range(1, 5) for s in o.all_systems(n)]
    systems += [o.make_system([rng.randrange(8) for _ in range(8)]) for _ in range(20)]
    for s in systems:
        n = s.size
        table = s.pair_table
        assert table == naive_pair_table(s.table)
        assert table == tuple(s.table[a] * n + s.table[b] for a in range(n) for b in range(n))
        assert o.FiniteSystem(table).table == table  # a table the checks admit
        # The diagonal pair (x, x) goes to (Tx, Tx), coded Tx * (n + 1).
        assert [table[c] for c in range(0, n * n, n + 1)] == [v * (n + 1) for v in s.table]


def test_classify_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        o.classify_relation(sys_([0, 1]), o.Partition.diagonal(3))


def test_partition_validation_and_label():
    for blocks in ([(0, 2)], [(0,), (0, 1)], [(1, 2)]):  # a gap, a repeat, no 0
        with pytest.raises(ValueError, match="must partition"):
            o.Partition.from_blocks(blocks)
    with pytest.raises(ValueError, match="canonical"):
        o.Partition(((2,), (0, 1)))
    for blocks in ([(0,), ()], [()]):  # the same relation as [(0,)] and []
        with pytest.raises(ValueError, match="nonempty"):
            o.Partition.from_blocks(blocks)
    p = o.Partition.from_blocks([(2,), (0, 1)])
    assert p.size == 3 and p.label() == "0,1|2"
    assert naive_pairs(p) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}


def test_restricted_growth_enumeration_bell_counts():
    bells = [1, 1, 2, 5, 15, 52, 203]
    for n in range(1, 7):
        rgs = tuple(o.restricted_growth_strings(n))
        assert rgs == tuple(naive_growth_strings(n))
        parts = tuple(map(o.Partition.from_rgs, rgs))
        assert parts == all_partitions(n)
        assert len(parts) == bells[n]
        assert len(set(parts)) == bells[n]
        assert parts[0] == o.Partition.from_blocks([range(n)])
        assert parts[-1] == o.Partition.diagonal(n)


# -- determinism ------------------------------------------------------------------


def test_td_examples():
    assert o.is_td(sys_([0]))[0] is True
    td, witness = o.is_td(sys_([1, 2, 2]))
    assert td is False and witness == o.Partition.diagonal(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_td_iff_bijection_small(n):
    for s in o.all_systems(n):
        td, witness = o.is_td(s)
        assert td == s.onto
        if not td:
            assert witness == o.Partition.diagonal(n)


def test_td_true_for_permutations_n6():
    import itertools

    for perm in itertools.permutations(range(6)):
        assert o.is_td(o.FiniteSystem(perm))[0] is True


def test_td_bound():
    with pytest.raises(ValueError, match="exhaustive bound"):
        o.is_td(o.FiniteSystem(tuple(range(9))))


def _seeded_scan_tables(rng):
    """Per size 6-8: the identity, permutations, permutations with planted
    fixed points, and maps with planted collapses."""
    for n in (6, 7, 8):
        yield tuple(range(n))
        for _ in range(2):
            yield tuple(rng.sample(range(n), n))
        for fixed in (1, n // 2):
            moved = sorted(rng.sample(range(n), n - fixed))
            table = list(range(n))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                table[x] = y
            yield tuple(table)
        for collapses in (1, 3):
            table = rng.sample(range(n), n)
            for _ in range(collapses):
                a, b = rng.sample(range(n), 2)
                table[a] = table[b]
            yield tuple(table)


def test_partition_scan_matches_naive_reference():
    # The scan helper is called directly, so non-onto tables are scanned too
    # instead of stopping at is_td's diagonal test.
    tables = [s.table for n in range(1, 6) for s in o.all_systems(n)]
    tables += _seeded_scan_tables(random.Random(8191))
    witnesses = 0
    for table in tables:
        td, witness = o._scan_partitions(table)
        want = naive_first_forward_invariant_only(table)
        assert td == (want is None), table
        if want is not None:
            witnesses += 1
            assert witness.blocks == want, table
        else:
            assert witness is None, table
        assert o._scan_partitions(table) == (td, witness)
    assert 0 < witnesses < len(tables)


def _last_point_unreached_tables(rng):
    """Maps whose only point with no preimage is n - 1: a permutation of
    0..n-2 with n - 1 sent into it.  The strict fold is full only after its
    last point, so its early stop cannot hide a wrong earlier bit."""
    for n in range(2, 9):
        for _ in range(12 if n <= 6 else 2):
            table = rng.sample(range(n - 1), n - 1) + [rng.randrange(n - 1)]
            yield tuple(table)


def test_partition_masks_classify_every_partition():
    # The first witness above is nearly always the one-block partition or
    # none, so it cannot see the order of later bits; here every bit is
    # checked against the pair-set classification of its partition.
    tables = [s.table for n in range(1, 6) for s in o.all_systems(n)]
    tables += _seeded_scan_tables(random.Random(8191))
    tables += _last_point_unreached_tables(random.Random(8209))
    counts = {}
    for table in tables:
        forward, only = o._partition_masks(table)
        partitions = all_partitions(len(table))
        assert forward >> len(partitions) == 0
        for i, partition in enumerate(partitions):
            cls = naive_classify_relation(table, partition)
            counts[cls] = counts.get(cls, 0) + 1
            assert forward >> i & 1 == (cls != o.NOT_FORWARD_INVARIANT), (table, i)
            assert only >> i & 1 == (cls == o.FORWARD_INVARIANT_ONLY), (table, i)
    assert min(counts.values()) > 1000, counts


# -- orbits and limit sets -----------------------------------------------------------


def test_system_validation():
    assert sys_([1, 0, 0]).size == 3
    with pytest.raises(ValueError, match="empty"):
        o.FiniteSystem(())
    for table in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="must lie in"):
            o.FiniteSystem(table)
    with pytest.raises(TypeError):  # the size is len(table), never passed
        o.FiniteSystem(2, (1, 0))
    # A table of non-ints would print map=True,False, or fail with a raw
    # TypeError deep inside check_map_determinism.
    for table, message in (
        ([1, 0], "table must be a tuple, not list"),
        ((True, False), "table entry 0 is True, not an int"),
        ((0.0,), "table entry 0 is 0.0, not an int"),
        ((1, 0, 2.0), "table entry 2 is 2.0, not an int"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            o.FiniteSystem(table)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        o.make_system([1.7, 0])  # not truncated to the map 1, 0
    assert o.make_system(range(2)).table == (0, 1)
    assert type(o.make_system([True, 0]).table[0]) is int


def test_omega_examples():
    # Bit z of a limit-set mask is set when z is in the limit set.
    assert o._omega_table((1, 2, 2)) == (0b100, 0b100, 0b100)
    assert o._omega_table((1, 0)) == (0b11, 0b11)
    assert o._omega_table((0, 0)) == (0b1, 0b1)


def test_recurrent_iff_on_cycle():
    omega = o._omega_table((1, 2, 0, 0))  # 3 -> 0 enters the 3-cycle
    assert omega == (0b111,) * 4
    assert all(omega[x] >> x & 1 for x in (0, 1, 2))
    assert not omega[3] >> 3 & 1


# -- the escaping-point relation -----------------------------------------------------


def test_lemma6_example_chain():
    points, partition, report = o.lemma6_relation(sys_([1, 2, 2]), 0)
    assert points == {0, 1, 2}
    assert partition == o.Partition.from_blocks([(0, 1, 2)])
    assert report.passed
    assert dict(report.witness)["classified"] == o.FORWARD_INVARIANT_ONLY


def test_lemma6_two_point_example():
    points, partition, report = o.lemma6_relation(sys_([1, 1]), 0)
    assert points == {0, 1}
    assert partition == o.Partition.from_blocks([(0, 1)])
    assert report.passed


def test_lemma6_rejects_recurrent_point():
    with pytest.raises(ValueError, match="recurrent"):
        o.lemma6_relation(sys_([1, 0]), 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lemma6_everywhere_small(n):
    for s in o.all_systems(n):
        omega = o._omega_table(s.table)
        for x in range(n):
            if omega[x] >> x & 1:
                continue
            _, _, report = o.lemma6_relation(s, x)
            assert report.passed


def test_lemma6_relation_matches_a_dense_orbit_reference():
    # Every point of every map on up to 5 points: a point on a cycle is
    # refused, and any other gets its dense orbit as the block, the rest as
    # singletons, and the pair-set classification of that partition.
    counts = {"refused": 0, PASS: 0, FAIL: 0}
    for n in range(1, 6):
        for s in o.all_systems(n):
            table = s.table
            for x in range(n):
                if naive_on_cycle(table, x):
                    with pytest.raises(ValueError, match=f"^point {x} is forward recurrent;"):
                        o.lemma6_relation(s, x)
                    counts["refused"] += 1
                    continue
                block = tuple(sorted(naive_orbit_points(table, x)))
                rest = [(y,) for y in range(n) if y not in block]
                partition = o.Partition.from_blocks([block, *rest])
                cls = naive_classify_relation(table, partition)
                verdict = PASS if cls == o.FORWARD_INVARIANT_ONLY else FAIL
                report = CheckReport(
                    "LEMMA6", verdict, (("n", n), ("x", x)),
                    (("classified", cls), ("points", ",".join(map(str, block)))),
                )
                assert o.lemma6_relation(s, x) == (frozenset(block), partition, report)
                counts[verdict] += 1
    # Lemma 6 holds, so no report fails.
    assert counts[FAIL] == 0 and min(counts["refused"], counts[PASS]) > 8000, counts


# -- powers and products --------------------------------------------------------------


def test_product_system_recurrence_matches_joint_returns():
    s = sys_([1, 0, 2])  # 2-cycle plus fixed point
    omega = o._omega_table(s.pair_table)
    powers = [naive_power_table(s.table, n) for n in range(1, 7)]
    for a in range(3):
        for b in range(3):
            code = a * 3 + b
            # Joint return: some n >= 1 with T^n a = a and T^n b = b.
            joint = any(
                power[a] == a and power[b] == b for power in powers
            )
            assert omega[code] >> code & 1 == joint


def test_lemma7_cycle_examples():
    three_cycle = sys_([1, 2, 0])
    assert o.lemma7_checks(three_cycle, 3).passed
    two_cycle = sys_([1, 0])
    assert o.lemma7_checks(two_cycle, 2).passed
    # Power 2 splits the 2-cycle into fixed points whose limit sets union back.
    assert o._omega_table(naive_power_table(two_cycle.table, 2)) == (0b01, 0b10)


def test_omega_table_matches_orbit_walk():
    rng = random.Random(4099)
    systems = [s for n in range(1, 6) for s in o.all_systems(n)]
    systems += [o.make_system([rng.randrange(8) for _ in range(8)]) for _ in range(50)]
    for s in systems:
        for n in range(1, 5):
            power = naive_power_table(s.table, n)
            want = tuple(naive_mask(naive_omega_limit(power, z)) for z in range(s.size))
            assert o._omega_table(power) == want, (s.table, n)


def test_lemma7_decomposition_randomless_sweep_n4():
    for s in o.all_systems(4):
        assert o.lemma7_checks(s, 4).passed


def test_all_pairs_recurrent_only_for_permutations_n3():
    for s in o.all_systems(3):
        assert o.all_pairs_recurrent(s) == s.onto


def _tail_at(table, c):
    """The bijection ``table`` with c moved onto a tail: c's one preimage is
    sent on to Tc (a fixed point c is sent on to c + 1), so nothing maps to c."""
    out = list(table)
    q = table.index(c)
    out[q] = table[c] if q != c else (c + 1) % len(table)
    return tuple(out)


def test_pair_walk_sees_each_pair_moved_onto_a_tail(monkeypatch):
    # Every pair of a permutation lies on a cycle, so only a pair table with
    # one pair moved onto a tail can show that the walk tests every pair.
    real = o._on_cycles
    for n in (2, 3):
        for s in o.all_permutation_systems(n):
            pairs = s.pair_table
            for code in range(n * n):
                planted = _tail_at(pairs, code)
                assert not naive_on_cycle(planted, code)
                assert o._on_cycles(planted) is False, (s.table, code)
                walked = []
                with monkeypatch.context() as m:
                    m.setattr(o, "_on_cycles", lambda t: walked.append(tuple(t))
                              or real(_tail_at(t, code)))
                    assert o.all_pairs_recurrent(s) is False, (s.table, code)
                assert walked == [pairs]
            assert o._on_cycles(pairs) is True, s.table
            assert o.all_pairs_recurrent(s) is True, s.table


def test_pair_walk_matches_the_dense_cycle_test():
    # Every map on up to 4 points and its pair table, then on up to 12 points
    # seeded maps, and seeded permutations with a tail planted or entries
    # redirected.
    rng = random.Random(6029)
    tables = [s.table for n in range(1, 5) for s in o.all_systems(n)]
    for s in map(o.make_system, tables):
        pairs = naive_pair_table(s.table)
        want = all(naive_on_cycle(pairs, c) for c in range(len(pairs)))
        assert o.all_pairs_recurrent(s) is want, s.table
    tables += list(map(naive_pair_table, tables))
    for n in range(1, 13):
        for _ in range(40):
            tables.append(tuple(rng.randrange(n) for _ in range(n)))
            perm = tuple(rng.sample(range(n), n))
            tables += [perm, _tail_at(perm, rng.randrange(n))] if n > 1 else [perm]
            redirected = list(perm)  # a few entries sent anywhere
            for x in rng.sample(range(n), rng.randint(1, n)):
                redirected[x] = rng.randrange(n)
            tables.append(tuple(redirected))
    counts = {True: 0, False: 0}
    for table in tables:
        want = all(naive_on_cycle(table, x) for x in range(len(table)))
        assert o._on_cycles(table) is want, table
        counts[want] += 1
    assert min(counts.values()) > 500, counts


def test_lemma7_walks_the_pairs_of_exactly_the_maps_whose_points_all_recur(monkeypatch):
    # Part (c) needs every pair recurrent, and (x, x) returns only if x does,
    # so the pair walk runs only when every point lies on a cycle: every map
    # on up to 4 points, then seeded maps, permutations and permutations
    # with a tail planted on up to 8 points.
    rng = random.Random(6217)
    tables = [s.table for n in range(1, 5) for s in o.all_systems(n)]
    for n in range(5, 9):
        for _ in range(20):
            perm = tuple(rng.sample(range(n), n))
            tables += [perm, _tail_at(perm, rng.randrange(n))]
            tables.append(tuple(rng.randrange(n) for _ in range(n)))
    real, walked = o.all_pairs_recurrent, []
    monkeypatch.setattr(o, "all_pairs_recurrent", lambda s: walked.append(s.table) or real(s))
    counts = {True: 0, False: 0}
    for table in tables:
        walked.clear()
        every = all(naive_on_cycle(table, x) for x in range(len(table)))
        assert o.lemma7_checks(o.make_system(table), 3).passed, table
        assert walked == ([table] if every else []), table
        counts[every] += 1
    assert min(counts.values()) > 100, counts


# -- planted violations: each FAIL line the sweep can print ---------------------------


def _plant_omega(monkeypatch, table, point, limit):
    """Make ``_omega_table`` give ``point`` the mask of the limit set ``limit``
    in the map ``table`` only."""
    real = o._omega_table

    def planted(t):
        omega = real(t)
        if t != table:
            return omega
        return omega[:point] + (naive_mask(limit),) + omega[point + 1 :]

    monkeypatch.setattr(o, "_omega_table", planted)


def _plant_td(monkeypatch, table, verdict):
    real = o.is_td
    monkeypatch.setattr(
        o, "is_td", lambda s: verdict if s.table == table else real(s)
    )


def test_lemma7_part_a_reports_a_point_lost_by_a_power(monkeypatch):
    # The square of the 3-cycle is the 3-cycle (2, 0, 1); the planted limit
    # set of 1 leaves 1 out, and x = 0 still passes every part.
    _plant_omega(monkeypatch, (2, 0, 1), 1, {0, 2})
    rep = o.lemma7_checks(sys_([1, 2, 0]), 3)
    assert rep.line() == "CHECK LEMMA7 FAIL n=3 n_max=3 map=1,2,0 part=a x=1 power=2"


def test_lemma7_part_b_reports_a_wrong_decomposition(monkeypatch):
    # The square of a 2-cycle plus the fixed point 2 is the identity; the
    # planted limit set of 2 keeps 2 (part a holds) but adds 0.
    _plant_omega(monkeypatch, (0, 1, 2), 2, {0, 2})
    rep = o.lemma7_checks(sys_([1, 0, 2]), 2)
    assert rep.line() == "CHECK LEMMA7 FAIL n=3 n_max=2 map=1,0,2 part=b x=2 power=2"


def test_lemma7_part_c_reports_the_power_and_its_witness(monkeypatch):
    _plant_td(monkeypatch, (0, 1), (False, o.Partition.from_blocks([(0, 1)])))
    rep = o.lemma7_checks(sys_([1, 0]), 2)
    assert rep.line() == "CHECK LEMMA7 FAIL n=2 n_max=2 map=1,0 part=c power=2 witness=0,1"


@pytest.mark.parametrize(
    "table, verdict, tail",
    [
        ((1, 1), (True, None), "onto=false part=td_vs_onto td=true"),
        ((1, 0), (False, o.Partition.diagonal(2)), "onto=true part=td_vs_onto td=false"),
        (
            (1, 1),
            (False, o.Partition.from_blocks([(0, 1)])),
            "onto=false part=witness witness=0,1",
        ),
    ],
)
def test_sweep_map_reports_a_planted_td_verdict(monkeypatch, table, verdict, tail):
    _plant_td(monkeypatch, table, verdict)
    rep = o.check_map_determinism(o.make_system(table))
    map_ = ",".join(map(str, table))
    assert rep.line() == f"CHECK SWEEP_MAP FAIL n=2 map={map_} {tail}"


def _plant_masks(monkeypatch, clear, calls):
    """Make ``_partition_masks`` clear the bits of the int ``clear[0]`` from
    every forward-invariant-only mask, and list in ``calls`` the tables it is
    asked for."""
    real = o._partition_masks

    def planted(table):
        calls.append(table)
        forward, only = real(table)
        return forward, only & ~clear[0]

    monkeypatch.setattr(o, "_partition_masks", planted)


def _escaping_bits(table):
    """x -> the bit, in RGS order, of the partition of the orbit points of x
    and singletons, for each non-recurrent x."""
    n = len(table)
    index = {p: i for i, p in enumerate(all_partitions(n))}
    bits = {}
    for x in range(n):
        if x in naive_omega_limit(table, x):
            continue
        block = naive_orbit_points(table, x)
        rest = [(y,) for y in range(n) if y not in block]
        bits[x] = 1 << index[o.Partition.from_blocks([block, *rest])]
    return bits


def test_sweep_map_reports_the_first_failing_escaping_point(monkeypatch):
    # 0 is fixed, so 1 is the first escaping point of 0, 0, 1; the planted
    # masks leave no partition forward invariant only.
    _plant_masks(monkeypatch, [-1], [])
    rep = o.check_map_determinism(sys_([0, 0, 1]))
    assert rep.line() == "CHECK SWEEP_MAP FAIL n=3 map=0,0,1 onto=false part=lemma6 x=1"


def test_sweep_map_runs_lemma6_at_exactly_the_non_recurrent_points(monkeypatch):
    rng = random.Random(4111)
    systems = [s for n in range(1, 5) for s in o.all_systems(n)]
    for _ in range(20):  # n = 8 permutations with planted tails
        table = rng.sample(range(8), 8)
        for a in rng.sample(range(8), rng.randint(1, 4)):
            table[a] = rng.randrange(8)
        systems.append(o.make_system(table))
    # is_td's own scan of an onto map must not count as a call.
    verdicts = {s.table: o.is_td(s) for s in systems}
    monkeypatch.setattr(o, "is_td", lambda s: verdicts[s.table])
    clear, calls = [0], []
    _plant_masks(monkeypatch, clear, calls)
    tails = 0
    for s in systems:
        bits = _escaping_bits(s.table)
        head = f"CHECK SWEEP_MAP FAIL n={s.size} map={','.join(map(str, s.table))}"
        clear[0] = 0
        calls.clear()
        assert o.check_map_determinism(s).passed, s.table
        assert calls == ([s.table] if bits else []), s.table
        for x, bit in bits.items():
            clear[0] = bit
            rep = o.check_map_determinism(s)
            assert rep.line() == f"{head} onto=false part=lemma6 x={x}", s.table
        clear[0] = ~sum(bits.values())  # every bit that is no escaping point's
        assert o.check_map_determinism(s).passed, s.table
        if s.size == 8:
            tails += len(bits)
    assert tails > 20


def test_escaping_point_masks_match_lemma6_relation():
    # The lemma holds, so every verdict passes; what is compared is that the
    # bit read is the one of lemma6_relation's partition.
    rng = random.Random(6151)
    systems = [s for n in range(1, 6) for s in o.all_systems(n)]
    systems += [
        o.make_system([rng.randrange(n) for _ in range(n)])
        for n in (6, 7, 8) for _ in range(300)
    ]
    checked = 0
    for s in systems:
        only = o._partition_masks(s.table)[1]
        index = o._closure_index(s.size)
        rgs = o._same_masks(s.size)[0]
        for x in range(s.size):
            if x in naive_omega_limit(s.table, x):
                continue
            points, partition, report = o.lemma6_relation(s, x)
            i = index[naive_mask(points)]
            assert o.Partition.from_rgs(rgs[i]) == partition, (s.table, x)
            passed = bool(only >> i & 1)
            assert passed == report.passed, (s.table, x)
            naive = naive_classify_relation(s.table, partition)
            assert passed == (naive == o.FORWARD_INVARIANT_ONLY), (s.table, x)
            checked += 1
    assert checked > 11000


@pytest.mark.parametrize("n", range(1, 9))
def test_same_masks_match_the_string_join_definition(n):
    assert tuple(o.restricted_growth_strings(n)) == tuple(naive_growth_strings(n))
    assert o._same_masks(n) == naive_same_masks(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_closure_index_decodes_to_block_and_singletons(n):
    rgs = list(naive_growth_strings(n))
    index = o._closure_index(n)
    assert sorted(index) == list(range(1, 1 << n))
    for block, i in index.items():
        points = [y for y in range(n) if block >> y & 1]
        rest = [(y,) for y in range(n) if not block >> y & 1]
        want = o.Partition.from_blocks([points, *rest])
        assert o.Partition.from_rgs(rgs[i]) == want, (n, block)


def test_planted_omega_cannot_hang_the_escaping_point_walk(monkeypatch):
    # The planted limit set of 1 holds 0, which the orbit 1, 2, 2, ... never
    # reaches: a walk that ran until it met that set would never stop.
    _plant_omega(monkeypatch, (0, 2, 2), 1, {0})

    def timeout(signum, frame):
        raise TimeoutError("check_map_determinism did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        rep = o.check_map_determinism(sys_([0, 2, 2]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rep.line() == "CHECK SWEEP_MAP PASS n=3 map=0,2,2 onto=false td=false"


# -- serialization and sweep harness ---------------------------------------------------


def _public_lines(systems, power_max, permutations_only):
    """The report lines of the public checks, each walking the map itself, in
    the sweep's order."""
    lines = []
    for s in systems:
        if not permutations_only:
            lines.append(o.check_map_determinism(s).line())
        lines.append(o.lemma7_checks(s, power_max).line())
    return lines


def _sweep_lines(n_max, power_max, permutations_only=False):
    reports = o.sweep(n_max, power_max=power_max, permutations_only=permutations_only)
    return [r.line() for r in reports if r.check_id != "SWEEP_SUMMARY"]


@pytest.mark.parametrize("power_max", [1, 2, 3, 4])
def test_sweep_shared_limit_sets_give_the_public_lines(power_max):
    # The sweep walks each map's limit sets once for both checks; its lines
    # must be those of check_map_determinism and lemma7_checks.
    systems = [s for n in range(1, 6) for s in o.all_systems(n)]
    lines = _sweep_lines(5, power_max)
    assert lines == _public_lines(systems, power_max, False)
    assert all(" PASS " in line for line in lines)
    perms = [s for n in range(1, 7) for s in o.all_permutation_systems(n)]
    lines = _sweep_lines(6, power_max, permutations_only=True)
    assert lines == _public_lines(perms, power_max, True)
    assert all(" PASS " in line for line in lines)


def _swept_lemma7_line(n_max, power_max, table):
    """The LEMMA7 line the sweep prints for ``table``, the line after its
    SWEEP_MAP line."""
    lines = _sweep_lines(n_max, power_max)
    head = f"CHECK SWEEP_MAP PASS n={len(table)} map={','.join(map(str, table))} "
    return lines[next(i for i, line in enumerate(lines) if line.startswith(head)) + 1]


def test_sweep_prints_each_planted_lemma7_failure(monkeypatch):
    # The planted maps of the part a/b/c tests above, read through the sweep.
    with monkeypatch.context() as m:
        _plant_omega(m, (2, 0, 1), 1, {0, 2})
        line = _swept_lemma7_line(3, 3, (1, 2, 0))
        assert line == "CHECK LEMMA7 FAIL n=3 n_max=3 map=1,2,0 part=a x=1 power=2"
    with monkeypatch.context() as m:
        _plant_omega(m, (0, 1, 2), 2, {0, 2})
        line = _swept_lemma7_line(3, 2, (1, 0, 2))
        assert line == "CHECK LEMMA7 FAIL n=3 n_max=2 map=1,0,2 part=b x=2 power=2"
    with monkeypatch.context() as m:
        _plant_td(m, (0, 1), (False, o.Partition.from_blocks([(0, 1)])))
        line = _swept_lemma7_line(2, 2, (1, 0))
        assert line == "CHECK LEMMA7 FAIL n=2 n_max=2 map=1,0 part=c power=2 witness=0,1"


def test_permutation_sweep_names_the_map_of_a_planted_lemma7_failure(monkeypatch):
    # A permutations-only sweep prints no SWEEP_MAP line, so the FAIL line
    # alone must say which of the 3! maps failed.  The planted limit set is
    # that of 1 under the square of 1,2,0, and under 2,0,1 itself.
    _plant_omega(monkeypatch, (2, 0, 1), 1, {0, 2})
    failed = [r.line() for r in o.sweep(3, power_max=3, permutations_only=True)
              if not r.passed]
    assert failed == [
        "CHECK LEMMA7 FAIL n=3 n_max=3 map=1,2,0 part=a x=1 power=2",
        "CHECK LEMMA7 FAIL n=3 n_max=3 map=2,0,1 part=b x=1 power=2",
    ]


def test_check_map_determinism_reports():
    rep = o.check_map_determinism(sys_([1, 2, 2]))
    assert rep.passed
    assert dict(rep.params)["onto"] is False


def test_sweep_shapes():
    reports = o.sweep(3, power_max=2)
    summaries = [r for r in reports if r.check_id == "SWEEP_SUMMARY"]
    assert [dict(r.params)["maps"] for r in summaries] == [1, 4, 27]
    assert all(r.passed for r in reports)


def test_trusted_tables_build_equal_checked_systems(monkeypatch):
    # The sweep's maps and lemma7's powers skip the table checks; each table
    # that does must pass them and give an equal system.  A pair table is no
    # system: it is built without ``_trusted`` and passes the checks too.
    real = o.FiniteSystem._trusted
    seen = []

    def guarded(cls, table):
        system = real(table)
        assert o.FiniteSystem(table) == system, table
        seen.append(table)
        return system

    monkeypatch.setattr(o.FiniteSystem, "_trusted", classmethod(guarded))
    for n in range(1, 6):
        assert list(o.all_systems(n)) == list(map(o.FiniteSystem, seen[-n**n:]))
        perms = list(o.all_permutation_systems(n))
        assert len(perms) == math.factorial(n) and seen[-1] == perms[-1].table
    assert len(seen) == sum(n**n + math.factorial(n) for n in range(1, 6))
    small = [s for n in range(1, 4) for s in o.all_systems(n)]
    count = len(seen)
    for a in small:
        assert o.FiniteSystem(a.pair_table).table == naive_pair_table(a.table)
    assert len(seen) == count
    for s in perms:  # n = 5: every pair is recurrent, so part (c) runs
        assert o.lemma7_checks(s, 4).passed
    assert len(seen) == count + 3 * len(perms)  # the powers 2..4
    for generate in (o.all_systems, o.all_permutation_systems):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                generate(n)


def test_permutation_systems_are_the_onto_maps_in_order():
    for n in range(1, 6):
        onto = [s for s in o.all_systems(n) if s.onto]
        assert list(o.all_permutation_systems(n)) == onto


def test_sweep_permutations_only():
    reports = o.sweep(3, power_max=2, permutations_only=True)
    summaries = [r for r in reports if r.check_id == "SWEEP_SUMMARY"]
    assert [dict(r.params)["maps"] for r in summaries] == [1, 2, 6]

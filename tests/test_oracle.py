import random

import pytest

from dlab import oracle as o

from naive_refs import naive_first_forward_invariant_only


def sys_(table):
    return o.make_system(table)


# -- relations and classification ---------------------------------------------------


def test_classify_identity_map_everything_invariant():
    ident = sys_([0, 1, 2])
    for p in o.all_partitions(3):
        assert o.classify_relation(ident, p) == o.INVARIANT


def test_classify_diagonal_under_non_onto():
    s = sys_([1, 2, 2])
    assert o.classify_relation(s, o.Partition.diagonal(3)) == o.FORWARD_INVARIANT_ONLY


def test_classify_full_relation_on_two_cycle():
    s = sys_([1, 0])
    assert o.classify_relation(s, o.Partition.from_blocks(2, [(0, 1)])) == o.INVARIANT


def test_classify_not_forward_invariant():
    # 3-cycle with blocks {0,1},{2}: the image of (0,1) is (2,0), crossing blocks.
    s = sys_([2, 0, 1])
    p = o.Partition.from_blocks(3, [(0, 1), (2,)])
    assert o.classify_relation(s, p) == o.NOT_FORWARD_INVARIANT


def test_classify_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        o.classify_relation(sys_([0, 1]), o.Partition.diagonal(3))


def test_partition_validation_and_label():
    with pytest.raises(ValueError):
        o.Partition.from_blocks(3, [(0, 1)])
    p = o.Partition.from_blocks(3, [(2,), (0, 1)])
    assert p.label() == "0,1|2"
    assert (0, 1) in p.pairs() and (2, 2) in p.pairs() and (0, 2) not in p.pairs()


def test_restricted_growth_enumeration_bell_counts():
    bells = [1, 1, 2, 5, 15, 52, 203]
    for n in range(1, 7):
        parts = o.all_partitions(n)
        assert len(parts) == bells[n]
        assert len(set(parts)) == bells[n]
        assert parts[0] == o.Partition.from_blocks(n, [range(n)])
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
        assert o.is_td(o.FiniteSystem(6, perm))[0] is True


def test_td_bound():
    with pytest.raises(ValueError, match="exhaustive bound"):
        o.is_td(o.FiniteSystem(9, tuple(range(9))))


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


# -- orbits and limit sets -----------------------------------------------------------


def test_omega_examples():
    assert o.omega_limit(sys_([1, 2, 2]), 0) == {2}
    assert o.omega_limit(sys_([1, 0]), 0) == {0, 1}
    assert o.omega_limit(sys_([0, 0]), 0) == {0}


def test_recurrent_iff_on_cycle():
    s = sys_([1, 2, 0, 0])  # 3 -> 0 enters the 3-cycle
    assert all(o.is_recurrent(s, x) for x in (0, 1, 2))
    assert not o.is_recurrent(s, 3)


# -- the escaping-point relation -----------------------------------------------------


def test_lemma6_example_chain():
    points, partition, report = o.lemma6_relation(sys_([1, 2, 2]), 0)
    assert points == {0, 1, 2}
    assert partition == o.Partition.from_blocks(3, [(0, 1, 2)])
    assert report.passed
    assert dict(report.witness)["classified"] == o.FORWARD_INVARIANT_ONLY


def test_lemma6_two_point_example():
    points, partition, report = o.lemma6_relation(sys_([1, 1]), 0)
    assert points == {0, 1}
    assert partition == o.Partition.from_blocks(2, [(0, 1)])
    assert report.passed


def test_lemma6_rejects_recurrent_point():
    with pytest.raises(ValueError, match="recurrent"):
        o.lemma6_relation(sys_([1, 0]), 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lemma6_everywhere_small(n):
    for s in o.all_systems(n):
        for x in range(n):
            if o.is_recurrent(s, x):
                continue
            _, _, report = o.lemma6_relation(s, x)
            assert report.passed


# -- powers and products --------------------------------------------------------------


def test_power_system_functorial():
    s = sys_([1, 2, 0, 3])
    assert o.power_system(s, 1) == s
    assert o.power_system(s, 6).table[:3] == (0, 1, 2)  # 3-cycle closes


def test_product_system_recurrence_matches_joint_returns():
    s = sys_([1, 0, 2])  # 2-cycle plus fixed point
    prod = o.product_system(s, s)
    powers = [o.power_system(s, n) for n in range(1, 7)]
    for a in range(3):
        for b in range(3):
            code = a * 3 + b
            # Joint return: some n >= 1 with T^n a = a and T^n b = b.
            joint = any(
                power.table[a] == a and power.table[b] == b for power in powers
            )
            assert o.is_recurrent(prod, code) == joint


def test_lemma7_cycle_examples():
    three_cycle = sys_([1, 2, 0])
    assert o.lemma7_checks(three_cycle, 3).passed
    two_cycle = sys_([1, 0])
    assert o.lemma7_checks(two_cycle, 2).passed
    # Power 2 splits the 2-cycle into fixed points whose limit sets union back.
    pw = o.power_system(two_cycle, 2)
    assert o.omega_limit(pw, 0) == {0}
    assert o.omega_limit(pw, 1) == {1}


def test_omega_table_matches_orbit_walk():
    rng = random.Random(4099)
    systems = [s for n in range(1, 6) for s in o.all_systems(n)]
    systems += [o.make_system([rng.randrange(8) for _ in range(8)]) for _ in range(50)]
    for s in systems:
        for n in range(1, 5):
            power = o.power_system(s, n)
            want = tuple(o.omega_limit(power, z) for z in range(s.size))
            assert o._omega_table(power) == want, (s.table, n)


def test_lemma7_decomposition_randomless_sweep_n4():
    for s in o.all_systems(4):
        assert o.lemma7_checks(s, 4).passed


def test_all_pairs_recurrent_only_for_permutations_n3():
    for s in o.all_systems(3):
        assert o.all_pairs_recurrent(s) == s.onto


# -- serialization and sweep harness ---------------------------------------------------


def test_check_map_determinism_reports():
    rep = o.check_map_determinism(sys_([1, 2, 2]))
    assert rep.passed
    assert dict(rep.params)["onto"] is False


def test_sweep_shapes():
    reports = o.sweep(3, power_max=2)
    summaries = [r for r in reports if r.check_id == "SWEEP_SUMMARY"]
    assert [dict(r.params)["maps"] for r in summaries] == [1, 4, 27]
    assert all(r.passed for r in reports)


def test_permutation_systems_are_the_onto_maps_in_order():
    for n in range(1, 6):
        onto = [s for s in o.all_systems(n) if s.onto]
        assert list(o.all_permutation_systems(n)) == onto


def test_sweep_permutations_only():
    reports = o.sweep(3, power_max=2, permutations_only=True)
    summaries = [r for r in reports if r.check_id == "SWEEP_SUMMARY"]
    assert [dict(r.params)["maps"] for r in summaries] == [1, 2, 6]

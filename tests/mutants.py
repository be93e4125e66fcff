"""Mutation runner: each listed boundary mutant of ``src/dlab`` must be killed.

Run from anywhere, with the standard library and pytest only:

    python3 tests/mutants.py

Each entry of ``MUTANTS`` names a file under ``src``, an exact source text
that occurs there once, and its replacement.  It then gives either ``kills``,
the pytest node ids that must each fail on the mutant, or ``equivalent``, why
no test can tell the mutant from the program (such entries are listed, not
run).

The runner copies ``src``, ``tests`` and ``pyproject.toml`` into a
``tempfile`` directory, checks that the listed node ids pass there unmutated
and that the child imports ``dlab`` from the copy, then applies one mutant at
a time and runs one child pytest per node id, one child at a time.  A mutant
is killed when every listed node id fails: its test fails, its run crashes,
or it runs out of its 120 s or of its 1 GiB address space (a mutant that
stops the walk from advancing loops and grows its run list).  Exit 0 when
every mutant that is not equivalent is killed, 1 when one survives or fails
only some of its node ids, 2 when the unmutated copy does not pass.

The list holds the span walk of ``dlab.recurrence`` and the condition I/II
test of ``dlab.thm2`` that its limit-pair witness reads, the end sentinel of
``blocks.shift_violations``, thm1's C3 gate walk, the copy geometry of
``blocks.CopyLayout``, the cap test of ``blocks.check_cap``, the int64
range refusal of ``blocks.Block``, the value
C2PRIME's FAIL line prints, the oracle (its shared limit-set walk, its
partition-mask fold, its diagonal test, the pair-cycle walk of
``all_pairs_recurrent`` and the Lemma 7(c) gate before it, the map a LEMMA7
FAIL line names, the orbit walk of ``lemma6_relation`` and the sweep, and
the report equality and value formatting it pays for on every map),
``dlab.cli`` (the step of ``main`` that formats the reports, the FAIL scan
of its batched report writer, and the imports it leaves to its handlers),
the value numbering that ``blocks.window``, ``concat_all`` and ``scale``
keep, and the copy audit of ``thm1.Thm1State.copy_ratios``.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEMORY_LIMIT = 1 << 30
TIMEOUT_S = 120

WALK = "tests/test_recurrence.py::test_span_walk_matches_dense_runs_with_planted_boundaries"
RANDOM_STATES = (
    "tests/test_recurrence.py::test_escape_and_omega_match_dense_references_on_random_states"
)
HAND_ESCAPE = "tests/test_recurrence.py::test_escape_hand_state_x_side_two_choices_each"
PLANTED = (
    "tests/test_recurrence.py::test_omega_probe_branches_match_dense_references_on_planted_states"
)
SHIFT_SCAN = "tests/test_blocks.py::test_shift_violations_match_dense_scan"
RIGIDITY = "tests/test_thm2.py::test_rigidity_against_naive_on_random_states"
SMALL_SHIFTS = "tests/test_small_scope.py::test_shift_violations_on_every_small_block[1]"
SMALL_PIECES = "tests/test_small_scope.py::test_layout_pieces_and_nonzeros_on_every_small_row"
SMALL_COVERS = "tests/test_small_scope.py::test_layout_covers_on_every_small_row"
SMALL_NUMBERING = "tests/test_small_scope.py::test_every_producer_numbers_its_values_canonically"
FRESH_NUMBERING = (
    "tests/test_blocks.py::test_every_producer_caches_the_table_a_fresh_derivation_gives"
)
AUDIT = "tests/test_thm1.py::test_copy_audit_on_planted_layouts[{}]"
BUILT_AUDITS = "tests/test_thm1.py::test_built_stages_scan_no_old_scale_over_the_whole_prefix"
C3_GAPS = "tests/test_thm1.py::test_c3_gate_bounds_and_gap_resumption[{}]"
ONE_REFUSED = C3_GAPS.format("one-refused-then-gated")
IN_REACH = C3_GAPS.format("next-nonzero-past-limit-in-reach")
LAYOUT_READS = "tests/test_thm1.py::test_layout_reads_as_its_built_row"
PIECES = "tests/test_thm1.py::test_layout_pieces_and_pair_covers_read_as_the_built_row"
CAPS = "tests/test_cli.py::test_every_cap_admits_its_count_and_refuses_one_less"
RANGE_REFUSED = "tests/test_blocks.py::test_blocks_past_the_int64_positions_are_refused[{}]"
RANGE_ENDS = "tests/test_blocks.py::test_blocks_at_the_int64_ends_are_built"
MASKS = "tests/test_oracle.py::test_partition_masks_classify_every_partition"
TD_EXAMPLES = "tests/test_oracle.py::test_td_examples"
TD_SMALL = "tests/test_oracle.py::test_td_iff_bijection_small[3]"
SWEPT_PERMUTATION = (
    "tests/test_oracle.py::test_permutation_sweep_names_the_map_of_a_planted_lemma7_failure"
)
PART_A = "tests/test_oracle.py::test_lemma7_part_a_reports_a_point_lost_by_a_power"
SWEPT_PARTS = "tests/test_oracle.py::test_sweep_prints_each_planted_lemma7_failure"
SHARED = "tests/test_oracle.py::test_sweep_shared_limit_sets_give_the_public_lines[{}]"
PAIR_TAILS = "tests/test_oracle.py::test_pair_walk_sees_each_pair_moved_onto_a_tail"
DENSE_CYCLES = "tests/test_oracle.py::test_pair_walk_matches_the_dense_cycle_test"
PAIR_GATE = (
    "tests/test_oracle.py::"
    "test_lemma7_walks_the_pairs_of_exactly_the_maps_whose_points_all_recur"
)
DENSE_ORBITS = "tests/test_oracle.py::test_lemma6_relation_matches_a_dense_orbit_reference"
C2PRIME_SLIDE = "tests/test_thm1.py::test_c2prime_sliding_max_matches_naive_on_seeded_rows"
C2PRIME_LAYOUT = "tests/test_thm1.py::test_c2prime_failure_on_a_layout_prints_the_flat_line"
EQUALITY = "tests/test_records.py::test_equality_and_hash_follow_the_fields[{}]"
FORMAT = "tests/test_records.py::test_report_values_print_as_pinned[{}]"
START_UP = "tests/test_cli.py::test_each_command_loads_only_the_modules_it_runs"
BATCHES = "tests/test_cli.py::test_report_written_in_batches_keeps_every_line_and_fail"
IN_PROCESS = "tests/test_cli.py::test_main_callable_in_process"
UNFORMATTED = "tests/test_cli.py::test_a_report_that_cannot_be_formatted_exits_3"

MUTANTS = [
    {
        "name": "merge-ge",  # neighbours 2w + 1 apart stop sharing a span
        "file": "dlab/recurrence.py",
        "text": "map(gt, map(sub, positions[1:], positions)",
        "replacement": 'map(__import__("operator").ge, map(sub, positions[1:], positions)',
        "kills": [WALK],
    },
    {
        "name": "sentinel-hi",  # the sentinel covers the last center
        "file": "dlab/recurrence.py",
        "text": "clipped += starts[i:k] + [hi + 1], ends[i:k] + [hi + 1]",
        "replacement": "clipped += starts[i:k] + [hi], ends[i:k] + [hi]",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "clip-lo",  # a span that ends at lo is dropped
        "file": "dlab/recurrence.py",
        "text": "i, k = bisect_left(ends, lo), bisect_right(starts, hi)",
        "replacement": "i, k = bisect_right(ends, lo), bisect_right(starts, hi)",
        "kills": [WALK],
    },
    {
        "name": "clip-hi",  # a span that starts at hi is dropped
        "file": "dlab/recurrence.py",
        "text": "i, k = bisect_left(ends, lo), bisect_right(starts, hi)",
        "replacement": "i, k = bisect_left(ends, lo), bisect_left(starts, hi)",
        "kills": [WALK],
    },
    {
        "name": "free-1-ge",
        "file": "dlab/recurrence.py",
        "text": "if s1[a] > j:",
        "replacement": "if s1[a] >= j:",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "free-2-ge",
        "file": "dlab/recurrence.py",
        "text": "if s2[b] > j:",
        "replacement": "if s2[b] >= j:",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "free-3-ge",
        "file": "dlab/recurrence.py",
        "text": "if s3[c] > j:",
        "replacement": "if s3[c] >= j:",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "stop-clamp",  # an r = 3 run runs past the end of r = 2's span
        "file": "dlab/recurrence.py",
        "text": "        if e2[b] < stop:\n            stop = e2[b] + 1\n",
        "replacement": "",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "stop-clamp-le",
        "file": "dlab/recurrence.py",
        "text": "if s2[b] < stop:",
        "replacement": "if s2[b] <= stop:",
        "equivalent": "at s2[b] == stop the clamp writes the value stop already holds",
    },
    {
        "name": "failure-return",
        "file": "dlab/recurrence.py",
        "text": "        return runs, j\n",
        "replacement": "        return runs, j + 1\n",
        "kills": [WALK, RANDOM_STATES],
    },
    {
        "name": "escape-shift",
        "file": "dlab/recurrence.py",
        "text": "d = r * time",
        "replacement": "d = (r - 1) * time",
        "kills": [RANDOM_STATES, HAND_ESCAPE],
    },
    {
        "name": "omega-shift",  # return positions merge with the nonzeros of r - 1
        "file": "dlab/recurrence.py",
        "text": "list(map(sub, nz, repeat(d)))",
        "replacement": "list(map(sub, nz, repeat(d - time)))",
        "kills": [RANDOM_STATES, PLANTED],
    },
    {
        "name": "omega-dedup",
        "file": "dlab/recurrence.py",
        "text": "_spans(sorted(blocked + list(map(sub, nz, repeat(d)))), w)",
        "replacement": "_spans(sorted(set(blocked + list(map(sub, nz, repeat(d))))), w)",
        "equivalent": "a repeated position is a gap of 0, which shares a span anyway",
    },
    {
        "name": "probe-bound",  # steps up to 2/k pass I/II and skip the 3/k scans
        "file": "dlab/thm2.py",
        "text": "shift_violations(block, shift, Fraction(1, k))",
        "replacement": "shift_violations(block, shift, Fraction(2, k))",
        "kills": [PLANTED, RIGIDITY],
    },
    {
        "name": "probe-shift",  # I/II read steps of twice the time
        "file": "dlab/thm2.py",
        "text": "shift_violations(block, shift, Fraction(1, k))",
        "replacement": "shift_violations(block, 2 * shift, Fraction(1, k))",
        "kills": [PLANTED, RIGIDITY],
    },
    {
        "name": "omega-part-shift",  # the failure's escape part is read at - r * time
        "file": "dlab/recurrence.py",
        "text": "_near(escaping.nonzero_positions, failure + r * time, w)",
        "replacement": "_near(escaping.nonzero_positions, failure - r * time, w)",
        "kills": [RANDOM_STATES, PLANTED],
    },
    {
        "name": "sentinel-end",  # an exhausted pointer can tie the last position
        "file": "dlab/blocks.py",
        "text": "end = block.last + max(0, -shift) + 1",
        "replacement": "end = block.last + max(0, -shift)",
        "kills": [SHIFT_SCAN, SMALL_SHIFTS],
    },
    {
        "name": "sentinel-shift-sign",  # at a negative shift i + shift reads past it
        "file": "dlab/blocks.py",
        "text": "end = block.last + max(0, -shift) + 1",
        "replacement": "end = block.last + max(0, shift) + 1",
        "kills": [SHIFT_SCAN, SMALL_SHIFTS],
    },
    {
        "name": "c3-resume",  # a refused pair skips the position after it
        "file": "dlab/thm1.py",
        "text": "lo = hit[0] + 1  # refused",
        "replacement": "lo = hit[0] + 2  # refused",
        "kills": [ONE_REFUSED],
    },
    {
        "name": "c3-run-start",  # a run starts one past its first gated position
        "file": "dlab/thm1.py",
        "text": "lo, end = max(lo, nz[i] - k + 1), i",
        "replacement": "lo, end = max(lo, nz[i] - k + 2), i",
        "kills": [C3_GAPS.format("gap-16-gated")],
    },
    {
        "name": "c3-gate-reach",  # the gate reads one position past q + k - 1
        "file": "dlab/thm1.py",
        "text": "nz[g] <= min(hit[0] + k - 1, limit)",
        "replacement": "nz[g] <= min(hit[0] + k, limit)",
        "kills": [ONE_REFUSED],
    },
    {
        "name": "c3-gate-limit",  # the gate reads the nonzero at last - n_k + 1
        "file": "dlab/thm1.py",
        "text": "nz[g] <= min(hit[0] + k - 1, limit)",
        "replacement": "nz[g] <= min(hit[0] + k - 1, limit + 1)",
        "kills": [IN_REACH],
    },
    {
        "name": "c3-limit",
        "file": "dlab/thm1.py",
        "text": "limit = row.last - n_k  #",
        "replacement": "limit = row.last - n_k + 1  #",
        "kills": [C3_GAPS.format("gap-17-past-limit")],
    },
    {
        "name": "pieces-clip-lo",  # a range that starts before the row wraps to its end
        "file": "dlab/blocks.py",
        "text": "lo, hi = max(lo, base), min(hi, self.last)",
        "replacement": "lo, hi = lo, min(hi, self.last)",
        "kills": [PIECES, SMALL_PIECES],
    },
    {
        "name": "pieces-clip-hi",
        "file": "dlab/blocks.py",
        "text": "lo, hi = max(lo, base), min(hi, self.last)",
        "replacement": "lo, hi = max(lo, base), hi",
        "kills": [PIECES, SMALL_PIECES],
    },
    {
        "name": "pieces-copy-end",  # a piece runs one into the next copy
        "file": "dlab/blocks.py",
        "text": "base + (t + 1) * pitch - 1",
        "replacement": "base + (t + 1) * pitch",
        "kills": [PIECES, LAYOUT_READS, SMALL_PIECES, SMALL_COVERS],
    },
    {
        "name": "cover-copy0-last",  # a range from copy 0 into copy 1 reads copy 0
        "file": "dlab/blocks.py",
        "text": "if parts[-1][0] == 0 and self.ratios[0] == 1:",
        "replacement": "if parts[0][0] == 0 and self.ratios[0] == 1:",
        "kills": [LAYOUT_READS, PIECES, SMALL_COVERS],
    },
    {
        "name": "cover-copy0-ratio",  # copy 0 read unscaled at c_0 < 1
        "file": "dlab/blocks.py",
        "text": "if parts[-1][0] == 0 and self.ratios[0] == 1:",
        "replacement": "if parts[-1][0] == 0:",
        "kills": [LAYOUT_READS, PIECES, SMALL_COVERS],
    },
    {
        "name": "pair-cover-meet",  # ranges that just meet take the gap branch
        "file": "dlab/blocks.py",
        "text": "if a + shift <= b + 1:",
        "replacement": "if a + shift <= b:",
        "kills": [PIECES, SMALL_COVERS],
    },
    {
        "name": "window-unnumbered",  # a window keeps its parent's table
        "file": "dlab/blocks.py",
        "text": "b._nonzero[a:c], table, ids)",
        "replacement": "b._nonzero[a:c], b._table, b._ids[a:c])",
        "kills": [SMALL_NUMBERING, FRESH_NUMBERING],
    },
    {
        "name": "concat-copies-remapped",  # an input whose first value keeps id 0 is copied
        "file": "dlab/blocks.py",
        "text": "kept = remap == list(range(len(remap)))",
        "replacement": "kept = remap[:1] == [0]",
        "kills": [SMALL_NUMBERING, FRESH_NUMBERING],
    },
    {
        "name": "scale-reordered",  # the scaled table is stored last value first
        "file": "dlab/blocks.py",
        "text": "tuple(t * v for v in b._table)",
        "replacement": "tuple(t * v for v in reversed(b._table))",
        "kills": [SMALL_NUMBERING, FRESH_NUMBERING],
    },
    {
        "name": "audit-ratio-1-refused",  # a copy at ratio 1 is refused
        "file": "dlab/thm1.py",
        "text": "if top > bottom:",
        "replacement": "if top >= bottom:",
        "kills": [AUDIT.format("copy-at-ratio-1"), BUILT_AUDITS],
    },
    {
        "name": "audit-count-dropped",  # a copy's nonzero count is not compared
        "file": "dlab/thm1.py",
        "text": "                if b - a != len(pos0):\n                    return None\n",
        "replacement": "",
        "kills": [AUDIT.format("nonzero-copy-of-an-empty-copy-0")],
    },
    {
        "name": "audit-shift-plus-one",  # copy j is compared one past j * L
        "file": "dlab/thm1.py",
        "text": "map(sub, nz[a:b], pos0), repeat(shift)",
        "replacement": "map(sub, nz[a:b], pos0), repeat(shift + 1)",
        "kills": [AUDIT.format("copy-at-ratio-1"), AUDIT.format("copy-moved-by-one"),
                  BUILT_AUDITS],
    },
    {
        "name": "audit-multiple-dropped",  # a length that L does not divide is audited
        "file": "dlab/thm1.py",
        "text": "            if total % size:\n                return None\n",
        "replacement": "",
        "kills": [AUDIT.format("length-not-a-multiple")],
    },
    {
        "name": "range-top",  # a block through 2**63 is admitted, then overflows
        "file": "dlab/blocks.py",
        "text": "base + length - 1 < 2**63",
        "replacement": "base + length - 1 <= 2**63",
        "kills": [RANGE_REFUSED.format("base-2**63"), RANGE_REFUSED.format("last-2**63"),
                  RANGE_REFUSED.format("concat-past-top")],
    },
    {
        "name": "range-bottom",  # a block from -2**63 is refused
        "file": "dlab/blocks.py",
        "text": "-(2**63) <= base",
        "replacement": "-(2**63) < base",
        "kills": [RANGE_ENDS],
    },
    {
        "name": "cap-boundary",  # a count equal to the cap is refused
        "file": "dlab/blocks.py",
        "text": "if need <= cap:",
        "replacement": "if need < cap:",
        "kills": [CAPS],
    },
    {
        "name": "strict-early-exit",  # the fold stops at its first set bit
        "file": "dlab/oracle.py",
        "text": "if strict == full:",
        "replacement": "if strict:",
        "kills": [MASKS],
    },
    {
        "name": "strict-d-range",  # a point with no preimage is not seen
        "file": "dlab/oracle.py",
        "text": "for d in range(c + 1):",
        "replacement": "for d in range(c):",
        "kills": [MASKS],
    },
    {
        "name": "diagonal-le",  # every map fails the diagonal test
        "file": "dlab/oracle.py",
        "text": "if len(set(table)) < n:",
        "replacement": "if len(set(table)) <= n:",
        "kills": [TD_EXAMPLES, TD_SMALL],
    },
    {
        "name": "lemma7-fail-map",  # a LEMMA7 FAIL line does not name its map
        "file": "dlab/oracle.py",
        "text": '(("map", ",".join(map(str, table))), *witness)',
        "replacement": "witness",
        "kills": [PART_A, SWEPT_PERMUTATION],
    },
    {
        "name": "lemma7-power-start",  # parts (a) and (b) skip the square
        "file": "dlab/oracle.py",
        "text": "for n in range(2, n_max + 1):",
        "replacement": "for n in range(3, n_max + 1):",
        "kills": [PART_A, SWEPT_PARTS],
    },
    {
        "name": "sweep-omega-square",  # the sweep shares the limit sets of T^2
        "file": "dlab/oracle.py",
        "text": "omega = _omega_table(sys.table)",
        "replacement": "omega = _omega_table(tuple(map(sys.table.__getitem__, sys.table)))",
        "kills": [SHARED.format(2), SHARED.format(4)],
    },
    {
        "name": "cycle-closes-below",  # a walk that meets itself above its start closes
        "file": "dlab/oracle.py",
        "text": "if cur != start:",
        "replacement": "if cur < start:",
        "kills": [PAIR_TAILS, DENSE_CYCLES],
    },
    {
        "name": "cycle-state-ahead",  # the walk stops one point before a marked one
        "file": "dlab/oracle.py",
        "text": "while not seen[cur]:",
        "replacement": "while not seen[table[cur]]:",
        "kills": [PAIR_TAILS, DENSE_CYCLES],
    },
    {
        "name": "cycle-state-per-walk",  # each walk forgets the earlier walks' marks
        "file": "dlab/oracle.py",
        "text": "    seen = bytearray(len(table))\n    for start in range(len(table)):\n",
        "replacement": "    for start in range(len(table)):\n        seen = bytearray(len(table))\n",
        "equivalent": (
            "a point marked by an earlier walk lies on a cycle that walk closed, so a walk "
            "that forgets it runs on round that cycle and stops where it first meets its "
            "own path: the point where its orbit enters its cycle, which is its start "
            "exactly when its start is on a cycle, as when it stops at the earlier mark"
        ),
    },
    {
        "name": "pairs-walk-skipped",  # a map passes without the walk
        "file": "dlab/oracle.py",
        "text": "return _on_cycles(sys.pair_table)",
        "replacement": "return True",
        "kills": [PAIR_TAILS],
    },
    {
        # Part (c) without its gate: every report stays the same, since a
        # point off every cycle puts its pair (x, x) off the pair map's
        # cycles and the walk gives the same answer, only slower.  The test
        # that records each walk tells the two apart.
        "name": "lemma7-gate-dropped",
        "file": "dlab/oracle.py",
        "text": "if every_recurrent and all_pairs_recurrent(sys):",
        "replacement": "if all_pairs_recurrent(sys):",
        "kills": [PAIR_GATE],
    },
    {
        "name": "orbit-start-after",  # the walk leaves its start out
        "file": "dlab/oracle.py",
        "text": "mask, cur = 0, x",
        "replacement": "mask, cur = 0, table[x]",
        "kills": [DENSE_ORBITS],
    },
    {
        "name": "orbit-stop-flipped",  # the walk stops before its first step
        "file": "dlab/oracle.py",
        "text": "while not mask >> cur & 1:",
        "replacement": "while mask >> cur & 1:",
        "kills": [DENSE_ORBITS],
    },
    {
        "name": "lemma6-recurrence-closure",  # the test reads the orbit that holds x
        "file": "dlab/oracle.py",
        "text": "if after >> x & 1:",
        "replacement": "if closure >> x & 1:",
        "kills": [DENSE_ORBITS],
    },
    {
        "name": "c2prime-value-index",  # the FAIL line prints the next symbol
        "file": "dlab/thm1.py",
        "text": "return p, part[p], Fraction(eps, den)",
        "replacement": "return p, part[p + 1], Fraction(eps, den)",
        "kills": [C2PRIME_SLIDE, C2PRIME_LAYOUT],
    },
    {
        "name": "eq-identity",  # a record differs from itself
        "file": "dlab/report.py",
        "text": "if other is self:\n            return True",
        "replacement": "if other is self:\n            return False",
        "kills": [EQUALITY.format("CheckReport"), SHARED.format(1)],
    },
    {
        "name": "format-fast-repr",  # an exact str prints quoted
        "file": "dlab/report.py",
        "text": "if cls is str or cls is int:\n        return str(v)",
        "replacement": "if cls is str or cls is int:\n        return repr(v)",
        "kills": [FORMAT.format("str")],
    },
    {
        "name": "main-unformatted",  # a report is printed as its repr
        "file": "dlab/cli.py",
        "text": "x if type(x) is str else x.line()",
        "replacement": "x if type(x) is str else str(x)",
        "kills": [IN_PROCESS, UNFORMATTED],
    },
    {
        "name": "writer-last-batch",  # a FAIL in the last, partial batch is not seen
        "file": "dlab/cli.py",
        "text": "for line in batch:",
        "replacement": "for line in (batch if len(batch) == WRITE_BATCH else ()):",
        "kills": [BATCHES],
    },
    {
        "name": "writer-first-line",  # only the first line of each batch is scanned
        "file": "dlab/cli.py",
        "text": "for line in batch:",
        "replacement": "for line in batch[:1]:",
        "kills": [BATCHES],
    },
    {
        "name": "eager-thm2",  # every command compiles thm2 again
        "file": "dlab/cli.py",
        "text": "from .report import CheckReport, INFO\n",
        "replacement": "from . import thm2\nfrom .report import CheckReport, INFO\n",
        "kills": [START_UP],
    },
]


def mutated(mutant: dict, source: str) -> str:
    """``source`` with the mutant's text replaced; the text must occur once."""
    count = source.count(mutant["text"])
    if count != 1:
        raise ValueError(f"{mutant['name']}: source text occurs {count} times, not once")
    return source.replace(mutant["text"], mutant["replacement"])


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(copy: str, node_ids: list):
    """Exit code of one child pytest on ``node_ids`` in ``copy``, or None when
    it runs out of time."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
            cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S,
            preexec_fn=_limit_memory,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _kills(copy: str, mutant: dict) -> list:
    """The mutant's node ids that do not fail on it, each run on its own: a
    failure leaves a frame full of runs behind it that would starve the next
    test of memory."""
    path = os.path.join(copy, "src", mutant["file"])
    with open(path) as f:
        source = f.read()
    with open(path, "w") as f:
        f.write(mutated(mutant, source))
    try:
        # Exit 1 is a failed test; 2 and 3 an interrupted or crashed run;
        # 0 a pass, and 4 or 5 node ids that were not run.
        return [
            node_id for node_id in mutant["kills"]
            if _pytest(copy, [node_id]) in (0, 4, 5)
        ]
    finally:
        with open(path, "w") as f:
            f.write(source)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dlab-mutants-") as copy:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        where = subprocess.run(
            [sys.executable, "-c", "import dlab; print(dlab.__file__)"],
            env={**os.environ, "PYTHONPATH": os.path.join(copy, "src")},
            capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(copy):
            print(f"the child imports dlab from {where or 'nowhere'}, not from the copy")
            return 2
        node_ids = sorted({i for m in MUTANTS for i in m.get("kills", ())})
        if _pytest(copy, node_ids) != 0:
            print("the listed tests do not pass on the unmutated copy")
            return 2
        survivors = 0
        for mutant in MUTANTS:
            if "equivalent" in mutant:
                print(f"EQUIVALENT {mutant['name']}: {mutant['equivalent']}")
                continue
            passed = _kills(copy, mutant)
            if passed:
                survivors += 1
                print(f"SURVIVED {mutant['name']}: not failed by {', '.join(passed)}")
            else:
                print(f"KILLED {mutant['name']}")
    print(f"{survivors} of {sum('kills' in m for m in MUTANTS)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

import ast
import hashlib
import subprocess
import sys
import time

import pytest

from dlab.blocks import dump_tdseq, load_tdseq, write_tdseq
from dlab.cli import main
from dlab import cli, oracle, thm1, thm2

from child_env import CHILD_ENV


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dlab.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def test_thm1_build_round_trip(tmp_path):
    out = tmp_path / "x2.tdseq"
    result = run_cli("thm1", "build", "--stage", "2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "CHECK THM1_BUILD PASS stage=2 length=12" in result.stdout
    assert load_tdseq(out) == thm1.build(2).prefix


def test_thm1_build_writes_the_flat_stage_byte_for_byte(tmp_path, capsys):
    # The export writes stage S from its copy layout of stage S-1.
    for stage in range(1, 8):
        out, flat = tmp_path / f"x{stage}.tdseq", tmp_path / f"flat{stage}.tdseq"
        assert main(["thm1", "build", "--stage", str(stage), "--out", str(out)]) == 0
        dump_tdseq(thm1.build(stage).prefix, flat)
        assert out.read_bytes() == flat.read_bytes(), stage
    capsys.readouterr()


class _HashSink:
    def __init__(self, sha):
        self.sha = sha

    def write(self, text):
        self.sha.update(text.encode("ascii"))


def test_thm1_build_stage_9_bytes_are_pinned(monkeypatch, capsys):
    # 83 MB of text, hashed as written rather than stored.
    sha = hashlib.sha256()
    monkeypatch.setattr(cli, "dump_tdseq", lambda block, path: write_tdseq(block, _HashSink(sha)))
    assert main("thm1 build --stage 9 --out x9.tdseq".split()) == 0
    assert capsys.readouterr().out == (
        "CHECK THM1_BUILD PASS stage=9 length=19958400 out=x9.tdseq\n"
    )
    assert sha.hexdigest() == (
        "2bba70b9711dd189befb71567124aae47fd3d46b64c1486b19e195499bf694ea"
    )


def test_thm1_verify_all_pass():
    result = run_cli("thm1", "verify", "--stage", "3", "--kmax", "5")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert any(l.startswith("CHECK C1 PASS") for l in lines)
    assert any(l.startswith("CHECK C2PRIME PASS") for l in lines)
    assert any(l.startswith("CHECK C3 PASS") for l in lines)
    assert any(l.startswith("CHECK LITERAL2_FALSIFIER INFO") for l in lines)
    assert any(l.startswith("CHECK TAILS PASS") for l in lines)


def test_thm1_verify_failure_exit_code():
    # kmax far above the longest run makes C1 fail: exit 1, FAIL on the line.
    result = run_cli("thm1", "verify", "--stage", "2", "--kmax", "1000")
    assert result.returncode == 1
    assert "CHECK C1 FAIL" in result.stdout


def test_thm2_build_writes_spacers_and_blocks(tmp_path):
    ox, oy = tmp_path / "x.tdseq", tmp_path / "y.tdseq"
    result = run_cli(
        "thm2", "build", "--stage", "3", "--out-x", str(ox), "--out-y", str(oy)
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("SPACERS r=") == 2
    state = thm2.build_to_stage(3)
    assert load_tdseq(ox) == state.x
    assert load_tdseq(oy) == state.y


def test_thm2_verify_reports():
    result = run_cli("thm2", "verify", "--stage", "2", "--kmax", "1")
    assert result.returncode == 0, result.stderr
    out = result.stdout
    for check in ("I", "II", "III", "IV"):
        assert f"CHECK {check} PASS" in out
    assert "CHECK V PASS" in out
    assert "CHECK Z PASS" in out
    assert "CHECK SLIDING_FALSIFIER INFO" in out


def test_recur_subcommands():
    result = run_cli("recur", "pair-sep", "--stage", "3")
    assert result.returncode == 0 and "CHECK PAIR_SEP PASS" in result.stdout
    result = run_cli("recur", "escape", "--stage", "3", "--k", "1", "--w", "1")
    assert result.returncode == 0
    assert "CHECK ESCAPE PASS" in result.stdout
    assert "WITNESS kind=escape side=XatN" in result.stdout
    result = run_cli("recur", "omega", "--stage", "3", "--k", "1", "--w", "1")
    assert result.returncode == 0
    assert "CHECK CROSS_OMEGA PASS" in result.stdout
    assert "WITNESS kind=omega side=y" in result.stdout


def test_oracle_sweep_exhaustive():
    result = run_cli("oracle", "sweep", "--nmax", "3", "--Nmax", "3")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    per_map = [l for l in lines if l.startswith("CHECK SWEEP_MAP")]
    assert len(per_map) == 1 + 4 + 27
    assert "CHECK SWEEP_SUMMARY PASS n=3 maps=27" in result.stdout


def test_oracle_lemma6_cli():
    result = run_cli("oracle", "lemma6", "--map", "1,2,2", "--point", "0")
    assert result.returncode == 0
    assert "CHECK LEMMA6 PASS n=3 x=0" in result.stdout
    assert "PARTITION 0,1,2" in result.stdout


def test_config_errors_exit_2():
    # Recurrent point: the construction is inapplicable.
    result = run_cli("oracle", "lemma6", "--map", "1,0", "--point", "0")
    assert result.returncode == 2
    assert "error:" in result.stderr
    # Resource cap refusal.
    result = run_cli(
        "thm1", "build", "--stage", "9", "--out", "/dev/null",
        "--max-symbols", "1000",
    )
    assert result.returncode == 2
    # A stage far past the cap is refused on one line, its length not formed.
    result = run_cli("thm1", "build", "--stage", "1000000", "--out", "/dev/null")
    assert result.returncode == 2
    assert result.stderr == (
        "error: stage 1000000 has more than 2**999999 positions, cap is 100000000\n"
    )
    # Unknown flags are rejected by the parser (argparse exits 2).
    result = run_cli("thm1", "verify", "--stage", "2", "--kmax", "1", "--bogus")
    assert result.returncode == 2


def test_lemma6_point_outside_the_system_exits_2():
    for point in ("5", "-1"):
        result = run_cli("oracle", "lemma6", "--map", "1,2,2", "--point", point)
        assert result.returncode == 2
        assert result.stderr == f"error: point {point} outside 0..2\n"


@pytest.mark.parametrize(
    "table, entry",
    [(" 1,0", " 1"), ("+1,0", "+1"), ("1_0,0", "1_0"), ("1,0,", ""),
     ("01,0", "01"), ("\u0661,0", "\u0661"), ("1,-0", "-0")],
)
def test_lemma6_map_accepts_only_plain_decimals(capsys, table, entry):
    assert main(["oracle", "lemma6", "--map", table, "--point", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --map entry {entry!r} is not an integer 0|[1-9][0-9]*\n"


def test_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise KeyError("lost\ntable")

    monkeypatch.setattr(cli, "cmd_oracle_lemma6", broken)
    assert main(["oracle", "lemma6", "--map", "1,2,2", "--point", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: KeyError('lost\\ntable')\n"


def test_byte_identical_reruns():
    a = run_cli("thm2", "verify", "--stage", "3", "--kmax", "2")
    b = run_cli("thm2", "verify", "--stage", "3", "--kmax", "2")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    a = run_cli("oracle", "sweep", "--nmax", "3")
    b = run_cli("oracle", "sweep", "--nmax", "3")
    assert a.stdout == b.stdout


def test_sampled_sweep_above_exhaustive_bound():
    args = ("oracle", "sweep", "--nmax", "7", "--Nmax", "2", "--sample", "5",
            "--seed", "11", "--permutations-only")
    a = run_cli(*args)
    assert a.returncode == 0, a.stderr
    assert "CHECK SWEEP_SAMPLED INFO n=7 sample=5 seed=11" in a.stdout
    # Seeded sampling stays reproducible.
    assert run_cli(*args).stdout == a.stdout


def test_permutations_only_sampling_checks_every_draw(capsys):
    # Each of the 5 draws at n = 7 is a permutation, so each is checked.
    argv = "oracle sweep --nmax 7 --Nmax 1 --sample 5 --seed 11 --permutations-only"
    assert main(argv.split()) == 0
    maps = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("CHECK SWEEP_MAP")
    ]
    assert len(maps) == 5
    for line in maps:
        table = dict(f.split("=") for f in line.split()[3:])["map"].split(",")
        assert sorted(map(int, table)) == list(range(7)), line
        assert "onto=true td=true" in line


def test_thm2_stage_6_verifies_at_the_default_cap():
    # The cap counts stored nonzeros (10,395 per block at stage 6), not the
    # 5.6e9 positions, and the phase search is linear in the nonzeros.
    result = run_cli("thm2", "verify", "--stage", "6", "--kmax", "5")
    assert result.returncode == 0, result.stderr
    assert "CHECK III PASS stage=6 k=5 cell=401350950 phase=183522351" in result.stdout
    assert "FAIL" not in result.stdout


def test_thm2_build_refuses_a_dense_export_over_the_cap(tmp_path):
    ox, oy = tmp_path / "x.tdseq", tmp_path / "y.tdseq"
    result = run_cli(
        "thm2", "build", "--stage", "6", "--out-x", str(ox), "--out-y", str(oy)
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: stage 6 has 5648312557 positions, cap is 100000000\n"
    )
    assert not ox.exists() and not oy.exists()


def test_thm2_over_the_nonzero_cap_is_refused_before_any_build(monkeypatch, capsys):
    # The stored count follows from the stage number (times 3 for the
    # interleave), so the refusal comes before the solver runs.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a stage the cap refuses")

    monkeypatch.setattr(thm2, "solve_spacers", no_solve)
    cases = (
        ("thm2 verify --stage 9 --kmax 1", "stage 9 stores 34459425"),
        ("recur escape --stage 9 --k 3 --w 1", "stage 9 stores 34459425"),
        ("thm2 verify --stage 8 --kmax 1", "stage 8 stores 2027025"),
        ("thm2 verify --stage 8 --kmax 1 --transitive", "stage 8 stores 6081075"),
        # Far past the cap and 2**64 the count is not multiplied out.
        ("recur pair-sep --stage 1000000", "stage 1000000 stores more than 2**999999"),
        ("thm2 verify --stage 5000 --kmax 1 --transitive", "stage 5000 stores more than 2**4999"),
    )
    for argv, stored in cases:
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {stored} nonzeros per block, cap is 1000000\n"


def test_thm1_caps_count_nonzeros_for_verify_and_positions_for_build(
    tmp_path, monkeypatch, capsys
):
    # Stage m stores (m+1)!/2 nonzeros in (m+2)!/2 positions; both counts
    # follow from the stage number, so a refusal comes before any step.
    # thm1 verify builds only stage S-1, so that is the stage it caps.
    class Built(Exception):
        pass

    def no_step(state):
        raise Built(state.stage + 1)

    monkeypatch.setattr(thm1, "step", no_step)
    out = tmp_path / "x.tdseq"
    cases = (
        ("thm1 verify --stage 12 --kmax 20 --jmax 4",
         "stage 11 stores 239500800 nonzeros, cap is 100000000"),
        (f"thm1 build --stage 10 --out {out}",
         "stage 10 has 239500800 positions, cap is 100000000"),
        # Far past the cap and 2**64 the count is not multiplied out.
        ("thm1 verify --stage 5000 --kmax 1",
         "stage 4999 stores more than 2**4998 nonzeros, cap is 100000000"),
        ("thm1 verify --stage 1000000 --kmax 1",
         "stage 999999 stores more than 2**999998 nonzeros, cap is 100000000"),
        (f"thm1 build --stage 5000 --out {out}",
         "stage 5000 has more than 2**4999 positions, cap is 100000000"),
    )
    for argv, message in cases:
        start = time.perf_counter()
        assert main(argv.split()) == 2, argv
        assert time.perf_counter() - start < 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
    # Stage 11 verify (stage 10 stores 19,958,400 nonzeros) passes the cap and
    # starts building; thm1 build admits stage 9 (19,958,400 positions).
    for argv in ("thm1 verify --stage 11 --kmax 20 --jmax 4",
                 f"thm1 build --stage 9 --out {out}"):
        args = cli.build_parser().parse_args(argv.split())
        with pytest.raises(Built, match="^2$"):
            args.handler(args)


def test_every_cap_admits_its_count_and_refuses_one_less(tmp_path, monkeypatch, capsys):
    # At cap == count the command passes its cap check and reaches its first
    # step, stubbed here; at count - 1 it exits 2 on the exact line.
    class Stepped(Exception):
        pass

    def stepped(*args, **kwargs):
        raise Stepped

    monkeypatch.setattr(thm1, "step", stepped)
    monkeypatch.setattr(thm2, "solve_spacers", stepped)
    out = tmp_path / "x.tdseq"
    cases = (
        ("thm1 verify --stage 7 --kmax 1", "stage 6 stores {} nonzeros", 2520),
        (f"thm1 build --stage 6 --out {out}", "stage 6 has {} positions", 20160),
        ("thm2 verify --stage 5 --kmax 1",
         "stage 5 stores {} nonzeros per block", 945),
        ("thm2 verify --stage 5 --kmax 1 --transitive",
         "stage 5 stores {} nonzeros per block", 2835),
    )
    for argv, what, count in cases:
        args = cli.build_parser().parse_args(f"{argv} --max-symbols {count}".split())
        with pytest.raises(Stepped):
            args.handler(args)
        assert main(f"{argv} --max-symbols {count - 1}".split()) == 2, argv
        assert capsys.readouterr() == (
            "", f"error: {what.format(count)}, cap is {count - 1}\n"
        )
    assert not out.exists()


def test_thm2_build_caps_the_positions_of_each_built_stage(tmp_path, capsys):
    # Stage 3 has 2197 positions; only the built stage knows its length.
    ox, oy = tmp_path / "x.tdseq", tmp_path / "y.tdseq"
    argv = f"thm2 build --stage 3 --out-x {ox} --out-y {oy} --max-symbols".split()
    assert main([*argv, "2196"]) == 2
    assert capsys.readouterr() == (
        "", "error: stage 3 has 2197 positions, cap is 2196\n"
    )
    assert not ox.exists() and not oy.exists()
    assert main([*argv, "2197"]) == 0
    assert "CHECK THM2_BUILD PASS stage=3 length=2197" in capsys.readouterr().out
    assert load_tdseq(ox).length == load_tdseq(oy).length == 2197


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_out_of_memory_exits_2_on_one_error_line():
    # The child limits its own address space to 100 MB past what it has
    # mapped, then verifies stage 11, whose stage-10 build needs over 1 GB.
    code = (
        "import re, resource, sys\n"
        "vm = re.search(r'VmSize:\\s*(\\d+) kB', open('/proc/self/status').read())\n"
        "limit = int(vm[1]) * 1024 + 100 * 2**20\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
        "from dlab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code,
         *"thm1 verify --stage 11 --kmax 20 --jmax 4".split()],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: out of memory (MemoryError)\n"
    )


def test_lemma6_map_entry_past_the_int_digit_limit_is_named(capsys):
    entry = "1" * 5000
    assert main(["oracle", "lemma6", "--map", f"0,{entry}", "--point", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --map entry 2 has 5000 digits, more than int() converts\n"


def test_main_callable_in_process(capsys):
    code = main(["oracle", "lemma6", "--map", "1,2,2", "--point", "0"])
    assert code == 0
    assert "CHECK LEMMA6 PASS" in capsys.readouterr().out


# The dlab modules each small command adds to those `import dlab, dlab.cli`
# loads: only the ones it runs (README "Start-up").
COMMAND_MODULES = {
    "thm1 verify --stage 2 --kmax 1": {"dlab.thm1"},
    "thm2 verify --stage 2 --kmax 1": {"dlab.thm2"},
    "recur escape --stage 2 --k 1 --w 0": {"dlab.recurrence", "dlab.thm2"},
    "oracle sweep --nmax 2": {"dlab.oracle"},
    "oracle lemma6 --map 0,0 --point 1": {"dlab.oracle"},
}
START_UP_PROBE = """\
import sys
before = set(sys.modules)
import dlab, dlab.cli
imported = set(sys.modules)
code = dlab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(repr((sorted(imported - before), sorted(set(sys.modules) - imported), code)),
      file=sys.stderr)
"""


def _start_up(argv):
    """(modules the import loads, modules the command adds, exit code) in a
    child run as ``python -S``, so that no ``.pth`` file loads modules first."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", START_UP_PROBE, *argv],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    imported, added, code = ast.literal_eval(result.stderr.splitlines()[-1])
    return set(imported), set(added), code


def test_each_command_loads_only_the_modules_it_runs():
    imported, _, _ = _start_up([])
    assert {m for m in imported if m.startswith("dlab")} == {
        "dlab", "dlab.blocks", "dlab.report", "dlab.cli"
    }
    unneeded = {"typing", "random", "dataclasses", "inspect"}
    assert imported & unneeded == set()
    for command, modules in COMMAND_MODULES.items():
        imported, added, code = _start_up(command.split())
        assert code == 0, command
        assert {m for m in added if m.startswith("dlab")} == modules, command
        assert (imported | added) & unneeded == set(), command


def test_report_written_in_batches_keeps_every_line_and_fail(monkeypatch, capsys):
    lines = [f"CHECK C1 PASS i={i}" for i in range(2 * cli.WRITE_BATCH + 5)]
    lines[-2] = "CHECK C1 FAIL i=last-batch"  # neither a full batch nor its first line
    monkeypatch.setattr(cli, "cmd_oracle_lemma6", lambda args: lines)
    assert main(["oracle", "lemma6", "--map", "0", "--point", "0"]) == 1
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_thm2_verify_computes_the_gate_reports_once(monkeypatch, capsys):
    # The solver verifies nothing; the one stage_reports call is the verify's
    # own, on the target.
    calls = []
    real = thm2.stage_reports

    def stage_reports(state, kmax=None):
        calls.append((state.stage, state.transitive, kmax))
        return real(state, kmax)

    monkeypatch.setattr(thm2, "stage_reports", stage_reports)
    for extra, transitive in (([], False), (["--transitive"], True)):
        calls.clear()
        assert main(["thm2", "verify", "--stage", "4", "--kmax", "2", *extra]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert calls == [(4, transitive, 2)]


def test_thm2_verify_kmax_below_one_exits_2(capsys):
    for extra in ([], ["--transitive"]):
        for kmax in ("0", "-3"):
            assert main(["thm2", "verify", "--stage", "3", "--kmax", kmax, *extra]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: kmax must be >= 1\n"


def test_verify_flags_rejected_before_the_build(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("verify built a stage for flags it must reject")

    monkeypatch.setattr(thm1, "build", no_build)
    monkeypatch.setattr(thm2, "build_to_stage", no_build)
    no_scale = "has no scale to verify (need stage >= 2)"
    cases = (
        ("thm1 verify --stage 1 --kmax 5", f"stage=1 {no_scale}"),
        ("thm2 verify --stage 1 --kmax 5", f"stage=1 {no_scale}"),
        ("thm2 verify --stage 0 --kmax 1 --transitive", f"stage=0 {no_scale}"),
        ("thm1 verify --stage 8 --kmax 0", "kmax must be >= 1"),
        ("thm2 verify --stage 5 --kmax -1", "kmax must be >= 1"),
        ("thm1 verify --stage 3 --kmax 2 --jmax 3",
         "jmax=3 out of admissible range 1..2"),
        ("thm1 verify --stage 8 --kmax 2 --jmax 0",
         "jmax=0 out of admissible range 1..7"),
    )
    for command, message in cases:
        assert main(command.split()) == 2, command
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n", command


def test_recur_flags_rejected_before_the_build(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("recur built a stage for flags it must reject")

    monkeypatch.setattr(thm2, "build_to_stage", no_build)
    no_scale = "has no scale to verify (need stage >= 2)"
    cases = (
        ("recur pair-sep --stage 1", f"stage=1 {no_scale}"),
        ("recur pair-sep --stage 0 --horizon 5", f"stage=0 {no_scale}"),
        ("recur escape --stage 1 --k 1 --w 1", f"stage=1 {no_scale}"),
        ("recur omega --stage -2 --k 1 --w 1", f"stage=-2 {no_scale}"),
        ("recur escape --stage 7 --k 9 --w 1", "k=9 out of admissible range 1..6"),
        ("recur escape --stage 7 --k 7 --w 1", "k=7 out of admissible range 1..6"),
        ("recur omega --stage 5 --k 0 --w 1", "k=0 out of admissible range 1..4"),
        ("recur escape --stage 5 --k 2 --w -1", "w must be >= 0"),
        ("recur omega --stage 5 --k 2 --w -3", "w must be >= 0"),
        ("recur pair-sep --stage 7 --horizon 0", "horizon must be >= 1"),
        ("recur pair-sep --stage 7 --horizon -5", "horizon must be >= 1"),
    )
    for command, message in cases:
        assert main(command.split()) == 2, command
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n", command


def test_empty_oracle_sweeps_exit_2(capsys):
    cases = (
        (["--nmax", "0"], "error: nmax must be >= 1\n"),
        (["--nmax", "-1"], "error: nmax must be >= 1\n"),
        (["--nmax", "7", "--sample", "-2"], "error: sample must be >= 0\n"),
        (["--nmax", "1", "--Nmax", "0"], "error: Nmax must be >= 1\n"),
    )
    for flags, message in cases:
        assert main(["oracle", "sweep", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message


def test_closed_stdout_exits_2_without_a_traceback():
    # The sweep prints about 300 kB, more than a pipe holds, so the writes
    # after the reader leaves must fail.  Under 2>&1 the notice on stderr
    # meets the same closed pipe and must not raise either.
    for stderr in (subprocess.PIPE, subprocess.STDOUT):
        child = subprocess.Popen(
            [sys.executable, "-m", "dlab.cli", "oracle", "sweep", "--nmax", "5"],
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            env=CHILD_ENV,
        )
        assert child.stdout.readline().startswith("CHECK ")
        child.stdout.close()
        err = child.stderr.read() if child.stderr else None
        assert child.wait() == 2, stderr
        if err is not None:
            assert err == "error: stdout was closed before the report was written\n"


def test_lemma6_map_over_the_bound_is_refused_before_the_system(monkeypatch, capsys):
    def no_system(table):
        raise AssertionError("built a system the bound refuses")

    monkeypatch.setattr(oracle, "make_system", no_system)
    path = ",".join(map(str, [*range(1, 1001), 1000]))  # 1,001 points
    assert main(["oracle", "lemma6", "--map", path, "--point", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --map has 1001 entries, the bound is {cli.LEMMA6_MAP_BOUND}\n"
    monkeypatch.undo()
    short = ",".join(map(str, [1, *range(1, 1000)]))  # 0 -> 1, every point fixed
    assert main(["oracle", "lemma6", "--map", short, "--point", "0"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("CHECK LEMMA6 PASS n=1000 x=0 classified=FORWARD_INVARIANT_ONLY points=0,1\n")


def test_thm2_build_refuses_one_file_for_both_blocks(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("built a stage whose x would be overwritten")

    monkeypatch.setattr(thm2, "build_to_stage", no_build)
    path, link = tmp_path / "p.tdseq", tmp_path / "link.tdseq"
    link.symlink_to(path)
    for other in (path, tmp_path / "." / "p.tdseq", link):
        argv = ["thm2", "build", "--stage", "3", "--out-x", str(path), "--out-y", str(other)]
        assert main(argv) == 2, other
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --out-x and --out-y name one file: {path}\n"
    assert not path.exists()


def test_oracle_sweep_nmax_above_the_bound_rejected_before_sweeping(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran for an nmax it must reject")

    monkeypatch.setattr(oracle, "sweep", no_sweep)
    monkeypatch.setattr(oracle, "check_map_determinism", no_sweep)
    for flags in (["--nmax", "9", "--sample", "2", "--Nmax", "1"],
                  ["--nmax", "9", "--sample", "0"]):
        assert main(["oracle", "sweep", *flags]) == 2, flags
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: size 9 exceeds the exhaustive bound 8 "
            "(partition count grows like Bell numbers)\n"
        )


def test_oracle_sweep_nmax_over_the_power_bound_rejected_before_sweeping(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran for an Nmax it must reject")

    monkeypatch.setattr(oracle, "sweep", no_sweep)
    monkeypatch.setattr(oracle, "check_map_determinism", no_sweep)
    above = cli.SWEEP_POWER_BOUND + 1
    for flags in (["--nmax", "2", "--Nmax", str(above)],
                  ["--nmax", "8", "--sample", "0", "--Nmax", str(above)],
                  ["--nmax", "2", "--Nmax", str(10**30)]):
        assert main(["oracle", "sweep", *flags]) == 2, flags
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: Nmax {flags[-1]} exceeds the power bound {cli.SWEEP_POWER_BOUND} "
            "(the power checks grow as Nmax^2 per map)\n"
        )
    monkeypatch.undo()
    assert main(["oracle", "sweep", "--nmax", "2", "--Nmax", str(cli.SWEEP_POWER_BOUND)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-1] == (
        f"CHECK SWEEP_SUMMARY PASS n=2 maps=4 permutations_only=false "
        f"power_max={cli.SWEEP_POWER_BOUND}"
    )


# sha256 of stdout and the exit code of each command; the thm2 build entry
# also pins both TDSEQ files it writes.
PINNED_OUTPUT = (
    ("thm2 verify --stage 4 --kmax 3", 0,
     "b21917cc171e37edbc8fd7ed628a3057099a3900e23852d1baa9f2a803acc6cb"),
    ("thm2 verify --stage 4 --kmax 1", 0,
     "22573be66ad507bd3340234163df92b605956def908ca7bd2bc19b328d928cad"),
    ("thm2 verify --stage 4 --kmax 3 --transitive", 0,
     "fd341c423011ea6492aa4c83ecf4b408d15816c6743183709e5c22056775b537"),
    ("thm2 build --stage 4 --out-x x.tdseq --out-y y.tdseq", 0,
     "ccddaef8e597192853b0fdff14033d3d9b3a1b96029137e263497ac3a15e544e"),
    ("recur pair-sep --stage 4", 0,
     "e11117400774f85a24e1600991d708050ce428b6f45c829631c80f21b7a0e0e8"),
    ("recur escape --stage 4 --k 2 --w 1", 0,
     "cdebebf619e8c875064e8ea97e50925c1ff626b35194236cb617e0994b1ef550"),
    ("recur omega --stage 4 --k 2 --w 1", 0,
     "387902deff1f751204029172e368e0c6c3e20f036cb958a11980f60cd0e1e65e"),
    ("thm1 verify --stage 5 --kmax 20 --jmax 4", 0,
     "32002d7b5d1deb0ba544a2a77cb6bf4e365673003a0a7a386fbbfb9c8f0d9ab3"),
    ("oracle sweep --nmax 4", 0,
     "9adda67b35277f3177452f50553f8b179c00e239720caed25c06ab6eba08d315"),
    ("oracle lemma6 --map 1,2,2 --point 0", 0,
     "3bf0fa788337c6ef700be6617ad9723b8356544eb90dd203773817a31dfa25bd"),
    ("thm1 verify --stage 6 --kmax 20 --jmax 4", 0,
     "50d100ad5c69476649584b6e5dfdb2a8969d75af73b0224bc13a5d71726e9a5f"),
    ("recur omega --stage 5 --k 3 --w 1", 0,
     "a1aa3bc43fc9040374958b3dce6987150628a9f941da895aac28192a81520f5f"),
    ("recur escape --stage 6 --k 5 --w 1", 0,
     "6fcf6a48a6e4ec30f55d5c09bfca00128d9d1a8b47510b56ede3103360b26606"),
    ("recur omega --stage 6 --k 5 --w 1", 0,
     "b57facad1d2e1f169c154ea5b4c8ec3bc0302ba1a56d16d66db8a72f09d0fabc"),
    ("oracle sweep --nmax 5 --permutations-only", 0,
     "384d1e5a1c3d0b152a246efe34ab5411e6cc1c7b359a9b0b37b1fd67b42be6d3"),
    # With --permutations-only the sampler draws permutations, so each of
    # these prints five n = 7 maps, whose powers is_td scans over every
    # partition of 7 points (seed 11 starts with 1,0,3,2,5,4,6).
    ("oracle sweep --nmax 7 --Nmax 2 --sample 5 --seed 11 --permutations-only", 0,
     "6d030c3c8db8fcca9d13f4c38aaf66fa69b799ee559682c8405bbca22e684248"),
    ("oracle sweep --nmax 7 --Nmax 2 --sample 5 --seed 3 --permutations-only", 0,
     "b71340861269f6e422a3ed2bf1fa0527791922e93baa4b5342fbd7e67594f0d1"),
    ("thm1 build --stage 6 --out x6.tdseq", 0,
     "6fa4ede8aab862cf2710f0534203bc208543a6d04b717f2f287787fb545990d7"),
    # Stages 7 to 9 run C3 and C2PRIME over the copy seams of audited stages,
    # reading the top stage from its copy layout.
    ("thm1 verify --stage 7 --kmax 20 --jmax 4", 0,
     "d1d2227b300d33d8816137fe4b10bf8fade80b50ac4b94b1fefe4950125f11b1"),
    ("thm1 verify --stage 8 --kmax 20 --jmax 4", 0,
     "0f3ed05ad04fe10b6162979f5090b64531d4ee14af335c731d1c453504a907fa"),
    ("thm1 verify --stage 9 --kmax 20 --jmax 4", 0,
     "4c1696993c04c10a5344679cea95745a19e6e9dea5a05beca31dfda66b8ec0df"),
)
PINNED_TDSEQ = {
    "x6.tdseq": "7e61f941815362b4d13201cf0717f419b7eff21a030ab52dac06b82dee6e29a4",
    "x.tdseq": "99c19c0961e20ac8e79b885aa469109301bb3acb34df7659ccdc5f4f01c07e90",
    "y.tdseq": "f252301ce22e7592763b06c9efbccde6cd6b8163171c8af4e8f3c5da722ac39c",
}


def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the build command names its files relatively
    for command, code, digest in PINNED_OUTPUT:
        assert main(command.split()) == code, command
        out, err = capsys.readouterr()
        assert err == "", command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
    for name, digest in PINNED_TDSEQ.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

import subprocess
import sys

from dlab.blocks import load_tdseq
from dlab.cli import main
from dlab import cli, thm1, thm2


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dlab.cli", *args],
        capture_output=True,
        text=True,
    )


def test_thm1_build_round_trip(tmp_path):
    out = tmp_path / "x2.tdseq"
    result = run_cli("thm1", "build", "--stage", "2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "CHECK THM1_BUILD PASS stage=2 length=12" in result.stdout
    assert load_tdseq(out) == thm1.build(2).prefix


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
    # Unknown flags are rejected by the parser (argparse exits 2).
    result = run_cli("thm1", "verify", "--stage", "2", "--kmax", "1", "--bogus")
    assert result.returncode == 2


def test_lemma6_point_outside_the_system_exits_2():
    for point in ("5", "-1"):
        result = run_cli("oracle", "lemma6", "--map", "1,2,2", "--point", point)
        assert result.returncode == 2
        assert result.stderr == f"error: point {point} outside 0..2\n"


def test_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise KeyError("lost\ntable")

    monkeypatch.setattr(cli, "cmd_oracle_lemma6", broken)
    assert main(["oracle", "lemma6", "--map", "1,2,2", "--point", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: KeyError('lost\\ntable')\n"


def test_solver_cap_exhaustion_exit_2():
    result = run_cli(
        "thm2", "verify", "--stage", "2", "--kmax", "1", "--iteration-cap", "0"
    )
    assert result.returncode == 2
    assert "error:" in result.stderr


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


def test_main_callable_in_process(capsys):
    code = main(["oracle", "lemma6", "--map", "1,2,2", "--point", "0"])
    assert code == 0
    assert "CHECK LEMMA6 PASS" in capsys.readouterr().out

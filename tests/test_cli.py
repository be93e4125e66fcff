import hashlib
import subprocess
import sys

from dlab.blocks import load_tdseq
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
    )
    for argv, stored in cases:
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {stored} nonzeros per block, cap is 1000000\n"


def test_main_callable_in_process(capsys):
    code = main(["oracle", "lemma6", "--map", "1,2,2", "--point", "0"])
    assert code == 0
    assert "CHECK LEMMA6 PASS" in capsys.readouterr().out


def test_negative_iteration_cap_exits_2(capsys):
    argv = ["thm2", "verify", "--stage", "2", "--kmax", "1", "--iteration-cap", "-1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: iteration_cap must be >= 0\n"


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
    )
    for flags, message in cases:
        assert main(["oracle", "sweep", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message


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

"""CLI surface: flag grammar, exit statuses, round-trips, byte stability."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import qcover
from qcover import HammingSpace, minimal_covering_code, read_code, verify_covering
from qcover.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_subcommand(capsys):
    status, out, _ = run(capsys, "solve", "--q", "2", "--n", "3", "--R", "1")
    assert status == 0
    obj = json.loads(out)
    assert obj["optimal_size"] == 2
    assert obj["status"] == "optimal"
    assert obj["code"]["words"] == ["000", "111"]


def test_construct_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "code.json"
    args = [
        "construct", "--q", "2", "--n", "10", "--R", "1",
        "--x", "2.4", "--y", "2", "--seed", "3", "--out", str(out_path),
    ]
    status, _, _ = run(capsys, *args)
    assert status == 0
    trace_path = tmp_path / "code.trace.json"
    assert out_path.exists() and trace_path.exists()

    code = read_code(out_path)
    assert verify_covering(code, 1).covered

    status, out, _ = run(capsys, "verify", "--code", str(out_path), "--R", "1")
    assert status == 0 and "covered" in out

    trace = json.loads(trace_path.read_text())
    assert trace["total_size"] == len(code)
    for lv in trace["levels"]:
        assert lv["k_size"] == lv["x_size"] * 2 ** lv["r"] + lv["nbar_size"] * lv["k2_size"]


def test_construct_same_seed_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out_path = tmp_path / f"{name}.json"
        status, _, _ = run(
            capsys, "construct", "--q", "3", "--n", "7", "--R", "1",
            "--x", "2.0", "--y", "2", "--seed", "11", "--out", str(out_path),
        )
        assert status == 0
        outs.append(
            (out_path.read_bytes(), (tmp_path / f"{name}.trace.json").read_bytes())
        )
    assert outs[0] == outs[1]


def test_solve_outputs_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "s1.json", tmp_path / "s2.json"]
    for p in paths:
        status, _, _ = run(capsys, "solve", "--q", "3", "--n", "2", "--R", "1",
                           "--out", str(p))
        assert status == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_solve_output_feeds_straight_into_verify(tmp_path, capsys):
    solved = tmp_path / "solved.json"
    status, _, _ = run(capsys, "solve", "--q", "2", "--n", "5", "--R", "1",
                       "--out", str(solved))
    assert status == 0
    status, out, _ = run(capsys, "verify", "--code", str(solved), "--R", "1")
    assert status == 0 and "covered" in out
    assert read_code(solved) == minimal_covering_code(HammingSpace(2, 5), 1).code


def test_verify_uncovered_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "words": ["000"]}))
    status, out, _ = run(capsys, "verify", "--code", str(path), "--R", "1")
    assert status == 1
    assert "011" in out  # lexicographically smallest witness
    path.write_text(json.dumps({"q": 12, "n": 2, "words": ["0,0"]}))
    status, out, _ = run(capsys, "verify", "--code", str(path), "--R", "0")
    assert status == 1 and out == "uncovered: witness 0,1\n"


def test_verify_sampled_modes(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "words": ["000", "111"]}))
    status, out, _ = run(capsys, "verify", "--code", str(path), "--R", "1",
                         "--sampled", "64", "--seed", "5")
    # the verdict line stays as it was; a one-sided 95% bound ln(20)/N follows it
    assert status == 0 and out.splitlines() == [
        "no-counterexample after 64 samples (not a covering proof)",
        f"with 95% confidence the uncovered fraction is below ln(20)/64 = {math.log(20) / 64:.17g}",
    ]
    # ln(20)/N is below 1, and so bounds anything, only from N = 3 on
    for samples, lines in [(1, 1), (2, 1), (3, 2)]:
        status, out, _ = run(capsys, "verify", "--code", str(path), "--R", "1",
                             "--sampled", str(samples), "--seed", "5")
        assert status == 0 and len(out.splitlines()) == lines, samples
    assert out.splitlines()[1].endswith(f"ln(20)/3 = {math.log(20) / 3:.17g}")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q": 2, "n": 20, "words": ["0" * 20]}))
    status, out, _ = run(capsys, "verify", "--code", str(bad), "--R", "1",
                         "--sampled", "500", "--seed", "5")
    assert status == 1 and "uncovered" in out


def test_verify_guard_suggests_sampling(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"q": 2, "n": 30, "words": ["0" * 30]}))
    status, _, err = run(capsys, "verify", "--code", str(path), "--R", "1")
    assert status == 3
    assert "2^30 = 1073741824" in err and "guard 67108864" in err
    # the CLI's two remedies, not the library's guard= and function name
    assert "--max-space" in err and "--sampled" in err
    assert "guard=" not in err and "verify_covering_sampled" not in err


def test_missing_file_exits_two(capsys):
    status, _, err = run(capsys, "verify", "--code", "/nonexistent.json", "--R", "1")
    assert status == 2 and "cannot read" in err


def _unwritable(tmp_path):
    """A path whose directory does not exist, so opening it for writing fails."""
    return str(tmp_path / "missing-dir" / "out.json")


def test_construct_unwritable_paths_exit_two(tmp_path, capsys):
    good = str(tmp_path / "code.json")
    bad = _unwritable(tmp_path)
    args = ["construct", "--q", "2", "--n", "6", "--R", "1", "--x", "2.4", "--y", "2"]
    for paths in (["--out", bad], ["--out", good, "--trace", bad]):
        status, out, err = run(capsys, *args, *paths)
        assert status == 2 and out == "", paths
        assert err.startswith(f"error: cannot write {bad}: ") and "Traceback" not in err


def test_solve_unwritable_out_exits_two(tmp_path, capsys):
    bad = _unwritable(tmp_path)
    status, out, err = run(capsys, "solve", "--q", "2", "--n", "3", "--R", "1", "--out", bad)
    assert status == 2 and out == ""
    assert err.startswith(f"error: cannot write {bad}: ")


def test_bounds_table_unwritable_out_exits_two(tmp_path, capsys):
    bad = _unwritable(tmp_path)
    status, out, err = run(capsys, "bounds", "table", "--R-min", "1", "--R-max", "3", "--out", bad)
    assert status == 2 and out == ""
    assert err.startswith(f"error: cannot write {bad}: ")


def test_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    status, _, _ = run(capsys, "verify", "--code", str(path), "--R", "1")
    assert status == 2
    path.write_text(json.dumps({"q": 2, "n": 3, "words": ["00"]}))  # wrong length
    status, _, _ = run(capsys, "verify", "--code", str(path), "--R", "1")
    assert status == 2
    for top in ([], "x", 5, None, {"q": 2, "n": True, "words": ["0", "1"]}):
        # JSON that is not an object, or a boolean word length
        path.write_text(json.dumps(top))
        status, _, err = run(capsys, "verify", "--code", str(path), "--R", "1")
        assert status == 2 and "cannot read" in err, top


def test_malformed_words_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for words in (["0\u0661\u0660"], ["0a1"], [[0, 0, 1]], [1]):
        path.write_text(json.dumps({"q": 2, "n": 3, "words": words}))
        status, _, err = run(capsys, "verify", "--code", str(path), "--R", "1")
        assert status == 2 and "cannot read" in err, words
    for words in ([5], ["99999999999999999999999,1"]):
        path.write_text(json.dumps({"q": 12, "n": 2, "words": words}))
        status, _, err = run(capsys, "verify", "--code", str(path), "--R", "1", "--sampled", "3")
        assert status == 2 and "cannot read" in err, words


def test_words_not_a_list_exits_two(tmp_path, capsys):
    # a string of words is not read one character per word: "0101" is not
    # the covering code {0, 1} of [2]^1
    path = tmp_path / "bad.json"
    for words in ("0101", "", {"0": 1}, 5):
        path.write_text(json.dumps({"q": 2, "n": 1, "words": words}))
        status, out, err = run(capsys, "verify", "--code", str(path), "--R", "0")
        assert status == 2 and "cannot read" in err and out == "", words


def test_negative_radius_exits_three(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "words": ["000", "111"]}))
    for extra in ([], ["--sampled", "10"]):
        status, out, err = run(capsys, "verify", "--code", str(path), "--R", "-1", *extra)
        assert status == 3 and out == ""
        assert "radius must be >= 0" in err


def test_space_too_large_to_index_exits_three(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"q": 2, "n": 64, "words": ["0" * 64]}))
    status, _, err = run(capsys, "verify", "--code", str(path), "--R", "1", "--sampled", "3")
    assert status == 3 and "2^63" in err


def test_infeasible_construct_exits_three(tmp_path, capsys):
    status, _, err = run(
        capsys, "construct", "--q", "2", "--n", "8", "--R", "2",
        "--x", str(2 * math.log(2)), "--y", "2", "--out", str(tmp_path / "c.json"),
    )
    assert status == 3
    assert "x > R*ln(y)" in err  # names the violated constraint


def test_construct_base_guard_names_floor_n_over_y(tmp_path, capsys):
    # y > n leaves all of [q]^n to the base case, and a large y a level's
    # prefix space [q]^{n - floor(n/y)} over the enumeration guard; construct
    # has no flag to raise either guard, so the message points at y and n
    cases = [
        # the optimizer's point for R=7: 'auto' picks the greedy cover
        (["--n", "26", "--R", "7", "--x", "26.52", "--y", "27.52"],
         ["[2]^26", "67108864", "greedy guard 16384", "'auto'", "floor(26/27.52) = 0", "y <= 26"]),
        (["--n", "14", "--R", "1", "--x", "4", "--y", "20", "--base-policy", "exact"],
         ["[2]^14", "16384", "exact guard 4096", "'exact'", "floor(14/20.0) = 0", "y <= 14"]),
        # the optimizer's point for R=3 at n=30: floor(30/10.347) = 2
        (["--n", "30", "--R", "3", "--x", "9.347", "--y", "10.347"],
         ["[2]^30", "[2]^28", "268435456", "enumeration guard 67108864",
          "r' = 30 - floor(30/10.347) = 28", "smaller y", "smaller n"]),
    ]
    out = tmp_path / "c.json"
    for flags, needles in cases:
        status, stdout, err = run(capsys, "construct", "--q", "2", *flags, "--out", str(out))
        assert status == 3 and stdout == "" and not out.exists()
        assert all(needle in err for needle in needles), err
        assert "raise the guard" not in err and "sampled" not in err


def test_solve_guard_exits_three(capsys):
    status, _, err = run(capsys, "solve", "--q", "2", "--n", "20", "--R", "1")
    assert status == 3 and "guard" in err
    # solve has no sampled mode; --max-space is its one remedy
    assert "2^20 = 1048576" in err and "guard 4096" in err and "--max-space" in err
    assert "sampled" not in err


def test_max_space_below_one_exits_three(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "words": ["000", "111"]}))
    for argv in (["solve", "--q", "2", "--n", "3", "--R", "1"],
                 ["verify", "--code", str(path), "--R", "1"],
                 ["verify", "--code", str(path), "--R", "1", "--sampled", "5"]):
        for value in ("0", "-5"):
            status, out, err = run(capsys, *argv, "--max-space", value)
            assert status == 3 and out == ""
            assert err == f"error: requires --max-space >= 1, got {value}\n"
    # a sampled verify never enumerates, so the smallest guard passes
    assert run(capsys, "verify", "--code", str(path), "--R", "1", "--sampled", "5",
               "--max-space", "1")[0] == 0


def test_construct_huge_x_builds_the_whole_space(tmp_path, capsys):
    # x*m overflows a float at x = 1e308; the size cap is m from x >= d + 1 on
    out = tmp_path / "c.json"
    status, stdout, err = run(capsys, "construct", "--q", "2", "--n", "10", "--R", "1",
                              "--x", "1e308", "--y", "2", "--out", str(out))
    assert status == 0 and err == "" and "constructed 1024 codewords" in stdout
    assert run(capsys, "verify", "--code", str(out), "--R", "1")[:2] == (0, "covered\n")


def test_infinite_parameters_exit_three(tmp_path, capsys):
    # y^R past the double range is infeasible, not an OverflowError
    cases = [
        (["bounds", "eval", "--R", "2", "--x", "4", "--y", "1e308"], "x > R*ln(y)"),
        (["construct", "--q", "2", "--n", "10", "--R", "1", "--x", "inf", "--y", "2",
          "--out", str(tmp_path / "c.json")], "requires finite x"),
        (["bounds", "eval", "--R", "2", "--x", "inf", "--y", "2"], "requires finite x"),
        (["bounds", "eval", "--R", "2", "--x", "4", "--y", "inf"], "requires finite y"),
        (["bounds", "eval", "--R", "2", "--x", "4", "--y", "2", "--R1", "1", "--mu", "inf"],
         "requires finite mu_star"),
    ]
    for argv, needle in cases:
        status, out, err = run(capsys, *argv)
        assert status == 3 and out == "" and needle in err, (argv, err)
    assert not (tmp_path / "c.json").exists()


def test_bounds_eval_overflow_exits_three(capsys):
    # finite inputs whose bound is past the double range: JSON has no Infinity
    cases = [
        (["--R", "2", "--x", "1e308", "--y", "2"], "R=2, x=1e+308, y=2.0"),
        (["--R", "2", "--x", "4", "--y", "2", "--R1", "1", "--mu", "1e308"],
         "R1=1, mu_star=1e+308"),
        # C(2000, 1000) and 1000^1000 are past the double range; the plain bound is not
        (["--R", "2000", "--x", "14000", "--y", "1000", "--R1", "1000", "--mu", "1"],
         "R1=1000, mu_star=1.0"),
    ]
    for argv, needle in cases:
        for fmt in ("json", "text"):
            status, out, err = run(capsys, "bounds", "eval", *argv, "--format", fmt)
            assert status == 3 and out == "", (argv, fmt)
            assert "requires a bound within the double range" in err and needle in err, err


def test_bounds_R_past_the_double_range_exits_three(capsys):
    big = str(10**400)
    cases = [
        ["eval", "--R", big, "--x", "1500", "--y", "2"],
        ["table", "--R-min", big, "--R-max", big],
        ["check-corollary", "--R-min", big, "--R-max", big],
    ]
    for argv in cases:
        status, out, err = run(capsys, "bounds", *argv)
        assert status == 3 and out == "", argv
        assert "converts to a double" in err and "1329-bit R" in err, err


def test_bounds_table_with_no_finite_optimum_exits_three(capsys):
    # at R = 2^60 no point of the optimizer's search has a finite bound
    R = str(2**60)
    status, out, err = run(capsys, "bounds", "table", "--R-min", R, "--R-max", R)
    assert status == 3 and out == ""
    assert f"finite in doubles, got R={R}" in err


def test_construction_failure_exits_four(tmp_path, capsys, monkeypatch):
    # domination failures are too rare to stage through real flags; check the
    # exit-code mapping by making the builder raise
    import qcover.cli as cli_mod
    from qcover import DominationFailure

    def boom(*args, **kwargs):
        raise DominationFailure("no trial met the threshold")

    monkeypatch.setattr(cli_mod, "recursive_construct", boom)
    status, _, err = run(capsys, "construct", "--q", "2", "--n", "8", "--R", "1",
                         "--x", "2.0", "--y", "2", "--out", str(tmp_path / "c.json"))
    assert status == 4 and "construction failed" in err


def test_usage_error_exits_two(capsys):
    status, _, _ = run(capsys, "no-such-command")
    assert status == 2
    status, _, _ = run(capsys, "solve", "--q", "2")  # missing required flags
    assert status == 2


def test_bounds_eval_chain_identity(capsys):
    # the chain's parameter choice at R=6 has feasibility exactly 1/36
    y = 6 * math.log(6) + 1.0
    x = 6 * math.log(y) + 2 * math.log(6)
    status, out, _ = run(capsys, "bounds", "eval", "--R", "6",
                         "--x", str(x), "--y", str(y))
    assert status == 0
    obj = json.loads(out)
    assert abs(obj["t_feasibility"] - 1 / 36) < 1e-9
    assert abs(obj["parametric_bound"] - 32.21334194386763) < 1e-6
    assert abs(obj["closed_form_bound"] - 40.651906045065284) < 1e-9
    assert abs(obj["classic_bound_q2"] - 41.115410845506104) < 1e-9


def test_bounds_eval_nested_and_text_format(capsys):
    status, out, _ = run(capsys, "bounds", "eval", "--R", "2", "--x",
                         str(math.log(16)), "--y", "2", "--R1", "1", "--mu", "1",
                         "--format", "text")
    assert status == 0
    line = next(l for l in out.splitlines() if l.startswith("nested_parametric_bound"))
    assert abs(float(line.split("=")[1]) - (8.0 / 3.0) * math.log(16)) < 1e-12


def test_bounds_eval_default_mu_optimizes_once(capsys, monkeypatch):
    import qcover.bounds as bounds

    status, before, _ = run(capsys, "bounds", "eval", "--R", "4", "--x", "6",
                            "--y", "2", "--R1", "1")
    assert status == 0
    calls = []
    original = bounds.optimize_parametric_bound

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "optimize_parametric_bound", counting)
    status, out, _ = run(capsys, "bounds", "eval", "--R", "4", "--x", "6",
                         "--y", "2", "--R1", "1")
    assert status == 0 and out == before
    assert calls == [(1,)]
    obj = json.loads(out)
    assert obj["mu_star"] == original(1).bound
    assert obj["nested_parametric_bound"] == bounds.nested_parametric_bound(
        bounds.BoundParams(R=4, x=6.0, y=2.0, R1=1))


def test_solve_rejects_bad_budgets_exit_three(capsys):
    for flag, value in [("--time-budget", "nan"), ("--time-budget", "-1"),
                        ("--node-budget", "-1")]:
        status, out, err = run(capsys, "solve", "--q", "2", "--n", "4", "--R", "1",
                               flag, value)
        assert status == 3, (flag, value)
        assert "budget >= 0" in err and out == ""


def test_bounds_eval_infeasible_exits_three(capsys):
    status, _, err = run(capsys, "bounds", "eval", "--R", "2", "--x", "1.0", "--y", "3")
    assert status == 3 and "x > R*ln(y)" in err


def test_bounds_table_csv(tmp_path, capsys):
    status, out, _ = run(capsys, "bounds", "table", "--R-min", "5", "--R-max", "7")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R,t_feas,x_opt,y_opt,bound_opt,cor_new,cor_ksv_q2,cor_ksv_q3,ratio_new_over_ksv2"
    assert len(lines) == 4
    row6 = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row6["R"] == "6"
    assert float(row6["ratio_new_over_ksv2"]) < 1.0
    assert math.isnan(float(dict(zip(lines[0].split(","), lines[1].split(",")))["cor_new"]))
    # file output matches stdout output
    out_path = tmp_path / "table.csv"
    status, _, _ = run(capsys, "bounds", "table", "--R-min", "5", "--R-max", "7",
                       "--out", str(out_path))
    assert status == 0
    assert out_path.read_text() == out
    # the table has one format, so there is no --format to choose it
    status, _, err = run(capsys, "bounds", "table", "--R-min", "5", "--R-max", "7",
                         "--format", "csv")
    assert status == 2 and "--format" in err


def test_bounds_check_corollary(capsys):
    status, out, _ = run(capsys, "bounds", "check-corollary", "--R-max", "40")
    assert status == 0
    assert all("holds" in l for l in out.splitlines() if l.startswith("R="))
    # R=5 is outside the claimed range and fails step (i): reported, exit 1
    status, out, _ = run(capsys, "bounds", "check-corollary",
                         "--R-min", "5", "--R-max", "8")
    assert status == 1
    assert "R=5: FAILS at step (i)" in out


def test_bounds_check_corollary_fails_where_the_chain_point_overflows(capsys):
    # the chain's own x and y overflow: a failed step (exit 1), not an
    # infeasible x the user never gave (exit 3)
    R = str(2**1023)
    status, out, err = run(capsys, "bounds", "check-corollary", "--R-min", R, "--R-max", R)
    assert status == 1 and err == ""
    assert f"R={R}: FAILS at step (t)" in out


def test_bounds_check_corollary_rejects_bad_range(capsys):
    for r_min, r_max in (("10", "5"), ("1", "8")):
        status, out, err = run(capsys, "bounds", "check-corollary",
                               "--R-min", r_min, "--R-max", r_max)
        assert status == 3 and out == ""
        assert f"[{r_min}, {r_max}]" in err


def test_one_process_prints_what_separate_processes_print(tmp_path, capsys):
    # the parser is built once per process and reused by every later call,
    # after a usage error too; each command must print, write and exit as it
    # does in a process of its own
    src = str(Path(qcover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = str(tmp_path / "code.json")
    commands = [
        ["construct", "--q", "2", "--n", "8", "--R", "1", "--x", "2.0", "--y", "2",
         "--seed", "4", "--out", code],
        ["verify", "--code", code, "--R", "1"],
        ["solve", "--q", "2"],
        ["solve", "--q", "2", "--n", "5", "--R", "1"],
        ["verify", "--code", code, "--R", "1", "--sampled", "5", "--seed", "2"],
    ]
    separate = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "qcover.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        separate.append((proc.returncode, proc.stdout, proc.stderr, Path(code).read_bytes()))
    together = [run(capsys, *argv) + (Path(code).read_bytes(),) for argv in commands]
    assert together == separate
    assert [status for status, *_ in together] == [0, 0, 2, 0, 0]

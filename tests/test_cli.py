"""CLI surface: JSON envelopes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fivevertex
from fivevertex import acceptance, cli
from fivevertex.cli import run


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_cauchy_check_json(capsys):
    code, out = invoke(capsys, ["identity", "cauchy", "--M", "5", "--N", "2", "--seed", "7"])
    payload = json.loads(out)
    assert code == 0
    assert payload["command"] == "identity cauchy"
    assert payload["result"]["equal"] is True
    assert payload["provenance"] == "determinant"
    assert "elapsed_ms" not in payload


def test_cauchy_check_draws_y_clear_of_the_kernel_pole(capsys):
    # y_k = -beta is a pole of the N >= 2 kernel; seed 20 at (4,2) and, under
    # --beta 1/2, seed 3 at (5,3) used to draw it and exit 1
    for M, N in [(4, 2), (5, 3), (6, 2)]:
        for beta in ([], ["--beta", "1/2"]):
            for seed in range(1, 101):
                code, out = invoke(capsys, ["identity", "cauchy", "--M", str(M), "--N", str(N),
                                            "--seed", str(seed)] + beta)
                assert code == 0, (M, N, beta, seed)
                assert json.loads(out)["result"]["equal"] is True


def test_verify_all_prints_one_json_object_and_reports_on_stderr(capsys, monkeypatch):
    def passing():
        return {"name": "1 stub", "passed": True, "detail": "fine"}

    def failing():
        return {"name": "2 stub", "passed": False, "detail": "broken"}

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [passing, failing])
    runs = []
    for _ in range(2):
        code = run(["verify-all"])
        runs.append(capsys.readouterr())
        assert code == 2
    assert runs[0].out == runs[1].out
    payload = json.loads(runs[0].out)
    assert payload["result"] == {"passed": False, "criteria": [passing(), failing()]}
    lines = runs[0].err.splitlines()
    assert [line.split()[:3] for line in lines] == [["PASS", "criterion", "1"],
                                                   ["FAIL", "criterion", "2"]]
    code = run(["--timing", "verify-all"])
    timed = json.loads(capsys.readouterr().out)
    assert code == 2
    assert all("elapsed_s" in r for r in timed["result"]["criteria"])


def test_green_at_time_zero_is_diagonal(capsys):
    code, out = invoke(capsys, ["tasep", "green", "--M", "6", "--N", "2",
                                "--from", "1,2", "--to", "1,2", "--t", "0"])
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["result"] - 1) < 1e-7


def test_unknown_flag_exits_one(capsys):
    assert run(["identity", "cauchy", "--M", "5", "--N", "2", "--bogus", "1"]) == 1
    assert run(["no-such-command"]) == 1


def test_seeded_output_is_byte_identical(capsys):
    _, first = invoke(capsys, ["identity", "sum", "--M", "4", "--N", "2", "--seed", "3"])
    _, second = invoke(capsys, ["identity", "sum", "--M", "4", "--N", "2", "--seed", "3"])
    assert first == second


def test_rational_serialization(capsys):
    code, out = invoke(capsys, ["groth", "eval", "--lam", "1", "--z", "1/2,1/3",
                                "--beta", "1/5"])
    payload = json.loads(out)
    assert code == 0
    # z1 + z2 + beta z1 z2 = 1/2 + 1/3 + 1/30 = 13/15
    assert payload["result"] == "13/15"


def test_scalar_check_passes(capsys):
    code, out = invoke(capsys, ["scalar", "check", "--seed", "11"])
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["passed"] is True


def test_scalar_check_draws_u_clear_of_the_norm_pole(capsys):
    # about one draw in ten used to hit alpha u^2 = 1 and exit 1 from norm_det
    for M, N in [(4, 2), (5, 3), (6, 3)]:
        for seed in range(1, 101):
            code, out = invoke(capsys, ["scalar", "check", "--seed", str(seed),
                                        "--M", str(M), "--N", str(N)])
            assert code == 0, (M, N, seed)
            assert json.loads(out)["result"]["passed"] is True


def test_scalar_check_takes_n_equal_to_m_and_refuses_the_rest(capsys):
    code, out = invoke(capsys, ["scalar", "check", "--M", "3", "--N", "3"])
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True
    # M = 1 has no second site for the w-swap and used to raise IndexError
    for M, N, message in [(1, 1, "--M must be an int >= 2, got --M = 1"),
                          (3, 0, "--N must be an int in 1..3, got --N = 0"),
                          (3, 4, "--N must be an int in 1..3, got --N = 4")]:
        code = run(["scalar", "check", "--M", str(M), "--N", str(N)])
        captured = capsys.readouterr()
        assert code == 1, (M, N)
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_vertex_checks(capsys):
    code, out = invoke(capsys, ["vertex", "rll-check", "--seed", "2", "--draws", "3"])
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True
    code, out = invoke(capsys, ["vertex", "ybe-check", "--seed", "2", "--draws", "3"])
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True
    code, out = invoke(capsys, ["vertex", "commutation-check", "--M", "3", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


@pytest.mark.parametrize("argv, message", [
    (["commutation-check", "--M", "-2"], "--M must be an int in 0..10, got --M = -2"),
    (["commutation-check", "--M", "11"], "--M must be an int in 0..10, got --M = 11"),
    (["rll-check", "--draws", "0"], "--draws must be an int >= 1, got --draws = 0"),
    (["ybe-check", "--draws", "-3"], "--draws must be an int >= 1, got --draws = -3"),
])
def test_vertex_checks_refuse_a_bad_size_up_front(capsys, argv, message):
    # -2 sites used to fail as "need one inhomogeneity per site", M = 20 to
    # start on 184756-square sector matrices, and no draws to report a pass
    code = run(["vertex", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bethe_payload(capsys):
    code, out = invoke(capsys, ["tasep", "bethe", "--M", "5", "--N", "2"])
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["count"] == payload["result"]["expected"] == 10
    sols = payload["result"]["solutions"]
    assert sum(1 for s in sols if s["stationary"]) == 1
    assert all(max(s["residuals"]) <= 1e-10 for s in sols)


def test_oracle_amplitudes_sum_to_one(capsys):
    code, out = invoke(capsys, ["tasep", "oracle", "--M", "5", "--N", "2",
                                "--from", "1,3", "--t", "0.5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["provenance"] == "oracle"
    assert abs(sum(payload["result"]["amplitudes"]) - 1) < 1e-10


def test_relax_emits_csv(capsys):
    code, out = invoke(capsys, ["tasep", "relax", "--M", "5", "--N", "2",
                                "--from", "1,2", "--observable", "density:1",
                                "--t-grid", "0:2:0.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 6
    t0_value = float(lines[1].split(",")[1])
    assert abs(t0_value - 1.0) < 1e-8  # site 1 occupied in the initial condition


@pytest.mark.parametrize("grid", ["0:1:0", "0:1:-0.5", "0:inf:1", "-0.5:1:0.5"])
def test_relax_refuses_a_grid_that_never_ends(grid):
    # each of these used to loop forever (the last over negative times); in a
    # subprocess with a timeout such a run fails the test instead of hanging it
    argv = ["tasep", "relax", "--M", "5", "--N", "2", "--from", "1,2",
            "--observable", "density:1", f"--t-grid={grid}"]
    done = _fresh_python(["-m", "fivevertex.cli", *argv], timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (f"error: bad t-grid {grid!r}, need finite values, start >= 0 "
                           f"and step > 0\n")


def test_negative_grid_start_reaches_the_grid_check(capsys):
    # "-0.5:1:0.5" as a separate argument used to look like an option to argparse
    code = run(["tasep", "relax", "--M", "5", "--N", "2", "--from", "1,2",
                "--observable", "density:1", "--t-grid", "-0.5:1:0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: bad t-grid '-0.5:1:0.5', need finite values, "
                            "start >= 0 and step > 0\n")


@pytest.mark.parametrize("action", ["green", "oracle"])
@pytest.mark.parametrize("t", ["-1", "nan", "inf"])
def test_tasep_refuses_a_bad_time(capsys, action, t):
    to = ["--to", "2,4"] if action == "green" else []
    code = run(["tasep", action, "--M", "6", "--N", "2", "--from", "1,2", *to, "--t", t])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: t must be a finite number >= 0, got t = {float(t)}\n"


@pytest.mark.parametrize("argv, message", [
    (["green", "--M", "6", "--N", "3", "--from", "1,2", "--to", "1,3", "--t", "1"],
     "configuration 1,2 has 2 particles, not N = 3"),
    (["oracle", "--M", "6", "--N", "3", "--from", "1,2", "--t", "1"],
     "configuration 1,2 has 2 particles, not N = 3"),
    (["relax", "--M", "6", "--N", "3", "--from", "1,2", "--observable", "density:1"],
     "configuration 1,2 has 2 particles, not N = 3"),
    (["relax", "--M", "6", "--N", "1", "--from", "1,2", "--observable", "density:1"],
     "configuration 1,2 has 2 particles, not N = 1"),
    (["relax", "--M", "6", "--N", "2", "--from", "1,2", "--observable", "density:7"],
     "observable site must be an int in 1..6, got observable site = 7"),
    (["relax", "--M", "6", "--N", "2", "--from", "1,2", "--observable", "current:-3"],
     "observable site must be an int in 1..6, got observable site = -3"),
    (["relax", "--M", "6", "--N", "2", "--from", "1,2", "--observable", "density:x"],
     "--observable needs density:<site> or current:<site> with an integer site, "
     "got 'density:x'"),
    (["relax", "--M", "6", "--N", "2", "--from", "1,2", "--observable", "density:"],
     "--observable needs density:<site> or current:<site> with an integer site, "
     "got 'density:'"),
    (["relax", "--M", "6", "--N", "2", "--from", "1,2", "--observable", "current"],
     "--observable needs density:<site> or current:<site> with an integer site, "
     "got 'current'"),
    (["relax", "--M", "6", "--N", "2", "--from", "1,2", "--observable", "current:1.5"],
     "--observable needs density:<site> or current:<site> with an integer site, "
     "got 'current:1.5'"),
])
def test_tasep_refuses_a_configuration_off_n_and_a_site_off_the_ring(capsys, argv, message):
    # these used to compute at len(--from) particles under the echoed N, wrap
    # site 7 to site 1, fail only after the CSV header, fail with int()'s
    # message on a site that is not an integer, or take site 1 for a missing one
    code = run(["tasep", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_wavefunction_eval(capsys):
    code, out = invoke(capsys, ["wavefunction", "eval", "--config", "1,3",
                                "--params", "2/3,5/7", "--alpha", "3/4", "--M", "4"])
    payload = json.loads(out)
    assert code == 0
    assert "/" in payload["result"]  # exact rational output


@pytest.mark.parametrize("config, M, dual", [("1,9", "5", []), ("2,2", "5", ["--dual"]),
                                            ("1,2", "1", [])])
def test_wavefunction_eval_refuses_an_impossible_configuration(capsys, config, M, dual):
    # these used to print -1152845/324, 343/162 and 2 with exit code 0
    code = run(["wavefunction", "eval", "--config", config, "--params", "1/2,1/3",
                "--alpha", "2", "--M", M, *dual])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    positions = tuple(int(x) for x in config.split(","))
    assert captured.err == f"error: configuration {positions} needs 1 <= x_1 < ... < x_N <= {M}\n"


@pytest.mark.parametrize("argv", [["tasep", "bethe", "--M", "4", "--N", "2", "--beta", "inf"],
                                  ["identity", "orthogonality", "--M", "6", "--N", "2",
                                   "--beta", "nan"]])
def test_non_finite_beta_is_refused_up_front(capsys, argv):
    # these used to track every path and print a completeness failure
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: beta must be a finite number, got beta = {float(argv[-1])}\n"


def test_orthogonality_command(capsys):
    # beta = 1e-11 is tracked, not taken for beta = 0: it used to exit 1 on the
    # unit-circle check, its roots sitting 3e-12 off the circle
    for argv in (["--M", "4", "--N", "2"], ["--M", "6", "--N", "2", "--beta", "1e-11"]):
        code, out = invoke(capsys, ["identity", "orthogonality", *argv])
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["passed"] is True
        assert payload["result"]["max_deviation"] <= 1e-8


def test_timing_flag_adds_elapsed(capsys):
    _, out = invoke(capsys, ["--timing", "identity", "cauchy", "--M", "4", "--N", "2"])
    assert "elapsed_ms" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["tasep", "bethe", "--M", "8", "--N", "4"],
    ["tasep", "green", "--M", "8", "--N", "4", "--from", "1,2,3,4", "--to", "2,4,6,8",
     "--t", "0.5"],
    ["identity", "orthogonality", "--M", "8", "--N", "4", "--beta", "-0.5"],
])
def test_timing_flag_adds_the_solve_time(capsys, argv):
    # the solve is part of the call, so it takes no longer than the call; without
    # the flag the payload is the same bytes less the two timings
    code, out = invoke(capsys, ["--timing", *argv])
    payload = json.loads(out)
    assert code == 0
    assert list(payload)[-2:] == ["solve_ms", "elapsed_ms"]
    assert 0 <= payload["solve_ms"] <= payload["elapsed_ms"]
    del payload["solve_ms"], payload["elapsed_ms"]
    assert invoke(capsys, argv) == (0, json.dumps(payload) + "\n")


def test_green_at_a_huge_time_prints_the_stationary_value_and_no_warning():
    # E t overflows for t = 1e308; e^{E t} is then 0 and only the stationary term is left
    done = _fresh_python(["-m", "fivevertex.cli", "tasep", "green", "--M", "4", "--N", "2",
                          "--from", "1,2", "--to", "3,4", "--t", "1e308"], timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["result"] == pytest.approx(1 / 6, abs=1e-15)


def test_negative_rational_option_values(capsys):
    code, out = invoke(capsys, ["groth", "eval", "--lam", "2,1",
                                "--z", "-1/2,1/3", "--beta", "-1/2"])
    payload = json.loads(out)
    assert code == 0
    assert payload["inputs"]["beta"] == "-1/2"
    assert payload["inputs"]["z"] == ["-1/2", "1/3"]


def test_dual_grothendieck_pole_is_named(capsys):
    # z_1 = 1/2 = -beta is a pole of the N = 2 dual columns; at N = 1 the point is regular
    assert run(["groth", "eval", "--lam", "2,1", "--z", "1/2,1/3", "--beta", "-1/2",
                "--kind", "dual"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dual Grothendieck pole at z_1 + beta = 0\n"
    code, out = invoke(capsys, ["groth", "eval", "--lam", "2", "--z", "1/2", "--beta", "-1/2",
                                "--kind", "dual"])
    assert code == 0 and json.loads(out)["result"] == "1/4"


def test_runs_build_the_parser_once(capsys):
    cli._parser.cache_clear()
    run(["groth", "eval", "--lam", "1", "--z", "1/2"])
    run(["scalar", "check", "--M", "1"])
    capsys.readouterr()
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, handler", [
    (["groth", "eval", "--lam", "1", "--z", "1"], "_groth_eval"),
    (["vertex", "rll-check"], "_vertex_relation"),
    (["vertex", "ybe-check"], "_vertex_relation"),
    (["vertex", "commutation-check"], "_vertex_commutation"),
    (["scalar", "check"], "_scalar_check"),
    (["wavefunction", "eval", "--config", "1", "--params", "1", "--alpha", "1", "--M", "2"],
     "_wavefunction_eval"),
    (["identity", "cauchy", "--M", "4", "--N", "2"], "_identity_cauchy"),
    (["identity", "orthogonality", "--M", "4", "--N", "2"], "_identity_orthogonality"),
    (["identity", "sum", "--M", "4", "--N", "2"], "_identity_sum"),
    (["tasep", "bethe", "--M", "4", "--N", "2"], "_tasep_bethe"),
    (["tasep", "green", "--M", "4", "--N", "2", "--from", "1,2", "--to", "1,2", "--t", "1"],
     "_tasep_green"),
    (["tasep", "oracle", "--M", "4", "--N", "2", "--from", "1,2", "--t", "1"], "_tasep_oracle"),
    (["tasep", "relax", "--M", "4", "--N", "2", "--from", "1,2", "--observable", "density:1"],
     "_tasep_relax"),
    (["verify-all"], "_verify_all"),
])
def test_every_leaf_command_reaches_its_handler(argv, handler):
    assert cli._parser().parse_args(argv).handler is getattr(cli, handler)


_GOLDEN = [line for line in (Path(__file__).parent / "cli_golden.txt").read_text().splitlines()
           if not line.startswith("#")]
GOLDEN = dict(zip(_GOLDEN[::2], _GOLDEN[1::2]))  # "$ argv" -> its stdout line


@pytest.mark.parametrize("command", list(GOLDEN))
def test_exact_lane_output_matches_the_golden_bytes(capsys, command):
    assert run(command.removeprefix("$ ").split()) == 0
    assert capsys.readouterr().out == GOLDEN[command] + "\n"


def _fresh_python(args, **kwargs):
    """Run a fresh interpreter on ``args`` with this package on its path."""
    src = str(Path(fivevertex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def _loaded_after_import(modules):
    """Which of ``modules`` a fresh interpreter has loaded after importing the package."""
    code = ("import sys, fivevertex, fivevertex.cli, fivevertex.acceptance; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    return _fresh_python(["-c", code], check=True).stdout.strip()


def test_package_imports_leave_sympy_out():
    # sympy is only imported by criterion 3's proof and by tests
    assert _loaded_after_import(["sympy"]) == "[]"


def test_package_imports_leave_scipy_solvers_out():
    # linear_sum_assignment and expm are imported where they are used, so the
    # CLI start-up does not pay for scipy.optimize and scipy.linalg
    assert _loaded_after_import(["scipy.optimize", "scipy.linalg"]) == "[]"

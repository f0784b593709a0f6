"""Command-line front end.

Subcommands mirror the library surface: ``groth eval``, ``vertex
rll-check|ybe-check|commutation-check``, ``scalar check``, ``wavefunction
eval``, ``identity cauchy|orthogonality|sum``, ``tasep
bethe|green|oracle|relax`` and ``verify-all``.  Results are printed as one
JSON object on stdout (``tasep relax`` emits its time series as CSV, per its
interface), with fields command/inputs/result/provenance; ``--timing`` adds
elapsed_ms, solve_ms (the Bethe solve's own milliseconds) to ``tasep bethe|green``
and ``identity orthogonality``, and to ``verify-all`` each criterion's elapsed_s,
which are omitted by default so that identical seeds give byte-identical output.
``verify-all`` writes its PASS/FAIL line per criterion to stderr.

The seeded checks ``vertex rll-check|ybe-check``, ``scalar check`` and
``identity cauchy|sum`` report the cases of ``acceptance`` that criteria 1,
4, 5 and 6 loop over, so each identity is drawn and checked in one place.

Exit codes: 0 success, 2 identity-check failure, 1 usage error.

The parser is one table, built once per process, in which every leaf
command names its handler.  A handler takes the parsed arguments, returns
its exit code and JSON payload (None when it prints its own output, as
``tasep relax`` does) and refuses bad input by raising ``ValueError``.
``run`` alone dispatches to it, turns a refusal into one ``error: ...`` line,
adds ``--timing``'s solve_ms and elapsed_ms and prints the payload.

Exact rationals serialize as "p/q" strings, complex numbers as [re, im]
pairs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from functools import cache
from math import comb
from random import Random

import numpy as np

from . import acceptance
from .identities import orthogonality_matrix
from .partitions import ParticleConfiguration, Partition, _require_int, config_to_partition
from .sampling import distinct_square_fractions, rand_fraction
from .sector import ModelParameters, Relations
from .symfunc import dual_grothendieck_eval, grothendieck_eval, schur_eval
from .tasep import (GreenQuery, bethe_solve, current_terms, density_terms,
                    green_function, master_oracle)
from .wavefunc import wavefunction_dets


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # admit negative rationals like -1/2, and lists like -1/2,1/3 or grids
        # like -0.5:1:0.5, as values
        token = r"(\d+(/\d+)?|\d*\.\d+)"
        self._negative_number_matcher = re.compile(rf"^-{token}([,:]-?{token})*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _jsonable(x):
    # the commonest types first: no type below is a list, tuple, complex or float
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x  # bool, int, str or None: no payload holds another type


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _parse_fraction_list(text: str):
    return [Fraction(part) for part in text.split(",") if part]


def _parse_int_list(text: str):
    return [int(part) for part in text.split(",") if part]


@cache
def _parser() -> _Parser:
    """The command table, built once per process; each leaf sets its ``handler``."""
    parser = _Parser(prog="fivevertex",
                     description="Five-vertex model / Grothendieck / TASEP engine")
    parser.add_argument("--timing", action="store_true",
                        help="include elapsed_ms (and solve_ms where a solve runs) in output")
    sub = parser.add_subparsers(dest="command", required=True)
    sector = argparse.ArgumentParser(add_help=False)
    sector.add_argument("--M", type=int, required=True)
    sector.add_argument("--N", type=int, required=True)

    def leaf(group, name, handler, *parents):
        cmd = group.add_parser(name, parents=list(parents))
        cmd.set_defaults(handler=handler)
        return cmd

    groth = sub.add_parser("groth", help="symmetric-function evaluation").add_subparsers(
        dest="action", required=True)
    g_eval = leaf(groth, "eval", _groth_eval)
    g_eval.add_argument("--lam", type=_parse_int_list, required=True)
    g_eval.add_argument("--z", type=_parse_fraction_list, required=True)
    g_eval.add_argument("--beta", type=_parse_fraction, default=Fraction(0))
    g_eval.add_argument("--kind", choices=["grothendieck", "dual", "schur"],
                        default="grothendieck")

    vertex = sub.add_parser("vertex", help="integrability checks").add_subparsers(
        dest="action", required=True)
    for name in ("rll-check", "ybe-check"):
        v_cmd = leaf(vertex, name, _vertex_relation)
        v_cmd.add_argument("--seed", type=int, default=1)
        v_cmd.add_argument("--draws", type=int, default=10)
    v_comm = leaf(vertex, "commutation-check", _vertex_commutation)
    v_comm.add_argument("--M", type=int, default=4)
    v_comm.add_argument("--seed", type=int, default=1)

    scalar = sub.add_parser("scalar", help="scalar-product invariants").add_subparsers(
        dest="action", required=True)
    s_check = leaf(scalar, "check", _scalar_check)
    s_check.add_argument("--seed", type=int, default=1)
    s_check.add_argument("--M", type=int, default=4)
    s_check.add_argument("--N", type=int, default=2)

    wave = sub.add_parser("wavefunction", help="overlap evaluation").add_subparsers(
        dest="action", required=True)
    w_eval = leaf(wave, "eval", _wavefunction_eval)
    w_eval.add_argument("--config", type=_parse_int_list, required=True)
    w_eval.add_argument("--params", type=_parse_fraction_list, required=True)
    w_eval.add_argument("--alpha", type=_parse_fraction, required=True)
    w_eval.add_argument("--M", type=int, required=True)
    w_eval.add_argument("--dual", action="store_true")

    ident = sub.add_parser("identity", help="identity checks").add_subparsers(
        dest="action", required=True)
    i_cauchy = leaf(ident, "cauchy", _identity_cauchy, sector)
    i_cauchy.add_argument("--beta", type=_parse_fraction, default=None)
    i_cauchy.add_argument("--seed", type=int, default=1)
    i_orth = leaf(ident, "orthogonality", _identity_orthogonality, sector)
    i_orth.add_argument("--beta", type=float, default=-1.0)
    i_orth.add_argument("--seed", type=int, default=1)
    i_sum = leaf(ident, "sum", _identity_sum, sector)
    i_sum.add_argument("--beta", type=_parse_fraction, default=None)
    i_sum.add_argument("--seed", type=int, default=1)

    tasep = sub.add_parser("tasep", help="TASEP dynamics").add_subparsers(
        dest="action", required=True)
    t_bethe = leaf(tasep, "bethe", _tasep_bethe, sector)
    t_bethe.add_argument("--beta", type=float, default=-1.0)
    t_green = leaf(tasep, "green", _tasep_green, sector)
    t_green.add_argument("--from", dest="initial", type=_parse_int_list, required=True)
    t_green.add_argument("--to", dest="final", type=_parse_int_list, required=True)
    t_green.add_argument("--t", type=float, required=True)
    t_oracle = leaf(tasep, "oracle", _tasep_oracle, sector)
    t_oracle.add_argument("--from", dest="initial", type=_parse_int_list, required=True)
    t_oracle.add_argument("--t", type=float, required=True)
    t_relax = leaf(tasep, "relax", _tasep_relax, sector)
    t_relax.add_argument("--from", dest="initial", type=_parse_int_list, required=True)
    t_relax.add_argument("--observable", required=True,
                         help="density:<site> or current:<site>")
    t_relax.add_argument("--t-grid", dest="t_grid", default="0:10:0.5",
                         help="start:stop:step")

    verify = sub.add_parser("verify-all", help="run the acceptance suite")
    verify.set_defaults(handler=_verify_all)
    verify.add_argument("--level", default="desk", choices=["desk"])
    return parser


def _groth_eval(args):
    fn = {"grothendieck": lambda: grothendieck_eval(args.lam, args.z, args.beta),
          "dual": lambda: dual_grothendieck_eval(args.lam, args.z, args.beta),
          "schur": lambda: schur_eval(args.lam, args.z)}[args.kind]
    lam = Partition(tuple(args.lam), (max(args.lam or [0]), len(args.lam)))
    return 0, {"command": "groth eval",
               "inputs": {"lam": args.lam, "z": args.z, "beta": args.beta, "kind": args.kind},
               "result": fn(), "provenance": "determinant", "partition": lam.text()}


def _vertex_relation(args):
    # with no draws nothing is checked, yet the result would read passed
    _require_int("--draws", args.draws, 1)
    rng = Random(args.seed)
    relation = args.action.split("-")[0]
    cases = [acceptance.integrability_case(rng) for _ in range(args.draws)]
    passed = all(case[relation] and case["rtilde"] for case in cases)
    return (0 if passed else 2), {
        "command": f"vertex {args.action}", "inputs": {"seed": args.seed, "draws": args.draws},
        "result": {"passed": passed}, "provenance": "determinant"}


def _vertex_commutation(args):
    # the checks multiply the sweep's int numerators: they take about
    # 0.5-0.7 s at M = 10 and about 2 s at M = 11 on a 2-core Xeon
    _require_int("--M", args.M, 0, 10)
    rng = Random(args.seed)
    u, v = distinct_square_fractions(rng, 2)
    alpha = rand_fraction(rng)
    relations = Relations(u, v, ModelParameters(alpha=alpha, M=args.M))
    detail = {}
    passed = True
    for n in range(args.M + 1):
        checks = relations.commutation(n)
        checks["tau"] = relations.transfer_commute(n)
        detail[f"sector {n}"] = checks
        passed = passed and all(checks.values())
    return (0 if passed else 2), {
        "command": "vertex commutation-check", "inputs": {"M": args.M, "seed": args.seed},
        "result": {"passed": passed, "relations": detail}, "provenance": "oracle"}


def _scalar_check(args):
    # the w-swap check exchanges two sites
    M, N = _require_int("--M", args.M, 2), _require_int("--N", args.N, 1, args.M)
    checks = acceptance.scalar_product_case(Random(args.seed), M, N)["checks"]
    passed = all(checks.values())
    return (0 if passed else 2), {
        "command": "scalar check", "inputs": {"seed": args.seed, "M": M, "N": N},
        "result": {"passed": passed, "checks": checks}, "provenance": "determinant"}


def _wavefunction_eval(args):
    value = wavefunction_dets([args.config], args.params, args.alpha, args.M, dual=args.dual)[0]
    return 0, {"command": "wavefunction eval",
               "inputs": {"config": args.config, "params": args.params, "alpha": args.alpha,
                          "M": args.M, "dual": args.dual},
               "result": value, "provenance": "determinant"}


def _identity_cauchy(args):
    case = acceptance.cauchy_case(Random(args.seed), args.M, args.N, args.beta)
    return (0 if case["equal"] else 2), {
        "command": "identity cauchy",
        "inputs": {"M": args.M, "N": args.N, "seed": args.seed, "z": case["z"], "y": case["y"],
                   "beta": case["beta"]},
        "result": {"equal": case["equal"]}, "provenance": "determinant"}


def _solve(args, beta=-1.0):
    """``bethe_solve`` of the sector; with ``--timing`` its milliseconds go to ``run``."""
    t0 = time.perf_counter()
    sols = bethe_solve(args.M, args.N, beta=beta)
    args.solve_ms = int((time.perf_counter() - t0) * 1000)
    return sols


def _identity_orthogonality(args):
    sols = _solve(args, args.beta)
    gram = orthogonality_matrix(args.M, args.N, args.beta, sols)
    worst = float(np.max(np.abs(gram - np.eye(len(gram)))))
    passed = worst <= 1e-8
    return (0 if passed else 2), {
        "command": "identity orthogonality",
        "inputs": {"M": args.M, "N": args.N, "beta": args.beta, "seed": args.seed},
        "result": {"passed": passed, "max_deviation": worst, "solution_sets": len(sols)},
        "provenance": "determinant"}


def _identity_sum(args):
    case = acceptance.summation_case(Random(args.seed), args.M, args.N, args.beta)
    return (0 if case["primal"] and case["dual"] else 2), {
        "command": "identity sum",
        "inputs": {"M": args.M, "N": args.N, "beta": case["beta"], "seed": args.seed,
                   "z": case["z"]},
        "result": {"primal": case["primal"], "dual": case["dual"]}, "provenance": "determinant"}


def _configuration(positions, M, N) -> ParticleConfiguration:
    if len(positions) != N:
        raise ValueError(f"configuration {','.join(map(str, positions))} has "
                         f"{len(positions)} particles, not N = {N}")
    return ParticleConfiguration(tuple(positions), M)


def _tasep_bethe(args):
    sols = _solve(args, args.beta)
    solutions = [{"roots": list(s.roots), "Y": s.Y, "energy": s.energy,
                  "residuals": list(s.residuals), "choice_id": s.choice_id,
                  "stationary": s.stationary} for s in sols]
    return 0, {"command": "tasep bethe",
               "inputs": {"M": args.M, "N": args.N, "beta": args.beta},
               "result": {"solutions": solutions, "count": len(sols),
                          "expected": comb(args.M, args.N)},
               "provenance": "determinant"}


def _tasep_green(args):
    query = GreenQuery(_configuration(args.initial, args.M, args.N),
                       _configuration(args.final, args.M, args.N), args.t)
    return 0, {"command": "tasep green",
               "inputs": {"M": args.M, "N": args.N, "from": args.initial, "to": args.final,
                          "t": args.t},
               "result": green_function(query, _solve(args)), "provenance": "determinant"}


def _tasep_oracle(args):
    state = master_oracle(_configuration(args.initial, args.M, args.N), args.t)
    return 0, {"command": "tasep oracle",
               "inputs": {"M": args.M, "N": args.N, "from": args.initial, "t": args.t},
               "result": {"basis": [list(c) for c in state.basis],
                          "amplitudes": state.amplitudes},
               "provenance": "oracle"}


def _tasep_relax(args):
    """Print the observable's time series as CSV."""
    kind, _, site_text = args.observable.partition(":")
    if kind not in ("density", "current"):
        raise ValueError(f"unknown observable {args.observable!r}")
    if not re.fullmatch(r"[+-]?\d+", site_text):
        raise ValueError(f"--observable needs density:<site> or current:<site> with an "
                         f"integer site, got {args.observable!r}")
    site = _require_int("observable site", int(site_text), 1, args.M)
    terms = density_terms(site) if kind == "density" else current_terms(site)
    try:
        start, stop, step = (float(part) for part in args.t_grid.split(":"))
    except ValueError:
        raise ValueError(f"bad t-grid {args.t_grid!r}, expected start:stop:step") from None
    if not (np.isfinite([start, stop, step]).all() and start >= 0 and step > 0):
        # any of these would never end the grid, or evaluate negative times
        raise ValueError(f"bad t-grid {args.t_grid!r}, need finite values, start >= 0 "
                         f"and step > 0")
    x0 = _configuration(args.initial, args.M, args.N)
    spec = bethe_solve(args.M, args.N)
    # the form factors and the right vector do not depend on t: built once for the grid
    a, a0 = spec.form_factors(terms)
    right = spec.right(config_to_partition(x0))
    print("t,value")
    k = 0
    while (t := start + k * step) <= stop + 1e-12:
        print(f"{t},{spec.evolve(a, a0, right, t)}")
        k += 1
    return 0, None


def _verify_all(args):
    results = acceptance.run_all()
    passed = all(r["passed"] for r in results)
    if not args.timing:
        results = [{k: v for k, v in r.items() if k != "elapsed_s"} for r in results]
    return (0 if passed else 2), {
        "command": "verify-all", "inputs": {"level": args.level},
        "result": {"passed": passed, "criteria": results}, "provenance": "determinant"}


def run(argv) -> int:
    """Entry point; returns the process exit code."""
    t0 = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        code, payload = args.handler(args)
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload is not None:
        if args.timing:
            if hasattr(args, "solve_ms"):
                payload["solve_ms"] = args.solve_ms
            payload["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
        print(json.dumps(_jsonable(payload)))
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Every size and number refusal of the package, as data.

Sizes go through ``partitions._require_int`` and numbers through
``partitions._require_finite``, so each refusal reads "<name> must be an int
in lo..hi, got <name> = <value>" (or ">= lo", "<= hi", no bound) or "<name>
must be a finite number, got ...".  ``REFUSALS`` holds, for every call site, a
non-int, a bool and an out-of-range row (for a number: nan, inf, complex, None
and bool), with the exact message, and beside them ``Matrix``'s shape refusals,
the parts, positions and sizes of ``partitions`` and ``wavefunc``, the
inhomogeneity and space-pair refusals of ``vertex`` and ``scalarprod``, the
summation sums' beta = 0 and ``scalars.rational_sqrt``'s; ``POLES`` holds
``vertex``'s zero-argument refusals, the poles of ``norm_det`` and of the
matrix product, a zero y of ``cauchy_infinite_check`` and
``scalars.exact_div``'s int zero divisor (``ZeroDivisionError``);
``NUMPY_INTS`` shows that an
np.int64 size, or spectral value, alpha or w of the sector oracle, gives
what the int gives, and ``NUMPY_VALUES`` that an np.int64 value, beta,
alpha or w of the determinant side gives the int's value in the int's
type; the hypothesis sweep
draws non-int sizes for every public name of the library modules that takes
one (``acceptance`` and ``sampling``, the seeded battery behind the CLI, take
argparse ints).
"""

from argparse import Namespace
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from fractions import Fraction as F
from functools import cache
from io import StringIO
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fivevertex import acceptance, cli, sector, symfunc, tasep
from fivevertex.identities import (cauchy_infinite_check, cauchy_lhs, cauchy_rhs,
                                   grothendieck_sum_check, grothendieck_sum_det,
                                   orthogonality_check, orthogonality_matrix, orthogonality_weight)
from fivevertex.linalg import Matrix, det
from fivevertex.partitions import (ParticleConfiguration, Partition, box_rank, enumerate_box,
                                   partition_to_config)
from fivevertex.scalarprod import (IntermediateSpec, domain_wall_value, intermediate_scalar_det,
                                   norm_det, recursion_check, scalar_product_det)
from fivevertex.scalars import exact_div, rational_sqrt
from fivevertex.sector import (ModelParameters, Relations, SectorOperator, basis_index,
                               bethe_state, build_monodromy_element, commutation_checks,
                               dual_bethe_state, hamiltonian, sector_basis, sector_dim,
                               transfer_commute, transfer_matrix)
from fivevertex.symfunc import (box_plan, dual_grothendieck_eval, grothendieck_box_cleared,
                                grothendieck_eval, schur_eval)
from fivevertex.tasep import (GreenQuery, SectorState, Spectrum, bethe_solve, current_terms,
                              density_terms, expectation, form_factor_sum, green_function_table,
                              master_oracle, sector_generator, sum_rule_check)
from fivevertex.wavefunc import (dual_wavefunction_det, dual_wavefunction_sum,
                                 matrix_product_build, staircase_overlap_value,
                                 step_overlap_value, wavefunction_det, wavefunction_dets,
                                 wavefunction_sum, wavefunction_trace)
from fivevertex.vertex import (ansatz_l_matrix, f_weight, g_weight, l_matrix, l_weights,
                               r_matrix, rll_check, rtilde_matrix)
from fivevertex.vertex import embed_two_site, rtilde_check, rtilde_matrix

Z, Y, BETA = [F(1, 2), F(1, 3)], [F(2), F(3)], F(1, 4)
X = ParticleConfiguration((1, 2), 4)
PARAMS = ModelParameters(F(1, 2), 3)
U, V = F(2, 3), F(3, 5)
NAN, INF = float("nan"), float("inf")
ZERO_BETA = ("the summation determinants carry negative powers of beta; "
             "use the Schur specialization for beta = 0")


@cache
def _spec():
    """The (4, 2) spectrum at the TASEP point, solved once for the module."""
    return bethe_solve(4, 2)


def _cli(*argv):
    """``cli.run(argv)``'s one error line as a ValueError, after checking exit 1 and no stdout."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    assert (code, out.getvalue()) == (1, "")
    raise ValueError(err.getvalue().removeprefix("error: ").removesuffix("\n"))


def _int_rows(site, call, name, bad, bounds=""):
    """The rows of one ``_require_int`` site: call(value) for each value in ``bad``."""
    return [(f"{site}-{name}={value!r}", lambda value=value: call(value),
             f"{name} must be an int{bounds}, got {name} = {value!r}") for value in bad]


def _finite_rows(site, call, name, bad, bounds=""):
    return [(f"{site}-{name}={value!r}", lambda value=value: call(value),
             f"{name} must be a finite number{bounds}, got {name} = {value!r}") for value in bad]


_TIMES = (NAN, INF, 1j, None, True, -1.0)

REFUSALS = [
    # partitions
    *_int_rows("Partition", lambda m: Partition((1, 0), (m, 2)), "box width",
               (2.5, True, -1), " >= 0"),
    *_int_rows("Partition", lambda n: Partition((1, 0), (2, n)), "box height",
               (2.0, True, -2), " >= 0"),
    *_int_rows("ParticleConfiguration", lambda M: ParticleConfiguration((1, 2), M), "ring_size",
               (4.5, True, -1), " >= 0"),
    *_int_rows("partition_to_config", lambda M: partition_to_config(Partition((1, 0), (2, 2)), M),
               "ring_size", (4.0, True, -1), " >= 0"),
    *_int_rows("enumerate_box", lambda m: enumerate_box(m, 2), "m", (2.0, True, -1), " >= 0"),
    *_int_rows("enumerate_box", lambda n: enumerate_box(2, n), "n", (2.0, True, -1), " >= 0"),
    *_int_rows("box_rank", lambda m: box_rank((0, 0), m), "m", (2.0, True, -1), " >= 0"),
    ("Partition-parts", lambda: Partition((1,), (2, 2)), "expected 2 parts, got 1"),
    ("Partition-box", lambda: Partition((3, 0), (2, 2)), "partition (3, 0) outside box 2^2"),
    ("ParticleConfiguration-ring", lambda: ParticleConfiguration((0, 2), 4),
     "positions (0, 2) outside ring of size 4"),
    # linalg
    *_int_rows("Matrix.zeros", lambda rows: Matrix.zeros(rows, 2), "rows", (2.5, True, -1),
               " >= 0"),
    *_int_rows("Matrix.zeros", lambda cols: Matrix.zeros(2, cols), "cols", (2.0, True, -1),
               " >= 0"),
    *_int_rows("Matrix.identity", Matrix.identity, "n", (2.0, True, -1), " >= 0"),
    ("Matrix-shape", lambda: Matrix([[1, 2]], shape=(2, 1)), "data does not match shape"),
    ("Matrix-ragged", lambda: Matrix([[1, 2], [3]]), "ragged rows"),
    ("Matrix.__add__", lambda: Matrix.identity(2) + Matrix.zeros(2, 3), "shape mismatch"),
    ("Matrix.__sub__", lambda: Matrix.zeros(3, 2) - Matrix.identity(2), "shape mismatch"),
    ("Matrix.__mul__", lambda: Matrix.zeros(2, 3) * Matrix.identity(2),
     "shape mismatch in product"),
    ("Matrix.apply", lambda: Matrix.identity(2).apply([1]),
     "vector length does not match the column count"),
    ("det", lambda: det(Matrix.zeros(2, 3)), "determinant of a non-square matrix"),
    # symfunc
    *_int_rows("box_plan", lambda m: box_plan(m, 2), "m", (2.0, True, -1), " >= 0"),
    *_int_rows("box_plan", lambda n: box_plan(2, n), "n", (2.0, True, 0), " >= 1"),
    # identities: a box sum names the caller's N, M first so that N's range is never empty
    *_int_rows("cauchy_lhs", lambda M: cauchy_lhs(M, 2, Z, Y, BETA), "M", (4.0, True, -1), " >= 0"),
    *_int_rows("cauchy_lhs", lambda N: cauchy_lhs(1, N, Z, Y, BETA), "N", (2.0, True, 2),
               " in 0..1"),
    *_int_rows("cauchy_rhs", lambda M: cauchy_rhs(M, 2, Z, Y, BETA), "M", (4.0, True)),
    *_int_rows("cauchy_rhs", lambda N: cauchy_rhs(4, N, Z, Y, BETA), "N", (2.0, True)),
    *_int_rows("cauchy_infinite_check", lambda N: cauchy_infinite_check(N, Z, Z, BETA), "N",
               (2.0, True, -1), " >= 0"),
    *_int_rows("cauchy_infinite_check",
               lambda M_max: cauchy_infinite_check(2, Z, Z, BETA, M_max=M_max), "M_max",
               (3.0, True, 0), " >= 1"),
    *_int_rows("grothendieck_sum_det", lambda M: grothendieck_sum_det(M, 2, Z, BETA), "M",
               (4.0, True, -1), " >= 0"),
    *_int_rows("grothendieck_sum_det", lambda N: grothendieck_sum_det(4, N, Z, BETA), "N",
               (2.0, True, -1), " >= 0"),
    *_int_rows("grothendieck_sum_check", lambda M: grothendieck_sum_check(M, 2, Z, BETA), "M",
               (4.0, True, -1), " >= 0"),
    *_int_rows("grothendieck_sum_check", lambda N: grothendieck_sum_check(1, N, Z, BETA), "N",
               (2.0, True, 2), " in 0..1"),
    *_int_rows("orthogonality_weight", lambda M: orthogonality_weight(Z, -1, M, 2), "M",
               (4.0, True)),
    *_int_rows("orthogonality_weight", lambda N: orthogonality_weight(Z, -1, 4, N), "N",
               (2.0, True)),
    *_int_rows("orthogonality_check", lambda M: orthogonality_check(M, 2, -1.0, (0,), (0,)), "M",
               (4.0, True, 1), " >= 2"),
    *_int_rows("orthogonality_check", lambda N: orthogonality_check(4, N, -1.0, (0,), (0,)), "N",
               (2.0, True, 4), " in 1..3"),
    # tasep: sectors 1 <= N <= M-1, M checked first
    *_int_rows("bethe_solve", lambda M: bethe_solve(M, 1), "M", (4.0, True, -1), " >= 2"),
    *_int_rows("bethe_solve", lambda N: bethe_solve(4, N), "N", (2.0, True, 4), " in 1..3"),
    *_finite_rows("bethe_solve", lambda beta: bethe_solve(4, 2, beta), "beta",
                  (NAN, INF, complex(-1, INF), None, True, "x")),
    *_int_rows("Spectrum", lambda M: Spectrum(list(_spec()), M, 2), "M", (4.0, True, 1),
               " >= 2"),
    *_int_rows("Spectrum", lambda N: Spectrum(list(_spec()), 4, N), "N", (2.0, True, 0, 4),
               " in 1..3"),
    *_int_rows("spectral data", lambda M: green_function_table(M, 2, 1.0, _spec()), "M",
               (4.0, True, 1), " >= 2"),
    *_int_rows("spectral data", lambda N: orthogonality_matrix(4, N, -1.0, _spec()), "N",
               (2.0, True, 0), " in 1..3"),
    *_int_rows("form_factor_sum", lambda M: form_factor_sum(1, 1, Z, M), "M", (4.0, True)),
    *_int_rows("form_factor_sum", lambda l: form_factor_sum(l, 1, Z, 4), "l", (1.5, True)),
    *_int_rows("form_factor_sum", lambda n: form_factor_sum(1, n, Z, 4), "n", (1.0, True, 5, -1),
               " in 0..4"),
    *_int_rows("Spectrum.form_factors", lambda l: _spec().form_factors([(1, l, 1)]), "l",
               (1.5, True)),
    *_int_rows("Spectrum.form_factors", lambda n: _spec().form_factors([(1, 3, n)]), "n",
               (1.0, True, 5, -3), " in -2..4"),
    *_int_rows("density_terms", density_terms, "i", (1.5, True)),
    *_int_rows("current_terms", current_terms, "i", (1.5, True)),
    *_int_rows("sector_generator", lambda N: sector_generator(4, N), "N", (2.0, True)),
    *_int_rows("master_oracle", lambda M: master_oracle(ParticleConfiguration((1,), M), 1.0), "M",
               (13,), " <= 12"),
    *_finite_rows("GreenQuery", lambda t: GreenQuery(X, X, t), "t", _TIMES, " >= 0"),
    *_finite_rows("green_function_table", lambda t: green_function_table(4, 2, t, _spec()), "t",
                  _TIMES, " >= 0"),
    # Spectrum.evolve, through two of its callers
    *_finite_rows("sum_rule_check", lambda t: sum_rule_check(X, t, _spec()), "t", _TIMES, " >= 0"),
    *_finite_rows("expectation", lambda t: expectation(np.eye(6), X, t, _spec()), "t",
                  _TIMES[:2], " >= 0"),
    *_finite_rows("master_oracle", lambda t: master_oracle(X, t), "t", _TIMES, " >= 0"),
    # sector
    *_int_rows("sector_dim", lambda M: sector_dim(M, 2), "M", (4.0, True)),
    *_int_rows("sector_dim", lambda n: sector_dim(4, n), "n", (2.0, True)),
    *_int_rows("sector_basis", lambda M: sector_basis(M, 2), "M", (4.0, True)),
    *_int_rows("sector_basis", lambda n: sector_basis(4, n), "n", (2.0, True)),
    *_int_rows("SectorOperator", lambda s: SectorOperator([[1]], s, 0, 2), "source", (0.0, True)),
    *_int_rows("SectorOperator", lambda s: SectorOperator([[1]], 0, s, 2), "target", (0.0, True)),
    *_int_rows("SectorOperator", lambda M: SectorOperator([[1]], 0, 0, M), "M", (2.0, True)),
    *_int_rows("build_monodromy_element", lambda n: build_monodromy_element("B", U, PARAMS, n),
               "n", (1.0, True)),
    ("build_monodromy_element-kind", lambda: build_monodromy_element("E", U, PARAMS, 1),
     "unknown monodromy element 'E'"),
    *_int_rows("transfer_matrix", lambda n: transfer_matrix(U, PARAMS, n), "n", (1.0, True)),
    *_int_rows("hamiltonian", lambda n: hamiltonian(PARAMS, n), "n", (1.0, True)),
    *_int_rows("Relations.commutation", lambda n: Relations(U, V, PARAMS).commutation(n), "n",
               (1.0, True)),
    *_int_rows("Relations.transfer_commute", lambda n: Relations(U, V, PARAMS).transfer_commute(n),
               "n", (1.0, True)),
    # vertex
    *_int_rows("ModelParameters", lambda M: ModelParameters(1, M), "M", (4.0, True, -2, None, "3"),
               " >= 0"),
    ("ModelParameters-w", lambda: ModelParameters(1, 3, w=(1, F(0), 2)),
     "inhomogeneities must be nonzero"),
    ("ModelParameters-w-count", lambda: ModelParameters(1, 3, w=(1, 2)),
     "need one inhomogeneity per site"),
    ("embed_two_site", lambda: embed_two_site(Matrix.identity(4), (1, 1)),
     "pos must be two distinct spaces of 0..2, got (1, 1)"),
    # scalarprod: M, then N in 0..M, then n in 0..N
    *_int_rows("IntermediateSpec", lambda M: IntermediateSpec(1, (U,), (V,), (1,) * 3, 2, M, 1),
               "M", (3.0, True, -1), " >= 0"),
    *_int_rows("IntermediateSpec", lambda N: IntermediateSpec(1, (U,), (V,), (1,) * 3, 2, 3, N),
               "N", (1.0, True, 4), " in 0..3"),
    *_int_rows("IntermediateSpec", lambda n: IntermediateSpec(n, (U,), (V,), (1,) * 3, 2, 3, 1),
               "n", (1.0, True, 2), " in 0..1"),
    ("IntermediateSpec-lengths", lambda: IntermediateSpec(1, (U, V), (V,), (1,) * 3, 2, 3, 1),
     "parameter list lengths do not match (n, N, M)"),
    *_int_rows("scalar_product_det", lambda M: scalar_product_det([U], [V], 2, M), "M",
               (2.0, True, -1), " >= 0"),
    ("scalar_product_det-lengths", lambda: scalar_product_det([U], [U, V], 2, 3),
     "need equally many u and v parameters"),
    *_int_rows("norm_det", lambda M: norm_det([U], 2, M), "M", (2.0, True, -1), " >= 0"),
    ("norm_det-method", lambda: norm_det([U], 2, 3, "lu"), "unknown method 'lu'"),
    *_int_rows("recursion_check",
               lambda n: recursion_check(IntermediateSpec(n, (), (V,), (1,) * 3, 4, 3, 1)), "n",
               (0,), " >= 1"),
    # equal squares there make the formula 0/0
    ("intermediate_scalar_det-w",
     lambda: intermediate_scalar_det(IntermediateSpec(0, (), (U, V), (1, 2, -2), 2, 3, 2)),
     "the last N - n inhomogeneities need distinct squares, got w_2^2 = w_3^2"),
    # wavefunc
    *_int_rows("wavefunction_dets", lambda M: wavefunction_dets([(1,)], [U], 2, M), "M",
               (4.0, True, -1), " >= 0"),
    *_int_rows("step_overlap_value", lambda M: step_overlap_value([U], 2, M), "M",
               (4.0, True, -1), " >= 0"),
    *_int_rows("staircase_overlap_value", lambda M: staircase_overlap_value([U], 2, M), "M",
               (4.0, True, -1), " >= 0"),
    *_int_rows("wavefunction_trace", lambda M: wavefunction_trace((1,), [U], 2, M), "M",
               (4.0, True, -1), " >= 0"),
    *_int_rows("wavefunction_sum", lambda M: wavefunction_sum([U], 2, M), "M",
               (4.0, True, -1), " >= 0"),
    *_int_rows("matrix_product_build",
               lambda n: matrix_product_build([F(1, k + 2) for k in range(n)], 2), "len(u)",
               (0, 7), " in 1..6"),
    ("wavefunction_dets-size", lambda: wavefunction_dets([(1, 2)], [U], 2, 4),
     "configuration size must match the number of parameters"),
    ("wavefunction_trace-size", lambda: wavefunction_trace((1, 2), [U], 2, 4),
     "matrix product state size must match the configuration"),
    # two spectral parameters 1e-9 apart: the frame change divides by their difference,
    # so exchange weights that close are refused up front, by name
    ("matrix_product_build-degenerate", lambda: matrix_product_build([0.5, 0.5 + 1e-9, 3.0], 2.0),
     "degenerate spectral parameters break the operator split: the exchange weights q_1 and "
     "q_2 agree within a relative 1e-06"),
    # cli: argparse hands the handlers ints, which the rows by exit code reach
    *_int_rows("cli --draws", lambda d: cli._vertex_relation(Namespace(draws=d, seed=1,
                                                                       action="rll-check")),
               "--draws", (1.0, True), " >= 1"),
    *_int_rows("cli --draws", lambda d: _cli("vertex", "ybe-check", "--draws", str(d)), "--draws",
               (0,), " >= 1"),
    *_int_rows("cli commutation-check", lambda M: cli._vertex_commutation(Namespace(M=M, seed=1)),
               "--M", (2.0, True), " in 0..10"),
    *_int_rows("cli commutation-check",
               lambda M: _cli("vertex", "commutation-check", "--M", str(M)), "--M", (11, -2),
               " in 0..10"),
    *_int_rows("cli scalar", lambda M: cli._scalar_check(Namespace(M=M, N=1, seed=1)), "--M",
               (3.0, True), " >= 2"),
    *_int_rows("cli scalar", lambda M: _cli("scalar", "check", "--M", str(M), "--N", "1"), "--M",
               (1,), " >= 2"),
    *_int_rows("cli scalar", lambda N: cli._scalar_check(Namespace(M=3, N=N, seed=1)), "--N",
               (1.0, True), " in 1..3"),
    *_int_rows("cli scalar", lambda N: _cli("scalar", "check", "--M", "3", "--N", str(N)), "--N",
               (0, 4), " in 1..3"),
    *_int_rows("cli relax", lambda i: _cli("tasep", "relax", "--M", "6", "--N", "2", "--from",
                                           "1,2", "--observable", f"current:{i}"),
               "observable site", (7, 0), " in 1..6"),
    ("cli relax --observable", lambda: _cli("tasep", "relax", "--M", "6", "--N", "2", "--from",
                                            "1,2", "--observable", "speed:1"),
     "unknown observable 'speed:1'"),
    ("cli relax --t-grid", lambda: _cli("tasep", "relax", "--M", "6", "--N", "2", "--from", "1,2",
                                        "--observable", "density:1", "--t-grid", "0:10"),
     "bad t-grid '0:10', expected start:stop:step"),
    # inputs that came out as a silent number or an internal TypeError before every
    # size and number went through the two helpers
    ("probe-ModelParameters-bool", lambda: ModelParameters(1, True),
     "M must be an int >= 0, got M = True"),
    ("probe-IntermediateSpec-n", lambda: IntermediateSpec(1.0, (U,), (V,), (1,) * 3, 2, 3, 1),
     "n must be an int in 0..1, got n = 1.0"),
    ("probe-IntermediateSpec-M", lambda: IntermediateSpec(1, (U,), (V,), (1,) * 3, 2, 3.0, 1),
     "M must be an int >= 0, got M = 3.0"),
    ("probe-form_factors-l", lambda: _spec().form_factors([(1, 1.5, 1)]),
     "l must be an int, got l = 1.5"),
    ("probe-form_factors-n", lambda: _spec().form_factors([(1, 1, 1.0)]),
     "n must be an int in 0..4, got n = 1.0"),
    ("probe-cauchy_infinite_check-M_max", lambda: cauchy_infinite_check(2, Z, Z, BETA, M_max=0),
     "M_max must be an int >= 1, got M_max = 0"),
    ("probe-bethe_solve-None", lambda: bethe_solve(4, 2, None),
     "beta must be a finite number, got beta = None"),
    ("probe-bethe_solve-str", lambda: bethe_solve(4, 2, "x"),
     "beta must be a finite number, got beta = 'x'"),
    ("probe-GreenQuery-complex", lambda: GreenQuery(X, X, 1j),
     "t must be a finite number >= 0, got t = 1j"),
    ("probe-green_function_table-bool", lambda: green_function_table(4, 2, True),
     "t must be a finite number >= 0, got t = True"),
    ("probe-ParticleConfiguration", lambda: ParticleConfiguration((1, 2), 4.5),
     "ring_size must be an int >= 0, got ring_size = 4.5"),
    ("probe-Partition", lambda: Partition((1, 0), (2.5, 2)),
     "box width must be an int >= 0, got box width = 2.5"),
    ("probe-bethe_solve-M-first", lambda: bethe_solve(-1, 1),
     "M must be an int >= 2, got M = -1"),
    # a bool entry used to be taken as 1 or 0
    ("probe-Partition-bool-part", lambda: Partition((True, 0), (2, 2)),
     "parts must be integers, got True"),
    ("probe-Partition-numpy-bool-part", lambda: Partition((1, np.False_), (2, 2)),
     "parts must be integers, got np.False_"),
    ("probe-ParticleConfiguration-bool-position", lambda: ParticleConfiguration((True, 2), 3),
     "positions must be integers, got True"),
    # box_rank's parts must be a partition in the box
    ("probe-box_rank-outside", lambda: box_rank((3, 0), 2),
     "parts must be weakly decreasing ints in 0..2, got (3, 0)"),
    ("probe-box_rank-bool", lambda: box_rank((True, 0), 2),
     "parts must be weakly decreasing ints in 0..2, got (True, 0)"),
    ("probe-box_rank-increasing", lambda: box_rank([[1, 0], [0, 1]], 2),
     "parts must be weakly decreasing ints in 0..2, got array([[1, 0],\n       [0, 1]])"),
    ("probe-box_rank-float", lambda: box_rank(np.array([1.5, 0]), 2),
     "parts must be weakly decreasing ints in 0..2, got array([1.5, 0. ])"),
    # beta = 0 gives no summation determinant: refused once, by grothendieck_sum_check
    ("summation_case-beta=0", lambda: acceptance.summation_case(Random(1), 4, 2, beta=0),
     ZERO_BETA),
    ("cli identity sum --beta 0",
     lambda: _cli("identity", "sum", "--M", "4", "--N", "2", "--beta", "0"), ZERO_BETA),
    # a rational square root needs a nonnegative perfect square
    ("rational_sqrt-negative", lambda: rational_sqrt(F(-4, 9)),
     "negative rational has no rational square root"),
    ("rational_sqrt-non-square", lambda: rational_sqrt(F(2, 9)),
     "2/9 is not a perfect rational square"),
]


@pytest.mark.parametrize("call, message", [pytest.param(c, m, id=i) for i, c, m in REFUSALS])
def test_refusal(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# vertex's nonzero refusals and norm_det's poles, where a value would be divided by zero
POLES = [
    ("rtilde_matrix", lambda: rtilde_matrix(0, F(1, 2)), "R~ is singular at u = 0"),
    ("rtilde_check-u", lambda: rtilde_check(F(0), 2, 3, 1), "spectral arguments must be nonzero"),
    ("rtilde_check-w_j", lambda: rtilde_check(2, 0, 3, 1), "spectral arguments must be nonzero"),
    ("rtilde_check-w_k", lambda: rtilde_check(2, 3, 0.0, 1), "spectral arguments must be nonzero"),
    ("norm_det-pole", lambda: norm_det([F(2)], F(1, 4), 3),
     "norm determinant pole at alpha = u^-2"),
    ("norm_det-sylvester", lambda: norm_det([1], -1, 2, "sylvester"),
     "Sylvester reduction needs alpha N + (M-N) u^-2 != 0; use method='det'"),
    ("matrix_product_build-pole", lambda: matrix_product_build([U, 0], 2),
     "matrix product needs u != 0 and alpha u^2 != 1"),
    # y = 0 used to reach Python's own "0.0 cannot be raised to a negative power"
    ("cauchy_infinite_check-y", lambda: cauchy_infinite_check(2, Z, [F(0), F(1, 3)], BETA),
     "the dual variables need y_k != 0, as Gbar(y) does"),
    # an int quotient by zero, in the words of 1 / 0
    ("exact_div-int", lambda: exact_div(1, 0), "division by zero"),
]


@pytest.mark.parametrize("call, message", [pytest.param(c, m, id=i) for i, c, m in POLES])
def test_pole_refusal(call, message):
    with pytest.raises(ZeroDivisionError) as info:
        call()
    assert str(info.value) == message


def test_the_table_ids_are_distinct():
    ids = [i for i, _, _ in REFUSALS + POLES]
    assert len(ids) == len(set(ids))


NUMPY_INTS = [
    ("Partition", lambda I: Partition((1, 0), (I(2), I(2)))),
    ("ParticleConfiguration", lambda I: ParticleConfiguration((1, 2), I(4))),
    ("partition_to_config", lambda I: partition_to_config(Partition((1, 0), (2, 2)), I(4))),
    ("enumerate_box", lambda I: list(enumerate_box(I(2), I(2)))),
    ("box_rank", lambda I: box_rank([[I(1), I(0)], [I(2), I(2)]], I(2))),
    ("box_rank-tuple", lambda I: box_rank((I(2), I(1)), I(2))),
    ("Matrix.zeros", lambda I: Matrix.zeros(I(2), I(3))),
    ("Matrix.identity", lambda I: Matrix.identity(I(2))),
    ("box_plan", lambda I: box_plan(I(2), I(2))),
    ("grothendieck_box_cleared", lambda I: grothendieck_box_cleared(Z, BETA, I(2))),
    ("cauchy_lhs", lambda I: cauchy_lhs(I(4), I(2), Z, Y, BETA)),
    ("cauchy_rhs", lambda I: cauchy_rhs(I(4), I(2), Z, Y, BETA)),
    ("cauchy_infinite_check", lambda I: cauchy_infinite_check(I(2), Z, Z, BETA, M_max=I(3))),
    ("grothendieck_sum_det", lambda I: grothendieck_sum_det(I(4), I(2), Z, BETA)),
    ("grothendieck_sum_check", lambda I: grothendieck_sum_check(I(4), I(2), Z, BETA)),
    ("orthogonality_weight", lambda I: orthogonality_weight(Z, -1, I(4), I(2))),
    ("orthogonality_check", lambda I: orthogonality_check(I(4), I(2), -1.0, (1,), (1,), _spec())),
    ("bethe_solve", lambda I: [s.roots for s in bethe_solve(I(4), I(2))]),
    ("Spectrum", lambda I: (lambda s: (s.M, s.N, s.roots))(Spectrum(list(_spec()), I(4), I(2)))),
    ("spectral data", lambda I: green_function_table(I(4), I(2), 0.5, _spec())),
    ("form_factor_sum", lambda I: form_factor_sum(I(1), I(1), Z, I(4))),
    ("Spectrum.form_factors", lambda I: _spec().form_factors([(1, I(2), I(1))])),
    ("density_terms", lambda I: density_terms(I(2))),
    ("current_terms", lambda I: current_terms(I(2))),
    ("sector_generator", lambda I: sector_generator(I(4), I(2))),
    ("SectorState", lambda I: SectorState(np.zeros(6), I(4), I(2)).basis),
    ("sector_dim", lambda I: sector_dim(I(4), I(2))),
    ("sector_basis", lambda I: sector_basis(I(4), I(2))),
    ("basis_index", lambda I: basis_index(I(4), I(2))),
    ("SectorOperator",
     lambda I: (lambda op: (op, op.data))(SectorOperator([[1]], I(0), I(0), I(2)))),
    ("build_monodromy_element", lambda I: build_monodromy_element("B", U, PARAMS, I(1)).data),
    ("transfer_matrix", lambda I: transfer_matrix(U, PARAMS, I(1)).data),
    ("hamiltonian", lambda I: hamiltonian(PARAMS, I(1)).data),
    ("Relations.commutation", lambda I: Relations(U, V, PARAMS).commutation(I(1))),
    ("Relations.transfer_commute", lambda I: Relations(U, V, PARAMS).transfer_commute(I(1))),
    ("commutation_checks", lambda I: commutation_checks(U, V, PARAMS, I(1))),
    ("transfer_commute", lambda I: transfer_commute(U, V, PARAMS, I(1))),
    ("ModelParameters", lambda I: ModelParameters(1, I(4))),
    # spectral values, alpha and w: a numpy int used to reach float arithmetic
    ("ModelParameters-alpha-w", lambda I: ModelParameters(I(2), 3, w=(I(1), I(2), 3))),
    ("bethe_state-values", lambda I: bethe_state([I(2), I(3)], ModelParameters(1, 4))),
    ("dual_bethe_state-values",
     lambda I: dual_bethe_state([I(2), 3], ModelParameters(I(2), 4, w=(1, I(2), 1, 3)))),
    ("build_monodromy_element-u",
     lambda I: build_monodromy_element("D", I(2), ModelParameters(1, 4), 2).data),
    ("transfer_matrix-u", lambda I: transfer_matrix(I(3), ModelParameters(I(1), 3), 1).data),
    ("commutation_checks-values",
     lambda I: commutation_checks(I(2), I(3), ModelParameters(I(1), 3, w=(1, I(2), 3)), 1)),
    ("IntermediateSpec", lambda I: IntermediateSpec(I(1), (U,), (V,), (1,) * 3, 2, I(3), I(1))),
    ("scalar_product_det", lambda I: scalar_product_det([U], [V], 2, I(2))),
    ("norm_det", lambda I: norm_det([U], 2, I(2))),
    ("recursion_check",
     lambda I: recursion_check(IntermediateSpec(I(1), (U,), (V,), (1,) * 3, 4, I(3), I(1)))),
    ("wavefunction_dets", lambda I: wavefunction_dets([(1,), (3,)], [U], 2, I(4))),
    ("wavefunction_det", lambda I: wavefunction_det((2,), [U], 2, I(4))),
    ("dual_wavefunction_det", lambda I: dual_wavefunction_det((2,), [U], 2, I(4))),
    ("step_overlap_value", lambda I: step_overlap_value([U], 2, I(4))),
    ("staircase_overlap_value", lambda I: staircase_overlap_value([U], 2, I(4))),
    ("wavefunction_trace", lambda I: wavefunction_trace((2,), [U], 2, I(4))),
    ("wavefunction_sum", lambda I: wavefunction_sum([U], 2, I(4))),
    ("dual_wavefunction_sum", lambda I: dual_wavefunction_sum([U], 2, I(4))),
]


@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c in NUMPY_INTS])
def test_a_numpy_int_size_gives_what_the_int_gives(call):
    assert repr(call(np.int64)) == repr(call(int))


# spectral values, beta, alpha and w of the determinant side, the vertex weights and the
# sector's closed forms: a numpy int used to give a numpy float (grothendieck_eval,
# cauchy_lhs, grothendieck_sum_check, r_matrix, f_weight, bethe_residual) or numpy's own
# "Integers to negative integer powers are not allowed." (l_weights, rll_check)
NUMPY_VALUES = [
    ("schur_eval", lambda I: schur_eval((2, 1), [I(2), I(3)])),
    ("grothendieck_eval", lambda I: grothendieck_eval((2, 1), [I(2), I(3)], I(1))),
    ("dual_grothendieck_eval", lambda I: dual_grothendieck_eval((2, 1), [I(2), I(3)], I(1))),
    ("grothendieck_box_cleared", lambda I: grothendieck_box_cleared([I(2), I(3)], I(1), 2)),
    ("grothendieck_box_cleared-dual",
     lambda I: grothendieck_box_cleared([I(2), I(3)], I(1), 2, dual=True)),
    ("cauchy_lhs", lambda I: cauchy_lhs(4, 2, [I(2), I(3)], [I(5), I(7)], I(1))),
    ("cauchy_rhs", lambda I: cauchy_rhs(4, 2, [I(2), I(3)], [I(5), I(7)], I(1))),
    ("cauchy_infinite_check",
     lambda I: cauchy_infinite_check(2, [F(1, 3), F(1, 5)], [F(1, 2), F(1, 7)], I(2), 3)),
    ("grothendieck_sum_det", lambda I: grothendieck_sum_det(4, 2, [I(2), I(3)], I(2))),
    ("grothendieck_sum_det-dual",
     lambda I: grothendieck_sum_det(4, 2, [I(2), I(3)], I(2), dual=True)),
    ("grothendieck_sum_check", lambda I: grothendieck_sum_check(4, 2, [I(2), I(3)], I(1))),
    ("orthogonality_weight", lambda I: orthogonality_weight([I(2), I(3)], I(-1), 4, 2)),
    ("scalar_product_det", lambda I: scalar_product_det([I(2), I(3)], [I(5), I(7)], I(1), 4)),
    ("intermediate_scalar_det", lambda I: intermediate_scalar_det(
        IntermediateSpec(1, (I(2),), (I(3), I(5)), (1, I(2), 3, I(5)), I(1), 4, 2))),
    ("domain_wall_value", lambda I: domain_wall_value(
        IntermediateSpec(0, (), (I(3), I(5)), (1, I(2), 3, I(5)), I(2), 4, 2))),
    ("recursion_check",
     lambda I: recursion_check(IntermediateSpec(1, (I(2),), (I(3),), (1, I(2), 5), I(4), 3, 1))),
    ("norm_det", lambda I: norm_det([I(2), I(3)], I(1), 4)),
    ("norm_det-sylvester", lambda I: norm_det([I(2), I(3)], I(1), 4, "sylvester")),
    ("wavefunction_dets",
     lambda I: wavefunction_dets([(1, 2), (1, 3), (2, 5)], [I(2), I(3)], I(1), 5)),
    ("wavefunction_det", lambda I: wavefunction_det((1, 3), [I(2), I(3)], I(1), 5)),
    ("dual_wavefunction_det", lambda I: dual_wavefunction_det((1, 3), [I(2), I(3)], I(1), 5)),
    ("step_overlap_value", lambda I: step_overlap_value([I(2), I(3)], I(1), 5)),
    ("staircase_overlap_value", lambda I: staircase_overlap_value([I(2), I(3)], I(1), 5)),
    ("wavefunction_trace", lambda I: wavefunction_trace((1, 3), [I(2), I(3)], I(1), 5)),
    ("matrix_product_build", lambda I: matrix_product_build([I(2), I(3)], I(1)).A.data),
    ("wavefunction_sum", lambda I: wavefunction_sum([I(2), I(3)], I(1), 5)),
    ("dual_wavefunction_sum", lambda I: dual_wavefunction_sum([I(2), I(3)], I(1), 5)),
    ("f_weight", lambda I: f_weight(I(2), I(3))),
    ("g_weight", lambda I: g_weight(I(2), I(3))),
    ("l_weights", lambda I: l_weights(I(2), I(3))),
    ("l_matrix", lambda I: l_matrix(I(2), I(3)).data),
    ("r_matrix", lambda I: r_matrix(I(2), I(3)).data),
    ("rtilde_matrix", lambda I: rtilde_matrix(I(2), I(3)).data),
    ("ansatz_l_matrix", lambda I: ansatz_l_matrix(I(2), 1, 2, 3, 2, lambda u: u).data),
    ("rll_check", lambda I: rll_check(I(2), I(3), I(1))),
    ("bethe_residual", lambda I: sector.bethe_residual([I(2), I(3)], ModelParameters(I(2), 4))),
    ("transfer_eigenvalue",
     lambda I: sector.transfer_eigenvalue(I(5), [I(2), I(3)], ModelParameters(I(2), 4))),
]


def _same(a, b):
    """Whether a and b agree in value (``a - b == 0``) and in type, item by item."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple, np.ndarray)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a - b == 0


@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c in NUMPY_VALUES])
def test_a_numpy_int_value_gives_what_the_int_gives(call):
    assert _same(call(np.int64), call(int))


def _heavy(*args, **kwargs):
    raise AssertionError("reached a solve, a box or a sweep before the size was checked")


_NON_INT = st.one_of(st.floats(), st.floats().map(np.float64), st.booleans(), st.none(),
                     st.text(max_size=3))

# (public name and argument, call with that size, the name the refusal gives)
SIZED = [
    ("Partition-box", lambda s: Partition((), (s, 0)), "box width"),
    ("ParticleConfiguration-ring_size", lambda s: ParticleConfiguration((1,), s), "ring_size"),
    ("partition_to_config-ring_size",
     lambda s: partition_to_config(Partition((0,), (1, 1)), s), "ring_size"),
    ("enumerate_box-m", lambda s: enumerate_box(s, 2), "m"),
    ("enumerate_box-n", lambda s: enumerate_box(2, s), "n"),
    ("box_rank-m", lambda s: box_rank((0,), s), "m"),
    ("Matrix.zeros-rows", lambda s: Matrix.zeros(s, 2), "rows"),
    ("Matrix.zeros-cols", lambda s: Matrix.zeros(2, s), "cols"),
    ("Matrix.identity-n", Matrix.identity, "n"),
    ("box_plan-m", lambda s: box_plan(s, 2), "m"),
    ("box_plan-n", lambda s: box_plan(2, s), "n"),
    ("grothendieck_box_cleared-m", lambda s: grothendieck_box_cleared(Z, BETA, s), "m"),
    ("cauchy_lhs-M", lambda s: cauchy_lhs(s, 2, Z, Y, BETA), "M"),
    ("cauchy_lhs-N", lambda s: cauchy_lhs(4, s, Z, Y, BETA), "N"),
    ("cauchy_rhs-M", lambda s: cauchy_rhs(s, 2, Z, Y, BETA), "M"),
    ("cauchy_rhs-N", lambda s: cauchy_rhs(4, s, Z, Y, BETA), "N"),
    ("cauchy_infinite_check-N", lambda s: cauchy_infinite_check(s, Z, Z, BETA), "N"),
    ("cauchy_infinite_check-M_max", lambda s: cauchy_infinite_check(2, Z, Z, BETA, s), "M_max"),
    ("grothendieck_sum_det-M", lambda s: grothendieck_sum_det(s, 2, Z, BETA), "M"),
    ("grothendieck_sum_det-N", lambda s: grothendieck_sum_det(4, s, Z, BETA), "N"),
    ("grothendieck_sum_check-M", lambda s: grothendieck_sum_check(s, 2, Z, BETA), "M"),
    ("grothendieck_sum_check-N", lambda s: grothendieck_sum_check(4, s, Z, BETA), "N"),
    ("orthogonality_weight-M", lambda s: orthogonality_weight(Z, -1, s, 2), "M"),
    ("orthogonality_weight-N", lambda s: orthogonality_weight(Z, -1, 4, s), "N"),
    ("orthogonality_check-M", lambda s: orthogonality_check(s, 2, -1.0, (0,), (0,)), "M"),
    ("orthogonality_check-N", lambda s: orthogonality_check(4, s, -1.0, (0,), (0,)), "N"),
    ("orthogonality_matrix-M", lambda s: orthogonality_matrix(s, 2, -1.0), "M"),
    ("orthogonality_matrix-N", lambda s: orthogonality_matrix(4, s, -1.0), "N"),
    ("bethe_solve-M", lambda s: bethe_solve(s, 2), "M"),
    ("bethe_solve-N", lambda s: bethe_solve(4, s), "N"),
    ("Spectrum-M", lambda s: Spectrum([], s, 2), "M"),
    ("Spectrum-N", lambda s: Spectrum([], 4, s), "N"),
    ("green_function_table-M", lambda s: green_function_table(s, 2, 1.0), "M"),
    ("green_function_table-N", lambda s: green_function_table(4, s, 1.0), "N"),
    ("form_factor_sum-l", lambda s: form_factor_sum(s, 1, Z, 4), "l"),
    ("form_factor_sum-n", lambda s: form_factor_sum(1, s, Z, 4), "n"),
    ("form_factor_sum-M", lambda s: form_factor_sum(1, 1, Z, s), "M"),
    ("Spectrum.form_factors-l", lambda s: _spec().form_factors([(1, s, 1)]), "l"),
    ("Spectrum.form_factors-n", lambda s: _spec().form_factors([(1, 1, s)]), "n"),
    ("density_terms-i", density_terms, "i"),
    ("current_terms-i", current_terms, "i"),
    ("sector_generator-M", lambda s: sector_generator(s, 2), "M"),
    ("sector_generator-N", lambda s: sector_generator(4, s), "N"),
    ("SectorState-M", lambda s: SectorState(np.zeros(6), s, 2), "M"),
    ("SectorState-n", lambda s: SectorState(np.zeros(6), 4, s), "n"),
    ("sector_dim-M", lambda s: sector_dim(s, 2), "M"),
    ("sector_dim-n", lambda s: sector_dim(4, s), "n"),
    ("sector_basis-M", lambda s: sector_basis(s, 2), "M"),
    ("sector_basis-n", lambda s: sector_basis(4, s), "n"),
    ("basis_index-M", lambda s: basis_index(s, 2), "M"),
    ("basis_index-n", lambda s: basis_index(4, s), "n"),
    ("SectorOperator-source", lambda s: SectorOperator([[1]], s, 0, 2), "source"),
    ("SectorOperator-target", lambda s: SectorOperator([[1]], 0, s, 2), "target"),
    ("SectorOperator-M", lambda s: SectorOperator([[1]], 0, 0, s), "M"),
    ("build_monodromy_element-n", lambda s: build_monodromy_element("B", U, PARAMS, s), "n"),
    ("transfer_matrix-n", lambda s: transfer_matrix(U, PARAMS, s), "n"),
    ("hamiltonian-n", lambda s: hamiltonian(PARAMS, s), "n"),
    ("Relations.commutation-n", lambda s: Relations(U, V, PARAMS).commutation(s), "n"),
    ("Relations.transfer_commute-n", lambda s: Relations(U, V, PARAMS).transfer_commute(s), "n"),
    ("commutation_checks-n", lambda s: commutation_checks(U, V, PARAMS, s), "n"),
    ("transfer_commute-n", lambda s: transfer_commute(U, V, PARAMS, s), "n"),
    ("ModelParameters-M", lambda s: ModelParameters(1, s), "M"),
    ("IntermediateSpec-n", lambda s: IntermediateSpec(s, (U,), (V,), (1,) * 3, 2, 3, 1), "n"),
    ("IntermediateSpec-N", lambda s: IntermediateSpec(1, (U,), (V,), (1,) * 3, 2, 3, s), "N"),
    ("IntermediateSpec-M", lambda s: IntermediateSpec(1, (U,), (V,), (1,) * 3, 2, s, 1), "M"),
    ("scalar_product_det-M", lambda s: scalar_product_det([U], [V], 2, s), "M"),
    ("norm_det-M", lambda s: norm_det([U], 2, s), "M"),
    ("wavefunction_det-M", lambda s: wavefunction_det((1,), [U], 2, s), "M"),
    ("dual_wavefunction_det-M", lambda s: dual_wavefunction_det((1,), [U], 2, s), "M"),
    ("wavefunction_dets-M", lambda s: wavefunction_dets([(1,)], [U], 2, s), "M"),
    ("step_overlap_value-M", lambda s: step_overlap_value([U], 2, s), "M"),
    ("staircase_overlap_value-M", lambda s: staircase_overlap_value([U], 2, s), "M"),
    ("wavefunction_trace-M", lambda s: wavefunction_trace((1,), [U], 2, s), "M"),
    ("wavefunction_sum-M", lambda s: wavefunction_sum([U], 2, s), "M"),
    ("dual_wavefunction_sum-M", lambda s: dual_wavefunction_sum([U], 2, s), "M"),
]


@pytest.mark.parametrize("call, name", [pytest.param(c, n, id=i) for i, c, n in SIZED])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(size=_NON_INT)
@example(size=2.0)
@example(size=np.float64(3.0))
@example(size=True)
@example(size=None)
@example(size="2")
def test_a_non_int_size_is_refused_by_name_before_any_work(call, name, size):
    _spec()  # solved before the solver is blocked
    with ExitStack() as stack:
        for module, attr in ((tasep, "_free_roots"), (tasep, "bialternants"),
                             (symfunc, "_box_plan"), (sector, "_sweep")):
            stack.enter_context(mock.patch.object(module, attr, _heavy))
        with pytest.raises(ValueError) as info:
            call(size)
    text = str(info.value)
    assert text.startswith(f"{name} must be an int") and text.endswith(f"got {name} = {size!r}")

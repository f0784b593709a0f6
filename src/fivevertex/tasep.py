"""Exact relaxation dynamics of the periodic TASEP.

Particles hop right at unit rate on a ring of M sites; the generator is the
alpha = 1 five-vertex Hamiltonian, and the master equation d|phi>/dt = H|phi>
is solved exactly through the Bethe ansatz (expectation values evolve under
the same generator).  In the z-variables z = 1 - u^{-2} the Bethe equations read

    z_k^{-M} (1 - z_k)^N = (-1)^(N-1) prod_j (1 - z_j),

every solution set has energy H(z) = -N + sum_j 1/z_j, and the Green
function is a sum over solution sets of Grothendieck-polynomial weights,

    G_t(x'|x) = sum_z  G_mu(z;-1) Gbar_lam(1/z;-1)
                / [ sum_gamma G_gamma(z;-1) Gbar_gamma(1/z;-1) ]  e^{H(z) t}.

On a Bethe solution the denominator, which is the Cauchy-identity
determinant at y = 1/z, equals 1/w(z) for the closed-form orthogonality
weight ``identities.orthogonality_weight``; that product is used, so no
removable pole at z_j y_k = 1 has to be resolved.  The stationary solution
(all roots at 1) contributes the analytic 1/binomial(M,N).  ``bethe_solve``
returns these data as a ``Spectrum``, which every quantity below (Green function
and table, sum rule, expectations) takes, or None to solve; each is one
``Spectrum.contract`` over one row per conjugate pair of solution sets, which
pair up at real beta, where the Bethe equations have real coefficients.
``Spectrum`` says which stacked algorithm evaluates which of its vectors; the
scalar ``form_factor_sum`` is the form factors' exact lane and oracle.

The solver continues in beta from the free-fermion point beta = 0, where
the equations decouple into z^M = (-1)^(N-1) and every N-subset of those M
roots is a solution set (Hao, Nepomechie & Sommese, Phys. Rev. E 88 (2013)
052113, test Bethe-equation completeness the same way).  Each subset is
tracked along beta(s) = s beta + ``GAMMA`` s (1-s) from s = 0 to s = 1; the
complex ``GAMMA`` keeps the paths apart for real beta (the gamma trick of
Sommese & Wampler, The Numerical Solution of Systems of Polynomials, 2005).
All paths advance together, each with its own step (``_track``), and Newton
finishes those that reached s = 1 (``_newton_polish``); every residual and
Jacobian comes from ``_newton_kernel``, whose Jacobian, diagonal plus rank
one, Sherman-Morrison solves in O(N) per set.  ``choice_id`` is the subset,
as indices into the beta = 0 roots in ``_canonical`` order.  ``beta``
generalizes the equations to (1+beta z_k)^N = (-1)^(N-1) z_k^M prod(1+beta z_j),
as the orthogonality relation needs; one rule, ``_tasep_point``, tells the
TASEP point beta = -1, where the stationary set is inserted analytically and
form factors exist.  All 66 sectors with binomial(M,N) <= 924 are complete at
beta in {-1, -1/2}.  Below beta = -1 paths can still end on one another's set:
most such sectors raise, but (6,2) and (6,4) at beta = -2 return one singular
set twice, 1.1e-8 apart.  Sizes (N in 1..M-1; a numpy int is an int, a bool
is not), numbers (a finite beta, t >= 0) and sectors past the binomial(12,6)
cap are refused up front (``partitions._require_int``, ``_require_finite``).

One matcher, ``_close_rows``, tells whether two root sets are the same: the
row pairs of a and b within a tolerance root by root.  It sorts b by Re of
root 0, takes each row's candidates in a window twice the largest tolerance
wide by ``searchsorted``, and cuts them down root by root.  Twins
(``_first_kept_twins``) are endpoints within ``DEDUP_TOL``, each pair of rows
once; conjugate partners (``_conjugate_partners``) hold each other's
canonical conjugate within ``CONJUGATE_TOL`` relative, the pairing mutual.

One verdict per tracked path says why it gives no solution set, or None: the
first of a stall (its step below ``STEP_MIN`` before s = 1), a residual above
``RESIDUAL_TOL``, coincident roots, and a twin among the paths still kept.
The sets are the paths whose verdict is None; a sector that gives fewer or
more than binomial(M,N) sets raises a completeness failure that lists every
other verdict (and the inserted stationary set), so the two cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import combinations
from math import comb

import numpy as np

from .confluent import sign_pairs
from .identities import _sum_columns, grothendieck_sum_det, orthogonality_weight
from .partitions import (ParticleConfiguration, Partition, _require_finite, _require_int,
                         box_rank, config_to_partition)
from .ratfunc import taylor
from .sector import hamiltonian, sector_basis
from .symfunc import (_gaps, _pair_indices, _parts, bialternants, box_plan, grothendieck_box,
                      stacked_ratio)
from .vertex import ModelParameters

__all__ = [
    "BetheSolution",
    "GreenQuery",
    "SectorState",
    "Spectrum",
    "bethe_solve",
    "green_function",
    "sum_rule_check",
    "expectation",
    "form_factor_sum",
    "master_oracle",
    "sector_generator",
    "density_terms",
    "current_terms",
    "expectation_via_form_factors",
]

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-9
# the largest |conj(z_s) - z_t| / |z_t|, root by root in canonical order, at
# which Spectrum takes set t as the conjugate of set s (measured worst over the
# solver's domain at beta in {-1, -1/2}: 5.4e-16)
CONJUGATE_TOL = 1e-14
# the paths, beta(s) = s beta + GAMMA s (1-s), and their step rule: an
# accepted step grows by 3/2 up to STEP_MAX, a rejected one halves, and a path
# whose step falls below STEP_MIN has stalled
GAMMA = 0.7 + 0.3j
STEP_MAX = 0.2
STEP_MIN = 1e-8
CORRECTOR_STEPS = 6
# relative to 1 + max|z^M Y|: with an absolute test paths with N >= 8 stall
# near s = 0.9, where |z^M Y| ~ 1e5
CORRECTOR_TOL = 1e-10


@dataclass(frozen=True)
class BetheSolution:
    """One solution set of the Bethe equations in the z-variables."""

    roots: tuple
    Y: complex
    energy: complex
    residuals: tuple
    choice_id: tuple
    stationary: bool = False

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


@dataclass(frozen=True)
class GreenQuery:
    """Transition probability query: initial and final configurations, time t."""

    initial: ParticleConfiguration
    final: ParticleConfiguration
    t: float

    def __post_init__(self):
        if self.initial.ring_size != self.final.ring_size \
                or len(self.initial) != len(self.final):
            raise ValueError("initial and final configurations must share M and N")
        _require_finite("t", self.t, 0)


@dataclass
class SectorState:
    """Dense amplitude vector over the N-particle configuration basis."""

    amplitudes: np.ndarray
    M: int
    n: int
    basis: tuple = field(init=False)

    def __post_init__(self):
        self.basis = sector_basis(self.M, self.n)

    def __getitem__(self, config):
        pos = config.positions if isinstance(config, ParticleConfiguration) else tuple(config)
        return self.amplitudes[self.basis.index(pos)]


def _canonical(z):
    """Each row of z sorted by (real, imaginary) part rounded to 10 decimals, ties kept in order."""
    order = np.lexsort((np.round(z.imag, 10), np.round(z.real, 10)), axis=-1)
    return np.take_along_axis(z, order, axis=-1)


def _conjugate_partners(z, beta):
    """Each row's conjugate partner among the canonical root sets z (as the module
    docstring says), else the row itself.  Only real beta pairs rows."""
    rows = np.arange(len(z))
    if complex(beta).imag != 0:
        return rows
    zc = _canonical(z.conj())
    partner = rows.copy()
    s, t = _close_rows(zc, z, CONJUGATE_TOL * _abs(zc))
    partner[s] = t
    return np.where(partner[partner] == rows, partner, rows)


def _close_rows(a, b, tol):
    """The row pairs (i, k), as two index arrays, with |a_ij - b_kj| <= tol_ij at every root j,
    tol a scalar or one value per entry of a; b None matches a against itself, each pair once."""
    own = b is None
    b = a if own else b
    tol = np.broadcast_to(tol, a.shape)
    order = np.argsort(b[:, 0].real, kind="stable")
    re, width = b[order, 0].real, 2 * tol.max(initial=0)
    i = order if own else np.arange(len(a))  # own: sorted, each row with those after it
    key = a[i, 0].real
    starts = np.arange(1, len(a) + 1) if own else np.searchsorted(re, key - width)
    counts = np.searchsorted(re, key + width, side="right") - starts
    i = np.repeat(i, counts)
    k = order[np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(len(i))]
    for j in range(a.shape[1]):
        close = _abs(a[i, j] - b[k, j]) <= tol[i, j]
        i, k = i[close], k[close]
    return i, k


@cache
def _free_roots(M, N):
    """The beta = 0 roots, z^M = (-1)^(N-1), in canonical order; built once per (M, N),
    read-only."""
    roots = _canonical(np.exp(1j * np.pi * (2 * np.arange(M) + (N - 1) % 2) / M))
    roots.flags.writeable = False
    return roots


@cache
def _subsets(M, N):
    """Every N-subset of range(M) in ``combinations`` order, as tuples and as an index
    array; built once per (M, N), the array read-only."""
    subsets = tuple(combinations(range(M), N))
    index = np.array(subsets).reshape(len(subsets), N)
    index.flags.writeable = False
    return subsets, index


def _free_point(beta) -> bool:
    """Whether ``beta`` is the free-fermion point beta = 0, where nothing is tracked."""
    return abs(beta) < 1e-15


def _tasep_point(beta) -> bool:
    """Whether ``beta`` is the TASEP point beta = -1: a stationary set, and form factors."""
    return abs(beta + 1) < 1e-15


def _abs(z):
    """|z| elementwise, bit for bit the scalar ``abs`` (``np.abs`` can differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def _newton_kernel(z, M, N, beta):
    """F, (-1)^(N-1) z^M Y and the Jacobian of each column of z (N, S).

    F_k = (1+beta z_k)^N - (-1)^(N-1) z_k^M Y with Y = prod_j (1+beta z_j);
    ``beta`` is a scalar or one value per column, (S,).  The Jacobian
    J = dF/dz is diagonal plus rank one, J = diag(a) - u c^T, with

        a_k = P_Y'(z_k) = N beta (1+beta z_k)^(N-1) - (-1)^(N-1) M z_k^(M-1) Y,
        u_k = (-1)^(N-1) z_k^M,   c_l = beta prod_{j != l} (1+beta z_j),

    so Sherman-Morrison solves it in O(N) per set (``_jacobian_solve``), with
    the denominator g'(Y) = 1 - sum_l c_l u_l / a_l of the Y-reduction.  The
    Newton step J^-1 F and the tangent J^-1 dF/dbeta (``_tangent``) are
    formed from the returned Jacobian only where a caller needs them.  The
    products over j != l come from prefix and suffix products, without
    division.  A singular set (some a_k = 0, or g'(Y) = 0) solves to
    non-finite values.  The sets are columns, held in C order, so that every
    operation runs along S.  The sums over k add the rows in order
    (``_row_sum``), so a set's result is bit for bit the same alone as in a
    batch.
    """
    z = np.ascontiguousarray(z)
    sgn = (-1) ** (N - 1)
    pf = 1 + beta * z
    # the products of the first k and of the last k factors, k = 0..N-1, in order
    products = np.empty((2,) + pf.shape, dtype=complex)
    products[:, 0] = 1
    np.multiply.accumulate(pf[:-1], axis=0, out=products[0, 1:])
    np.multiply.accumulate(pf[:0:-1], axis=0, out=products[1, 1:])
    cofactor = products[0] * products[1, ::-1]
    # not the accumulate's last product: numpy's binary product can round differently
    Y = products[0, -1] * pf[-1]
    pf_n1, z_m1 = pf ** (N - 1), z ** (M - 1)
    u = sgn * z_m1 * z
    zMY = u * Y
    a = N * beta * pf_n1 - sgn * M * z_m1 * Y
    c = beta * cofactor
    ua = u / a
    # what Sherman-Morrison takes, then what dF/dbeta takes
    jacobian = (a, c, ua, 1 - _row_sum(c * ua), (z, N, pf_n1, u, cofactor))
    return pf_n1 * pf - zMY, zMY, jacobian


def _jacobian_solve(jacobian, rhs):
    """J^-1 rhs for each column, by Sherman-Morrison on ``_newton_kernel``'s Jacobian."""
    a, c, ua, g_prime, _ = jacobian
    ra = rhs / a
    return ra + ua * (_row_sum(c * ra) / g_prime)


def _tangent(jacobian):
    """J^-1 dF/dbeta for each column, with dF_k/dbeta = N z_k (1+beta z_k)^(N-1)
    - u_k sum_l z_l prod_{j != l} (1+beta z_j)."""
    z, N, pf_n1, u, cofactor = jacobian[4]
    return _jacobian_solve(jacobian, N * z * pf_n1 - u * _row_sum(z * cofactor))


def _row_sum(x):
    """The rows of x (N, S) added in order: ``np.add.reduce`` along axis 0, and a
    Python fold for a single column, which numpy would sum pairwise and round differently."""
    return np.add.reduce(x, axis=0) if x.shape[1] > 1 else reduce(np.add, x)


def _newton_polish(z, M, N, beta):
    """Newton on the Bethe equations for each row of z (S, N), one kernel call per step.

    A row stops once its own max|f| < 1e-15, when its Jacobian is singular,
    once the step it has just taken is within a few ulps of its roots,
    max|step| <= 4 eps max|z|, or after 40 steps.  No tangent is formed.
    """
    z = np.array(z, dtype=complex).T.copy()
    live = np.arange(z.shape[1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(40):
            if not len(live):
                break
            f_val, _, jacobian = _newton_kernel(z[:, live], M, N, beta)
            step = _jacobian_solve(jacobian, f_val)
            keep = ~(np.abs(f_val).max(axis=0) < 1e-15) & np.isfinite(step).all(axis=0)
            live, step = live[keep], step[:, keep]
            z[:, live] -= step
            floor = 4 * np.finfo(float).eps * np.abs(z[:, live]).max(axis=0)
            live = live[~(np.abs(step).max(axis=0) <= floor)]
    return z.T


def _root_residuals(z, M, N, beta):
    """Per-root residuals |z^-M (1+beta z)^N - (-1)^(N-1) Y| and Y = prod(1+beta z), by row."""
    pf = 1 + beta * z
    Y = np.prod(pf, axis=1)
    return np.abs(z ** (-M) * pf ** N - (-1) ** (N - 1) * Y[:, None]), Y


def _stationary_choice(start, N):
    """Indices of the N roots of ``start`` nearest 1.

    At beta = -1 this is the subset whose path ends on the stationary set, the
    ground-state choice of Golinelli & Mallick (J. Stat. Mech. (2004) P12001).
    """
    return tuple(sorted(np.argsort(_abs(start - 1), kind="stable")[:N].tolist()))


def _path(s, beta):
    """beta(s) = s beta + GAMMA s (1-s) and its derivative in s."""
    return s * beta + GAMMA * s * (1 - s), beta + GAMMA * (1 - 2 * s)


def _hermite(z0, dz0, s0, z1, dz1, s1, s):
    """The cubic through (s0, z0) and (s1, z1) with slopes dz0 and dz1, at s; by column.

    Written about the newer point s1: z1 + x dz1 + x^2 (3 e1 - e2) + x^3 (e2 - 2 e1)/d,
    with x = s - s1, d = s0 - s1, e1 = (z0 - z1 - d dz1)/d^2 and e2 = (dz0 - dz1)/d.
    Columns whose s0 is NaN (no earlier point yet) take the Euler step z1 + x dz1.
    """
    x, d = s - s1, s0 - s1
    e1 = (z0 - z1 - d * dz1) / d ** 2
    e2 = (dz0 - dz1) / d
    bend = x ** 2 * (3 * e1 - e2 + x * (e2 - 2 * e1) / d)
    return z1 + x * dz1 + np.where(np.isnan(d), 0, bend)


def _track(z, M, N, beta):
    """Track each row of z (S, N), a solution set at beta = 0, along beta(s) to s = 1.

    The corrector runs on every path of a step at once, with a mask of the
    paths whose point is accepted: those stop moving, so the last evaluation
    holds each path at the point it took, and the tangent dz/ds is formed
    there, once per step.  The predictor is the cubic Hermite through a
    path's last two accepted points, Euler on its first step.  Returns the
    rows at their last accepted s, and that s: 1 unless the path stalled, its
    step halved below ``STEP_MIN``.
    """
    z = np.array(z, dtype=complex).T.copy()  # a column per path, as the kernel takes them
    ends, reached = z.copy(), np.zeros(z.shape[1])
    paths = np.arange(z.shape[1])  # the path of each column still tracked
    s, h = np.zeros(len(paths)), np.full(len(paths), STEP_MAX)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b, db = _path(s, beta)
        dz = -_tangent(_newton_kernel(z, M, N, b)[2]) * db
        # the previous accepted point of each path, with its tangent
        z0, dz0, s0 = z, dz, np.full(len(paths), np.nan)
        while len(paths):
            s_new = np.minimum(s + h, 1.0)
            zc = _hermite(z0, dz0, s0, z, dz, s, s_new)
            b_new, db_new = _path(s_new, beta)
            for k in range(CORRECTOR_STEPS + 1):
                f, zMY, jacobian = _newton_kernel(zc, M, N, b_new)
                ok = np.abs(f).max(axis=0) <= CORRECTOR_TOL * (1 + np.abs(zMY).max(axis=0))
                if k == CORRECTOR_STEPS or ok.all():
                    break
                np.subtract(zc, _jacobian_solve(jacobian, f), out=zc, where=~ok)
            dzc = -_tangent(jacobian) * db_new
            z0, dz0, s0 = np.where(ok, z, z0), np.where(ok, dz, dz0), np.where(ok, s, s0)
            z, dz, s = np.where(ok, zc, z), np.where(ok, dzc, dz), np.where(ok, s_new, s)
            h = np.where(ok, np.minimum(1.5 * h, STEP_MAX), h / 2)
            going = (s < 1) & (h >= STEP_MIN)
            if not going.all():
                ends[:, paths[~going]], reached[paths[~going]] = z[:, ~going], s[~going]
                paths, s, s0, h = paths[going], s[going], s0[going], h[going]
                z, dz, z0, dz0 = z[:, going], dz[:, going], z0[:, going], dz0[:, going]
    return ends.T, reached


def _first_kept_twins(z, rows):
    """{row: its first kept twin} over ``rows`` (ascending) of the canonical root sets z.

    Taken in order, a row is kept unless an earlier kept row is its twin, one
    within ``DEDUP_TOL`` of it root by root; a rejected row names the first.
    The twin pairs come from ``_close_rows``, taken by their later row.
    """
    x, y = (rows[side] for side in _close_rows(z[rows], None, DEDUP_TOL))
    twin_of = {}
    for r, twin in sorted(zip(np.maximum(x, y).tolist(), np.minimum(x, y).tolist())):
        if r not in twin_of and twin not in twin_of:
            twin_of[r] = twin
    return twin_of


def bethe_solve(M: int, N: int, beta=-1.0) -> Spectrum:
    """All binomial(M,N) solution sets of the z-form Bethe equations, as their ``Spectrum``.

    Every N-subset of the beta = 0 roots is tracked to ``beta`` and polished
    by Newton, and gives a set unless its verdict names why not.  At beta = -1
    the subset whose path ends on the stationary set (the N beta = 0 roots
    nearest 1) is not tracked, as Newton would accept its endpoint cluster as
    a surplus set.
    """
    M, N = _require_int("M", M, 2), _require_int("N", N, 1, M - 1)  # N = M: the frozen ring
    _require_finite("beta", beta)
    requested, beta = beta, complex(beta)  # the Spectrum keeps the beta asked for
    expected = comb(M, N)
    if expected > comb(12, 6):
        raise ValueError(
            f"{expected} root-choice subsets exceed the desk-scale cap of {comb(12, 6)}")
    subsets, index = _subsets(M, N)
    start = _free_roots(M, N)
    if _free_point(beta):
        # all N-subsets solve the equations with Y = 1
        z = start[index]
        res = _root_residuals(z, M, N, beta)[0]
        return Spectrum([BetheSolution(tuple(row), 1.0 + 0j, None, tuple(r), subset)
                         for row, r, subset in zip(z, res, subsets)], M, N, requested)
    tasep_point = _tasep_point(beta)
    stationary = _stationary_choice(start, N) if tasep_point else None
    tracked = subsets
    if stationary in subsets:  # inserted, not tracked
        skip = subsets.index(stationary)
        tracked, index = subsets[:skip] + subsets[skip + 1:], np.delete(index, skip, axis=0)
    z, reached = _track(start[index], M, N, beta)
    z[reached == 1] = _newton_polish(z[reached == 1], M, N, beta)
    # every test, on all endpoints at once
    z = _canonical(z)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        res, Y = _root_residuals(z, M, N, beta)
        # -N + alpha sum_j 1/z_j, summed column by column as the scalar sum
        alpha = -1 / beta
        energy = -N + alpha * sum(1 / z.T)
    j, k = _pair_indices(N)
    coincident = np.any(_abs(z[:, j] - z[:, k]) <= DEDUP_TOL, axis=1)
    # one verdict per path: why it gives no solution set, None when it gives one
    why = [f"stalled (step below {STEP_MIN:g}) at s = {s:.6g}" if s < 1
           else f"residual {w:.3g} above {RESIDUAL_TOL:g} at s = 1" if not w <= RESIDUAL_TOL
           else "coincident roots at s = 1" if c else None
           for s, w, c in zip(reached.tolist(), res.max(axis=1).tolist(), coincident.tolist())]
    for r, twin in _first_kept_twins(z, np.flatnonzero([x is None for x in why])).items():
        why[r] = f"same solution set as choice {tracked[twin]} at s = 1"
    found = np.flatnonzero([x is None for x in why])
    solutions = [BetheSolution(roots, y, e, residuals, tracked[r])
                 for r, roots, y, e, residuals in zip(
                     found.tolist(), map(tuple, z[found]), Y[found].tolist(),
                     energy[found].tolist(), map(tuple, res[found]))]
    if tasep_point:
        solutions.append(BetheSolution((1.0 + 0j,) * N, 0j, 0j, (0.0,) * N,
                                       None, stationary=True))
    if len(solutions) != expected:
        rejected = [(subset, reason) for subset, reason in zip(tracked, why) if reason is not None]
        if tasep_point:
            rejected.append((stationary,
                             "the stationary set (all roots at 1), inserted analytically"))
        raise RuntimeError("\n".join(
            [f"completeness failure: {len(solutions)} of {expected} solution sets found; "
             f"choices without a new solution set:"]
            + [f"  {subset}: {reason}" for subset, reason in sorted(rejected)]))
    return Spectrum(solutions, M, N, requested)


class Spectrum:
    """The Bethe solution sets of (M, N) at ``beta``, in solve order, and their spectral data.

    ``solutions`` and ``len`` cover every set, the spectral data one row per
    conjugate pair (``_conjugate_partners``, none at complex beta): the sets
    without a partner first, then the first set of each pair.  Over the rows
    it holds the roots z_s, energies E_s and orthogonality weights
    w_s = 1 / sum_gamma G_gamma(z_s) Gbar_gamma(1/z_s), plus the stationary
    weight 1/binomial(M,N) (0 when there is no stationary set).  Every TASEP
    quantity is a contraction

        a0 * stationary + contract(a e^{E t}, right(lam)),

    where a is a left vector (G_mu(z_s), or a real combination of them) and
    a0 its value at the stationary point, where every G_mu is 1; with real
    coefficients, each takes conjugate values on a pair's two sets.

    The request picks the algorithm.  ``left(mu)`` and each window length of
    ``form_factors`` take one ``symfunc.stacked_ratio`` over the rows; ``box_vectors``,
    every partition, takes the branching rule's passes, in ``np.clongdouble``
    (``symfunc.grothendieck_box``).  right(lam) is w_s c_s left(lam^c) with c_s =
    prod_j z_sj^(N-M) (1 + beta z_sj)^(1-N) (``symfunc``'s complement duality).  The
    Spectrum refuses coincident roots, the pole of c_s (N >= 2), a sector off
    1 <= N <= M - 1 and a list that is not binomial(M,N) sets of N roots.
    """

    def __init__(self, solutions, M: int, N: int, beta=-1.0):
        M, N = _require_int("M", M, 2), _require_int("N", N, 1, M - 1)
        solutions = tuple(solutions)
        if len(solutions) != comb(M, N):
            raise RuntimeError(
                f"incomplete Bethe solution set: {len(solutions)} of {comb(M, N)}")
        for s in solutions:
            if len(s.roots) != N:
                raise ValueError(f"solution sets must hold N = {N} roots, found {len(s.roots)}")
        proper = [s for s in solutions if not s.stationary]
        self.solutions, self.M, self.N, self.beta = solutions, M, N, beta
        self.stationary = (len(solutions) - len(proper)) / comb(M, N)
        z = np.array([s.roots for s in proper], dtype=complex).reshape(-1, N)
        partner, sets = _conjugate_partners(z, beta), np.arange(len(z))
        rows = np.concatenate([np.flatnonzero(partner == sets), np.flatnonzero(partner > sets)])
        self._pairs = int(np.sum(partner == sets))  # the first row that stands for a pair
        self.roots = z[rows]
        # energies are undefined at beta = 0, where only left/right are used
        self.energies = np.array([np.nan if s.energy is None else s.energy for s in proper],
                                 dtype=complex)[rows]
        _gaps(self.roots)
        if N > 1 and np.any(1 + beta * self.roots == 0):
            raise ZeroDivisionError("vanishing (1 + beta/z) with negative exponent")

    def __len__(self):
        return len(self.solutions)

    def __getitem__(self, index):  # iteration runs through it too
        return self.solutions[index]

    @cached_property
    def weights(self) -> np.ndarray:
        """w_s over the rows, on first use: a pole refuses contractions, not the solve."""
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = orthogonality_weight(list(self.roots.T), self.beta, self.M, self.N)
        if not np.all(np.isfinite(weights)):
            raise ZeroDivisionError("orthogonality weight has a pole at a Bethe root")
        return weights

    def contract(self, a, b):
        """sum over the non-stationary sets s of a_s b_s, the last axes (the rows) contracted.

        An unpaired row counts once, a pair's row 2 Re(a_s b_s): ``a`` and ``b``
        must take conjugate values on a pair.  The imaginary part is the unpaired rows'.
        """
        p = self._pairs
        return np.inner(a[..., :p], b[..., :p]) + 2 * np.inner(a[..., p:], b[..., p:]).real

    def left(self, mu) -> np.ndarray:
        """G_mu(z_s; beta) over the rows."""
        return bialternants(self.roots, self.beta, mu)

    def right(self, lam) -> np.ndarray:
        """w_s Gbar_lam(1/z_s; beta) = w_s c_s G_lam^c(z_s; beta) over the rows, lam in the box."""
        m = self.M - self.N
        parts = Partition(_parts(lam, self.N), (m, self.N)).parts  # refuses a lam off the box
        return self._dual_scale * self.left(tuple(m - p for p in reversed(parts)))

    @cached_property
    def _dual_scale(self):
        """w_s c_s over the rows, c_s formed in ``np.clongdouble`` and rounded once."""
        z = self.roots.astype(np.clongdouble)
        c = np.prod(z ** (self.M - self.N) * (1 + self.beta * z) ** (self.N - 1), axis=1)
        return (self.weights / c).astype(complex)

    def box_vectors(self):
        """left and right for every partition of the box, stacked in ``enumerate_box`` order.

        Built on the first call and kept: later calls return the same read-only arrays.
        """
        return self._box

    @cached_property
    def _box(self):
        plan = box_plan(self.M - self.N, self.N)
        left = grothendieck_box(self.roots, self.beta, plan)
        box = left, self._dual_scale * left[plan[2]]
        for v in box:
            v.flags.writeable = False
        return box

    def basis_order(self) -> np.ndarray:
        """The ``box_vectors`` row of each configuration, in ``sector_basis`` order; built once."""
        return self._order

    @cached_property
    def _order(self):
        return _basis_order(self.M, self.N)

    def form_factors(self, terms):
        """(a, a0) of the window observable sum coef * s_l ... s_{l+n-1}, for ``evolve``.

        a_s is the form-factor sum at z_s; a0 its value at the stationary
        point, sum coef * binomial(M-n, N).  Neither depends on t.  Per
        distinct window length n, the columns of grothendieck_sum_det(M-n, N, z, -1)
        are evaluated on every row at once and taken through one stacked
        determinant, divided by the Vandermonde; each term multiplies it by
        prod_j z_j^(l+n-1) of its own set.  The windows are TASEP observables,
        so a Spectrum off ``_tasep_point`` is refused, and so is a non-real coef.
        """
        if not _tasep_point(self.beta):
            raise ValueError(f"form factors need the TASEP point beta = -1, "
                             f"not this Spectrum's beta = {self.beta}")
        terms = [(coef, *_window(l, n, self.M)) for coef, l, n in terms]
        for coef, _, _ in terms:
            if complex(coef).imag != 0:
                raise ValueError(f"form-factor coefficients must be real, got coef = {coef!r}")
        z, N = self.roots, self.N
        dets = {}
        for n in {n for _, _, n in terms}:
            values = taylor(_sum_columns(self.M - n, N, -1), z)[0]  # column k at z_sj
            dets[n] = sign_pairs(N) * stacked_ratio(np.stack(values, axis=-1), z)
        a = np.zeros(len(z), dtype=complex)
        for coef, l, n in terms:
            a += complex(coef) * (np.prod(z ** (l + n - 1), axis=1) * dets[n])
        return a, sum(coef * comb(self.M - n, N) for coef, _, n in terms)

    def evolve(self, a, a0, right, t):
        """Real part of a0 * stationary + contract(a e^{E t}, right), for finite t >= 0.

        ``right`` is ``right(lam)`` of the initial configuration's partition,
        or the right box vectors for a table; ``a`` a real combination of left
        vectors, so that a pair's two sets take conjugate values (``contract``).  E t may
        overflow, where e^{E t} is 0 (Re E < 0); a total that is not finite is refused.
        """
        _require_finite("t", t, 0)
        with np.errstate(over="ignore"):
            decay = np.exp(self.energies * t)
        total = a0 * self.stationary + self.contract(a * decay, right)
        if not np.isfinite(total).all():
            raise RuntimeError("spectral sum is not finite")
        if (imag := np.max(np.abs(total.imag))) > 1e-7:
            raise RuntimeError(f"spectral sum came out non-real: imaginary part up to {imag:.3g}")
        return total.real if total.ndim else float(total.real)


def _basis_order(M: int, N: int) -> np.ndarray:
    """The ``enumerate_box`` row of each configuration of (M, N), in ``sector_basis`` order:
    the ``box_rank`` of its partition lam_j = x_(N-j+1) - N + j - 1."""
    x = np.array(list(combinations(range(1, M + 1), N)), dtype=int).reshape(comb(M, N), N)
    return box_rank(x[:, ::-1] + np.arange(N) - N, M - N)


def _spectrum(solutions, M, N, beta=-1.0) -> Spectrum:
    """``solutions`` if it is a Spectrum of (M, N, beta), beta compared by value; None solves."""
    M, N = _require_int("M", M, 2), _require_int("N", N, 1, M - 1)
    if solutions is None:
        return bethe_solve(M, N, beta)
    if not isinstance(solutions, Spectrum):
        raise ValueError(f"spectral data must be bethe_solve's result or Spectrum(list, M, N, "
                         f"beta), got a {type(solutions).__name__}")
    have = (solutions.M, solutions.N, solutions.beta)
    if have[:2] != (M, N) or complex(have[2]) != complex(beta):
        raise ValueError(f"the Spectrum of (M, N, beta) = {have} cannot serve "
                         f"(M, N, beta) = {(M, N, beta)}")
    return solutions


def green_function(query: GreenQuery, solutions=None) -> float:
    """Transition probability G_t(x'|x) through the Grothendieck form."""
    M = query.initial.ring_size
    N = len(query.initial)
    spec = _spectrum(solutions, M, N)
    mu = config_to_partition(query.final)
    return spec.evolve(spec.left(mu), 1, spec.right(config_to_partition(query.initial)),
                       query.t)


def green_function_table(M: int, N: int, t: float, solutions=None) -> np.ndarray:
    """Matrix of G_t(x'|x) over the configuration basis (rows x', columns x).

    ``Spectrum.evolve`` on the two box matrices, contracted for all pairs at
    once; used for all-pairs sweeps against the master-equation oracle.
    """
    _require_finite("t", t, 0)
    spec = _spectrum(solutions, M, N)
    left, right = (v[spec.basis_order()] for v in spec.box_vectors())
    return spec.evolve(left, 1, right, t)


def sum_rule_check(x: ParticleConfiguration, t: float, solutions=None) -> float:
    """sum over final configurations of G_t(x'|x); expected 1."""
    # the empty window (l, n) = (1, 0) is the observable A = 1
    return expectation_via_form_factors([(1, 1, 0)], x, t, solutions)


def expectation(observable, x: ParticleConfiguration, t: float, solutions=None):
    """<S_N| A e^{Ht} |x> for an observable given on the configuration basis.

    ``observable`` is a real matrix over the sector basis (rows = bra, columns
    = ket, both in ``sector_basis`` order), as ``Spectrum.contract`` needs.  Its
    column sums, contracted with the kept box vectors G_mu(z_s), give the left vector.
    """
    M, N = x.ring_size, len(x)
    a_mat = np.asarray(observable, dtype=complex)
    dim = comb(M, N)
    if a_mat.shape != (dim, dim):
        raise ValueError(f"observable must be {dim} x {dim} on the configuration basis")
    if np.any(a_mat.imag):
        raise ValueError("observable must be real, got a nonzero imaginary part")
    spec = _spectrum(solutions, M, N)
    a = a_mat.real.sum(axis=0) @ spec.box_vectors()[0][spec.basis_order()]
    return spec.evolve(a, a_mat.real.sum(), spec.right(config_to_partition(x)), t)


def _window(l, n, M):
    """(l, n) as ints, refused by name unless the window s_l ... s_(l+n-1) has -l+1 <= n <= M."""
    l = _require_int("l", l)
    return l, _require_int("n", n, 1 - l, M)


def form_factor_sum(l: int, n: int, z, M: int):
    """Double Grothendieck sum for the window observable A = s_l ... s_{l+n-1}.

    Equals sum_{nu,mu} A_mu^nu G_mu(z;-1) for arbitrary complex z (windows
    that wrap around the ring are only guaranteed on-shell), via

        prod_j z_j^(l+n-1) * grothendieck_sum_det(M-n, N, z, -1),

    the primal summation determinant; coincident z take its confluent limit.
    """
    M = _require_int("M", M)
    l, n = _window(l, n, M)
    z = list(z)
    pref = 1
    for zj in z:
        pref = pref * zj ** (l + n - 1)
    return pref * grothendieck_sum_det(M - n, len(z), z, -1)


def density_terms(i: int):
    """A = n_i = 1 - s_i as signed window terms (coef, l, n)."""
    i = _require_int("i", i)
    return [(1, 1, 0), (-1, i, 1)]


def current_terms(i: int):
    """A = j_i = (1 - s_i) s_{i+1} as signed window terms (coef, l, n)."""
    i = _require_int("i", i)
    return [(1, i + 1, 1), (-1, i, 2)]


def expectation_via_form_factors(terms, x: ParticleConfiguration, t: float, solutions=None):
    """<A>_t with the numerator evaluated through the form-factor determinants."""
    spec = _spectrum(solutions, x.ring_size, len(x))
    return spec.evolve(*spec.form_factors(terms), spec.right(config_to_partition(x)), t)


def sector_generator(M: int, N: int) -> np.ndarray:
    """The TASEP generator (alpha = 1 Hamiltonian) as a float matrix.

    Its entries are ints, so every column sums to exactly zero: each hop out of a
    configuration is one unit of its diagonal.
    """
    return np.array(hamiltonian(ModelParameters(alpha=1, M=M), _require_int("N", N)).data,
                    dtype=float)


def master_oracle(x: ParticleConfiguration, t: float) -> SectorState:
    """e^{Ht}|x>: column x of scipy's scaling-and-squaring ``expm`` of the dense generator.

    Requires M <= 12 and a finite t >= 0.
    """
    M, N = x.ring_size, len(x)
    _require_int("M", M, hi=12)  # the dense generator's expm
    _require_finite("t", t, 0)
    from scipy.linalg import expm  # slow to import, so kept out of the CLI start-up
    column = sector_basis(M, N).index(x.positions)
    return SectorState(expm(sector_generator(M, N) * t)[:, column], M, N)

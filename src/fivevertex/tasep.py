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
(all roots at 1) contributes the analytic 1/binomial(M,N).  ``Spectrum``
holds these data for one solution list, and every quantity below (Green
function and table, sum rule, expectations) is a contraction of it.

The solver follows the self-consistency strategy: for a trial value of
Y = prod (1+beta z_j), the single-root equation is a degree-M polynomial
whose companion-matrix roots are computed numerically; each N-subset of
roots follows a damped flow in Y with continuity-tracked root matching
until |Y_new - Y| <= ``Y_TOL`` = 1e-4, Newton on the Bethe equations
finishes from there, and the sets are validated against the per-root
residual target and deduplicated.  All subsets advance together: a damped
step is one stacked ``eigvals`` over the companion matrices of the subsets
still moving and one broadcast nearest-root matching
(``linear_sum_assignment`` only where two roots claim the same new one),
and a Newton step is one stacked solve.  Every floating-point operation is
the one a subset-at-a-time loop would do, so the solution sets are the same
to the bit.  A Newton finish that reaches |Y| < ``Y_ZERO`` has all its
roots at -1/beta and gives no solution set.  At beta = -1 the choice of the
N start roots nearest 1, whose flow collapses onto the stationary set, is
not flowed: that set is inserted analytically.  ``beta`` generalizes the
equations to (1+beta z_k)^N = (-1)^(N-1) z_k^M prod(1+beta z_j), as needed
by the orthogonality relation (beta = -1 is the TASEP point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .identities import grothendieck_sum_det, orthogonality_weight
from .partitions import ParticleConfiguration, config_to_partition, enumerate_box, partition_to_config
from .sector import basis_index, hamiltonian, sector_basis
from .symfunc import BialternantStack
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
# the damped flow stops at |Y_new - Y| <= Y_TOL and Newton finishes.  Each
# decade below costs the flow about three steps, and 1e-13 sat at the
# rounding floor once |Y| ~ 3; at 1e-2 Newton takes a (12,8) choice onto
# coincident roots
Y_TOL = 1e-4
MAX_ITER = 500
# |Y| below which a Newton-finished set has reached Y = 0: all roots at
# -1/beta, not a solution set
Y_ZERO = 1e-11


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


def _check_time(t):
    if not 0 <= t < np.inf:
        raise ValueError(f"time must be finite and nonnegative, got t = {t}")


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
        _check_time(self.t)


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


def _bethe_poly_roots(M, N, beta, Y):
    """Roots of (1 + beta z)^N - (-1)^(N-1) Y_s z^M, one row per entry of Y.

    The companion matrices are built exactly as ``np.roots`` builds them
    (leading coefficient divided out) and stacked into one ``eigvals`` call.
    """
    Y = np.asarray(Y, dtype=complex).reshape(-1)
    c = np.zeros((len(Y), M + 1), dtype=complex)
    for k in range(N + 1):
        c[:, k] += comb(N, k) * beta ** k
    c[:, M] -= (-1) ** (N - 1) * Y
    p = c[:, ::-1]
    companion = np.zeros((len(Y), M, M), dtype=complex)
    companion[:, 1:, :-1] = np.eye(M - 1)
    companion[:, 0, :] = -p[:, 1:] / p[:, :1]
    return np.linalg.eigvals(companion)


def _canonical(roots):
    return tuple(sorted(roots, key=lambda z: (round(z.real, 10), round(z.imag, 10))))


def _abs(z):
    """|z| elementwise, bit for bit the scalar ``abs`` (``np.abs`` can differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def _match(chosen, new_roots):
    """Row s of ``new_roots`` (S, M) reordered to follow row s of ``chosen`` (S, N).

    Each row is the min-sum assignment on |chosen_j - new_k|.  When the
    row-wise nearest roots are distinct they are that assignment; only rows
    where two chosen roots share a nearest root go to ``linear_sum_assignment``.
    """
    cost = _abs(chosen[:, :, None] - new_roots[:, None, :])
    cols = cost.argmin(axis=2)
    ranked = np.sort(cols, axis=1)
    for s in np.flatnonzero(np.any(ranked[:, 1:] == ranked[:, :-1], axis=1)):
        from scipy.optimize import linear_sum_assignment  # rare, and slow to import
        cols[s] = linear_sum_assignment(cost[s])[1]
    return np.take_along_axis(new_roots, cols, axis=1)


def _newton_polish(z, M, N, beta):
    """Newton on the Bethe equations for each row of z (S, N), one stacked solve per step.

    A row stops once its own max|f| < 1e-15, when its Jacobian is singular,
    or after 40 steps.
    """
    z = np.array(z, dtype=complex)
    sgn = (-1) ** (N - 1)
    live = np.arange(len(z))
    diag = np.arange(N)
    for _ in range(40):
        zl = z[live]
        prod_factors = 1 + beta * zl
        Y = np.prod(prod_factors, axis=1)[:, None]
        f_val = prod_factors ** N - sgn * zl ** M * Y
        moving = ~(np.max(np.abs(f_val), axis=1) < 1e-15)
        live, zl, prod_factors, Y, f_val = (v[moving] for v in (live, zl, prod_factors, Y, f_val))
        if not len(live):
            break
        jac = np.zeros((len(live), N, N), dtype=complex)
        jac[:, diag, diag] = N * beta * prod_factors ** (N - 1) - sgn * M * zl ** (M - 1) * Y
        for l in range(N):
            # a C-ordered copy keeps the product in the scalar reduction order
            partial = beta * np.prod(np.delete(prod_factors, l, axis=1), axis=1)[:, None]
            jac[:, :, l] -= sgn * zl ** M * partial
        try:
            z[live] = zl - np.linalg.solve(jac, f_val[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for r in range(len(live)):
                try:
                    z[live[r]] = zl[r] - np.linalg.solve(jac[r], f_val[r])
                except np.linalg.LinAlgError:
                    live[r] = -1
            live = live[live >= 0]
    return z


def _residuals(z, M, N, beta):
    """Per-root residuals of z^-M (1+beta z)^N - (-1)^(N-1) prod(1+beta z)."""
    z = np.asarray(z, dtype=complex)
    Y = np.prod(1 + beta * z)
    return tuple(np.abs(z ** (-M) * (1 + beta * z) ** N - (-1) ** (N - 1) * Y))


def _energy(z, beta):
    """-N + alpha sum 1/z_j with alpha = -1/beta (logarithmic transfer derivative)."""
    alpha = -1 / beta
    return complex(-len(z) + alpha * sum(1 / zj for zj in z))


def _stationary_choice(start, N):
    """Indices of the N roots of ``start`` nearest 1.

    At beta = -1 this is the choice whose flow collapses onto the stationary
    set, the ground-state choice of Golinelli & Mallick (J. Stat. Mech. (2004)
    P12001).
    """
    return tuple(sorted(np.argsort(_abs(start - 1), kind="stable")[:N].tolist()))


def _flow(M, N, beta, start, subsets):
    """Damped self-consistency flow in Y from Y = 1, all subsets advanced together.

    ``start`` holds the roots at Y = 1 in canonical order.  Returns per subset
    whether its flow met ``Y_TOL``, its roots in flow order, and its last
    |Y_new - Y|.
    """
    chosen = start[np.array(subsets)]
    converged = np.zeros(len(subsets), dtype=bool)
    y_cur = np.ones(len(subsets), dtype=complex)
    y_new = np.empty_like(y_cur)
    gap = np.zeros(len(subsets))
    active = np.arange(len(subsets))
    for _ in range(MAX_ITER):
        y_new[active] = np.prod(1 + beta * chosen[active], axis=1)
        gap[active] = _abs(y_new[active] - y_cur[active])
        done = gap[active] <= Y_TOL
        converged[active[done]] = True
        active = active[~done]
        if not len(active):
            break
        y_cur[active] = 0.5 * y_cur[active] + 0.5 * y_new[active]
        chosen[active] = _match(chosen[active], _bethe_poly_roots(M, N, beta, y_cur[active]))
    return converged, chosen, gap


def bethe_solve(M: int, N: int, beta=-1.0):
    """All binomial(M,N) solution sets of the z-form Bethe equations.

    Each subset's damped Y flow stops at |Y_new - Y| <= ``Y_TOL`` = 1e-4 and
    Newton finishes; a set Newton takes to |Y| < ``Y_ZERO`` (all roots at
    -1/beta) is discarded.  For beta = -1 the stationary set (all roots at 1,
    Y = 0) is inserted analytically, and the choice that collapses onto it is
    not flowed: Y = 0 is a neutral fixed point that its flow creeps towards,
    meeting ``Y_TOL`` there, and Newton would accept the cluster as a surplus set.
    Convergence or completeness failures raise, naming every choice that gave
    no new solution set and why; more sets than binomial(M,N) raise an
    over-count naming the surplus choices.
    """
    if not 1 <= N <= M - 1:
        raise ValueError("need 1 <= N <= M-1 (N = M is the frozen ring)")
    beta = complex(beta)
    expected = comb(M, N)
    if expected > comb(12, 6):
        raise ValueError(
            f"{expected} root-choice subsets exceed the desk-scale cap of {comb(12, 6)}")
    subsets = list(combinations(range(M), N))
    start = np.array(_canonical(_bethe_poly_roots(M, N, beta, 1.0)[0]))
    if abs(beta) < 1e-15:
        # roots of 1 + (-1)^N z^M: all N-subsets solve the equations with Y = 1
        sols = []
        for subset in subsets:
            z = tuple(start[list(subset)])
            sols.append(BetheSolution(z, 1.0 + 0j, None, _residuals(z, M, N, beta), subset))
        return sols
    tasep_point = abs(beta + 1) < 1e-15
    stationary = _stationary_choice(start, N) if tasep_point else None
    converged, chosen, gap = _flow(M, N, beta, start, [s for s in subsets if s != stationary])
    chosen[converged] = _newton_polish(chosen[converged], M, N, beta)
    # a flow onto Y = 0 meets Y_TOL short of it, and Newton takes it there
    at_zero = _abs(np.prod(1 + beta * chosen, axis=1)) < Y_ZERO
    flowed = iter(zip(converged, at_zero, chosen, gap))
    solutions = []
    kept = np.empty((len(subsets), N), dtype=complex)  # roots of solutions, row by row
    rejected = []  # (subset, reason) for every choice that gave no new solution set
    failed = 0
    for subset in subsets:
        if subset == stationary:
            rejected.append((subset, "the stationary set (all roots at 1), inserted analytically"))
            continue
        ok, zero, z, dy = next(flowed)
        if not ok:
            failed += 1
            rejected.append((subset, f"no fixed point after {MAX_ITER} iterations, "
                                     f"final |dY| {dy:.3g}"))
            continue
        if zero:
            rejected.append((subset, "flowed to Y = 0 (all roots at -1/beta)"))
            continue
        z = _canonical(z)
        res = _residuals(z, M, N, beta)
        if max(res) > RESIDUAL_TOL:
            failed += 1
            rejected.append((subset, f"residual {max(res):.3g} above {RESIDUAL_TOL:g}"))
            continue
        for j in range(N):
            for k in range(j + 1, N):
                if abs(z[j] - z[k]) <= DEDUP_TOL:
                    raise RuntimeError(
                        f"coincident roots in a non-stationary solution (choice {subset})")
        twins = np.flatnonzero(_abs(kept[:len(solutions)] - z).max(axis=1) <= DEDUP_TOL)
        if len(twins):
            rejected.append((subset, f"same solution set as choice "
                                     f"{solutions[twins[0]].choice_id}"))
            continue
        kept[len(solutions)] = z
        solutions.append(BetheSolution(z, complex(np.prod(1 + beta * np.array(z))),
                                       _energy(z, beta), res, subset))
    if tasep_point:
        solutions.append(BetheSolution((1.0 + 0j,) * N, 0j, 0j, (0.0,) * N,
                                       None, stationary=True))
    if len(solutions) > expected:
        # the only known way: a flow onto the stationary set that Newton
        # accepted, so the surplus are the sets nearest Y = 0
        surplus = sorted((s for s in solutions if not s.stationary),
                         key=lambda s: abs(s.Y))[:len(solutions) - expected]
        raise RuntimeError(
            f"over-count: {len(solutions)} of {expected} solution sets found; surplus choices "
            f"(the sets nearest Y = 0): "
            + ", ".join(f"{s.choice_id} with |Y| {abs(s.Y):.3g}" for s in surplus))
    if len(solutions) != expected:
        found = f"{len(solutions)} of {expected} solution sets found"
        head = (f"fixed-point iteration failed for {failed} of {expected} choices ({found})"
                if failed else f"completeness failure: {found}")
        raise RuntimeError("\n".join([f"{head}; choices without a new solution set:"]
                                     + [f"  {subset}: {why}" for subset, why in rejected]))
    return solutions


class Spectrum:
    """The spectral decomposition of one Bethe solution list, built once.

    Holds, over the non-stationary solution sets s, the roots z_s, energies
    E_s and orthogonality weights w_s = 1 / sum_gamma G_gamma(z_s) Gbar_gamma(1/z_s),
    plus the stationary weight 1/binomial(M,N) (0 when there is no stationary
    set).  Every TASEP quantity is a contraction

        a0 * stationary + sum_s a_s right(lam)_s e^{E_s t},

    where a is a left vector (G_mu(z_s), or a sum of them) and a0 its value
    at the stationary point, where every G_mu is 1.
    """

    def __init__(self, solutions, M: int, N: int, beta=-1.0):
        if len(solutions) != comb(M, N):
            raise RuntimeError(
                f"incomplete Bethe solution set: {len(solutions)} of {comb(M, N)}")
        proper = [s for s in solutions if not s.stationary]
        self.M, self.N = M, N
        self.stationary = (len(solutions) - len(proper)) / comb(M, N)
        self.roots = np.array([s.roots for s in proper], dtype=complex).reshape(-1, N)
        # energies are undefined at beta = 0, where only left/right are used
        self.energies = np.array([np.nan if s.energy is None else s.energy for s in proper],
                                 dtype=complex)
        self.weights = orthogonality_weight(list(self.roots.T), beta, M, N)
        if not np.all(np.isfinite(self.weights)):
            raise ZeroDivisionError("orthogonality weight has a pole at a Bethe root")
        # left(mu) = G_mu(z_s; beta) over the solution axis
        self.left = BialternantStack(self.roots, beta)
        self._dual = BialternantStack(1 / self.roots, beta, dual=True)

    def right(self, lam) -> np.ndarray:
        """w_s Gbar_lam(1/z_s; beta) over the solution axis."""
        return self.weights * self._dual(lam)

    def box_vectors(self):
        """left and right for every partition of the box, stacked in ``enumerate_box`` order."""
        box = list(enumerate_box(self.M - self.N, self.N))
        return np.array([self.left(mu) for mu in box]), np.array([self.right(lam) for lam in box])

    def form_factors(self, terms):
        """(a, a0) of the window observable sum coef * s_l ... s_{l+n-1}, for ``evolve``.

        a_s is the form-factor sum at z_s; a0 its value at the stationary
        point, sum coef * binomial(M-n, N).  Neither depends on t.
        """
        a = np.array([sum(coef * form_factor_sum(l, n, z, self.M) for coef, l, n in terms)
                      for z in self.roots], dtype=complex)
        return a, sum(coef * comb(self.M - n, self.N) for coef, _, n in terms)

    def evolve(self, a, a0, lam, t) -> float:
        """Real part of a0 * stationary + sum_s a_s right(lam)_s e^{E_s t}."""
        total = a0 * self.stationary + a @ (self.right(lam) * np.exp(self.energies * t))
        if abs(total.imag) > 1e-7:
            raise RuntimeError(f"spectral sum came out non-real: {total}")
        return float(total.real)


@lru_cache(maxsize=1, typed=True)
def _cached_spectrum(solutions: tuple, M, N, beta) -> Spectrum:
    return Spectrum(solutions, M, N, beta)


def _spectrum(solutions, M, N, beta=-1.0) -> Spectrum:
    """``solutions`` as a Spectrum: a prebuilt one, a solution list, or None to solve.

    The Spectrum of the last solution list is kept, so callers handed the same
    list again (one orthogonality check per (lam, mu), say) build it once.
    """
    if isinstance(solutions, Spectrum):
        return solutions
    if solutions is None:
        solutions = bethe_solve(M, N, beta)
    return _cached_spectrum(tuple(solutions), M, N, beta)


def green_function(query: GreenQuery, solutions=None) -> float:
    """Transition probability G_t(x'|x) through the Grothendieck form."""
    M = query.initial.ring_size
    N = len(query.initial)
    spec = _spectrum(solutions, M, N)
    mu = config_to_partition(query.final)
    return spec.evolve(spec.left(mu), 1, config_to_partition(query.initial), query.t)


def green_function_table(M: int, N: int, t: float, solutions=None) -> np.ndarray:
    """Matrix of G_t(x'|x) over the configuration basis (rows x', columns x).

    Same spectral data as ``green_function``, contracted for all pairs in one
    matrix product; used for all-pairs sweeps against the master-equation oracle.
    """
    spec = _spectrum(solutions, M, N)
    index = basis_index(M, N)
    order = [index[partition_to_config(lam, M).positions] for lam in enumerate_box(M - N, N)]
    left, right = (v[np.argsort(order)] for v in spec.box_vectors())
    out = spec.stationary + (left * np.exp(spec.energies * t)) @ right.T
    if np.max(np.abs(out.imag)) > 1e-7:
        raise RuntimeError("Green-function table came out non-real")
    return out.real


def sum_rule_check(x: ParticleConfiguration, t: float, solutions=None) -> float:
    """sum over final configurations of G_t(x'|x); expected 1."""
    # the empty window (l, n) = (1, 0) is the observable A = 1
    return expectation_via_form_factors([(1, 1, 0)], x, t, solutions)


def expectation(observable, x: ParticleConfiguration, t: float, solutions=None):
    """<S_N| A e^{Ht} |x> for an observable given on the configuration basis.

    ``observable`` is a matrix over the sector basis (rows = bra, columns =
    ket, both in ``sector_basis`` order).
    """
    M, N = x.ring_size, len(x)
    a_mat = np.asarray(observable, dtype=complex)
    dim = comb(M, N)
    if a_mat.shape != (dim, dim):
        raise ValueError(f"observable must be {dim} x {dim} on the configuration basis")
    spec = _spectrum(solutions, M, N)
    col_sums = a_mat.sum(axis=0)
    index = basis_index(M, N)
    a = sum(col_sums[index[partition_to_config(mu, M).positions]] * spec.left(mu)
            for mu in enumerate_box(M - N, N))
    return spec.evolve(a, a_mat.sum(), config_to_partition(x), t)


def form_factor_sum(l: int, n: int, z, M: int):
    """Double Grothendieck sum for the window observable A = s_l ... s_{l+n-1}.

    Equals sum_{nu,mu} A_mu^nu G_mu(z;-1) for arbitrary complex z (windows
    that wrap around the ring are only guaranteed on-shell), via

        prod_j z_j^(l+n-1) * grothendieck_sum_det(M-n, N, z, -1),

    the primal summation determinant; coincident z take its confluent limit.
    """
    z = list(z)
    if not (-l + 1 <= n <= M):
        raise ValueError("window length must satisfy -l+1 <= n <= M")
    pref = 1
    for zj in z:
        pref = pref * zj ** (l + n - 1)
    return pref * grothendieck_sum_det(M - n, len(z), z, -1)


def density_terms(i: int):
    """A = n_i = 1 - s_i as signed window terms (coef, l, n)."""
    return [(1, 1, 0), (-1, i, 1)]


def current_terms(i: int):
    """A = j_i = (1 - s_i) s_{i+1} as signed window terms (coef, l, n)."""
    return [(1, i + 1, 1), (-1, i, 2)]


def expectation_via_form_factors(terms, x: ParticleConfiguration, t: float, solutions=None):
    """<A>_t with the numerator evaluated through the form-factor determinants."""
    spec = _spectrum(solutions, x.ring_size, len(x))
    return spec.evolve(*spec.form_factors(terms), config_to_partition(x), t)


def sector_generator(M: int, N: int) -> np.ndarray:
    """The TASEP generator (alpha = 1 Hamiltonian) as a float matrix."""
    gen = np.array(hamiltonian(ModelParameters(alpha=1, M=M), N).data, dtype=float)
    col_sums = gen.sum(axis=0)
    if np.max(np.abs(col_sums)) > 1e-12:
        raise AssertionError("generator columns must sum to zero")
    return gen


def master_oracle(x: ParticleConfiguration, t: float) -> SectorState:
    """e^{Ht}|x>: column x of scipy's scaling-and-squaring ``expm`` of the dense generator.

    Requires M <= 12 and a finite t >= 0.
    """
    M, N = x.ring_size, len(x)
    if M > 12:
        raise ValueError("dense oracle limited to M <= 12")
    _check_time(t)
    from scipy.linalg import expm  # slow to import, so kept out of the CLI start-up
    column = sector_basis(M, N).index(x.positions)
    return SectorState(expm(sector_generator(M, N) * t)[:, column], M, N)

"""Schur, Grothendieck and dual Grothendieck polynomials as determinant ratios.

    s_lambda(z)          = det[ z_j^(lam_k+N-k) ] / prod_{j<k}(z_j - z_k)
    G_lambda(z; beta)    = det[ z_j^(lam_k+N-k) (1+beta z_j)^(k-1) ] / prod_{j<k}(z_j - z_k)
    Gbar_lambda(z; beta) = det[ z_j^(lam_k+N-k) (1+beta/z_j)^(1-k) ] / prod_{j<k}(z_j - z_k)

beta = 0 reduces all three to the Schur polynomial.  Each column is one
closed-form term z^a (A + B z)^k (``ratfunc.RatFunc``): at distinct
variables it is evaluated directly, and a variable repeated r times gets the
column's first r Taylor coefficients as rows of the confluent determinant
limit.  This is what makes z -> (1,...,1) limits such as
G_lambda(1^N; -1) = 1 computable directly.

``grothendieck_evals`` is the exact lane for many partitions at one point
set, as the Cauchy and summation sums over a box need: the variables are
checked once (for the dual, a zero variable and a pole z_j + beta = 0), a
column is built once per distinct exponent pair, and one
``confluent.det_ratios`` call shares the point work between the
partitions.  ``grothendieck_eval`` and ``dual_grothendieck_eval`` are its
one-partition case.

``BialternantStack`` is the complex float lane for many points at once.  It
keeps one table of the powers z^e of its (S, N) points, grown on demand, and
``evals`` gathers the bialternant tensors of a list of partitions from it,
(P, S, N, N) a bounded chunk at a time, through stacked LU determinants; a
single partition is its one-partition case.  The scalar evaluators are its
exact-lane oracle.
"""

from __future__ import annotations

import numpy as np

from .confluent import det_ratios, sign_pairs
from .partitions import Partition
from .ratfunc import RatFunc
from .scalars import COINCIDENCE_TOL, is_zero

# the most matrix entries, P * S * N * N, of one stacked determinant in
# ``BialternantStack.evals``: its temporaries stay near 256 kB whatever the box
_CHUNK_ENTRIES = 1 << 14


def _parts(lam, n):
    """The parts of ``lam``, padded with zeros to n; a tuple must be a partition."""
    if isinstance(lam, Partition):
        parts = tuple(lam.parts)
    else:
        parts = tuple(lam)
        if any(p < 0 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"lam must have nonnegative, weakly decreasing parts, got {parts}")
    if len(parts) > n:
        raise ValueError(f"partition has {len(parts)} parts but only {n} variables")
    return parts + (0,) * (n - len(parts))


def schur_eval(lam, z):
    """Schur polynomial s_lambda(z) via the bialternant ratio."""
    return grothendieck_eval(lam, z, 0)


def grothendieck_eval(lam, z, beta):
    """Grothendieck polynomial G_lambda(z; beta)."""
    return grothendieck_evals([lam], z, beta)[0]


def dual_grothendieck_eval(lam, z, beta):
    """Dual Grothendieck polynomial Gbar_lambda(z; beta); needs z_j != 0."""
    return grothendieck_evals([lam], z, beta, dual=True)[0]


def grothendieck_evals(lams, z, beta, dual: bool = False):
    """[G_lambda(z; beta) for lambda in lams], or Gbar_lambda with ``dual``.

    The variables are checked once, and ``confluent.det_ratios`` does the
    point work once for every lambda; a column is shared by every partition
    that has its exponents.
    """
    z = list(z)
    n = len(z)
    parts = [_parts(lam, n) for lam in lams]
    if dual:
        if any(is_zero(zj, 0) for zj in z):
            raise ZeroDivisionError("dual Grothendieck polynomial needs nonzero variables")
        # z^(lam_k+N-k) (1+beta/z)^(1-k) = z^(lam_k+N-1) (z+beta)^(1-k): for N >= 2 the
        # column k = 1 has a pole at z + beta = 0; at N = 1 the point is regular
        if n > 1:
            for j, zj in enumerate(z, 1):
                if is_zero(zj + beta, 0):
                    raise ZeroDivisionError(f"dual Grothendieck pole at z_{j} + beta = 0")
        lin = (beta, 1)
    else:
        lin = (1, beta)
    columns, column_sets = {}, []
    for p in parts:
        cols = []
        for k in range(n):
            key = (p[k] + n - 1, -k) if dual else (p[k] + n - 1 - k, k)
            col = columns.get(key)
            if col is None:
                col = columns[key] = RatFunc([(1, *key)], lin)
            cols.append(col)
        column_sets.append(cols)
    ratios = det_ratios(column_sets, z)
    return ratios if sign_pairs(n) > 0 else [-ratio for ratio in ratios]


class BialternantStack:
    """G_lambda(z_s; beta), or Gbar_lambda with ``dual``, at every row z_s of an (S, N) array.

    The lambda-independent factors (1 + beta z)^k or (1 + beta/z)^-k, the row
    Vandermondes prod_{j<k} (z_j - z_k) and one table of the powers z^e are
    computed once; the table grows when a partition asks for a larger e.
    ``evals`` gives many partitions as stacked complex determinants, a chunk
    of at most ``_CHUNK_ENTRIES`` matrix entries at a time.  There is no
    confluent limit here, so variables of a row that coincide within
    ``COINCIDENCE_TOL`` raise, as do (for the dual) a zero variable or a
    1 + beta/z that is exactly zero.
    """

    def __init__(self, z, beta, dual: bool = False):
        z = np.asarray(z, dtype=complex)
        n = z.shape[1]
        j, k = np.triu_indices(n, 1)
        gaps = z[:, j] - z[:, k]
        if np.any(np.abs(gaps) <= COINCIDENCE_TOL):
            raise ValueError("coincident variables need the confluent scalar evaluators")
        if dual and np.any(z == 0):
            raise ZeroDivisionError("dual Grothendieck polynomial needs nonzero variables")
        base = 1 + beta / z if dual else 1 + beta * z
        if dual and n > 1 and np.any(base == 0):
            raise ZeroDivisionError("vanishing (1 + beta/z) with negative exponent")
        self._factors = base[:, :, None] ** ((-1 if dual else 1) * np.arange(n))
        self._z = z[:, :, None]
        self._powers = self._z ** np.arange(n)  # [s, j, e] = z_sj^e
        self.vandermonde = np.prod(gaps, axis=1)

    def __call__(self, lam) -> np.ndarray:
        return self.evals([lam])[0]

    def evals(self, lams) -> np.ndarray:
        """(P, S): the polynomial of each of the P partitions ``lams`` at every row."""
        rows, n = self._z.shape[:2]
        exps = np.array([_parts(lam, n) for lam in lams], dtype=int).reshape(-1, n) \
            + n - 1 - np.arange(n)
        have = self._powers.shape[2]
        top = int(exps.max(initial=0)) + 1
        if top > have:
            self._powers = np.concatenate([self._powers, self._z ** np.arange(have, top)], axis=2)
        out = np.empty((len(exps), rows), dtype=complex)
        step = max(1, _CHUNK_ENTRIES // max(1, rows * n * n))
        for i in range(0, len(exps), step):
            # [p, s, j, k] = z_sj^(exps[p, k]), the bialternant of partition p at row s
            block = np.moveaxis(self._powers[:, :, exps[i:i + step]], 2, 0)
            out[i:i + step] = np.linalg.det(block * self._factors) / self.vandermonde
        return out

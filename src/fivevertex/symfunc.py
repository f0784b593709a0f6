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

``BialternantStack`` is the complex float lane for many points at once: one
stacked LU determinant over an (S, N, N) bialternant tensor per partition.
The scalar evaluators are its exact-lane oracle.
"""

from __future__ import annotations

import numpy as np

from .confluent import det_ratio_columns, sign_pairs
from .partitions import Partition
from .ratfunc import RatFunc
from .scalars import COINCIDENCE_TOL, is_zero


def _parts(lam, n):
    parts = tuple(lam.parts) if isinstance(lam, Partition) else tuple(lam)
    if len(parts) > n:
        raise ValueError(f"partition has {len(parts)} parts but only {n} variables")
    return parts + (0,) * (n - len(parts))


def schur_eval(lam, z):
    """Schur polynomial s_lambda(z) via the bialternant ratio."""
    return grothendieck_eval(lam, z, 0)


def grothendieck_eval(lam, z, beta):
    """Grothendieck polynomial G_lambda(z; beta)."""
    z = list(z)
    n = len(z)
    parts = _parts(lam, n)
    lin = (1, beta)
    cols = [RatFunc([(1, parts[k] + n - 1 - k, k)], lin) for k in range(n)]
    ratio = det_ratio_columns(cols, z)
    return ratio if sign_pairs(n) > 0 else -ratio


def dual_grothendieck_eval(lam, z, beta):
    """Dual Grothendieck polynomial Gbar_lambda(z; beta); needs z_j != 0."""
    z = list(z)
    n = len(z)
    parts = _parts(lam, n)
    if any(is_zero(zj, 0) for zj in z):
        raise ZeroDivisionError("dual Grothendieck polynomial needs nonzero variables")
    # z^(lam_k+N-k) (1+beta/z)^(1-k) = z^(lam_k+N-1) (z+beta)^(1-k): for N >= 2 the
    # column k = 1 has a pole at z + beta = 0; at N = 1 the point is regular
    if n > 1:
        for j, zj in enumerate(z, 1):
            if is_zero(zj + beta, 0):
                raise ZeroDivisionError(f"dual Grothendieck pole at z_{j} + beta = 0")
    lin = (beta, 1)
    cols = [RatFunc([(1, parts[k] + n - 1, -k)], lin) for k in range(n)]
    ratio = det_ratio_columns(cols, z)
    return ratio if sign_pairs(n) > 0 else -ratio


class BialternantStack:
    """G_lambda(z_s; beta), or Gbar_lambda with ``dual``, at every row z_s of an (S, N) array.

    The lambda-independent factors (1 + beta z)^k or (1 + beta/z)^-k and the
    row Vandermondes are computed once; each call is one stacked complex
    determinant.  There is no confluent limit here, so variables of a row
    that coincide within ``COINCIDENCE_TOL`` raise, as do (for the dual) a
    zero variable or a 1 + beta/z that is exactly zero.
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
        self._vandermonde = np.prod(gaps, axis=1)

    def __call__(self, lam) -> np.ndarray:
        n = self._z.shape[1]
        exps = np.array(_parts(lam, n)) + n - 1 - np.arange(n)
        return np.linalg.det(self._z ** exps * self._factors) / self._vandermonde

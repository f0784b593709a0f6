"""Schur, Grothendieck and dual Grothendieck polynomials as determinant ratios.

    s_lambda(z)          = det[ z_j^(lam_k+N-k) ] / prod_{j<k}(z_j - z_k)
    G_lambda(z; beta)    = det[ z_j^(lam_k+N-k) (1+beta z_j)^(k-1) ] / prod_{j<k}(z_j - z_k)
    Gbar_lambda(z; beta) = det[ z_j^(lam_k+N-k) (1+beta/z_j)^(1-k) ] / prod_{j<k}(z_j - z_k)

beta = 0 reduces all three to the Schur polynomial.  Coincident variables are
routed through the confluent determinant limit, with the columns stored as
exact rational functions and differentiated symbolically; this is what makes
z -> (1,...,1) limits such as G_lambda(1^N; -1) = 1 computable directly.

``BialternantStack`` is the complex float lane for many points at once: one
stacked LU determinant over an (S, N, N) bialternant tensor per partition.
The scalar evaluators are its exact-lane oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confluent import det_ratio_columns, group_points, sign_pairs
from .linalg import Matrix, det
from .partitions import Partition
from .ratfunc import linear_power
from .scalars import COINCIDENCE_TOL, exact_div, is_inexact, is_zero


@dataclass(frozen=True)
class EvaluationPoint:
    """Variables z and deformation beta for the polynomial evaluators.

    Coincident z's are allowed (they go through the confluent path); the
    dual evaluator additionally needs every z_j nonzero.
    """

    z: tuple
    beta: object

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))

    def grothendieck(self, lam):
        return grothendieck_eval(lam, list(self.z), self.beta)

    def dual_grothendieck(self, lam):
        return dual_grothendieck_eval(lam, list(self.z), self.beta)

    def schur(self, lam):
        return schur_eval(lam, list(self.z))


def _parts(lam, n):
    parts = tuple(lam.parts) if isinstance(lam, Partition) else tuple(lam)
    if len(parts) > n:
        raise ValueError(f"partition has {len(parts)} parts but only {n} variables")
    return parts + (0,) * (n - len(parts))


def _all_distinct(z):
    return len(group_points(z)) == len(z)


def _vandermonde(z):
    """prod_{j<k} (z_j - z_k)."""
    out = 1
    for j in range(len(z)):
        for k in range(j + 1, len(z)):
            out = out * (z[j] - z[k])
    return out


def schur_eval(lam, z):
    """Schur polynomial s_lambda(z) via the bialternant ratio."""
    return grothendieck_eval(lam, z, 0)


def grothendieck_eval(lam, z, beta):
    """Grothendieck polynomial G_lambda(z; beta)."""
    z = list(z)
    n = len(z)
    parts = _parts(lam, n)
    exps = [parts[k] + n - 1 - k for k in range(n)]
    if _all_distinct(z):
        rows = []
        for zj in z:
            base = 1 + beta * zj
            rows.append([zj ** exps[k] * base ** k for k in range(n)])
        return exact_div(det(Matrix(rows)), _vandermonde(z))
    cols = [linear_power(exps[k], 1, beta, k) for k in range(n)]
    return sign_pairs(n) * det_ratio_columns(cols, z)


def dual_grothendieck_eval(lam, z, beta):
    """Dual Grothendieck polynomial Gbar_lambda(z; beta); needs z_j != 0."""
    z = list(z)
    n = len(z)
    parts = _parts(lam, n)
    for zj in z:
        if is_zero(zj, 0 if not is_inexact(zj) else COINCIDENCE_TOL):
            raise ZeroDivisionError("dual Grothendieck polynomial needs nonzero variables")
    if _all_distinct(z):
        rows = []
        for zj in z:
            base = 1 + beta * zj ** -1
            row = []
            for k in range(n):
                if k and is_zero(base, 0 if not is_inexact(base) else COINCIDENCE_TOL):
                    raise ZeroDivisionError("vanishing (1 + beta/z) with negative exponent")
                row.append(zj ** (parts[k] + n - 1 - k) * base ** (-k))
            rows.append(row)
        return exact_div(det(Matrix(rows)), _vandermonde(z))
    # z^(lam_k+N-k) (1+beta/z)^(1-k) = z^(lam_k+N-1) (z+beta)^(1-k)
    cols = [linear_power(parts[k] + n - 1, beta, 1, -k) for k in range(n)]
    return sign_pairs(n) * det_ratio_columns(cols, z)


class BialternantStack:
    """G_lambda(z_s; beta), or Gbar_lambda with ``dual``, at every row z_s of an (S, N) array.

    The lambda-independent factors (1 + beta z)^k or (1 + beta/z)^-k and the
    row Vandermondes are computed once; each call is one stacked complex
    determinant.  There is no confluent limit here, so coincident variables
    in a row raise, as do (for the dual) a zero variable or a vanishing
    1 + beta/z.
    """

    def __init__(self, z, beta, dual: bool = False):
        z = np.asarray(z, dtype=complex)
        n = z.shape[1]
        j, k = np.triu_indices(n, 1)
        gaps = z[:, j] - z[:, k]
        if np.any(np.abs(gaps) <= COINCIDENCE_TOL):
            raise ValueError("coincident variables need the confluent scalar evaluators")
        if dual and np.any(np.abs(z) <= COINCIDENCE_TOL):
            raise ZeroDivisionError("dual Grothendieck polynomial needs nonzero variables")
        base = 1 + beta / z if dual else 1 + beta * z
        if dual and n > 1 and np.any(np.abs(base) <= COINCIDENCE_TOL):
            raise ZeroDivisionError("vanishing (1 + beta/z) with negative exponent")
        self._factors = base[:, :, None] ** ((-1 if dual else 1) * np.arange(n))
        self._z = z[:, :, None]
        self._vandermonde = np.prod(gaps, axis=1)

    def __call__(self, lam) -> np.ndarray:
        n = self._z.shape[1]
        exps = np.array(_parts(lam, n)) + n - 1 - np.arange(n)
        return np.linalg.det(self._z ** exps * self._factors) / self._vandermonde

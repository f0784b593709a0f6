"""Independent float reference for the TASEP workloads.

The generator is built here from the hop rule (each particle hops one site
clockwise at unit rate when the target site is empty), not from
``fivevertex.sector``, and propagated with ``scipy.linalg.expm``.  All of it
runs while inputs are generated, outside the timed region.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

TOL = 1e-8


class SectorReference:
    """Hop-rule generator of the N-particle sector of a ring of M sites."""

    def __init__(self, M: int, N: int):
        self.M, self.N = M, N
        self.basis = list(combinations(range(1, M + 1), N))
        self.index = {cfg: i for i, cfg in enumerate(self.basis)}
        gen = np.zeros((len(self.basis), len(self.basis)))
        for cfg in self.basis:
            occupied = set(cfg)
            for site in cfg:
                target = site % M + 1
                if target not in occupied:
                    moved = tuple(sorted(occupied - {site} | {target}))
                    gen[self.index[moved], self.index[cfg]] += 1.0
                    gen[self.index[cfg], self.index[cfg]] -= 1.0
        self.generator = gen
        self._propagators = {}
        self._spectrum = None

    def propagator(self, t: float) -> np.ndarray:
        """P[x', x] = probability of x -> x' after time t."""
        if t not in self._propagators:
            self._propagators[t] = expm(self.generator * t)
        return self._propagators[t]

    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = np.linalg.eigvals(self.generator)
        return self._spectrum

    def observable(self, kind: str, site: int) -> np.ndarray:
        """Diagonal of density n_site or current n_site (1 - n_{site+1})."""
        nxt = site % self.M + 1
        if kind == "density":
            return np.array([1.0 if site in cfg else 0.0 for cfg in self.basis])
        return np.array([1.0 if site in cfg and nxt not in cfg else 0.0 for cfg in self.basis])


class References:
    """One SectorReference per (M, N), built on first use."""

    def __init__(self):
        self._sectors = {}

    def __call__(self, M: int, N: int) -> SectorReference:
        if (M, N) not in self._sectors:
            self._sectors[(M, N)] = SectorReference(M, N)
        return self._sectors[(M, N)]


def energy_deviation(energies, spectrum) -> float:
    """Worst distance of an optimal matching between two energy multisets."""
    energies = np.asarray(energies, dtype=complex)
    if len(energies) != len(spectrum):
        return float("inf")
    cost = np.abs(energies[:, None] - spectrum[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())

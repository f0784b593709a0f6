"""Young diagrams in a box and particle configurations on a ring.

A configuration 1 <= x_1 < ... < x_N <= M of N particles on M sites
corresponds bijectively to the diagram lambda inside the (M-N)^N box via

    lambda_j = x_{N-j+1} - N + j - 1,        x_j = lambda_{N-j+1} + j.

``box_parts`` spells the one order of a box's partitions; ``enumerate_box``,
``box_rank`` and the box plans of ``symfunc`` follow it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from numbers import Integral
from typing import Iterator

import numpy as np


def _bounds(lo, hi):
    if lo is None:
        return "" if hi is None else f" <= {hi}"
    return f" >= {lo}" if hi is None else f" in {lo}..{hi}"


def _require_int(name, value, lo=None, hi=None) -> int:
    """``value`` as an int, refused by name unless it is an int in lo..hi (either bound optional;
    numpy ints are ints, 4.0 and True are not): "M must be an int in 2..9, got M = 1"."""
    if type(value) is not int and isinstance(value, Integral) and not isinstance(value, bool):
        value = int(value)
    if type(value) is int and (lo is None or value >= lo) and (hi is None or value <= hi):
        return value
    raise ValueError(f"{name} must be an int{_bounds(lo, hi)}, got {name} = {value!r}")


def _require_finite(name, value, lo=None):
    """Refuse, by name, a value that ``complex()`` does not take to a finite number, or with
    ``lo`` one that is not real and at least lo; a bool or a str is refused as well."""
    try:
        z = complex("nan") if isinstance(value, (bool, str)) else complex(value)
    except (TypeError, ValueError, OverflowError):
        z = complex("nan")
    if not cmath.isfinite(z) or lo is not None and (z.imag != 0 or z.real < lo):
        raise ValueError(f"{name} must be a finite number{_bounds(lo, None)}, "
                         f"got {name} = {value!r}")


def _integers(values, what):
    """``values`` as a tuple of ints; refuses an entry that is not integral, or a bool."""
    values = tuple(values)
    ints = tuple(int(x) for x in values)
    for x, i in zip(values, ints):
        if x != i or isinstance(x, (bool, np.bool_)):
            raise ValueError(f"{what} must be integers, got {x!r}")
    return ints


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing parts inside a box (width, height)."""

    parts: tuple
    box: tuple  # (width m, height N)

    def __post_init__(self):
        m, n = self.box
        m, n = _require_int("box width", m, 0), _require_int("box height", n, 0)
        object.__setattr__(self, "box", (m, n))
        parts = _integers(self.parts, "parts")
        object.__setattr__(self, "parts", parts)
        if len(parts) != n:
            raise ValueError(f"expected {n} parts, got {len(parts)}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        if parts and (parts[0] > m or parts[-1] < 0):
            raise ValueError(f"partition {parts} outside box {m}^{n}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def text(self) -> str:
        m, n = self.box
        return f"λ = [{','.join(map(str, self.parts))}] in box {m}^{n}"


@dataclass(frozen=True)
class ParticleConfiguration:
    """Strictly increasing positions x_1 < ... < x_N in [1, ring_size]."""

    positions: tuple
    ring_size: int

    def __post_init__(self):
        pos = _integers(self.positions, "positions")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "ring_size", _require_int("ring_size", self.ring_size, 0))
        if any(pos[i] >= pos[i + 1] for i in range(len(pos) - 1)):
            raise ValueError("positions must be strictly increasing")
        if pos and (pos[0] < 1 or pos[-1] > self.ring_size):
            raise ValueError(f"positions {pos} outside ring of size {self.ring_size}")

    def __len__(self):
        return len(self.positions)


def config_to_partition(x: ParticleConfiguration) -> Partition:
    """lambda_j = x_{N-j+1} - N + j - 1, inside the (M-N)^N box."""
    n = len(x.positions)
    parts = tuple(x.positions[n - j] - n + j - 1 for j in range(1, n + 1))
    return Partition(parts, (x.ring_size - n, n))


def partition_to_config(lam: Partition, ring_size: int) -> ParticleConfiguration:
    """x_j = lambda_{N-j+1} + j; inverse of config_to_partition."""
    n, ring_size = len(lam.parts), _require_int("ring_size", ring_size, 0)
    if lam.parts and lam.parts[0] > ring_size - n:
        raise ValueError(f"partition {lam.parts} outside box {ring_size - n}^{n}")
    positions = tuple(lam.parts[n - j] + j for j in range(1, n + 1))
    return ParticleConfiguration(positions, ring_size)


def box_parts(m: int, n: int) -> Iterator[tuple]:
    """The parts of every partition in the m^n box, as tuples, in the one box order:
    lexicographically decreasing.  m, n are checked up front."""
    m, n = _require_int("m", m, 0), _require_int("n", n, 0)
    return combinations_with_replacement(range(m, -1, -1), n)


def enumerate_box(m: int, n: int) -> Iterator[Partition]:
    """The ``Partition`` of each row of ``box_parts(m, n)``, in its order; m, n checked up front."""
    return (Partition(parts, (m, n)) for parts in box_parts(m, n))


def box_rank(parts, m):
    """The ``enumerate_box(m, N)`` row of one partition, a tuple of N parts, as an int, or of
    each partition of an (..., N) int array of parts, as an array; parts that are not weakly
    decreasing ints in 0..m are refused.  The partitions before lam agree with it before some
    part i and exceed lam_i there, at most the part above (m for i = 1).  A tuple is summed
    in Python ints, at a twentieth of numpy's per-call cost."""
    m = _require_int("m", m, 0)
    if isinstance(parts, tuple):
        n, row, above = len(parts), 0, m
        for i, p in enumerate(parts):
            if type(p) is not int and (isinstance(p, bool) or not isinstance(p, Integral)) \
                    or not 0 <= p <= above:
                break
            row, above = row + comb(above + n - i, n - i) - comb(p + n - i, n - i), p
        else:
            return row
    else:
        parts = np.asarray(parts)
        if parts.dtype.kind in "iu" and np.all(parts >= 0) and np.all(parts[..., :1] <= m) \
                and np.all(parts[..., 1:] <= parts[..., :-1]):
            # below[a, L] = binomial(a + L, L) for a up to the largest part, and a = m last
            n, top = parts.shape[-1], int(parts.max(initial=0)) + 1
            below = np.array([[comb(a + L, L) for L in range(n + 1)] for a in (*range(top), m)])
            above = np.concatenate([np.full_like(parts[..., :1], top), parts[..., :-1]], axis=-1)
            sizes = np.arange(n, 0, -1)
            return (below[above, sizes] - below[parts, sizes]).sum(axis=-1)
    raise ValueError(f"parts must be weakly decreasing ints in 0..{m}, got {parts!r}")

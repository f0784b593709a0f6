"""Box partitions, ring configurations, and their bijection."""

import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivevertex.partitions import (ParticleConfiguration, Partition, box_rank,
                                   config_to_partition, enumerate_box, partition_to_config)
from fivevertex.sector import sector_basis


def test_bijection_examples():
    assert config_to_partition(ParticleConfiguration((1, 2, 3), 6)).parts == (0, 0, 0)
    assert config_to_partition(ParticleConfiguration((1, 3), 4)).parts == (1, 0)
    assert config_to_partition(ParticleConfiguration((1, 3, 5), 6)).parts == (2, 1, 0)
    assert partition_to_config(Partition((0, 0, 0), (3, 3)), 6).positions == (1, 2, 3)
    assert partition_to_config(Partition((1, 0), (2, 2)), 4).positions == (1, 3)
    assert partition_to_config(Partition((2, 1, 0), (3, 3)), 6).positions == (1, 3, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.data())
def test_round_trip(m_sites, data):
    n = data.draw(st.integers(min_value=0, max_value=m_sites))
    positions = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=m_sites), min_size=n, max_size=n))))
    x = ParticleConfiguration(positions, m_sites)
    lam = config_to_partition(x)
    assert partition_to_config(lam, m_sites) == x
    assert lam.box == (m_sites - n, n)


def test_box_rank_is_the_enumerate_box_row():
    # every box with m, n <= 5, the empty sectors n = 0 and m = 0 included: as one
    # (P, n) array, one tuple at a time, and as an empty stack of partitions
    for m in range(6):
        for n in range(6):
            box = [lam.parts for lam in enumerate_box(m, n)]
            rows = box_rank(np.array(box, dtype=int).reshape(len(box), n), m)
            assert rows.tolist() == list(range(len(box))), (m, n)
            assert [box_rank(parts, m) for parts in box] == list(range(len(box)))
            assert all(type(box_rank(parts, m)) is int for parts in box)
            assert box_rank(np.zeros((0, n), dtype=int), m).shape == (0,)
    # counts past int64 stay exact
    assert box_rank((0, 0), 10 ** 20) == comb(10 ** 20 + 2, 2) - 1
    assert box_rank(np.zeros((1, 2), dtype=int), 10 ** 20).tolist() == [comb(10 ** 20 + 2, 2) - 1]


def test_enumerate_box_counts():
    assert [p.parts for p in enumerate_box(1, 2)] == [(1, 1), (1, 0), (0, 0)]
    assert len(list(enumerate_box(2, 2))) == 6
    assert len(list(enumerate_box(4, 2))) == comb(6, 2) == 15


def test_enumeration_is_lex_decreasing():
    parts = [p.parts for p in enumerate_box(3, 3)]
    assert parts == sorted(parts, reverse=True)
    assert len(parts) == len(set(parts))


@pytest.mark.parametrize("M,N", [(5, 2), (6, 3), (7, 3)])
def test_box_matches_sector_dimension(M, N):
    assert len(list(enumerate_box(M - N, N))) == len(sector_basis(M, N)) == comb(M, N)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        ParticleConfiguration((3, 1), 4)
    with pytest.raises(ValueError):
        Partition((1, 2), (3, 2))
    with pytest.raises(ValueError):
        partition_to_config(Partition((5, 0), (5, 2)), 4)


def test_box_sizes_must_be_ints():
    # enumerate_box(2.0, 2) used to fail inside range() with a TypeError
    for m, n, message in ((2.0, 2, "m must be an int >= 0, got m = 2.0"),
                          (2, 2.0, "n must be an int >= 0, got n = 2.0"),
                          (Fraction(2), 2, "m must be an int >= 0, got m = Fraction(2, 1)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            list(enumerate_box(m, n))
    assert len(list(enumerate_box(np.int64(2), 2))) == 6


def test_text_form():
    assert Partition((2, 1, 0), (4, 3)).text() == "λ = [2,1,0] in box 4^3"


def test_non_integral_entries_are_refused_not_truncated():
    # int() used to make positions (1, 2) and parts (1, 0) of these
    with pytest.raises(ValueError, match="positions must be integers, got 1.5"):
        ParticleConfiguration((1.5, 2.7), 4)
    with pytest.raises(ValueError, match="parts must be integers, got 1.5"):
        Partition((1.5, 0), (2, 2))
    with pytest.raises(ValueError, match=r"parts must be integers, got Fraction\(1, 2\)"):
        Partition((1, Fraction(1, 2)), (2, 2))
    # integral values of other types are still taken, as ints
    x = ParticleConfiguration((np.int64(1), 3.0), 4)
    assert x.positions == (1, 3) and all(type(p) is int for p in x.positions)
    lam = Partition((2.0, np.int64(1)), (2, 2))
    assert lam.parts == (2, 1) and all(type(p) is int for p in lam.parts)

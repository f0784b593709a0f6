from fractions import Fraction
from random import Random

import pytest

from fivevertex import confluent, wavefunc

# the seeded draws the tests use, shared with the CLI and the acceptance battery
from fivevertex.sampling import distinct_square_fractions as distinct_squares  # noqa: F401
from fivevertex.sampling import rand_fraction  # noqa: F401


def forget_kept_tables():
    """Empty the one-entry slot in which the package keeps its last wavefunction tables."""
    wavefunc._last_sector[:] = None, None


def force_generic_path(monkeypatch):
    """Turn the cleared lane off: every table takes the ``taylor`` + Bareiss path, cold."""
    monkeypatch.setattr(confluent, "_cleared_lane", lambda columns, groups: None)
    forget_kept_tables()


def record_lanes(monkeypatch):
    """A list to which every later ``PointTable`` appends whether it took the cleared lane."""
    lanes, init = [], confluent.PointTable.__init__

    def recorded(self, columns, points):
        init(self, columns, points)
        lanes.append(self.lane)

    monkeypatch.setattr(confluent.PointTable, "__init__", recorded)
    return lanes


@pytest.fixture(autouse=True)
def _cold_start():
    # every test starts from an empty slot, whatever ran before it
    forget_kept_tables()


@pytest.fixture
def rng():
    return Random(20130514)


def outcome(call):
    """repr of ``call()``, or the class and message of the exception it raises."""
    try:
        return repr(call())
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def has_type(value, kind):
    """Whether ``value`` has the type ``kind`` of ``scalars.cleared_type``: an int kind
    gives an int where the value is integral."""
    if kind is int:
        return type(value) is (int if value.denominator == 1 else Fraction)
    if kind is Fraction:
        return type(value) is Fraction
    return value.field is kind

from random import Random

import pytest

# the seeded draws the tests use, shared with the CLI and the acceptance battery
from fivevertex.sampling import distinct_square_fractions as distinct_squares  # noqa: F401
from fivevertex.sampling import rand_fraction  # noqa: F401


@pytest.fixture
def rng():
    return Random(20130514)


def outcome(call):
    """repr of ``call()``, or the class and message of the exception it raises."""
    try:
        return repr(call())
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"

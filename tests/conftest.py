import contextlib
import itertools
import random

import pytest

from coda.encoding import word
from coda.terms import COLON, Coda

SAFE_WORDS = ("pass", "null", "const", "left", "right", "bool", "not",
              "first", "rev", "a", "b", "c")


def random_coda(rng: random.Random, depth: int, words=SAFE_WORDS) -> Coda:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return COLON
    if roll < 0.7:
        return word(rng.choice(words))
    return Coda(random_data(rng, depth - 1, words=words), random_data(rng, depth - 1, words=words))


def random_data(rng: random.Random, depth: int = 2, max_width: int = 3, words=SAFE_WORDS):
    return tuple(random_coda(rng, depth, words) for _ in range(rng.randrange(max_width + 1)))


def words_over(letters, max_len):
    """Every word of length 1 to max_len over `letters`, shortest first."""
    return tuple(w for k in range(1, max_len + 1) for w in itertools.product(map(word, letters), repeat=k))


@pytest.fixture
def rng():
    return random.Random(20230823)


@contextlib.contextmanager
def shallow_recursion_error():
    """Re-raise a RecursionError without its frames.  pytest takes about 2 s
    to format the thousand frames of one, even for an expected failure."""
    try:
        yield
    except RecursionError as e:
        raise RecursionError(str(e)) from None

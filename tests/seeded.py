"""Seeded random streams for tests that pick cases at random."""

import random

from nilprob.perms import derive_seed


def stream_rng(seed: int, stream_index: int = 0) -> random.Random:
    """A Mersenne Twister seeded from (seed, stream_index) by ``derive_seed``."""
    return random.Random(derive_seed(seed, stream_index))

"""Seeded random streams for tests that pick cases at random, and a wide test group."""

import random

from nilprob.perms import derive_seed, perm_from_cycles, schreier_sims


def stream_rng(seed: int, stream_index: int = 0) -> random.Random:
    """A Mersenne Twister seeded from (seed, stream_index) by ``derive_seed``."""
    return random.Random(derive_seed(seed, stream_index))


def spread_s5(degree: int):
    """S(5) on five points spread over 0..degree-1, as a stabilizer chain."""
    points = [0, degree // 4, degree // 2, 3 * degree // 4, degree - 1]
    return schreier_sims([
        perm_from_cycles(degree, [points]),
        perm_from_cycles(degree, [points[:2]]),
    ])

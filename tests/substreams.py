"""Seeded, reproducible normal draws for the tests.

`substream(seed, i)` is the stream `real_mise_mc` draws replicate i from,
so tests can rebuild any replicate on its own.
"""

import numpy as np


def _philox_counter(index: int) -> np.ndarray:
    # the Philox counter at which Philox(key=seed).jumped(index) starts: a
    # jump adds 2**128 to the 256-bit counter, so index fills words 2 and 3
    return np.array([0, 0, index % 2**64, index >> 64], dtype=np.uint64)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible generator for one replicate index.

    It draws what `Philox(key=seed).jumped(index)` draws, but starts the
    counter at [0, 0, index, 0] directly instead of jumping there.  Streams
    with distinct indices never overlap.
    """
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return np.random.Generator(np.random.Philox(key=seed, counter=_philox_counter(index)))

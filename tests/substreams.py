"""Seeded, reproducible normal draws for the tests.

`substream(seed, k)` is the stream `real_mise_mc` draws its stream k from:
with n + m normals a replicate and c = max(1, MC_STREAM_DRAWS // (n + m)),
stream k holds replicates k c ... k c + c - 1, each taking the next n + m
normals.  `replicate_draws(seed, i, n + m)` rebuilds replicate i from it on
its own.
"""

from functools import lru_cache

import numpy as np

from normrisk.bandwidth import MC_STREAM_DRAWS


def _philox_counter(index: int) -> np.ndarray:
    # the Philox counter at which Philox(key=seed).jumped(index) starts: a
    # jump adds 2**128 to the 256-bit counter, so index fills words 2 and 3
    return np.array([0, 0, index % 2**64, index >> 64], dtype=np.uint64)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible generator for one stream index.

    It draws what `Philox(key=seed).jumped(index)` draws, but starts the
    counter at [0, 0, index, 0] directly instead of jumping there.  Streams
    with distinct indices never overlap.
    """
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return np.random.Generator(np.random.Philox(key=seed, counter=_philox_counter(index)))


@lru_cache(maxsize=2)
def _full_stream(seed: int, index: int, size: int) -> np.ndarray:
    # the whole stream, so a partial last stream of `real_mise_mc` is checked
    # as a prefix of it; read-only, as every caller shares it
    draws = substream(seed, index).standard_normal(size)
    draws.flags.writeable = False
    return draws


def replicate_draws(seed: int, index: int, width: int) -> np.ndarray:
    """The `width` = n + m standard normals of replicate `index` in `real_mise_mc`."""
    per_stream = max(1, MC_STREAM_DRAWS // width)
    offset = index % per_stream * width
    return _full_stream(seed, index // per_stream, per_stream * width)[offset : offset + width]

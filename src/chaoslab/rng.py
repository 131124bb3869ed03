"""Counter-based random streams for reproducible, order-independent sampling.

Every stochastic routine in the package draws from a Philox substream
addressed by (seed, *path).  Streams with distinct paths are independent,
and a stream's output never depends on how many other streams were opened
before it, so per-sample work can be farmed out to any number of workers
without changing a single drawn number.
"""

from __future__ import annotations

import numpy as np

# Fixed purpose tags; keep values stable, they are part of the
# reproducibility contract.
FIELD = 1
BOOTSTRAP = 2
POINTS = 3
MODEL = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by (seed, *path).

    The path (up to four non-negative integers) is packed into the Philox
    counter, the seed into its key.  Identical (seed, path) always yields
    an identical stream regardless of call order or process.
    """
    if len(path) > 4:
        raise ValueError("substream path supports at most 4 indices")
    counter = [0, 0, 0, 0]
    for i, p in enumerate(path):
        if p < 0:
            raise ValueError("substream path indices must be non-negative")
        counter[i] = int(p)
    bitgen = np.random.Philox(counter=counter, key=int(seed) & ((1 << 128) - 1))
    return np.random.Generator(bitgen)

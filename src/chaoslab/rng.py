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


def _counter(path) -> list[int]:
    """The Philox counter of a substream path: one word per index."""
    if len(path) > 4:
        raise ValueError("substream path supports at most 4 indices")
    counter = [0, 0, 0, 0]
    for i, p in enumerate(path):
        if p < 0:
            raise ValueError("substream path indices must be non-negative")
        counter[i] = int(p)
    return counter


def _key(seed: int) -> int:
    return int(seed) & ((1 << 128) - 1)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by (seed, *path).

    The path (up to four non-negative integers) is packed into the Philox
    counter, the seed into its key.  Identical (seed, path) always yields
    an identical stream regardless of call order or process.
    """
    bitgen = np.random.Philox(counter=_counter(path), key=_key(seed))
    return np.random.Generator(bitgen)


def substream_opener(seed: int, purpose: int):
    """``open(k)``: the generator of ``substream(seed, purpose, k)``.

    Every call re-keys one Philox through its state setter (the path's
    counter, the seed's key, an empty output buffer), which costs a fraction
    of constructing a generator and reads no OS entropy; the streams are
    bit-identical to :func:`substream`'s.  ``open`` returns the same
    generator object each time, so a stream is valid only until the next
    call.
    """
    bitgen = np.random.Philox(key=_key(seed))
    gen = np.random.Generator(bitgen)
    state = bitgen.state

    def open_stream(k: int) -> np.random.Generator:
        state["state"]["counter"] = _counter((purpose, k))
        bitgen.state = state  # buffer_pos 4, has_uint32 0: nothing buffered
        return gen

    return open_stream

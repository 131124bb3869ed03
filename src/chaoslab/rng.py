"""Counter-based random streams for reproducible, order-independent sampling.

Every stochastic routine in the package draws from a Philox substream
addressed by (seed, *path).  A draw depends on (seed, path) alone: not on
which other streams were opened before it or in what order, nor on how the
draws are batched, so a sampling loop gives the same numbers however it is
split.  Streams of distinct paths are not yet disjoint: the path fills the
Philox counter, whose first word is the one Philox increments, so the
stream of (purpose + 1, k) is that of (purpose, k) less its first block, and
a trailing zero index addresses the same stream as the shorter path
(ROADMAP item 2).
"""

from __future__ import annotations

import operator

import numpy as np

# Fixed purpose tags; keep values stable, they are part of the
# reproducibility contract.
FIELD = 1
BOOTSTRAP = 2
POINTS = 3
MODEL = 5


def _counter(path) -> list[int]:
    """The Philox counter of a substream path: one word per index, each read
    through ``operator.index`` so that a float raises rather than truncates."""
    if len(path) > 4:
        raise ValueError("substream path supports at most 4 indices")
    counter = [0, 0, 0, 0]
    for i, p in enumerate(path):
        counter[i] = operator.index(p)
        if counter[i] < 0:
            raise ValueError(f"substream path indices must be non-negative, got {p!r}")
    return counter


def _key(seed: int) -> int:
    """The Philox key of a seed, an integer in [0, 2^128) and never wrapped."""
    key = operator.index(seed)
    if not 0 <= key < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2^128), got {seed!r}")
    return key


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

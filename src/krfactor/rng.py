"""Seeded, splittable randomness.

Every randomized operation takes an explicit seed and derives independent
substreams from it, so experiment results are reproducible bit-for-bit and do
not depend on evaluation order or worker count. Streams are realized with
numpy's counter-based Philox generator keyed by a (seed, stream) pair; child
streams mix the stream id through a SplitMix64 finalizer instead of drawing
from the parent, so sibling streams never interact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # SplitMix64 finalizer; bijective on 64-bit words.
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomSeed:
    """A (seed, stream) pair naming one independent random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def substream(self, index: int) -> RandomSeed:
        """Child stream number `index`; distinct indices give distinct streams."""
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return RandomSeed(self.seed, _mix64(self.stream ^ _mix64(index + 1)))

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator keyed by (seed, stream)."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_seed(seed: RandomSeed | int) -> RandomSeed:
    """Accept either a RandomSeed or a plain integer seed."""
    if isinstance(seed, RandomSeed):
        return seed
    if isinstance(seed, (int, np.integer)):
        return RandomSeed(int(seed))
    raise TypeError(f"expected RandomSeed or int, got {type(seed).__name__}")


"""Small numeric helpers.

`unpack` and `pack` convert between int bitmasks and numpy bool matrices.
Thresholds in this package are real-valued expressions like (1 - 1/r + gamma) * n
whose exact values are often representable-adjacent (e.g. 0.8 * 40). Applying
ceil/floor straight to the float can be off by one, so these helpers round away
float dust first.
"""

import math

import numpy as np

_DUST = 9  # decimal places considered meaningful for threshold arithmetic


def fceil(x: float) -> int:
    """Ceiling of x after discarding float representation noise."""
    return math.ceil(round(x, _DUST))


def ffloor(x: float) -> int:
    """Floor of x after discarding float representation noise."""
    return math.floor(round(x, _DUST))


def mask_of(ids) -> int:
    """The bitmask with bit v set for every v in `ids`."""
    m = 0
    for v in ids:
        m |= 1 << v
    return m


def bit_indices(mask: int):
    """Yield the set-bit positions of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of nonnegative ints, cast to the narrowest unsigned
    dtype first: numpy radix-sorts 8- and 16-bit keys."""
    return np.argsort(keys.astype(np.min_scalar_type(int(keys.max(initial=0)))), kind="stable")


def unpack(masks, width: int) -> np.ndarray:
    """Bool matrix whose row i holds bits 0..width-1 of masks[i]."""
    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    bits = np.unpackbits(
        np.frombuffer(raw, np.uint8).reshape(len(masks), nbytes), axis=1, bitorder="little"
    )
    return bits[:, :width].astype(bool)


def pack(rows: np.ndarray) -> list[int]:
    """Inverse of `unpack`: one int mask per row of a bool matrix."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    nbytes = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(len(packed))]

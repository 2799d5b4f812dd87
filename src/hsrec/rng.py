"""Deterministic random streams on a counter-based generator.

Every random draw in the package comes through here. Streams are keyed by a
64-bit user seed plus a purpose tag in the high word of the 128-bit Philox
key, so the same master seed can feed the phantom, both Rademacher blocks,
the noise, and the basis sampler without any stream colliding. The type
rules of every numeric argument, is_integer and is_real, live here too.

Each Rademacher sign is the top bit of one raw 64-bit Philox word: a clear
top bit is -1. Generator.random() maps a word w to (w >> 11) * 2^-53, so
this is exactly random() < 0.5 on the same stream positions, without the
float64 temporaries.
"""

import numbers

import numpy as np

# purpose tags (high word of the Philox key)
PHANTOM = 0
SPECTRAL_RADEMACHER = 1
SPATIAL_RADEMACHER = 2
NOISE = 3
BASIS_SAMPLE = 4
SPECTRAL_NORM = 5
SPATIAL_NORM = 6


def is_integer(v):
    """The package's integer type rule: an integer (numpy's too), no bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v):
    """The package's real-number type rule: a real (numpy's too), no bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_seed(seed):
    """seed as an int; a ValueError unless it is an integer in [0, 2^64),
    so neither a bool, a mask nor a truncation aliases it onto a valid seed."""
    if not (is_integer(seed) and 0 <= int(seed) < 1 << 64):
        raise ValueError(f"seeds must lie in [0, 2^64), got {seed}")
    return int(seed)


def stream(seed, purpose):
    """Independent Generator for (seed, purpose); seed must be an integer in
    [0, 2^64) and purpose one of the tags above."""
    key = check_seed(seed) | (int(purpose) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def negative_signs(gen, shape):
    """Boolean mask of the -1 entries of a Rademacher draw. One raw word per
    entry, so drawing a matrix in row chunks consumes the stream exactly
    like drawing it whole."""
    return gen.bit_generator.random_raw(shape) < np.uint64(1 << 63)


def rademacher(gen, shape):
    """+/-1 array with the signs of negative_signs(gen, shape)."""
    return np.where(negative_signs(gen, shape), -1.0, 1.0)


def gaussian(gen, shape, sigma=1.0):
    """Zero-mean normals of std sigma via Box-Muller on the uniform stream."""
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    pairs = (count + 1) // 2
    u1 = 1.0 - gen.random(pairs)  # (0, 1], keeps the log finite
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])
    return sigma * z[:count].reshape(shape)

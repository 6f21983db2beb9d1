"""Deterministic, splittable randomness for simulated experiments.

Each oracle query draws from its own substream keyed by (seed, query
index), so transcripts replay bit-for-bit regardless of batching order
and replications can fan out across independent seeds.  The generator is
a counter-based splitmix64: stateless, portable, and reproduced verbatim
by the lane-packed trial kernel in kernels.py, which is why it is written
out here rather than delegated to the random module (whose Mersenne
Twister state cannot be split by counter).
"""

from __future__ import annotations

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
GOLDEN2 = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijection on 64-bit words."""
    z &= M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def raw64(seed: int, stream: int, counter: int) -> int:
    """Draw number `counter` of substream `stream` under `seed`."""
    z = mix64((seed + GOLDEN * (stream + 1)) & M64)
    z = mix64((z + GOLDEN2 * (counter + 1)) & M64)
    return z


def derive_seed(seed: int, label: int) -> int:
    """Child seed for independent replications."""
    return mix64((seed ^ GOLDEN2) + GOLDEN * (label + 1))

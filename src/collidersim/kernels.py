"""Batched trial counting for fixed-precision runs.

A batch of zeta repeated queries only needs three counts (lesser,
greater, timeout), and with zero jitter and an exactly-known rational
target the per-trial decision reduces to comparing the raw 64-bit mass
draw against two integer thresholds.  The thresholds are computed here
once, exactly, with Fraction arithmetic; the counting then runs in pure
integer arithmetic, thousands of trials at a time in the lanes of one
big integer.  Counts are bit-for-bit identical to a draw-by-draw recount
with rng.raw64(seed, stream, 2*k): trial k of a batch consumes the even
counter 2*k (the odd counters are reserved for jitter draws, which a
batch with N=0 never makes).

Threshold derivation: the realized mass is m* = z - eps + 2*eps*r/2^64
for a raw draw r in [0, 2^64).  An answer requires a strictly early
arrival, i.e. |m* - mu| > eta, so

    lesser   <=>  m* < mu - eta  <=>  r < (mu - eta - z + eps) * 2^64 / (2 eps)
    greater  <=>  m* > mu + eta  <=>  r > (mu + eta - z + eps) * 2^64 / (2 eps)

and rounding those rational cutoffs to integers (ceil on the left,
floor on the right) preserves the strict comparisons exactly.

Lane packing: one Python int carries _LANES trials side by side.  Lane
j is bits [128*j, 128*j + 128): its low half holds a 64-bit splitmix64
state and its high half is zero padding.  The padding is what makes
whole-int arithmetic act lane by lane:

- a right shift by s < 64 pulls the next lane's low bits into this
  lane's padding only, and the `& _MASK` that follows clears them;
- a 64-bit state times a 64-bit constant is below 2^128, so the product
  fills its own lane and never carries into the next; `& _MASK` then
  reduces it modulo 2^64;
- adding a bias b <= 2^64 to a state x < 2^64 leaves bit 64 of the lane
  set iff x + b >= 2^64.  With b = 2^64 - r_lo that bit says x >= r_lo,
  with b = 2^64 - 1 - h it says x > h.  Adding those bits, block after
  block, into per-lane counters held in the high halves, and summing the
  lanes once at the end, counts every trial of the batch.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rng import GOLDEN, GOLDEN2, M64, mix64

_FULL = 1 << 64
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

# 1024 to 4096 lanes time alike; fewer pay more interpreter overhead per
# trial, more spend longer on the partial last block of a batch.  A power
# of two, so that _lane_sum halves evenly.
_LANES = 2048
_ONES = int.from_bytes((1).to_bytes(16, "little") * _LANES, "little")
_MASK = M64 * _ONES
_TOP = _ONES << 64
_STEP = ((GOLDEN2 * 2 * _LANES) & M64) * _ONES    # pre-mix advance by one block


def engine_name() -> str:
    return "thresholds-py"


def engines() -> dict:
    """Name -> counting callable, for tests and benchmarks."""
    return {"thresholds-py": count_thresholds}


def _odd_lanes() -> int:
    """GOLDEN2*(2j + 1) mod 2^64 in lane j, for every lane.

    Each pass copies the n lanes built so far into lanes n..2n-1,
    advanced by 2n draws, so import costs O(log _LANES) whole-int steps.
    """
    odd, n = GOLDEN2, 1
    while n < _LANES:
        low = (1 << (128 * n)) - 1
        step = (2 * n * GOLDEN2) & M64
        odd |= ((odd + step * (_ONES & low)) & (_MASK & low)) << (128 * n)
        n *= 2
    return odd & _MASK


_ODD = _odd_lanes()


def _lane_sum(acc: int) -> int:
    """Sum of the counters in the high halves of acc's lanes."""
    n = _LANES
    while n > 1:
        n //= 2
        acc = (acc & ((1 << (128 * n)) - 1)) + (acc >> (128 * n))
    return acc >> 64


def count_thresholds(seed: int, stream: int, zeta: int, r_lo: int, r_hi1: int):
    """Count draws r with r < r_lo and with r > r_hi1 over zeta trials.

    A draw below r_lo is never also counted as greater, as in a scalar
    `if r < r_lo: ... elif r > r_hi1: ...` loop, so "greater" is tested
    against max(r_hi1, r_lo - 1).  Arguments are 64-bit unsigned words.
    """
    s = mix64(seed + GOLDEN * (stream + 1))
    mask, top = _MASK, _TOP
    bias_lo = (_FULL - r_lo) * _ONES
    bias_hi = (M64 - max(r_hi1, r_lo - 1)) * _ONES
    # lane j holds trial k0 + j's pre-mix state s + GOLDEN2*(2*(k0 + j) + 1)
    pre = (s * _ONES + _ODD) & _MASK
    at_least = 0        # per-lane counts of draws >= r_lo
    greater = 0         # per-lane counts of draws > max(r_hi1, r_lo - 1)
    for k0 in range(0, zeta, _LANES):
        if zeta - k0 < _LANES:
            # the last block counts only its first lanes (the cut top) and
            # computes only those (the cut mask drops the rest at step one)
            cut = (1 << (128 * (zeta - k0))) - 1
            mask &= cut
            top &= cut
        x = (pre ^ (pre >> 30)) & mask
        x = (x * _C1) & mask
        x = (x ^ (x >> 27)) & mask
        x = (x * _C2) & mask
        # no mask needed: the shift leaves bits 64..96 of each lane zero,
        # so a bias carry stops at bit 64 and the debris above is not read
        x ^= x >> 31
        at_least += (x + bias_lo) & top
        greater += (x + bias_hi) & top
        pre = (pre + _STEP) & _MASK
    return max(zeta, 0) - _lane_sum(at_least), _lane_sum(greater)


def thresholds(z: Fraction, epsilon: Fraction, mu: Fraction, eta: Fraction) -> tuple[int, int]:
    """Integer cutoffs (r_lo, r_hi): lesser <=> r < r_lo, greater <=> r >= r_hi."""
    if epsilon <= 0 or eta <= 0:
        raise ValueError("epsilon and eta must be positive")
    scale = Fraction(_FULL, 1) / (2 * epsilon)
    x_lo = (mu - eta - z + epsilon) * scale
    x_hi = (mu + eta - z + epsilon) * scale
    r_lo = min(max(math.ceil(x_lo), 0), _FULL)
    r_hi = min(max(math.floor(x_hi) + 1, 0), _FULL)
    return r_lo, r_hi


def count_outcomes(seed: int, stream: int, zeta: int, z: Fraction,
                   epsilon: Fraction, mu: Fraction, eta: Fraction) -> tuple[int, int]:
    """(n_lesser, n_greater) over zeta trials of the stream's draw sequence."""
    r_lo, r_hi = thresholds(z, epsilon, mu, eta)
    if r_lo == _FULL:          # every draw is below the left cutoff
        return zeta, 0
    if r_hi == 0:              # every draw is above the right cutoff
        return 0, zeta
    # r_hi >= 1 here, so the strict form r > r_hi - 1 fits in 64 bits
    return count_thresholds(seed & M64, stream, zeta, r_lo, r_hi - 1)

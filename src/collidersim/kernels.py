"""Batched trial counting for fixed-precision runs.

A batch of zeta repeated queries only needs three counts (lesser,
greater, timeout), and with zero jitter and an exactly-known rational
target the per-trial decision reduces to comparing the raw 64-bit mass
draw against two integer thresholds.  The thresholds are computed here
once, exactly, in integers; the counting then runs in pure integer
arithmetic, thousands of trials at a time in the lanes of one big
integer.  Counts are bit-for-bit identical to a draw-by-draw recount
with rng.raw64(seed, stream, 2*k): trial k of a batch consumes the even
counter 2*k (the odd counters are reserved for jitter draws, which a
batch with N=0 never makes).

Threshold derivation: the realized mass is m* = z - eps + 2*eps*r/2^64
for a raw draw r in [0, 2^64).  An answer requires a strictly early
arrival, i.e. m* outside [lo, hi], the oracle's one decision rule
(`CollisionOracle.cutoffs`) at the zero-width cell of the exact target
mu, whose timeout window is [lo, hi] (mu -/+ eta under protocol timing), so

    lesser   <=>  m* < lo  <=>  r < (lo - z + eps) * 2^64 / (2 eps)
    greater  <=>  m* > hi  <=>  r > (hi - z + eps) * 2^64 / (2 eps)

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


def cutoff_thresholds(z: Fraction, epsilon: Fraction, lo: tuple, hi) -> tuple[int, int]:
    """Draw-space (r_lo, r_hi) of an exact target's cell cutoffs lo and hi, (n, d)
    pairs, hi None if none: lesser <=> r < r_lo, greater <=> r >= r_hi."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    zn, zd, en, ed = z.numerator, z.denominator, epsilon.numerator, epsilon.denominator

    def draw(cn, cd):
        # (c - z + eps) * 2^64 / (2 eps) as n / d, for the cutoff c = cn / cd
        return ((cn * zd - zn * cd) * ed + en * cd * zd) << 63, cd * zd * en

    n, d = draw(*lo)
    r_lo = min(max(-(-n // d), 0), _FULL)
    if hi is None:
        return r_lo, _FULL
    n, d = draw(*hi)
    return r_lo, min(max(n // d + 1, 0), _FULL)


def thresholds(z: Fraction, epsilon: Fraction, mu: Fraction, eta: Fraction) -> tuple[int, int]:
    """cutoff_thresholds at the protocol-timing cutoffs mu -/+ eta."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return cutoff_thresholds(z, epsilon, *((c.numerator, c.denominator)
                                           for c in (mu - eta, mu + eta)))


def count_outcomes(seed: int, stream: int, zeta: int, z: Fraction,
                   epsilon: Fraction, lo: tuple, hi) -> tuple[int, int]:
    """(n_lesser, n_greater) over zeta trials of the stream's draw sequence,
    for the mass cutoffs lo and hi of `cutoff_thresholds`."""
    r_lo, r_hi = cutoff_thresholds(z, epsilon, lo, hi)
    if r_lo == _FULL:          # every draw is below the left cutoff
        return zeta, 0
    if r_hi == 0:              # every draw is above the right cutoff
        return 0, zeta
    # r_hi >= 1 here, so the strict form r > r_hi - 1 fits in 64 bits
    return count_thresholds(seed & M64, stream, zeta, r_lo, r_hi - 1)

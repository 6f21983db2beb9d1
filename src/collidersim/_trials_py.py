"""Pure-Python trial counting kernel, lane-packed into big integers.

Counts are bit-for-bit identical to the compiled loop in _trials.pyx and
to a draw-by-draw recount with rng.raw64(seed, stream, 2*k): trial k of
a batch consumes the even counter 2*k (the odd counters are reserved for
jitter draws, which a batch with N=0 never makes).

Instead of one interpreter turn per trial, one Python int carries _LANES
trials side by side.  Lane j is bits [128*j, 128*j + 128): its low half
holds a 64-bit splitmix64 state and its high half is zero padding.  The
padding is what makes whole-int arithmetic act lane by lane:

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

All arithmetic stays exact integer; nothing is approximated.
"""

from __future__ import annotations

_M = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN2 = 0xD1B54A32D192ED03
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

# 1024 to 4096 lanes time alike; fewer pay more interpreter overhead per
# trial, more spend longer on the partial last block of a batch.  A power
# of two, so that _lane_sum halves evenly.
_LANES = 2048
_ONES = int.from_bytes((1).to_bytes(16, "little") * _LANES, "little")
_MASK = _M * _ONES
_TOP = _ONES << 64
_STEP = ((_GOLDEN2 * 2 * _LANES) & _M) * _ONES    # pre-mix advance by one block


def _odd_lanes() -> int:
    """GOLDEN2*(2j + 1) mod 2^64 in lane j, for every lane.

    Each pass copies the n lanes built so far into lanes n..2n-1,
    advanced by 2n draws, so import costs O(log _LANES) whole-int steps.
    """
    odd, n = _GOLDEN2, 1
    while n < _LANES:
        low = (1 << (128 * n)) - 1
        step = (2 * n * _GOLDEN2) & _M
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
    s = (seed + _GOLDEN * (stream + 1)) & _M
    s ^= s >> 30
    s = (s * _C1) & _M
    s ^= s >> 27
    s = (s * _C2) & _M
    s ^= s >> 31

    mask, top = _MASK, _TOP
    bias_lo = ((1 << 64) - r_lo) * _ONES
    bias_hi = (_M - max(r_hi1, r_lo - 1)) * _ONES
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

"""Batched trial counting for fixed-precision runs.

A batch of zeta repeated queries only needs three counts (lesser,
greater, timeout), and with zero jitter and an exactly-known rational
target the per-trial decision reduces to comparing the raw 64-bit mass
draw against two integer thresholds.  The thresholds are computed here
once, exactly, with Fraction arithmetic; the counting then runs in
pure integer arithmetic, either in the optional compiled extension
(_trials.pyx, one trial per loop turn) or in the pure-Python kernel
(_trials_py.py), which packs thousands of trials into the lanes of one
big integer and counts them with a handful of whole-int operations.
Both give bit-for-bit identical counts.

Threshold derivation: the realized mass is m* = z - eps + 2*eps*r/2^64
for a raw draw r in [0, 2^64).  An answer requires a strictly early
arrival, i.e. |m* - mu| > eta, so

    lesser   <=>  m* < mu - eta  <=>  r < (mu - eta - z + eps) * 2^64 / (2 eps)
    greater  <=>  m* > mu + eta  <=>  r > (mu + eta - z + eps) * 2^64 / (2 eps)

and rounding those rational cutoffs to integers (ceil on the left,
floor on the right) preserves the strict comparisons exactly.
"""

from __future__ import annotations

from fractions import Fraction

try:  # compiled loop, built by setup.py when Cython and a C toolchain are present
    from . import _trials as _impl
    _ENGINE = "thresholds-c"
except ImportError:  # pragma: no cover - depends on build environment
    from . import _trials_py as _impl
    _ENGINE = "thresholds-py"

from . import _trials_py

_FULL = 1 << 64


def engine_name() -> str:
    return _ENGINE


def engines() -> dict:
    """Name -> counting callable, for tests and benchmarks."""
    found = {"thresholds-py": _trials_py.count_thresholds}
    if _ENGINE == "thresholds-c":
        found["thresholds-c"] = _impl.count_thresholds
    return found


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def thresholds(z: Fraction, epsilon: Fraction, mu: Fraction, eta: Fraction) -> tuple[int, int]:
    """Integer cutoffs (r_lo, r_hi): lesser <=> r < r_lo, greater <=> r >= r_hi."""
    if epsilon <= 0 or eta <= 0:
        raise ValueError("epsilon and eta must be positive")
    scale = Fraction(_FULL, 1) / (2 * epsilon)
    x_lo = (mu - eta - z + epsilon) * scale
    x_hi = (mu + eta - z + epsilon) * scale
    r_lo = min(max(_ceil(x_lo), 0), _FULL)
    r_hi = min(max(_floor(x_hi) + 1, 0), _FULL)
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
    return _impl.count_thresholds(seed & (_FULL - 1), stream, zeta, r_lo, r_hi - 1)

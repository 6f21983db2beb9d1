# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled trial counting loop.

Counts are bit-for-bit identical to _trials_py.count_thresholds, which
evaluates the same draws thousands at a time in the lanes of one big
integer; this loop takes them one per turn.  The constants are the
splitmix64 mixing constants used in rng.py.  All arithmetic is modulo
2^64 by virtue of the uint64_t type.
"""

from libc.stdint cimport uint64_t


cdef inline uint64_t _mix(uint64_t x) nogil:
    x ^= x >> 30
    x *= <uint64_t>0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= <uint64_t>0x94D049BB133111EB
    x ^= x >> 31
    return x


def count_thresholds(uint64_t seed, uint64_t stream, Py_ssize_t zeta,
                     uint64_t r_lo, uint64_t r_hi1):
    """Count draws r with r < r_lo and with r > r_hi1 over zeta trials."""
    cdef uint64_t s = _mix(seed + <uint64_t>0x9E3779B97F4A7C15 * (stream + 1))
    cdef uint64_t x
    cdef Py_ssize_t k
    cdef Py_ssize_t n_less = 0
    cdef Py_ssize_t n_great = 0
    with nogil:
        for k in range(zeta):
            x = _mix(s + <uint64_t>0xD1B54A32D192ED03 * (2 * <uint64_t>k + 1))
            if x < r_lo:
                n_less += 1
            elif x > r_hi1:
                n_great += 1
    return n_less, n_great

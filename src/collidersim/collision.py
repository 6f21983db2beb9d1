"""Elastic collision kinematics, kept exact.

A projectile of mass m is launched at speed u toward a stationary target
of mass mu sitting at distance r from the launch point, with a detector
flag back at the launch point and another at 2r.  After a perfectly
elastic head-on collision the projectile either bounces back (m < mu),
stops dead (m == mu), or follows through (m > mu), and the time until a
flag fires encodes |m - mu|: the closer the masses, the slower whichever
particle has to limp to a flag.

Everything here is Fraction arithmetic on purpose.  The whole point of
the construction is that timing carries unbounded information, and that
claim dies the moment a float rounds a velocity.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .dyadic import to_fraction


class Outcome(enum.Enum):
    """Verdict of one mass comparison."""

    LESSER = "lesser"        # test mass below the unknown
    GREATER = "greater"      # test mass above the unknown
    NO_RESULT = "no-result"  # equal masses: no flag ever fires
    TIMEOUT = "timeout"      # waiting budget exhausted first

    def __str__(self):
        return self.value


def post_collision_velocities(m, mu, u=1) -> tuple[Fraction, Fraction]:
    """Velocities (projectile, target) after the elastic collision.

    A zero-mass projectile is admitted as the limiting case: it reflects
    at full speed and leaves the target untouched.
    """
    m, mu, u = to_fraction(m), to_fraction(mu), to_fraction(u)
    if m < 0 or mu < 0:
        raise ValueError("masses must be nonnegative")
    s = m + mu
    if s == 0:
        raise ValueError("at least one mass must be positive")
    return (m - mu) / s * u, 2 * m / s * u


def momentum(m, v) -> Fraction:
    return to_fraction(m) * to_fraction(v)


def kinetic_energy(m, v) -> Fraction:
    v = to_fraction(v)
    return to_fraction(m) * v * v / 2


def experiment_time(m, mu, u=1, r=1):
    """Time from launch until a detector flag fires.

    The projectile travels r to the target, then the surviving motion
    covers another r back (bounce) or onward (follow-through) at speed
    |m - mu| / (m + mu) * u.  Equal masses freeze both particles' useful
    motion relative to the flags, so the answer is +infinity.
    """
    m, mu, u, r = to_fraction(m), to_fraction(mu), to_fraction(u), to_fraction(r)
    if m < 0 or mu < 0:
        raise ValueError("masses must be nonnegative")
    if u <= 0 or r <= 0:
        raise ValueError("launch speed and flag distance must be positive")
    if m == mu:
        return math.inf
    return (r / u) * (m + mu) / abs(m - mu)


def time_gap_product(m, mu, u=1, r=1) -> Fraction:
    """experiment_time * |m - mu|, which the kinematics fix at (m + mu) r / u.

    This is the exact tradeoff behind the whole protocol: resolving a
    mass gap of 2**-n costs time proportional to 2**n, no matter how the
    experiment is tuned, because this product cannot be reduced below
    (m + mu) r / u.
    """
    m, mu, u, r = to_fraction(m), to_fraction(mu), to_fraction(u), to_fraction(r)
    return (m + mu) * r / u


def time_bounds(gap, u=1, r=1, mass_low=0, mass_high=1) -> tuple[Fraction, Fraction]:
    """Range of possible experiment times given only |m - mu| = gap.

    With both masses confined to [mass_low, mass_high] the sum m + mu is
    pinned between max(gap, 2*mass_low) and 2*mass_high, so the time
    lands in [A/gap, B/gap] with A, B depending only on the apparatus.
    """
    gap, u, r = to_fraction(gap), to_fraction(u), to_fraction(r)
    lo, hi = to_fraction(mass_low), to_fraction(mass_high)
    if gap <= 0:
        raise ValueError("gap must be positive")
    if not 0 <= lo < hi:
        raise ValueError("need 0 <= mass_low < mass_high")
    s_min = max(gap, 2 * lo)
    s_max = 2 * hi
    return (r / u) * s_min / gap, (r / u) * s_max / gap


def classify_outcome(m, mu) -> Outcome:
    """Idealized unlimited-time verdict for exact masses."""
    m, mu = to_fraction(m), to_fraction(mu)
    if m < mu:
        return Outcome.LESSER
    if m > mu:
        return Outcome.GREATER
    return Outcome.NO_RESULT


def uncertainty_product(m, mu, u=1, r=1) -> Fraction:
    """The literal product |m - mu| * experiment_time; demands distinct masses.

    Algebraically this collapses to (m + mu) * r / u; computing it as a
    product keeps the identity an observable fact rather than a
    definition.
    """
    m, mu = to_fraction(m), to_fraction(mu)
    if m == mu:
        raise ValueError("equal masses have no finite experiment time")
    return abs(m - mu) * experiment_time(m, mu, u=u, r=r)


import math
import random
from fractions import Fraction

import pytest

from collidersim.collision import (Outcome, classify_outcome,
                                   experiment_time, kinetic_energy, momentum,
                                   post_collision_velocities, time_bounds,
                                   time_gap_product, uncertainty_product)


def random_fraction(rnd, max_den=1000, positive=False):
    q = rnd.randrange(1, max_den)
    p = rnd.randrange(1 if positive else 0, max_den)
    return Fraction(p, q)


class TestVelocities:
    def test_conservation_laws(self):
        rnd = random.Random(101)
        for _ in range(500):
            m = random_fraction(rnd, positive=True)
            mu = random_fraction(rnd, positive=True)
            u = random_fraction(rnd, positive=True)
            vm, vmu = post_collision_velocities(m, mu, u)
            assert momentum(m, vm) + momentum(mu, vmu) == momentum(m, u)
            assert kinetic_energy(m, vm) + kinetic_energy(mu, vmu) == kinetic_energy(m, u)

    @pytest.mark.parametrize("args", [(0.5, Fraction(1, 2)), (Fraction(1, 2), 0.25),
                                      (Fraction(1, 2), Fraction(1, 4), 1.0)])
    def test_float_arguments_are_refused(self, args):
        with pytest.raises(TypeError, match="is a float"):
            post_collision_velocities(*args)

    def test_equal_masses_swap(self):
        vm, vmu = post_collision_velocities(Fraction(2, 7), Fraction(2, 7), Fraction(3))
        assert vm == 0
        assert vmu == 3

    def test_lighter_projectile_bounces(self):
        vm, vmu = post_collision_velocities(Fraction(1, 3), Fraction(1, 2), 1)
        assert vm == Fraction(-1, 5)
        assert vmu == Fraction(4, 5)

    def test_heavier_projectile_follows_through(self):
        vm, _ = post_collision_velocities(Fraction(1, 2), Fraction(1, 3), 1)
        assert vm > 0

    def test_zero_mass_projectile_reflects(self):
        vm, vmu = post_collision_velocities(0, Fraction(1, 2), 1)
        assert vm == -1
        assert vmu == 0

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            post_collision_velocities(-1, 1)
        with pytest.raises(ValueError):
            post_collision_velocities(0, 0)


class TestExperimentTime:
    def test_formula_on_random_rationals(self):
        rnd = random.Random(202)
        for _ in range(500):
            m = random_fraction(rnd)
            mu = random_fraction(rnd)
            u = random_fraction(rnd, positive=True)
            r = random_fraction(rnd, positive=True)
            if m == mu:
                continue
            t = experiment_time(m, mu, u, r)
            assert t == (r / u) * (m + mu) / abs(m - mu)

    def test_time_is_distance_over_recoil_speed(self):
        # the surviving motion covers r at speed |m - mu|/(m + mu) * u
        m, mu, u, r = Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(5)
        vm, _ = post_collision_velocities(m, mu, u)
        assert experiment_time(m, mu, u, r) == r / abs(vm)

    def test_equal_masses_never_finish(self):
        assert experiment_time(Fraction(1, 2), Fraction(1, 2)) == math.inf

    def test_closer_masses_take_longer(self):
        mu = Fraction(1, 3)
        times = [experiment_time(mu + Fraction(1, 1 << k), mu) for k in range(2, 12)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_product_law(self):
        rnd = random.Random(303)
        for _ in range(300):
            m = random_fraction(rnd)
            mu = random_fraction(rnd)
            u = random_fraction(rnd, positive=True)
            r = random_fraction(rnd, positive=True)
            assert time_gap_product(m, mu, u, r) == (m + mu) * r / u
            if m != mu:
                assert abs(m - mu) * experiment_time(m, mu, u, r) == \
                    time_gap_product(m, mu, u, r)


class TestTimeBounds:
    def test_bracket_contains_actual_time(self):
        rnd = random.Random(404)
        for _ in range(300):
            m = random_fraction(rnd)
            mu = random_fraction(rnd)
            if m == mu or m > 1 or mu > 1:
                continue
            lo, hi = time_bounds(abs(m - mu))
            assert lo <= experiment_time(m, mu) <= hi

    def test_rejects_zero_gap(self):
        with pytest.raises(ValueError):
            time_bounds(0)

    def test_accuracy_floor_doubles_per_digit(self):
        lo = Fraction(1, 8)
        # no run certifies |m - mu| <= 2**-n faster than the floor at that gap
        vals = [time_bounds(Fraction(1, 1 << n), mass_low=lo)[0] for n in range(3, 10)]
        for n, v in zip(range(3, 10), vals):
            assert v == 2 * lo * (1 << n)
        assert all(b == 2 * a for a, b in zip(vals, vals[1:]))


class TestClassification:
    def test_exact(self):
        assert classify_outcome(Fraction(1, 4), Fraction(1, 3)) is Outcome.LESSER
        assert classify_outcome(Fraction(1, 2), Fraction(1, 3)) is Outcome.GREATER
        assert classify_outcome(Fraction(1, 3), Fraction(1, 3)) is Outcome.NO_RESULT


class TestUncertaintyProduct:
    def test_equals_closed_form(self):
        rnd = random.Random(505)
        for _ in range(200):
            m = random_fraction(rnd)
            mu = random_fraction(rnd)
            if m == mu:
                continue
            u = random_fraction(rnd, positive=True)
            r = random_fraction(rnd, positive=True)
            assert uncertainty_product(m, mu, u, r) == (m + mu) * r / u

    def test_equal_masses_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_product(Fraction(1, 3), Fraction(1, 3))

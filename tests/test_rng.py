from collidersim import rng


class TestMix64:
    def test_reference_vectors(self):
        # first three outputs of splitmix64 from state 0, published values
        s = 0
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        for want in expected:
            s = (s + rng.GOLDEN) & rng.M64
            assert rng.mix64(s) == want

    def test_range(self):
        for z in (0, 1, rng.M64, 0x123456789ABCDEF0):
            assert 0 <= rng.mix64(z) <= rng.M64


class TestRaw64:
    def test_frozen_values(self):
        assert rng.raw64(0, 0, 0) == 0x2FF145472E2746D6
        assert rng.raw64(0, 0, 1) == 0x7B575A03C5870447
        assert rng.raw64(0, 1, 0) == 0x26F3A00703FD88C5
        assert rng.raw64(1, 0, 0) == 0xD7D81100B6269FB5
        assert rng.raw64(42, 7, 123456) == 0xD5F9DE65F056215F

    def test_counter_is_stateless(self):
        # same triple always gives the same draw, in any order
        a = rng.raw64(9, 3, 100)
        _ = [rng.raw64(9, 3, c) for c in range(5)]
        assert rng.raw64(9, 3, 100) == a

    def test_streams_decorrelate(self):
        vals = {rng.raw64(5, s, 0) for s in range(64)}
        assert len(vals) == 64

    def test_counters_decorrelate(self):
        vals = {rng.raw64(5, 0, c) for c in range(64)}
        assert len(vals) == 64

    def test_rough_uniformity(self):
        # quartile occupancy of 4000 draws; a crude sanity check only
        buckets = [0] * 4
        for c in range(4000):
            buckets[rng.raw64(1, 2, c) >> 62] += 1
        assert all(800 < b < 1200 for b in buckets)


class TestDeriveSeed:
    def test_children_differ(self):
        kids = {rng.derive_seed(77, i) for i in range(100)}
        assert len(kids) == 100

    def test_deterministic(self):
        assert rng.derive_seed(0, 0) == rng.derive_seed(0, 0)
        assert rng.derive_seed(0, 1) != rng.derive_seed(1, 0)

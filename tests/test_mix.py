import random

from icmpscope._mix import mix_unit, mix_units


def test_mix_units_equals_mix_unit_bit_for_bit():
    rng = random.Random(64)
    for _ in range(200):
        a = rng.getrandbits(64)
        c = rng.choice([0, 1, 2, 3, 297, 298, rng.getrandbits(16)])
        bs = [rng.randrange(1 << 40) for _ in range(rng.randint(0, 60))]
        bs += [0, 1, (1 << 40) - 1]
        assert mix_units(a, bs, c) == [mix_unit(a, b, c) for b in bs]
    assert mix_units(7, [], 5) == []


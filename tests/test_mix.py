import random

from oracles import mix_unit

from icmpscope._mix import U64, fold_key, mix64, mix64_folded, mix_units


def test_mix_units_equals_mix_unit_bit_for_bit():
    rng = random.Random(64)
    for _ in range(200):
        a = rng.getrandbits(64)
        c = rng.choice([0, 1, 2, 3, 297, 298, rng.getrandbits(16)])
        bs = [rng.randrange(1 << 40) for _ in range(rng.randint(0, 60))]
        bs += [0, 1, (1 << 40) - 1]
        assert mix_units(fold_key(a, c), bs) == [mix_unit(a, b, c) for b in bs]
    assert mix_units(fold_key(7, 5), []) == []


def test_mix64_keeps_its_values_folded_or_not():
    # Values of the unfolded three-part hash, which discovery's targets use.
    cases = {
        (0, 0, 0): 16294208416658607535,
        (1, 2, 3): 17099215910892161420,
        ((1 << 64) - 1, (1 << 64) - 1, 400): 17644070612004249915,
        (55, 10**30, 7): 1892445930368331615,
    }
    for (a, b, c), value in cases.items():
        assert mix64(a, b, c) == mix64_folded(fold_key(a, c), b) == value
    rng = random.Random(65)
    for _ in range(200):
        a, b, c = rng.getrandbits(64), rng.getrandbits(64), rng.getrandbits(16)
        assert mix64_folded(fold_key(a, c), b) / U64 == mix_unit(a, b, c)

import random
import struct

import pytest

from oracles import mix_unit

from icmpscope._mix import U64, fold_key, mix64, mix64_folded, mix_units, mix_words


def test_mix_units_equals_mix_unit_bit_for_bit():
    """The 28-lane kernel against the scalar hash at every chunk boundary up
    to 60 values and around four chunks (111-113) and six (168), for link
    keys, keys above 2**64 and keys below 0, with the end uids 0 and
    2**64 - 1 in any lane, from a list or an iterator."""
    rng = random.Random(64)
    top = (1 << 64) - 1
    for length in [*range(61), 111, 112, 113, 168]:
        bs = [rng.choice([0, top, rng.getrandbits(64), rng.getrandbits(40)]) for _ in range(length)]
        keys = [
            (rng.getrandbits(64), rng.choice([0, 1, 2, 3, 297, 298, rng.getrandbits(16)])),
            (rng.getrandbits(64), (1 << 79) | rng.getrandbits(79)),
            (-1 - rng.getrandbits(64), rng.getrandbits(16)),
        ]
        for a, c in keys:
            assert mix_units(fold_key(a, c), bs) == [mix_unit(a, b, c) for b in bs]
        assert fold_key(*keys[1]) > top and fold_key(*keys[2]) < 0
        assert mix_units(fold_key(a, c), iter(bs)) == [mix_unit(a, b, c) for b in bs]


def test_mix_words_keyed_lanes_equal_mix64_folded_bit_for_bit():
    """The keyed pass, a different key in every lane, against the scalar hash
    at the same lengths and end uids as above. Lanes take link keys, keys
    above 2**64 and keys below 0 in turn, so every pass mixes all three; a
    list of one key repeated gives what that key as one int gives."""
    rng = random.Random(66)
    top = (1 << 64) - 1
    kinds = [
        lambda: fold_key(rng.getrandbits(64), rng.choice([0, 1, 297, rng.getrandbits(16)])),
        lambda: fold_key(rng.getrandbits(64), (1 << 79) | rng.getrandbits(79)),
        lambda: fold_key(-1 - rng.getrandbits(64), rng.getrandbits(16)),
    ]
    for length in [*range(61), 111, 112, 113, 168]:
        bs = [rng.choice([0, top, rng.getrandbits(64), rng.getrandbits(40)]) for _ in range(length)]
        keys = [kinds[i % 3]() for i in range(length)]
        expected = [mix64_folded(k, b) for k, b in zip(keys, bs)]
        assert mix_words(keys, bs) == expected
        assert mix_words(iter(keys), iter(bs)) == expected
        if length >= 3:
            assert len(set(keys)) == length and max(keys) > top and min(keys) < 0
        if keys:
            assert mix_words([keys[2 % length]] * length, bs) == mix_words(keys[2 % length], bs)


def test_mix_units_rejects_a_uid_outside_64_bits():
    for bad in (1 << 64, (1 << 64) + 3, -1):
        with pytest.raises(struct.error):
            mix_units(fold_key(3, 4), [1, 2, bad])


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

"""Splittable deterministic hashing for per-packet randomness.

A splitmix64 finalizer over folded key parts. Used wherever a draw must be a
pure function of (seed, identity) rather than of call order: link loss and
jitter keyed by packet uid, and per-target interface identifiers keyed by
(prefix, index).

XOR is associative, so the key parts ``a`` and ``c`` of ``mix64(a, b, c)``
fold into one key ahead of time, as a simulated link does with its seed and
draw index.

``mix_words`` runs the finalizer on 28 values at once, packed into one int:
value ``i`` fills the low half of the 128-bit lane at bit ``128 * i``. A
64 by 64-bit product fits in its lane, so one multiply of the whole int
multiplies every lane, and a mask after each multiply and each xor-shift
clears the high halves, so no bit reaches the next lane before a multiply.
The keys are packed the same way, one per lane, so one pass serves draws
under different keys (discovery's targets, one prefix per lane); a single
key for every lane is spread by one multiply instead, and ``mix_units`` is
that case mapped to [0, 1).
28 lanes make a 481-byte ``bytes`` and ints of at most 504 bytes, so every
temporary stays in CPython's small-object allocator (up to 512 bytes), and a
56-packet injection slice is two passes. A short chunk is padded with zeros
by ``list.extend``, never by a tuple: tuples of 20 items or fewer go to
CPython's per-size free lists, which keep their memory, and padding with a
slice of a zero tuple raised a reach campaign's exact RSS growth (Rss from
``/proc/self/smaps_rollup``) from 576 to 1,030 KB.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from itertools import repeat

_MASK64 = (1 << 64) - 1
U64 = float(1 << 64)

_LANES = 28
_LANE = struct.Struct("<" + "Q8x" * _LANES)  # raises on a value outside [0, 2**64)
_pack = _LANE.pack
_REP = int.from_bytes(_pack(*repeat(1, _LANES)), "little")  # 1 in every lane
_LOW = _REP * _MASK64  # the low half of every lane
_ADD = _REP * 0x9E3779B97F4A7C15
FOLD = 0x94D049BB133111EB  # folds key part ``c`` into ``a``


def fold_key(a: int, c: int) -> int:
    """The key ``mix64_folded`` and ``mix_words`` take for parts ``a`` and ``c``."""
    return a ^ (c * FOLD)


def mix64(a: int, b: int, c: int) -> int:
    """64-bit hash of three integer key parts."""
    return mix64_folded(a ^ (c * FOLD), b)


def mix64_folded(key: int, b: int) -> int:
    """``mix64(a, b, c)`` for ``key = fold_key(a, c)``; masking after the add alone keeps its low 64 bits."""
    z = ((key ^ (b * 0xBF58476D1CE4E5B9)) + 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_words(keys: int | Iterable[int], bs: Iterable[int]) -> list[int]:
    """``[mix64_folded(k, b) for k, b in zip(keys, bs)]``, bit for bit, 28
    lanes per pass. ``keys`` holds one key per lane, or is one int for every
    lane; any int is a key, but every ``b`` must lie in ``[0, 2**64)``."""
    lanes = list(bs)
    n = len(lanes)
    pad = -n % _LANES
    lanes.extend(repeat(0, pad))
    if isinstance(keys, int):
        per_lane, k = None, (keys & _MASK64) * _REP
    else:
        per_lane = [key & _MASK64 for key in keys]
        per_lane.extend(repeat(0, pad))
    words: list[int] = []
    for start in range(0, n, _LANES):
        if per_lane is not None:
            k = int.from_bytes(_pack(*per_lane[start:start + _LANES]), "little")
        z = int.from_bytes(_pack(*lanes[start:start + _LANES]), "little") * 0xBF58476D1CE4E5B9 & _LOW
        z = ((z ^ k) + _ADD) & _LOW
        z = (z ^ z >> 30) & _LOW
        z = z * 0xBF58476D1CE4E5B9 & _LOW
        z = (z ^ z >> 27) & _LOW
        z = z * 0x94D049BB133111EB & _LOW
        words += _LANE.unpack((z ^ z >> 31).to_bytes(_LANE.size, "little"))
    del words[n:]
    return words


def mix_units(key: int, bs: Iterable[int]) -> list[float]:
    """``[mix64_folded(key, b) / U64 for b in bs]``, bit for bit."""
    return [w / U64 for w in mix_words(key, bs)]

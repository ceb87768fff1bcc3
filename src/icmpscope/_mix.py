"""Splittable deterministic hashing for per-packet randomness.

A splitmix64 finalizer over folded key parts. Used wherever a draw must be a
pure function of (seed, identity) rather than of call order: link loss and
jitter keyed by packet uid, and per-target interface identifiers keyed by
(prefix, index).
"""

from __future__ import annotations

from collections.abc import Iterable

_MASK64 = (1 << 64) - 1
_U64 = float(1 << 64)


def mix64(a: int, b: int, c: int) -> int:
    """64-bit hash of three integer key parts."""
    z = (a ^ (b * 0xBF58476D1CE4E5B9) ^ (c * 0x94D049BB133111EB)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_unit(a: int, b: int, c: int) -> float:
    """Same hash mapped to [0, 1)."""
    return mix64(a, b, c) / _U64


def mix_units(a: int, bs: Iterable[int], c: int) -> list[float]:
    """``[mix_unit(a, b, c) for b in bs]``, bit for bit, in one loop.

    XOR is associative, so the ``a`` and ``c`` parts fold once per call, and
    masking after the add alone keeps the same low 64 bits.
    """
    ac = a ^ (c * 0x94D049BB133111EB)
    out = []
    append = out.append
    for b in bs:
        z = ((ac ^ (b * 0xBF58476D1CE4E5B9)) + 0x9E3779B97F4A7C15) & _MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        append((z ^ (z >> 31)) / _U64)
    return out

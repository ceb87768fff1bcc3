"""Splittable deterministic hashing for per-packet randomness.

A splitmix64 finalizer over folded key parts. Used wherever a draw must be a
pure function of (seed, identity) rather than of call order: link loss and
jitter keyed by packet uid, and per-target interface identifiers keyed by
(prefix, index).

XOR is associative, so the key parts ``a`` and ``c`` of ``mix64(a, b, c)``
fold into one key ahead of time, as a simulated link does with its seed and
draw index.
"""

from __future__ import annotations

from collections.abc import Iterable

_MASK64 = (1 << 64) - 1
U64 = float(1 << 64)


def fold_key(a: int, c: int) -> int:
    """The key ``mix64_folded`` and ``mix_units`` take for parts ``a`` and ``c``."""
    return a ^ (c * 0x94D049BB133111EB)


def mix64(a: int, b: int, c: int) -> int:
    """64-bit hash of three integer key parts."""
    return mix64_folded(a ^ (c * 0x94D049BB133111EB), b)


def mix64_folded(key: int, b: int) -> int:
    """``mix64(a, b, c)`` for ``key = fold_key(a, c)``; masking after the add alone keeps its low 64 bits."""
    z = ((key ^ (b * 0xBF58476D1CE4E5B9)) + 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_units(key: int, bs: Iterable[int]) -> list[float]:
    """``[mix64_folded(key, b) / U64 for b in bs]``, bit for bit, in one loop."""
    out = []
    append = out.append
    for b in bs:
        z = ((key ^ (b * 0xBF58476D1CE4E5B9)) + 0x9E3779B97F4A7C15) & _MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        append((z ^ (z >> 31)) / U64)
    return out

"""Sorted closed integer spans: merge them once, then find one by bisection.

Address prefixes become spans ``[first, last]`` of 128-bit integers. Every
span lookup in the package goes through ``SpanTable``: the simulator's cut
table and site resolution, discovery's prefix assignment, and the config's
served-prefix checks. Hot paths may bisect ``los`` and ``his`` inline.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from ipaddress import IPv6Network
from typing import Generic, TypeVar

T = TypeVar("T")


def prefix_span(net: IPv6Network) -> tuple[int, int]:
    """``(first, last)`` address of ``net`` as ints, without caching address
    objects on ``net`` as ``net[0]`` and ``net[-1]`` do."""
    lo = int(net.network_address)
    return lo, lo | ((1 << (128 - net.prefixlen)) - 1)


def merge_spans(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort closed spans and fuse any that overlap, nest or touch."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class SpanTable(Generic[T]):
    """Closed spans ``(lo, hi, value)`` held as parallel lists sorted by ``lo``."""

    __slots__ = ("los", "his", "values")

    def __init__(self, spans: Iterable[tuple[int, int, T]]) -> None:
        ordered = sorted(spans, key=lambda s: (s[0], s[1]))
        self.los = [s[0] for s in ordered]
        self.his = [s[1] for s in ordered]
        self.values = [s[2] for s in ordered]

    def overlaps(self) -> bool:
        """True when some span starts at or before the end of its predecessor."""
        return any(lo <= hi for lo, hi in zip(self.los[1:], self.his))

    def find(self, key: int) -> T | None:
        """Value of the last span starting at or below ``key``, if it reaches ``key``.

        For disjoint spans that is the span holding ``key``.
        """
        i = bisect_right(self.los, key) - 1
        if i >= 0 and key <= self.his[i]:
            return self.values[i]
        return None

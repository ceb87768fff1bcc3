"""ICMP rate limiter models used by simulated routers.

The token bucket follows the discrete-placement behavior of common vendor
implementations: refills grant whole tokens only, one per elapsed refill
interval, so the placement schedule stays on a fixed grid anchored at the
bucket's creation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from icmpscope.model import IcmpKind


class LimiterScope(Enum):
    GLOBAL = "global"
    PER_SOURCE = "per_source"


_PER_SOURCE = LimiterScope.PER_SOURCE  # an Enum member costs a class lookup per read


@dataclass(frozen=True, slots=True)
class TokenBucket:
    """Bucket of ``capacity`` tokens; one new token every ``refill_interval_ms``."""

    capacity: int
    refill_interval_ms: int
    scope: LimiterScope = LimiterScope.GLOBAL

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.refill_interval_ms < 1:
            raise ValueError("refill_interval_ms must be >= 1")


@dataclass(frozen=True, slots=True)
class StrictSingle:
    """At most one ICMP message of a given kind per window."""

    window_ms: int

    def __post_init__(self) -> None:
        if self.window_ms < 1:
            raise ValueError("window_ms must be >= 1")


@dataclass(frozen=True, slots=True)
class Unlimited:
    """No rate limiting at all."""


RateLimiterSpec = TokenBucket | StrictSingle | Unlimited


@dataclass(frozen=True, slots=True)
class TokenBucketState:
    tokens: int
    last_refill: int


def _refill(tokens: int, last: int, spec: TokenBucket, now: int) -> tuple[int, int]:
    """The refill rule: ``(tokens, last_refill)`` at ``now``, before any grant.

    While draining, ``last_refill`` advances by exactly the placed intervals
    so fractional progress toward the next token is never lost. A refill that
    fills the bucket re-anchors the grid at ``now``: placement into a full
    bucket is wasted, and the interval clock restarts when consumption
    resumes, so every burst against a recovered bucket behaves identically.
    """
    elapsed = now - last
    interval = spec.refill_interval_ms
    if elapsed >= interval:
        placed = elapsed // interval
        if tokens + placed >= spec.capacity:
            return spec.capacity, now
        tokens += placed
        last += placed * interval
    assert 0 <= tokens <= spec.capacity
    return tokens, last


def bucket_try_consume(state: TokenBucketState, spec: TokenBucket, now: int) -> tuple[bool, TokenBucketState]:
    """Refill by whole elapsed intervals (``_refill``), then grant one token
    if available."""
    tokens, last = _refill(state.tokens, state.last_refill, spec, now)
    if tokens >= 1:
        return True, TokenBucketState(tokens - 1, last)
    return False, TokenBucketState(tokens, last)


class LimiterBank:
    """Per-router limiter state, independent per ICMP kind (and per source
    for per-source-scoped buckets). States are created lazily, full, on first
    demand so the refill grid anchors at first use. A token bucket keeps a
    ``(tokens, last_refill)`` tuple, a strict single limiter its last emission.
    """

    __slots__ = ("spec", "_states")

    def __init__(self, spec: RateLimiterSpec) -> None:
        self.spec = spec
        self._states: dict[tuple[IcmpKind, int | None], tuple[int, int] | int] = {}

    def try_emit(self, kind: IcmpKind, src: int, now: int) -> bool:
        spec = self.spec
        if isinstance(spec, TokenBucket):
            key = (kind, src if spec.scope is _PER_SOURCE else None)
            tokens, last = self._states.get(key) or (spec.capacity, now)
            tokens, last = _refill(tokens, last, spec, now)
            if tokens >= 1:
                self._states[key] = (tokens - 1, last)
                return True
            self._states[key] = (tokens, last)
            return False
        if isinstance(spec, Unlimited):
            return True
        # StrictSingle: one message per rolling window, per kind.
        key = (kind, None)
        last_emit = self._states.get(key)
        if last_emit is None or now - last_emit >= spec.window_ms:  # type: ignore[operator]
            self._states[key] = now
            return True
        return False

"""Deterministic simulated IPv6 internet with configurable ICMP rate limiting."""

from icmpscope.simnet.config import (
    LimiterScope,
    LinkModel,
    RateLimitClass,
    SimConfig,
    SimConfigError,
    SimHost,
    SimRouter,
    StrictSingle,
    TokenBucket,
    Unlimited,
    oracle_isav,
    oracle_rl_class,
)
from icmpscope.simnet.limiter import LimiterBank, TokenBucketState, bucket_try_consume
from icmpscope.simnet.world import SimWorld

__all__ = [
    "LimiterBank",
    "LimiterScope",
    "LinkModel",
    "RateLimitClass",
    "SimConfig",
    "SimConfigError",
    "SimHost",
    "SimRouter",
    "SimWorld",
    "StrictSingle",
    "TokenBucket",
    "TokenBucketState",
    "Unlimited",
    "bucket_try_consume",
    "oracle_isav",
    "oracle_rl_class",
]

"""Simulation configuration, JSON persistence, and ground-truth oracles.

The oracles answer directly from configuration: they exist so measurement
verdicts can be scored against known truth, something real networks do not
offer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path

from icmpscope._spans import SpanTable, prefix_span
from icmpscope.model import IcmpKind, parse_address, parse_prefix
from icmpscope.simnet.limiter import (
    LimiterScope,
    RateLimiterSpec,
    StrictSingle,
    TokenBucket,
    Unlimited,
)


class SimConfigError(ValueError):
    """Raised when a simulation configuration is inconsistent."""


class RateLimitClass(Enum):
    GLOBAL = "global"
    STRICT = "strict"
    LOOSE = "loose"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True, slots=True)
class SimHost:
    address: IPv6Address
    responds_to_echo: bool = True


@dataclass(frozen=True, slots=True)
class SimRouter:
    """A periphery router: the last hop before one customer subnet.

    It drops spoofed-inside packets arriving from outside when
    ``isav_ingress`` is set, answers pings to its own address when
    ``echo_responder`` is set, and originates ``error_kind`` messages for
    unreachable destinations inside ``served_prefix``, all subject to its
    rate limiter (independent state per ICMP kind).
    """

    address: IPv6Address
    served_prefix: IPv6Network
    limiter: RateLimiterSpec = field(default_factory=Unlimited)
    isav_ingress: bool = False
    echo_responder: bool = True
    error_kind: IcmpKind = IcmpKind.DEST_UNREACHABLE

    def __post_init__(self) -> None:
        if not self.error_kind.is_error:
            raise SimConfigError(f"router error_kind must be an error kind: {self.error_kind}")


@dataclass(frozen=True, slots=True)
class LinkModel:
    """One-way delay, symmetric jitter band, and per-packet loss of a link."""

    base_owd_ms: float
    jitter_frac: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.base_owd_ms < 0:
            raise SimConfigError("base_owd_ms must be >= 0")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise SimConfigError("jitter_frac must be in [0,1]")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise SimConfigError("loss_prob must be in [0,1]")


LinkKey = tuple[IPv6Address, IPv6Address]


def link_key(a: IPv6Address, b: IPv6Address) -> LinkKey:
    """Normalize an endpoint pair; links are undirected."""
    return (a, b) if int(a) <= int(b) else (b, a)


@dataclass
class SimConfig:
    """Whole simulated internet: one local prober, periphery routers with
    their subnets, links between sites, and directed cut edges."""

    prober: IPv6Address
    routers: list[SimRouter] = field(default_factory=list)
    hosts: list[SimHost] = field(default_factory=list)
    links: dict[LinkKey, LinkModel] = field(default_factory=dict)
    unreachable_pairs: set[tuple[IPv6Network, IPv6Address]] = field(default_factory=set)
    seed: int = 0

    def validate(self) -> None:
        seen: set[IPv6Address] = {self.prober}
        for r in self.routers:
            if r.address in seen:
                raise SimConfigError(f"duplicate address {r.address}")
            seen.add(r.address)
        for h in self.hosts:
            if h.address in seen:
                raise SimConfigError(f"duplicate address {h.address}")
            seen.add(h.address)

        served = SpanTable((*prefix_span(r.served_prefix), r) for r in self.routers)
        if served.overlaps():
            raise SimConfigError("router served prefixes overlap")

        for h in self.hosts:
            if served.find(int(h.address)) is None:
                raise SimConfigError(f"host {h.address} outside every served prefix")

        endpoints = {self.prober} | {r.address for r in self.routers}
        for (a, b), _model in self.links.items():
            if a not in endpoints or b not in endpoints:
                raise SimConfigError(f"link endpoint not a site address: {a} <-> {b}")
            if (a, b) != link_key(a, b):
                raise SimConfigError("link keys must be normalized via link_key()")

        if not 0 <= self.seed < 2**64:
            raise SimConfigError("seed must fit in 64 bits")

    # -- persistence ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "prober": str(self.prober),
            "seed": self.seed,
            "routers": [
                {
                    "address": str(r.address),
                    "served_prefix": str(r.served_prefix),
                    "limiter": _limiter_to_dict(r.limiter),
                    "isav_ingress": r.isav_ingress,
                    "echo_responder": r.echo_responder,
                    "error_kind": r.error_kind.value,
                }
                for r in self.routers
            ],
            "hosts": [
                {"address": str(h.address), "responds_to_echo": h.responds_to_echo}
                for h in self.hosts
            ],
            "links": [
                {
                    "a": str(a),
                    "b": str(b),
                    "base_owd_ms": m.base_owd_ms,
                    "jitter_frac": m.jitter_frac,
                    "loss_prob": m.loss_prob,
                }
                for (a, b), m in self.links.items()
            ],
            "unreachable_pairs": [
                {"src_prefix": str(p), "dst": str(d)}
                for p, d in sorted(self.unreachable_pairs, key=lambda e: (str(e[0]), str(e[1])))
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> SimConfig:
        cfg = cls(
            prober=parse_address(data["prober"]),
            seed=int(data.get("seed", 0)),
            routers=[
                SimRouter(
                    address=parse_address(r["address"]),
                    served_prefix=parse_prefix(r["served_prefix"]),
                    limiter=_limiter_from_dict(r["limiter"]),
                    isav_ingress=bool(r.get("isav_ingress", False)),
                    echo_responder=bool(r.get("echo_responder", True)),
                    error_kind=IcmpKind(r.get("error_kind", IcmpKind.DEST_UNREACHABLE.value)),
                )
                for r in data.get("routers", [])
            ],
            hosts=[
                SimHost(parse_address(h["address"]), bool(h.get("responds_to_echo", True)))
                for h in data.get("hosts", [])
            ],
            links={
                link_key(parse_address(l["a"]), parse_address(l["b"])): LinkModel(
                    base_owd_ms=float(l["base_owd_ms"]),
                    jitter_frac=float(l.get("jitter_frac", 0.0)),
                    loss_prob=float(l.get("loss_prob", 0.0)),
                )
                for l in data.get("links", [])
            },
            unreachable_pairs={
                (parse_prefix(e["src_prefix"]), parse_address(e["dst"]))
                for e in data.get("unreachable_pairs", [])
            },
        )
        cfg.validate()
        return cfg

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> SimConfig:
        return cls.from_dict(json.loads(Path(path).read_text()))


def _limiter_to_dict(spec: RateLimiterSpec) -> dict:
    if isinstance(spec, TokenBucket):
        return {
            "type": "token_bucket",
            "capacity": spec.capacity,
            "refill_interval_ms": spec.refill_interval_ms,
            "scope": spec.scope.value,
        }
    if isinstance(spec, StrictSingle):
        return {"type": "strict_single", "window_ms": spec.window_ms}
    return {"type": "unlimited"}


def _limiter_from_dict(data: dict) -> RateLimiterSpec:
    kind = data["type"]
    if kind == "token_bucket":
        return TokenBucket(
            capacity=int(data["capacity"]),
            refill_interval_ms=int(data["refill_interval_ms"]),
            scope=LimiterScope(data.get("scope", "global")),
        )
    if kind == "strict_single":
        return StrictSingle(window_ms=int(data["window_ms"]))
    if kind == "unlimited":
        return Unlimited()
    raise SimConfigError(f"unknown limiter type {kind!r}")


# -- ground-truth oracles ----------------------------------------------


def oracle_isav(cfg: SimConfig, prefix: IPv6Network) -> bool:
    """Configured ISAV ingress policy of the router serving ``prefix``."""
    for r in cfg.routers:
        if r.served_prefix == prefix:
            return r.isav_ingress
    raise KeyError(f"no router serves prefix {prefix}")


def oracle_rl_class(cfg: SimConfig, addr: IPv6Address, kind: IcmpKind) -> RateLimitClass:
    """Configured rate-limiting class of the router at ``addr`` for ``kind``.

    A globally scoped token bucket is the exploitable Global class, a
    single-message limiter is Strict, no limiter at all is Loose, and a
    per-source bucket is invisible to noise from other sources, hence
    Unclassified.
    """
    del kind  # one limiter spec per router; state is per kind, class is not
    for r in cfg.routers:
        if r.address == addr:
            spec = r.limiter
            if isinstance(spec, TokenBucket):
                if spec.scope is LimiterScope.GLOBAL:
                    return RateLimitClass.GLOBAL
                return RateLimitClass.UNCLASSIFIED
            if isinstance(spec, StrictSingle):
                return RateLimitClass.STRICT
            return RateLimitClass.LOOSE
    raise KeyError(f"no router at {addr}")

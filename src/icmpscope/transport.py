"""Send/receive layer between measurement engines and the packet substrate.

Engines describe what to send as a :class:`SendPlan` (offsets from plan
start) and what to keep as a :class:`CollectWindow`; ``execute`` is blocking
and one transport instance serves one engine at a time.

The simulated backend is the real implementation. The raw-network backend is
kept as a contract stub: it validates the same way but refuses to run, since
emitting spoofed traffic needs raw sockets, elevated privileges, and explicit
operator intent.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv6Address

from icmpscope.model import IcmpKind, IcmpObservation, ProbePacket
from icmpscope.simnet.config import SimConfig
from icmpscope.simnet.world import SimWorld

DEFAULT_MAX_PPS_PER_PREFIX = 200
DEFAULT_PACING_PREFIX_LEN = 48


class TransportError(Exception):
    """Backend failure or plan rejected by transport policy."""


@dataclass(frozen=True, slots=True)
class SendPlan:
    """Ordered packets with millisecond offsets from plan start."""

    packets: tuple[tuple[int, ProbePacket], ...]

    def __post_init__(self) -> None:
        last = 0
        for offset, pkt in self.packets:
            if offset < last:
                raise TransportError("plan offsets must be non-decreasing")
            last = offset
            if pkt.kind is not IcmpKind.ECHO_REQUEST:
                raise TransportError("plans may only emit echo requests")

    @property
    def span_ms(self) -> int:
        return self.packets[-1][0] if self.packets else 0


@dataclass(frozen=True, slots=True)
class ObservationFilter:
    """Predicate over observations: any criterion left as None is ignored."""

    kinds: frozenset[IcmpKind] | None = None
    origin: IPv6Address | None = None
    quoted_dst: IPv6Address | None = None
    probe_ids: frozenset[int] | None = None

    def matches(self, obs: IcmpObservation) -> bool:
        if self.kinds is not None and obs.kind not in self.kinds:
            return False
        if self.origin is not None and obs.origin != self.origin:
            return False
        if self.quoted_dst is not None and obs.quoted_dst != self.quoted_dst:
            return False
        if self.probe_ids is not None and obs.probe_id not in self.probe_ids:
            return False
        return True


@dataclass(frozen=True, slots=True)
class CollectWindow:
    """Collection interval, opening at the plan start."""

    duration_ms: int
    obs_filter: ObservationFilter | None = None

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise TransportError("window duration must be positive")


def _check_rate_cap(plan: SendPlan, max_pps: int, prefix_len: int) -> None:
    """Reject plans exceeding the per-destination-prefix packet rate.

    The cap is a hard courtesy limit: engines must bake compliant spacing into
    their plan offsets, because the transport never reshapes emission times.
    """
    if len(plan.packets) <= max_pps:
        return  # no prefix can hold more than max_pps packets
    shift = 128 - prefix_len
    per_prefix: dict[int, list[int]] = {}
    for offset, pkt in plan.packets:
        per_prefix.setdefault(int(pkt.dst) >> shift, []).append(offset)
    for times in per_prefix.values():
        for i in range(max_pps, len(times)):
            if times[i] - times[i - max_pps] < 1000:
                raise TransportError(
                    f"plan exceeds {max_pps} packets/s toward one /{prefix_len} prefix"
                )


class SimTransport:
    """Transport over a persistent simulated world.

    The world's limiter states, in-flight packets, and clock survive across
    ``execute`` calls, so consecutive measurements interact exactly the way
    consecutive real bursts would.
    """

    def __init__(
        self,
        cfg: SimConfig,
        *,
        max_pps_per_prefix: int = DEFAULT_MAX_PPS_PER_PREFIX,
        pacing_prefix_len: int = DEFAULT_PACING_PREFIX_LEN,
    ) -> None:
        self.world = SimWorld(cfg)
        self.max_pps_per_prefix = max_pps_per_prefix
        self.pacing_prefix_len = pacing_prefix_len
        self._now = 0

    @property
    def source_address(self) -> IPv6Address:
        return self.world.cfg.prober

    def now(self) -> int:
        return self._now

    def wait(self, duration_ms: int) -> None:
        """Idle for ``duration_ms``, letting in-flight traffic progress."""
        if duration_ms < 0:
            raise TransportError("cannot wait a negative duration")
        self._now += duration_ms
        self.world.run_until(self._now)

    def execute(self, plan: SendPlan, window: CollectWindow) -> list[IcmpObservation]:
        """Emit the plan at exact offsets and return matching observations.

        Blocks (in simulated time) until the window closes; the transport
        clock then stands at the window close.
        """
        _check_rate_cap(plan, self.max_pps_per_prefix, self.pacing_prefix_len)
        base = self._now
        self.world.inject(base, plan.packets)
        close_at = base + max(window.duration_ms, plan.span_ms)
        self.world.run_until(close_at)
        self._now = close_at
        out = []
        flt = window.obs_filter
        for obs in self.world.drain_observations():
            if obs.received_at < base or obs.received_at > close_at:
                continue
            if flt is None or flt.matches(obs):
                out.append(obs)
        return out


class RawTransport:
    """Contract stub for the raw-socket backend.

    The intended behavior mirrors :class:`SimTransport`: ``execute`` paces an
    echo-request plan onto a named interface, captures ICMPv6 responses, and
    filters them through the window. Spoofed sources are refused unless the
    operator passed ``allow_spoofing=True`` at construction. This build ships
    the contract only; constructing the class documents the requirements and
    ``execute`` always raises.
    """

    def __init__(
        self,
        interface: str,
        source_address: IPv6Address,
        *,
        allow_spoofing: bool = False,
        max_pps_per_prefix: int = DEFAULT_MAX_PPS_PER_PREFIX,
        pacing_prefix_len: int = DEFAULT_PACING_PREFIX_LEN,
    ) -> None:
        self.interface = interface
        self._source = source_address
        self.allow_spoofing = allow_spoofing
        self.max_pps_per_prefix = max_pps_per_prefix
        self.pacing_prefix_len = pacing_prefix_len
        self._now = 0

    @property
    def source_address(self) -> IPv6Address:
        return self._source

    def now(self) -> int:
        return self._now

    def wait(self, duration_ms: int) -> None:
        raise TransportError("raw backend is not included in this build")

    def execute(self, plan: SendPlan, window: CollectWindow) -> list[IcmpObservation]:
        _check_rate_cap(plan, self.max_pps_per_prefix, self.pacing_prefix_len)
        if not self.allow_spoofing:
            for _offset, pkt in plan.packets:
                if pkt.src != self._source:
                    raise TransportError(
                        "spoofed sources are disabled; construct with allow_spoofing=True"
                    )
        raise TransportError(
            "raw backend is not included in this build; it requires raw ICMPv6 "
            "sockets and elevated privileges on a real interface"
        )

"""Core domain types shared by every measurement engine.

Addresses and prefixes are the stdlib ``ipaddress`` types: ``IPv6Address``
already guarantees the canonical lowercase, zero-compressed text form we
persist, and ``IPv6Network`` enforces that no host bits are set below the
prefix length. Timestamps are integer milliseconds on whatever clock the
transport provides (simulated or wall). All types here are immutable values.

Between the engines and the simulator, addresses travel as plain ints: a
send plan's packets are ``(offset, src, dst, probe_id)`` rows (see
:class:`icmpscope.transport.SendPlan`), and an observation's ``origin`` and
``quoted_dst`` are ints. An ``IPv6Address`` is made only where a record
leaves the engines, such as the :class:`DataPair` that discovery keeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from ipaddress import IPv6Address, IPv6Network

# Spoofed sources share these prefix lengths with the real addresses: the
# local spoof must stay routable toward our network, the target-side spoof
# must fall inside the same small subnet as the remote router.
LOCAL_SPOOF_PREFIX_LEN = 80
TARGET_SPOOF_PREFIX_LEN = 124


class IcmpKind(Enum):
    """ICMPv6 message kinds the engines care about."""

    ECHO_REQUEST = "echo_request"
    ECHO_REPLY = "echo_reply"
    DEST_UNREACHABLE = "destination_unreachable"
    TIME_EXCEEDED = "time_exceeded"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and runs in C; Enum's own hashes the name in
    # Python, and the limiter and observation filters hash a kind per packet.
    __hash__ = object.__hash__

    @property
    def is_error(self) -> bool:
        return self in ERROR_KINDS


ERROR_KINDS = frozenset({IcmpKind.DEST_UNREACHABLE, IcmpKind.TIME_EXCEEDED})


def parse_address(text: str) -> IPv6Address:
    return IPv6Address(text.strip())


def parse_prefix(text: str) -> IPv6Network:
    """Parse a CIDR string, rejecting bases with bits below the prefix."""
    return IPv6Network(text.strip(), strict=True)


@dataclass(frozen=True, slots=True)
class DataPair:
    """A <target, periphery> pair: probing the unreachable target elicits
    ICMP errors from the periphery, which is the usable remote vantage point.
    """

    target: IPv6Address
    periphery: IPv6Address
    error_kind: IcmpKind = IcmpKind.DEST_UNREACHABLE
    discovered_at: int = 0

    def __post_init__(self) -> None:
        if not self.error_kind.is_error:
            raise ValueError(f"data pair requires an error kind, got {self.error_kind}")


@dataclass(frozen=True, slots=True)
class IcmpObservation:
    """One ICMP message received by the local prober.

    ``origin`` is the sender's address as an int. ``quoted_dst`` is the
    destination of the invoking packet, also an int, and is present exactly
    for error kinds (error messages quote the packet that triggered them).
    ``probe_id`` is the echoed correlation token carried in the probe's
    payload, which lets a stateless receiver match responses to its own
    probes even when sources are spoofed.
    """

    kind: IcmpKind
    origin: int
    quoted_dst: int | None = None
    received_at: int = 0
    probe_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind.is_error and self.quoted_dst is None:
            raise ValueError("error observations must carry quoted_dst")


PARAM_FLOORS = {"n_probe": 1, "m_noise": 0, "repeats": 1, "receive_window_ms": 1}  # of MeasurementParams


@dataclass(frozen=True, slots=True)
class MeasurementParams:
    """Knobs shared by the rcv-counting engines.

    n_probe: probe packets per burst (the replies we count).
    m_noise: noise packets interleaved into a burst to load the limiter.
    lam: decision ratio; a < b is only trusted when a < lam * b.
    repeats: bursts averaged per verdict.
    receive_window_ms: how long to collect after a burst starts.
    """

    n_probe: int = 50
    m_noise: int = 100
    lam: float = 0.6
    repeats: int = 10
    receive_window_ms: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must be in (0,1), got {self.lam}")
        for name, least in PARAM_FLOORS.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")


def _randomize_low_bits(addr: IPv6Address, keep_prefix_len: int, rng: random.Random) -> IPv6Address:
    """Random address sharing the top ``keep_prefix_len`` bits, never the input itself."""
    low_bits = 128 - keep_prefix_len
    base = (int(addr) >> low_bits) << low_bits
    while True:
        candidate = base | rng.getrandbits(low_bits)
        if candidate != int(addr):
            return IPv6Address(candidate)


def spoof_sources(
    local_vp: IPv6Address, rvp: IPv6Address, rng: random.Random
) -> tuple[IPv6Address, IPv6Address]:
    """Pick the two spoofed noise sources for one remote vantage point.

    Returns ``(local_spoof, target_spoof)``: the first shares the local
    prober's /80, the second shares the RVP's /124, and neither equals the
    address it was derived from. Deterministic for a given rng state.
    """
    local_spoof = _randomize_low_bits(local_vp, LOCAL_SPOOF_PREFIX_LEN, rng)
    target_spoof = _randomize_low_bits(rvp, TARGET_SPOOF_PREFIX_LEN, rng)
    return local_spoof, target_spoof

"""Boundary meter for every run: one ``perf_counter`` pair per execute call.

It wraps ``SimTransport.execute`` on the class, which every engine and the
CLI reach through their transport instance. Per call it adds the plan's
packet count to ``probes`` and the host time of the call to ``bursts_ns``.
At the first call it stamps the first-packet time and the set-up peak RSS.
That is everything the end-to-end metrics need. The only per-packet cost is
a count of ``LimiterBank.try_emit`` calls per limiter type, one dict
increment and no clock read, so that untraced and traced runs can be
compared on it. ``SimWorld.emitted`` is deliberately never read, because it
is slated for removal.
"""

from __future__ import annotations

import resource
import time
from collections import Counter

from icmpscope.simnet.limiter import LimiterBank, StrictSingle, TokenBucket, Unlimited
from icmpscope.transport import SimTransport

LIMITER_KINDS = {TokenBucket: "token_bucket", StrictSingle: "strict_single", Unlimited: "unlimited"}


class SetupDone(BaseException):
    """Raised at the first packet when a worker only measures set-up.

    It derives from BaseException so that no ``except Exception`` in the
    program under test swallows it.
    """


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ExecuteMeter:
    def __init__(self, *, stop_at_first_packet: bool = False) -> None:
        self.stop_at_first_packet = stop_at_first_packet
        self.first_packet_ns: int | None = None  # time.monotonic_ns()
        self.setup_rss_kb: int | None = None
        self.bursts_ns: list[int] = []
        self.probes = 0
        self.limiter_calls: Counter = Counter()
        self._transports: dict[int, tuple[SimTransport, int]] = {}

    def install(self) -> None:
        orig = SimTransport.execute
        meter = self
        clock = time.perf_counter_ns

        def execute(transport, plan, window):
            if meter.first_packet_ns is None:
                meter.first_packet_ns = time.monotonic_ns()
                meter.setup_rss_kb = peak_rss_kb()
                if meter.stop_at_first_packet:
                    raise SetupDone
            if id(transport) not in meter._transports:
                meter._transports[id(transport)] = (transport, transport.now())
            meter.probes += len(plan.packets)
            t0 = clock()
            out = orig(transport, plan, window)
            meter.bursts_ns.append(clock() - t0)
            return out

        SimTransport.execute = execute

        try_emit_orig = LimiterBank.try_emit
        limiter_calls = self.limiter_calls

        def try_emit(bank, kind, src, now):
            limiter_calls[type(bank.spec)] += 1
            return try_emit_orig(bank, kind, src, now)

        LimiterBank.try_emit = try_emit

    def totals(self) -> dict:
        """Deterministic simulation counts summed over every transport used."""
        packets = events = sim_ms = 0
        for transport, start_ms in self._transports.values():
            packets += transport.world._uid
            events += transport.world._seq
            sim_ms += transport.now() - start_ms
        totals = {
            "world_packets": packets,
            "world_events": events,
            "sim_s": sim_ms / 1000.0,
            "probes_sent": self.probes,
        }
        for spec, label in LIMITER_KINDS.items():
            totals[f"limiter.{label}.calls"] = self.limiter_calls[spec]
        return totals

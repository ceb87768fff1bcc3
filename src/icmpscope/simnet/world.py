"""Single-threaded discrete-event loop over the star topology.

Topology model: the local prober and one site per periphery router, where a
site is the router plus the subnet hosts inside its served prefix. Packets
cross exactly one link between sites (intra-site delivery is instantaneous),
so an echo over a symmetric link is observed after two one-way delays.

Everything is deterministic for a fixed config: loss and jitter draws are
keyed by (world seed, packet uid, link), packet uids are assigned in event
order, and heap ties break on a monotonic sequence number.

Lookups are indexed once at construction. Directed cut edges become, per
destination, one sorted list of merged source spans (nested, duplicate and
touching cut prefixes fused), so a packet's cut check is a single bisection;
served prefixes resolve to their site the same way. The world keeps no
per-packet log: ``_uid`` counts packets sent and ``_seq`` counts those that
were scheduled for arrival.

Second-order traffic matters here: an echo reply that lands on a router whose
served prefix contains an unreachable destination consumes that router's
error budget even though the resulting error message goes back to the reply's
source, not to the prober. That token drain is the observable side channel.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from ipaddress import IPv6Address

from icmpscope._mix import mix_unit as _mix_unit
from icmpscope._spans import SpanTable, merge_spans
from icmpscope.model import IcmpKind, IcmpObservation, ProbePacket
from icmpscope.simnet.config import SimConfig, SimConfigError
from icmpscope.simnet.limiter import LimiterBank


class _RouterRec:
    __slots__ = ("addr", "lo", "hi", "isav", "echo", "error_kind", "bank")

    def __init__(self, addr: int, lo: int, hi: int, isav: bool, echo: bool, error_kind: IcmpKind, bank: LimiterBank):
        self.addr = addr
        self.lo = lo
        self.hi = hi
        self.isav = isav
        self.echo = echo
        self.error_kind = error_kind
        self.bank = bank


class SimWorld:
    """Mutable simulation state: event heap, limiter banks, prober inbox."""

    def __init__(self, cfg: SimConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self._seed = cfg.seed
        self._prober = int(cfg.prober)
        self._heap: list[tuple] = []
        self._seq = 0
        self._uid = 0
        self.clock = 0
        self.observations: list[IcmpObservation] = []

        self._router_by_addr: dict[int, _RouterRec] = {}
        for r in cfg.routers:
            rec = _RouterRec(
                int(r.address),
                int(r.served_prefix[0]),
                int(r.served_prefix[-1]),
                r.isav_ingress,
                r.echo_responder,
                r.error_kind,
                LimiterBank(r.limiter),
            )
            self._router_by_addr[rec.addr] = rec
        # Served prefix -> router address; disjoint by config validation.
        self._prefix_site = SpanTable((rec.lo, rec.hi, rec.addr) for rec in self._router_by_addr.values()).find

        self._hosts: dict[int, tuple[bool, int]] = {}
        for h in cfg.hosts:
            site = self._prefix_site(int(h.address))
            assert site is not None  # guaranteed by config validation
            self._hosts[int(h.address)] = (h.responds_to_echo, site)

        self._links: dict[tuple[int, int], tuple[int, float, float, float]] = {}
        for idx, ((a, b), m) in enumerate(sorted(cfg.links.items(), key=lambda kv: (int(kv[0][0]), int(kv[0][1])))):
            self._links[(int(a), int(b))] = (idx, m.base_owd_ms, m.jitter_frac, m.loss_prob)

        # Cut source prefixes per destination, merged so that one bisection
        # answers "is the sender cut off?" even for nested or duplicate cuts.
        cut_spans: dict[int, list[tuple[int, int]]] = {}
        for prefix, dst in cfg.unreachable_pairs:
            cut_spans.setdefault(int(dst), []).append((int(prefix[0]), int(prefix[-1])))
        self._cuts_by_dst: dict[int, SpanTable[None]] = {
            dst: SpanTable((lo, hi, None) for lo, hi in merge_spans(spans))
            for dst, spans in cut_spans.items()
        }

        self._addr_cache: dict[int, IPv6Address] = {}

    # -- address/site resolution ----------------------------------------

    def _site_of(self, addr: int) -> int | None:
        if addr == self._prober:
            return addr
        if addr in self._router_by_addr:
            return addr
        h = self._hosts.get(addr)
        if h is not None:
            return h[1]
        return self._prefix_site(addr)

    def _addr(self, value: int) -> IPv6Address:
        cached = self._addr_cache.get(value)
        if cached is None:
            cached = IPv6Address(value)
            self._addr_cache[value] = cached
        return cached

    # -- event machinery -------------------------------------------------

    def inject(self, t_ms: int, pkt: ProbePacket) -> None:
        """Emit a probe from the local prober at absolute time ``t_ms``."""
        if pkt.kind is not IcmpKind.ECHO_REQUEST:
            raise ValueError("the prober injects only echo requests")
        self._send(
            t_ms, IcmpKind.ECHO_REQUEST, int(pkt.src), int(pkt.dst), None, pkt.probe_id, self._prober, self._prober
        )

    def _send(
        self,
        t: int,
        kind: IcmpKind,
        src: int,
        dst: int,
        quoted: int | None,
        pid: int | None,
        from_site: int,
        sender: int,
    ) -> None:
        uid = self._uid
        self._uid = uid + 1
        cut = self._cuts_by_dst.get(dst)
        if cut is not None:
            i = bisect_right(cut.los, sender)
            if i and sender <= cut.his[i - 1]:
                return
        to_site = self._site_of(dst)
        if to_site is None:
            return
        if to_site == from_site:
            delay = 0
        else:
            a, b = (from_site, to_site) if from_site <= to_site else (to_site, from_site)
            link = self._links.get((a, b))
            if link is None:
                return
            idx, base, jitter, loss = link
            if loss and _mix_unit(self._seed, uid, idx * 2) < loss:
                return
            if jitter:
                u = _mix_unit(self._seed, uid, idx * 2 + 1)
                delay = int(round(base * (1.0 + jitter * (2.0 * u - 1.0))))
            else:
                delay = int(round(base))
        self._seq += 1
        heappush(self._heap, (t + delay, self._seq, to_site, from_site, kind, src, dst, quoted, pid))

    def run_until(self, t_end: int) -> None:
        """Process every event with timestamp <= t_end."""
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            t, _seq, to_site, from_site, kind, src, dst, quoted, pid = heappop(heap)
            self.clock = t
            self._arrive(t, to_site, from_site, kind, src, dst, quoted, pid)
        if t_end > self.clock:
            self.clock = t_end

    def run_all(self) -> None:
        heap = self._heap
        while heap:
            t, _seq, to_site, from_site, kind, src, dst, quoted, pid = heappop(heap)
            self.clock = t
            self._arrive(t, to_site, from_site, kind, src, dst, quoted, pid)

    def _arrive(
        self,
        t: int,
        to_site: int,
        from_site: int,
        kind: IcmpKind,
        src: int,
        dst: int,
        quoted: int | None,
        pid: int | None,
    ) -> None:
        if to_site == self._prober:
            if dst == self._prober:
                self.observations.append(
                    IcmpObservation(
                        kind=kind,
                        origin=self._addr(src),
                        quoted_dst=self._addr(quoted) if quoted is not None else None,
                        received_at=t,
                        probe_id=pid,
                    )
                )
            return

        rec = self._router_by_addr[to_site]
        # Inbound source address validation: drop packets that claim a source
        # inside the served prefix but arrive from another site.
        if rec.isav and from_site != to_site and rec.lo <= src <= rec.hi:
            return

        if kind is IcmpKind.ECHO_REQUEST:
            if dst == rec.addr:
                if rec.echo and rec.bank.try_emit(IcmpKind.ECHO_REPLY, src, t):
                    self._send(t, IcmpKind.ECHO_REPLY, rec.addr, src, None, pid, to_site, rec.addr)
                return
            host = self._hosts.get(dst)
            if host is not None:
                if host[0]:
                    self._send(t, IcmpKind.ECHO_REPLY, dst, src, None, pid, to_site, dst)
                return
            if rec.lo <= dst <= rec.hi:
                if rec.bank.try_emit(rec.error_kind, src, t):
                    self._send(t, rec.error_kind, rec.addr, src, dst, pid, to_site, rec.addr)
            return

        if kind is IcmpKind.ECHO_REPLY:
            if dst == rec.addr or dst in self._hosts:
                return  # delivered; replies never trigger replies
            if rec.lo <= dst <= rec.hi:
                # Reply addressed to a dead host: the periphery answers with an
                # error toward the reply's source, spending a rate-limit token.
                if rec.bank.try_emit(rec.error_kind, src, t):
                    self._send(t, rec.error_kind, rec.addr, src, dst, pid, to_site, rec.addr)
            return

        # Error messages are absorbed wherever they land; no errors on errors.
        return

    def drain_observations(self) -> list[IcmpObservation]:
        out = self.observations
        self.observations = []
        return out


def run_events(cfg: SimConfig, injected: list[tuple[int, ProbePacket]]) -> list[IcmpObservation]:
    """One-shot simulation: inject the timed packets, run to quiescence, and
    return every ICMP message the prober observed, in arrival order.
    """
    last = None
    for t_ms, _pkt in injected:
        if last is not None and t_ms < last:
            raise SimConfigError("injected timestamps must be non-decreasing")
        last = t_ms
    world = SimWorld(cfg)
    for t_ms, pkt in injected:
        world.inject(t_ms, pkt)
    world.run_all()
    return world.observations

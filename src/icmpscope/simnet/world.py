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
served prefixes resolve to their site the same way. ``_route`` is the one
routing step (cut check, site, link). The world keeps no per-packet log:
``_uid`` counts packets sent and ``_seq`` counts those that were scheduled
for arrival.

The prober's probes enter a whole plan in one ``inject`` call, taken in
slices of up to ``_INJECT_SLICE`` packets: within a slice each destination is
routed once and each link draws its loss and jitter in one ``mix_units``
pass, yet every packet keeps the uid, the draws and the heap entry that one
``_send`` per packet would give it.

Second-order traffic matters here: an echo reply that lands on a router whose
served prefix contains an unreachable destination consumes that router's
error budget even though the resulting error message goes back to the reply's
source, not to the prober. That token drain is the observable side channel.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from heapq import heappop, heappush
from ipaddress import IPv6Address

from icmpscope._mix import mix_unit as _mix_unit
from icmpscope._mix import mix_units as _mix_units
from icmpscope._spans import SpanTable, merge_spans
from icmpscope.model import IcmpKind, IcmpObservation, ProbePacket
from icmpscope.simnet.config import SimConfig, SimConfigError
from icmpscope.simnet.limiter import LimiterBank


# Packets per pass of ``SimWorld.inject``. A slice of a plan tuple (488 bytes
# with its GC header) and every scratch list grown to its length (capacity 64,
# 512 bytes) then stay in CPython's small-object allocator. Whole-plan lists
# for 150-packet plans came from the C heap, and freeing them there left it
# fragmented: a reach campaign's RSS grew about 40 KB more than with one send
# per packet, which left its peak next to a 128 KB step of the peak-RSS
# reading, so that reading flipped between steps from run to run.
_INJECT_SLICE = 56


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

    def inject(self, base: int, packets: Sequence[tuple[int, ProbePacket]]) -> None:
        """Emit a plan's probes from the local prober, each at ``base + offset``.

        Same draws and heap entries as one ``_send`` per packet in plan order:
        every packet takes the next uid, routed or not, and survivors take the
        next ``_seq``. A plan holding anything but echo requests is rejected
        before any packet is sent. The plan goes in ``_INJECT_SLICE`` packets
        at a time.
        """
        for _offset, pkt in packets:
            if pkt.kind is not IcmpKind.ECHO_REQUEST:
                raise ValueError("the prober injects only echo requests")
        for start in range(0, len(packets), _INJECT_SLICE):
            self._inject_slice(base, packets[start:start + _INJECT_SLICE])

    def _inject_slice(self, base: int, packets: Sequence[tuple[int, ProbePacket]]) -> None:
        """``inject`` for at most ``_INJECT_SLICE`` packets. The sender is
        always the prober, so each destination address is converted and routed
        once, and each link draws loss, then jitter for the survivors, in one
        ``mix_units`` call over its uids."""
        prober = self._prober
        uid0 = self._uid
        # id(dst address) -> (dst, site, uids on its link), or (dst, None, None)
        # when unrouted; the plan keeps its addresses alive, so ids are stable.
        targets: dict[int, tuple[int, int | None, list[int] | None]] = {}
        by_link: dict[tuple | None, list[int]] = {}  # None: delivered inside the prober's site
        rows = []
        for i, (_offset, pkt) in enumerate(packets):
            key = id(pkt.dst)
            target = targets.get(key)
            if target is None:
                dst = int(pkt.dst)
                route = self._route(dst, prober, prober)
                if route is None:
                    target = (dst, None, None)
                else:
                    target = (dst, route[0], by_link.setdefault(route[1], []))
                targets[key] = target
            rows.append(target)
            uids = target[2]
            if uids is not None:
                uids.append(uid0 + i)
        self._uid = uid0 + len(rows)

        seed = self._seed
        delays: list[int | None] = [None] * len(rows)
        for link, uids in by_link.items():
            if link is None:
                for uid in uids:
                    delays[uid - uid0] = 0
                continue
            idx, owd, jitter, loss = link
            if loss:
                uids = [uid for uid, u in zip(uids, _mix_units(seed, uids, idx * 2)) if u >= loss]
            if jitter:
                for uid, u in zip(uids, _mix_units(seed, uids, idx * 2 + 1)):
                    delays[uid - uid0] = int(round(owd * (1.0 + jitter * (2.0 * u - 1.0))))
            else:
                fixed = int(round(owd))
                for uid in uids:
                    delays[uid - uid0] = fixed

        heap = self._heap
        seq = self._seq
        kind = IcmpKind.ECHO_REQUEST
        srcs: dict[int, int] = {}  # id(src address) -> int
        for (offset, pkt), (dst, site, _uids), delay in zip(packets, rows, delays):
            if delay is None:
                continue
            key = id(pkt.src)
            src = srcs.get(key)
            if src is None:
                src = srcs[key] = int(pkt.src)
            seq += 1
            heappush(
                heap, (base + offset + delay, seq, site, prober, kind, src, dst, None, pkt.probe_id)
            )
        self._seq = seq

    def _route(self, dst: int, from_site: int, sender: int) -> tuple[int, tuple | None] | None:
        """``(to_site, link)`` for a packet from ``sender`` at ``from_site``,
        with ``link`` None inside one site; None if the edge is cut, ``dst``
        is unrouted or no link joins the two sites."""
        cut = self._cuts_by_dst.get(dst)
        if cut is not None:
            i = bisect_right(cut.los, sender)
            if i and sender <= cut.his[i - 1]:
                return None
        to_site = self._site_of(dst)
        if to_site is None:
            return None
        if to_site == from_site:
            return to_site, None
        a, b = (from_site, to_site) if from_site <= to_site else (to_site, from_site)
        link = self._links.get((a, b))
        if link is None:
            return None
        return to_site, link

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
        route = self._route(dst, from_site, sender)
        if route is None:
            return
        to_site, link = route
        if link is None:
            delay = 0
        else:
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
    world.inject(0, injected)
    world.run_all()
    return world.observations

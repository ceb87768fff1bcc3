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
routing step (cut check, site, link) and bisects both tables inline. Each
link keeps its loss and jitter hash keys, folded once from the seed and the
link's index. The world keeps no per-packet log: ``_uid`` counts packets sent
and ``_seq`` counts those that were scheduled for arrival.

One loop, ``_run``, serves ``run_until`` and ``run_all``. It handles each
arrival in place, with no call per event: every reply or error leaves through
``_send``, the one per-packet send, after the router's
``LimiterBank.try_emit`` has granted it. The prober's own probes enter a
whole plan in one ``inject`` call, as ``(offset, src, dst, probe_id)`` int
rows, in slices of up to ``_INJECT_SLICE`` packets: within a slice each
destination is routed once and each link draws its loss, then its jitter,
with one ``mix_units`` call each, yet every packet keeps the uid, the draws
and the heap entry that one ``_send`` per packet would give it. Observations
carry int addresses, so the world builds no address object.

Second-order traffic matters here: an echo reply that lands on a router whose
served prefix contains an unreachable destination consumes that router's
error budget even though the resulting error message goes back to the reply's
source, not to the prober. That token drain is the observable side channel.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from heapq import heappop, heappush
from math import inf

from icmpscope._mix import U64, fold_key, mix64_folded, mix_units
from icmpscope._spans import SpanTable, merge_spans, prefix_span
from icmpscope.model import IcmpKind, IcmpObservation
from icmpscope.simnet.config import SimConfig
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
    """Mutable simulation state: event heap, limiter banks, prober inbox.

    It keeps only the int tables it derives from the config, not the config
    itself, so the config's address objects can be freed once it is built.
    """

    def __init__(self, cfg: SimConfig) -> None:
        cfg.validate()
        self._prober = int(cfg.prober)
        self._heap: list[tuple] = []
        self._seq = 0
        self._uid = 0
        self.clock = 0
        self.observations: list[IcmpObservation] = []

        self._router_by_addr: dict[int, _RouterRec] = {}
        for r in cfg.routers:
            lo, hi = prefix_span(r.served_prefix)
            rec = _RouterRec(
                int(r.address), lo, hi, r.isav_ingress, r.echo_responder, r.error_kind, LimiterBank(r.limiter)
            )
            self._router_by_addr[rec.addr] = rec
        # Served prefix -> router address; disjoint by config validation.
        self._served = SpanTable((rec.lo, rec.hi, rec.addr) for rec in self._router_by_addr.values())

        # Host -> (answers echo, site); every host has a site by config validation.
        self._hosts: dict[int, tuple[bool, int]] = {
            int(h.address): (h.responds_to_echo, self._served.find(int(h.address))) for h in cfg.hosts
        }

        # Link -> (owd, jitter, loss, loss key, jitter key), with the keys
        # folded from the seed and the link's index in sorted order. A link
        # without loss (or jitter) draws nothing, so it keeps the key 0.
        self._links: dict[tuple[int, int], tuple[float, float, float, int, int]] = {}
        for idx, (a, b, m) in enumerate(sorted((int(a), int(b), m) for (a, b), m in cfg.links.items())):
            loss_key = fold_key(cfg.seed, 2 * idx) if m.loss_prob else 0
            jitter_key = fold_key(cfg.seed, 2 * idx + 1) if m.jitter_frac else 0
            self._links[(a, b)] = (m.base_owd_ms, m.jitter_frac, m.loss_prob, loss_key, jitter_key)

        # Cut source prefixes per destination, merged so that one bisection
        # answers "is the sender cut off?" even for nested or duplicate cuts.
        cut_spans: dict[int, list[tuple[int, int]]] = {}
        for prefix, dst in cfg.unreachable_pairs:
            cut_spans.setdefault(int(dst), []).append(prefix_span(prefix))
        self._cuts_by_dst: dict[int, SpanTable[None]] = {
            dst: SpanTable((lo, hi, None) for lo, hi in merge_spans(spans))
            for dst, spans in cut_spans.items()
        }

    # -- event machinery -------------------------------------------------

    def inject(self, base: int, packets: Sequence[tuple[int, int, int, int]]) -> None:
        """Emit a plan's echo requests, ``(offset, src, dst, probe_id)`` rows,
        from the local prober, each at ``base + offset``.

        Same draws and heap entries as one ``_send`` per packet in plan order:
        every packet takes the next uid, routed or not, and survivors take the
        next ``_seq``. The plan goes in ``_INJECT_SLICE`` packets at a time.
        """
        for start in range(0, len(packets), _INJECT_SLICE):
            self._inject_slice(base, packets[start:start + _INJECT_SLICE])

    def _inject_slice(self, base: int, packets: Sequence[tuple[int, int, int, int]]) -> None:
        """``inject`` for at most ``_INJECT_SLICE`` packets. The sender is
        always the prober, so each destination is routed once, and each link
        draws loss, then jitter for the survivors, in one ``mix_units`` call
        over its uids."""
        prober = self._prober
        uid0 = self._uid
        # dst -> (site, uids on its link), or (None, None) when unrouted.
        routes: dict[int, tuple[int | None, list[int] | None]] = {}
        by_link: dict[tuple | None, list[int]] = {}  # None: delivered inside the prober's site
        sites = []
        for i, (_offset, _src, dst, _pid) in enumerate(packets):
            route = routes.get(dst)
            if route is None:
                found = self._route(dst, prober, prober)
                route = (None, None) if found is None else (found[0], by_link.setdefault(found[1], []))
                routes[dst] = route
            sites.append(route[0])
            uids = route[1]
            if uids is not None:
                uids.append(uid0 + i)
        self._uid = uid0 + len(sites)

        delays: list[int | None] = [None] * len(sites)
        for link, uids in by_link.items():
            if link is None:
                for uid in uids:
                    delays[uid - uid0] = 0
                continue
            owd, jitter, loss, loss_key, jitter_key = link
            if loss:
                uids = [uid for uid, u in zip(uids, mix_units(loss_key, uids)) if u >= loss]
            if jitter:
                for uid, u in zip(uids, mix_units(jitter_key, uids)):
                    delays[uid - uid0] = int(round(owd * (1.0 + jitter * (2.0 * u - 1.0))))
            else:
                fixed = int(round(owd))
                for uid in uids:
                    delays[uid - uid0] = fixed

        heap = self._heap
        seq = self._seq
        kind = IcmpKind.ECHO_REQUEST
        for (offset, src, dst, pid), site, delay in zip(packets, sites, delays):
            if delay is None:
                continue
            seq += 1
            heappush(heap, (base + offset + delay, seq, site, prober, kind, src, dst, None, pid))
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
        host = self._hosts.get(dst)
        if dst == self._prober or dst in self._router_by_addr:
            to_site = dst
        elif host is not None:
            to_site = host[1]
        else:
            served = self._served
            i = bisect_right(served.los, dst)
            if not i or dst > served.his[i - 1]:
                return None
            to_site = served.values[i - 1]
        if to_site == from_site:
            return to_site, None
        link = self._links.get((from_site, to_site) if from_site <= to_site else (to_site, from_site))
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
            owd, jitter, loss, loss_key, jitter_key = link
            if loss and mix64_folded(loss_key, uid) / U64 < loss:
                return
            if jitter:
                u = mix64_folded(jitter_key, uid) / U64
                delay = int(round(owd * (1.0 + jitter * (2.0 * u - 1.0))))
            else:
                delay = int(round(owd))
        self._seq += 1
        heappush(self._heap, (t + delay, self._seq, to_site, from_site, kind, src, dst, quoted, pid))

    def run_until(self, t_end: int) -> None:
        """Process every event with timestamp <= t_end."""
        self._run(t_end)
        if t_end > self.clock:
            self.clock = t_end

    def run_all(self) -> None:
        self._run(inf)

    def _run(self, t_end: float) -> None:
        """Handle every event with timestamp <= ``t_end``."""
        heap = self._heap
        t = self.clock
        prober, routers, hosts, send = self._prober, self._router_by_addr, self._hosts, self._send
        observe = self.observations.append
        request, reply = IcmpKind.ECHO_REQUEST, IcmpKind.ECHO_REPLY
        while heap and heap[0][0] <= t_end:
            t, _seq, to_site, from_site, kind, src, dst, quoted, pid = heappop(heap)
            if to_site == prober:
                if dst == prober:
                    observe(IcmpObservation(kind, src, quoted, t, pid))
                continue
            rec = routers[to_site]
            # Inbound source address validation: drop packets that claim a source
            # inside the served prefix but arrive from another site.
            if rec.isav and from_site != to_site and rec.lo <= src <= rec.hi:
                continue
            if kind is request:
                if dst == rec.addr:
                    if rec.echo and rec.bank.try_emit(reply, src, t):
                        send(t, reply, rec.addr, src, None, pid, to_site, rec.addr)
                    continue
                host = hosts.get(dst)
                if host is not None:
                    if host[0]:
                        send(t, reply, dst, src, None, pid, to_site, dst)
                    continue
            elif kind is not reply or dst == rec.addr or dst in hosts:
                continue  # errors are absorbed, delivered replies answered by nothing
            # A request for, or a reply to, a dead address in the served prefix:
            # the error goes back to the packet's source and spends a token.
            if rec.lo <= dst <= rec.hi and rec.bank.try_emit(rec.error_kind, src, t):
                send(t, rec.error_kind, rec.addr, src, dst, pid, to_site, rec.addr)
        self.clock = t

    def drain_observations(self) -> list[IcmpObservation]:
        out = self.observations
        self.observations = []
        return out

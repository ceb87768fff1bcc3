"""Independent reference implementations used to derive expected values.

These deliberately use different algorithms from the library code they check:
the token-bucket replay walks the placement schedule one token at a time
instead of computing whole-interval refills in closed form; the router
handler answers one delivered packet at a time without the event loop; the
per-packet injection routes and draws for every probe on its own instead of
once per destination and link; the reference world handles each arrival in a
call of its own, resolves sites and routes in separate steps and hashes each
draw from all three key parts, where the world runs one loop over folded
link keys; the reachability oracle scans every configured cut edge, where
the world bisects merged cut spans; the one-shot simulation checks the plan's
timestamps itself and runs the world to quiescence; the AUC counts ranked
pairs instead of integrating the ROC curve; primality is trial division by every integer up
to the square root instead of Miller-Rabin, and prime factors are read off
the divisor pairs instead of being divided out.

``sufficiency_sweep`` is no reference: it is the packet-budget study of the
rate-limit tests, which no command runs, so it lives here and not in the
package.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from ipaddress import IPv6Address
from math import isqrt
from typing import Sequence

from icmpscope._spans import SpanTable, merge_spans
from icmpscope.model import IcmpKind, IcmpObservation
from icmpscope.ratelimit import MeasureTarget, _noise_declines, split_counts
from icmpscope.simnet.config import SimConfig, SimConfigError
from icmpscope.simnet.limiter import LimiterBank
from icmpscope.simnet.world import SimWorld, _RouterRec

_MASK64 = (1 << 64) - 1


def mix_unit(a: int, b: int, c: int) -> float:
    """The splitmix64 hash of three key parts, mapped to [0, 1), with no key
    folded ahead of time."""
    z = (a ^ (b * 0xBF58476D1CE4E5B9) ^ (c * 0x94D049BB133111EB)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) / float(1 << 64)


def replay_token_bucket(
    times: list[int], capacity: int, interval_ms: int, anchor_ms: int
) -> list[bool]:
    """Grant sequence for requests at ``times``, replayed token by token.

    Tokens are placed one interval apart while the bucket drains; a bucket
    that is full at a request has its next placement rescheduled one interval
    after that request (placements into a full bucket are wasted and the
    interval clock restarts with consumption). Starts full at the anchor.
    """
    tokens = capacity
    next_token = anchor_ms + interval_ms
    grants = []
    for t in times:
        placed = 0
        while next_token <= t and tokens < capacity:
            tokens += 1
            next_token += interval_ms
            placed += 1
        if tokens == capacity and (placed > 0 or next_token <= t):
            # the bucket (re)filled: the placement clock pauses while full and
            # restarts with the consumption happening now
            next_token = t + interval_ms
        if tokens >= 1:
            tokens -= 1
            grants.append(True)
        else:
            grants.append(False)
    return grants


def burst_probe_grants(
    slots: list[bool], spacing_ms: int, capacity: int, interval_ms: int
) -> int:
    """Expected probe replies for one fresh-bucket burst.

    ``slots`` marks which packets in the arrival order are probes (the rest
    are noise); every packet competes for the same budget, but only probe
    grants produce replies the prober counts.
    """
    times = [i * spacing_ms for i in range(len(slots))]
    grants = replay_token_bucket(times, capacity, interval_ms, anchor_ms=times[0])
    return sum(1 for is_probe, granted in zip(slots, grants) if is_probe and granted)


def sufficiency_sweep(
    targets: Sequence[MeasureTarget],
    totals: Sequence[int],
    decline_thresholds: Sequence[float],
    transport,
    *,
    mn_ratio: float = 2.0,
) -> dict[tuple[int, float], float]:
    """Fraction of targets whose rate limiting stays unobservable per budget.

    For every packet budget, measures the reply decline noise causes at each
    target and marks the target insufficient when the decline falls short of
    the threshold (or when the target never replies at all).
    """
    if not totals:
        raise ValueError("totals must be non-empty")
    declines: dict[int, list[float | None]] = {}
    for total in totals:
        m, n = split_counts(total, mn_ratio)
        declines[total] = _noise_declines(targets, m, n, transport)

    table: dict[tuple[int, float], float] = {}
    for total in totals:
        for threshold in decline_thresholds:
            bad = sum(1 for d in declines[total] if d is None or d < threshold)
            table[(total, threshold)] = bad / len(targets)
    return table


def router_handle(
    router,
    row: tuple[int, int, int, int],
    now: int,
    *,
    bank: LimiterBank | None = None,
    live_hosts: frozenset = frozenset(),
    silent_hosts: frozenset = frozenset(),
    from_outside: bool = True,
) -> IcmpObservation | None:
    """Reference handler for one echo request, an ``(offset, src, dst,
    probe_id)`` plan row, delivered to one router.

    Returns the ICMP message the router site emits toward the row's source
    (as the sender would observe it), or None when ingress filtering, a
    silent host, or the rate limiter swallows it. Pass a persistent ``bank``
    to carry limiter state across packets; without one every call sees a
    fresh budget. The full event loop reproduces these semantics packet for
    packet.
    """
    if bank is None:
        bank = LimiterBank(router.limiter)
    _offset, src, dst_int, pid = row
    dst = IPv6Address(dst_int)
    if router.isav_ingress and from_outside and IPv6Address(src) in router.served_prefix:
        return None
    if dst == router.address:
        if router.echo_responder and bank.try_emit(IcmpKind.ECHO_REPLY, src, now):
            return IcmpObservation(IcmpKind.ECHO_REPLY, dst_int, None, now, pid)
        return None
    if dst in live_hosts:
        return IcmpObservation(IcmpKind.ECHO_REPLY, dst_int, None, now, pid)
    if dst in silent_hosts:
        return None
    if dst in router.served_prefix:
        if bank.try_emit(router.error_kind, src, now):
            return IcmpObservation(router.error_kind, int(router.address), dst_int, now, pid)
    return None


def inject_each(world, base: int, rows) -> None:
    """Per-packet reference for ``SimWorld.inject``: one ``_send`` per probe,
    in plan order, each routed and drawn on its own."""
    prober = world._prober
    for offset, src, dst, pid in rows:
        world._send(base + offset, IcmpKind.ECHO_REQUEST, src, dst, None, pid, prober, prober)


def site_of(world, addr: int) -> int | None:
    """The site that ``addr`` belongs to in a ``SimWorld`` (or a
    ``ReferenceWorld``): the prober and each router are their own sites, a
    host lives at its router, and any other address at the router whose
    served prefix holds it; None when no prefix does."""
    if addr == world._prober or addr in world._router_by_addr:
        return addr
    h = world._hosts.get(addr)
    if h is not None:
        return h[1]
    return world._served.find(addr)


class ReferenceWorld:
    """The event loop in separate steps, for checking ``SimWorld``.

    One ``_arrive`` call per event, one ``_send`` per packet (injected
    probes too), ``site_of`` and ``_route`` as separate calls, and every
    loss and jitter draw hashed by ``mix_unit`` from the seed, the packet's
    uid and the link's draw index. Its tables carry the world's names, so
    ``site_of`` reads both, and its routers keep ``LimiterBank`` states.
    """

    def __init__(self, cfg: SimConfig) -> None:
        cfg.validate()
        self._seed = cfg.seed
        self._prober = int(cfg.prober)
        self._heap: list[tuple] = []
        self._seq = 0
        self._uid = 0
        self.clock = 0
        self.observations: list[IcmpObservation] = []
        self._router_by_addr = {}
        for r in cfg.routers:
            rec = _RouterRec(int(r.address), int(r.served_prefix[0]), int(r.served_prefix[-1]), r.isav_ingress,
                             r.echo_responder, r.error_kind, LimiterBank(r.limiter))
            self._router_by_addr[rec.addr] = rec
        self._served = SpanTable((rec.lo, rec.hi, rec.addr) for rec in self._router_by_addr.values())
        self._hosts = {int(h.address): (h.responds_to_echo, self._served.find(int(h.address))) for h in cfg.hosts}
        self._links = {}
        for idx, ((a, b), m) in enumerate(sorted(cfg.links.items(), key=lambda kv: (int(kv[0][0]), int(kv[0][1])))):
            self._links[(int(a), int(b))] = (idx, m.base_owd_ms, m.jitter_frac, m.loss_prob)
        cut_spans: dict[int, list[tuple[int, int]]] = {}
        for prefix, dst in cfg.unreachable_pairs:
            cut_spans.setdefault(int(dst), []).append((int(prefix[0]), int(prefix[-1])))
        self._cuts_by_dst = {
            dst: SpanTable((lo, hi, None) for lo, hi in merge_spans(spans)) for dst, spans in cut_spans.items()
        }

    def inject(self, base: int, rows) -> None:
        inject_each(self, base, rows)

    def _route(self, dst: int, from_site: int, sender: int):
        cut = self._cuts_by_dst.get(dst)
        if cut is not None:
            i = bisect_right(cut.los, sender)
            if i and sender <= cut.his[i - 1]:
                return None
        to_site = site_of(self, dst)
        if to_site is None:
            return None
        if to_site == from_site:
            return to_site, None
        a, b = (from_site, to_site) if from_site <= to_site else (to_site, from_site)
        link = self._links.get((a, b))
        if link is None:
            return None
        return to_site, link

    def _send(self, t, kind, src, dst, quoted, pid, from_site, sender) -> None:
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
            if loss and mix_unit(self._seed, uid, idx * 2) < loss:
                return
            if jitter:
                u = mix_unit(self._seed, uid, idx * 2 + 1)
                delay = int(round(base * (1.0 + jitter * (2.0 * u - 1.0))))
            else:
                delay = int(round(base))
        self._seq += 1
        heappush(self._heap, (t + delay, self._seq, to_site, from_site, kind, src, dst, quoted, pid))

    def run_until(self, t_end: int) -> None:
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

    def _arrive(self, t, to_site, from_site, kind, src, dst, quoted, pid) -> None:
        if to_site == self._prober:
            if dst == self._prober:
                self.observations.append(IcmpObservation(kind, src, quoted, t, pid))
            return
        rec = self._router_by_addr[to_site]
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
                return
            if rec.lo <= dst <= rec.hi:
                if rec.bank.try_emit(rec.error_kind, src, t):
                    self._send(t, rec.error_kind, rec.addr, src, dst, pid, to_site, rec.addr)


def run_events(cfg: SimConfig, rows: list[tuple[int, int, int, int]]) -> list[IcmpObservation]:
    """One-shot simulation: inject the ``(time, src, dst, probe_id)`` rows,
    run to quiescence, and return every ICMP message the prober observed, in
    arrival order."""
    times = [row[0] for row in rows]
    if times != sorted(times):
        raise SimConfigError("injected timestamps must be non-decreasing")
    world = SimWorld(cfg)
    world.inject(0, rows)
    world.run_all()
    return world.observations


def oracle_reachable(cfg: SimConfig, src: IPv6Address, dst: IPv6Address) -> bool:
    """True unless a configured cut edge suppresses src-network -> dst traffic."""
    for addr in (src, dst):
        if not _known_address(cfg, addr):
            raise KeyError(f"address {addr} not part of the simulation")
    for cut_prefix, cut_dst in cfg.unreachable_pairs:
        if dst == cut_dst and src in cut_prefix:
            return False
    return True


def _known_address(cfg: SimConfig, addr: IPv6Address) -> bool:
    if addr == cfg.prober:
        return True
    for r in cfg.routers:
        if addr == r.address or addr in r.served_prefix:
            return True
    return False


def mann_whitney_auc(labels: list[bool], scores: list[float]) -> float:
    """Probability that a positive outscores a negative, ties counting half
    (the Mann-Whitney U statistic over positives times negatives)."""
    positives = [s for s, label in zip(scores, labels) if label]
    negatives = [s for s, label in zip(scores, labels) if not label]
    u = sum((p > n) + 0.5 * (p == n) for p in positives for n in negatives)
    return u / (len(positives) * len(negatives))


def is_prime(n: int) -> bool:
    """Trial division by every integer from 2 to the square root."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    m = n + 1
    while not is_prime(m):
        m += 1
    return m


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n >= 1``: the prime members of every
    divisor pair ``(d, n // d)`` with ``d`` up to the square root."""
    found = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            found.update(c for c in (d, n // d) if is_prime(c))
    return sorted(found)

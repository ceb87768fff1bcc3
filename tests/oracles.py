"""Independent reference implementations used to derive expected values.

These deliberately use different algorithms from the library code they check:
the token-bucket replay walks the placement schedule one token at a time
instead of computing whole-interval refills in closed form; the router
handler answers one delivered packet at a time without the event loop; the
per-packet injection routes and draws for every probe on its own instead of
once per destination and link; the AUC counts ranked pairs instead of
integrating the ROC curve.
"""

from __future__ import annotations

from icmpscope.model import IcmpKind, IcmpObservation, ProbePacket
from icmpscope.simnet.limiter import LimiterBank


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


def router_handle(
    router,
    pkt: ProbePacket,
    now: int,
    *,
    bank: LimiterBank | None = None,
    live_hosts: frozenset = frozenset(),
    silent_hosts: frozenset = frozenset(),
    from_outside: bool = True,
) -> IcmpObservation | None:
    """Reference handler for one echo request delivered to one router.

    Returns the ICMP message the router site emits toward ``pkt.src`` (as the
    sender would observe it), or None when ingress filtering, a silent host,
    or the rate limiter swallows it. Pass a persistent ``bank`` to carry
    limiter state across packets; without one every call sees a fresh budget.
    The full event loop reproduces these semantics packet for packet.
    """
    if pkt.kind is not IcmpKind.ECHO_REQUEST:
        raise ValueError("router_handle models delivered echo requests")
    if bank is None:
        bank = LimiterBank(router.limiter)
    src = int(pkt.src)
    if router.isav_ingress and from_outside and pkt.src in router.served_prefix:
        return None
    if pkt.dst == router.address:
        if router.echo_responder and bank.try_emit(IcmpKind.ECHO_REPLY, src, now):
            return IcmpObservation(IcmpKind.ECHO_REPLY, router.address, None, now, pkt.probe_id)
        return None
    if pkt.dst in live_hosts:
        return IcmpObservation(IcmpKind.ECHO_REPLY, pkt.dst, None, now, pkt.probe_id)
    if pkt.dst in silent_hosts:
        return None
    if pkt.dst in router.served_prefix:
        if bank.try_emit(router.error_kind, src, now):
            return IcmpObservation(router.error_kind, router.address, pkt.dst, now, pkt.probe_id)
    return None


def inject_each(world, base: int, packets) -> None:
    """Per-packet reference for ``SimWorld.inject``: one ``_send`` per probe,
    in plan order, each routed and drawn on its own."""
    prober = world._prober
    for offset, pkt in packets:
        world._send(
            base + offset, IcmpKind.ECHO_REQUEST, int(pkt.src), int(pkt.dst), None, pkt.probe_id, prober, prober
        )


def mann_whitney_auc(labels: list[bool], scores: list[float]) -> float:
    """Probability that a positive outscores a negative, ties counting half
    (the Mann-Whitney U statistic over positives times negatives)."""
    positives = [s for s, label in zip(scores, labels) if label]
    negatives = [s for s, label in zip(scores, labels) if not label]
    u = sum((p > n) + 0.5 * (p == n) for p in positives for n in negatives)
    return u / (len(positives) * len(negatives))

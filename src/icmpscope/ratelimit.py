"""Rcv measurement bursts and rate-limiter implementation classification.

A measurement sends n probe packets (optionally with m spoofed-source noise
packets interleaved evenly among them) and counts how many matching replies
the prober gets back. Comparing the count with and without noise is what
distinguishes global, strict, loose, and unclassifiable rate limiting.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from dataclasses import dataclass
from ipaddress import IPv6Address
from typing import Callable, Collection, Iterator, Sequence, TypeVar

from icmpscope.model import DataPair, IcmpKind, IcmpObservation, MeasurementParams
from icmpscope.model import ProbePacket, spoof_sources
from icmpscope.simnet.config import RateLimitClass
from icmpscope.transport import CollectWindow, ObservationFilter, SendPlan

DEFAULT_BURST_GAP_MS = 2000
RECEIVE_WINDOW_MS = 1000

Unit = TypeVar("Unit")


@dataclass(frozen=True, slots=True)
class RcvSample:
    """Replies counted for one burst."""

    rcv: int
    n_sent: int
    with_noise: bool
    m_noise: int


@dataclass(frozen=True, slots=True)
class NoiseSpec:
    m: int
    spoof_src: IPv6Address


class BurstPacer:
    """Enforces a minimum quiet gap between bursts aimed at the same node."""

    def __init__(self, transport) -> None:
        # Weak: pacer_for stores the pacer on the transport, and a cycle would outlive the run.
        self._transport = weakref.proxy(transport)
        self._last_end: dict[IPv6Address, int] = {}

    def pace(self, key: IPv6Address, gap_ms: int = DEFAULT_BURST_GAP_MS) -> None:
        """Wait until ``gap_ms`` has passed since the last burst at ``key`` ended."""
        last = self._last_end.get(key)
        if last is not None:
            earliest = last + gap_ms
            now = self._transport.now()
            if now < earliest:
                self._transport.wait(earliest - now)

    def mark(self, key: IPv6Address) -> None:
        self._last_end[key] = self._transport.now()

    def execute(
        self, key: IPv6Address, plan: SendPlan, window: CollectWindow
    ) -> list[IcmpObservation]:
        """Send ``plan`` once ``key``'s quiet gap has passed, then restart the gap."""
        self.pace(key)
        observations = self._transport.execute(plan, window)
        self.mark(key)
        return observations

    def measure(
        self, mt: MeasureTarget, n: int, noise: NoiseSpec | None, receive_window_ms: int
    ) -> RcvSample:
        """One burst toward ``mt``, sent once the node's quiet gap has passed.

        The node is the expected reply origin, or the target itself when no
        origin is expected; the gap restarts when the burst's window closes.
        """
        key = mt.origin if mt.origin is not None else mt.target
        self.pace(key)
        sample = measure_rcv(
            mt.target,
            mt.kind,
            n,
            noise,
            self._transport,
            expect_origin=mt.origin,
            receive_window_ms=receive_window_ms,
        )
        self.mark(key)
        return sample


def pacer_for(transport) -> BurstPacer:
    """The transport's one pacer, kept as ``transport.pacer`` from first use,
    so every engine run over one transport shares each node's quiet gap."""
    if getattr(transport, "pacer", None) is None:
        transport.pacer = BurstPacer(transport)
    return transport.pacer


def run_phased(
    units: Collection[Unit],
    phases: Sequence[int],
    repeats: int,
    burst_for: Callable[[Unit, int], tuple[MeasureTarget, int, NoiseSpec | None]],
    transport,
    receive_window_ms: int,
) -> Iterator[tuple[Unit, int, RcvSample]]:
    """Send every unit's burst for each phase, phase by phase, ``repeats`` times.

    Yields ``(unit, phase, sample)`` in send order. Ordering by phase means no
    node is hit twice in a row while other units still have work pending,
    and the transport's pacer keeps a quiet gap per node regardless.
    ``burst_for(unit, phase)`` returns the burst's target, probe count and
    noise; it is called just before that burst is sent, so any random draws
    it makes follow the send order.
    """
    pacer = pacer_for(transport)
    for _round in range(repeats):
        for phase in phases:
            for unit in units:
                mt, n, noise = burst_for(unit, phase)
                yield unit, phase, pacer.measure(mt, n, noise, receive_window_ms)


def interleave_pattern(n_probe: int, m_noise: int) -> list[bool]:
    """Slot layout of a burst: True marks a probe packet.

    Noise is spread evenly and leads each probe, so at m/n = 2 the burst runs
    noise, noise, probe, repeated.
    """
    slots: list[bool] = []
    for i in range(n_probe):
        noise_here = m_noise * (i + 1) // n_probe - m_noise * i // n_probe
        slots.extend([False] * noise_here)
        slots.append(True)
    return slots


def _burst_spacing(transport, total_packets: int) -> int:
    """Packet spacing of a burst: 1 ms, widened when the burst would exceed the
    transport's per-prefix rate cap (the transport rejects rather than reshapes)."""
    cap = getattr(transport, "max_pps_per_prefix", None)
    if cap and total_packets > cap:
        return math.ceil(1000 / cap)
    return 1


def measure_rcv(
    rvp_target: IPv6Address,
    kind: IcmpKind,
    n: int,
    noise: NoiseSpec | None,
    transport,
    *,
    expect_origin: IPv6Address | None = None,
    receive_window_ms: int = RECEIVE_WINDOW_MS,
) -> RcvSample:
    """One burst toward ``rvp_target``; returns the matched reply count.

    For error kinds the target is an unreachable address and replies are
    matched on (kind, origin, quoted target, probe id); for echo replies the
    target is the responder itself. Zero replies is a result, not an error.
    """
    m = noise.m if noise is not None else 0
    spacing = _burst_spacing(transport, n + m)
    pids = itertools.count(1)
    probe_ids: set[int] = set()
    entries: list[tuple[int, ProbePacket]] = []
    for slot, is_probe in enumerate(interleave_pattern(n, m)):
        pid = next(pids)
        if is_probe:
            src = transport.source_address
            probe_ids.add(pid)
        else:
            src = noise.spoof_src  # type: ignore[union-attr]
        entries.append((slot * spacing, ProbePacket(src=src, dst=rvp_target, probe_id=pid)))

    plan = SendPlan(tuple(entries))
    window = CollectWindow(
        duration_ms=plan.span_ms + receive_window_ms,
        obs_filter=ObservationFilter(
            kinds=frozenset({kind}),
            origin=expect_origin,
            quoted_dst=rvp_target if kind.is_error else None,
            probe_ids=frozenset(probe_ids),
        ),
    )
    observations = transport.execute(plan, window)
    return RcvSample(rcv=len(observations), n_sent=n, with_noise=noise is not None, m_noise=m)


def classify(rcv1_avg: float, rcv2_avg: float, n: int, lam: float) -> RateLimitClass:
    """Classify a rate limiter from its no-noise and with-noise reply averages.

    Strict and loose are disjoint bands checked first; global requires the
    noise to visibly depress the replies. A silent node (rcv1 = 0) cannot be
    told apart from filtering, so it stays unclassified.
    """
    if rcv1_avg <= 0:
        return RateLimitClass.UNCLASSIFIED
    if 0.95 <= rcv1_avg <= 1.05:
        return RateLimitClass.STRICT
    if rcv2_avg >= 0.95 * n:
        return RateLimitClass.LOOSE
    if rcv2_avg < lam * rcv1_avg:
        return RateLimitClass.GLOBAL
    return RateLimitClass.UNCLASSIFIED


def observability(rcv_before: float, rcv_after: float) -> float:
    """Fractional decline in replies caused by noise, clamped to [0, 1]."""
    if rcv_before <= 0:
        raise ValueError("rcv_before must be positive")
    return min(1.0, max(0.0, 1.0 - rcv_after / rcv_before))


def split_counts(total: int, mn_ratio: float) -> tuple[int, int]:
    """Derive (m_noise, n_probe) from a packet budget and a noise/probe ratio."""
    n = round(total / (1.0 + mn_ratio))
    n = max(1, min(total, n))
    return total - n, n


@dataclass(frozen=True, slots=True)
class MeasureTarget:
    """What to aim a burst at: the address probed and the reply expected."""

    target: IPv6Address
    origin: IPv6Address | None
    kind: IcmpKind

    @classmethod
    def from_pair(cls, pair: DataPair) -> MeasureTarget:
        return cls(target=pair.target, origin=pair.periphery, kind=pair.error_kind)


def _noise_declines(
    targets: Sequence[MeasureTarget], m: int, n: int, transport
) -> list[float | None]:
    """Reply decline that m noise packets cause at each target probed with n.

    Every target is measured without noise, then every target with noise
    spoofed from the prober's own address. None marks a target that never
    replied without noise.
    """
    noise = NoiseSpec(m, transport.source_address)

    def burst_for(i: int, phase: int) -> tuple[MeasureTarget, int, NoiseSpec | None]:
        return targets[i], n, None if phase == 1 else noise

    rcv: dict[tuple[int, int], int] = {}
    bursts = run_phased(range(len(targets)), (1, 2), 1, burst_for, transport, RECEIVE_WINDOW_MS)
    for i, phase, sample in bursts:
        rcv[i, phase] = sample.rcv
    return [
        observability(rcv[i, 1], rcv[i, 2]) if rcv[i, 1] > 0 else None
        for i in range(len(targets))
    ]


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


@dataclass(frozen=True, slots=True)
class RatioSweepRow:
    mn_ratio: float
    m_noise: int
    n_probe: int
    mean_observability: float


def ratio_sweep(
    targets: Sequence[MeasureTarget],
    total: int,
    ratios: Sequence[float],
    transport,
) -> list[RatioSweepRow]:
    """Mean observability over targets for each noise/probe split of a fixed
    packet budget."""
    rows = []
    for ratio in ratios:
        m, n = split_counts(total, ratio)
        values = [d for d in _noise_declines(targets, m, n, transport) if d is not None]
        mean = sum(values) / len(values) if values else 0.0
        rows.append(RatioSweepRow(mn_ratio=ratio, m_noise=m, n_probe=n, mean_observability=mean))
    return rows


def classify_limiters(
    pairs: Sequence[DataPair], params: MeasurementParams, transport, *, seed: int = 0
) -> list[tuple[float, float, RateLimitClass]]:
    """Classify the rate limiter behind each pair's periphery.

    Each round measures every pair without noise (rcv1), then every pair with
    noise spoofed from the prober's /80 (rcv2). Returns ``(rcv1_avg,
    rcv2_avg, class)`` per pair, in the order given.
    """
    rng = random.Random(seed)

    def burst_for(i: int, phase: int) -> tuple[MeasureTarget, int, NoiseSpec | None]:
        pair = pairs[i]
        noise = None
        if phase == 2:
            local_spoof, _ = spoof_sources(transport.source_address, pair.periphery, rng)
            noise = NoiseSpec(params.m_noise, local_spoof)
        return MeasureTarget.from_pair(pair), params.n_probe, noise

    sums = {1: [0.0] * len(pairs), 2: [0.0] * len(pairs)}
    bursts = run_phased(
        range(len(pairs)), (1, 2), params.repeats, burst_for, transport, params.receive_window_ms
    )
    for i, phase, sample in bursts:
        sums[phase][i] += sample.rcv
    out = []
    for sum1, sum2 in zip(sums[1], sums[2]):
        avg1, avg2 = sum1 / params.repeats, sum2 / params.repeats
        out.append((avg1, avg2, classify(avg1, avg2, params.n_probe, params.lam)))
    return out

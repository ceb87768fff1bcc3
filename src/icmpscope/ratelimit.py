"""Rcv measurement bursts and rate-limiter implementation classification.

A measurement sends n probe packets (optionally with m spoofed-source noise
packets interleaved evenly among them) and counts how many matching replies
the prober gets back. Comparing the count with and without noise is what
distinguishes global, strict, loose, and unclassifiable rate limiting.

Every burst keeps a quiet gap per node: ``pace`` waits out the gap since the
node's last burst ended, as recorded in the transport's ``burst_end`` table,
so every engine and step run over one transport shares it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from ipaddress import IPv6Address
from typing import Callable, Collection, Iterator, Sequence, TypeVar

from icmpscope.model import DataPair, IcmpKind, IcmpObservation, MeasurementParams, spoof_sources
from icmpscope.simnet.config import RateLimitClass
from icmpscope.transport import MAX_PPS_PER_PREFIX, CollectWindow, ObservationFilter, SendPlan

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


def pace(transport, key: IPv6Address, gap_ms: int = DEFAULT_BURST_GAP_MS) -> None:
    """Wait until ``gap_ms`` has passed since the last burst at ``key`` ended."""
    last = transport.burst_end.get(key)
    if last is not None:
        wait_ms = last + gap_ms - transport.now()
        if wait_ms > 0:
            transport.wait(wait_ms)


def paced_execute(
    transport, key: IPv6Address, plan: SendPlan, window: CollectWindow
) -> list[IcmpObservation]:
    """Send ``plan`` once ``key``'s quiet gap has passed, then restart the gap."""
    pace(transport, key)
    observations = transport.execute(plan, window)
    transport.burst_end[key] = transport.now()
    return observations


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
    and each burst keeps its node's quiet gap regardless (see ``measure_rcv``).
    ``burst_for(unit, phase)`` returns the burst's target, probe count and
    noise; it is called just before that burst is sent, so any random draws
    it makes follow the send order. Equal samples are yielded as one shared
    object, so callers that keep them hold one per distinct count.
    """
    shared: dict[RcvSample, RcvSample] = {}
    for _round in range(repeats):
        for phase in phases:
            for unit in units:
                mt, n, noise = burst_for(unit, phase)
                sample = measure_rcv(mt.target, mt.kind, n, noise, transport,
                                     expect_origin=mt.origin, receive_window_ms=receive_window_ms)
                yield unit, phase, shared.setdefault(sample, sample)


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
    The burst is sent once its node's quiet gap has passed, and the gap
    restarts when its window closes; the node is ``expect_origin``, or the
    target itself when no origin is expected.
    """
    m = noise.m if noise is not None else 0
    # Packets go 1 ms apart, widened when the burst would exceed the per-prefix
    # rate cap (the transport rejects rather than reshapes).
    spacing = math.ceil(1000 / MAX_PPS_PER_PREFIX) if n + m > MAX_PPS_PER_PREFIX else 1
    src = int(transport.source_address)
    spoof = int(noise.spoof_src) if noise is not None else None
    dst = int(rvp_target)
    probe_ids: set[int] = set()
    rows: list[tuple[int, int, int, int]] = []
    for slot, is_probe in enumerate(interleave_pattern(n, m)):
        if is_probe:
            probe_ids.add(slot + 1)
        rows.append((slot * spacing, src if is_probe else spoof, dst, slot + 1))

    plan = SendPlan(tuple(rows))
    window = CollectWindow(
        duration_ms=plan.span_ms + receive_window_ms,
        obs_filter=ObservationFilter(
            kinds=frozenset({kind}),
            origin=int(expect_origin) if expect_origin is not None else None,
            quoted_dst=dst if kind.is_error else None,
            probe_ids=frozenset(probe_ids),
        ),
    )
    key = expect_origin if expect_origin is not None else rvp_target
    observations = paced_execute(transport, key, plan, window)
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

"""Reachability inference between two remote nodes, neither of them ours.

The trick: reflect spoofed echo traffic off target B toward an unreachable
address X behind a remote vantage point A. If B can reach A, its echo replies
force A to burn its error-message budget, and probes we aim at X right then
come back thinner than the baseline. If B cannot reach A, nothing changes.
Timing the probe burst to meet the reflections needs only a rough estimate of
the A-B round trip, bounded by geography and by the measured round trips from
the prober to each side.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv6Address, IPv6Network
from typing import Callable, Mapping, Sequence

from icmpscope.model import (
    DataPair,
    IcmpKind,
    MeasurementParams,
    ProbePacket,
)
from icmpscope.ratelimit import MeasureTarget, RcvSample, pacer_for
from icmpscope.transport import CollectWindow, ObservationFilter, SendPlan

LIGHT_SPEED_KM_PER_MS = 300.0
FIBER_FACTOR = 2.0 / 3.0  # propagation speed in fiber relative to c
EARTH_RADIUS_KM = 6371.0

DEFAULT_ROTATION_GAP_MS = 300_000  # five minutes between reuses of one RVP
DEFAULT_BASELINE_REFRESH = 20  # targets measured per RVP before re-baselining

# Deliberate lateness added to the probe burst. Probes arriving early grab
# rate-limit tokens ahead of the reflections (one token per early millisecond)
# while probes arriving late only see the limiter's slow refill, so a small
# fixed delay is nearly free insurance against tight timing bounds.
DEFAULT_PROBE_LATE_MARGIN_MS = 15


@dataclass(frozen=True, slots=True)
class RttEstimate:
    low_ms: float
    high_ms: float
    sample_ms: float

    def __post_init__(self) -> None:
        if not self.low_ms <= self.sample_ms <= self.high_ms:
            raise ValueError("sample must lie within [low, high]")


def rtt_bounds(distance_km: float, rtt_a_ms: float, rtt_b_ms: float) -> tuple[float, float]:
    """Bounds on the A-B round trip from geography and the triangle rule.

    Geometric bound: light in fiber covers the great-circle distance no faster
    than d/(2c/3) and realistically no slower than d/(c/3). The triangle bound
    from the two measured round trips is intersected with it; if measurement
    noise empties the intersection, the physical geometric bound wins alone.
    """
    if distance_km < 0:
        raise ValueError("distance_km must be >= 0")
    fiber_speed = LIGHT_SPEED_KM_PER_MS * FIBER_FACTOR  # km per ms of RTT budget
    geo_low = distance_km / fiber_speed
    geo_high = 2.0 * distance_km / fiber_speed
    tri_low = abs(rtt_a_ms - rtt_b_ms)
    tri_high = rtt_a_ms + rtt_b_ms
    low = max(geo_low, tri_low)
    high = min(geo_high, tri_high)
    if low > high:
        return geo_low, geo_high
    return low, high


def delta_t(rtt_a_ms: float, rtt_b_ms: float, est_ab_ms: float) -> float:
    """Offset between the spoofed burst toward B and the probe burst toward X
    that makes reflections and probes reach A together. Negative means the
    probe burst goes first.
    """
    return (rtt_b_ms - rtt_a_ms + est_ab_ms) / 2.0


def sample_rtt_estimate(low_ms: float, high_ms: float, rng: random.Random) -> RttEstimate:
    """Draw an estimate from the upper two-thirds of the bounds interval.

    Overestimating is cheap (reflections arriving a little early still hold
    the limiter down) while underestimating lets probes beat the reflections,
    so the draw is deliberately biased late.
    """
    floor = low_ms + (high_ms - low_ms) / 3.0
    return RttEstimate(low_ms=low_ms, high_ms=high_ms, sample_ms=rng.uniform(floor, high_ms))


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


class CoordinateMap:
    """Address or prefix -> (lat, lon), resolved by longest matching prefix."""

    def __init__(self, entries: Sequence[tuple[IPv6Network, float, float]]) -> None:
        # One table per prefix length, keyed by the address bits above the host
        # part; the first entry for a duplicated prefix wins.
        by_shift: dict[int, dict[int, tuple[float, float]]] = {}
        for net, lat, lon in entries:
            shift = 128 - net.prefixlen
            by_shift.setdefault(shift, {}).setdefault(int(net.network_address) >> shift, (lat, lon))
        self._tables = sorted(by_shift.items())  # longest prefix first

    def lookup(self, addr: IPv6Address) -> tuple[float, float]:
        value = int(addr)
        for shift, table in self._tables:
            hit = table.get(value >> shift)
            if hit is not None:
                return hit
        raise KeyError(f"no coordinates cover {addr}")

    def distance_km(self, a: IPv6Address, b: IPv6Address) -> float:
        lat1, lon1 = self.lookup(a)
        lat2, lon2 = self.lookup(b)
        return haversine_km(lat1, lon1, lat2, lon2)


class ReachCategory(Enum):
    CONNECTED = "connected"
    UNCONNECTED = "unconnected"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True, slots=True)
class ReachVerdict:
    category: ReachCategory
    ratio: float | None
    avg1: float
    avg2: float
    k: int


def infer_reach(avg1: float, avg2: float, lam: float) -> ReachVerdict:
    """Unconnected when the with-reflection count stays near the baseline."""
    if avg1 <= 0:
        return ReachVerdict(ReachCategory.UNCERTAIN, None, avg1, avg2, 0)
    ratio = avg2 / avg1
    category = ReachCategory.UNCONNECTED if ratio >= lam else ReachCategory.CONNECTED
    return ReachVerdict(category, ratio, avg1, avg2, 0)


def run_reach_protocol(
    target_b: IPv6Address,
    rvp: DataPair,
    params: MeasurementParams,
    est: RttEstimate,
    transport,
    rtt_a_ms: float,
    rtt_b_ms: float,
    *,
    baseline: RcvSample | None = None,
    probe_late_margin_ms: int = DEFAULT_PROBE_LATE_MARGIN_MS,
) -> tuple[RcvSample, RcvSample]:
    """One execution of the reflection protocol; returns (rcv1, rcv2).

    Baseline first, unless one is passed in: n probes at the unreachable
    address X (the pair's target), counting errors from the vantage point.
    Then a single plan: m echo requests to B spoofed as X, and n plain probes
    at X offset by delta-t so both packet trains land on the vantage point
    together, all 1 ms apart. rcv2 counts only errors quoting X that answer
    the second probe train. Both bursts keep the vantage point's quiet gap.
    """
    x = rvp.target
    pacer = pacer_for(transport)
    if baseline is None:
        mt = MeasureTarget.from_pair(rvp)
        baseline = pacer.measure(mt, params.n_probe, None, params.receive_window_ms)
    if baseline.rcv == 0:
        # Unusable vantage point for this target; skip the reflection burst.
        return baseline, RcvSample(0, params.n_probe, True, params.m_noise)

    dt = round(delta_t(rtt_a_ms, rtt_b_ms, est.sample_ms))
    spoof_start = max(0, -dt)
    probe_start = max(0, dt) + probe_late_margin_ms
    pids = itertools.count(1)
    entries: list[tuple[int, ProbePacket]] = []
    for i in range(params.m_noise):
        entries.append(
            (spoof_start + i, ProbePacket(src=x, dst=target_b, probe_id=next(pids)))
        )
    probe_ids: set[int] = set()
    for j in range(params.n_probe):
        pid = next(pids)
        probe_ids.add(pid)
        entries.append(
            (
                probe_start + j,
                ProbePacket(src=transport.source_address, dst=x, probe_id=pid),
            )
        )
    entries.sort(key=lambda e: e[0])

    plan = SendPlan(tuple(entries))
    window = CollectWindow(
        duration_ms=plan.span_ms + params.receive_window_ms,
        obs_filter=ObservationFilter(
            kinds=frozenset({rvp.error_kind}),
            origin=rvp.periphery,
            quoted_dst=x,
            probe_ids=frozenset(probe_ids),
        ),
    )
    observations = pacer.execute(rvp.periphery, plan, window)
    return baseline, RcvSample(len(observations), params.n_probe, True, params.m_noise)


EstimateFn = Callable[[IPv6Address, DataPair, float, float], RttEstimate]


def geo_estimator(geo: CoordinateMap, rng: random.Random) -> EstimateFn:
    """Default estimate source: great-circle bounds tightened by measured RTTs."""

    def estimate(target: IPv6Address, rvp: DataPair, rtt_a: float, rtt_b: float) -> RttEstimate:
        low, high = rtt_bounds(geo.distance_km(target, rvp.periphery), rtt_a, rtt_b)
        return sample_rtt_estimate(low, high, rng)

    return estimate


@dataclass
class ReachRecord:
    target: IPv6Address
    samples: list[tuple[int, int]] = field(default_factory=list)  # (rcv1, rcv2) per repeat
    verdict: ReachVerdict | None = None

    def verdict_at_k(self, k: int, lam: float) -> ReachVerdict:
        """Verdict using only the first k repeats."""
        subset = self.samples[:k]
        if not subset:
            return ReachVerdict(ReachCategory.UNCERTAIN, None, 0.0, 0.0, 0)
        avg1 = sum(s[0] for s in subset) / len(subset)
        avg2 = sum(s[1] for s in subset) / len(subset)
        v = infer_reach(avg1, avg2, lam)
        return ReachVerdict(v.category, v.ratio, avg1, avg2, len(subset))


@dataclass
class ReachCampaignResult:
    records: dict[IPv6Address, ReachRecord]

    def verdicts(self) -> dict[IPv6Address, ReachVerdict]:
        return {t: r.verdict for t, r in self.records.items() if r.verdict is not None}


class _RvpState:
    __slots__ = ("pair", "baseline", "uses_since_baseline", "rtt_a")

    def __init__(self, pair: DataPair) -> None:
        self.pair = pair
        self.baseline: RcvSample | None = None
        self.uses_since_baseline = 0
        self.rtt_a: float | None = None


def run_reach_campaign(
    targets: Sequence[IPv6Address],
    proxy_rvps: Sequence[DataPair],
    params: MeasurementParams,
    transport,
    *,
    geo: CoordinateMap | None = None,
    estimate_fn: EstimateFn | None = None,
    seed: int = 0,
    rotation_gap_ms: int = DEFAULT_ROTATION_GAP_MS,
    baseline_refresh: int = DEFAULT_BASELINE_REFRESH,
    probe_late_margin_ms: int = DEFAULT_PROBE_LATE_MARGIN_MS,
) -> ReachCampaignResult:
    """Measure every target k times, rotating vantage points.

    Vantage points are used round-robin with a minimum reuse interval, their
    rcv1 baseline is refreshed every ``baseline_refresh`` uses rather than per
    target, and a fresh RTT estimate is drawn for every repeat. Targets that
    never answer a direct ping are reported uncertain by policy: a silent
    target reflects nothing, which is indistinguishable from unreachable.
    """
    if not proxy_rvps:
        raise ValueError("at least one proxy RVP is required")
    if estimate_fn is None:
        if geo is None:
            raise ValueError("either a coordinate map or an estimate_fn is required")
        estimate_fn = geo_estimator(geo, random.Random(seed))

    rvp_states = [_RvpState(pair) for pair in proxy_rvps]
    pacer = pacer_for(transport)
    records = {t: ReachRecord(t) for t in targets}
    rtt_b: dict[IPv6Address, float | None] = {}
    run_index = 0

    for _rep in range(params.repeats):
        for target in targets:
            if target not in rtt_b:
                rtt_b[target] = _ping_rtt(transport, target, params.receive_window_ms)
            if rtt_b[target] is None:
                continue  # uncertain by policy; no verdict sample

            state = rvp_states[run_index % len(rvp_states)]
            run_index += 1
            rvp_addr = state.pair.periphery
            # The reuse interval, like the quiet gap, runs from the RVP's last burst.
            pacer.pace(rvp_addr, rotation_gap_ms)

            if state.rtt_a is None:
                state.rtt_a = _ping_rtt(transport, rvp_addr, params.receive_window_ms)
            if state.uses_since_baseline >= baseline_refresh:
                state.baseline = None  # the protocol measures a fresh one
                state.uses_since_baseline = 0

            rtt_a = state.rtt_a if state.rtt_a is not None else 0.0
            est = estimate_fn(target, state.pair, rtt_a, rtt_b[target])  # type: ignore[arg-type]
            state.baseline, rcv2 = run_reach_protocol(
                target,
                state.pair,
                params,
                est,
                transport,
                rtt_a,
                rtt_b[target],  # type: ignore[arg-type]
                baseline=state.baseline,
                probe_late_margin_ms=probe_late_margin_ms,
            )
            state.uses_since_baseline += 1
            records[target].samples.append((state.baseline.rcv, rcv2.rcv))

    for record in records.values():
        if record.samples:
            record.verdict = record.verdict_at_k(len(record.samples), params.lam)
        else:
            record.verdict = ReachVerdict(ReachCategory.UNCERTAIN, None, 0.0, 0.0, 0)
    return ReachCampaignResult(records=records)


def _ping_rtt(transport, addr: IPv6Address, window_ms: int, count: int = 3) -> float | None:
    """Mean round trip over a few spaced echoes, or None if all stay silent.

    The mean keeps the estimate unbiased under symmetric jitter; a min would
    systematically shorten the target-side round trip and schedule the probe
    burst too early.
    """
    gap = 50
    sent = {i + 1: i * gap for i in range(count)}
    plan = SendPlan(
        tuple(
            (off, ProbePacket(src=transport.source_address, dst=addr, probe_id=pid))
            for pid, off in sent.items()
        )
    )
    window = CollectWindow(
        duration_ms=(count - 1) * gap + window_ms,
        obs_filter=ObservationFilter(
            kinds=frozenset({IcmpKind.ECHO_REPLY}),
            origin=addr,
            probe_ids=frozenset(sent),
        ),
    )
    t0 = transport.now()
    observations = transport.execute(plan, window)
    rtts = [
        obs.received_at - (t0 + sent[obs.probe_id])
        for obs in observations
        if obs.probe_id in sent
    ]
    if not rtts:
        return None
    return sum(rtts) / len(rtts)


# -- evaluation ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LambdaMetrics:
    lam: float
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    accuracy: float
    f_score: float


@dataclass
class EvalReport:
    """Scores against ground truth; positive class is Unconnected."""

    precision: float
    recall: float
    accuracy: float
    f_score: float
    per_lambda: list[LambdaMetrics]
    roc_points: list[tuple[float, float]]
    auc: float
    n_scored: int
    n_uncertain: int


def _metrics_at(
    scored: list[tuple[float, bool]], lam: float
) -> LambdaMetrics:
    tp = fp = tn = fn = 0
    for ratio, truth_positive in scored:
        predicted_positive = ratio >= lam
        if predicted_positive and truth_positive:
            tp += 1
        elif predicted_positive:
            fp += 1
        elif truth_positive:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    accuracy = (tp + tn) / len(scored) if scored else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return LambdaMetrics(lam, tp, fp, tn, fn, precision, recall, accuracy, f_score)


def evaluate(
    verdicts: Mapping[IPv6Address, ReachVerdict],
    ground_truth: Mapping[IPv6Address, bool],
    lambdas: Sequence[float],
    primary_lam: float = 0.7,
) -> EvalReport:
    """Confusion metrics per threshold plus a threshold-swept ROC curve.

    ``ground_truth`` maps each target to True when it is unconnected.
    Verdicts without a ratio (uncertain) are excluded from scoring and only
    counted.
    """
    if not ground_truth:
        raise ValueError("ground truth must be non-empty")
    scored: list[tuple[float, bool]] = []
    n_uncertain = 0
    for target, truth in ground_truth.items():
        verdict = verdicts[target]
        if verdict.ratio is None:
            n_uncertain += 1
            continue
        scored.append((verdict.ratio, truth))

    per_lambda = [_metrics_at(scored, lam) for lam in lambdas]
    primary = _metrics_at(scored, primary_lam)

    positives = sum(1 for _r, truth in scored if truth)
    negatives = len(scored) - positives
    points = [(0.0, 0.0)]
    tp = fp = 0
    ordered = sorted(scored, key=lambda s: -s[0])
    i = 0
    while i < len(ordered):
        # Tied ratios cross the threshold together: one point per distinct value.
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            tp += ordered[j][1]
            fp += not ordered[j][1]
            j += 1
        i = j
        points.append(
            (fp / negatives if negatives else 0.0, tp / positives if positives else 0.0)
        )
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    auc = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        auc += (x2 - x1) * (y1 + y2) / 2.0

    return EvalReport(
        precision=primary.precision,
        recall=primary.recall,
        accuracy=primary.accuracy,
        f_score=primary.f_score,
        per_lambda=per_lambda,
        roc_points=points,
        auc=auc,
        n_scored=len(scored),
        n_uncertain=n_uncertain,
    )

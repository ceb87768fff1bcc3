"""Inbound source address validation inference per prefix.

Three reply counts drive the verdict for a prefix's vantage point: rcv1 with
probes alone, rcv2 with noise spoofed from the prober's own network, rcv3
with noise spoofed from inside the target network. If ingress filtering
drops the inside-spoofed noise, rcv3 stays near rcv1 while rcv2 collapses;
if nothing filters, rcv3 collapses like rcv2 does.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from ipaddress import IPv6Address, IPv6Network
from typing import Mapping, Sequence

from icmpscope.model import DataPair, IcmpKind, MeasurementParams, spoof_sources
from icmpscope.ratelimit import MeasureTarget, NoiseSpec, RcvSample, measure_rcv, run_phased

SUPPLEMENTAL_PACKETS = 500  # probe and noise count for the echo-reply mode


class IsavCategory(Enum):
    DEPLOYED = "deployed"
    VULNERABLE = "vulnerable"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True, slots=True)
class IsavVerdict:
    """Verdict plus the rule that fired and the two decision ratios."""

    category: IsavCategory
    rule: str
    ratio_3_to_1: float | None
    ratio_2_to_3: float | None


@dataclass
class RcvTriple:
    """All samples for one prefix; averages are recomputed on demand."""

    samples1: list[RcvSample] = field(default_factory=list)
    samples2: list[RcvSample] = field(default_factory=list)
    samples3: list[RcvSample] = field(default_factory=list)

    @staticmethod
    def _mean(samples: list[RcvSample]) -> float:
        return sum(s.rcv for s in samples) / len(samples) if samples else 0.0

    @property
    def avg1(self) -> float:
        return self._mean(self.samples1)

    @property
    def avg2(self) -> float:
        return self._mean(self.samples2)

    @property
    def avg3(self) -> float:
        return self._mean(self.samples3)

    @property
    def mode_consistency(self) -> float:
        """Fraction of samples equal to their per-series mode, averaged over
        the three series. 1.0 means every repeat agreed exactly."""
        fractions = []
        for samples in (self.samples1, self.samples2, self.samples3):
            if not samples:
                continue
            counts = Counter(s.rcv for s in samples)
            fractions.append(counts.most_common(1)[0][1] / len(samples))
        return sum(fractions) / len(fractions) if fractions else 0.0


def infer_isav(avg1: float, avg2: float, avg3: float, lam: float) -> IsavVerdict:
    """Apply the two decision rules to the averaged counts.

    Rule 1 (inside-spoofed noise got through, so no filtering): avg3 < lam*avg1.
    Rule 2 (inside-spoofed noise was filtered while local-spoofed was not):
    avg2 < lam*avg3. When both fire, the rule with the smaller ratio wins.
    """
    if avg1 <= 0:
        return IsavVerdict(IsavCategory.UNCERTAIN, "no_baseline", None, None)
    r31 = avg3 / avg1
    r23 = avg2 / avg3 if avg3 > 0 else None
    rule1 = avg3 < lam * avg1
    rule2 = r23 is not None and avg2 < lam * avg3
    if rule1 and rule2:
        assert r23 is not None
        if r31 <= r23:
            return IsavVerdict(IsavCategory.VULNERABLE, "tie_rule1", r31, r23)
        return IsavVerdict(IsavCategory.DEPLOYED, "tie_rule2", r31, r23)
    if rule1:
        return IsavVerdict(IsavCategory.VULNERABLE, "rule1", r31, r23)
    if rule2:
        return IsavVerdict(IsavCategory.DEPLOYED, "rule2", r31, r23)
    return IsavVerdict(IsavCategory.UNCERTAIN, "none", r31, r23)


def select_rvp(candidates: Sequence[tuple[DataPair, float]], n: int) -> DataPair:
    """Pick a vantage point whose limiter is neither too strict nor too loose.

    Candidates (at least one) come with a one-shot rcv1 estimate; those
    replying exactly once or answering every probe are skipped unless nothing
    better exists.
    """
    for pair, rcv1 in candidates:
        if 1 < rcv1 < n:
            return pair
    return candidates[0][0]


@dataclass
class IsavCampaignResult:
    results: dict[IPv6Network, tuple[RcvTriple, IsavVerdict]]


def _measure_triples(
    targets: Mapping[IPv6Network, MeasureTarget],
    params: MeasurementParams,
    transport,
    local_vp: IPv6Address,
    seed: int,
) -> dict[IPv6Network, tuple[RcvTriple, IsavVerdict]]:
    """Measure every prefix's rcv triple at its vantage point and infer its verdict.

    Phase 1 sends probes alone, phase 2 adds noise spoofed from the prober's
    /80, and phase 3 adds noise spoofed from the vantage point's /124.
    """
    rng = random.Random(seed)
    spoofs = {prefix: spoof_sources(local_vp, mt.origin, rng) for prefix, mt in targets.items()}

    def burst_for(prefix: IPv6Network, phase: int) -> tuple[MeasureTarget, int, NoiseSpec | None]:
        noise = None if phase == 1 else NoiseSpec(params.m_noise, spoofs[prefix][phase - 2])
        return targets[prefix], params.n_probe, noise

    triples = {prefix: RcvTriple() for prefix in targets}
    bursts = run_phased(
        targets, (1, 2, 3), params.repeats, burst_for, transport, params.receive_window_ms
    )
    for prefix, phase, sample in bursts:
        triple = triples[prefix]
        (triple.samples1, triple.samples2, triple.samples3)[phase - 1].append(sample)
    return {
        prefix: (triple, infer_isav(triple.avg1, triple.avg2, triple.avg3, params.lam))
        for prefix, triple in triples.items()
    }


def run_isav_campaign(
    prefix_rvps: Mapping[IPv6Network, DataPair],
    params: MeasurementParams,
    transport,
    local_vp: IPv6Address,
    *,
    seed: int = 0,
) -> IsavCampaignResult:
    """Measure every prefix's rcv triple through its data pair's error
    messages and infer its verdict.

    Scheduling is phase-ordered: every prefix's rcv1 for round i, then every
    rcv2, then every rcv3, for k rounds, so the same vantage point is never
    hit twice in a row while other prefixes still have work pending, and a
    minimum quiet gap is kept per vantage point regardless.
    """
    targets = {prefix: MeasureTarget.from_pair(pair) for prefix, pair in prefix_rvps.items()}
    return IsavCampaignResult(_measure_triples(targets, params, transport, local_vp, seed))


def run_supplemental_echo(
    uncertain_rvps: Mapping[IPv6Network, DataPair | None],
    extra_targets: Mapping[IPv6Network, Sequence[IPv6Address]],
    params: MeasurementParams,
    transport,
    local_vp: IPv6Address,
    *,
    seed: int = 0,
) -> dict[IPv6Network, tuple[RcvTriple, IsavVerdict]]:
    """Re-measure undecided prefixes through echo-reply rate limiting.

    Probes go straight to a responder (previously found vantage points take
    priority over hitlist extras) with the heavier n = m = 500 bursts that
    echo-reply limiting needs before it becomes observable. Prefixes whose
    responders show no limiting simply stay uncertain.
    """
    responders: dict[IPv6Network, MeasureTarget] = {}
    for prefix, pair in uncertain_rvps.items():
        candidates: list[IPv6Address] = []
        if pair is not None:
            candidates.append(pair.periphery)
        candidates.extend(extra_targets.get(prefix, ()))
        for candidate in candidates:
            sample = measure_rcv(candidate, IcmpKind.ECHO_REPLY, 1, None, transport,
                                 expect_origin=candidate, receive_window_ms=params.receive_window_ms)
            if sample.rcv > 0:
                responders[prefix] = MeasureTarget(candidate, candidate, IcmpKind.ECHO_REPLY)
                break

    echo_params = replace(params, n_probe=SUPPLEMENTAL_PACKETS, m_noise=SUPPLEMENTAL_PACKETS)
    return _measure_triples(responders, echo_params, transport, local_vp, seed)


class AsCategory(Enum):
    VULNERABLE = "vulnerable"
    DEPLOYED = "deployed"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class AsVerdict:
    category: AsCategory
    member_verdicts: dict[IPv6Network, IsavCategory]


def aggregate_as(
    verdicts: Mapping[IPv6Network, IsavCategory],
    as_map: Mapping[IPv6Network, int],
) -> dict[int, AsVerdict]:
    """Roll prefix verdicts up to autonomous systems.

    Uncertain prefixes carry no signal and are dropped first; an AS with both
    deployed and vulnerable members is inconsistent, and an AS left with no
    decided member is omitted entirely.
    """
    members: dict[int, dict[IPv6Network, IsavCategory]] = {}
    for prefix, category in verdicts.items():
        if category is IsavCategory.UNCERTAIN:
            continue
        asn = as_map[prefix]
        members.setdefault(asn, {})[prefix] = category

    out: dict[int, AsVerdict] = {}
    for asn, prefix_categories in members.items():
        categories = set(prefix_categories.values())
        if categories == {IsavCategory.VULNERABLE}:
            cat = AsCategory.VULNERABLE
        elif categories == {IsavCategory.DEPLOYED}:
            cat = AsCategory.DEPLOYED
        else:
            cat = AsCategory.INCONSISTENT
        out[asn] = AsVerdict(category=cat, member_verdicts=prefix_categories)
    return out

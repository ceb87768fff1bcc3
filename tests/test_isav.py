from ipaddress import IPv6Address, IPv6Network

import pytest

from icmpscope.isav import (
    AsCategory,
    IsavCategory,
    RcvTriple,
    aggregate_as,
    infer_isav,
    run_isav_campaign,
    run_supplemental_echo,
    select_rvp,
)
from icmpscope.model import DataPair, MeasurementParams, parse_address, parse_prefix
from icmpscope.ratelimit import RcvSample
from icmpscope.simnet import scenarios
from icmpscope.simnet.config import oracle_isav
from icmpscope.transport import SimTransport


def test_infer_isav_rule_examples():
    assert infer_isav(48.0, 19.0, 21.0, 0.6).category is IsavCategory.VULNERABLE
    assert infer_isav(48.2, 20.1, 47.5, 0.6).category is IsavCategory.DEPLOYED
    assert infer_isav(50.0, 50.0, 50.0, 0.6).category is IsavCategory.UNCERTAIN


def test_infer_isav_tie_break_prefers_smaller_ratio():
    # Both rules fire: 25/50 = 0.5 vs 10/25 = 0.4; the smaller ratio belongs
    # to the filtered-noise rule, so the verdict is deployed.
    verdict = infer_isav(50.0, 10.0, 25.0, 0.6)
    assert verdict.category is IsavCategory.DEPLOYED
    assert verdict.rule == "tie_rule2"
    assert verdict.ratio_3_to_1 == pytest.approx(0.5)
    assert verdict.ratio_2_to_3 == pytest.approx(0.4)

    flipped = infer_isav(50.0, 11.0, 20.0, 0.6)  # 0.4 vs 0.55: rule one wins
    assert flipped.category is IsavCategory.VULNERABLE
    assert flipped.rule == "tie_rule1"


def test_infer_isav_degenerate_inputs():
    assert infer_isav(0.0, 0.0, 0.0, 0.6).category is IsavCategory.UNCERTAIN
    assert infer_isav(0.0, 0.0, 0.0, 0.6).rule == "no_baseline"
    v = infer_isav(10.0, 0.0, 0.0, 0.6)  # avg3 = 0 with a live baseline
    assert v.category is IsavCategory.VULNERABLE


def pair(target, periphery):
    return DataPair(parse_address(target), parse_address(periphery))


def test_select_rvp_prefers_moderate_limiting():
    a = pair("2001:db8::a", "2001:db8::1")
    b = pair("2001:db8::b", "2001:db8::2")
    c = pair("2001:db8::c", "2001:db8::3")
    assert select_rvp([(a, 10.0), (b, 50.0), (c, 1.0)], 50) is a
    assert select_rvp([(b, 50.0)], 50) is b  # fallback when nothing moderate


def test_rcv_triple_statistics():
    triple = RcvTriple(
        samples1=[RcvSample(10, 50, False, 0), RcvSample(10, 50, False, 0)],
        samples2=[RcvSample(3, 50, True, 100), RcvSample(4, 50, True, 100)],
        samples3=[RcvSample(10, 50, True, 100), RcvSample(10, 50, True, 100)],
    )
    assert triple.avg1 == 10.0
    assert triple.avg2 == 3.5
    assert triple.avg3 == 10.0
    assert triple.mode_consistency == pytest.approx((1.0 + 0.5 + 1.0) / 3)


def campaign(n_prefixes, seed, *, loss=0.0, jitter=0.0, repeats=3):
    bundle = scenarios.build_isav_population(n_prefixes, seed=seed, loss=loss, jitter=jitter)
    transport = SimTransport(bundle.cfg)
    params = MeasurementParams(repeats=repeats)
    rvps = {prefix: plist[0] for prefix, plist in bundle.pairs.items()}
    result = run_isav_campaign(rvps, params, transport, bundle.local_vp, seed=seed)
    return bundle, result


def test_campaign_matches_oracle_zero_loss():
    bundle, result = campaign(16, seed=5)
    for prefix, (_triple, verdict) in result.results.items():
        expected = (
            IsavCategory.DEPLOYED if oracle_isav(bundle.cfg, prefix) else IsavCategory.VULNERABLE
        )
        assert verdict.category is expected


class RecordingTransport(SimTransport):
    """A simulated transport that keeps every plan it executes."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.plans = []

    def execute(self, plan, window):
        self.plans.append(plan)
        return super().execute(plan, window)


def sent_bursts(n_prefixes, seed, repeats):
    """Run a campaign and read (vantage point, phase) per burst off the wire.

    The probe destination names the data pair, hence its vantage point. The
    noise source names the phase: no noise is rcv1, noise from the prober's
    /80 is rcv2, noise from the vantage point's /124 is rcv3.
    """
    bundle = scenarios.build_isav_population(n_prefixes, seed=seed)
    transport = RecordingTransport(bundle.cfg)
    rvps = {prefix: plist[0] for prefix, plist in bundle.pairs.items()}
    run_isav_campaign(rvps, MeasurementParams(repeats=repeats), transport, bundle.local_vp, seed=seed)
    rvp_of = {pair.target: pair.periphery for pair in rvps.values()}
    local_net = IPv6Network((bundle.local_vp, 80), strict=False)
    bursts = []
    for plan in transport.plans:
        (dst,) = {IPv6Address(dst) for _t, _src, dst, _pid in plan.packets}
        rvp = rvp_of[dst]
        noise = {IPv6Address(src) for _t, src, _dst, _pid in plan.packets} - {transport.source_address}
        if not noise:
            phase = 1
        else:
            (src,) = noise
            assert (src in local_net) != (src in IPv6Network((rvp, 124), strict=False))
            phase = 2 if src in local_net else 3
        bursts.append((rvp, phase))
    return bursts


def test_campaign_schedule_never_repeats_an_rvp_back_to_back():
    rvp_sequence = [rvp for rvp, _phase in sent_bursts(6, seed=8, repeats=3)]
    assert len(rvp_sequence) == 6 * 3 * 3
    for a, b in zip(rvp_sequence, rvp_sequence[1:]):
        assert a != b


def test_campaign_phase_ordering():
    bursts = sent_bursts(4, seed=8, repeats=2)
    phases = [phase for _rvp, phase in bursts]
    # 4 prefixes per phase, phases 1,2,3 per round, 2 rounds.
    assert phases == [1] * 4 + [2] * 4 + [3] * 4 + [1] * 4 + [2] * 4 + [3] * 4
    # Every phase visits the same vantage points in the same order.
    order = [rvp for rvp, _phase in bursts[:4]]
    assert len(set(order)) == 4
    assert [rvp for rvp, _phase in bursts] == order * 6


def test_campaign_verdicts_recompute_from_stored_triples():
    _bundle, result = campaign(8, seed=9)
    for _prefix, (triple, verdict) in result.results.items():
        again = infer_isav(triple.avg1, triple.avg2, triple.avg3, 0.6)
        assert again.category is verdict.category
        assert again.rule == verdict.rule


def test_campaign_lambda_stability_zero_loss():
    _bundle, result = campaign(12, seed=10)
    for _prefix, (triple, verdict) in result.results.items():
        for lam in (0.5, 0.6, 0.7):
            assert infer_isav(triple.avg1, triple.avg2, triple.avg3, lam).category is verdict.category


def test_campaign_mode_consistency():
    _bundle, result = campaign(6, seed=11)
    for _prefix, (triple, _verdict) in result.results.items():
        assert triple.mode_consistency == 1.0  # zero loss: every repeat identical

    _bundle2, lossy = campaign(6, seed=11, loss=0.05, jitter=0.2, repeats=5)
    values = [t.mode_consistency for _p, (t, _v) in lossy.results.items()]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_unlimited_prefixes_stay_uncertain():
    from dataclasses import replace

    from icmpscope.simnet.limiter import Unlimited

    bundle = scenarios.build_isav_population(4, seed=12)
    bundle.cfg.routers = [replace(r, limiter=Unlimited()) for r in bundle.cfg.routers]
    transport = SimTransport(bundle.cfg)
    rvps = {prefix: plist[0] for prefix, plist in bundle.pairs.items()}
    result = run_isav_campaign(rvps, MeasurementParams(repeats=2), transport, bundle.local_vp)
    for _prefix, (triple, verdict) in result.results.items():
        assert verdict.category is IsavCategory.UNCERTAIN
        assert triple.avg1 == triple.avg2 == triple.avg3 == 50.0


def test_supplemental_echo_resolves_hitlist_prefixes():
    bundle = scenarios.build_supplemental_demo(4, seed=9)
    transport = SimTransport(bundle.cfg)
    params = MeasurementParams(repeats=3)
    uncertain = {prefix: None for prefix in bundle.hitlist}
    updates = run_supplemental_echo(
        uncertain, bundle.hitlist, params, transport, bundle.local_vp, seed=9
    )
    resolved = {p: v.category for p, (_t, v) in updates.items()}
    for prefix, category in resolved.items():
        truth = oracle_isav(bundle.cfg, prefix)
        router = next(r for r in bundle.cfg.routers if r.served_prefix == prefix)
        from icmpscope.simnet.limiter import Unlimited

        if isinstance(router.limiter, Unlimited):
            assert category is IsavCategory.UNCERTAIN
        elif truth:
            assert category is IsavCategory.DEPLOYED
        else:
            assert category is IsavCategory.VULNERABLE
    # the supplemental mode uses the heavier bursts
    some_triple = next(iter(updates.values()))[0]
    assert some_triple.samples1[0].n_sent == 500


def test_supplemental_echo_empty_uncertain_is_noop():
    bundle = scenarios.build_supplemental_demo(2, seed=1)
    transport = SimTransport(bundle.cfg)
    out = run_supplemental_echo({}, {}, MeasurementParams(repeats=1), transport, bundle.local_vp)
    assert out == {}


def test_aggregate_as_rules():
    p1 = parse_prefix("2001:db8:1::/48")
    p2 = parse_prefix("2001:db8:2::/48")
    p3 = parse_prefix("2001:db8:3::/48")
    as_map = {p1: 64500, p2: 64500, p3: 64501}

    out = aggregate_as({p1: IsavCategory.VULNERABLE, p2: IsavCategory.VULNERABLE}, as_map)
    assert out[64500].category is AsCategory.VULNERABLE

    out = aggregate_as({p1: IsavCategory.VULNERABLE, p2: IsavCategory.DEPLOYED}, as_map)
    assert out[64500].category is AsCategory.INCONSISTENT

    out = aggregate_as({p3: IsavCategory.UNCERTAIN}, as_map)
    assert 64501 not in out

    out = aggregate_as({p1: IsavCategory.DEPLOYED, p2: IsavCategory.UNCERTAIN}, as_map)
    assert out[64500].category is AsCategory.DEPLOYED

    with pytest.raises(KeyError):
        aggregate_as({parse_prefix("2001:db8:9::/48"): IsavCategory.DEPLOYED}, as_map)

import random
from collections import Counter
from dataclasses import replace
from ipaddress import IPv6Network

import pytest

from oracles import mann_whitney_auc

from icmpscope.model import IcmpKind, MeasurementParams, parse_address, parse_prefix
from icmpscope.ratelimit import DEFAULT_BURST_GAP_MS, RcvSample
from icmpscope.reach import (
    DEFAULT_PROBE_LATE_MARGIN_MS,
    CoordinateMap,
    ReachCategory,
    RttEstimate,
    delta_t,
    evaluate,
    geo_estimator,
    haversine_km,
    infer_reach,
    rtt_bounds,
    run_reach_campaign,
    run_reach_protocol,
    sample_rtt_estimate,
)
from icmpscope.simnet import scenarios
from icmpscope.simnet.config import link_key
from icmpscope.transport import SimTransport


def test_rtt_bounds_worked_example():
    assert rtt_bounds(8000, 30, 60) == (40.0, 80.0)


def test_rtt_bounds_degenerate_distance():
    low, high = rtt_bounds(0, 10, 20)
    assert (low, high) == (0.0, 0.0)  # empty intersection falls back to geometry


def test_rtt_bounds_ordering_random():
    rng = random.Random(2)
    for _ in range(10_000):
        d = rng.uniform(0, 20_000)
        a = rng.uniform(1, 400)
        b = rng.uniform(1, 400)
        low, high = rtt_bounds(d, a, b)
        assert low <= high


def test_delta_t_examples():
    assert delta_t(20, 50, 40) == 35.0
    assert delta_t(50, 20, 10) == -10.0  # probe burst goes first
    assert delta_t(7, 7, 12) == 6.0


def test_delta_t_antisymmetry():
    rng = random.Random(3)
    for _ in range(1000):
        a, b, r = rng.uniform(0, 300), rng.uniform(0, 300), rng.uniform(0, 300)
        assert delta_t(a, b, r) + delta_t(b, a, r) == pytest.approx(r)


def test_sample_estimate_in_upper_two_thirds():
    rng = random.Random(4)
    for _ in range(500):
        low = rng.uniform(0, 100)
        high = low + rng.uniform(0, 100)
        est = sample_rtt_estimate(low, high, rng)
        assert low <= est.sample_ms <= high
        assert est.sample_ms >= low + (high - low) / 3 - 1e-9


def test_rtt_estimate_validation():
    with pytest.raises(ValueError):
        RttEstimate(10, 20, 30)


def test_infer_reach_rules():
    # Reported class means against a ~6-message baseline separate cleanly.
    assert infer_reach(6.0, 5.131, 0.7).category is ReachCategory.UNCONNECTED
    assert infer_reach(6.0, 1.472, 0.7).category is ReachCategory.CONNECTED
    assert infer_reach(5.1, 5.0, 0.7).category is ReachCategory.UNCONNECTED
    assert infer_reach(0.0, 3.0, 0.7).category is ReachCategory.UNCERTAIN
    assert infer_reach(0.0, 3.0, 0.7).ratio is None


def test_haversine_sanity():
    assert haversine_km(0, 0, 0, 1) == pytest.approx(111.19, rel=1e-3)
    assert haversine_km(10, 20, 10, 20) == 0.0


def test_coordinate_map_longest_prefix_wins():
    geo = CoordinateMap(
        [
            (parse_prefix("2001:db8::/32"), 10.0, 10.0),
            (parse_prefix("2001:db8:1::/48"), 50.0, 50.0),
        ]
    )
    assert geo.lookup(parse_address("2001:db8:1::5")) == (50.0, 50.0)
    assert geo.lookup(parse_address("2001:db8:2::5")) == (10.0, 10.0)
    with pytest.raises(KeyError):
        geo.lookup(parse_address("2001:db9::1"))


def test_coordinate_map_first_duplicate_wins():
    geo = CoordinateMap(
        [
            (parse_prefix("2001:db8:1::/48"), 1.0, 1.0),
            (parse_prefix("2001:db8:1::/48"), 2.0, 2.0),
        ]
    )
    assert geo.lookup(parse_address("2001:db8:1::5")) == (1.0, 1.0)


def test_coordinate_map_host_route_inside_prefix():
    host = parse_address("2001:db8:1::7")
    geo = CoordinateMap(
        [
            (parse_prefix("2001:db8:1::/48"), 10.0, 10.0),
            (IPv6Network((int(host), 128)), 20.0, 20.0),
        ]
    )
    assert geo.lookup(host) == (20.0, 20.0)
    assert geo.lookup(parse_address("2001:db8:1::8")) == (10.0, 10.0)
    with pytest.raises(KeyError, match="no coordinates cover 2001:db8:2::7"):
        geo.lookup(parse_address("2001:db8:2::7"))


def reach_world(n_targets=12, n_cut=4, seed=6, **kwargs):
    bundle = scenarios.build_reach_population(n_targets, n_cut, seed=seed, **kwargs)
    return bundle, SimTransport(bundle.cfg)


def true_rtt(bundle, target, rvp):
    owd = bundle.cfg.links[link_key(bundle.target_router[target], rvp.periphery)].base_owd_ms
    return 2.0 * owd


def perfect_estimator(bundle):
    def estimate(target, rvp, _rtt_a, _rtt_b):
        truth = true_rtt(bundle, target, rvp)
        return RttEstimate(truth, truth, truth)

    return estimate


def test_protocol_cut_target_keeps_baseline():
    bundle, tp = reach_world()
    cut_target = next(t for t, unconnected in bundle.reach_truth.items() if unconnected)
    rvp = bundle.proxy_rvps[0]
    truth = true_rtt(bundle, cut_target, rvp)
    est = RttEstimate(truth, truth, truth)
    rtt_a = 2.0 * bundle.cfg.links[link_key(bundle.local_vp, rvp.periphery)].base_owd_ms
    rtt_b = 2.0 * bundle.cfg.links[link_key(bundle.local_vp, bundle.target_router[cut_target])].base_owd_ms
    rcv1, rcv2 = run_reach_protocol(
        cut_target, rvp, MeasurementParams(), est, tp, rtt_a, rtt_b
    )
    assert rcv1.rcv == 10
    assert rcv2.rcv == rcv1.rcv  # reflections never arrive, budget untouched


def test_protocol_reachable_target_depresses_count():
    bundle, tp = reach_world()
    target = next(t for t, unconnected in bundle.reach_truth.items() if not unconnected)
    rvp = bundle.proxy_rvps[0]
    truth = true_rtt(bundle, target, rvp)
    est = RttEstimate(truth, truth, truth)
    rtt_a = 2.0 * bundle.cfg.links[link_key(bundle.local_vp, rvp.periphery)].base_owd_ms
    rtt_b = 2.0 * bundle.cfg.links[link_key(bundle.local_vp, bundle.target_router[target])].base_owd_ms
    rcv1, rcv2 = run_reach_protocol(target, rvp, MeasurementParams(), est, tp, rtt_a, rtt_b)
    assert rcv1.rcv == 10
    assert rcv2.rcv < 0.7 * rcv1.rcv


def test_protocol_silent_target_reflects_nothing():
    bundle, tp = reach_world()
    target = bundle.reach_targets[0]
    idx = next(i for i, h in enumerate(bundle.cfg.hosts) if h.address == target)
    bundle.cfg.hosts[idx] = replace(bundle.cfg.hosts[idx], responds_to_echo=False)
    tp = SimTransport(bundle.cfg)
    rvp = bundle.proxy_rvps[0]
    truth = true_rtt(bundle, target, rvp)
    rcv1, rcv2 = run_reach_protocol(
        target, rvp, MeasurementParams(), RttEstimate(truth, truth, truth), tp, 50.0, 50.0
    )
    # No reflection is generated, indistinguishable from a cut: documented
    # confound, which is why the campaign pre-checks echo liveness.
    assert rcv2.rcv == rcv1.rcv


def test_reflection_plan_merges_both_trains_by_offset_noise_first():
    """For negative, zero and positive delta-t the plan is the m noise rows
    and the n probe rows ordered by offset, a noise row before a probe row
    at the same offset, each train in its own order."""
    bundle, _ = reach_world()
    plans = []

    class RecordingTransport(SimTransport):
        def execute(self, plan, window):
            plans.append(plan.packets)
            return super().execute(plan, window)

    tp = RecordingTransport(bundle.cfg)
    target, rvp = bundle.reach_targets[0], bundle.proxy_rvps[0]
    params = MeasurementParams()
    m, n = params.m_noise, params.n_probe
    x, b, src = int(rvp.target), int(target), int(tp.source_address)
    baseline = RcvSample(10, n, False, 0)
    for rtt_a, rtt_b, sample, dt in [(100.0, 20.0, 0.0, -40), (60.0, 20.0, 40.0, 0), (20.0, 20.0, 80.0, 40)]:
        assert delta_t(rtt_a, rtt_b, sample) == dt
        est = RttEstimate(sample, sample, sample)
        run_reach_protocol(target, rvp, params, est, tp, rtt_a, rtt_b, baseline=baseline)
        noise = [(max(0, -dt) + i, x, b, i + 1) for i in range(m)]
        probes = [(max(0, dt) + DEFAULT_PROBE_LATE_MARGIN_MS + j, src, x, m + 1 + j) for j in range(n)]
        expected = sorted(noise + probes, key=lambda row: (row[0], row[3] > m))
        assert plans[-1] == tuple(expected)
        assert {row[0] for row in noise} & {row[0] for row in probes}  # the tie order is tested


def test_campaign_cut_soundness_perfect_timing():
    bundle, tp = reach_world(16, 5, seed=13)
    params = MeasurementParams(repeats=3, lam=0.7)
    result = run_reach_campaign(
        bundle.reach_targets, bundle.proxy_rvps, params, tp,
        estimate_fn=perfect_estimator(bundle), seed=13,
    )
    for target, verdict in result.verdicts().items():
        expected = ReachCategory.UNCONNECTED if bundle.reach_truth[target] else ReachCategory.CONNECTED
        assert verdict.category is expected


def test_campaign_single_target_single_rvp_bookkeeping():
    bundle, tp = reach_world(1, 0, seed=14)
    params = MeasurementParams(repeats=4, lam=0.7)
    result = run_reach_campaign(
        bundle.reach_targets, bundle.proxy_rvps[:1], params, tp,
        estimate_fn=perfect_estimator(bundle), seed=14,
    )
    record = result.records[bundle.reach_targets[0]]
    assert len(record.samples) == 4
    assert record.verdict is not None and record.verdict.k == 4


def test_campaign_shares_one_tuple_per_distinct_sample():
    bundle, tp = reach_world(16, 5, seed=13)
    params = MeasurementParams(repeats=3, lam=0.7)
    result = run_reach_campaign(
        bundle.reach_targets, bundle.proxy_rvps, params, tp,
        estimate_fn=perfect_estimator(bundle), seed=13,
    )
    samples = [s for record in result.records.values() for s in record.samples]
    assert len(samples) == 3 * len(bundle.reach_targets)
    assert len({id(s) for s in samples}) == len(set(samples)) < len(samples)


def test_campaign_silent_target_is_uncertain_by_policy():
    bundle, tp = reach_world(3, 1, seed=15)
    silent = bundle.reach_targets[1]
    idx = next(i for i, h in enumerate(bundle.cfg.hosts) if h.address == silent)
    bundle.cfg.hosts[idx] = replace(bundle.cfg.hosts[idx], responds_to_echo=False)
    tp = SimTransport(bundle.cfg)
    result = run_reach_campaign(
        bundle.reach_targets, bundle.proxy_rvps, MeasurementParams(repeats=2, lam=0.7), tp,
        estimate_fn=perfect_estimator(bundle), seed=15,
    )
    assert result.records[silent].verdict.category is ReachCategory.UNCERTAIN
    assert result.records[silent].samples == []


def test_campaign_keeps_burst_and_rotation_gaps_per_rvp():
    """Every error-counting burst at an RVP waits out the quiet gap after the
    previous one, and every use of an RVP waits out the rotation gap after the
    previous use's reflection burst. The RTT pings stay unpaced."""
    bundle, _ = reach_world(8, 2, seed=18)
    bursts = []

    class RecordingTransport(SimTransport):
        def execute(self, plan, window):
            start = self.now()
            observations = super().execute(plan, window)
            if window.obs_filter.kinds != {IcmpKind.ECHO_REPLY}:
                source = int(self.source_address)
                reflection = any(src != source for _t, src, _dst, _pid in plan.packets)
                bursts.append((window.obs_filter.origin, reflection, start, self.now()))
            return observations

    rotation_gap_ms = 10_000
    run_reach_campaign(
        bundle.reach_targets, bundle.proxy_rvps, MeasurementParams(repeats=3, lam=0.7),
        RecordingTransport(bundle.cfg), estimate_fn=perfect_estimator(bundle), seed=18,
        rotation_gap_ms=rotation_gap_ms, baseline_refresh=2,
    )
    last = {}
    baselines = Counter()
    for rvp, reflection, start, end in bursts:
        if rvp in last:
            after_reflection, previous_end = last[rvp]
            assert start - previous_end >= DEFAULT_BURST_GAP_MS
            if after_reflection:  # this burst starts a new use of the RVP
                assert start - previous_end >= rotation_gap_ms
        baselines[rvp] += not reflection
        last[rvp] = (reflection, end)
    assert len(baselines) == len(bundle.proxy_rvps)
    assert min(baselines.values()) >= 2  # the baseline was refreshed


def test_isav_on_target_network_does_not_affect_verdicts():
    """The spoofed source sits outside the target's prefix, so ingress
    filtering there never touches the reflection traffic."""
    bundle, _ = reach_world(10, 3, seed=16)
    base = run_reach_campaign(
        bundle.reach_targets, bundle.proxy_rvps, MeasurementParams(repeats=2, lam=0.7),
        SimTransport(bundle.cfg), estimate_fn=perfect_estimator(bundle), seed=16,
    )
    bundle2, _ = reach_world(10, 3, seed=16)
    target_routers = set(bundle2.target_router.values())
    bundle2.cfg.routers = [
        replace(r, isav_ingress=True) if r.address in target_routers else r
        for r in bundle2.cfg.routers
    ]
    filtered = run_reach_campaign(
        bundle2.reach_targets, bundle2.proxy_rvps, MeasurementParams(repeats=2, lam=0.7),
        SimTransport(bundle2.cfg), estimate_fn=perfect_estimator(bundle2), seed=16,
    )
    assert {str(t): v.category for t, v in base.verdicts().items()} == {
        str(t): v.category for t, v in filtered.verdicts().items()
    }


def test_early_probes_degrade_precision():
    """Forcing the estimate far below truth makes probes beat the reflections
    to the vantage point, so connected targets read as unconnected: false
    positives, visible as a precision drop against the perfect-timing run."""
    bundle, tp = reach_world(14, 4, seed=17)
    params = MeasurementParams(repeats=3, lam=0.7)
    good = run_reach_campaign(
        bundle.reach_targets, bundle.proxy_rvps, params, tp,
        estimate_fn=perfect_estimator(bundle), seed=17,
    )
    good_report = evaluate(good.verdicts(), bundle.reach_truth, [0.7], 0.7)

    def early(target, rvp, rtt_a, rtt_b):
        # An estimate this low makes delta-t schedule probes ~200 ms early.
        truth = true_rtt(bundle, target, rvp)
        value = max(0.0, truth - 400.0)
        return RttEstimate(value, value, value)

    bundle2, tp2 = reach_world(14, 4, seed=17)
    bad = run_reach_campaign(
        bundle2.reach_targets, bundle2.proxy_rvps, params, tp2,
        estimate_fn=early, seed=17, probe_late_margin_ms=0,
    )
    bad_report = evaluate(bad.verdicts(), bundle2.reach_truth, [0.7], 0.7)
    assert bad_report.precision < good_report.precision
    assert bad_report.recall >= good_report.recall  # positives still flagged


# -- evaluation ----------------------------------------------------------


def make_verdict(ratio):
    from icmpscope.reach import ReachVerdict

    if ratio is None:
        return ReachVerdict(ReachCategory.UNCERTAIN, None, 0.0, 0.0, 0)
    category = ReachCategory.UNCONNECTED if ratio >= 0.7 else ReachCategory.CONNECTED
    return ReachVerdict(category, ratio, 10.0, ratio * 10.0, 6)


def addr(i):
    return parse_address(f"2001:db8:9999::{i:x}")


def test_evaluate_all_correct_scores_one():
    verdicts, truth = {}, {}
    for i in range(40):
        unconnected = i % 4 == 0
        verdicts[addr(i)] = make_verdict(1.0 if unconnected else 0.2)
        truth[addr(i)] = unconnected
    report = evaluate(verdicts, truth, [0.5, 0.7, 0.9], 0.7)
    assert report.precision == report.recall == report.accuracy == report.f_score == 1.0
    assert report.auc == 1.0
    assert report.roc_points[0] == (0.0, 0.0) and report.roc_points[-1] == (1.0, 1.0)


def test_evaluate_reproduces_reported_operating_point_shape():
    # Confusion arithmetic check at a fixed threshold with a hand-built mix.
    verdicts, truth = {}, {}
    ratios_pos = [0.9] * 120 + [0.5] * 20  # unconnected targets, 20 missed
    ratios_neg = [0.2] * 700 + [0.8] * 30  # connected targets, 30 false alarms
    i = 0
    for r in ratios_pos:
        verdicts[addr(i)], truth[addr(i)] = make_verdict(r), True
        i += 1
    for r in ratios_neg:
        verdicts[addr(i)], truth[addr(i)] = make_verdict(r), False
        i += 1
    report = evaluate(verdicts, truth, [0.7], 0.7)
    assert report.precision == pytest.approx(120 / 150)
    assert report.recall == pytest.approx(120 / 140)
    assert report.accuracy == pytest.approx((120 + 700) / 870)


def test_evaluate_uncertain_targets_are_excluded():
    verdicts = {addr(0): make_verdict(None), addr(1): make_verdict(0.9)}
    truth = {addr(0): True, addr(1): True}
    report = evaluate(verdicts, truth, [0.7], 0.7)
    assert report.n_uncertain == 1 and report.n_scored == 1


def test_evaluate_requires_ground_truth():
    with pytest.raises(ValueError):
        evaluate({}, {}, [0.7], 0.7)


def test_auc_of_shuffled_ratios_is_near_half():
    rng = random.Random(8)
    verdicts, truth = {}, {}
    for i in range(2000):
        verdicts[addr(i)] = make_verdict(rng.random())
        truth[addr(i)] = i % 2 == 0  # balanced, independent of the ratio
    report = evaluate(verdicts, truth, [0.5], 0.5)
    assert 0.45 <= report.auc <= 0.55


def test_auc_matches_reference_implementation():
    rng = random.Random(9)
    verdicts, truth = {}, {}
    labels, scores = [], []
    for i in range(500):
        # Quantized ratios force score ties, which the ROC walk must cross
        # in one step rather than one point per sample.
        ratio = round(rng.random(), 1)
        positive = rng.random() < 0.3 + 0.5 * ratio  # correlated labels
        verdicts[addr(i)] = make_verdict(ratio)
        truth[addr(i)] = positive
        labels.append(positive)
        scores.append(ratio)
    report = evaluate(verdicts, truth, [0.5], 0.5)
    expected = mann_whitney_auc(labels, scores)
    assert report.auc == pytest.approx(expected, abs=1e-9)

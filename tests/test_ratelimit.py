import pickle
import random
import weakref

import pytest

from oracles import burst_probe_grants, replay_token_bucket, sufficiency_sweep

from icmpscope.model import IcmpKind, parse_address, spoof_sources
from icmpscope.ratelimit import (
    DEFAULT_BURST_GAP_MS,
    MeasureTarget,
    NoiseSpec,
    classify,
    interleave_pattern,
    measure_rcv,
    observability,
    ratio_sweep,
    run_phased,
    split_counts,
)
from icmpscope.simnet import RateLimitClass, StrictSingle, TokenBucket, Unlimited, oracle_rl_class
from icmpscope.simnet import scenarios
from icmpscope.transport import SimTransport

from test_simnet import DEAD, ROUTER, star_config


def test_a_paced_transport_is_freed_without_a_cycle():
    tp = SimTransport(star_config(Unlimited()))
    measure_rcv(DEAD, IcmpKind.DEST_UNREACHABLE, 5, None, tp, expect_origin=ROUTER)
    assert tp.burst_end == {ROUTER: tp.now()}
    freed = weakref.ref(tp)
    del tp
    assert freed() is None  # reference counting alone frees it


def test_a_pickled_transport_continues_like_the_original():
    """The quiet-gap table, the clock and the world's draw counters all travel
    with the transport, so a copy taken mid-campaign sends its next burst
    exactly as the original does."""
    bundle = scenarios.build_rl_population(1, seed=5)
    tp = SimTransport(bundle.cfg)
    targets = [MeasureTarget.from_pair(plist[0]) for plist in bundle.pairs.values()]

    def bursts(transport, units):
        phased = run_phased(units, (1,), 1, lambda i, _phase: (targets[i], 50, None), transport, 1000)
        return [sample for _i, _phase, sample in phased]

    bursts(tp, [0, 1])
    copy = pickle.loads(pickle.dumps(tp))
    after = []
    for transport in (tp, copy):
        last_end = transport.burst_end[targets[0].origin]
        assert transport.now() < last_end + DEFAULT_BURST_GAP_MS
        sample = bursts(transport, [0])[0]
        # The burst waited out the quiet gap, then spanned 49 ms plus its 1 s window.
        assert transport.now() == last_end + DEFAULT_BURST_GAP_MS + 1049
        after.append((sample, transport.now(), transport.world._uid, transport.world._seq))
    assert after[0] == after[1]


def test_interleave_pattern_two_noise_per_probe():
    slots = interleave_pattern(3, 6)
    assert slots == [False, False, True, False, False, True, False, False, True]
    assert interleave_pattern(2, 0) == [True, True]
    slots = interleave_pattern(50, 100)
    assert sum(slots) == 50 and len(slots) == 150


def test_measure_rcv_no_noise_hits_bucket_capacity():
    tp = SimTransport(star_config(TokenBucket(10, 100)))
    sample = measure_rcv(DEAD, IcmpKind.DEST_UNREACHABLE, 50, None, tp, expect_origin=ROUTER)
    expected = burst_probe_grants([True] * 50, 1, 10, 100)
    assert sample.rcv == expected == 10
    assert sample.n_sent == 50 and not sample.with_noise


def test_measure_rcv_with_noise_matches_event_replay():
    tp = SimTransport(star_config(TokenBucket(10, 100)))
    spoof = parse_address("2001:db8:ffff::dead")
    sample = measure_rcv(
        DEAD, IcmpKind.DEST_UNREACHABLE, 50, NoiseSpec(100, spoof), tp, expect_origin=ROUTER
    )
    expected = burst_probe_grants(interleave_pattern(50, 100), 1, 10, 100)
    assert sample.rcv == expected
    # Proportional share of the budget: about a third of ten.
    assert 2 <= sample.rcv <= 5


def test_measure_rcv_unlimited_answers_all():
    tp = SimTransport(star_config(Unlimited()))
    sample = measure_rcv(DEAD, IcmpKind.DEST_UNREACHABLE, 50, None, tp, expect_origin=ROUTER)
    assert sample.rcv == 50


def test_measure_rcv_zero_is_a_result():
    tp = SimTransport(star_config(Unlimited(), host_responds=False))
    host = parse_address("2001:db8:1::b")
    sample = measure_rcv(host, IcmpKind.ECHO_REPLY, 5, None, tp, expect_origin=host)
    assert sample.rcv == 0


def test_classify_examples():
    assert classify(10.0, 3.1, 50, 0.6) is RateLimitClass.GLOBAL
    assert classify(1.0, 1.0, 50, 0.6) is RateLimitClass.STRICT
    assert classify(50.0, 49.0, 50, 0.6) is RateLimitClass.LOOSE
    assert classify(0.0, 0.0, 50, 0.6) is RateLimitClass.UNCLASSIFIED
    assert classify(10.0, 8.0, 50, 0.6) is RateLimitClass.UNCLASSIFIED


def test_classify_is_total_over_a_grid():
    for rcv1 in [x / 4 for x in range(0, 220)]:
        for rcv2 in [x / 3 for x in range(0, 160)]:
            assert classify(rcv1, rcv2, 50, 0.6) in RateLimitClass


def test_observability_examples():
    assert observability(50, 29) == pytest.approx(0.42)
    assert observability(10, 10) == 0.0
    assert observability(10, 15) == 0.0  # clamped
    with pytest.raises(ValueError):
        observability(0, 5)


def test_split_counts_reproduces_published_ratio_rows():
    rows = [split_counts(150, r) for r in (0.5, 1.0, 1.5, 2.0, 2.5)]
    assert rows == [(50, 100), (75, 75), (90, 60), (100, 50), (107, 43)]


def bucket_population(n=20, seed=0, caps=(5, 15)):
    bundle = scenarios.build_isav_population(n, seed=seed, cap_range=caps)
    targets = [MeasureTarget.from_pair(pl[0]) for pl in bundle.pairs.values()]
    return bundle, targets


def test_run_phased_yields_one_object_per_distinct_sample():
    bundle, targets = bucket_population(6, seed=4)
    tp = SimTransport(bundle.cfg)
    bursts = list(run_phased(targets, (30, 150), 3, lambda mt, n: (mt, n, None), tp, 1000))
    samples = [sample for _mt, _n, sample in bursts]
    assert len(samples) == 6 * 2 * 3
    assert all(a is b for a in samples for b in samples if a == b)
    assert len({id(s) for s in samples}) == len(set(samples)) < len(samples)


def test_sufficiency_sweep_unlimited_population_never_observable():
    from dataclasses import replace

    bundle = scenarios.build_isav_population(6, seed=1)
    bundle.cfg.routers = [replace(r, limiter=Unlimited()) for r in bundle.cfg.routers]
    targets = [MeasureTarget.from_pair(pl[0]) for pl in bundle.pairs.values()]
    tp = SimTransport(bundle.cfg)
    table = sufficiency_sweep(targets, [30, 150], [0.05, 0.10, 0.20], tp)
    assert all(fraction == 1.0 for fraction in table.values())


def test_sufficiency_sweep_buckets_fully_observable_at_budget_150():
    bundle, targets = bucket_population(8, seed=2, caps=(10, 10))
    tp = SimTransport(bundle.cfg)
    table = sufficiency_sweep(targets, [10, 150], [0.20], tp)
    assert table[(150, 0.20)] == 0.0
    # Ten packets never drain a cap-10 bucket, so nothing is observable.
    assert table[(10, 0.20)] == 1.0
    # Fractions never increase with a bigger packet budget.
    assert table[(150, 0.20)] <= table[(10, 0.20)]


def test_ratio_sweep_monotone_and_row_derivation():
    bundle, targets = bucket_population(15, seed=3)
    tp = SimTransport(bundle.cfg)
    rows = ratio_sweep(targets, 150, [0.5, 1.0, 1.5, 2.0, 2.5], tp)
    assert [(r.m_noise, r.n_probe) for r in rows] == [
        (50, 100), (75, 75), (90, 60), (100, 50), (107, 43)
    ]
    values = [r.mean_observability for r in rows]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_classify_agrees_with_oracle_on_mixed_population():
    bundle = scenarios.build_rl_population(10, seed=4)
    tp = SimTransport(bundle.cfg)
    rng = random.Random(4)
    flat = [pl[0] for pl in bundle.pairs.values()]
    results = {}
    for phase in (1, 2):
        for pair in flat:
            noise = None
            if phase == 2:
                local_spoof, _ = spoof_sources(bundle.local_vp, pair.periphery, rng)
                noise = NoiseSpec(100, local_spoof)
            tp.wait(3000)
            sample = measure_rcv(
                pair.target, pair.error_kind, 50, noise, tp, expect_origin=pair.periphery
            )
            results.setdefault(pair.periphery, []).append(sample.rcv)
    for pair in flat:
        rcv1, rcv2 = results[pair.periphery]
        got = classify(rcv1, rcv2, 50, 0.6)
        assert got is oracle_rl_class(bundle.cfg, pair.periphery, pair.error_kind)


def test_noise_monotonicity_under_loss():
    """Sample-mean inequality: noise never increases expected replies on a
    globally limited router."""
    reps = 12
    with_noise = []
    without = []
    for i in range(reps):
        cfg = star_config(TokenBucket(10, 100), loss=0.05, seed=1000 + i)
        tp = SimTransport(cfg)
        without.append(
            measure_rcv(DEAD, IcmpKind.DEST_UNREACHABLE, 50, None, tp, expect_origin=ROUTER).rcv
        )
        cfg2 = star_config(TokenBucket(10, 100), loss=0.05, seed=1000 + i)
        tp2 = SimTransport(cfg2)
        spoof = parse_address("2001:db8:ffff::dead")
        with_noise.append(
            measure_rcv(
                DEAD, IcmpKind.DEST_UNREACHABLE, 50, NoiseSpec(100, spoof), tp2,
                expect_origin=ROUTER,
            ).rcv
        )
    assert sum(with_noise) / reps <= sum(without) / reps


def test_strict_single_lands_in_strict_band():
    tp = SimTransport(star_config(StrictSingle(1000)))
    s1 = measure_rcv(DEAD, IcmpKind.DEST_UNREACHABLE, 50, None, tp, expect_origin=ROUTER)
    tp.wait(5000)
    spoof = parse_address("2001:db8:ffff::dead")
    s2 = measure_rcv(DEAD, IcmpKind.DEST_UNREACHABLE, 50, NoiseSpec(100, spoof), tp,
                     expect_origin=ROUTER)
    assert classify(s1.rcv, s2.rcv, 50, 0.6) is RateLimitClass.STRICT

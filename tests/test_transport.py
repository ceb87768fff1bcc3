import pytest

from oracles import replay_token_bucket

from icmpscope.model import IcmpKind, ProbePacket, parse_address
from icmpscope.ratelimit import measure_rcv
from icmpscope.simnet import TokenBucket, Unlimited, run_events
from icmpscope.transport import (
    CollectWindow,
    ObservationFilter,
    RawTransport,
    SendPlan,
    SimTransport,
    TransportError,
)

from test_simnet import DEAD, HOST, PREFIX, PROBER, ROUTER, burst, star_config


def make_transport(limiter=None, **kwargs):
    return SimTransport(star_config(limiter or Unlimited(), **kwargs))


def test_execute_empty_plan_returns_nothing():
    tp = make_transport()
    assert tp.execute(SendPlan(()), CollectWindow(duration_ms=100)) == []


def test_execute_burst_against_bucket_matches_oracle():
    tp = make_transport(TokenBucket(10, 100))
    plan = SendPlan(tuple(burst(DEAD, 50)))
    obs = tp.execute(plan, CollectWindow(duration_ms=1000))
    expected = sum(replay_token_bucket(list(range(50)), 10, 100, 0))
    assert len(obs) == expected == 10


def test_filter_by_quoted_dst_excludes_other_targets():
    other_dead = parse_address("2001:db8:1::beef")
    tp = make_transport()
    entries = burst(DEAD, 3) + burst(other_dead, 3, start=10, pid_start=50)
    plan = SendPlan(tuple(sorted(entries, key=lambda e: e[0])))
    flt = ObservationFilter(kinds=frozenset({IcmpKind.DEST_UNREACHABLE}), quoted_dst=DEAD)
    obs = tp.execute(plan, CollectWindow(duration_ms=1000, obs_filter=flt))
    assert len(obs) == 3
    assert all(o.quoted_dst == DEAD for o in obs)


def test_now_is_monotone_and_advances_by_window():
    tp = make_transport()
    t0 = tp.now()
    tp.execute(SendPlan(tuple(burst(DEAD, 5))), CollectWindow(duration_ms=500))
    t1 = tp.now()
    assert t1 == t0 + 500  # window opens at plan start and outlasts the 4 ms span
    tp.wait(100)
    assert tp.now() == t1 + 100


def test_sim_emission_times_equal_requested_offsets():
    # Unlimited router, 10 ms each way, no jitter: every error arrives 20 ms
    # after its probe left, so arrival times give back the emission times.
    tp = make_transport(Unlimited(), owd=10.0, jitter=0.0)
    plan = SendPlan(tuple(burst(DEAD, 10, spacing=7)))
    obs = tp.execute(plan, CollectWindow(duration_ms=300))
    assert [o.received_at - 20 for o in obs] == [7 * i for i in range(10)]


def test_rate_cap_rejects_oversubscribed_plan():
    tp = make_transport()
    plan = SendPlan(tuple(burst(DEAD, 250)))  # 250 packets in 250 ms to one /48
    with pytest.raises(TransportError):
        tp.execute(plan, CollectWindow(duration_ms=1000))


def test_rate_cap_accepts_compliant_spacing():
    tp = make_transport()
    plan = SendPlan(tuple(burst(DEAD, 250, spacing=5)))
    tp.execute(plan, CollectWindow(duration_ms=3000))


def test_rate_cap_boundary_within_one_millisecond():
    tp = make_transport()
    cap = tp.max_pps_per_prefix
    tp.execute(SendPlan(tuple(burst(DEAD, cap, spacing=0))), CollectWindow(duration_ms=1000))
    other = parse_address("2001:db8:1:ffff::1")  # same /48 as DEAD
    plan = SendPlan(tuple(burst(DEAD, cap, spacing=0) + burst(other, 1, pid_start=cap + 1)))
    with pytest.raises(TransportError):
        tp.execute(plan, CollectWindow(duration_ms=1000))


def test_plan_validation():
    with pytest.raises(TransportError):
        SendPlan(((5, ProbePacket(src=PROBER, dst=DEAD)), (1, ProbePacket(src=PROBER, dst=DEAD))))
    reply = ProbePacket(src=PROBER, dst=DEAD, kind=IcmpKind.ECHO_REPLY)
    with pytest.raises(TransportError):
        SendPlan(((0, reply),))


def test_engine_counts_match_direct_simulation():
    """Transparency: measure_rcv through the transport equals a hand-built
    injection replayed straight on the event loop."""
    cfg = star_config(TokenBucket(10, 100))
    tp = SimTransport(cfg)
    sample = measure_rcv(DEAD, IcmpKind.DEST_UNREACHABLE, 50, None, tp, expect_origin=ROUTER)

    direct = run_events(star_config(TokenBucket(10, 100)), burst(DEAD, 50))
    matching = [
        o for o in direct
        if o.kind is IcmpKind.DEST_UNREACHABLE and o.origin == ROUTER and o.quoted_dst == DEAD
    ]
    assert sample.rcv == len(matching)


def test_stragglers_do_not_leak_between_windows():
    tp = make_transport(owd=400.0)  # replies land after the window closes
    plan = SendPlan(tuple(burst(DEAD, 3)))
    obs = tp.execute(plan, CollectWindow(duration_ms=100))
    assert obs == []
    # The late replies must not match the next execute's filter either.
    flt = ObservationFilter(probe_ids=frozenset({1000}))
    obs2 = tp.execute(SendPlan(()), CollectWindow(duration_ms=2000, obs_filter=flt))
    assert obs2 == []


def test_raw_transport_is_a_guarded_stub():
    raw = RawTransport("eth0", PROBER)
    spoofed = SendPlan(((0, ProbePacket(src=DEAD, dst=HOST, probe_id=1)),))
    with pytest.raises(TransportError, match="spoofed"):
        raw.execute(spoofed, CollectWindow(duration_ms=10))
    plain = SendPlan(((0, ProbePacket(src=PROBER, dst=HOST, probe_id=1)),))
    with pytest.raises(TransportError, match="not included"):
        raw.execute(plain, CollectWindow(duration_ms=10))

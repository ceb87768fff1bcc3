import json
import random
from ipaddress import IPv6Address, IPv6Network

import pytest

from oracles import inject_each, replay_token_bucket, router_handle

from icmpscope.model import IcmpKind, ProbePacket, parse_address, parse_prefix
from icmpscope.simnet import (
    LinkModel,
    RateLimitClass,
    SimConfig,
    SimConfigError,
    SimHost,
    SimRouter,
    SimWorld,
    StrictSingle,
    TokenBucket,
    TokenBucketState,
    Unlimited,
    bucket_try_consume,
    oracle_isav,
    oracle_reachable,
    oracle_rl_class,
    run_events,
)
from icmpscope.simnet.config import link_key
from icmpscope.simnet.limiter import LimiterBank, LimiterScope
from icmpscope.simnet.world import _INJECT_SLICE

PROBER = parse_address("2001:db8:ffff::1")
PREFIX = parse_prefix("2001:db8:1::/48")
ROUTER = parse_address("2001:db8:1::1")
DEAD = parse_address("2001:db8:1::dead")
HOST = parse_address("2001:db8:1::b")


def star_config(limiter, *, isav=False, owd=10.0, loss=0.0, jitter=0.0, host_responds=True,
                cuts=(), seed=0, error_kind=IcmpKind.DEST_UNREACHABLE):
    return SimConfig(
        prober=PROBER,
        routers=[
            SimRouter(
                address=ROUTER,
                served_prefix=PREFIX,
                limiter=limiter,
                isav_ingress=isav,
                error_kind=error_kind,
            )
        ],
        hosts=[SimHost(HOST, responds_to_echo=host_responds)],
        links={link_key(PROBER, ROUTER): LinkModel(owd, jitter, loss)},
        unreachable_pairs=set(cuts),
        seed=seed,
    )


def burst(dst, n, spacing=1, src=PROBER, start=0, pid_start=1):
    return [
        (start + i * spacing, ProbePacket(src=src, dst=dst, probe_id=pid_start + i))
        for i in range(n)
    ]


# -- token bucket ---------------------------------------------------------


def drive_bucket(spec, times, anchor=0):
    state = TokenBucketState(spec.capacity, anchor)
    grants = []
    for t in times:
        granted, state = bucket_try_consume(state, spec, t)
        assert 0 <= state.tokens <= spec.capacity
        grants.append(granted)
    return grants


def test_bucket_burst_within_one_interval():
    spec = TokenBucket(10, 100)
    times = [i for i in range(0, 49)] + [49]  # 50 requests inside 49 ms
    grants = drive_bucket(spec, times[:50])
    assert sum(grants) == 10
    assert grants[:10] == [True] * 10


def test_bucket_refill_keeps_pace():
    spec = TokenBucket(10, 100)
    times = [i * 100 for i in range(50)]  # one request per refill for 5 s
    assert sum(drive_bucket(spec, times)) == 50


def test_bucket_fractional_progress_preserved_while_draining():
    spec = TokenBucket(2, 100)
    # As long as the bucket stays below capacity, partial refills keep the
    # placement grid: the poll at 120 ms must not push the next token to 220.
    times = [0, 60, 120, 180, 210]
    grants = drive_bucket(spec, times)
    assert grants == replay_token_bucket(times, 2, 100, 0)
    assert grants == [True, True, True, False, True]


def test_bucket_refill_clock_restarts_when_filled():
    spec = TokenBucket(1, 100)
    times = [0, 60, 120, 180, 240, 300]
    grants = drive_bucket(spec, times)
    assert grants == replay_token_bucket(times, 1, 100, 0)
    # Each fill re-anchors: grants land every other 60 ms poll.
    assert grants == [True, False, True, False, True, False]


def test_bucket_matches_replay_oracle_random_schedules():
    rng = random.Random(42)
    for _ in range(200):
        capacity = rng.randint(1, 20)
        interval = rng.randint(10, 500)
        spec = TokenBucket(capacity, interval)
        t = 0
        times = []
        for _ in range(rng.randint(1, 120)):
            t += rng.randint(0, 400)
            times.append(t)
        assert drive_bucket(spec, times) == replay_token_bucket(times, capacity, interval, 0)


def test_limiter_bank_strict_single_window():
    bank = LimiterBank(StrictSingle(1000))
    kind = IcmpKind.DEST_UNREACHABLE
    assert bank.try_emit(kind, 1, 0)
    assert not bank.try_emit(kind, 2, 500)
    assert bank.try_emit(kind, 3, 1000)
    # independent state per kind
    assert bank.try_emit(IcmpKind.ECHO_REPLY, 1, 500)


def test_limiter_bank_per_source_scope():
    bank = LimiterBank(TokenBucket(1, 10_000, scope=LimiterScope.PER_SOURCE))
    kind = IcmpKind.DEST_UNREACHABLE
    assert bank.try_emit(kind, 1, 0)
    assert not bank.try_emit(kind, 1, 1)
    assert bank.try_emit(kind, 2, 1)  # different source, own bucket


# -- router behavior via run_events ----------------------------------------


def test_empty_injection_empty_output():
    assert run_events(star_config(Unlimited()), []) == []


def test_echo_reply_after_two_one_way_delays():
    obs = run_events(star_config(Unlimited()), burst(HOST, 1))
    assert len(obs) == 1
    assert obs[0].kind is IcmpKind.ECHO_REPLY
    assert obs[0].origin == HOST
    assert obs[0].received_at == 20
    assert obs[0].probe_id == 1


def test_unreachable_burst_limited_to_bucket_capacity():
    cfg = star_config(TokenBucket(10, 100))
    obs = run_events(cfg, burst(DEAD, 50))
    expected = sum(replay_token_bucket([i for i in range(50)], 10, 100, 0))
    assert len(obs) == expected == 10
    assert all(o.kind is IcmpKind.DEST_UNREACHABLE for o in obs)
    assert all(o.quoted_dst == DEAD and o.origin == ROUTER for o in obs)


def test_unlimited_router_answers_everything():
    obs = run_events(star_config(Unlimited()), burst(DEAD, 50))
    assert len(obs) == 50


def test_time_exceeded_error_kind_configurable():
    cfg = star_config(Unlimited(), error_kind=IcmpKind.TIME_EXCEEDED)
    obs = run_events(cfg, burst(DEAD, 3))
    assert {o.kind for o in obs} == {IcmpKind.TIME_EXCEEDED}


def test_isav_drops_inside_spoofed_packets_from_outside():
    spoof = parse_address("2001:db8:1::5")  # inside the served prefix
    cfg = star_config(TokenBucket(10, 100), isav=True)
    obs = run_events(cfg, burst(DEAD, 20, src=spoof))
    assert obs == []  # replies to the spoof would not reach us anyway; but
    # the filter must also keep the budget untouched:
    cfg2 = star_config(TokenBucket(10, 100), isav=True)
    injected = burst(DEAD, 20, src=spoof) + burst(DEAD, 50, start=25, pid_start=100)
    obs2 = run_events(cfg2, injected)
    assert len(obs2) == 10  # full budget still available to our own probes


def test_silent_host_produces_nothing():
    cfg = star_config(Unlimited(), host_responds=False)
    assert run_events(cfg, burst(HOST, 5)) == []


def test_router_echo_responder_reply_and_limit():
    cfg = star_config(TokenBucket(3, 10_000))
    obs = run_events(cfg, burst(ROUTER, 10))
    assert len(obs) == 3
    assert {o.kind for o in obs} == {IcmpKind.ECHO_REPLY}


def test_determinism_byte_identical_observation_streams():
    cfg1 = star_config(TokenBucket(5, 100), loss=0.3, jitter=0.4, seed=777)
    cfg2 = star_config(TokenBucket(5, 100), loss=0.3, jitter=0.4, seed=777)
    injected = burst(DEAD, 200)
    a = run_events(cfg1, injected)
    b = run_events(cfg2, injected)
    ser = lambda obs: json.dumps(
        [(o.received_at, o.kind.value, str(o.origin), str(o.quoted_dst), o.probe_id) for o in obs]
    )
    assert ser(a) == ser(b)


def test_injection_timestamps_must_be_non_decreasing():
    cfg = star_config(Unlimited())
    bad = [(10, ProbePacket(src=PROBER, dst=DEAD, probe_id=1)),
           (5, ProbePacket(src=PROBER, dst=DEAD, probe_id=2))]
    with pytest.raises(SimConfigError):
        run_events(cfg, bad)


def test_cut_edge_suppresses_directed_traffic_only():
    # Cut: packets from the prefix's own network toward the prober-side would
    # not model our case; here we cut prober->DEAD is not allowed (src is a
    # prefix), so cut HOST's network from reaching DEAD's router instead.
    other_prefix = parse_prefix("2001:db8:2::/48")
    other_router = parse_address("2001:db8:2::1")
    other_dead = parse_address("2001:db8:2::dead")
    cfg = SimConfig(
        prober=PROBER,
        routers=[
            SimRouter(address=ROUTER, served_prefix=PREFIX, limiter=Unlimited()),
            SimRouter(address=other_router, served_prefix=other_prefix, limiter=TokenBucket(10, 100)),
        ],
        hosts=[SimHost(HOST)],
        links={
            link_key(PROBER, ROUTER): LinkModel(10.0),
            link_key(PROBER, other_router): LinkModel(10.0),
            link_key(ROUTER, other_router): LinkModel(10.0),
        },
        unreachable_pairs={(PREFIX, other_dead)},
        seed=1,
    )
    # Reflection: spoof other_dead as source of pings to HOST; HOST replies to
    # other_dead, but the cut suppresses delivery, so the second router's
    # budget stays full for our probes.
    injected = burst(HOST, 30, src=other_dead) + burst(other_dead, 50, start=40, pid_start=500)
    obs = run_events(cfg, injected)
    assert len([o for o in obs if o.kind is IcmpKind.DEST_UNREACHABLE]) == 10

    cfg_uncut = SimConfig(
        prober=cfg.prober, routers=cfg.routers, hosts=cfg.hosts, links=cfg.links,
        unreachable_pairs=set(), seed=1,
    )
    obs2 = run_events(cfg_uncut, injected)
    # Without the cut the reflections drain the bucket first.
    assert len([o for o in obs2 if o.kind is IcmpKind.DEST_UNREACHABLE]) < 10


# -- cut index ----------------------------------------------------------------

# Three adjacent /32 sites; cut prefixes are cut from a few nearby anchors at
# a few lengths, so draws nest (/32 > /40 > /48), touch (ab12/48 and ab13/48)
# and repeat.
CUT_SITES = ("2001:db7", "2001:db8", "2001:db9")
CUT_ANCHORS = tuple(
    int(parse_address(a))
    for a in ("2001:db8:ab12::5", "2001:db8:ab13::", "2001:db8:ab11:ffff::1",
              "2001:db8:ab00::", "2001:db8:ffff:ffff::", "2001:db9::")
)
CUT_LENGTHS = (32, 40, 44, 47, 48, 49, 56, 64)


def cut_index_config(rng):
    routers = [
        SimRouter(address=parse_address(f"{site}::1"), served_prefix=parse_prefix(f"{site}::/32"),
                  limiter=Unlimited())
        for site in CUT_SITES
    ]
    dsts = [PROBER] + [r.address for r in routers]
    main_dst = rng.choice(dsts)
    cuts = set()
    for _ in range(rng.randint(1, 12)):
        prefix = IPv6Network((rng.choice(CUT_ANCHORS), rng.choice(CUT_LENGTHS)), strict=False)
        cuts.add((prefix, main_dst if rng.random() < 0.8 else rng.choice(dsts)))
    return SimConfig(prober=PROBER, routers=routers, unreachable_pairs=cuts, seed=rng.getrandbits(32))


def cut_index_senders(rng, cfg):
    out = [int(cfg.prober)]
    for prefix, _dst in cfg.unreachable_pairs:
        lo, hi = int(prefix[0]), int(prefix[-1])
        out += [lo - 1, lo, hi, hi + 1, rng.randint(lo, hi)]
    out += [a + rng.randint(-(1 << 80), 1 << 80) for a in CUT_ANCHORS]
    first = int(parse_prefix(f"{CUT_SITES[0]}::/32")[0])
    last = int(parse_prefix(f"{CUT_SITES[-1]}::/32")[-1])
    return [s for s in out if first <= s <= last]  # the prober sits inside 2001:db8::/32


def world_drops_as_cut(world, sender, dst):
    """Whether ``SimWorld._send`` discards a packet from ``sender`` to ``dst``.

    The packet leaves from the destination's own site, so no link, loss or
    delay applies and only the cut check can drop it.
    """
    queued = len(world._heap)
    world._send(0, IcmpKind.ECHO_REPLY, sender, dst, None, None, world._site_of(dst), sender)
    return len(world._heap) == queued


def test_cut_index_matches_linear_oracle_on_nested_cuts():
    rng = random.Random(2022)
    for _ in range(150):
        cfg = cut_index_config(rng)
        world = SimWorld(cfg)
        dsts = [cfg.prober] + [r.address for r in cfg.routers]
        for sender in cut_index_senders(rng, cfg):
            for dst in dsts:
                expected = not oracle_reachable(cfg, IPv6Address(sender), dst)
                assert world_drops_as_cut(world, sender, int(dst)) == expected, (sender, dst)


# -- plan injection -------------------------------------------------------------

# Four /48 sites; the fourth has no link to the prober, so its traffic is
# dropped at routing like cut and unrouted packets.
INJECT_SITES = tuple(parse_prefix(f"2001:db8:{i}::/48") for i in (1, 2, 3, 4))
UNROUTED = parse_address("2001:db8:99::1")


def inject_config(rng):
    routers = [
        SimRouter(address=p[1], served_prefix=p, limiter=TokenBucket(rng.randint(2, 8), 50),
                  isav_ingress=rng.random() < 0.5)
        for p in INJECT_SITES
    ]
    hosts = [SimHost(p[0xb], responds_to_echo=rng.random() < 0.7) for p in INJECT_SITES]
    links = {
        link_key(PROBER, r.address): LinkModel(
            rng.uniform(0.0, 30.0), rng.choice([0.0, 0.2, 0.5]), rng.choice([0.0, 0.1, 0.4])
        )
        for r in routers[:3]
    }
    dsts = [r.address for r in routers] + [h.address for h in hosts] + [p[0xdead] for p in INJECT_SITES]
    cuts = set()
    for _ in range(rng.randint(0, 4)):
        # Most cuts cover the prober; the rest cover another site only.
        covering = IPv6Network((int(PROBER), rng.choice([32, 48, 64, 128])), strict=False)
        cuts.add((covering if rng.random() < 0.8 else INJECT_SITES[3], rng.choice(dsts)))
    return SimConfig(prober=PROBER, routers=routers, hosts=hosts, links=links,
                     unreachable_pairs=cuts, seed=rng.getrandbits(64))


def inject_plan(rng, cfg):
    dsts = ([r.address for r in cfg.routers] + [h.address for h in cfg.hosts]
            + [p[0xdead] for p in INJECT_SITES] + [UNROUTED, PROBER])
    srcs = [PROBER, PROBER, INJECT_SITES[0][0x5], INJECT_SITES[2][0xdead], UNROUTED]
    chosen = rng.sample(dsts, rng.randint(1, 4))
    plan, t = [], 0
    # Up to three slices, so that uids, draws and order carry across slices.
    for pid in range(rng.randint(0, 3 * _INJECT_SLICE)):
        t += rng.choice([0, 0, 1, 3])
        # Equal addresses as distinct objects, as a caller may build them.
        dst = IPv6Address(int(rng.choice(chosen)))
        plan.append((t, ProbePacket(src=rng.choice(srcs), dst=dst, probe_id=pid)))
    return plan


def test_inject_matches_per_packet_sends():
    rng = random.Random(808)
    for _ in range(120):
        cfg = inject_config(rng)
        batched, each = SimWorld(cfg), SimWorld(cfg)
        base = 0
        for _plan in range(rng.randint(1, 4)):
            plan = inject_plan(rng, cfg)
            batched.inject(base, plan)
            inject_each(each, base, plan)
            assert (batched._uid, batched._seq) == (each._uid, each._seq)
            assert sorted(batched._heap) == sorted(each._heap)
            base += rng.randint(0, 40)
            batched.run_until(base)
            each.run_until(base)
        batched.run_all()
        each.run_all()
        assert batched.observations == each.observations


def test_inject_rejects_a_non_echo_plan_whole():
    world = SimWorld(star_config(Unlimited()))
    plan = burst(DEAD, 3) + [(3, ProbePacket(src=PROBER, dst=DEAD, kind=IcmpKind.ECHO_REPLY))]
    with pytest.raises(ValueError, match="only echo requests"):
        world.inject(0, plan)
    assert (world._uid, world._seq, world._heap) == (0, 0, [])


# -- single-router handler ----------------------------------------------------


def test_router_handle_isav_drop():
    router = star_config(TokenBucket(10, 100), isav=True).routers[0]
    spoofed = ProbePacket(src=parse_address("2001:db8:1::5"), dst=DEAD, probe_id=1)
    assert router_handle(router, spoofed, 0) is None
    # Internal traffic with the same source is not filtered.
    bank = LimiterBank(router.limiter)
    inside = router_handle(router, spoofed, 0, bank=bank, from_outside=False)
    assert inside is not None and inside.kind is IcmpKind.DEST_UNREACHABLE


def test_router_handle_burst_against_fresh_bucket():
    router = star_config(TokenBucket(10, 100)).routers[0]
    bank = LimiterBank(router.limiter)
    emitted = [
        router_handle(router, ProbePacket(src=PROBER, dst=DEAD, probe_id=i), i, bank=bank)
        for i in range(50)
    ]
    assert sum(1 for e in emitted if e is not None) == 10


def test_router_handle_unlimited_and_hosts():
    router = star_config(Unlimited()).routers[0]
    bank = LimiterBank(router.limiter)
    emitted = [
        router_handle(router, ProbePacket(src=PROBER, dst=DEAD, probe_id=i), i, bank=bank)
        for i in range(50)
    ]
    assert all(e is not None for e in emitted)

    live = router_handle(
        router, ProbePacket(src=PROBER, dst=HOST, probe_id=1), 0, live_hosts=frozenset({HOST})
    )
    assert live.kind is IcmpKind.ECHO_REPLY and live.origin == HOST
    silent = router_handle(
        router, ProbePacket(src=PROBER, dst=HOST, probe_id=1), 0, silent_hosts=frozenset({HOST})
    )
    assert silent is None


def test_router_handle_matches_event_loop():
    """The per-packet reference handler and the full event loop agree on what
    a router emits for an echo-request workload."""
    cfg = star_config(TokenBucket(4, 120))
    injected = burst(DEAD, 30, spacing=17)
    looped = run_events(cfg, injected)

    router = cfg.routers[0]
    bank = LimiterBank(router.limiter)
    # The event loop sees arrivals one link delay after emission.
    owd = 10
    direct = [
        router_handle(router, pkt, t + owd, bank=bank)
        for t, pkt in injected
    ]
    direct_ids = [e.probe_id for e in direct if e is not None]
    assert [o.probe_id for o in looped] == direct_ids


# -- oracles ----------------------------------------------------------------


def test_oracle_isav_config_echo():
    assert oracle_isav(star_config(Unlimited(), isav=True), PREFIX) is True
    assert oracle_isav(star_config(Unlimited(), isav=False), PREFIX) is False
    with pytest.raises(KeyError):
        oracle_isav(star_config(Unlimited()), parse_prefix("2001:db8:9::/48"))


def test_oracle_reachable_config_echo():
    cfg = star_config(Unlimited(), cuts={(PREFIX, PROBER)})
    assert oracle_reachable(cfg, HOST, PROBER) is False
    assert oracle_reachable(cfg, PROBER, HOST) is True
    with pytest.raises(KeyError):
        oracle_reachable(cfg, parse_address("2001:db8:9::1"), PROBER)


def test_oracle_rl_class_config_echo():
    kind = IcmpKind.DEST_UNREACHABLE
    assert oracle_rl_class(star_config(TokenBucket(10, 100)), ROUTER, kind) is RateLimitClass.GLOBAL
    assert oracle_rl_class(star_config(StrictSingle(1000)), ROUTER, kind) is RateLimitClass.STRICT
    assert oracle_rl_class(star_config(Unlimited()), ROUTER, kind) is RateLimitClass.LOOSE
    per_source = TokenBucket(10, 100, scope=LimiterScope.PER_SOURCE)
    assert oracle_rl_class(star_config(per_source), ROUTER, kind) is RateLimitClass.UNCLASSIFIED
    with pytest.raises(KeyError):
        oracle_rl_class(star_config(Unlimited()), HOST, kind)


# -- config validation -------------------------------------------------------


def test_config_rejects_duplicate_addresses():
    cfg = star_config(Unlimited())
    cfg.hosts.append(SimHost(ROUTER))
    with pytest.raises(SimConfigError):
        cfg.validate()


def test_config_rejects_overlapping_prefixes():
    cfg = star_config(Unlimited())
    cfg.routers.append(
        SimRouter(address=parse_address("2001:db8:1:2::1"),
                  served_prefix=parse_prefix("2001:db8:1:2::/64"), limiter=Unlimited())
    )
    with pytest.raises(SimConfigError):
        cfg.validate()


def test_config_rejects_host_outside_every_served_prefix():
    cfg = star_config(Unlimited())
    cfg.hosts.append(SimHost(parse_address("2001:db8:2::b")))
    with pytest.raises(SimConfigError, match="host 2001:db8:2::b outside every served prefix"):
        cfg.validate()


def test_config_rejects_unknown_link_endpoint():
    cfg = star_config(Unlimited())
    cfg.links[link_key(PROBER, parse_address("2001:db8:9::1"))] = LinkModel(5.0)
    with pytest.raises(SimConfigError):
        cfg.validate()


def test_config_json_round_trip(tmp_path):
    cfg = star_config(TokenBucket(7, 250), isav=True, loss=0.05, jitter=0.2,
                      cuts={(PREFIX, PROBER)}, seed=123)
    path = tmp_path / "sim.json"
    cfg.save(path)
    loaded = SimConfig.load(path)
    assert loaded.to_dict() == cfg.to_dict()

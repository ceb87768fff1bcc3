import random
import tracemalloc
from ipaddress import IPv6Address
from itertools import islice

import numpy as np
import oracles
import pytest

from icmpscope.discovery import (
    DiscoveryCaps,
    _is_prime,
    _next_prime,
    _prime_factors,
    _smallest_primitive_root,
    _target_index_iter,
    cyclic_permutation,
    cyclic_permutation_blocks,
    extract_pair,
    generate_targets,
    run_discovery,
)
from icmpscope.model import IcmpKind, IcmpObservation, parse_address, parse_prefix
from icmpscope.simnet import scenarios
from icmpscope.transport import SimTransport, TransportError


def test_permutation_matches_power_enumeration_oracle():
    # Independent oracle: enumerate powers of 2 modulo 11 directly.
    oracle, x = [], 1
    for _ in range(10):
        x = x * 2 % 11
        oracle.append(x)
    assert oracle == [2, 4, 8, 5, 10, 9, 7, 3, 6, 1]
    assert list(cyclic_permutation(10, 0)) == oracle
    assert sorted(cyclic_permutation(10, 0)) == list(range(1, 11))


def test_permutation_set_equality_random_cases():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 5000)
        seed = rng.getrandbits(64)
        values = list(cyclic_permutation(n, seed))
        assert sorted(values) == list(range(1, n + 1))


def test_permutation_deterministic_and_seed_rotates():
    assert list(cyclic_permutation(100, 5)) == list(cyclic_permutation(100, 5))
    a = list(cyclic_permutation(100, 0))
    b = list(cyclic_permutation(100, 1))
    assert a != b and sorted(a) == sorted(b)


def test_permutation_blocks_equal_iterator():
    for n, seed in [(1, 9), (2, 0), (17, 4), (8192, 11), (10_001, 777)]:
        flat = np.concatenate(list(cyclic_permutation_blocks(n, seed))).tolist()
        assert flat == list(cyclic_permutation(n, seed))


def test_next_prime_and_prime_factors_match_brute_force():
    rng = random.Random(2024)
    ns = list(range(20_001)) + [rng.randint(1, 10**7) for _ in range(2000)]
    for n in ns:
        assert _next_prime(n) == oracles.next_prime(n), n
        if n >= 1:
            assert _prime_factors(n) == oracles.prime_factors(n), n


@pytest.mark.parametrize(
    "n",
    [
        561, 41041, 825265,  # Carmichael numbers
        2047, 3215031751,  # strong pseudoprimes to base 2
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
    ],
)
def test_pseudoprimes_are_not_reported_prime(n):
    assert not _is_prime(n)
    assert _next_prime(n - 1) > n


def test_next_prime_near_the_top_of_64_bits():
    assert _is_prime(2**61 - 1)
    assert _next_prime(2**64 - 60) == 2**64 - 59  # the largest 64-bit prime


@pytest.mark.parametrize("p, root", [(2, 1), (7, 3), (23, 5), (41, 6)])
def test_smallest_primitive_root_of_known_primes(p, root):
    assert _smallest_primitive_root(p) == root


def test_permutation_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        list(cyclic_permutation(0, 0))


def test_generate_targets_subnet_rotation():
    prefix = parse_prefix("2000:1234::/40")
    first = generate_targets(prefix, 0, seed=9)
    assert first >> 64 == int(parse_address("2000:1234::")) >> 64
    last = generate_targets(prefix, (1 << 24) - 1, seed=9)
    assert last >> 64 == int(parse_address("2000:1234:ff:ffff::")) >> 64
    assert IPv6Address(first) in prefix and IPv6Address(last) in prefix


def test_generate_targets_deterministic_iid():
    prefix = parse_prefix("2001:db8::/48")
    assert generate_targets(prefix, 7, seed=3) == generate_targets(prefix, 7, seed=3)
    assert generate_targets(prefix, 7, seed=3) != generate_targets(prefix, 7, seed=4)
    assert generate_targets(prefix, 7, seed=3) != generate_targets(prefix, 8, seed=3)


def test_generate_targets_index_range_checked():
    with pytest.raises(ValueError):
        generate_targets(parse_prefix("2001:db8::/64"), 1, seed=0)


def test_generate_targets_long_prefix_randomizes_host_bits():
    prefix = parse_prefix("2001:db8::/80")
    a = generate_targets(prefix, 0, seed=1)
    b = generate_targets(prefix, 1, seed=1)
    assert a != b
    assert IPv6Address(a) in prefix and IPv6Address(b) in prefix


def test_extract_pair_field_mapping():
    p = parse_address("2001:db8::1")
    x = parse_address("2001:db8::dead")
    peripheries = {}
    obs = IcmpObservation(kind=IcmpKind.DEST_UNREACHABLE, origin=int(p), quoted_dst=int(x), received_at=5)
    pair = extract_pair(obs, peripheries)
    assert pair.target == x and pair.periphery == p
    assert pair.error_kind is IcmpKind.DEST_UNREACHABLE and pair.discovered_at == 5
    assert peripheries == {int(p): p}

    te = IcmpObservation(kind=IcmpKind.TIME_EXCEEDED, origin=int(p), quoted_dst=int(x))
    te_pair = extract_pair(te, peripheries)
    assert te_pair.error_kind is IcmpKind.TIME_EXCEEDED
    assert te_pair.periphery is pair.periphery  # one object per router

    with pytest.raises(ValueError):
        extract_pair(IcmpObservation(kind=IcmpKind.ECHO_REPLY, origin=int(p)), peripheries)


def run_demo_discovery(probe_cap=1000, seed=7):
    bundle = scenarios.build_discovery_demo(seed=seed)
    transport = SimTransport(bundle.cfg)
    caps = DiscoveryCaps(pair_cap=50, probe_cap=probe_cap)
    return bundle, run_discovery(bundle.scan_prefixes, caps, transport, seed=seed)


def test_discovery_stop_conditions():
    bundle, result = run_demo_discovery()
    rich, silent = bundle.scan_prefixes
    assert len(result.pairs[rich]) == 50
    assert result.states[rich].done
    assert result.pairs[silent] == []
    assert result.states[silent].sent == 1000
    assert result.states[silent].done


def test_discovery_pairs_belong_to_their_prefix_and_are_unique():
    bundle, result = run_demo_discovery()
    for prefix, pairs in result.pairs.items():
        assert all(pair.target in prefix for pair in pairs)
        keys = [(pair.target, pair.periphery) for pair in pairs]
        assert len(keys) == len(set(keys))
        assert len(pairs) <= 50
        assert result.states[prefix].sent <= 1000


def test_discovery_interleaves_until_a_prefix_finishes():
    bundle, result = run_demo_discovery()
    rich, _silent = bundle.scan_prefixes
    rich_done_at = result.states[rich].sent  # rich stops exactly when capped
    trace = [prefix for _t, prefix in result.schedule]
    rich_positions = [i for i, p in enumerate(trace) if p == rich]
    # While both prefixes were active, no two consecutive probes share a prefix.
    active_part = trace[: max(rich_positions) + 1]
    for a, b in zip(active_part, active_part[1:]):
        assert a != b
    assert rich_done_at == 50


class RecordingTransport:
    """Passes every plan on to ``inner`` and keeps its rows."""

    def __init__(self, inner):
        self.inner = inner
        self.plans = []

    @property
    def source_address(self):
        return self.inner.source_address

    def now(self):
        return self.inner.now()

    def execute(self, plan, window):
        self.plans.append(plan.packets)
        return self.inner.execute(plan, window)


def test_discovery_probes_follow_the_permuted_target_order():
    """Each prefix's probed targets are exactly ``generate_targets`` over the
    first ``sent`` entries of its permuted index sequence, in order, for
    prefixes of every kind: announced, silent, one shorter than /64 whose
    index space runs out, one longer than /64, and a single address."""
    bundle = scenarios.build_discovery_demo(seed=7)
    extra = [parse_prefix(p) for p in ("2001:db8:ffff:10::/63", "2001:db8:ffff:20::/80",
                                       "2001:db8:ffff:30::7/128")]
    prefixes = [*bundle.scan_prefixes, *extra]
    transport = RecordingTransport(SimTransport(bundle.cfg))
    result = run_discovery(prefixes, DiscoveryCaps(pair_cap=50, probe_cap=300), transport, seed=7)
    assert not result.aborted and len(transport.plans) == len(result.rounds)
    probed = {prefix: [] for prefix in prefixes}
    for rows, (_base, round_prefixes) in zip(transport.plans, result.rounds):
        assert len(rows) == len(round_prefixes)
        for (_offset, src, dst, _pid), prefix in zip(rows, round_prefixes):
            assert src == int(transport.source_address)
            probed[prefix].append(dst)
    for prefix in prefixes:
        sent = result.states[prefix].sent
        indices = list(islice(_target_index_iter(prefix, 300, 7), sent))
        assert probed[prefix] == [generate_targets(prefix, i, 7) for i in indices], prefix
        assert all(IPv6Address(t) in prefix for t in probed[prefix])
    rich, *others = prefixes
    assert [result.states[p].sent for p in others] == [300, 2, 300, 300]
    assert len(result.pairs[rich]) == 50
    assert {int(pair.target) for pair in result.pairs[rich]} <= set(probed[rich])


def world_growth_over_discovery(pair_cap):
    """Bytes that ``simnet/world.py`` allocates during a scan whose rich
    prefix quotes ``pair_cap`` distinct targets and still holds after it,
    with the world alive and the scan's own records dropped."""
    bundle = scenarios.build_discovery_demo(seed=7)
    rich, _silent = bundle.scan_prefixes
    transport = SimTransport(bundle.cfg)
    caps = DiscoveryCaps(pair_cap=pair_cap, probe_cap=pair_cap)
    tracemalloc.start()
    try:
        found = len(run_discovery([rich], caps, transport, seed=7).pairs[rich])
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert found == pair_cap
    world_only = snapshot.filter_traces([tracemalloc.Filter(True, "*simnet/world.py")])
    return sum(stat.size for stat in world_only.statistics("filename"))


def test_simulator_memory_does_not_grow_with_quoted_targets():
    """Four times the distinct quoted targets leave the simulator holding no
    more memory: it keeps nothing per address it has seen."""
    one = world_growth_over_discovery(100)
    four = world_growth_over_discovery(400)
    assert four - one < 2048, (one, four)


def test_pairs_share_one_periphery_object_per_router():
    bundle = scenarios.build_isav_population(6, seed=3)
    caps = DiscoveryCaps(pair_cap=20, probe_cap=100)
    result = run_discovery(list(bundle.pairs), caps, SimTransport(bundle.cfg))
    pairs = [pair for plist in result.pairs.values() for pair in plist]
    routers = {pair.periphery for pair in pairs}
    assert len(routers) > 1 and len(pairs) > len(routers)
    assert len({id(pair.periphery) for pair in pairs}) == len(routers)


class FailingTransport(RecordingTransport):
    """Fails every plan after the first ``fail_after``."""

    def __init__(self, inner, fail_after):
        super().__init__(inner)
        self.fail_after = fail_after

    def execute(self, plan, window):
        if len(self.plans) >= self.fail_after:
            raise TransportError("backend fell over")
        return super().execute(plan, window)


def test_discovery_flags_partial_results_on_transport_failure():
    """A failed round counts as sent for every prefix still live; a prefix
    that left before the failure keeps what it had sent then."""
    bundle = scenarios.build_discovery_demo(seed=7)
    rich, silent = bundle.scan_prefixes
    transport = FailingTransport(SimTransport(bundle.cfg), fail_after=5)
    caps = DiscoveryCaps(pair_cap=50, probe_cap=1000)
    result = run_discovery(bundle.scan_prefixes, caps, transport, seed=7)
    assert result.aborted
    assert 0 < len(result.pairs[rich]) < 50
    assert [(st.sent, st.done) for st in result.states.values()] == [(6, False), (6, False)]
    assert len(result.rounds) == 6

    transport = FailingTransport(SimTransport(bundle.cfg), fail_after=40)
    result = run_discovery(bundle.scan_prefixes, DiscoveryCaps(pair_cap=5, probe_cap=1000), transport, seed=7)
    assert result.aborted and len(result.pairs[rich]) == 5
    assert (result.states[rich].sent, result.states[rich].done) == (5, True)
    assert (result.states[silent].sent, result.states[silent].done) == (41, False)


def test_discovery_requires_prefixes():
    bundle = scenarios.build_discovery_demo(seed=7)
    with pytest.raises(ValueError):
        run_discovery([], DiscoveryCaps(), SimTransport(bundle.cfg), 0)


def test_exhausted_prefix_leaves_the_rounds():
    bundle = scenarios.build_discovery_demo(seed=7)
    silent48 = bundle.scan_prefixes[1]
    tiny = parse_prefix("2001:db8:ffff:10::/63")  # a target space of two
    result = run_discovery(
        [tiny, silent48], DiscoveryCaps(pair_cap=5, probe_cap=10), SimTransport(bundle.cfg), seed=3
    )
    assert result.states[tiny].sent == 2 and result.states[tiny].done
    assert result.states[silent48].sent == 10 and result.states[silent48].done
    assert not result.aborted and result.pairs == {tiny: [], silent48: []}

    assert len(result.rounds) == 10
    both, alone = result.rounds[0][1], result.rounds[2][1]
    assert sorted(both) == sorted([tiny, silent48]) and alone == (silent48,)
    assert result.rounds[1][1] is both
    assert all(probed is alone for _base, probed in result.rounds[2:])
    third_round = result.rounds[2][0]
    assert [t for t, prefix in result.schedule if prefix == tiny and t >= third_round] == []

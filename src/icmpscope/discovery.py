"""Remote vantage point discovery.

Pseudo-random targets are generated per announced prefix by rotating the /64
subnet bits and hashing a fresh interface identifier for each one; the probe
schedule round-robins across prefixes in an order drawn from a cyclic group
permutation, so no network is ever probed in succession while another is
still unfinished. Error messages come back quoting the probed target, which
gives the <target, periphery> data pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from ipaddress import IPv6Address, IPv6Network
from typing import Iterator, Sequence

import numpy as np
import sympy

from icmpscope._mix import mix64
from icmpscope._spans import SpanTable
from icmpscope.model import ERROR_KINDS, DataPair, IcmpObservation, ProbePacket
from icmpscope.transport import CollectWindow, ObservationFilter, SendPlan, TransportError

RESPONSE_WINDOW_MS = 500  # collection time after each round's last probe


@dataclass(frozen=True, slots=True)
class DiscoveryCaps:
    """Per-prefix stop conditions: enough pairs found, or probe budget spent."""

    pair_cap: int = 50
    probe_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if self.pair_cap < 1:
            raise ValueError("pair_cap must be >= 1")
        if self.probe_cap < self.pair_cap:
            raise ValueError("probe_cap must be >= pair_cap")


@dataclass
class PrefixScanState:
    prefix: IPv6Network
    sent: int = 0
    pairs_found: list[DataPair] = field(default_factory=list)
    done: bool = False


def _smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    order = p - 1
    prime_factors = list(sympy.factorint(order))
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root found for prime {p}")


def _perm_params(n: int, seed: int) -> tuple[int, int, int]:
    """(p, g, start): smallest prime p >= n+1, its smallest primitive root g,
    and a seed-derived starting exponent. The root search is deterministic so
    the same (n, seed) always replays the same schedule; the seed only rotates
    where in the cycle the walk begins.
    """
    p = int(sympy.nextprime(n))
    g = _smallest_primitive_root(p)
    return p, g, seed % (p - 1)


def cyclic_permutation(n: int, seed: int = 0) -> Iterator[int]:
    """Visit each of 1..n exactly once, in multiplicative-group order.

    Walks the powers of a primitive root modulo the smallest prime p >= n+1,
    skipping the values above n. Successive outputs are multiplicatively
    scrambled, which is what keeps probes from hitting one network in bursts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        yield 1
        return
    p, g, start = _perm_params(n, seed)
    x = pow(g, start + 1, p)
    for _ in range(p - 1):
        if x <= n:
            yield x
        x = x * g % p


def cyclic_permutation_blocks(n: int, seed: int = 0, block: int = 8192) -> Iterator[np.ndarray]:
    """Same sequence as :func:`cyclic_permutation`, yielded as int64 arrays.

    The first block is computed scalar-wise; every later block is the previous
    one times g^block (mod p), which vectorizes. Values stay below ~2^21 for
    the supported n, so int64 products never overflow.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        yield np.array([1], dtype=np.int64)
        return
    p, g, start = _perm_params(n, seed)
    size = min(block, p - 1)
    cur = np.empty(size, dtype=np.int64)
    x = pow(g, start + 1, p)
    for i in range(size):
        cur[i] = x
        x = x * g % p
    step = pow(g, size, p)
    emitted = 0
    while True:
        take = min(size, p - 1 - emitted)
        vals = cur[:take]
        yield vals[vals <= n]
        emitted += take
        if emitted >= p - 1:
            return
        cur = cur * step % p


def generate_targets(prefix: IPv6Network, index: int, seed: int) -> IPv6Address:
    """Deterministic probe target: subnet bits carry ``index``, interface
    identifier bits are hashed from (seed, prefix, index).

    For prefixes longer than /64 there are no subnet bits to rotate, so the
    index only keys the randomization of the remaining host bits.
    """
    base = int(prefix[0])
    plen = prefix.prefixlen
    digest = mix64(seed ^ plen, (base >> 64) ^ (base & ((1 << 64) - 1)), index)
    if plen <= 64:
        space = 1 << (64 - plen)
        if not 0 <= index < space:
            raise ValueError(f"index {index} out of range for /{plen}")
        return IPv6Address(base | (index << 64) | digest)
    host_bits = 128 - plen
    if index < 0:
        raise ValueError("index must be >= 0")
    return IPv6Address(base | (digest & ((1 << host_bits) - 1)))


def extract_pair(obs: IcmpObservation) -> DataPair:
    """Pull the <target, periphery> pair out of one ICMP error message."""
    if not obs.kind.is_error:
        raise ValueError(f"not an ICMP error observation: {obs.kind}")
    if obs.quoted_dst is None:
        raise ValueError("error observation lacks the quoted destination")
    return DataPair(
        target=obs.quoted_dst,
        periphery=obs.origin,
        error_kind=obs.kind,
        discovered_at=obs.received_at,
    )


@dataclass
class DiscoveryResult:
    """What a scan found, and each round's start time and the prefixes it
    probed in 1 ms slots (an unchanged order shares the round before's tuple)."""

    pairs: dict[IPv6Network, list[DataPair]]
    states: dict[IPv6Network, PrefixScanState]
    rounds: list[tuple[int, tuple[IPv6Network, ...]]]
    aborted: bool = False

    @property
    def schedule(self) -> Iterator[tuple[int, IPv6Network]]:
        """Every probe's ``(send time, prefix)``, in send order."""
        for base, probed in self.rounds:
            for slot, prefix in enumerate(probed):
                yield base + slot, prefix


def run_discovery(
    prefixes: Sequence[IPv6Network],
    caps: DiscoveryCaps,
    transport,
    seed: int = 0,
) -> DiscoveryResult:
    """Scan the prefixes until each hits a stop condition.

    One probe per unfinished prefix per round, prefixes visited in a fixed
    permuted order, pairs deduplicated by (target, periphery) and capped at
    ``caps.pair_cap``. A transport failure aborts and flags partial results.
    """
    if not prefixes:
        raise ValueError("no prefixes to scan")

    states = {prefix: PrefixScanState(prefix) for prefix in prefixes}
    seen: dict[IPv6Network, set[tuple[IPv6Address, IPv6Address]]] = {p: set() for p in prefixes}
    order = [prefixes[i - 1] for i in cyclic_permutation(len(prefixes), seed)]
    target_indices = {
        prefix: _target_index_iter(prefix, caps.probe_cap, seed) for prefix in prefixes
    }
    # Sorted spans for assigning returned pairs to their prefix.
    spans = SpanTable((int(p[0]), int(p[-1]), p) for p in prefixes)
    pid_counter = itertools.count(1)
    rounds: list[tuple[int, tuple[IPv6Network, ...]]] = []
    aborted = False

    while True:
        base = transport.now()
        entries: list[tuple[int, ProbePacket]] = []
        round_pids: set[int] = set()
        probed: list[IPv6Network] = []
        for prefix in order:
            st = states[prefix]
            if st.done:
                continue
            index = next(target_indices[prefix], None)
            if index is None:
                st.done = True  # target space exhausted before any cap
                continue
            pid = next(pid_counter)
            pkt = ProbePacket(
                src=transport.source_address,
                dst=generate_targets(prefix, index, seed),
                probe_id=pid,
            )
            entries.append((len(probed), pkt))  # 1 ms slots
            round_pids.add(pid)
            probed.append(prefix)
            st.sent += 1
        if not entries:
            break
        this_round = tuple(probed)
        if rounds and rounds[-1][1] == this_round:
            this_round = rounds[-1][1]  # keep one copy of an unchanged order
        rounds.append((base, this_round))

        plan = SendPlan(tuple(entries))
        window = CollectWindow(
            duration_ms=plan.span_ms + RESPONSE_WINDOW_MS,
            obs_filter=ObservationFilter(kinds=ERROR_KINDS, probe_ids=frozenset(round_pids)),
        )
        try:
            observations = transport.execute(plan, window)
        except TransportError:
            aborted = True
            break

        for obs in observations:
            pair = extract_pair(obs)
            prefix = spans.find(int(pair.target))
            if prefix is None:
                continue
            st = states[prefix]
            key = (pair.target, pair.periphery)
            if st.done or key in seen[prefix] or len(st.pairs_found) >= caps.pair_cap:
                continue
            seen[prefix].add(key)
            st.pairs_found.append(pair)

        for st in states.values():
            if not st.done and (
                len(st.pairs_found) >= caps.pair_cap or st.sent >= caps.probe_cap
            ):
                st.done = True

    return DiscoveryResult(
        pairs={prefix: states[prefix].pairs_found for prefix in prefixes},
        states=states,
        rounds=rounds,
        aborted=aborted,
    )


def _target_index_iter(prefix: IPv6Network, probe_cap: int, seed: int) -> Iterator[int]:
    if prefix.prefixlen > 64:
        return iter(range(probe_cap))
    space = 1 << (64 - prefix.prefixlen)
    n = min(space, probe_cap)
    per_prefix_seed = mix64(seed, int(prefix[0]) & ((1 << 64) - 1), prefix.prefixlen)
    return (v - 1 for v in cyclic_permutation(n, per_prefix_seed))

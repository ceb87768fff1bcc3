"""Remote vantage point discovery.

Pseudo-random targets are generated per announced prefix by rotating the /64
subnet bits and hashing a fresh interface identifier for each one; the probe
schedule round-robins across prefixes in an order drawn from a cyclic group
permutation, so no network is ever probed in succession while another is
still unfinished. Error messages come back quoting the probed target, which
gives the <target, periphery> data pairs.

Each round walks only the prefixes still live: a prefix that hits a stop
condition leaves the round list for good. The permutation's prime and
primitive root come from the small helpers below (a deterministic
Miller-Rabin test and trial division), so importing this module loads no
third-party package; only :func:`cyclic_permutation_blocks` imports numpy,
when it is first run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv6Address, IPv6Network
from typing import TYPE_CHECKING, Iterator, Sequence

from icmpscope._mix import mix64
from icmpscope._spans import SpanTable, prefix_span
from icmpscope.model import ERROR_KINDS, DataPair, IcmpObservation
from icmpscope.transport import CollectWindow, ObservationFilter, SendPlan, TransportError

if TYPE_CHECKING:
    import numpy as np

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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve primes as bases: deterministic, and
    exact below 3.3e24, so for every 64-bit integer."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    p = n + 1
    while not _is_prime(p):
        p += 1
    return p


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n >= 1``, ascending, by trial division."""
    factors = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def _smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    order = p - 1
    prime_factors = _prime_factors(order)
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
    p = _next_prime(n)
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
    the supported n, so int64 products never overflow. No campaign calls
    this, so numpy is imported here rather than with the module.
    """
    import numpy as np

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


def generate_targets(prefix: IPv6Network, index: int, seed: int) -> int:
    """Deterministic probe target, as an int: subnet bits carry ``index``,
    interface identifier bits are hashed from (seed, prefix, index).

    For prefixes longer than /64 there are no subnet bits to rotate, so the
    index only keys the randomization of the remaining host bits.
    """
    base = int(prefix.network_address)
    plen = prefix.prefixlen
    digest = mix64(seed ^ plen, (base >> 64) ^ (base & ((1 << 64) - 1)), index)
    if plen <= 64:
        space = 1 << (64 - plen)
        if not 0 <= index < space:
            raise ValueError(f"index {index} out of range for /{plen}")
        return base | (index << 64) | digest
    host_bits = 128 - plen
    if index < 0:
        raise ValueError("index must be >= 0")
    return base | (digest & ((1 << host_bits) - 1))


def extract_pair(obs: IcmpObservation, peripheries: dict[int, IPv6Address]) -> DataPair:
    """The <target, periphery> pair in one ICMP error message.

    ``peripheries`` maps each answering router's int address to the one
    ``IPv6Address`` that all of its pairs share; it gains an entry the first
    time a router answers. Error observations always quote a target.
    """
    if not obs.kind.is_error:
        raise ValueError(f"not an ICMP error observation: {obs.kind}")
    periphery = peripheries.get(obs.origin)
    if periphery is None:
        periphery = peripheries[obs.origin] = IPv6Address(obs.origin)
    return DataPair(IPv6Address(obs.quoted_dst), periphery, obs.kind, obs.received_at)


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
    # One slot per prefix: its state, its target indices and the (target,
    # periphery) keys it has kept. Rounds walk the live slots in permuted order.
    slots = {
        prefix: (st, _target_index_iter(prefix, caps.probe_cap, seed), set())
        for prefix, st in states.items()
    }
    live = [slots[prefixes[i - 1]] for i in cyclic_permutation(len(prefixes), seed)]
    # Sorted spans for assigning returned pairs to their prefix's slot.
    spans = SpanTable((*prefix_span(p), slots[p]) for p in prefixes)
    src = int(transport.source_address)
    peripheries: dict[int, IPv6Address] = {}  # one address object per answering router
    pair_cap, probe_cap = caps.pair_cap, caps.probe_cap
    next_pid = 1
    rounds: list[tuple[int, tuple[IPv6Network, ...]]] = []
    aborted = False

    while True:
        base = transport.now()
        first_pid = next_pid
        rows: list[tuple[int, int, int, int]] = []
        probed: list[IPv6Network] = []
        for st, indices, _seen in live:
            index = next(indices, None)
            if index is None:
                st.done = True  # target space exhausted before any cap
                continue
            # 1 ms slots
            rows.append((len(rows), src, generate_targets(st.prefix, index, seed), next_pid))
            next_pid += 1
            probed.append(st.prefix)
            st.sent += 1
        if not rows:
            break
        this_round = tuple(probed)
        if rounds and rounds[-1][1] == this_round:
            this_round = rounds[-1][1]  # keep one copy of an unchanged order
        rounds.append((base, this_round))

        plan = SendPlan(tuple(rows))
        window = CollectWindow(
            duration_ms=plan.span_ms + RESPONSE_WINDOW_MS,
            obs_filter=ObservationFilter(
                kinds=ERROR_KINDS, probe_ids=frozenset(range(first_pid, next_pid))
            ),
        )
        try:
            observations = transport.execute(plan, window)
        except TransportError:
            aborted = True
            break

        for obs in observations:
            slot = spans.find(obs.quoted_dst)
            if slot is None:
                continue
            st, _indices, seen = slot
            key = (obs.quoted_dst, obs.origin)
            if st.done or key in seen or len(st.pairs_found) >= pair_cap:
                continue
            seen.add(key)
            st.pairs_found.append(extract_pair(obs, peripheries))

        still_live = []
        for slot in live:
            st = slot[0]
            if st.done or len(st.pairs_found) >= pair_cap or st.sent >= probe_cap:
                st.done = True
            else:
                still_live.append(slot)
        live = still_live

    return DiscoveryResult(
        pairs={prefix: st.pairs_found for prefix, st in states.items()},
        states=states,
        rounds=rounds,
        aborted=aborted,
    )


def _target_index_iter(prefix: IPv6Network, probe_cap: int, seed: int) -> Iterator[int]:
    if prefix.prefixlen > 64:
        return iter(range(probe_cap))
    space = 1 << (64 - prefix.prefixlen)
    n = min(space, probe_cap)
    per_prefix_seed = mix64(seed, int(prefix.network_address) & ((1 << 64) - 1), prefix.prefixlen)
    return (v - 1 for v in cyclic_permutation(n, per_prefix_seed))

"""Remote vantage point discovery.

Pseudo-random targets are generated per announced prefix by rotating the /64
subnet bits and hashing a fresh interface identifier for each one; the probe
schedule round-robins across prefixes in an order drawn from a cyclic group
permutation, so no network is ever probed in succession while another is
still unfinished. Error messages come back quoting the probed target, which
gives the <target, periphery> data pairs.

Each round walks the live prefixes as columns, rebuilt only when one leaves
for good at a stop condition, and hashes all their targets, one folded key
per prefix, in one kernel call (``_mix.mix_words``; scalar calls for a round
of fewer than ``KERNEL_LANES``); a prefix's sent count is the round count
when it leaves. The permutation's prime and primitive root
come from the small helpers below (a deterministic Miller-Rabin test and
trial division), so importing this module loads no third-party package;
only :func:`cyclic_permutation_blocks` imports numpy, when it is first run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv6Address, IPv6Network
from itertools import repeat
from typing import TYPE_CHECKING, Iterator, Sequence

from icmpscope._mix import FOLD, mix64, mix64_folded, mix_words
from icmpscope._spans import SpanTable, prefix_span
from icmpscope.model import ERROR_KINDS, DataPair, IcmpObservation
from icmpscope.transport import CollectWindow, ObservationFilter, SendPlan, TransportError

if TYPE_CHECKING:
    import numpy as np

RESPONSE_WINDOW_MS = 500  # collection time after each round's last probe
KERNEL_LANES = 12  # fewer targets than this cost less as scalar mix64_folded calls
CAP_FLOORS = {"pair_cap": 1, "probe_cap": 1}  # the least value of each cap


@dataclass(frozen=True, slots=True)
class DiscoveryCaps:
    """Per-prefix stop conditions: enough pairs found, or probe budget spent."""

    pair_cap: int = 50
    probe_cap: int = 1_000_000

    def __post_init__(self) -> None:
        for name, least in CAP_FLOORS.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
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
    plen = prefix.prefixlen
    if plen <= 64 and not 0 <= index < 1 << (64 - plen):
        raise ValueError(f"index {index} out of range for /{plen}")
    if index < 0:
        raise ValueError("index must be >= 0")
    return _draw_targets(*([c] for c in _target_consts(prefix, seed)), [index])[0]


def _target_consts(prefix: IPv6Network, seed: int) -> tuple[int, int, int, int]:
    """What every target in ``prefix`` shares: the network int, the key part
    ``seed ^ plen``, the hash input folded from the network's two halves, and
    the host mask."""
    net, plen = int(prefix.network_address), prefix.prefixlen
    return net, seed ^ plen, (net >> 64) ^ (net & ((1 << 64) - 1)), (1 << (128 - plen)) - 1


def _draw_targets(nets: Sequence[int], keyparts: Sequence[int], folded: Sequence[int],
                  masks: Sequence[int], indices: list[int]) -> list[int]:
    """One target per lane, hashed in one pass (scalar below ``KERNEL_LANES``).
    The index sits at bit 64, the subnet bits, and the host mask cuts it away
    for a prefix longer than /64, leaving only the hashed interface identifier."""
    keys = [kp ^ i * FOLD for kp, i in zip(keyparts, indices)]
    words = mix_words(keys, folded) if len(keys) >= KERNEL_LANES else list(map(mix64_folded, keys, folded))
    return [net | (i << 64 | w) & m for net, i, w, m in zip(nets, indices, words, masks)]


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
    if len(states) < len(prefixes):
        raise ValueError("prefix list names a prefix more than once")
    pair_cap, probe_cap = caps.pair_cap, caps.probe_cap
    # One slot per prefix: its state, target indices and their count, and its
    # target constants. Rounds walk the live slots in permuted order.
    slots = {
        prefix: (st, _target_index_iter(prefix, probe_cap, seed), _index_count(prefix, probe_cap),
                 *_target_consts(prefix, seed))
        for prefix, st in states.items()
    }
    live = [slots[prefixes[i - 1]] for i in cyclic_permutation(len(prefixes), seed)]
    # Sorted spans for assigning returned pairs to their prefix's state.
    spans = SpanTable((*prefix_span(p), states[p]) for p in prefixes)
    src = int(transport.source_address)
    peripheries: dict[int, IPv6Address] = {}  # one address object per answering router
    seen: set[tuple[int, int]] = set()  # the (target, periphery) keys kept, of every prefix
    next_pid = 1
    rounds: list[tuple[int, tuple[IPv6Network, ...]]] = []
    sent = 0  # rounds so far; every live slot has sent one probe in each
    aborted = False
    leaving = True  # some slot is done: drop it and rebuild the columns

    while True:
        if leaving:
            for st, _indices, count, *_consts in live:
                if len(st.pairs_found) >= pair_cap or count <= sent:
                    st.sent, st.done = sent, True
            live = [slot for slot in live if not slot[0].done]
            if not live:
                break
            live_states, iters, counts, nets, keyparts, folded, masks = zip(*live)
            this_round = tuple(st.prefix for st in live_states)
            n, last_round, leaving = len(live), min(counts), False
        base = transport.now()
        targets = _draw_targets(nets, keyparts, folded, masks, [next(it) for it in iters])
        rows = tuple(zip(range(n), repeat(src), targets, range(next_pid, next_pid + n)))  # 1 ms slots
        rounds.append((base, this_round))
        sent += 1

        plan = SendPlan(rows)
        window = CollectWindow(
            duration_ms=plan.span_ms + RESPONSE_WINDOW_MS,
            obs_filter=ObservationFilter(
                kinds=ERROR_KINDS, probe_ids=frozenset(range(next_pid, next_pid + n))
            ),
        )
        next_pid += n
        try:
            observations = transport.execute(plan, window)
        except TransportError:
            for st in live_states:
                st.sent = sent
            aborted = True
            break

        for obs in observations:
            st = spans.find(obs.quoted_dst)
            if st is None:
                continue
            key = (obs.quoted_dst, obs.origin)
            if st.done or key in seen or len(st.pairs_found) >= pair_cap:
                continue
            seen.add(key)
            st.pairs_found.append(extract_pair(obs, peripheries))
            leaving = leaving or len(st.pairs_found) == pair_cap
        leaving = leaving or sent == last_round

    return DiscoveryResult(
        pairs={prefix: st.pairs_found for prefix, st in states.items()},
        states=states,
        rounds=rounds,
        aborted=aborted,
    )


def _index_count(prefix: IPv6Network, probe_cap: int) -> int:
    """How many indices :func:`_target_index_iter` yields for ``prefix``."""
    return probe_cap if prefix.prefixlen > 64 else min(1 << (64 - prefix.prefixlen), probe_cap)


def _target_index_iter(prefix: IPv6Network, probe_cap: int, seed: int) -> Iterator[int]:
    n = _index_count(prefix, probe_cap)
    if prefix.prefixlen > 64:
        return iter(range(n))
    per_prefix_seed = mix64(seed, int(prefix.network_address) & ((1 << 64) - 1), prefix.prefixlen)
    return (v - 1 for v in cyclic_permutation(n, per_prefix_seed))

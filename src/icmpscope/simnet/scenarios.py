"""Seeded scenario generators for simulated measurement campaigns.

Every builder lays out documentation-range /48 prefixes, one periphery
router per prefix, star links to the local prober, and coordinates that are
physically consistent with the link delays: one-way delay scales with
great-circle distance such that each true round trip sits about a third of
the way into the geometry-derived timing bounds, comfortably inside them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from ipaddress import IPv6Address, IPv6Network

from icmpscope.model import DataPair
from icmpscope.reach import haversine_km
from icmpscope.simnet.config import LinkModel, SimConfig, SimHost, SimRouter, link_key
from icmpscope.simnet.limiter import StrictSingle, TokenBucket, Unlimited

_DOC_BASE = int(IPv6Address("2001:db8::"))
PROBER_ADDRESS = IPv6Address(_DOC_BASE | (0xFFFF << 80) | 1)
PROBER_COORDS = (25.0, 55.0)

# /48 index ranges per scenario family, to keep merged bundles disjoint.
_IDX_ISAV = 0x0000
_IDX_RL = 0x1000
_IDX_DISCOVERY = 0x2000
_IDX_SUPPLEMENTAL = 0x2100
_IDX_REACH_TARGETS = 0x4000
_IDX_REACH_RVPS = 0x8000

_DEAD_SUFFIX = 0xABCD  # the never-assigned host used as the unreachable target

_REACH_RVPS = 3  # vantage-point routers in the reach cluster
_REACH_MIN_TARGET_RVP_KM = 1500.0  # every target sits at least this far from the cluster


def _prefix48(idx: int) -> IPv6Network:
    return IPv6Network((_DOC_BASE | (idx << 80), 48))


def _router_addr(idx: int) -> IPv6Address:
    return IPv6Address(_DOC_BASE | (idx << 80) | 1)


def _dead_addr(idx: int) -> IPv6Address:
    return IPv6Address(_DOC_BASE | (idx << 80) | _DEAD_SUFFIX)


def _host_addr(idx: int, n: int) -> IPv6Address:
    return IPv6Address(_DOC_BASE | (idx << 80) | 0xB000 | n)


def _owd_ms(coords_a: tuple[float, float], coords_b: tuple[float, float]) -> float:
    # Round trip lands at d/150 ms, inside the [d/200, d/100] geometric bound.
    d = haversine_km(coords_a[0], coords_a[1], coords_b[0], coords_b[1])
    return max(2.0, d / 300.0)


@dataclass
class ScenarioBundle:
    """A simulated world plus every input file a campaign needs against it."""

    cfg: SimConfig
    local_vp: IPv6Address
    pairs: dict[IPv6Network, list[DataPair]] = field(default_factory=dict)
    as_map: dict[IPv6Network, int] = field(default_factory=dict)
    coords: list[tuple[IPv6Network, float, float]] = field(default_factory=list)
    scan_prefixes: list[IPv6Network] = field(default_factory=list)
    reach_targets: list[IPv6Address] = field(default_factory=list)
    reach_truth: dict[IPv6Address, bool] = field(default_factory=dict)
    proxy_rvps: list[DataPair] = field(default_factory=list)
    target_router: dict[IPv6Address, IPv6Address] = field(default_factory=dict)
    hitlist: dict[IPv6Network, list[IPv6Address]] = field(default_factory=dict)


def build_isav_population(
    n_prefixes: int = 200,
    seed: int = 0,
    *,
    loss: float = 0.0,
    jitter: float = 0.0,
    cap_range: tuple[int, int] = (9, 15),
) -> ScenarioBundle:
    """Prefixes behind moderate global token buckets (refilling every 100-300
    ms), ISAV on a random half.

    The default capacity floor of 9 keeps every noise-suppressed reply ratio
    strictly below one half at zero loss (burst pattern share plus at most one
    refill grant), so verdicts cannot sit on a decision-threshold knife edge.
    """
    rng = random.Random(f"isav-{seed}")
    routers, links, pairs, as_map, coords = [], {}, {}, {}, []
    for i in range(n_prefixes):
        idx = _IDX_ISAV + i
        prefix = _prefix48(idx)
        addr = _router_addr(idx)
        routers.append(
            SimRouter(
                address=addr,
                served_prefix=prefix,
                limiter=TokenBucket(rng.randint(*cap_range), rng.randint(100, 300)),
                isav_ingress=rng.random() < 0.5,
            )
        )
        site_coords = (rng.uniform(-55.0, 55.0), rng.uniform(-175.0, 175.0))
        coords.append((prefix, site_coords[0], site_coords[1]))
        links[link_key(PROBER_ADDRESS, addr)] = LinkModel(
            _owd_ms(PROBER_COORDS, site_coords), jitter, loss
        )
        pairs[prefix] = [DataPair(target=_dead_addr(idx), periphery=addr)]
        as_map[prefix] = 64500 + i // 4  # four prefixes per AS

    cfg = SimConfig(
        prober=PROBER_ADDRESS, routers=routers, links=links, seed=rng.getrandbits(64)
    )
    cfg.validate()
    coords.append((IPv6Network((int(PROBER_ADDRESS), 128)), *PROBER_COORDS))
    return ScenarioBundle(
        cfg=cfg, local_vp=PROBER_ADDRESS, pairs=pairs, as_map=as_map, coords=coords
    )


def build_rl_population(
    per_class: int = 100,
    seed: int = 0,
    *,
    loss: float = 0.0,
    jitter: float = 0.0,
) -> ScenarioBundle:
    """Equal thirds of global token buckets, single-message limiters, and
    completely unlimited routers."""
    rng = random.Random(f"rl-{seed}")
    routers, links, pairs = [], {}, {}
    specs = (
        [lambda: TokenBucket(rng.randint(5, 20), rng.randint(100, 500))] * per_class
        + [lambda: StrictSingle(rng.randint(500, 2000))] * per_class
        + [lambda: Unlimited()] * per_class
    )
    for i, make_spec in enumerate(specs):
        idx = _IDX_RL + i
        prefix = _prefix48(idx)
        addr = _router_addr(idx)
        routers.append(SimRouter(address=addr, served_prefix=prefix, limiter=make_spec()))
        site_coords = (rng.uniform(-55.0, 55.0), rng.uniform(-175.0, 175.0))
        links[link_key(PROBER_ADDRESS, addr)] = LinkModel(
            _owd_ms(PROBER_COORDS, site_coords), jitter, loss
        )
        pairs[prefix] = [DataPair(target=_dead_addr(idx), periphery=addr)]

    cfg = SimConfig(
        prober=PROBER_ADDRESS, routers=routers, links=links, seed=rng.getrandbits(64)
    )
    cfg.validate()
    return ScenarioBundle(cfg=cfg, local_vp=PROBER_ADDRESS, pairs=pairs)


def build_reach_population(
    n_targets: int = 1000,
    n_cut: int = 149,
    seed: int = 0,
    *,
    loss: float = 0.0,
    jitter: float = 0.0,
) -> ScenarioBundle:
    """Echo-responding targets worldwide plus a small cluster of vantage-point
    routers; a chosen subset of targets gets directed cut edges toward the
    vantage cluster and forms the unconnected ground truth."""
    if n_cut > n_targets:
        raise ValueError("n_cut cannot exceed n_targets")
    rng = random.Random(f"reach-{seed}")
    routers, hosts, links, coords = [], [], {}, []
    cuts: set[tuple[IPv6Network, IPv6Address]] = set()

    cluster = (rng.uniform(-40.0, 40.0), rng.uniform(-150.0, 150.0))
    rvp_addrs: list[IPv6Address] = []
    rvp_dead: list[IPv6Address] = []
    proxy_rvps: list[DataPair] = []
    rvp_coords: list[tuple[float, float]] = []
    for j in range(_REACH_RVPS):
        idx = _IDX_REACH_RVPS + j
        prefix = _prefix48(idx)
        addr = _router_addr(idx)
        dead = _dead_addr(idx)
        routers.append(
            SimRouter(address=addr, served_prefix=prefix, limiter=TokenBucket(10, 100))
        )
        site = (cluster[0] + rng.uniform(-0.3, 0.3), cluster[1] + rng.uniform(-0.3, 0.3))
        rvp_coords.append(site)
        coords.append((prefix, site[0], site[1]))
        links[link_key(PROBER_ADDRESS, addr)] = LinkModel(_owd_ms(PROBER_COORDS, site), jitter, loss)
        rvp_addrs.append(addr)
        rvp_dead.append(dead)
        proxy_rvps.append(DataPair(target=dead, periphery=addr))

    cut_indices = set(rng.sample(range(n_targets), n_cut))
    reach_targets: list[IPv6Address] = []
    reach_truth: dict[IPv6Address, bool] = {}
    target_router: dict[IPv6Address, IPv6Address] = {}
    for i in range(n_targets):
        idx = _IDX_REACH_TARGETS + i
        prefix = _prefix48(idx)
        addr = _router_addr(idx)
        b = _host_addr(idx, 1)
        routers.append(SimRouter(address=addr, served_prefix=prefix, limiter=Unlimited()))
        hosts.append(SimHost(address=b))
        while True:
            site = (rng.uniform(-55.0, 55.0), rng.uniform(-175.0, 175.0))
            if haversine_km(site[0], site[1], cluster[0], cluster[1]) >= _REACH_MIN_TARGET_RVP_KM:
                break
        coords.append((prefix, site[0], site[1]))
        links[link_key(PROBER_ADDRESS, addr)] = LinkModel(_owd_ms(PROBER_COORDS, site), jitter, loss)
        for j, rvp_addr in enumerate(rvp_addrs):
            links[link_key(addr, rvp_addr)] = LinkModel(_owd_ms(site, rvp_coords[j]), jitter, loss)
        unconnected = i in cut_indices
        if unconnected:
            for j in range(_REACH_RVPS):
                cuts.add((prefix, rvp_dead[j]))
                cuts.add((prefix, rvp_addrs[j]))
        reach_targets.append(b)
        reach_truth[b] = unconnected
        target_router[b] = addr

    cfg = SimConfig(
        prober=PROBER_ADDRESS,
        routers=routers,
        hosts=hosts,
        links=links,
        unreachable_pairs=cuts,
        seed=rng.getrandbits(64),
    )
    cfg.validate()
    coords.append((IPv6Network((int(PROBER_ADDRESS), 128)), *PROBER_COORDS))
    return ScenarioBundle(
        cfg=cfg,
        local_vp=PROBER_ADDRESS,
        coords=coords,
        reach_targets=reach_targets,
        reach_truth=reach_truth,
        proxy_rvps=proxy_rvps,
        target_router=target_router,
        pairs={_prefix48(_IDX_REACH_RVPS + j): [p] for j, p in enumerate(proxy_rvps)},
    )


def build_discovery_demo(seed: int = 0) -> ScenarioBundle:
    """One prefix that answers every probe with an error and one prefix that
    does not exist at all, for exercising both stop conditions."""
    rng = random.Random(f"discovery-{seed}")
    rich_prefix = _prefix48(_IDX_DISCOVERY)
    silent_prefix = _prefix48(_IDX_DISCOVERY + 1)
    addr = _router_addr(_IDX_DISCOVERY)
    router = SimRouter(address=addr, served_prefix=rich_prefix, limiter=Unlimited())
    # Sixty declared-but-silent machines inside the rich subnet; random targets
    # are astronomically unlikely to collide with them.
    hosts = [SimHost(_host_addr(_IDX_DISCOVERY, n), responds_to_echo=False) for n in range(60)]
    links = {link_key(PROBER_ADDRESS, addr): LinkModel(20.0)}
    cfg = SimConfig(
        prober=PROBER_ADDRESS,
        routers=[router],
        hosts=hosts,
        links=links,
        seed=rng.getrandbits(64),
    )
    cfg.validate()
    return ScenarioBundle(
        cfg=cfg,
        local_vp=PROBER_ADDRESS,
        scan_prefixes=[rich_prefix, silent_prefix],
    )


def build_supplemental_demo(n_prefixes: int = 4, seed: int = 0) -> ScenarioBundle:
    """Prefixes where discovery finds no usable data pair (so the error-based
    campaign cannot decide them) but a hitlist responder exists whose
    echo-reply limiting becomes observable at n = m = 500. The last prefix's
    responder is fully unlimited and must stay uncertain even after the
    supplemental pass.
    """
    rng = random.Random(f"supplemental-{seed}")
    routers, links, hitlist = [], {}, {}
    for i in range(n_prefixes):
        idx = _IDX_SUPPLEMENTAL + i
        prefix = _prefix48(idx)
        addr = _router_addr(idx)
        unlimited = i == n_prefixes - 1
        routers.append(
            SimRouter(
                address=addr,
                served_prefix=prefix,
                # Generous enough that the echo budget recovers between the
                # widely spaced supplemental bursts, yet small against a
                # thousand-packet burst.
                limiter=Unlimited() if unlimited else TokenBucket(100, 200),
                isav_ingress=(not unlimited) and i % 2 == 1,
            )
        )
        links[link_key(PROBER_ADDRESS, addr)] = LinkModel(float(rng.randint(10, 40)))
        hitlist[prefix] = [addr]
    cfg = SimConfig(
        prober=PROBER_ADDRESS, routers=routers, links=links, seed=rng.getrandbits(64)
    )
    cfg.validate()
    return ScenarioBundle(cfg=cfg, local_vp=PROBER_ADDRESS, hitlist=hitlist)


def build_demo(seed: int = 0, *, loss: float = 0.0, jitter: float = 0.0) -> ScenarioBundle:
    """Small combined world: enough of every population for a full CLI pass."""
    isav = build_isav_population(12, seed, loss=loss, jitter=jitter)
    rl = build_rl_population(5, seed, loss=loss, jitter=jitter)
    reach = build_reach_population(20, 5, seed, loss=loss, jitter=jitter)
    disco = build_discovery_demo(seed)

    cfg = SimConfig(
        prober=PROBER_ADDRESS,
        routers=isav.cfg.routers + rl.cfg.routers + reach.cfg.routers + disco.cfg.routers,
        hosts=isav.cfg.hosts + rl.cfg.hosts + reach.cfg.hosts + disco.cfg.hosts,
        links={**isav.cfg.links, **rl.cfg.links, **reach.cfg.links, **disco.cfg.links},
        unreachable_pairs=set().union(
            isav.cfg.unreachable_pairs, rl.cfg.unreachable_pairs, reach.cfg.unreachable_pairs
        ),
        seed=random.Random(f"demo-{seed}").getrandbits(64),
    )
    cfg.validate()
    rl_as_map = {p: 64600 + i for i, p in enumerate(rl.pairs)}
    return ScenarioBundle(
        cfg=cfg,
        local_vp=PROBER_ADDRESS,
        pairs={**isav.pairs, **rl.pairs},
        as_map={**isav.as_map, **rl_as_map},
        coords=isav.coords[:-1] + reach.coords,  # drop isav's prober entry, keep reach's
        scan_prefixes=disco.scan_prefixes,
        reach_targets=reach.reach_targets,
        reach_truth=reach.reach_truth,
        proxy_rvps=reach.proxy_rvps,
        target_router=reach.target_router,
    )

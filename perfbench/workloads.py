"""The four campaign workloads: set-up, campaign, oracle scoring, digest.

Every engine and builder is called through its module attribute (for example
``reach.run_reach_campaign``), never through a name bound at import time, so
that the traced run's wrappers, installed on those attributes, see the calls.

Each workload is a class with the same four steps. ``setup`` does everything
up to the first packet; ``campaign`` is the timed part; ``score`` compares
the verdicts with the simulator's oracles and applies the acceptance gate;
``digest`` hashes the verdict output so same-seed runs can be compared.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path

from icmpscope import cli, discovery, isav, reach
from icmpscope.model import MeasurementParams
from icmpscope.simnet import scenarios
from icmpscope.simnet.config import oracle_isav
from icmpscope.transport import SimTransport

EVAL_LAMBDAS = [0.5, 0.6, 0.7, 0.8, 0.9]
_DOC_BASE = int(IPv6Address("2001:db8::"))
# Documentation-range /48 indices no scenario builder hands out (rl uses
# 0x1000.., discovery demos 0x2000.., reach targets start at 0x4000).
_SILENT_IDX = range(0x3000, 0x4000)


@dataclass
class Score:
    """Oracle comparison of one campaign's verdicts.

    ``fails`` counts units whose verdict is wrong or uncertain, plus units
    lost to an exception; ``gate_ok`` is the acceptance threshold verdict.
    """

    units: int
    fails: int
    gate_ok: bool
    detail: dict = field(default_factory=dict)

    @property
    def fail_ratio(self) -> float:
        return self.fails / self.units if self.units else 1.0


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- reach -----------------------------------------------------------------


def score_reach(verdicts, truth) -> Score:
    """Criterion 7: precision and recall >= 0.80, accuracy >= 0.90."""
    fails = 0
    for target, unconnected in truth.items():
        verdict = verdicts.get(target)
        want = reach.ReachCategory.UNCONNECTED if unconnected else reach.ReachCategory.CONNECTED
        if verdict is None or verdict.category is not want:
            fails += 1
    report = reach.evaluate(
        {t: verdicts.get(t, reach.ReachVerdict(reach.ReachCategory.UNCERTAIN, None, 0.0, 0.0, 0))
         for t in truth},
        truth, EVAL_LAMBDAS, 0.7,
    )
    gate = report.precision >= 0.80 and report.recall >= 0.80 and report.accuracy >= 0.90
    detail = {"precision": report.precision, "recall": report.recall,
              "accuracy": report.accuracy, "uncertain": report.n_uncertain}
    return Score(len(truth), fails, gate, detail)


class ReachWorkload:
    name = "reach"
    default_seed = 77

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        n, cut = (1000, 149) if scale == "full" else (40, 8)
        self.params = {"n_targets": n, "n_cut": cut, "loss": 0.02, "jitter": 0.2,
                       "repeats": 6 if scale == "full" else 2, "lam": 0.7, "seed": seed}

    def setup(self, workdir: Path) -> None:
        p = self.params
        self.bundle = scenarios.build_reach_population(
            p["n_targets"], p["n_cut"], seed=self.seed, loss=p["loss"], jitter=p["jitter"]
        )
        self.transport = SimTransport(self.bundle.cfg)
        self.geo = reach.CoordinateMap(self.bundle.coords)

    def campaign(self):
        p = self.params
        return reach.run_reach_campaign(
            self.bundle.reach_targets, self.bundle.proxy_rvps,
            MeasurementParams(repeats=p["repeats"], lam=p["lam"]), self.transport,
            geo=self.geo, seed=self.seed,
        )

    def units(self) -> int:
        return len(self.bundle.reach_truth)

    def score(self, result) -> Score:
        return score_reach(result.verdicts(), self.bundle.reach_truth)

    def digest(self, result) -> str:
        return _digest(
            f"{t} {v.category.value} {v.ratio!r} {v.avg1!r} {v.avg2!r} {v.k}"
            for t, v in sorted(result.verdicts().items())
        )


# -- isav ------------------------------------------------------------------


def score_isav(categories, truth) -> Score:
    """Criterion 5 under loss: >= 95% agree with the oracle, none inverted."""
    agree = inverted = 0
    for prefix, deployed in truth.items():
        want = isav.IsavCategory.DEPLOYED if deployed else isav.IsavCategory.VULNERABLE
        got = categories.get(prefix, isav.IsavCategory.UNCERTAIN)
        if got is want:
            agree += 1
        elif got is not isav.IsavCategory.UNCERTAIN:
            inverted += 1
    units = len(truth)
    gate = agree >= math.ceil(0.95 * units) and inverted == 0
    detail = {"agree": agree, "inverted": inverted, "uncertain": units - agree - inverted}
    return Score(units, units - agree, gate, detail)


class IsavWorkload:
    name = "isav"
    default_seed = 55

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.params = {"n_prefixes": 200 if scale == "full" else 12, "loss": 0.05,
                       "jitter": 0.2, "repeats": 10 if scale == "full" else 3, "seed": seed}

    def setup(self, workdir: Path) -> None:
        p = self.params
        self.bundle = scenarios.build_isav_population(
            p["n_prefixes"], seed=self.seed, loss=p["loss"], jitter=p["jitter"]
        )
        self.transport = SimTransport(self.bundle.cfg)
        self.rvps = {prefix: plist[0] for prefix, plist in self.bundle.pairs.items()}

    def campaign(self):
        return isav.run_isav_campaign(
            self.rvps, MeasurementParams(repeats=self.params["repeats"]), self.transport,
            self.bundle.local_vp, seed=self.seed,
        )

    def units(self) -> int:
        return len(self.rvps)

    def score(self, result) -> Score:
        categories = {prefix: v.category for prefix, (_t, v) in result.results.items()}
        truth = {prefix: oracle_isav(self.bundle.cfg, prefix) for prefix in self.rvps}
        return score_isav(categories, truth)

    def digest(self, result) -> str:
        return _digest(
            f"{prefix} {v.category.value} {v.rule} {t.avg1!r} {t.avg2!r} {t.avg3!r}"
            for prefix, (t, v) in sorted(result.results.items())
        )


# -- discovery -------------------------------------------------------------


def score_discovery(pairs, serving, silent, pair_cap: int, aborted: bool = False) -> Score:
    """Announced prefixes end with ``pair_cap`` pairs, silent ones with none,
    and every pair's periphery is the router serving its target."""
    fails = {"short": 0, "silent_with_pairs": 0, "wrong_periphery": 0}
    failed_units = 0
    for prefix in list(serving) + list(silent):
        found = pairs.get(prefix, [])
        bad = aborted
        if prefix in serving:
            if len(found) < pair_cap:
                fails["short"] += 1
                bad = True
            router = serving[prefix]
            if any(p.periphery != router or p.target not in prefix for p in found):
                fails["wrong_periphery"] += 1
                bad = True
        elif found:
            fails["silent_with_pairs"] += 1
            bad = True
        failed_units += bad
    units = len(serving) + len(silent)
    return Score(units, failed_units, failed_units == 0, {**fails, "aborted": aborted})


class DiscoveryWorkload:
    name = "discovery"
    default_seed = 44

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        full = scale == "full"
        self.params = {"per_class": 100 if full else 4, "silent": 100 if full else 4,
                       "pair_cap": 50 if full else 10, "probe_cap": 4000 if full else 200,
                       "seed": seed}

    def setup(self, workdir: Path) -> None:
        p = self.params
        bundle = scenarios.build_rl_population(p["per_class"], seed=self.seed)
        rng = random.Random(f"perfbench-silent-{self.seed}")
        self.silent = [IPv6Network((_DOC_BASE | (idx << 80), 48))
                       for idx in rng.sample(_SILENT_IDX, p["silent"])]
        self.serving = {r.served_prefix: r.address for r in bundle.cfg.routers}
        self.prefixes = list(bundle.pairs) + self.silent
        rng.shuffle(self.prefixes)
        self.transport = SimTransport(bundle.cfg)

    def campaign(self):
        caps = discovery.DiscoveryCaps(self.params["pair_cap"], self.params["probe_cap"])
        return discovery.run_discovery(self.prefixes, caps, self.transport, seed=self.seed)

    def units(self) -> int:
        return len(self.prefixes)

    def score(self, result) -> Score:
        return score_discovery(result.pairs, self.serving, set(self.silent),
                               self.params["pair_cap"], result.aborted)

    def digest(self, result) -> str:
        return _digest(
            f"{prefix} {result.states[prefix].sent} "
            + " ".join(f"{p.target}>{p.periphery}@{p.discovered_at}" for p in plist)
            for prefix, plist in sorted(result.pairs.items())
        )


# -- cli_pipeline ----------------------------------------------------------


VERDICT_FILES = (
    "discovered_pairs.jsonl", "discovery_summary.tsv", "isav_verdicts.jsonl",
    "isav_prefix_summary.tsv", "isav_as_summary.tsv", "reach_verdicts.jsonl",
    "reach_eval.tsv", "reach_roc.tsv", "rl_classes.jsonl", "rl_summary.tsv",
)


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def score_cli_outputs(out: Path, pair_cap: int) -> Score:
    """Score the verdict files against the ``truth_*.jsonl`` files.

    Uncertain verdicts count as failed units; the gate is that no decided
    verdict contradicts the truth and both discovery stop rules hold.
    """
    isav_truth = {r["prefix"]: r["isav_deployed"] for r in _jsonl(out / "truth_isav.jsonl")}
    reach_truth = {r["target"]: r["unconnected"] for r in _jsonl(out / "truth_reach.jsonl")}
    rl_truth = {r["address"]: r["classification"] for r in _jsonl(out / "truth_rl.jsonl")}
    units = fails = inverted = 0
    for r in _jsonl(out / "isav_verdicts.jsonl"):
        want = "deployed" if isav_truth[r["prefix"]] else "vulnerable"
        units += 1
        fails += r["verdict"] != want
        inverted += r["verdict"] not in (want, "uncertain")
    for r in _jsonl(out / "reach_verdicts.jsonl"):
        want = "unconnected" if reach_truth[r["target"]] else "connected"
        units += 1
        fails += r["verdict"] != want
        inverted += r["verdict"] not in (want, "uncertain")
    for r in _jsonl(out / "rl_classes.jsonl"):
        units += 1
        fails += r["classification"] != rl_truth[r["address"]]
        inverted += r["classification"] not in (rl_truth[r["address"]], "unclassified")
    pairs: dict[str, int] = {}
    for r in _jsonl(out / "discovered_pairs.jsonl"):
        pairs[r["prefix"]] = pairs.get(r["prefix"], 0) + 1
    served = set(isav_truth)  # every router's served prefix
    disco_bad = 0
    for line in (out / "prefixes.txt").read_text().split():
        units += 1
        got = pairs.get(line, 0)
        bad = got < pair_cap if line in served else got > 0
        disco_bad += bad
        fails += bad
    gate = inverted == 0 and disco_bad == 0
    return Score(units, fails, gate, {"inverted": inverted, "discovery_bad": disco_bad})


class CliPipelineWorkload:
    """The README quick start, in process, into a fresh output directory."""

    name = "cli_pipeline"
    default_seed = 4

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        full = scale == "full"
        self.params = {"preset": "demo", "probe_cap": 1000 if full else 200,
                       "repeats": None if full else 2, "seed": seed}

    def _run(self, argv: list[str]) -> None:
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"icmpscope {argv[0]} exited with {code}")

    def setup(self, workdir: Path) -> None:
        self.out = workdir / "out"
        self._run(["simulate", "--preset", "demo", "--seed", str(self.seed),
                   "--out", str(self.out)])

    def campaign(self):
        config = str(self.out / "campaign.json")
        extra = [] if self.params["repeats"] is None else ["--repeats", str(self.params["repeats"])]
        self._run(["discover", "--config", config, "--probe-cap", str(self.params["probe_cap"])])
        self._run(["isav", "--config", config, *extra])
        self._run(["reach", "--config", config, *extra])
        self._run(["rl-classify", "--config", config])
        self._run(["report", str(self.out)])
        return self.out

    def units(self) -> int:
        # What score_cli_outputs counts: one isav and one rl verdict per
        # pair, one reach verdict per target, one discovery unit per prefix.
        lines = {name: len((self.out / name).read_text().splitlines())
                 for name in ("pairs.jsonl", "targets.txt", "prefixes.txt")}
        return 2 * lines["pairs.jsonl"] + lines["targets.txt"] + lines["prefixes.txt"]

    def score(self, result) -> Score:
        return score_cli_outputs(result, pair_cap=50)

    def digest(self, result) -> str:
        return _digest(f"{name}\n{(result / name).read_text()}" for name in VERDICT_FILES)


WORKLOADS = {
    w.name: w for w in (ReachWorkload, IsavWorkload, DiscoveryWorkload, CliPipelineWorkload)
}

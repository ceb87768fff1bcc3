"""Campaign orchestration CLI.

Subcommands: simulate | discover | isav | reach | rl-classify | report.
Configuration comes from an optional JSON file plus flag overrides. Every
step opens the same way (``_open_step``: config, checked once against one
table that gives every key its kind, output directory, seed) and reads each
setting through one lookup (``_setting``). A relative path resolves against
its config file's directory, or for a flag the working directory. ``isav``
and ``reach`` record their verdicts through one resumable writer
(``_record_verdicts``), so ``--resume`` skips the units already in the
verdict file and the summary tables cover the whole file. Runs on the
simulated backend reproduce byte for byte under a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from ipaddress import IPv6Network
from pathlib import Path

from icmpscope import fileio
from icmpscope.discovery import CAP_FLOORS, DiscoveryCaps, run_discovery
from icmpscope.isav import (
    IsavCategory,
    aggregate_as,
    run_isav_campaign,
    run_supplemental_echo,
    select_rvp,
)
from icmpscope.model import PARAM_FLOORS, MeasurementParams, parse_address, parse_prefix
from icmpscope.ratelimit import MeasureTarget, classify_limiters, run_phased
from icmpscope.reach import ReachCategory, ReachVerdict, evaluate, run_reach_campaign
from icmpscope.simnet.config import SimConfig, oracle_rl_class
from icmpscope.simnet import scenarios
from icmpscope.transport import RawTransport, SimTransport, TransportError

EVAL_LAMBDAS = [0.5, 0.6, 0.7, 0.8, 0.9]

_PARAM_KINDS = {"n_probe": int, "m_noise": int, "lambda": float, "repeats": int, "receive_window_ms": int}
# Every key a config file may hold, by its kind: int, float, str, Path (a
# relative path is joined onto the config file's directory) or a tuple of
# choices. A nested table is a section.
_CONFIG_KEYS = {
    "backend": ("sim", "raw"),
    "sim_config": Path,
    "out_dir": Path,
    "seed": int,
    "interface": str,
    "source_address": str,
    "params": _PARAM_KINDS,
    "isav": {**_PARAM_KINDS, "rvp_candidates": int},
    "reach": {**_PARAM_KINDS, "rvp_count": int},
    "rl_classify": _PARAM_KINDS,
    "discovery": {"pair_cap": int, "probe_cap": int},
    "inputs": dict.fromkeys(("pairs", "prefixes", "as_map", "coords", "targets", "proxy_rvps",
                             "reach_truth", "hitlist", "isav_truth", "rl_truth"), Path),
}
_RVP_LEAST = {"rvp_candidates": 1, "rvp_count": 1}  # the counts no dataclass checks
_LEAST = {**PARAM_FLOORS, **CAP_FLOORS, **_RVP_LEAST}  # each count's floor in a config file
# The JSON types each scalar kind takes, matched by ``type()``: a JSON true is a
# bool, and a bool is no int.
_KIND_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), Path: ((str,), "a path string")}


class CliError(Exception):
    """Configuration or input problem; maps to a nonzero exit."""


def _checked(value, kind, key: str, path: str, base: Path):
    """``value`` if it is of ``kind``, a relative path joined onto ``base``;
    ``key`` is its dotted name in the config file at ``path`` (empty for the
    whole file)."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            what = f"'{key}' must be a JSON object" if key else "expected a JSON object"
            raise CliError(f"config file {path}: {what}")
        checked = {}
        for sub, item in value.items():
            dotted = f"{key}.{sub}" if key else sub
            if sub not in kind:
                raise CliError(f"config file {path}: unknown key '{dotted}'")
            checked[sub] = _checked(item, kind[sub], dotted, path, base)
        return checked
    if isinstance(kind, tuple):
        if value in kind:
            return value
        wanted = "one of " + ", ".join(map(json.dumps, kind))
    else:
        types, wanted = _KIND_TYPES[kind]
        if type(value) in types:
            least = _LEAST.get(key.rpartition(".")[2]) if kind is int else None
            if least is None or value >= least:
                return base / value if kind is Path else value
            wanted = f"at least {least}"
    raise CliError(f"config file {path}: '{key}' must be {wanted}, got {json.dumps(value)}")


def _load_config(path: str | None) -> dict:
    """The config file at ``path`` (none: empty), checked against ``_CONFIG_KEYS``."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise CliError(f"config file not found: {path}")
    try:
        config = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path}: not valid JSON: {exc}") from exc
    return _checked(config, _CONFIG_KEYS, "", path, p.parent)


def _setting(config: dict, args: argparse.Namespace, key: str, section: str | None = None, default=None):
    """The flag for ``key``, else the config's ``section``, else ``params`` for
    a measurement parameter, else the config's top level, else ``default``."""
    value = getattr(args, key, None)
    if value is None:
        scopes = (config.get(section, {}), config.get("params", {}) if key in _PARAM_KINDS else {}, config)
        return next((scope[key] for scope in scopes if key in scope), default)
    if key in _RVP_LEAST and value < _RVP_LEAST[key]:
        raise CliError(f"--{key.replace('_', '-')} must be at least {_RVP_LEAST[key]}, got {value}")
    return value


def _build_params(config: dict, args: argparse.Namespace, section: str, **defaults) -> MeasurementParams:
    """The step's measurement parameters: one that no flag or config key sets
    takes the step's ``defaults``, else ``MeasurementParams``' own."""
    for key in _PARAM_KINDS:
        value = _setting(config, args, key, section)
        if value is not None:
            defaults["lam" if key == "lambda" else key] = value
    try:
        return MeasurementParams(**defaults)
    except ValueError as exc:
        raise CliError(f"invalid measurement parameters: {exc}") from exc


def _input_path(config: dict, args: argparse.Namespace, name: str, required: bool) -> Path | None:
    value = _setting(config, args, name, "inputs")
    if value is None:
        if required:
            raise CliError(f"missing required input: {name}")
        return None
    path = Path(value)
    if not path.is_file():
        raise CliError(f"input file not found: {path}")
    return path


def _make_transport(config: dict, args: argparse.Namespace):
    if _setting(config, args, "backend", default="sim") == "raw":
        # Spoofed traffic is inherent to these measurements, so a raw run is
        # refused outright without the explicit acknowledgment flag.
        if not getattr(args, "acknowledge_spoofing", False):
            raise CliError(
                "raw backend emits spoofed packets; pass --acknowledge-spoofing "
                "to confirm you are authorized to do that"
            )
        interface = _setting(config, args, "interface")
        source = _setting(config, args, "source_address")
        if interface is None or source is None:
            raise CliError("raw backend needs an interface and a source address")
        return RawTransport(interface, parse_address(source), allow_spoofing=True)
    sim_path = _setting(config, args, "sim_config")
    if sim_path is None:
        raise CliError("sim backend needs --sim-config (or 'sim_config' in the config file)")
    if not Path(sim_path).is_file():
        raise CliError(f"sim config not found: {sim_path}")
    return SimTransport(SimConfig.load(sim_path))


def _open_step(args: argparse.Namespace):
    """``(config, out, seed)``: what every step opens with, in this order, so
    the same bad input always gives the same first error."""
    config = _load_config(args.config)
    out = Path(_setting(config, args, "out_dir", default="out"))
    out.mkdir(parents=True, exist_ok=True)
    return config, out, _setting(config, args, "seed", default=0)


def _record_verdicts(path: Path, key: str, resume: bool, measure) -> list[dict]:
    """Append the records ``measure(done)`` returns to the verdict file at
    ``path`` and return every record in the file.

    ``done`` holds the ``key`` of each record already in the file when
    resuming; otherwise it is empty and the file starts over.
    """
    done = {r[key] for r in fileio.read_jsonl(path)} if resume and path.is_file() else set()
    if not resume:
        path.unlink(missing_ok=True)
    for record in measure(done):
        fileio.append_jsonl(path, record)
    return list(fileio.read_jsonl(path)) if path.is_file() else []


def _containing_48(addr) -> "IPv6Network":
    return IPv6Network((int(addr) & ~((1 << 80) - 1), 48))


# -- simulate ------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    _config, out, seed = _open_step(args)
    loss = args.loss if args.loss is not None else 0.0
    jitter = args.jitter if args.jitter is not None else 0.0
    for flag, value, least in (("--count", args.count, 1), ("--cut", args.cut, 0)):
        if value is not None and value < least:
            raise CliError(f"{flag} must be at least {least}, got {value}")

    def count(default: int) -> int:
        return args.count if args.count is not None else default

    if args.preset == "demo":
        bundle = scenarios.build_demo(seed, loss=loss, jitter=jitter)
    elif args.preset == "isav":
        bundle = scenarios.build_isav_population(count(200), seed, loss=loss, jitter=jitter)
    elif args.preset == "rl":
        bundle = scenarios.build_rl_population(count(100), seed, loss=loss, jitter=jitter)
    elif args.preset == "reach":
        cut = args.cut if args.cut is not None else 149
        bundle = scenarios.build_reach_population(count(1000), cut, seed, loss=loss, jitter=jitter)
    elif args.preset == "discovery":
        bundle = scenarios.build_discovery_demo(seed)
    elif args.preset == "supplemental":
        bundle = scenarios.build_supplemental_demo(count(4), seed)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown preset {args.preset}")

    bundle.cfg.save(out / "simconfig.json")
    campaign: dict = {
        "backend": "sim",
        "seed": seed,
        "out_dir": ".",
        "sim_config": "simconfig.json",
        "inputs": {},
    }

    rvp_pairs: dict = {}
    for pair in bundle.proxy_rvps:
        rvp_pairs.setdefault(_containing_48(pair.target), []).append(pair)
    hitlist = [{"prefix": str(p), "address": str(a)} for p, addrs in bundle.hitlist.items() for a in addrs]
    isav_truth = {r.served_prefix: r.isav_ingress for r in bundle.cfg.routers}
    rl_truth = {
        r.address: oracle_rl_class(bundle.cfg, r.address, r.error_kind).value
        for r in bundle.cfg.routers
    }
    for name, filename, data, write in (
        ("pairs", "pairs.jsonl", bundle.pairs, fileio.write_pairs),
        ("prefixes", "prefixes.txt", bundle.scan_prefixes, fileio.write_prefix_list),
        ("as_map", "as_map.txt", bundle.as_map, fileio.write_as_map),
        ("coords", "coords.jsonl", bundle.coords, fileio.write_coords),
        ("targets", "targets.txt", bundle.reach_targets, fileio.write_address_list),
        ("proxy_rvps", "proxy_rvps.jsonl", rvp_pairs, fileio.write_pairs),
        ("reach_truth", "truth_reach.jsonl", bundle.reach_truth, fileio.write_reach_truth),
        ("hitlist", "hitlist.jsonl", hitlist, fileio.write_jsonl),
        ("isav_truth", "truth_isav.jsonl", isav_truth, fileio.write_isav_truth),
        ("rl_truth", "truth_rl.jsonl", rl_truth, fileio.write_rl_truth),
    ):
        if data:
            write(out / filename, data)
            campaign["inputs"][name] = filename

    (out / "campaign.json").write_text(json.dumps(campaign, indent=2, sort_keys=True) + "\n")
    print(f"scenario '{args.preset}' written to {out}")
    print(f"  routers={len(bundle.cfg.routers)} hosts={len(bundle.cfg.hosts)} "
          f"links={len(bundle.cfg.links)} cuts={len(bundle.cfg.unreachable_pairs)}")
    print(f"  campaign config: {out / 'campaign.json'}")
    return 0


# -- discover ------------------------------------------------------------


def cmd_discover(args: argparse.Namespace) -> int:
    config, out, seed = _open_step(args)
    transport = _make_transport(config, args)
    prefixes = fileio.read_prefix_list(_input_path(config, args, "prefixes", required=True))
    if not prefixes:
        raise CliError("prefix list is empty")
    given = {key: _setting(config, args, key, "discovery") for key in ("pair_cap", "probe_cap")}
    caps = DiscoveryCaps(**{key: value for key, value in given.items() if value is not None})

    result = run_discovery(prefixes, caps, transport, seed)
    fileio.write_pairs(out / "discovered_pairs.jsonl", result.pairs)
    fileio.write_tsv(
        out / "discovery_summary.tsv",
        ["prefix", "sent", "pairs", "done"],
        (
            (prefix, st.sent, len(st.pairs_found), st.done)
            for prefix, st in result.states.items()
        ),
    )
    total = sum(len(v) for v in result.pairs.values())
    print(f"discovered {total} data pairs across {len(prefixes)} prefixes"
          + (" (aborted, partial results)" if result.aborted else ""))
    print(f"  pairs: {out / 'discovered_pairs.jsonl'}")
    return 1 if result.aborted else 0


# -- isav ----------------------------------------------------------------


def _isav_verdict_record(prefix, triple, verdict) -> dict:
    return {
        "prefix": str(prefix),
        "avg1": triple.avg1,
        "avg2": triple.avg2,
        "avg3": triple.avg3,
        "verdict": verdict.category.value,
        "rule": verdict.rule,
        "ratio_3_to_1": verdict.ratio_3_to_1,
        "ratio_2_to_3": verdict.ratio_2_to_3,
        "k": len(triple.samples1),
        "mode_consistency": triple.mode_consistency,
    }


def cmd_isav(args: argparse.Namespace) -> int:
    config, out, seed = _open_step(args)
    transport = _make_transport(config, args)
    params = _build_params(config, args, "isav")
    # The supplemental pass can start from the hitlist alone.
    pairs_path = _input_path(config, args, "pairs", required=not args.supplemental)
    pairs = fileio.read_pairs(pairs_path) if pairs_path is not None else {}
    candidates_per_prefix = _setting(config, args, "rvp_candidates", "isav", default=3)
    hitlist_path = _input_path(config, args, "hitlist", required=False) if args.supplemental else None
    hitlist = fileio.read_hitlist(hitlist_path) if hitlist_path is not None else {}

    def measure(done: set[str]):
        # One no-noise burst per candidate pair, prefix by prefix, scores the RVPs.
        candidates = [
            (prefix, pair)
            for prefix, plist in pairs.items()
            if str(prefix) not in done
            for pair in plist[:candidates_per_prefix]
        ]

        def burst_for(candidate, _phase):
            return MeasureTarget.from_pair(candidate[1]), params.n_probe, None

        scored: dict = {}
        bursts = run_phased(candidates, (1,), 1, burst_for, transport, params.receive_window_ms)
        for (prefix, pair), _phase, sample in bursts:
            scored.setdefault(prefix, []).append((pair, float(sample.rcv)))
        prefix_rvps = {prefix: select_rvp(scores, params.n_probe) for prefix, scores in scored.items()}

        campaign = run_isav_campaign(
            prefix_rvps, params, transport, transport.source_address, seed=seed
        )
        results = dict(campaign.results)

        if args.supplemental:
            uncertain = {
                prefix: prefix_rvps.get(prefix)
                for prefix, (_t, v) in results.items()
                if v.category is IsavCategory.UNCERTAIN
            }
            # Prefixes that never produced a data pair are undecidable by the
            # error-based campaign; the hitlist is their only way in.
            for prefix in hitlist:
                if prefix not in results and prefix not in pairs and str(prefix) not in done:
                    uncertain[prefix] = None
            if uncertain:
                updates = run_supplemental_echo(
                    uncertain, hitlist, params, transport, transport.source_address, seed=seed
                )
                results.update(updates)

        return (_isav_verdict_record(prefix, triple, verdict) for prefix, (triple, verdict) in results.items())

    verdict_path = out / "isav_verdicts.jsonl"
    records = _record_verdicts(verdict_path, "prefix", args.resume, measure)
    # Summaries cover every recorded prefix, including those a resumed run skipped.
    categories = {parse_prefix(record["prefix"]): IsavCategory(record["verdict"]) for record in records}
    counts = {c: sum(1 for v in categories.values() if v is c) for c in IsavCategory}
    decided = counts[IsavCategory.VULNERABLE] + counts[IsavCategory.DEPLOYED]
    rows = []
    for cat in (IsavCategory.VULNERABLE, IsavCategory.DEPLOYED):
        pct = 100.0 * counts[cat] / decided if decided else 0.0
        rows.append((cat.value, counts[cat], f"{pct:.2f}%"))
    rows.append((IsavCategory.UNCERTAIN.value, counts[IsavCategory.UNCERTAIN], ""))
    rows.append(("total", len(categories), ""))
    fileio.write_tsv(out / "isav_prefix_summary.tsv", ["category", "prefixes", "pct_of_decided"], rows)

    as_map_path = _input_path(config, args, "as_map", required=False)
    if as_map_path is not None:
        as_map = fileio.read_as_map(as_map_path)
        mapped = {p: c for p, c in categories.items() if p in as_map}
        skipped = len(categories) - len(mapped)
        if skipped:
            print(f"  note: {skipped} prefixes missing from the AS map were not aggregated")
        as_verdicts = aggregate_as(mapped, as_map)
        as_counts: dict[str, int] = {}
        for verdict in as_verdicts.values():
            as_counts[verdict.category.value] = as_counts.get(verdict.category.value, 0) + 1
        total_as = len(as_verdicts)
        fileio.write_tsv(
            out / "isav_as_summary.tsv",
            ["category", "ases", "pct"],
            [
                (
                    name,
                    as_counts.get(name, 0),
                    f"{100.0 * as_counts.get(name, 0) / total_as:.2f}%" if total_as else "",
                )
                for name in ("vulnerable", "deployed", "inconsistent")
            ]
            + [("total", total_as, "")],
        )

    print(f"isav: {len(categories)} prefixes -> "
          + ", ".join(f"{c.value}={counts[c]}" for c in IsavCategory))
    print(f"  verdicts: {verdict_path}")
    return 0


# -- reach ----------------------------------------------------------------


def cmd_reach(args: argparse.Namespace) -> int:
    config, out, seed = _open_step(args)
    transport = _make_transport(config, args)
    params = _build_params(config, args, "reach", repeats=6, lam=0.7)

    targets = fileio.read_address_list(_input_path(config, args, "targets", required=True))
    rvp_path = _input_path(config, args, "proxy_rvps", required=False)
    if rvp_path is None:
        rvp_path = _input_path(config, args, "pairs", required=True)
    pairs = fileio.read_pairs(rvp_path)
    all_pairs = [pair for plist in pairs.values() for pair in plist]
    proxy_rvps = all_pairs[:_setting(config, args, "rvp_count", "reach", default=3)]
    if not proxy_rvps:
        raise CliError("pairs file holds no usable proxy RVPs")
    geo = fileio.read_coords(_input_path(config, args, "coords", required=True))

    def measure(done: set[str]):
        pending = [t for t in targets if str(t) not in done]
        result = run_reach_campaign(pending, proxy_rvps, params, transport, geo=geo, seed=seed)
        return (
            {
                "target": str(target),
                "avg1": record.verdict.avg1,
                "avg2": record.verdict.avg2,
                "ratio": record.verdict.ratio,
                "verdict": record.verdict.category.value,
                "k": record.verdict.k,
            }
            for target, record in result.records.items()
        )

    verdict_path = out / "reach_verdicts.jsonl"
    # Counts and scores cover every recorded target, including those a resumed run skipped.
    verdicts = {
        parse_address(r["target"]): ReachVerdict(
            ReachCategory(r["verdict"]), r["ratio"], r["avg1"], r["avg2"], r["k"]
        )
        for r in _record_verdicts(verdict_path, "target", args.resume, measure)
    }
    counts: dict[str, int] = {}
    for v in verdicts.values():
        counts[v.category.value] = counts.get(v.category.value, 0) + 1
    print("reach: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))

    truth_path = _input_path(config, args, "reach_truth", required=False)
    if truth_path is not None:
        truth = fileio.read_reach_truth(truth_path)
        scorable = {t: v for t, v in truth.items() if t in verdicts}
        report = evaluate(verdicts, scorable, EVAL_LAMBDAS, primary_lam=params.lam)
        fileio.write_tsv(
            out / "reach_eval.tsv",
            ["lambda", "precision", "recall", "accuracy", "f_score"],
            (
                (m.lam, f"{m.precision:.3f}", f"{m.recall:.3f}", f"{m.accuracy:.3f}", f"{m.f_score:.3f}")
                for m in report.per_lambda
            ),
        )
        fileio.write_tsv(
            out / "reach_roc.tsv",
            ["fpr", "tpr"],
            ((f"{x:.6f}", f"{y:.6f}") for x, y in report.roc_points),
        )
        print(
            f"  eval @ lambda={params.lam}: precision={report.precision:.3f} "
            f"recall={report.recall:.3f} accuracy={report.accuracy:.3f} auc={report.auc:.3f}"
        )
    print(f"  verdicts: {verdict_path}")
    return 0


# -- rl-classify -----------------------------------------------------------


def cmd_rl_classify(args: argparse.Namespace) -> int:
    config, out, seed = _open_step(args)
    transport = _make_transport(config, args)
    params = _build_params(config, args, "rl_classify", repeats=1)
    pairs = fileio.read_pairs(_input_path(config, args, "pairs", required=True))
    flat = [pair for plist in pairs.values() for pair in plist]

    records = []
    class_counts: dict[str, dict[str, int]] = {}
    for pair, (avg1, avg2, cls) in zip(flat, classify_limiters(flat, params, transport, seed=seed)):
        kind = pair.error_kind.value
        records.append(
            {
                "address": str(pair.periphery),
                "target": str(pair.target),
                "kind": kind,
                "rcv1_avg": avg1,
                "rcv2_avg": avg2,
                "n": params.n_probe,
                "classification": cls.value,
            }
        )
        class_counts.setdefault(kind, {}).setdefault(cls.value, 0)
        class_counts[kind][cls.value] += 1

    fileio.write_jsonl(out / "rl_classes.jsonl", records)
    rows = []
    for kind, counts in sorted(class_counts.items()):
        total = sum(counts.values())
        for name in ("global", "strict", "loose", "unclassified"):
            c = counts.get(name, 0)
            rows.append((kind, name, c, f"{100.0 * c / total:.2f}%"))
    fileio.write_tsv(out / "rl_summary.tsv", ["kind", "classification", "count", "pct"], rows)
    print(f"rl-classify: {len(records)} targets")
    for row in rows:
        print("  " + "\t".join(str(c) for c in row))
    return 0


# -- report -----------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.results_dir)
    if not out.is_dir():
        raise CliError(f"results directory not found: {out}")
    found = False

    for name, title in (("isav_verdicts.jsonl", "ISAV"), ("reach_verdicts.jsonl", "Reachability")):
        path = out / name
        if path.is_file():
            found = True
            counts: dict[str, int] = {}
            for record in fileio.read_jsonl(path):
                counts[record["verdict"]] = counts.get(record["verdict"], 0) + 1
            print(f"{title} verdicts:")
            for verdict, count in sorted(counts.items()):
                print(f"  {verdict}: {count}")

    for table in ("reach_eval.tsv", "rl_summary.tsv", "isav_as_summary.tsv",
                  "isav_prefix_summary.tsv", "discovery_summary.tsv"):
        path = out / table
        if path.is_file():
            found = True
            print(f"{table}:")
            for line in path.read_text().splitlines():
                print("  " + line)

    if not found:
        raise CliError(f"no campaign outputs found in {out}")
    return 0


# -- entry point -------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON campaign config file")
    parser.add_argument("--seed", type=int, help="campaign seed")
    parser.add_argument("--backend", choices=["sim", "raw"], help="packet substrate")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--sim-config", dest="sim_config", help="simulated world JSON")
    parser.add_argument(
        "--acknowledge-spoofing",
        action="store_true",
        help="required to run the raw backend, which emits spoofed packets",
    )


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-probe", dest="n_probe", type=int)
    parser.add_argument("--m-noise", dest="m_noise", type=int)
    parser.add_argument("--lambda", dest="lambda", type=float)
    parser.add_argument("--repeats", dest="repeats", type=int)
    parser.add_argument("--window-ms", dest="receive_window_ms", type=int)


@functools.cache  # a parser is a web of reference cycles: build one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmpscope",
        description="ICMP rate-limiting side-channel measurements over a simulated IPv6 internet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario and its ground truth files")
    _add_common(p)
    p.add_argument("--preset", choices=["demo", "isav", "rl", "reach", "discovery", "supplemental"],
                   default="demo")
    p.add_argument("--count", type=int, help="population size (meaning depends on preset)")
    p.add_argument("--cut", type=int, help="unconnected targets (reach preset)")
    p.add_argument("--loss", type=float, help="per-link loss probability")
    p.add_argument("--jitter", type=float, help="per-link jitter fraction")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("discover", help="find data pairs across announced prefixes")
    _add_common(p)
    p.add_argument("--prefixes", help="prefix list file (one CIDR per line)")
    p.add_argument("--pair-cap", dest="pair_cap", type=int)
    p.add_argument("--probe-cap", dest="probe_cap", type=int)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("isav", help="infer inbound source address validation per prefix")
    _add_common(p)
    _add_params(p)
    p.add_argument("--pairs", help="data-pair file")
    p.add_argument("--as-map", dest="as_map", help="prefix to AS number map")
    p.add_argument("--supplemental", action="store_true",
                   help="retry uncertain prefixes through echo-reply limiting")
    p.add_argument("--hitlist", help="extra responder addresses for the supplemental pass")
    p.add_argument("--rvp-candidates", dest="rvp_candidates", type=int)
    p.add_argument("--resume", action="store_true",
                   help="skip prefixes already in isav_verdicts.jsonl")
    p.set_defaults(func=cmd_isav)

    p = sub.add_parser("reach", help="infer reachability between targets and the RVP site")
    _add_common(p)
    _add_params(p)
    p.add_argument("--targets", help="target address list")
    p.add_argument("--pairs", help="data-pair file supplying proxy RVPs")
    p.add_argument("--coords", help="coordinates file")
    p.add_argument("--reach-truth", dest="reach_truth", help="ground truth for evaluation")
    p.add_argument("--rvp-count", dest="rvp_count", type=int)
    p.add_argument("--resume", action="store_true",
                   help="skip targets already in reach_verdicts.jsonl")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("rl-classify", help="classify rate-limiter implementations")
    _add_common(p)
    _add_params(p)
    p.add_argument("--pairs", help="data-pair file")
    p.set_defaults(func=cmd_rl_classify)

    p = sub.add_parser("report", help="summarize campaign outputs in a directory")
    p.add_argument("results_dir")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, TransportError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

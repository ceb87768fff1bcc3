"""icmpscope benchmark: campaign workloads on the simulated internet.

Usage (from the repository root):

    python3 perfbench/run.py --workload reach --seed 77 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Every campaign runs in its own fresh worker process (``worker.py``), one after
another: a single closed-loop caller with no threads, where each engine waits
for ``SimTransport.execute`` to return before it sends its next burst.

``--trace 0`` keeps starting campaign workers until ``--seconds`` have passed
(at least ``MIN_CAMPAIGNS``), then set-up-only workers until there are
``MIN_SETUPS`` set-up samples, and reports the end-to-end metrics.
``--trace 1`` runs the workload twice, untraced and traced; it checks that
the deterministic counts agree between the two and reports the per-layer
metrics and the tracing overhead.

Verdicts are scored against the simulator's oracles in every campaign. A
campaign that breaks its acceptance thresholds, or whose verdict digest
differs from another campaign of the same invocation, makes the run
incorrect. Digests are not kept across invocations, so a program change that
alters verdict output while passing every oracle gate stays correct. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("reach", "isav", "discovery", "cli_pipeline")
MIN_CAMPAIGNS = 2
MIN_SETUPS = 9
RUN_LIMIT_S = 150  # stop starting workers after this, to end well inside 180 s

# name -> (unit, better); the end-to-end metrics reported with --trace 0.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sim_pps": ("1/s", "higher"),
    "burst_ms.mean": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "rss_growth_mb": ("MB", "lower"),
    "probes_sent": ("count", "lower"),
}
# Printed with the end-to-end table and recorded, but not in the result
# line, which bounds every metric by a share of its median. The burst
# percentiles fall between clusters of burst kinds (p50 on cli_pipeline,
# p99 on reach and isav) and moved by 9-30% between runs (see README.md);
# sim_s is the same for every isav seed; fail_ratio is exactly 0 on most
# workloads and is enforced by the gate instead.
UNBOUNDED = {"burst_ms.p50": "ms", "burst_ms.p99": "ms", "sim_s": "s", "fail_ratio": "ratio"}


# name -> unit, layer by layer; the per-layer metrics reported with --trace 1.
PER_LAYER = {
    "world.inject.calls": "count",
    "world.inject.self_s": "s",
    "world.run_until.calls": "count",
    "world.run_until.self_s": "s",
    "world.packets": "count",
    "world.events": "count",
    "world.delivery_ratio": "ratio",
    "world.observations": "count",
    "limiter.token_bucket.calls": "count",
    "limiter.token_bucket.ns_per_call": "ns",
    "limiter.strict_single.calls": "count",
    "limiter.strict_single.ns_per_call": "ns",
    "limiter.unlimited.calls": "count",
    "limiter.unlimited.ns_per_call": "ns",
    "limiter.grant_ratio": "ratio",
    "transport.execute.calls": "count",
    "transport.execute.self_s": "s",
    "transport.execute.packets_per_call": "count",
    "transport.rate_cap.s": "s",
    "transport.sendplan.s": "s",
    "transport.filter.calls": "count",
    "transport.filter.s": "s",
    "transport.filter.pass_ratio": "ratio",
    "transport.wait.calls": "count",
    "transport.wait.self_s": "s",
    "transport.wait.sim_s": "s",
    "ratelimit.measure_rcv.calls": "count",
    "ratelimit.measure_rcv.self_s": "s",
    "reach.protocol.calls": "count",
    "reach.protocol.self_s": "s",
    "reach.campaign.self_s": "s",
    "isav.campaign.self_s": "s",
    "discovery.campaign.self_s": "s",
    "discovery.generate_targets.calls": "count",
    "discovery.generate_targets.self_s": "s",
    "discovery.permutation.values_per_s": "1/s",
    "discovery.pairs_per_probe": "ratio",
    "fileio.read.s": "s",
    "fileio.write.s": "s",
    "fileio.records": "count",
    "fileio.bytes": "bytes",
    "config.validate.s": "s",
    "config.save.s": "s",
    "config.load.s": "s",
    "scenarios.build.s": "s",
    "cli.simulate.s": "s",
    "cli.discover.s": "s",
    "cli.isav.s": "s",
    "cli.reach.s": "s",
    "cli.rl-classify.s": "s",
    "cli.report.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "engine.self_s": "s",
}
# Host times of layers that some workload never calls (and the simulated
# wait time, which isav and discovery never spend) read exactly 0 on every
# traced run of that workload. They are printed and recorded but left out of
# the result line; engine.self_s, the engines' self time summed, stands in
# for the per-engine times there.
SOMETIMES_ZERO = {
    "limiter.strict_single.ns_per_call", "limiter.unlimited.ns_per_call",
    "transport.wait.self_s", "transport.wait.sim_s", "ratelimit.measure_rcv.self_s",
    "reach.protocol.self_s", "reach.campaign.self_s", "isav.campaign.self_s",
    "discovery.campaign.self_s", "discovery.generate_targets.self_s", "fileio.read.s",
    "fileio.write.s", "config.save.s", "config.load.s", "cli.simulate.s", "cli.discover.s",
    "cli.isav.s", "cli.reach.s", "cli.rl-classify.s", "cli.report.s",
}
RESULT_LAYER = {name: unit for name, unit in PER_LAYER.items() if name not in SOMETIMES_ZERO}


class HarnessError(Exception):
    """A worker crashed or timed out, so the run has no result."""


# -- environment stamp -----------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
    }


# -- statistics --------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count (quartiles as statistics.quantiles)."""
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(pct / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


# -- workers -----------------------------------------------------------------


def spawn(workload: str, mode: str, args: argparse.Namespace, workdir: Path,
          deadline: float, spans: Path | None = None) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", mode,
           "--scale", args.scale, "--workdir", str(workdir)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    # Workers load byte code cached in the checkout, as an installed package
    # would, whatever the caller's environment says; the first one writes it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
                              env=env)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} {mode} worker exceeded {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_repeats(runs: list[dict]) -> list[str]:
    """The campaigns of one invocation share workload, seed and parameters,
    so their verdict digests and deterministic counts must be equal."""
    problems = []
    digests = {r["digest"] for r in runs if r.get("digest")}
    if len(digests) > 1:
        problems.append(f"verdict digests differ between same-seed campaigns: {sorted(digests)}")
    for key in runs[0]["totals"]:
        values = [r["totals"][key] for r in runs]
        if len(set(values)) > 1:
            problems.append(f"{key} differs between same-seed campaigns: {values}")
    return problems


# -- the two kinds of run ------------------------------------------------------


def run_untraced(workload: str, args: argparse.Namespace, deadline: float) -> dict:
    start = time.monotonic()
    campaigns: list[dict] = []
    while len(campaigns) < MIN_CAMPAIGNS or time.monotonic() - start < args.seconds:
        if time.monotonic() - start > RUN_LIMIT_S and campaigns:
            break
        campaigns.append(spawn(workload, "campaign", args, STATE / f"work-{os.getpid()}", deadline))
    setups = [c["setup_s"] for c in campaigns]
    while len(setups) < MIN_SETUPS and time.monotonic() - start < RUN_LIMIT_S:
        setups.append(spawn(workload, "setup", args, STATE / f"work-{os.getpid()}", deadline)["setup_s"])

    problems = check_repeats(campaigns)
    good = [c for c in campaigns if c["gate_ok"]]
    failed = len(campaigns) - len(good)
    if failed:
        problems.append(f"{failed} campaign(s) broke the acceptance gate: "
                        + "; ".join(json.dumps(c["gate_detail"]) for c in campaigns if not c["gate_ok"]))
    timed = good or campaigns  # a failed campaign is not timed, unless nothing else is
    samples = {
        "wall_s": [c["wall_s"] for c in timed],
        "setup_s": setups,
        "sim_pps": [c["totals"]["world_packets"] / c["wall_s"] for c in timed],
        "peak_rss_mb": [c["peak_rss_kb"] / 1024 for c in timed],
        "rss_growth_mb": [(c["peak_rss_kb"] - c["setup_rss_kb"]) / 1024 for c in timed],
        "probes_sent": [c["totals"]["probes_sent"] for c in timed],
        "sim_s": [c["totals"]["sim_s"] for c in timed],
        "fail_ratio": [c["fails"] / c["units"] for c in campaigns],
        # Burst statistics are taken per campaign (thousands of bursts each),
        # then the median across campaigns, so one disturbed campaign cannot
        # move them.
        "burst_ms.mean": [sum(c["bursts_ms"]) / len(c["bursts_ms"]) for c in timed],
        "burst_ms.p50": [percentile(c["bursts_ms"], 50) for c in timed],
        "burst_ms.p99": [percentile(c["bursts_ms"], 99) for c in timed],
    }
    stats = {name: summary(vals) for name, vals in samples.items()}
    for name in ("burst_ms.mean", "burst_ms.p50", "burst_ms.p99"):
        stats[name]["bursts"] = sum(len(c["bursts_ms"]) for c in timed)
    return {
        "workload": workload,
        "seed": campaigns[0]["seed"],
        "params": campaigns[0]["params"],
        "stats": stats,
        "gate": campaigns[0]["gate_detail"],
        "units": campaigns[0]["units"],
        "problems": problems,
        "attempted": len(campaigns),
        "failed": failed,
        "metrics": {name: stats[name]["median"] for name in END_TO_END},
    }


def run_traced(workload: str, args: argparse.Namespace, deadline: float) -> dict:
    work = STATE / f"work-{os.getpid()}"
    spans = STATE / f"spans-{workload}-{args.seed if args.seed is not None else 'default'}.jsonl"
    plain = spawn(workload, "campaign", args, work, deadline)
    traced = spawn(workload, "traced", args, work, deadline, spans=spans)
    runs = {"untraced": plain, "traced": traced}

    # check_repeats compares the meter's counts, which both runs carry; the
    # tracer's own limiter counts are checked against them too.
    problems = check_repeats(list(runs.values()))
    checks = {key: {label: r["totals"][key] for label, r in runs.items()}
              for key in plain["totals"]}
    for kind, n in traced["limiter_calls"].items():
        checks[f"limiter.{kind}.calls"]["tracer"] = n
        if n != plain["totals"][f"limiter.{kind}.calls"]:
            problems.append(f"the tracer counted {n} {kind} limiter calls, "
                            f"the untraced run {plain['totals'][f'limiter.{kind}.calls']}")
    failed = sum(not r["gate_ok"] for r in runs.values())
    if failed:
        problems.append(f"{failed} campaign(s) broke the acceptance gate")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / plain["wall_s"]
    return {
        "workload": workload,
        "seed": plain["seed"],
        "params": plain["params"],
        "checks": checks,
        "walls": {label: r["wall_s"] for label, r in runs.items()},
        "spans": str(spans.relative_to(ROOT)),
        "gate": plain["gate_detail"],
        "problems": problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


# -- output ------------------------------------------------------------------


def print_untraced(res: dict) -> None:
    print(f"== {res['workload']} (seed {res['seed']}, {res['attempted']} campaigns, "
          f"{res['units']} units) params {json.dumps(res['params'], sort_keys=True)}")
    print(f"   {'metric':<16}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>8}")
    units = {name: unit for name, (unit, _better) in END_TO_END.items()} | UNBOUNDED
    for name, unit in units.items():
        s = res["stats"][name]
        extra = f"  ({s['bursts']} bursts)" if "bursts" in s else ""
        print(f"   {name:<16}{unit:>7}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
              f"{s['n']:>8}{extra}")
    print(f"   gate: {json.dumps(res['gate'], sort_keys=True)}")


def print_traced(res: dict) -> None:
    print(f"== {res['workload']} traced (seed {res['seed']}) "
          f"params {json.dumps(res['params'], sort_keys=True)}")
    for name, unit in PER_LAYER.items():
        print(f"   {name:<38}{unit:>7}{res['metrics'][name]:>16.6g}")
    walls = res["walls"]
    print(f"   wall_s untraced {walls['untraced']:.4f}  traced {walls['traced']:.4f}")
    print("   deterministic counts (untraced / traced [/ tracer's own count]):")
    for key, values in res["checks"].items():
        print(f"     {key:<30} " + " / ".join(str(v) for v in values.values()))
    print(f"   spans: {res['spans']}")


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + 175
    if args.trace:
        res = run_traced(workload, args, deadline)
        print_traced(res)
        units = RESULT_LAYER
    else:
        res = run_untraced(workload, args, deadline)
        print_untraced(res)
        units = {name: unit for name, (unit, _better) in END_TO_END.items()}
    for problem in res["problems"]:
        print(f"   PROBLEM: {problem}")
    record = {**stamp(), "workload": workload, "seed": res["seed"], "params": res["params"],
              "trace": args.trace, "seconds": args.seconds, "scale": args.scale,
              "correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "stats": res.get("stats"), "checks": res.get("checks"),
              "metrics": res["metrics"]}
    print("RECORD " + json.dumps(record, sort_keys=True))
    res["result_metrics"] = {
        name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    return res


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="default: the workload's acceptance seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "icmpscope" / "__init__.py").is_file():
        print(f"error: the icmpscope sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    try:
        results = [run_workload(w, args)
                   for w in (WORKLOADS if args.workload == "all" else (args.workload,))]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["result_metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["result_metrics"].items()}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

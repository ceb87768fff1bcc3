"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from icmpscope.isav import IsavCategory  # noqa: E402
from icmpscope.model import DataPair  # noqa: E402
from icmpscope.reach import ReachCategory, ReachVerdict  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    score_cli_outputs,
    score_discovery,
    score_isav,
    score_reach,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def _record(proc: subprocess.CompletedProcess) -> dict:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("RECORD "))
    return json.loads(line[len("RECORD "):])


def test_metric_tables_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS) == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.RESULT_LAYER
    assert set(run.RESULT_LAYER) | run.SOMETIMES_ZERO == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_runs_tiny_and_prints_every_metric(workload):
    proc, result = _bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert result is not None, proc.stderr
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= run.MIN_CAMPAIGNS and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        # A tiny campaign may allocate nothing past its set-up peak.
        floor = 0 if m["name"] == "rss_growth_mb" else 1e-12
        assert result["metrics"][m["name"]]["value"] >= floor, m["name"]
    record = _record(proc)
    for key in ("git_sha", "python", "nproc", "numpy", "sympy", "seed", "params"):
        assert record[key] not in (None, ""), key
    assert record["seed"] == 3 and record["params"]["seed"] == 3


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_equal_untraced_counts(workload):
    proc, result = _bench("--workload", workload, "--trace", "1")
    assert result is not None, proc.stderr
    assert result["correct"] is True, proc.stdout
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    record = _record(proc)
    assert set(record["metrics"]) == set(run.PER_LAYER)
    checks = record["checks"]
    assert {"world_packets", "world_events", "probes_sent", "sim_s"} <= set(checks)
    assert any(key.startswith("limiter.") for key in checks)
    for key, values in checks.items():
        assert len(set(values.values())) == 1, (key, values)


def test_same_seed_campaigns_must_repeat_within_one_invocation():
    def campaign(digest, packets):
        return {"digest": digest, "totals": {"world_packets": packets, "sim_s": 1.5}}

    assert run.check_repeats([campaign("a", 10), campaign("a", 10)]) == []
    assert len(run.check_repeats([campaign("a", 10), campaign("b", 10)])) == 1
    assert len(run.check_repeats([campaign("a", 10), campaign("a", 11)])) == 1


def test_missing_program_exits_nonzero_without_a_result():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc, result = _bench("--workload", "isav", cwd=bare)
        assert proc.returncode != 0
        assert result is None and "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


# -- a deliberately wrong verdict raises fail_ratio ----------------------------


def _addr(i: int) -> IPv6Address:
    return IPv6Address(int(IPv6Address("2001:db8::")) | (i << 80) | 1)


def _net(i: int) -> IPv6Network:
    return IPv6Network((int(IPv6Address("2001:db8::")) | (i << 80), 48))


def test_wrong_reach_verdict_raises_fail_ratio():
    truth = {_addr(i): i % 4 == 0 for i in range(20)}

    def verdict(unconnected):
        cat = ReachCategory.UNCONNECTED if unconnected else ReachCategory.CONNECTED
        return ReachVerdict(cat, 0.9 if unconnected else 0.2, 10.0, 9.0 if unconnected else 2.0, 6)

    right = {t: verdict(u) for t, u in truth.items()}
    good = score_reach(right, truth)
    wrong = dict(right)
    wrong[_addr(1)] = verdict(True)
    bad = score_reach(wrong, truth)
    assert good.fail_ratio == 0 and good.gate_ok
    assert bad.fail_ratio == pytest.approx(1 / 20)


def test_wrong_isav_verdict_raises_fail_ratio_and_breaks_the_gate():
    truth = {_net(i): i % 2 == 0 for i in range(20)}
    right = {p: IsavCategory.DEPLOYED if d else IsavCategory.VULNERABLE for p, d in truth.items()}
    good = score_isav(right, truth)
    inverted = dict(right)
    inverted[_net(0)] = IsavCategory.VULNERABLE
    bad = score_isav(inverted, truth)
    assert good.fail_ratio == 0 and good.gate_ok
    assert bad.fail_ratio == pytest.approx(1 / 20) and not bad.gate_ok


def test_wrong_discovery_pair_raises_fail_ratio_and_breaks_the_gate():
    serving = {_net(i): _addr(i) for i in range(3)}
    silent = {_net(9)}
    pairs = {p: [DataPair(target=IPv6Address(int(p[0]) | 0xAB00 | k), periphery=r)
                 for k in range(5)] for p, r in serving.items()}
    good = score_discovery(pairs, serving, silent, pair_cap=5)
    wrong = dict(pairs)
    wrong[_net(1)] = pairs[_net(1)][:4] + [DataPair(target=_addr(1), periphery=_addr(2))]
    bad = score_discovery(wrong, serving, silent, pair_cap=5)
    assert good.fail_ratio == 0 and good.gate_ok
    assert bad.fail_ratio == pytest.approx(1 / 4) and not bad.gate_ok


def test_wrong_cli_verdict_raises_fail_ratio_and_breaks_the_gate():
    out = ROOT / ".perfbench" / "score-cli"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    def jsonl(name, records):
        (out / name).write_text("".join(json.dumps(r) + "\n" for r in records))

    try:
        jsonl("truth_isav.jsonl", [{"prefix": str(_net(0)), "isav_deployed": True}])
        jsonl("truth_reach.jsonl", [{"target": str(_addr(5)), "unconnected": False}])
        jsonl("truth_rl.jsonl", [{"address": str(_addr(0)), "classification": "global"}])
        jsonl("reach_verdicts.jsonl", [{"target": str(_addr(5)), "verdict": "connected"}])
        jsonl("rl_classes.jsonl", [{"address": str(_addr(0)), "classification": "global"}])
        jsonl("discovered_pairs.jsonl", [{"prefix": str(_net(0))}])
        (out / "prefixes.txt").write_text(f"{_net(0)}\n{_net(7)}\n")
        jsonl("isav_verdicts.jsonl", [{"prefix": str(_net(0)), "verdict": "deployed"}])
        good = score_cli_outputs(out, pair_cap=1)
        jsonl("isav_verdicts.jsonl", [{"prefix": str(_net(0)), "verdict": "vulnerable"}])
        bad = score_cli_outputs(out, pair_cap=1)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert good.fail_ratio == 0 and good.gate_ok
    assert bad.fail_ratio == pytest.approx(1 / 5) and not bad.gate_ok

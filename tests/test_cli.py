import json
from pathlib import Path

import pytest

from icmpscope.cli import main
from icmpscope import fileio


def run_cli(*argv):
    return main(list(argv))


def simulate_demo(tmp_path, seed=4):
    out = tmp_path / "demo"
    assert run_cli("simulate", "--preset", "demo", "--seed", str(seed), "--out", str(out)) == 0
    return out


def test_simulate_writes_scenario_and_campaign_config(tmp_path):
    out = simulate_demo(tmp_path)
    for name in (
        "simconfig.json",
        "pairs.jsonl",
        "prefixes.txt",
        "as_map.txt",
        "coords.jsonl",
        "targets.txt",
        "truth_reach.jsonl",
        "truth_isav.jsonl",
        "truth_rl.jsonl",
        "proxy_rvps.jsonl",
        "campaign.json",
    ):
        assert (out / name).is_file(), name
    campaign = json.loads((out / "campaign.json").read_text())
    assert campaign["backend"] == "sim"
    assert Path(campaign["sim_config"]).is_file()


def test_discover_command(tmp_path):
    out = simulate_demo(tmp_path)
    assert run_cli("discover", "--config", str(out / "campaign.json"), "--probe-cap", "300") == 0
    pairs = fileio.read_pairs(out / "discovered_pairs.jsonl")
    assert sum(len(v) for v in pairs.values()) == 50
    assert (out / "discovery_summary.tsv").is_file()


def test_isav_command_and_truth_agreement(tmp_path):
    out = simulate_demo(tmp_path)
    assert run_cli("isav", "--config", str(out / "campaign.json"), "--repeats", "2") == 0
    truth = {r["prefix"]: r["isav_deployed"] for r in fileio.read_jsonl(out / "truth_isav.jsonl")}
    wrong = 0
    for record in fileio.read_jsonl(out / "isav_verdicts.jsonl"):
        verdict = record["verdict"]
        if verdict == "uncertain":
            continue
        expected = "deployed" if truth[record["prefix"]] else "vulnerable"
        wrong += verdict != expected
    assert wrong == 0
    assert (out / "isav_prefix_summary.tsv").is_file()
    assert (out / "isav_as_summary.tsv").is_file()


def read_tables(out, names):
    return {name: (out / name).read_bytes() for name in names}


ISAV_TABLES = ("isav_prefix_summary.tsv", "isav_as_summary.tsv")
REACH_TABLES = ("reach_eval.tsv", "reach_roc.tsv")


def test_isav_resume_skips_completed_prefixes(tmp_path):
    out = simulate_demo(tmp_path)
    config = str(out / "campaign.json")
    assert run_cli("isav", "--config", config, "--repeats", "2") == 0
    first = (out / "isav_verdicts.jsonl").read_text()
    n_records = len(first.splitlines())
    tables = read_tables(out, ISAV_TABLES)
    # Rerunning with --resume finds everything in the manifest and adds nothing;
    # the summaries still cover every recorded prefix.
    assert run_cli("isav", "--config", config, "--repeats", "2", "--resume") == 0
    assert len((out / "isav_verdicts.jsonl").read_text().splitlines()) == n_records
    assert read_tables(out, ISAV_TABLES) == tables

    # Partial manifest: only the first unit is recorded as done.
    lines = (out / "isav_manifest.jsonl").read_text().splitlines()
    (out / "isav_manifest.jsonl").write_text(lines[0] + "\n")
    (out / "isav_verdicts.jsonl").write_text(first.splitlines()[0] + "\n")
    assert run_cli("isav", "--config", config, "--repeats", "2", "--resume") == 0
    resumed = [json.loads(l)["prefix"] for l in (out / "isav_verdicts.jsonl").read_text().splitlines()]
    assert len(resumed) == n_records
    assert len(set(resumed)) == n_records
    assert read_tables(out, ISAV_TABLES) == tables


def test_reach_resume_keeps_the_evaluation_tables(tmp_path):
    out = simulate_demo(tmp_path)
    config = str(out / "campaign.json")
    assert run_cli("reach", "--config", config, "--repeats", "2") == 0
    n_records = len((out / "reach_verdicts.jsonl").read_text().splitlines())
    tables = read_tables(out, REACH_TABLES)
    assert run_cli("reach", "--config", config, "--repeats", "2", "--resume") == 0
    assert len((out / "reach_verdicts.jsonl").read_text().splitlines()) == n_records
    assert read_tables(out, REACH_TABLES) == tables


def test_reach_command_with_evaluation(tmp_path):
    out = simulate_demo(tmp_path)
    assert run_cli("reach", "--config", str(out / "campaign.json"), "--repeats", "2") == 0
    truth = fileio.read_reach_truth(out / "truth_reach.jsonl")
    records = list(fileio.read_jsonl(out / "reach_verdicts.jsonl"))
    assert len(records) == len(truth)
    for record in records:
        expected = "unconnected" if truth[fileio.parse_address(record["target"])] else "connected"
        assert record["verdict"] == expected
    assert (out / "reach_eval.tsv").is_file()
    assert (out / "reach_roc.tsv").is_file()


def test_rl_classify_command(tmp_path):
    out = simulate_demo(tmp_path)
    assert run_cli("rl-classify", "--config", str(out / "campaign.json")) == 0
    truth = {r["address"]: r["classification"] for r in fileio.read_jsonl(out / "truth_rl.jsonl")}
    for record in fileio.read_jsonl(out / "rl_classes.jsonl"):
        assert record["classification"] == truth[record["address"]]
    assert (out / "rl_summary.tsv").is_file()


def test_report_command(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", str(empty)) == 1
    out = simulate_demo(tmp_path)
    assert run_cli("isav", "--config", str(out / "campaign.json"), "--repeats", "1") == 0
    assert run_cli("report", str(out)) == 0


def test_same_seed_runs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("simulate", "--preset", "demo", "--seed", "4", "--out", str(out)) == 0
        assert run_cli("isav", "--config", str(out / "campaign.json"), "--repeats", "1") == 0
        outputs.append((out / "isav_verdicts.jsonl").read_bytes())
    assert outputs[0] == outputs[1]


def test_config_validation_failures(tmp_path):
    out = simulate_demo(tmp_path)
    config = str(out / "campaign.json")
    # lambda outside (0,1)
    assert run_cli("isav", "--config", config, "--lambda", "1.5") == 1
    # n below one
    assert run_cli("isav", "--config", config, "--n-probe", "0") == 1
    # missing input file
    assert run_cli("isav", "--sim-config", str(out / "simconfig.json"),
                   "--pairs", str(out / "nope.jsonl"), "--out", str(out)) == 1
    # raw backend without the acknowledgment flag
    assert run_cli("isav", "--config", config, "--backend", "raw") == 1
    # unknown sim config path
    assert run_cli("isav", "--pairs", str(out / "pairs.jsonl"),
                   "--sim-config", str(out / "missing.json"), "--out", str(out)) == 1


def test_malformed_input_error_names_file_and_line(tmp_path, capsys):
    out = simulate_demo(tmp_path)
    pairs = out / "pairs.jsonl"
    lines = pairs.read_text().splitlines()
    record = json.loads(lines[1])
    del record["target"]
    lines[1] = json.dumps(record)
    pairs.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("rl-classify", "--config", str(out / "campaign.json")) == 1
    assert capsys.readouterr().err == f"error: {pairs}:2: missing field 'target'\n"


def test_supplemental_preset_pipeline(tmp_path):
    out = tmp_path / "supp"
    assert run_cli("simulate", "--preset", "supplemental", "--seed", "9", "--out", str(out)) == 0
    # No pairs exist, so the main campaign has nothing; the hitlist drives it.
    config = json.loads((out / "campaign.json").read_text())
    assert "pairs" not in config["inputs"]
    pairs_path = out / "pairs.jsonl"
    pairs_path.write_text("")
    assert run_cli(
        "isav", "--config", str(out / "campaign.json"), "--pairs", str(pairs_path),
        "--repeats", "2", "--supplemental", "--hitlist", config["inputs"]["hitlist"],
    ) == 0
    verdicts = {r["prefix"]: r["verdict"] for r in fileio.read_jsonl(out / "isav_verdicts.jsonl")}
    truth = {r["prefix"]: r["isav_deployed"] for r in fileio.read_jsonl(out / "truth_isav.jsonl")}
    rl_truth = {r["address"]: r["classification"] for r in fileio.read_jsonl(out / "truth_rl.jsonl")}
    assert verdicts  # the hitlist prefixes were measured
    for prefix, verdict in verdicts.items():
        if verdict == "uncertain":
            continue
        assert verdict == ("deployed" if truth[prefix] else "vulnerable")

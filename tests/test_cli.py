import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icmpscope
from icmpscope import cli, fileio
from icmpscope.cli import main
from icmpscope.model import IcmpKind
from icmpscope.ratelimit import DEFAULT_BURST_GAP_MS
from icmpscope.transport import SimTransport


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
    assert (out / campaign["sim_config"]).is_file()


def test_discover_command(tmp_path):
    out = simulate_demo(tmp_path)
    assert run_cli("discover", "--config", str(out / "campaign.json"), "--probe-cap", "300") == 0
    pairs = fileio.read_pairs(out / "discovered_pairs.jsonl")
    assert sum(len(v) for v in pairs.values()) == 50
    assert (out / "discovery_summary.tsv").is_file()


@pytest.mark.parametrize("repeated", ["2001:db8:2000::/64", "2001:db8:2001::/48"])
def test_discover_refuses_a_prefix_listed_twice(tmp_path, capsys, repeated):
    """A /64 has one target index and a /48 many; either one listed twice is
    an input error, not a traceback."""
    out = simulate_demo(tmp_path)
    prefixes = out / "twice.txt"
    prefixes.write_text(f"{repeated}\n" + (out / "prefixes.txt").read_text() + f"{repeated}\n")
    capsys.readouterr()
    assert run_cli("discover", "--config", str(out / "campaign.json"), "--prefixes", str(prefixes)) == 1
    assert capsys.readouterr().err == "error: prefix list names a prefix more than once\n"
    assert not (out / "discovered_pairs.jsonl").exists()


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
    # Rerunning with --resume finds everything in the verdict file and adds
    # nothing; the summaries still cover every recorded prefix.
    assert run_cli("isav", "--config", config, "--repeats", "2", "--resume") == 0
    assert len((out / "isav_verdicts.jsonl").read_text().splitlines()) == n_records
    assert read_tables(out, ISAV_TABLES) == tables

    # Partial verdict file: only the first unit is recorded as done.
    (out / "isav_verdicts.jsonl").write_text(first.splitlines()[0] + "\n")
    assert run_cli("isav", "--config", config, "--repeats", "2", "--resume") == 0
    resumed = [json.loads(l)["prefix"] for l in (out / "isav_verdicts.jsonl").read_text().splitlines()]
    assert len(resumed) == n_records
    assert len(set(resumed)) == n_records
    assert read_tables(out, ISAV_TABLES) == tables


def test_isav_keeps_each_routers_quiet_gap_across_every_step(tmp_path, monkeypatch):
    """RVP scoring, the error campaign and the supplemental echo pass share the
    transport's table of when each router's last burst ended, so no router sees
    two bursts closer than the quiet gap."""
    out = simulate_demo(tmp_path)
    pairs = out / "pairs.jsonl"
    # One prefix behind an unlimited router: its error verdict stays
    # uncertain, so the echo pass measures the same router again.
    kept = "2001:db8:100a::/48"
    lines = pairs.read_text().splitlines()
    pairs.write_text("".join(line + "\n" for line in lines if json.loads(line)["prefix"] == kept))
    bursts = []

    class RecordingTransport(SimTransport):
        def execute(self, plan, window):
            start = self.now()
            observations = super().execute(plan, window)
            flt = window.obs_filter
            bursts.append((flt.origin, IcmpKind.ECHO_REPLY in flt.kinds, start, self.now()))
            return observations

    monkeypatch.setattr(cli, "SimTransport", RecordingTransport)
    config = str(out / "campaign.json")
    assert run_cli("isav", "--config", config, "--supplemental", "--repeats", "2") == 0
    last_end = {}
    for origin, _echo, start, end in bursts:
        if origin in last_end:
            assert start - last_end[origin] >= DEFAULT_BURST_GAP_MS, origin
        last_end[origin] = end
    assert {echo for _origin, echo, _start, _end in bursts} == {False, True}


def test_isav_supplemental_runs_from_the_preset_config_alone(tmp_path):
    out = tmp_path / "supp"
    assert run_cli("simulate", "--preset", "supplemental", "--seed", "4", "--out", str(out)) == 0
    config = str(out / "campaign.json")
    assert run_cli("isav", "--config", config) == 1  # the error campaign needs pairs
    assert run_cli("isav", "--config", config, "--supplemental") == 0
    alone = (out / "isav_verdicts.jsonl").read_bytes()
    empty = out / "empty_pairs.jsonl"
    empty.write_text("")
    assert run_cli("isav", "--config", config, "--supplemental", "--pairs", str(empty)) == 0
    assert alone and (out / "isav_verdicts.jsonl").read_bytes() == alone


def test_isav_checks_the_hitlist_before_it_touches_the_verdict_file(tmp_path):
    out = simulate_demo(tmp_path)
    config = str(out / "campaign.json")
    assert run_cli("isav", "--config", config, "--repeats", "1") == 0
    verdicts = (out / "isav_verdicts.jsonl").read_bytes()
    missing = str(out / "missing_hitlist.jsonl")
    assert run_cli("isav", "--config", config, "--repeats", "1", "--supplemental", "--hitlist", missing) == 1
    assert (out / "isav_verdicts.jsonl").read_bytes() == verdicts


def test_cli_steps_leave_no_cyclic_garbage(tmp_path):
    """In-process callers run many steps, so each step's parser, transport and
    world must be freed by reference counting, not left to the cycle collector."""
    out = simulate_demo(tmp_path)
    gc.collect()
    assert run_cli("isav", "--config", str(out / "campaign.json"), "--repeats", "1") == 0
    assert gc.collect() == 0


def test_rl_classify_on_the_raw_backend_fails_with_the_transport_error(tmp_path, capsys):
    """The first burst paces against the raw stub's own gap table and clock,
    then the stub refuses to send."""
    out = simulate_demo(tmp_path)
    config = tmp_path / "raw.json"
    config.write_text(json.dumps({
        "backend": "raw",
        "interface": "eth0",
        "source_address": "2001:db8:ffff::1",
        "out_dir": str(out),
        "inputs": {"pairs": str(out / "pairs.jsonl")},
    }))
    capsys.readouterr()
    assert run_cli("rl-classify", "--config", str(config), "--acknowledge-spoofing") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: raw backend is not included in this build; it requires raw")
    assert not (out / "rl_classes.jsonl").exists()


def test_reach_resume_keeps_the_evaluation_tables(tmp_path):
    out = simulate_demo(tmp_path)
    config = str(out / "campaign.json")
    assert run_cli("reach", "--config", config, "--repeats", "2") == 0
    n_records = len((out / "reach_verdicts.jsonl").read_text().splitlines())
    tables = read_tables(out, REACH_TABLES)
    assert run_cli("reach", "--config", config, "--repeats", "2", "--resume") == 0
    assert len((out / "reach_verdicts.jsonl").read_text().splitlines()) == n_records
    assert read_tables(out, REACH_TABLES) == tables

    # Partial verdict file: only the first unit is recorded as done.
    first = (out / "reach_verdicts.jsonl").read_text()
    (out / "reach_verdicts.jsonl").write_text(first.splitlines()[0] + "\n")
    assert run_cli("reach", "--config", config, "--repeats", "2", "--resume") == 0
    resumed = [json.loads(l)["target"] for l in (out / "reach_verdicts.jsonl").read_text().splitlines()]
    assert len(resumed) == n_records == 20
    assert len(set(resumed)) == n_records
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


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda c: {**c, "reach": {"rotation_gap_ms": 5, "repeats": 1}}, "'reach.rotation_gap_ms'"),
        (lambda c: {**c, "rate_cap": {"max_pps_per_prefix": 1}}, "'rate_cap'"),
        (lambda c: {**c, "reach": [1]}, "'reach' must be a JSON object"),
        (lambda c: [c], "expected a JSON object"),
    ],
    ids=["removed-key", "unknown-section", "section-not-object", "array"],
)
def test_config_files_hold_only_known_keys(tmp_path, capsys, edit, named):
    out = simulate_demo(tmp_path)
    path = out / "edited.json"  # beside campaign.json, so its relative paths hold
    path.write_text(json.dumps(edit(json.loads((out / "campaign.json").read_text()))))
    capsys.readouterr()
    assert run_cli("reach", "--config", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path}: ") and named in err
    assert not (out / "reach_verdicts.jsonl").exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda c: {**c, "inputs": {**c["inputs"], "pairs": 5}}, "inputs.pairs"),
        (lambda c: {**c, "out_dir": 7}, "out_dir"),
        (lambda c: {**c, "params": {"n_probe": None}}, "params.n_probe"),
        (lambda c: {**c, "seed": "abc"}, "seed"),
        (lambda c: {**c, "isav": {"rvp_candidates": "x"}}, "isav.rvp_candidates"),
        (lambda c: {**c, "params": {"lambda": "0.5"}}, "params.lambda"),
        (lambda c: {**c, "seed": True}, "seed"),
        (lambda c: {**c, "params": {"repeats": 2.7}}, "params.repeats"),
        (lambda c: {**c, "backend": "udp"}, "backend"),
    ],
    ids=["path-int", "out-dir-int", "param-null", "seed-string", "count-string",
         "lambda-string", "seed-bool", "repeats-float", "backend-choice"],
)
def test_config_values_of_the_wrong_kind_are_refused(tmp_path, capsys, edit, key):
    out = simulate_demo(tmp_path)
    path = out / "edited.json"  # beside campaign.json, so its relative paths hold
    path.write_text(json.dumps(edit(json.loads((out / "campaign.json").read_text()))))
    capsys.readouterr()
    assert run_cli("isav", "--config", str(path), "--repeats", "1") == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path}: '{key}' must be ")
    assert not (out / "isav_verdicts.jsonl").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: {**c, "params": {"n_probe": 0}}, "'params.n_probe' must be at least 1, got 0"),
        (lambda c: {**c, "params": {"m_noise": -1}}, "'params.m_noise' must be at least 0, got -1"),
        (lambda c: {**c, "params": {"repeats": 0}}, "'params.repeats' must be at least 1, got 0"),
        (lambda c: {**c, "reach": {"receive_window_ms": 0}}, "'reach.receive_window_ms' must be at least 1, got 0"),
        (lambda c: {**c, "isav": {"rvp_candidates": 0}}, "'isav.rvp_candidates' must be at least 1, got 0"),
        (lambda c: {**c, "reach": {"rvp_count": -2}}, "'reach.rvp_count' must be at least 1, got -2"),
        (lambda c: {**c, "discovery": {"pair_cap": 0}}, "'discovery.pair_cap' must be at least 1, got 0"),
        (lambda c: {**c, "discovery": {"probe_cap": 0}}, "'discovery.probe_cap' must be at least 1, got 0"),
        (lambda c: "{ not json", "not valid JSON: "),
    ],
    ids=["n-probe", "m-noise", "repeats", "window", "rvp-candidates", "rvp-count", "pair-cap",
         "probe-cap", "not-json"],
)
def test_config_file_faults_are_refused_on_loading_naming_the_file(tmp_path, capsys, edit, message):
    """Counts below their floor and broken JSON are refused when the file is
    loaded, by any step, even one that does not read the key."""
    out = simulate_demo(tmp_path)
    path = out / "edited.json"  # beside campaign.json, so its relative paths hold
    edited = edit(json.loads((out / "campaign.json").read_text()))
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    capsys.readouterr()
    assert run_cli("isav", "--config", str(path), "--repeats", "1") == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path}: {message}")
    assert not (out / "isav_verdicts.jsonl").exists()


def test_config_paths_resolve_against_the_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--preset", "demo", "--seed", "4", "--out", "out") == 0
    monkeypatch.chdir(tmp_path / "out")
    assert run_cli("isav", "--config", "campaign.json", "--repeats", "1") == 0
    assert (tmp_path / "out" / "isav_verdicts.jsonl").is_file()
    assert not (tmp_path / "out" / "out").exists()


def test_python_dash_m_runs_the_cli():
    src = Path(icmpscope.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "icmpscope", "--help"], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.startswith("usage: icmpscope ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--preset", "isav", "--count", "0"], "--count must be at least 1, got 0"),
        (["--preset", "isav", "--count", "-3"], "--count must be at least 1, got -3"),
        (["--preset", "reach", "--count", "50", "--cut", "-1"], "--cut must be at least 0, got -1"),
    ],
    ids=["count-0", "count-negative", "cut-negative"],
)
def test_simulate_refuses_sizes_below_their_floor(tmp_path, capsys, argv, message):
    capsys.readouterr()
    assert run_cli("simulate", *argv, "--out", str(tmp_path / "sim")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "preset, argv, sizes",
    [
        ("isav", ["--count", "1"], "routers=1 hosts=0 links=1 cuts=0\n"),
        ("reach", ["--count", "50", "--cut", "0"], "routers=53 hosts=50 links=203 cuts=0\n"),
    ],
    ids=["isav", "reach"],
)
def test_simulate_takes_its_smallest_sizes_as_given(tmp_path, capsys, preset, argv, sizes):
    out = tmp_path / "sim"
    capsys.readouterr()
    assert run_cli("simulate", "--preset", preset, *argv, "--out", str(out)) == 0
    assert sizes in capsys.readouterr().out


@pytest.mark.parametrize("command, flag", [("reach", "--rvp-count"), ("isav", "--rvp-candidates")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_rvp_counts_below_one_are_refused(tmp_path, capsys, command, flag, value):
    out = simulate_demo(tmp_path)
    capsys.readouterr()
    assert run_cli(command, "--config", str(out / "campaign.json"), "--repeats", "1", flag, value) == 1
    assert flag in capsys.readouterr().err
    assert not (out / f"{command}_verdicts.jsonl").exists()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Verdict sets and dicts are hashed containers: no output may follow
    their iteration order."""
    src = Path(icmpscope.__file__).resolve().parents[1]
    outputs = []
    for hash_seed in ("1", "999"):
        out = tmp_path / hash_seed
        config = str(out / "campaign.json")
        code = (
            "from icmpscope.cli import main\n"
            f"assert main(['simulate', '--preset', 'demo', '--seed', '4', '--out', {str(out)!r}]) == 0\n"
            f"assert main(['isav', '--config', {config!r}, '--repeats', '1']) == 0\n"
            f"assert main(['reach', '--config', {config!r}, '--repeats', '1']) == 0\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"PYTHONHASHSEED={hash_seed}:\n{proc.stderr}"
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert {"campaign.json", "isav_verdicts.jsonl", "reach_eval.tsv"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]


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
        "--repeats", "2", "--supplemental", "--hitlist", str(out / config["inputs"]["hitlist"]),
    ) == 0
    verdicts = {r["prefix"]: r["verdict"] for r in fileio.read_jsonl(out / "isav_verdicts.jsonl")}
    truth = {r["prefix"]: r["isav_deployed"] for r in fileio.read_jsonl(out / "truth_isav.jsonl")}
    rl_truth = {r["address"]: r["classification"] for r in fileio.read_jsonl(out / "truth_rl.jsonl")}
    assert verdicts  # the hitlist prefixes were measured
    for prefix, verdict in verdicts.items():
        if verdict == "uncertain":
            continue
        assert verdict == ("deployed" if truth[prefix] else "vulnerable")


def test_importing_the_cli_loads_neither_numpy_nor_sympy():
    src = Path(icmpscope.__file__).resolve().parents[1]
    code = "import sys, icmpscope.cli; print([m for m in ('numpy', 'sympy') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_simulate_and_discover_run_where_numpy_cannot_be_imported(tmp_path):
    """numpy is a test extra, not a runtime dependency: the first quick-start
    steps run with every ``import numpy`` failing."""
    src = Path(icmpscope.__file__).resolve().parents[1]
    out = tmp_path / "demo"
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from icmpscope.cli import main\n"
        f"assert main(['simulate', '--preset', 'demo', '--seed', '4', '--out', {str(out)!r}]) == 0\n"
        f"assert main(['discover', '--config', {str(out / 'campaign.json')!r}, '--probe-cap', '100']) == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert fileio.read_pairs(out / "discovered_pairs.jsonl")

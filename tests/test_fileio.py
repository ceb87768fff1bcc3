import json
import re

import pytest

from icmpscope import fileio
from icmpscope.model import DataPair, IcmpKind, parse_address, parse_prefix


def test_pairs_round_trip(tmp_path):
    prefix = parse_prefix("2001:db8:1::/48")
    pairs = {
        prefix: [
            DataPair(parse_address("2001:db8:1::dead"), parse_address("2001:db8:1::1"),
                     IcmpKind.DEST_UNREACHABLE, 42),
            DataPair(parse_address("2001:db8:1::beef"), parse_address("2001:db8:1::1"),
                     IcmpKind.TIME_EXCEEDED, 43),
        ]
    }
    path = tmp_path / "pairs.jsonl"
    fileio.write_pairs(path, pairs)
    loaded = fileio.read_pairs(path)
    assert loaded == pairs
    record = json.loads(path.read_text().splitlines()[0])
    assert set(record) == {"prefix", "target", "periphery", "error_kind", "t_ms"}


def test_prefix_list_round_trip_with_comments(tmp_path):
    path = tmp_path / "prefixes.txt"
    path.write_text("# scan list\n2001:db8:1::/48\n\n2001:db8:2::/48  # second\n")
    assert fileio.read_prefix_list(path) == [
        parse_prefix("2001:db8:1::/48"),
        parse_prefix("2001:db8:2::/48"),
    ]


def test_as_map_round_trip(tmp_path):
    mapping = {parse_prefix("2001:db8:1::/48"): 64500, parse_prefix("2001:db8:2::/48"): 64501}
    path = tmp_path / "as.txt"
    fileio.write_as_map(path, mapping)
    assert fileio.read_as_map(path) == mapping


def test_coords_round_trip(tmp_path):
    entries = [
        (parse_prefix("2001:db8:1::/48"), 10.5, -20.25),
        (parse_prefix("2001:db8:ffff::1/128"), 0.0, 0.0),
    ]
    path = tmp_path / "coords.jsonl"
    fileio.write_coords(path, entries)
    geo = fileio.read_coords(path)
    assert geo.lookup(parse_address("2001:db8:1::77")) == (10.5, -20.25)
    assert geo.lookup(parse_address("2001:db8:ffff::1")) == (0.0, 0.0)


def test_reach_truth_round_trip(tmp_path):
    truth = {parse_address("2001:db8:1::b"): True, parse_address("2001:db8:2::b"): False}
    path = tmp_path / "truth.jsonl"
    fileio.write_reach_truth(path, truth)
    assert fileio.read_reach_truth(path) == truth


GOOD_PAIR = '{"prefix": "2001:db8:1::/48", "target": "2001:db8:1::dead", "periphery": "2001:db8:1::1"}'


def assert_rejected_at(path, line, detail, read):
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:{line}: {detail}")):
        read(path)


def test_pair_missing_a_field_names_file_and_line(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(GOOD_PAIR + "\n\n" + '{"prefix": "2001:db8:1::/48", "periphery": "2001:db8:1::1"}\n')
    assert_rejected_at(path, 3, "missing field 'target'", fileio.read_pairs)


def test_bad_json_names_file_and_line(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(GOOD_PAIR + "\nnot json\n")
    assert_rejected_at(path, 2, "Expecting value", fileio.read_pairs)
    assert_rejected_at(path, 2, "Expecting value", lambda p: list(fileio.read_jsonl(p)))


def test_bad_as_map_row_names_file_and_line(tmp_path):
    path = tmp_path / "as.txt"
    path.write_text("# prefix asn\n2001:db8:1::/48 64500\n2001:db8:2::/48\n")
    assert_rejected_at(path, 3, "not enough values to unpack", fileio.read_as_map)
    path.write_text("2001:db8:1::/48 AS64500\n")
    assert_rejected_at(path, 1, "invalid literal for int()", fileio.read_as_map)

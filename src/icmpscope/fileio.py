"""Readers and writers for the line-delimited record files the CLI exchanges.

Records are JSON lines with sorted keys so identical campaigns produce
byte-identical files; summaries are tab-separated tables.
"""

from __future__ import annotations

import json
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from icmpscope.model import DataPair, IcmpKind, parse_address, parse_prefix
from icmpscope.reach import CoordinateMap

T = TypeVar("T")


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def append_jsonl(path: str | Path, record: dict) -> None:
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _parse_lines(
    path: str | Path, parse: Callable[[str], T], comment: str | None = None
) -> Iterator[T]:
    """Yield ``parse(line)`` for every line that is not blank once stripped
    (and cut at ``comment``, when given).

    A line that does not parse raises ``ValueError("<path>:<line>: ...")``.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = (raw.split(comment, 1)[0] if comment else raw).strip()
            if not line:
                continue
            try:
                value = parse(line)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield value


def read_jsonl(path: str | Path) -> Iterator[dict]:
    yield from _parse_lines(path, json.loads)


def write_tsv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(cell) for cell in row) + "\n")


# -- prefix lists and maps ----------------------------------------------


def read_prefix_list(path: str | Path) -> list[IPv6Network]:
    """One CIDR per line; '#' starts a comment."""
    return list(_parse_lines(path, parse_prefix, "#"))


def write_prefix_list(path: str | Path, prefixes: Iterable[IPv6Network]) -> None:
    Path(path).write_text("".join(f"{p}\n" for p in prefixes))


def read_address_list(path: str | Path) -> list[IPv6Address]:
    return list(_parse_lines(path, parse_address, "#"))


def write_address_list(path: str | Path, addresses: Iterable[IPv6Address]) -> None:
    Path(path).write_text("".join(f"{a}\n" for a in addresses))


def _as_map_entry(line: str) -> tuple[IPv6Network, int]:
    prefix_text, asn_text = line.split()
    return parse_prefix(prefix_text), int(asn_text)


def read_as_map(path: str | Path) -> dict[IPv6Network, int]:
    """Two columns per line: prefix and AS number."""
    return dict(_parse_lines(path, _as_map_entry, "#"))


def write_as_map(path: str | Path, mapping: Mapping[IPv6Network, int]) -> None:
    Path(path).write_text("".join(f"{p} {asn}\n" for p, asn in mapping.items()))


# -- data pairs ----------------------------------------------------------


def pair_record(prefix: IPv6Network, pair: DataPair) -> dict:
    return {
        "prefix": str(prefix),
        "target": str(pair.target),
        "periphery": str(pair.periphery),
        "error_kind": pair.error_kind.value,
        "t_ms": pair.discovered_at,
    }


def write_pairs(path: str | Path, pairs: Mapping[IPv6Network, list[DataPair]]) -> None:
    write_jsonl(
        path,
        (pair_record(prefix, pair) for prefix, plist in pairs.items() for pair in plist),
    )


def _pair_entry(line: str) -> tuple[IPv6Network, DataPair]:
    record = json.loads(line)
    pair = DataPair(
        target=parse_address(record["target"]),
        periphery=parse_address(record["periphery"]),
        error_kind=IcmpKind(record.get("error_kind", IcmpKind.DEST_UNREACHABLE.value)),
        discovered_at=int(record.get("t_ms", 0)),
    )
    return parse_prefix(record["prefix"]), pair


def read_pairs(path: str | Path) -> dict[IPv6Network, list[DataPair]]:
    out: dict[IPv6Network, list[DataPair]] = {}
    for prefix, pair in _parse_lines(path, _pair_entry):
        out.setdefault(prefix, []).append(pair)
    return out


def _hitlist_entry(line: str) -> tuple[IPv6Network, IPv6Address]:
    record = json.loads(line)
    return parse_prefix(record["prefix"]), parse_address(record["address"])


def read_hitlist(path: str | Path) -> dict[IPv6Network, list[IPv6Address]]:
    """Extra responder addresses per prefix: ``{prefix, address}`` per line."""
    out: dict[IPv6Network, list[IPv6Address]] = {}
    for prefix, address in _parse_lines(path, _hitlist_entry):
        out.setdefault(prefix, []).append(address)
    return out


# -- coordinates ----------------------------------------------------------


def _coord_entry(line: str) -> tuple[IPv6Network, float, float]:
    record = json.loads(line)
    key = record["address_or_prefix"]
    net = parse_prefix(key) if "/" in key else IPv6Network((int(parse_address(key)), 128))
    return net, float(record["lat"]), float(record["lon"])


def read_coords(path: str | Path) -> CoordinateMap:
    return CoordinateMap(list(_parse_lines(path, _coord_entry)))


def write_coords(path: str | Path, entries: Iterable[tuple[IPv6Network, float, float]]) -> None:
    write_jsonl(
        path,
        (
            {
                "address_or_prefix": str(net[0]) if net.prefixlen == 128 else str(net),
                "lat": lat,
                "lon": lon,
            }
            for net, lat, lon in entries
        ),
    )


# -- ground truth ----------------------------------------------------------


def write_isav_truth(path: str | Path, truth: Mapping[IPv6Network, bool]) -> None:
    write_jsonl(
        path, ({"prefix": str(p), "isav_deployed": v} for p, v in truth.items())
    )


def _reach_truth_entry(line: str) -> tuple[IPv6Address, bool]:
    record = json.loads(line)
    return parse_address(record["target"]), bool(record["unconnected"])


def read_reach_truth(path: str | Path) -> dict[IPv6Address, bool]:
    return dict(_parse_lines(path, _reach_truth_entry))


def write_reach_truth(path: str | Path, truth: Mapping[IPv6Address, bool]) -> None:
    write_jsonl(
        path, ({"target": str(t), "unconnected": v} for t, v in truth.items())
    )


def write_rl_truth(path: str | Path, truth: Mapping[IPv6Address, str]) -> None:
    write_jsonl(
        path, ({"address": str(a), "classification": c} for a, c in truth.items())
    )

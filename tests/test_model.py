import random

import pytest

from icmpscope.model import (
    DataPair,
    IcmpKind,
    IcmpObservation,
    MeasurementParams,
    parse_address,
    parse_prefix,
    spoof_sources,
)


def test_address_text_round_trip_10k():
    rng = random.Random(1)
    for _ in range(10_000):
        value = rng.getrandbits(128)
        addr = parse_address(str(parse_address(format_int(value))))
        assert int(addr) == value


def format_int(value: int) -> str:
    from ipaddress import IPv6Address

    return str(IPv6Address(value))


def test_canonical_form_is_lowercase_compressed():
    assert str(parse_address("2001:0DB8:0000:0000:0000:0000:0000:0001")) == "2001:db8::1"


def test_prefix_rejects_host_bits():
    with pytest.raises(ValueError):
        parse_prefix("2001:db8::1/48")


def test_spoof_sources_shared_prefixes():
    rng = random.Random(7)
    local_vp = parse_address("2001:db8:a:b:c::1")
    rvp = parse_address("2001:db8::10")
    local_spoof, target_spoof = spoof_sources(local_vp, rvp, rng)
    assert int(local_spoof) >> 48 == int(local_vp) >> 48  # same /80
    assert local_spoof != local_vp
    assert int(target_spoof) >> 4 == int(rvp) >> 4  # same /124
    assert target_spoof != rvp


def test_spoof_sources_deterministic_under_seed():
    a = spoof_sources(parse_address("2001:db8::1"), parse_address("2001:db8:1::1"), random.Random(5))
    b = spoof_sources(parse_address("2001:db8::1"), parse_address("2001:db8:1::1"), random.Random(5))
    assert a == b


def test_spoof_sources_property_random_inputs():
    rng = random.Random(99)
    for _ in range(1000):
        local_vp = parse_address(format_int(rng.getrandbits(128)))
        rvp = parse_address(format_int(rng.getrandbits(128)))
        local_spoof, target_spoof = spoof_sources(local_vp, rvp, rng)
        assert local_spoof != local_vp
        assert target_spoof != rvp
        assert int(local_spoof) >> 48 == int(local_vp) >> 48
        assert int(target_spoof) >> 4 == int(rvp) >> 4


def test_icmp_kind_error_partition():
    assert IcmpKind.DEST_UNREACHABLE.is_error
    assert IcmpKind.TIME_EXCEEDED.is_error
    assert not IcmpKind.ECHO_REQUEST.is_error
    assert not IcmpKind.ECHO_REPLY.is_error


def test_data_pair_requires_error_kind():
    with pytest.raises(ValueError):
        DataPair(parse_address("::1"), parse_address("::2"), error_kind=IcmpKind.ECHO_REPLY)


def test_observation_error_requires_quote():
    with pytest.raises(ValueError):
        IcmpObservation(kind=IcmpKind.DEST_UNREACHABLE, origin=1)
    IcmpObservation(kind=IcmpKind.ECHO_REPLY, origin=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": 0.0},
        {"lam": 1.0},
        {"n_probe": 0},
        {"m_noise": -1},
        {"repeats": 0},
        {"receive_window_ms": 0},
    ],
)
def test_measurement_params_validation(kwargs):
    with pytest.raises(ValueError):
        MeasurementParams(**kwargs)


def test_icmp_kind_hashes_by_identity():
    assert len(list(IcmpKind)) == 4
    for kind in IcmpKind:
        assert hash(kind) == object.__hash__(kind)
        assert IcmpKind(kind.value) is kind

import pytest
from hypothesis import given, strategies as st

from thingchain import codec
from thingchain.errors import DecodeError
from thingchain.units import div_half_up, format_milli, parse_milli


def test_scalar_roundtrips():
    r = codec.Reader(codec.enc_u8(7) + codec.enc_u32(70000)
                     + codec.enc_u64(2**40) + codec.enc_i64(-5))
    assert r.u8() == 7
    assert r.u32() == 70000
    assert r.u64() == 2**40
    assert r.i64() == -5
    r.expect_end()


def test_reader_underrun_and_trailing():
    r = codec.Reader(b"\x00")
    with pytest.raises(DecodeError):
        r.u32()
    r = codec.Reader(b"\x00\x00")
    r.u8()
    with pytest.raises(DecodeError):
        r.expect_end()


def test_range_checks():
    with pytest.raises(ValueError):
        codec.enc_u8(256)
    with pytest.raises(ValueError):
        codec.enc_u64(-1)
    with pytest.raises(ValueError):
        codec.enc_i64(2**63)


value_strategy = st.recursive(
    st.one_of(
        st.binary(max_size=40),
        st.text(max_size=40),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.booleans(),
    ),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12,
)


@given(st.lists(value_strategy, max_size=6))
def test_value_list_roundtrip(values):
    encoded = codec.encode_values(values)
    decoded = codec.decode_values(encoded)
    assert decoded == values
    # bool/int distinction survives
    for got, want in zip(decoded, values):
        assert type(got) is type(want)


@given(st.lists(value_strategy, max_size=4), st.lists(value_strategy, max_size=4))
def test_value_encoding_injective(a, b):
    if a != b:
        assert codec.encode_values(a) != codec.encode_values(b)


def test_decode_values_rejects_trailing():
    data = codec.encode_values([1]) + b"\x00"
    with pytest.raises(DecodeError):
        codec.decode_values(data)


@pytest.mark.parametrize("text,milli", [
    ("21.5", 21500),
    ("-0.75", -750),
    ("0", 0),
    ("100", 100000),
    ("0.001", 1),
    ("-3", -3000),
])
def test_parse_milli(text, milli):
    assert parse_milli(text) == milli
    assert parse_milli(format_milli(milli)) == milli


@pytest.mark.parametrize("bad", ["", ".", "1.2345", "abc", "--1", "1..2"])
def test_parse_milli_rejects(bad):
    with pytest.raises(ValueError):
        parse_milli(bad)


@pytest.mark.parametrize("n,d,q", [
    (3, 2, 2),       # 1.5 -> 2
    (-3, 2, -2),     # -1.5 -> -2 (away from zero)
    (5, 2, 3),
    (1, 3, 0),
    (2, 3, 1),
    (7, 7, 1),
    (0, 5, 0),
])
def test_div_half_up(n, d, q):
    assert div_half_up(n, d) == q

import numpy as np
import pytest

from greenwood.rng import RngStream


def test_same_address_replays_identical_draws():
    a = RngStream(123, 5).generator().standard_normal(64)
    b = RngStream(123, 5).generator().standard_normal(64)
    np.testing.assert_array_equal(a, b)


def test_generator_calls_do_not_mutate_the_stream():
    stream = RngStream(9)
    first = stream.generator().standard_normal(16)
    second = stream.generator().standard_normal(16)
    np.testing.assert_array_equal(first, second)


def test_key_packing_matches_philox_directly():
    # the stream id occupies the high 64 bits of the 128-bit key; variate 0
    # is the key's own stream (so Gaussian and GPD draws keep their bits),
    # and variate k starts k << 62 counter steps into it
    seed, sid = 777, 3
    key = (seed & (2**64 - 1)) | (sid << 64)
    stream = RngStream(seed, sid)
    direct = np.random.Generator(np.random.Philox(key=key)).standard_normal(8)
    np.testing.assert_array_equal(stream.generator().standard_normal(8), direct)
    np.testing.assert_array_equal(stream.generator(variate=0).standard_normal(8), direct)
    bits = np.random.Philox(key=key)
    bits.advance(1 << 62)
    second = np.random.Generator(bits).standard_normal(8)
    np.testing.assert_array_equal(stream.generator(variate=1).standard_normal(8), second)
    assert not np.array_equal(second, direct)


def test_distinct_stream_ids_give_distinct_sequences():
    base = RngStream(2024)
    draws = [base.substream(i).generator().standard_normal(256) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])
            # substreams should look independent, not shifted copies
            corr = np.corrcoef(draws[i], draws[j])[0, 1]
            assert abs(corr) < 0.25


def test_distinct_master_seeds_differ():
    a = RngStream(1).generator().standard_normal(32)
    b = RngStream(2).generator().standard_normal(32)
    assert not np.array_equal(a, b)


def test_substream_offsets_compose():
    s = RngStream(5, 10)
    assert s.substream(7) == RngStream(5, 17)
    assert s.substream(0) == s
    assert s.substream(3).substream(4) == s.substream(7)


def test_substream_wraps_at_64_bits():
    s = RngStream(1, 2**64 - 1)
    assert s.substream(1).stream_id == 0


@pytest.mark.parametrize("bad", [-1, 1.5, "7", None, True])
def test_invalid_master_seed_rejected(bad):
    with pytest.raises((TypeError, ValueError)):
        RngStream(bad)


def test_invalid_offsets_rejected():
    with pytest.raises(ValueError):
        RngStream(1).substream(-1)
    with pytest.raises(ValueError):
        RngStream(1, -4)
    with pytest.raises(TypeError, match="stream_id must be an int"):
        RngStream(1, 4.0)


@pytest.mark.parametrize("field", ["master_seed", "stream_id"])
@pytest.mark.parametrize("value", [2**64, 2**64 + 3, 2**128])
def test_ids_beyond_64_bits_are_rejected_not_aliased(field, value):
    # 2**64 + 3 would otherwise key the same Philox stream as 3
    kwargs = {"master_seed": 1, "stream_id": 0, field: value}
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        RngStream(**kwargs)


def test_largest_ids_are_accepted():
    top = 2**64 - 1
    assert RngStream(top, top).generator().standard_normal(4).shape == (4,)

import numpy as np
import pytest

from krfactor import RandomSeed, as_seed


def test_same_seed_same_draws():
    a = RandomSeed(7).generator().random(16)
    b = RandomSeed(7).generator().random(16)
    assert np.array_equal(a, b)


def test_streams_differ():
    base = RandomSeed(7)
    a = base.substream(0).generator().random(16)
    b = base.substream(1).generator().random(16)
    assert not np.array_equal(a, b)


def test_substream_is_stable_and_nested():
    s = RandomSeed(3).substream(5)
    assert s == RandomSeed(3).substream(5)
    assert s.substream(2) != s.substream(3)
    # children of different parents don't collide on small indices
    assert RandomSeed(3).substream(0).substream(1) != RandomSeed(3).substream(1).substream(0)


def test_substream_rejects_negative_index():
    with pytest.raises(ValueError):
        RandomSeed(0).substream(-1)


def test_as_seed_accepts_ints_and_passthrough():
    s = RandomSeed(9, 4)
    assert as_seed(s) is s
    assert as_seed(11) == RandomSeed(11)
    assert as_seed(np.int64(11)) == RandomSeed(11)
    with pytest.raises(TypeError):
        as_seed("11")


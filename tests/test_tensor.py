import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from splitwire import tensor
from splitwire.codec import quantize8, quantize16
from splitwire.errors import RangeError, ShapeError
from splitwire.pipeline.wire import encode_message, tensor_digest, tensor_to_message
from splitwire.tensor import Shape, random_fill

ENTRY_POINTS = [quantize8, quantize16, tensor_to_message, tensor_digest]
REFERENCE_DIMS = (3, 223, 265)
BLOCK = tensor._BLOCK
# the one-ulp range [1, 1 + 2**-23): about half the values round to hi
ONE_ULP_ABOVE_1 = float(np.nextafter(np.float32(1.0), np.float32(2.0)))


def splitmix64_fill(dims, seed, lo, hi):
    """random_fill in one whole-array pass: the formula its blocks must match."""
    idx = np.arange(1, math.prod(dims) + 1, dtype=np.uint64)
    z = np.uint64(seed % (1 << 64)) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    vals = (lo + u * (hi - lo)).astype(np.float32)
    return np.minimum(vals, np.nextafter(np.float32(hi), np.float32(lo))).reshape(dims)


def test_shape_rejects_nonpositive_extents():
    with pytest.raises(ShapeError):
        Shape([3, 0, 2])
    with pytest.raises(ShapeError):
        Shape([])


def test_shape_numel_and_str():
    s = Shape([3, 223, 265])
    assert s.numel == 177285
    assert str(s) == "3x223x265"


def test_tensor_is_immutable():
    t = random_fill(Shape([2, 3]), seed=1, lo=0.0, hi=1.0)
    assert t.dtype == np.float32 and t.shape == (2, 3)
    with pytest.raises(ValueError):
        t[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.reshape(-1)[0] = 5.0


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [
    np.zeros((2, 3), dtype=np.float64),
    np.zeros((2, 3), dtype=np.int32),
    np.array(1.5, dtype=np.float32),
    np.zeros((2, 0), dtype=np.float32),
    [1.0, 2.0],
], ids=["float64", "int32", "0-d", "zero-extent", "list"])
def test_entry_points_take_only_tensors(entry, bad):
    with pytest.raises(ShapeError, match="a tensor is a float32 array"):
        entry(bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_a_strided_view_encodes_as_its_contiguous_copy(entry):
    t = random_fill(Shape([3, 6, 5]), seed=2, lo=-1.0, hi=1.0)
    view = t[:, ::2]
    assert not view.flags.c_contiguous
    got, want = entry(view), entry(np.ascontiguousarray(view))
    if entry is not tensor_digest:
        got, want = encode_message(got), encode_message(want)
    assert got == want


def test_random_fill_deterministic():
    a = random_fill(Shape([4, 7]), seed=42, lo=-1.0, hi=1.0)
    b = random_fill(Shape([4, 7]), seed=42, lo=-1.0, hi=1.0)
    assert a.shape == (4, 7)
    assert a.tobytes() == b.tobytes()


def test_random_fill_seed_changes_output():
    a = random_fill(Shape([64]), seed=1, lo=0.0, hi=1.0)
    b = random_fill(Shape([64]), seed=2, lo=0.0, hi=1.0)
    assert a.tobytes() != b.tobytes()


def test_random_fill_range_is_half_open():
    t = random_fill(Shape([10000]), seed=3, lo=-2.0, hi=0.5)
    assert float(t.min()) >= -2.0
    assert float(t.max()) < 0.5


def test_random_fill_rejects_degenerate_range():
    with pytest.raises(RangeError):
        random_fill(Shape([1]), seed=0, lo=1.0, hi=1.0)
    with pytest.raises(RangeError):
        random_fill(Shape([1]), seed=0, lo=2.0, hi=1.0)


def test_random_fill_frozen_stream():
    # Pinned output of the self-contained generator; changing the stream
    # would silently invalidate every seeded expectation in this suite.
    t = random_fill(Shape([4]), seed=7, lo=0.0, hi=1.0)
    expected = [0.38982975482940674, 0.016788294538855553,
                0.9007607102394104, 0.5829302668571472]
    assert t.tolist() == expected


@given(st.sampled_from([(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (2 * BLOCK + 7,),
                        REFERENCE_DIMS]),
       st.integers(-(2**63), 2**64 - 1),
       st.floats(-1e30, 1e30), st.floats(-1e30, 1e30))
@example((2 * BLOCK + 7,), 2**64 - 1, 1.0, ONE_ULP_ABOVE_1)
@example(REFERENCE_DIMS, -(2**63), -1.0, 1.0)
def test_random_fill_blocks_equal_the_whole_array_formula(dims, seed, lo, hi):
    assume(lo < hi)
    got = random_fill(Shape(dims), seed, lo, hi)
    assert got.shape == dims
    assert got.tobytes() == splitmix64_fill(dims, seed, lo, hi).tobytes()


def test_random_fill_temporaries_stay_bounded():
    # the whole-array pass peaked at 5.67 MB for a 0.71 MB tensor
    random_fill(Shape([4]), seed=1, lo=-1.0, hi=1.0)
    tracemalloc.start()
    try:
        t = random_fill(Shape(REFERENCE_DIMS), seed=1, lo=-1.0, hi=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= t.nbytes + 2**20

import numpy as np
import pytest

from splitwire.codec import quantize8, quantize16
from splitwire.errors import RangeError, ShapeError
from splitwire.pipeline.wire import encode_message, tensor_digest, tensor_to_message
from splitwire.tensor import Shape, random_fill

ENTRY_POINTS = [quantize8, quantize16, tensor_to_message, tensor_digest]


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

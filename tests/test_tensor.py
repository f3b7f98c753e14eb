import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitwire.errors import RangeError, ShapeError
from splitwire.tensor import Shape, Tensor, make_tensor, random_fill, sq_sum, sub


def test_make_tensor_constructor_identity():
    t = make_tensor(Shape([2]), [1.0, 2.0])
    assert t.numel == 2
    assert t.tolist() == [1.0, 2.0]


def test_make_tensor_length_mismatch():
    with pytest.raises(ShapeError):
        make_tensor(Shape([2, 3]), [1.0] * 5)


def test_make_tensor_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        make_tensor(Shape([1]), [float("nan")])
    with pytest.raises(ValueError):
        make_tensor(Shape([2]), [1.0, float("inf")])


def test_shape_rejects_nonpositive_extents():
    with pytest.raises(ShapeError):
        Shape([3, 0, 2])
    with pytest.raises(ShapeError):
        Shape([])


def test_shape_numel_and_str():
    s = Shape([3, 223, 265])
    assert s.numel == 177285
    assert str(s) == "3x223x265"


def test_sub_self_difference_is_zero():
    t = make_tensor([2], [1.0, 2.0])
    assert sub(t, t).tolist() == [0.0, 0.0]


def test_sub_arithmetic():
    assert sub(make_tensor([1], [3.0]), make_tensor([1], [1.0])).tolist() == [2.0]


def test_sub_shape_mismatch():
    with pytest.raises(ShapeError):
        sub(make_tensor([2], [1, 2]), make_tensor([3], [1, 2, 3]))


def test_sq_sum_zero_case():
    assert sq_sum(make_tensor([3], [0.0, 0.0, 0.0])) == 0.0


def test_sq_sum_arithmetic():
    assert sq_sum(make_tensor([2], [1.0, 2.0])) == 5.0


def test_sq_sum_sign_invariance():
    assert sq_sum(make_tensor([1], [-3.0])) == 9.0


def test_tensor_is_immutable():
    t = make_tensor([2], [1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
    with pytest.raises(AttributeError):
        t.shape = Shape([3])


def test_tensor_constructor_copies_its_input():
    arr = np.arange(4, dtype=np.float32)
    t = Tensor(Shape([4]), arr)
    arr[0] = 99.0
    assert t.data.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert not t.data.flags.writeable


def test_random_fill_deterministic():
    a = random_fill(Shape([4, 7]), seed=42, lo=-1.0, hi=1.0)
    b = random_fill(Shape([4, 7]), seed=42, lo=-1.0, hi=1.0)
    assert a.data.tobytes() == b.data.tobytes()


def test_random_fill_seed_changes_output():
    a = random_fill(Shape([64]), seed=1, lo=0.0, hi=1.0)
    b = random_fill(Shape([64]), seed=2, lo=0.0, hi=1.0)
    assert a.data.tobytes() != b.data.tobytes()


def test_random_fill_range_is_half_open():
    t = random_fill(Shape([10000]), seed=3, lo=-2.0, hi=0.5)
    assert float(t.data.min()) >= -2.0
    assert float(t.data.max()) < 0.5


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


finite_floats = st.floats(min_value=-1e4, max_value=1e4, width=32)


@given(st.lists(finite_floats, min_size=1, max_size=30))
def test_sub_self_then_sq_sum_is_zero(values):
    t = make_tensor([len(values)], values)
    assert sq_sum(sub(t, t)) == 0.0


@given(st.lists(finite_floats, min_size=1, max_size=30))
def test_sq_sum_invariant_under_sign_flip(values):
    t = make_tensor([len(values)], values)
    flipped = make_tensor([len(values)], [-v for v in np.asarray(values, np.float32)])
    assert math.isclose(sq_sum(t), sq_sum(flipped), rel_tol=0.0, abs_tol=0.0)

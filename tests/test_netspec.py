import dataclasses
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitwire.errors import ArgumentError, ShapeError
from splitwire.netspec import (
    LayerSpec,
    NetworkSpec,
    get_builtin_spec,
    load_spec_file,
    output_shape,
    spec_from_dict,
    tensor_ratio,
    trace,
)
from splitwire.tensor import Shape

IMAGE = Shape([3, 874, 1044])


def hand_conv_extent(extent, k, s, p):
    # independent shape-arithmetic oracle
    return (extent + 2 * p - k) // s + 1


def test_conv_output_formula():
    layer = LayerSpec("conv", oc=64, k=7, s=2, p=3)
    out = output_shape(layer, Shape([3, 874, 1044]))
    assert out.dims == (64, hand_conv_extent(874, 7, 2, 3),
                        hand_conv_extent(1044, 7, 2, 3))
    assert out.dims[1] == 437


def test_relu_identity():
    assert output_shape(LayerSpec("relu"), Shape([3, 10, 10])).dims == (3, 10, 10)


def test_kernel_larger_than_padded_input():
    with pytest.raises(ShapeError):
        output_shape(LayerSpec("conv", oc=1, k=5), Shape([3, 3, 3]))


def test_adaptive_pool_and_linear():
    assert output_shape(LayerSpec("adaptive_avgpool", oh=8, ow=8),
                        Shape([16, 14, 14])).dims == (16, 8, 8)
    assert output_shape(LayerSpec("linear", in_features=1024, out_features=2),
                        Shape([16, 8, 8])).dims == (2,)
    with pytest.raises(ShapeError):
        output_shape(LayerSpec("linear", in_features=10, out_features=2),
                     Shape([16, 8, 8]))


def test_stem_trace_matches_hand_arithmetic():
    tr = trace(get_builtin_spec("stem"), IMAGE)
    h = hand_conv_extent(hand_conv_extent(874, 7, 2, 3), 3, 2, 1)
    w = hand_conv_extent(hand_conv_extent(1044, 7, 2, 3), 3, 2, 1)
    assert tr.output_shape.dims == (64, h, w) == (64, 219, 261)


def test_student_l1_bottleneck_shape():
    tr = trace(get_builtin_spec("student_l1"), IMAGE)
    # oracle: stem output 219x261, then four k=2,p=1 convs each add one pixel
    assert tr.bottleneck_shape.dims == (3, 219 + 4, 261 + 4) == (3, 223, 265)


def test_student_l1_restores_teacher_output_shape():
    student = trace(get_builtin_spec("student_l1"), IMAGE)
    stem = trace(get_builtin_spec("stem"), IMAGE)
    teacher = trace(get_builtin_spec("teacher_l1"), stem.output_shape)
    assert student.output_shape == teacher.output_shape


def test_empty_network_trace():
    tr = trace(NetworkSpec("empty"), Shape([3, 8, 8]))
    assert tr.output_shape.dims == (3, 8, 8)
    assert tr.param_count == 0
    assert len(tr.layer_shapes) == 0
    assert tr.bottleneck_shape is None


def test_trace_error_carries_layer_index():
    net = NetworkSpec("bad", (LayerSpec("relu"), LayerSpec("conv", oc=1, k=9)))
    with pytest.raises(ShapeError, match="layer 1"):
        trace(net, Shape([3, 4, 4]))


def test_tensor_ratio_student_bottleneck():
    ratio = tensor_ratio(Shape([3, 223, 265]), IMAGE)
    assert ratio == 177285 / 2737368
    assert ratio == pytest.approx(0.0648, abs=5e-5)
    assert ratio == pytest.approx(0.0657, abs=0.003)


def test_tensor_ratio_trivial_cases():
    assert tensor_ratio(IMAGE, IMAGE) == 1.0
    assert tensor_ratio(Shape([3, 1, 1]), Shape([3, 10, 10])) == 0.01


def test_param_count_conv():
    net = NetworkSpec("c", (LayerSpec("conv", oc=3, k=2),))
    assert trace(net, Shape([64, 10, 10])).param_count == 64 * 3 * 2 * 2 == 768


def test_param_count_conv_with_bias_flag():
    net = NetworkSpec("c", (LayerSpec("conv", oc=3, k=2, bias=True),))
    assert trace(net, Shape([64, 10, 10])).param_count == 768 + 3


def test_param_count_batchnorm():
    net = NetworkSpec("b", (LayerSpec("batchnorm"),))
    assert trace(net, Shape([64, 5, 5])).param_count == 128


def test_param_count_linear():
    net = NetworkSpec("l", (LayerSpec("linear", in_features=1024, out_features=2),))
    assert trace(net, Shape([1024])).param_count == 1024 * 2 + 2 == 2050


def test_pool_relu_softmax_have_no_params():
    net = NetworkSpec("p", (
        LayerSpec("maxpool", k=2, s=2),
        LayerSpec("relu"),
        LayerSpec("adaptive_avgpool", oh=2, ow=2),
        LayerSpec("softmax"),
    ))
    assert trace(net, Shape([8, 8, 8])).param_count == 0


@pytest.mark.parametrize("hw", [(219, 261), (200, 200), (100, 500), (64, 64)])
def test_teacher_l1_preserves_spatial_dims(hw):
    h, w = hw
    tr = trace(get_builtin_spec("teacher_l1"), Shape([64, h, w]))
    assert tr.output_shape.dims == (256, h, w)


def test_neural_filter_final_output_is_two_classes():
    for in_shape in (Shape([64, 219, 261]), Shape([64, 200, 400]), Shape([3, 874, 1044])):
        tr = trace(get_builtin_spec("neural_filter"), in_shape)
        assert tr.output_shape.dims == (2,)


def test_neural_filter_linear_input_composes():
    # the 8x8 pool over 16 channels feeds exactly the 1024 linear inputs
    tr = trace(get_builtin_spec("neural_filter"), Shape([64, 219, 261]))
    assert tr.layer_shapes[-3].numel == 1024


@given(
    w=st.integers(min_value=800, max_value=2400),
    transposed=st.booleans(),
)
def test_bottleneck_ratio_band_for_shorter_side_800(w, transposed):
    dims = [3, w, 800] if transposed else [3, 800, w]
    tr = trace(get_builtin_spec("student_l1"), Shape(dims))
    ratio = tensor_ratio(tr.bottleneck_shape, Shape(dims))
    assert 0.06 <= ratio <= 0.07


def spec_doc(net):
    # every LayerSpec field, unset ones as None: spec_from_dict must take them all
    return {"name": net.name, "layers": [dataclasses.asdict(l) for l in net.layers]}


def test_spec_round_trips_through_dict():
    net = get_builtin_spec("student_l1")
    assert spec_from_dict(spec_doc(net)) == net


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    net = get_builtin_spec("stem")
    path.write_text(json.dumps(spec_doc(net)))
    assert load_spec_file(str(path)) == net


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ArgumentError):
        spec_from_dict({"name": "x", "layers": [{"kind": "conv", "oc": 1, "k": 1,
                                                 "dilation": 2}]})


def test_at_most_one_bottleneck():
    with pytest.raises(ArgumentError):
        NetworkSpec("two", (
            LayerSpec("conv", oc=1, k=1, bottleneck=True),
            LayerSpec("conv", oc=1, k=1, bottleneck=True),
        ))
    with pytest.raises(ArgumentError):
        NetworkSpec("both", get_builtin_spec("student_l1").layers
                    + get_builtin_spec("student_l1_column").layers)


def test_layer_validation():
    with pytest.raises(ArgumentError):
        LayerSpec("conv", oc=0, k=1)
    with pytest.raises(ArgumentError):
        LayerSpec("conv", oc=1, k=0)
    with pytest.raises(ArgumentError):
        LayerSpec("warp")
    with pytest.raises(ArgumentError):
        LayerSpec("linear", in_features=4)


def test_builtin_catalog():
    names = ["neural_filter", "stem", "student_l1", "student_l1_column", "teacher_l1"]
    assert [get_builtin_spec(name).name for name in names] == names
    # the error lists every built-in
    with pytest.raises(ArgumentError, match=re.escape(f"built-ins: {names}")):
        get_builtin_spec("resnet_152")

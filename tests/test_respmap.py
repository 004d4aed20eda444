"""Response-map extraction tests."""

import numpy as np
import pytest

from ctxtrack.errors import ConfigError, NumericError
from ctxtrack.fileio import read_pgm
from ctxtrack.model import TrackerNet, toy_spec
from ctxtrack.respmap import (indexable_layers, normalize_map, response_maps,
                              write_response_maps)


@pytest.fixture(scope="module")
def net():
    return TrackerNet(toy_spec(), np.random.default_rng(0))


def _inputs(net, seed=1):
    rng = np.random.default_rng(seed)
    s = net.spec
    return (rng.uniform(size=(s.target_size, s.target_size, 3)),
            rng.uniform(size=(s.search_size, s.search_size, 3)),
            rng.uniform(size=(s.search_size, s.search_size, 3)))


def test_indexable_layer_count(net):
    # Joint backbone layers plus full neck layers; the restricted final
    # neck layer is not tapped.
    assert indexable_layers(net) == net.spec.n1 + net.spec.n3 - 1


def test_maps_cover_all_layers_and_segments(net):
    target, previous, search = _inputs(net)
    maps = response_maps(net, target, previous, search)
    layers = indexable_layers(net)
    assert len(maps) == layers * 3
    for i in range(layers):
        assert maps[(i, "target")].shape == (2, 2)
        assert maps[(i, "previous")].shape == (4, 4)
        assert maps[(i, "search")].shape == (4, 4)
    for image in maps.values():
        assert image.dtype == np.uint8


def test_subset_of_layers(net):
    target, previous, search = _inputs(net)
    maps = response_maps(net, target, previous, search, layer_indices=[0, 2])
    assert sorted({i for i, _ in maps}) == [0, 2]
    assert len(maps) == 6


def test_rejects_out_of_range_index(net):
    target, previous, search = _inputs(net)
    total = indexable_layers(net)
    with pytest.raises(ConfigError, match="out of range"):
        response_maps(net, target, previous, search, layer_indices=[total])
    with pytest.raises(ConfigError, match="out of range"):
        response_maps(net, target, previous, search, layer_indices=[-1])


def test_min_max_scaling_hits_full_range():
    image = normalize_map(np.array([[0.3, 0.7], [1.1, 0.5]]))
    assert image.min() == 0
    assert image.max() == 255


def test_constant_map_is_mid_gray():
    image = normalize_map(np.full((4, 4), 2.5))
    assert np.all(image == 128)


def test_deterministic(net):
    target, previous, search = _inputs(net)
    a = response_maps(net, target, previous, search, layer_indices=[1])
    b = response_maps(net, target, previous, search, layer_indices=[1])
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_write_response_maps(tmp_path, net):
    target, previous, search = _inputs(net)
    maps = response_maps(net, target, previous, search, layer_indices=[0])
    paths = write_response_maps(maps, tmp_path / "maps")
    names = sorted(p.name for p in paths)
    assert names == ["layer0_previous.pgm", "layer0_search.pgm",
                     "layer0_target.pgm"]
    for path in paths:
        image = read_pgm(path)
        key = (0, path.stem.split("_")[1])
        assert np.array_equal(image, maps[key])


def test_prev_box_reaches_neck_but_not_backbone_taps(net):
    # The box embedding joins at neck entry, so backbone-layer maps must
    # ignore prev_box while neck-layer maps respond to it.
    target, previous, search = _inputs(net)
    first_neck = net.spec.n1
    base = response_maps(net, target, previous, search,
                         layer_indices=[0, first_neck])
    boxed = response_maps(net, target, previous, search,
                          prev_box=(16.0, 16.0, 48.0, 48.0),
                          layer_indices=[0, first_neck])
    assert np.array_equal(base[(0, "previous")], boxed[(0, "previous")])
    assert not np.array_equal(base[(first_neck, "previous")],
                              boxed[(first_neck, "previous")])


def test_non_finite_tokens_raise_numeric_error():
    # NaN weights would otherwise min-max scale to all-zero maps.
    net = TrackerNet(toy_spec(), np.random.default_rng(0))
    net.patch.proj.weight.data[:] = np.nan
    with pytest.raises(NumericError, match="non-finite tokens after layer 0"):
        response_maps(net, *_inputs(net), layer_indices=[5])

"""Response-map extraction: per-segment token energy as grayscale images.

After any chosen cross-frame layer, each segment's tokens are averaged
over channels and min-max scaled to an 8-bit grid image. The maps make the
flow of target evidence into the search region visible layer by layer.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError
from .fileio import to_uint8, write_pgm
from .model import TrackerNet
from .tensor import Tensor, no_grad


def indexable_layers(net: TrackerNet) -> int:
    """Number of cross-frame layers that `forward` traces: every joint
    backbone layer plus every full (unrestricted) neck layer."""
    return net.spec.n1 + net.spec.n3 - 1


def normalize_map(values: np.ndarray) -> np.ndarray:
    """Min-max scale to uint8; a constant map becomes mid-gray."""
    values = np.asarray(values, dtype=np.float64)
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo < 1e-12:
        return np.full(values.shape, 128, dtype=np.uint8)
    return to_uint8((values - lo) / (hi - lo))


def response_maps(net: TrackerNet, target: np.ndarray, previous: np.ndarray,
                  search: np.ndarray, prev_box=None,
                  layer_indices=None) -> dict[tuple[int, str], np.ndarray]:
    """Channel-mean token maps for the requested layers.

    Returns {(layer_index, segment_name): (H, W) uint8 image}. Layer
    indices count joint backbone layers first, then full neck layers.
    Raises NumericError when any traced layer holds non-finite tokens.
    """
    total = indexable_layers(net)
    if layer_indices is None:
        indices = list(range(total))
    else:
        indices = sorted({int(i) for i in layer_indices})
    for i in indices:
        if not 0 <= i < total:
            raise ConfigError(
                f"layer index {i} out of range [0, {total})")

    trace: list[Tensor] = []
    with no_grad():
        net.forward(net.encode([target, previous, search], prev_box), trace=trace)
    if len(trace) != total:
        raise RuntimeError(
            f"expected {total} traced layers, got {len(trace)}")
    for i, tokens in enumerate(trace):
        if not np.all(np.isfinite(tokens.data)):
            raise NumericError(f"non-finite tokens after layer {i}")

    maps: dict[tuple[int, str], np.ndarray] = {}
    for i in indices:
        tokens = trace[i].data
        for name in net.layout.names():
            h, w = net.layout.grid(name)
            segment = tokens[net.layout.segment_slice(name)]
            response = segment.reshape(h, w, -1).mean(axis=-1)
            maps[(i, name)] = normalize_map(response)
    return maps


def write_response_maps(maps: dict[tuple[int, str], np.ndarray],
                        out_dir) -> list[Path]:
    """Write one PGM per (layer, segment); returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for (index, name), image in sorted(maps.items()):
        path = out_dir / f"layer{index}_{name}.pgm"
        write_pgm(path, image)
        paths.append(path)
    return paths

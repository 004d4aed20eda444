"""File formats: binary parameter container, portable pixmaps, CSV logs.

The parameter container is a simple versioned binary layout: a magic
string, a format version, the tensor count, then each tensor as
(name length, utf-8 name, rank, dims, float64 little-endian values).
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError

PARAMS_MAGIC = b"CTXTRACK"
# version 2: the heads read a sine embedding of the search grid, so
# weights trained without it (version 1) must be trained again
PARAMS_VERSION = 2


# ----------------------------------------------------------------------
# parameter container
# ----------------------------------------------------------------------

def save_params(path, state: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors; iteration order is preserved."""
    path = Path(path)
    with path.open("wb") as f:
        f.write(PARAMS_MAGIC)
        f.write(struct.pack("<II", PARAMS_VERSION, len(state)))
        for name, arr in state.items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def load_params(path) -> dict[str, np.ndarray]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read parameter file {path}: {e}") from e
    view = memoryview(blob)

    def take(n: int) -> memoryview:
        nonlocal view
        if len(view) < n:
            raise ConfigError(f"truncated parameter file {path}")
        chunk, view = view[:n], view[n:]
        return chunk

    if bytes(take(len(PARAMS_MAGIC))) != PARAMS_MAGIC:
        raise ConfigError(f"{path} is not a parameter file (bad magic)")
    version, count = struct.unpack("<II", take(8))
    if version != PARAMS_VERSION:
        raise ConfigError(
            f"unsupported parameter file version {version} (expected {PARAMS_VERSION}); "
            f"train the model again to write one")
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"tensor name in {path} is not valid UTF-8: {e}") from e
        if name in state:
            raise ConfigError(f"tensor {name!r} repeated in parameter file {path}")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        size = math.prod(shape)   # a Python int: no overflow before `take`
        data = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape)
        state[name] = data.astype(np.float64)
    if len(view):
        raise ConfigError(f"trailing bytes in parameter file {path}")
    return state


# ----------------------------------------------------------------------
# portable pixmaps
# ----------------------------------------------------------------------

def write_pgm(path, gray: np.ndarray) -> None:
    """Binary portable graymap (P5, maxval 255) from a (H, W) uint8 array."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError(f"expected (H, W) uint8 array, got {gray.dtype} {gray.shape}")
    h, w = gray.shape
    with Path(path).open("wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary portable pixmap (P6, maxval 255) from a (H, W, 3) uint8 array."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8 array, got {rgb.dtype} {rgb.shape}")
    h, w, _ = rgb.shape
    with Path(path).open("wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """Pixels of a binary PNM with maxval 255; any malformed or truncated
    header or pixel block raises ConfigError."""
    blob = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        if pos == len(blob):
            raise ConfigError(f"{path}: truncated header")
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if fields[0] != magic:
        raise ConfigError(f"{path}: expected {magic.decode()} header, got {fields[0]!r}")
    for field in fields[1:]:
        if not field.isdigit():
            raise ConfigError(f"{path}: header field {field!r} is not a non-negative integer")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if w < 1 or h < 1:
        raise ConfigError(f"{path}: image size {w}x{h} is empty")
    if maxval != 255:
        raise ConfigError(f"{path}: only maxval 255 is supported")
    pos += 1  # single whitespace byte after maxval
    count = h * w * channels
    if len(blob) - pos < count:
        raise ConfigError(f"{path}: truncated pixel data, {max(len(blob) - pos, 0)} "
                          f"of {count} bytes")
    data = np.frombuffer(blob, dtype=np.uint8, count=count, offset=pos)
    return data.reshape((h, w, channels) if channels > 1 else (h, w))


def read_pgm(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3)


def to_uint8(image: np.ndarray) -> np.ndarray:
    """Map a float image in [0, 1] to uint8, rounding half to even
    (`np.rint`): 0.5/255 maps to 0 and 2.5/255 to 2."""
    return np.clip(np.rint(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)


# ----------------------------------------------------------------------
# CSV logs
# ----------------------------------------------------------------------

def format_float(v: float) -> str:
    return f"{float(v):.6f}"


def write_csv(path, header: list[str], rows) -> None:
    with Path(path).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open("r", newline="") as f:
        reader = csv.reader(f)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]

"""Parameter file, PNM image, and CSV round-trip tests."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxtrack.errors import ConfigError
from ctxtrack.fileio import (PARAMS_MAGIC, PARAMS_VERSION, format_float, load_params,
                             read_csv, read_pgm, read_ppm, save_params,
                             to_uint8, write_csv, write_pgm, write_ppm)


class TestParamsFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        state = {
            "patch.proj.weight": rng.normal(size=(48, 8)),
            "head.cls_out.bias": rng.normal(size=(1,)),
            "scalar": np.float64(3.5),
            "stage3_joint.0.rel_bias.tables.7": rng.normal(size=(2, 7, 7)),
        }
        path = tmp_path / "model.params"
        save_params(path, state)
        loaded = load_params(path)
        assert set(loaded) == set(state)
        for name, value in state.items():
            got = loaded[name]
            assert got.dtype == np.float64
            assert got.shape == np.asarray(value).shape
            assert np.array_equal(got, np.asarray(value, dtype=np.float64))

    def test_empty_state_roundtrip(self, tmp_path):
        path = tmp_path / "empty.params"
        save_params(path, {})
        assert load_params(path) == {}

    def test_preserves_insertion_order(self, tmp_path):
        state = {"b": np.zeros(2), "a": np.ones(3)}
        path = tmp_path / "ordered.params"
        save_params(path, state)
        assert list(load_params(path)) == ["b", "a"]

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ConfigError, match="magic"):
            load_params(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.params"
        save_params(path, {"w": np.arange(32.0)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ConfigError):
            load_params(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "trail.params"
        save_params(path, {"w": np.arange(4.0)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ConfigError):
            load_params(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "ver.params"
        save_params(path, {"w": np.arange(4.0)})
        data = bytearray(path.read_bytes())
        assert data[:8] == PARAMS_MAGIC
        # version-1 weights fit every parameter name and shape, but their
        # heads never read the sine embedding of the search grid
        for version in (1, 99):
            data[8] = version
            path.write_bytes(bytes(data))
            with pytest.raises(ConfigError, match=f"version {version} .* train the model again"):
                load_params(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_params(tmp_path / "nope.params")

    def test_rejects_name_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "name.params"
        path.write_bytes(PARAMS_MAGIC + struct.pack("<III", PARAMS_VERSION, 1, 2) + b"\xff\xfe"
                         + struct.pack("<I", 0) + struct.pack("<d", 1.0))
        with pytest.raises(ConfigError, match="UTF-8"):
            load_params(path)

    def test_rejects_repeated_name(self, tmp_path):
        path = tmp_path / "dup.params"
        save_params(path, {"w": np.arange(4.0), "b": np.zeros(1)})
        # a second record named "w", with the tensor count raised to match
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(PARAMS_MAGIC) + 4, 3)
        data += struct.pack("<I1sII", 1, b"w", 1, 4) + np.full(4, 7.0).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match="tensor 'w' repeated"):
            load_params(path)


class TestPnm:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        gray = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, gray)
        assert np.array_equal(read_pgm(path), gray)

    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, rgb)
        assert np.array_equal(read_ppm(path), rgb)

    def test_pgm_header(self, tmp_path):
        path = tmp_path / "hdr.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        data = path.read_bytes()
        assert data.startswith(b"P5")
        assert b"3 2" in data and b"255" in data

    @pytest.mark.parametrize("blob", [
        b"P6\n2 2\n255\n" + bytes(11),     # truncated pixel data
        b"P6\n4",                           # truncated header
        b"P6\n-4 4\n255\n" + bytes(48),    # negative width
        b"P6\n4 x\n255\n" + bytes(48),     # non-numeric height
        b"P6\n0 4\n255\n",                 # empty image
        b"P5\n2 2\n255\n" + bytes(12),     # wrong magic
        b"P6\n2 2\n65535\n" + bytes(24),   # maxval other than 255
        b"",
    ], ids=["short-pixels", "short-header", "negative-width", "non-numeric-height",
            "empty-image", "wrong-magic", "maxval-65535", "empty-file"])
    def test_malformed_ppm_is_config_error(self, tmp_path, blob):
        path = tmp_path / "bad.ppm"
        path.write_bytes(blob)
        with pytest.raises(ConfigError):
            read_ppm(path)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n255\n\x07\x09")
        assert read_pgm(path).tolist() == [[7, 9]]

    def test_to_uint8_maps_unit_interval(self):
        image = np.array([0.0, 0.5, 1.0, -0.2, 1.7])
        out = to_uint8(image)
        assert out.dtype == np.uint8
        assert out.tolist() == [0, 128, 255, 0, 255]

    def test_to_uint8_rounds_half_to_even(self):
        # half away from zero would give 1, 2 and 3
        image = np.array([0.5, 1.5, 2.5]) / 255.0
        assert (image * 255.0).tolist() == [0.5, 1.5, 2.5]
        assert to_uint8(image).tolist() == [0, 2, 2]


_RNG = np.random.default_rng(3)
_SAVED = {   # loader, writer, value
    "params": (load_params, save_params, {
        "stage1.0.w": _RNG.normal(size=(3, 2)), "bias": np.ones(2), "s": np.float64(2.0)}),
    "ppm": (read_ppm, write_ppm, _RNG.integers(0, 256, (3, 5, 3), dtype=np.uint8)),
    "pgm": (read_pgm, write_pgm, _RNG.integers(0, 256, (4, 3), dtype=np.uint8)),
}


class TestCorruptFiles:
    """A cut or one flipped byte either still loads or gives ConfigError."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(kind=st.sampled_from(sorted(_SAVED)),
           cut=st.none() | st.integers(0, 1 << 16),
           flip=st.none() | st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)))
    def test_cut_or_flipped_file(self, kind, cut, flip):
        loader, writer, value = _SAVED[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / kind
            writer(path, value)
            data = bytearray(path.read_bytes())
            if cut is not None:
                del data[cut % len(data):]
            if flip is not None and data:
                data[flip[0] % len(data)] ^= flip[1]
            path.write_bytes(bytes(data))
            try:
                loader(path)
            except ConfigError:
                pass


class TestCsv:
    def test_roundtrip(self, tmp_path):
        header = ["sequence_id", "frame", "iou", "confidence",
                  "threshold", "updated"]
        rows = [["seq0", "1", "0.812345", "0.734567", "nan", "0"],
                ["seq0", "2", "0.700000", "0.600000", "0.750000", "1"]]
        path = tmp_path / "metrics.csv"
        write_csv(path, header, rows)
        got_header, got_rows = read_csv(path)
        assert got_header == header
        assert got_rows == rows

    def test_byte_identical_on_rewrite(self, tmp_path):
        header = ["a", "b"]
        rows = [["1", "2"], ["3", "4"]]
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        write_csv(p1, header, rows)
        write_csv(p2, header, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_float(self):
        assert format_float(0.5) == "0.500000"
        assert format_float(float("nan")) == "nan"
        assert format_float(1.0 / 3.0) == "0.333333"

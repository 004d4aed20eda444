"""Crop geometry and bilinear resampling tests."""

import numpy as np
import pytest

from ctxtrack.imageops import (box_iou, box_window, crop_resize, crop_window,
                               CropWindow)


def _random_frame(rng, h=48, w=48):
    return rng.uniform(0.0, 1.0, size=(h, w, 3))


def reference_crop_resize(frame, window):
    """Per-corner bilinear resample: four 2-D gathers, one per corner."""
    frame = np.asarray(frame, dtype=np.float64)
    h, w, c = frame.shape
    fill = frame.reshape(-1, c).mean(axis=0)
    out = window.out_size
    step = window.size / out
    xs = window.left + (np.arange(out) + 0.5) * step - 0.5
    ys = window.top + (np.arange(out) + 0.5) * step - 0.5
    ys, xs = np.meshgrid(ys, xs, indexing="ij")

    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = (xs - x0)[..., None]
    fy = (ys - y0)[..., None]

    def fetch(yi, xi):
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        pix = frame[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
        return np.where(valid[..., None], pix, fill)

    top = fetch(y0, x0) * (1 - fx) + fetch(y0, x0 + 1) * fx
    bot = fetch(y0 + 1, x0) * (1 - fx) + fetch(y0 + 1, x0 + 1) * fx
    return top * (1 - fy) + bot * fy


class TestCropWindow:
    def test_scale_and_origin(self):
        win = crop_window((10.0, 20.0), 32.0, 64)
        assert win.scale == 2.0
        assert win.left == pytest.approx(-6.0)
        assert win.top == pytest.approx(4.0)

    def test_box_roundtrip_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            cx, cy = rng.uniform(-50, 50, size=2)
            win = crop_window((cx, cy), float(rng.uniform(5, 80)), 64)
            box = tuple(np.sort(rng.uniform(-40, 90, size=4)).tolist())
            box = (box[0], box[1], box[2], box[3])
            back = win.to_frame(win.to_crop(box))
            assert np.allclose(back, box, atol=1e-9)

    def test_to_crop_worked_example(self):
        win = CropWindow(cx=32.0, cy=32.0, size=64.0, out_size=64)
        assert win.to_crop((0.0, 0.0, 64.0, 64.0)) == (0.0, 0.0, 64.0, 64.0)
        win = CropWindow(cx=32.0, cy=32.0, size=32.0, out_size=64)
        assert win.to_crop((24.0, 24.0, 40.0, 40.0)) == (16.0, 16.0, 48.0, 48.0)

    def test_pixel_roundtrip_error_small(self):
        # Mapping a frame box into a crop and back costs no accuracy;
        # quantizing the crop box to whole pixels costs at most one crop
        # pixel per edge, which is bounded in frame pixels by 1 / scale.
        rng = np.random.default_rng(1)
        for _ in range(50):
            box = (20.0, 24.0, 44.0, 48.0)
            win = box_window(box, 2.0, 64)
            crop_box = np.array(win.to_crop(box))
            rounded = np.round(crop_box)
            back = np.array(win.to_frame(tuple(rounded)))
            assert np.max(np.abs(back - np.array(box))) <= 1.0 / win.scale + 1e-9
            box = tuple(np.sort(rng.uniform(0, 60, size=4)).tolist())
            if box[2] - box[0] < 1 or box[3] - box[1] < 1:
                continue
            win = box_window(box, 2.0, 64)
            rounded = tuple(np.round(np.array(win.to_crop(box))))
            back = np.array(win.to_frame(rounded))
            assert np.max(np.abs(back - np.array(box))) <= 1.0 / win.scale + 1e-9

    def test_box_window_side(self):
        win = box_window((0.0, 0.0, 8.0, 2.0), 2.0, 32)
        assert win.size == pytest.approx(8.0)
        assert (win.cx, win.cy) == (4.0, 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            crop_window((0, 0), 0.0, 64)
        with pytest.raises(ValueError, match="multiple of 16"):
            crop_window((0, 0), 10.0, 60)
        with pytest.raises(ValueError, match="degenerate"):
            box_window((5.0, 5.0, 5.0, 9.0), 2.0, 64)
        with pytest.raises(ValueError, match="context"):
            box_window((0.0, 0.0, 4.0, 4.0), -1.0, 64)


class TestCropResize:
    def test_identity_crop_reproduces_frame(self):
        rng = np.random.default_rng(2)
        frame = _random_frame(rng, 64, 64)
        win = CropWindow(cx=32.0, cy=32.0, size=64.0, out_size=64)
        out = crop_resize(frame, win)
        assert np.allclose(out, frame, atol=1e-12)

    def test_constant_frame_stays_constant(self):
        frame = np.full((48, 48, 3), 0.37)
        win = crop_window((10.0, 30.0), 55.0, 32)
        out = crop_resize(frame, win)
        assert np.allclose(out, 0.37, atol=1e-12)

    def test_axis_aligned_2x_upsample_interpolates(self):
        # A horizontal ramp sampled at 2x: interior output pixels land at
        # quarter offsets between source centers.
        frame = np.zeros((4, 4, 1))
        frame[:, :, 0] = np.arange(4.0)
        win = CropWindow(cx=2.0, cy=2.0, size=4.0, out_size=16)
        out = crop_resize(frame, win)
        # Output pixel 4 center maps to source x = (4 + 0.5) * 0.25 - 0.5 = 0.625.
        assert out[8, 4, 0] == pytest.approx(0.625)

    def test_fully_outside_window_is_mean_fill(self):
        rng = np.random.default_rng(3)
        frame = _random_frame(rng, 32, 32)
        fill = frame.reshape(-1, 3).mean(axis=0)
        win = crop_window((-500.0, -500.0), 40.0, 32)
        out = crop_resize(frame, win)
        assert np.allclose(out, fill[None, None, :], atol=1e-12)

    def test_partial_fill_uses_mean_color(self):
        frame = np.full((32, 32, 3), 0.8)
        win = crop_window((0.0, 16.0), 32.0, 32)   # left half outside
        out = crop_resize(frame, win)
        # Mean of a constant frame equals the constant, so fill blends to
        # the same value everywhere.
        assert np.allclose(out, 0.8, atol=1e-12)

    def test_output_shape_and_dtype(self):
        frame = np.zeros((32, 48, 3))
        out = crop_resize(frame, crop_window((10, 10), 20.0, 64))
        assert out.shape == (64, 64, 3)
        assert out.dtype == np.float64

    def test_rejects_non_image(self):
        with pytest.raises(ValueError, match="frame"):
            crop_resize(np.zeros((8, 8)), crop_window((2, 2), 4.0, 16))

    def test_downsample_averages_region(self):
        # Shrinking a checkerboard far below its cell size approaches the
        # global mean.
        frame = np.zeros((64, 64, 1))
        frame[::2, :, 0] = 1.0
        win = CropWindow(cx=32.0, cy=32.0, size=64.0, out_size=16)
        out = crop_resize(frame, win)
        assert abs(out.mean() - 0.5) < 0.05


    def test_matches_per_corner_reference_bit_for_bit(self):
        rng = np.random.default_rng(7)
        kinds = ("inside", "off_frame", "outside", "sub_pixel", "up", "down")
        for i in range(600):
            kind = kinds[i % len(kinds)]
            h, w = (int(v) for v in rng.integers(8, 97, size=2))
            frame = rng.uniform(0.0, 1.0, size=(h, w, int(rng.integers(1, 4))))
            out_size = (16, 64, 224)[i % 3]
            cx, cy = rng.uniform(0.0, w), rng.uniform(0.0, h)
            size = rng.uniform(4.0, 1.5 * max(h, w))
            if kind == "off_frame":      # straddles an edge
                cx, cy = rng.uniform(-0.5, 0.5) * w, rng.uniform(-0.5, 1.5) * h
            elif kind == "outside":      # no sample lands on the frame
                cx, cy = -3.0 * w - size, rng.uniform(-2.0, 3.0) * h
            elif kind == "sub_pixel":
                size = rng.uniform(0.05, 1.0)
            elif kind == "up":           # more output than source pixels
                size = rng.uniform(1.0, out_size / 2.0)
            elif kind == "down":
                size = rng.uniform(2.0 * out_size, 4.0 * out_size)
            win = CropWindow(cx=float(cx), cy=float(cy), size=float(size),
                             out_size=out_size)
            assert crop_resize(frame, win).tobytes() == \
                reference_crop_resize(frame, win).tobytes(), (i, kind, win)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("cx, size", [
        (float("nan"), 32.0), (float("inf"), 32.0), (16.0, float("inf")),
        (1e19, 32.0), (-1e19, 32.0), (16.0, 1e20)])
    def test_rejects_samples_outside_int64_indices(self, cx, size):
        frame = np.zeros((32, 32, 3))
        with pytest.raises(ValueError, match="int64"):
            crop_resize(frame, CropWindow(cx=cx, cy=16.0, size=size, out_size=16))

    def test_samples_near_int64_limit_still_crop(self):
        # 2**62 is far outside any frame but inside int64 indices
        frame = np.full((8, 8, 3), 0.25)
        out = crop_resize(frame, CropWindow(cx=2.0 ** 62, cy=4.0, size=8.0,
                                            out_size=16))
        assert np.all(out == 0.25)


class TestBoxIoU:
    def test_identical_boxes(self):
        assert box_iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0

    def test_worked_example(self):
        # 2x2 overlap of two 4x4 boxes: 4 / (16 + 16 - 4).
        assert box_iou((0, 0, 4, 4), (2, 2, 6, 6)) == pytest.approx(4 / 28)

    def test_disjoint_and_degenerate(self):
        assert box_iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0
        assert box_iou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0
        assert box_iou((2, 2, 1, 1), (0, 0, 4, 4)) == 0.0

"""Acceptance gate: ten numbered end-to-end checks with pinned tolerances.

Each test prints a single PASS/FAIL line describing the property, the
measured value, and its bound, then asserts the same condition. Run with
`pytest -s tests/test_acceptance.py` to see the lines on passing runs.
"""

import json
import time

import numpy as np
import pytest

from reference_attention import reference_block
from reference_ops import coords, single_layout, smoothed_l1, zero_tables

from ctxtrack.attention import CrossFrameAttention
from ctxtrack.backbone import ltrb_map
from ctxtrack.cli import main
from ctxtrack.heads import (_ltrb_to_boxes_tensor, giou_loss, total_loss,
                            tracking_loss, varifocal_loss)
from ctxtrack.model import STRIDE, TrackerNet, toy_spec
from ctxtrack.positional import PairwiseRegionBias, segment_layout
from ctxtrack.synthetic import SequenceConfig, gen_sequence
from ctxtrack.tensor import Tensor, as_tensor
from ctxtrack.tracker import TrackConfig, compute_metrics, run_tracker, \
    simulate_updates
from ctxtrack.train import TrainConfig, toy_train
from ctxtrack.update import ConfidenceHistory


def _report(ok: bool, text: str) -> bool:
    print(("PASS: " if ok else "FAIL: ") + text, flush=True)
    return ok


def test_01_single_segment_attention_matches_vanilla_reference():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))          # L = h*w <= 16
        heads = int(rng.choice([1, 2, 4]))
        head_dim = int(rng.integers(1, 32 // heads + 1))
        dim = heads * head_dim               # dim <= 32
        layout = single_layout("search", h, w)
        layer = CrossFrameAttention(layout, dim, heads, rng)
        for table in layer.abs_bias.tables:
            table.data[...] = 0.0
        zero_tables(layer.rel_bias)
        tokens = rng.normal(size=(h * w, dim))
        out = layer(Tensor(tokens)).data
        params = {k: v.data for k, v in layer.parameters().items()}
        ref = reference_block(tokens, params, heads=heads,
                              scale=1.0 / np.sqrt(2.0 * head_dim))
        worst = max(worst, float(np.max(np.abs(out - ref))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    assert _report(ok, "cross-frame attention with one segment and zero "
                       f"positional tables matches an independent vanilla "
                       f"block: max |diff| {worst:.2e} (bound 1e-12) over "
                       f"100 instances in {elapsed:.1f}s (bound 10s)")


def test_02_full_model_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    net = TrackerNet(toy_spec(), rng)        # token grids 2x2/4x4/4x4
    target = rng.uniform(size=(32, 32, 3))
    previous = rng.uniform(size=(64, 64, 3))
    search = rng.uniform(size=(64, 64, 3))
    prev_box = (18.0, 14.0, 46.0, 50.0)
    gt = (20.0, 12.0, 52.0, 44.0)

    outputs = net.forward(net.encode([target, previous, search], prev_box))
    total, _, tgt = tracking_loss(outputs, gt)
    for p in net.parameters().values():
        p.grad = None
    total.backward()

    # The IoU-aware classification targets are treated as constants by the
    # backward pass, so the finite-difference probe must hold them fixed
    # at their base-point values as well.
    q = tgt.q
    mask = tgt.positives.astype(np.float64)
    gt_grid = tuple(v / STRIDE for v in gt)

    def frozen_loss() -> float:
        o = net.forward(net.encode([target, previous, search], prev_box))
        cls_term = varifocal_loss(o.cls, q)
        boxes = _ltrb_to_boxes_tensor(o.reg)
        giou_term = (giou_loss(boxes, gt_grid) * mask).sum() / mask.sum()
        l1_term = smoothed_l1(o.reg.data, gt, tgt.positives)
        return float((cls_term * 1.5 + giou_term * 1.5).data) + l1_term

    params = net.parameters()
    entries = [(name, i) for name, p in sorted(params.items())
               for i in range(p.data.size)]
    picks = np.random.default_rng(2).choice(len(entries), size=200,
                                            replace=False)
    eps = 1e-4
    worst = 0.0
    for pick in picks:
        name, i = entries[int(pick)]
        p = params[name]
        base = p.data.flat[i]
        p.data.flat[i] = base + eps
        up = frozen_loss()
        p.data.flat[i] = base - eps
        down = frozen_loss()
        p.data.flat[i] = base
        fd = (up - down) / (2.0 * eps)
        an = p.grad.flat[i] if p.grad is not None else 0.0
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-5)
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed < 300.0
    assert _report(ok, "full-model loss gradients match central finite "
                       f"differences: worst relative error {worst:.2e} "
                       f"(bound 1e-3) over 200 sampled parameter entries "
                       f"in {elapsed:.0f}s (bound 300s)")


def test_03_penalized_mean_matches_brute_force():
    rng = np.random.default_rng(2)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        values = rng.uniform(size=n).tolist()
        history = ConfidenceHistory()
        for v in values:
            history.append(v)
        incremental = history.penalized_mean()
        brute = sum(sum(values[:k + 1]) / (k + 1) for k in range(n)) / n
        worst = max(worst, abs(incremental - brute))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _report(ok, "incremental penalized mean matches the brute-force "
                       f"nested double sum: max |diff| {worst:.2e} (bound "
                       f"1e-10) over 1000 traces of length <= 200 in "
                       f"{elapsed:.1f}s (bound 5s)")


def test_04_region_bias_assembly_matches_per_pair_lookup():
    rng = np.random.default_rng(3)
    start = time.monotonic()
    exact = True
    for _ in range(20):
        grids = [(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
                 for _ in range(3)]
        layout = segment_layout(*grids)
        heads = int(rng.choice([1, 2, 3]))
        bias_mod = PairwiseRegionBias(layout, heads, rng)
        assembled = bias_mod.bias().data
        n = layout.length
        expected = np.empty((heads, n, n))
        for i in range(n):
            qseg, qr, qc = coords(layout, i)
            for j in range(n):
                kseg, kr, kc = coords(layout, j)
                table = bias_mod.table(qseg, kseg).data
                hk, wk = layout.grid(kseg)
                expected[:, i, j] = table[:, qr - kr + hk - 1,
                                          qc - kc + wk - 1]
        exact = exact and np.array_equal(assembled, expected)
    elapsed = time.monotonic() - start
    ok = exact and elapsed < 10.0
    assert _report(ok, "vectorized 9-region relative-bias assembly equals "
                       f"brute-force per-pair lookup exactly on 20 random "
                       f"layouts in {elapsed:.1f}s (bound 10s)")


def test_05_box_offset_encode_decode_roundtrip():
    rng = np.random.default_rng(4)
    grid = (4, 4)                            # 64x64 frame at stride 16
    exact = True
    for _ in range(200):
        xs = np.sort(rng.uniform(0.0, 64.0, size=2))
        ys = np.sort(rng.uniform(0.0, 64.0, size=2))
        box = (float(xs[0]), float(ys[0]), float(xs[1]), float(ys[1]))
        if box[2] - box[0] <= 0 or box[3] - box[1] <= 0:
            continue
        offsets = ltrb_map(box, grid)
        for ky in range(grid[0]):
            for kx in range(grid[1]):
                left, top, right, bottom = offsets[ky, kx]
                decoded = ((kx - left) * STRIDE, (ky - top) * STRIDE,
                           (kx + right) * STRIDE, (ky + bottom) * STRIDE)
                exact = exact and decoded == box
    worst_px = 0.0
    for _ in range(200):
        point = rng.uniform(0.0, 64.0, size=2)
        cell_center = (np.floor(point / STRIDE) + 0.5) * STRIDE
        worst_px = max(worst_px, float(np.max(np.abs(cell_center - point))))
    ok = exact and worst_px <= 8.0
    assert _report(ok, "side-offset encoding decodes back to every box "
                       "exactly at every grid position, and pixel-to-cell "
                       f"quantization stays within {worst_px:.2f}px "
                       "(bound 8px, half the stride)")


def test_06_loss_point_values():
    vf = float(varifocal_loss(Tensor(np.array([0.5])), np.array([0.0])).data)
    vf_ok = abs(vf - 0.12997) <= 1e-4
    gl = float(giou_loss(Tensor(np.array([0.0, 0.0, 1.0, 1.0])),
                         (2.0, 2.0, 3.0, 3.0)).data)
    gl_ok = abs(gl - 16.0 / 9.0) <= 1e-9
    tot = float(total_loss(as_tensor(0.2), as_tensor(0.4)).data)
    # "Exactly" holds in real arithmetic; in doubles the strongest claim is
    # bit-equality with the defining weighted sum.
    tot_ok = tot == 1.5 * 0.2 + 1.5 * 0.4 and abs(tot - 0.9) < 1e-15
    ok = vf_ok and gl_ok and tot_ok
    assert _report(ok, f"loss point values: varifocal(p=0.5, q=0) = {vf:.6f}"
                       f" (0.12997 +- 1e-4), giou loss = {gl:.10f} (16/9 +- "
                       f"1e-9), weighted total(0.2, 0.4) = {tot!r} "
                       "(1.5*0.2 + 1.5*0.4, within 1e-15 of 0.9)")


# test_07's scene, training and bounds; `tools/parity.py --ulp-sweep` reads
# them too
OVERFIT_SEQUENCE = SequenceConfig(seed=0, num_frames=20, frame_size=96,
                                  box_size=16.0, step_sigma=0.0,
                                  num_distractors=0)
OVERFIT_TRAIN = TrainConfig(steps=500, seed=0, lr=4e-3, final_lr_scale=0.05,
                            prev_center_jitter=0.0, prev_scale_jitter=0.0,
                            search_center_jitter=0.0, search_scale_jitter=0.0)
OVERFIT_MAX_RATIO = 0.20   # final loss over initial loss
OVERFIT_MIN_AO = 0.5


def test_07_overfit_baseline_converges_and_tracks():
    start = time.monotonic()
    sequence = gen_sequence(OVERFIT_SEQUENCE)
    net = TrackerNet(toy_spec(), np.random.default_rng(0))
    losses = toy_train(net, sequence, OVERFIT_TRAIN)
    final = float(np.mean(losses[-10:]))
    ratio = final / losses[0]
    records = run_tracker(net, sequence, TrackConfig())
    metrics = compute_metrics([r.iou for r in records])
    elapsed = time.monotonic() - start
    ok = (ratio <= OVERFIT_MAX_RATIO and metrics.ao >= OVERFIT_MIN_AO
          and elapsed < 600.0)
    assert _report(ok, "overfit baseline: 500 steps on a 20-frame sequence "
                       f"drop the loss to {100 * ratio:.1f}% of its initial "
                       f"value (bound {100 * OVERFIT_MAX_RATIO:.0f}%), then "
                       f"tracking scores AO {metrics.ao:.3f} (bound "
                       f"{OVERFIT_MIN_AO}), in {elapsed:.0f}s (bound 600s)")


def _drop_trace(rng: np.random.Generator):
    """High-confidence prefix, then 30 low frames with a few noisy spikes."""
    prefix = 0.8 + rng.uniform(-0.05, 0.05, size=8)
    drop = 0.12 + rng.uniform(-0.1, 0.1, size=30)
    spikes = rng.choice(np.arange(14, 30), size=3, replace=False)
    drop[spikes] = rng.uniform(0.40, 0.46, size=3)
    return np.concatenate([prefix, drop]).tolist(), len(prefix)


def test_08_update_policies_order_as_expected():
    drop_ok = mean_ok = stable_ok = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        trace, window_start = _drop_trace(rng)
        pm = simulate_updates(trace, "p-mean")
        mn = simulate_updates(trace, "mean")
        drop_ok += sum(d.update for d in pm[window_start:]) == 0
        mean_ok += sum(d.update for d in mn[window_start:]) >= 1

        stable = (0.8 + np.random.default_rng(10_000 + seed)
                  .uniform(-0.1, 0.1, size=40)).tolist()
        pm_n = sum(d.update for d in simulate_updates(stable, "p-mean"))
        mn_n = sum(d.update for d in simulate_updates(stable, "mean"))
        stable_ok += mn_n >= pm_n
    ok = drop_ok == 100 and mean_ok == 100 and stable_ok == 100
    assert _report(ok, "update-policy ordering: during a confidence "
                       f"collapse the penalized mean issued zero updates in "
                       f"{drop_ok}/100 traces while the plain mean issued "
                       f">= 1 in {mean_ok}/100; on stable traces the plain "
                       f"mean updated at least as often in {stable_ok}/100")


def test_09_track_runs_are_byte_identical(tmp_path):
    config = {"train": {"steps": 1},
              "sequence": {"num_frames": 6, "frame_size": 64,
                           "box_size": 12, "num_distractors": 1}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["track", "--config", str(config_path),
                 "--metrics", str(first)]) == 0
    assert main(["track", "--config", str(config_path),
                 "--metrics", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    assert _report(identical, "two `track` runs with the same config and "
                              "seed wrote byte-identical metrics CSVs "
                              f"({first.stat().st_size} bytes)")


def test_10_penalized_mean_dominates_on_decreasing_traces():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        values = np.unique(rng.uniform(size=n))[::-1]   # strictly decreasing
        history = ConfidenceHistory()
        for v in values:
            history.append(float(v))
            if history.penalized_mean() < history.mean() - 1e-12:
                ok = False
    assert _report(ok, "on 1000 strictly decreasing traces the penalized "
                       "mean threshold stayed >= the plain mean threshold "
                       "at every prefix")

"""The benchmark tracer patches ctxtrack callables by name; each name must
exist, and each traced kind must see calls, or its metric reads 0."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ctxtrack.model import TrackerNet, toy_spec
from ctxtrack.synthetic import SequenceConfig, gen_sequence
from ctxtrack.tracker import TrackConfig, run_tracker
from ctxtrack.train import TrainConfig, toy_train

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _id(entry):
    owner, attr, _ = entry
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@pytest.mark.parametrize("entry", tracing._FUNCTIONS, ids=_id)
def test_traced_function_exists(entry):
    owner, attr, _ = entry
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("entry", tracing._METHODS, ids=_id)
def test_traced_method_exists(entry):
    owner, attr, _ = entry
    # the tracer patches the class's own attribute, not an inherited one
    assert callable(owner.__dict__.get(attr))


def test_every_traced_kind_sees_calls():
    sequence = gen_sequence(SequenceConfig(seed=0, num_frames=4))
    tracer = tracing.Tracer()
    with tracer:
        net = TrackerNet(toy_spec(), np.random.default_rng(0))
        toy_train(net, sequence, TrainConfig(steps=1))
        run_tracker(net, sequence, TrackConfig())
    seen = {span[tracing.KIND] for span in tracer.spans}
    kinds = {kind for _, _, kind in tracing._FUNCTIONS + tracing._METHODS}
    assert kinds <= seen, sorted(kinds - seen)

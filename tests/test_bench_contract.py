"""The traced benchmark's view of attribution and of the CLI.

perfbench/tracer.py wraps lungsound functions by the names their
callers import and reads a few model attributes. These tests run one
Grad-CAM call and one IG call under the tracer, and the CLI's evaluate
and attribute commands, so that a rename in ``src/`` or a command bound
before the tracer patches it fails here rather than in a traced
benchmark run, and check that attribution computes no parameter
gradient.
"""

import contextlib
import io
import sys
from dataclasses import asdict
from importlib import import_module
from pathlib import Path

import numpy as np

from lungsound.cli import main
from lungsound.data import SynthSpec, synth_corpus
from lungsound.io import save_checkpoint
from lungsound.model import CnnTsa, ModelConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.tracer import Tracer  # noqa: E402

fbs = import_module("lungsound.fbs")


def traced_attribution():
    model = CnnTsa(ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8), seed=0)
    specs = synth_corpus(
        SynthSpec(n_classes=2, n_bands=8, n_frames=8, n_per_class=3, snr_db=10.0, seed=0)
    )
    tracer = Tracer()
    with tracer.active():
        maps = fbs.gradcam(model, specs, 1)
        fbs.integrated_gradients(model, specs[0], 1, baseline=np.zeros((8, 8)), steps=3)
    return tracer, model, maps


def test_spans_and_no_parameter_gradients():
    tracer, model, maps = traced_attribution()
    assert len(maps) == 6
    assert tracer.names.count("attribution.gradcam") == 1
    assert tracer.names.count("attribution.ig") == 1
    assert "tensor.backward" in tracer.names
    metrics = tracer.layer_metrics(0.0)
    assert metrics["attribution.param_grad_mb"] == 0
    assert metrics["attribution.useful_grad_ratio"] > 0
    assert all(p.grad is None for p in model.params.values())


def test_conv_backward_only_under_ig():
    tracer, _, _ = traced_attribution()
    conv_bwd = [i for i, n in enumerate(tracer.names) if n == "tensor.conv2d.bwd"]
    assert conv_bwd
    assert all(tracer._ancestor(i, "attribution.ig") for i in conv_bwd)


def test_cli_commands_traced(tmp_path):
    # main looks the commands up when it runs, so the tracer's wrappers are what it calls
    model = CnnTsa(ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8), seed=0)
    save_checkpoint(tmp_path / "m.ckpt", model.state_dict(), asdict(model.cfg), {"task": "multiclass"})
    ckpt = ["--checkpoint", "m.ckpt", "--cache", "s.cache"]
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--workdir", str(tmp_path), "preprocess", "--dataset", "synth", "--out", "s.cache",
                     "--synth-per-class", "3", "--synth-bands", "8", "--synth-frames", "8"]) == 0
        with tracer.active():
            assert main(["--workdir", str(tmp_path), "evaluate", *ckpt, "--split", "all",
                         "--out-dir", "ev"]) == 0
            assert main(["--workdir", str(tmp_path), "attribute", *ckpt, "--class-id", "1",
                         "--out-dir", "at"]) == 0
    for name, calls in [("cli.evaluate", 1), ("cli.attribute", 1), ("train.evaluate", 1),
                        ("attribution.gradcam", 1), ("io.load_checkpoint", 2), ("io.read_spec_cache", 2)]:
        assert tracer.names.count(name) == calls, name


def test_wrappers_removed_on_exit():
    original = fbs.gradcam
    traced_attribution()
    assert fbs.gradcam is original

"""Span tracer for the traced benchmark run.

The tracer wraps lungsound's public functions as their callers
imported them (``lungsound.model.conv2d``, ``lungsound.fbs.gradcam``,
``lungsound.cli.read_wav`` ...) and the backward closure of every tensor
the engine builds. Nothing under ``src/`` changes: the wrappers are
installed on entry to :meth:`Tracer.active` and removed on exit, so the
untraced passes of the same process run the original code.

Each span records a name, start, end and the index of its parent span.
Spans stay in memory; :meth:`Tracer.write_trace_events` writes them as
Trace Event Format JSON (open it at https://ui.perfetto.dev) and
:meth:`Tracer.layer_metrics` reduces them to the per-layer metrics.
Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

import numpy as np

from lungsound.model import CnnTsa
from lungsound.tensor import Tensor

# lungsound re-exports the function train(), which hides the submodule
# of the same name from attribute access, so modules come from import_module
cli, data, fbs, lsio, model, tensor, train = (
    import_module(f"lungsound.{m}")
    for m in ("cli", "data", "fbs", "io", "model", "tensor", "train")
)

MB = 1 << 20
SUBNORMAL = np.finfo(np.float32).tiny  # nonzero float32 below this is subnormal

# Tensor ops with their own forward/backward metrics; the backward
# closure of every other op (add, mul, relu, reshape ...) is traced as
# tensor.other.bwd so that Tensor.backward's self time excludes it.
TENSOR_OPS = ("conv2d", "batchnorm2d", "pool2d", "matmul", "softmax", "reduce")

# Spans whose every forward op feeds a Tensor.backward: a train() run (one
# backward per optimizer step) and an attribution map (one per Grad-CAM map,
# one per IG step). tensor.ops_per_step counts only ops built inside them, so
# eval forwards, which never call backward, do not inflate it.
STEP_SPANS = frozenset({"train.train", "attribution.gradcam", "attribution.ig"})

# (module, attribute, span name): each function as its callers imported it.
FUNCTION_SPANS = [
    *[(model, op, f"tensor.{op}") for op in TENSOR_OPS],
    (tensor, "matmul", "tensor.matmul"),  # Tensor.__matmul__
    (tensor, "reduce", "tensor.reduce"),  # Tensor.sum/mean/max
    (train, "softmax", "tensor.softmax"),  # wcce_loss
    (train, "adam_step", "optim.adam_step"),
    (train, "_augment_values", "train.augment"),
    (train, "wcce_loss", "train.wcce_loss"),
    (train, "train", "train.train"),
    (fbs, "train", "train.train"),
    (train, "evaluate", "train.evaluate"),
    (fbs, "evaluate", "train.evaluate"),
    (cli, "evaluate", "train.evaluate"),
    (fbs, "gradcam", "attribution.gradcam"),
    (cli, "gradcam", "attribution.gradcam"),
    (fbs, "integrated_gradients", "attribution.ig"),
    (cli, "integrated_gradients", "attribution.ig"),
    (fbs, "fbs_importance", "fbs.importance"),
    (fbs, "fbs_backward", "fbs.backward"),
    (fbs, "patient_kfold", "fbs.patient_kfold"),
    (fbs, "apply_mask", "masks.apply_mask"),
    (train, "apply_mask", "masks.apply_mask"),
    (cli, "apply_mask", "masks.apply_mask"),
    (cli, "read_wav", "audio.read_wav"),
    (cli, "standardize", "audio.standardize"),
    (cli, "fit_duration", "audio.fit_duration"),
    (cli, "mel_spectrogram", "audio.mel_spectrogram"),
    (cli, "parse_sprsound", "data.parse_sprsound"),
    (data, "synth_corpus", "data.synth_corpus"),
    (cli, "write_spec_cache", "io.write_spec_cache"),
    (cli, "read_spec_cache", "io.read_spec_cache"),
    (cli, "save_checkpoint", "io.save_checkpoint"),
    (lsio, "save_checkpoint", "io.save_checkpoint"),
    (cli, "load_checkpoint", "io.load_checkpoint"),
    (cli, "cmd_preprocess", "cli.preprocess"),
    (cli, "cmd_evaluate", "cli.evaluate"),
    (cli, "cmd_attribute", "cli.attribute"),
]

# name -> (unit, better); the order is the order of the per-layer report.
LAYER_METRICS = {
    "tensor.conv2d.fwd_s": ("s", "lower"),
    "tensor.conv2d.bwd_s": ("s", "lower"),
    "tensor.conv2d.calls": ("count", "lower"),
    "tensor.conv2d.gflop": ("GFLOP", "lower"),
    "tensor.conv2d.im2col_mb": ("MB", "lower"),
    "tensor.conv2d.subnormal_grad_ratio": ("ratio", "lower"),
    **{
        f"tensor.{op}.{d}_s": ("s", "lower")
        for op in TENSOR_OPS[1:]
        for d in ("fwd", "bwd")
    },
    "tensor.backward.self_s": ("s", "lower"),
    "tensor.ops_per_step": ("count", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.forward_calls": ("count", "lower"),
    "optim.adam_step_s": ("s", "lower"),
    "train.step_s": ("s", "lower"),
    "train.augment_s": ("s", "lower"),
    "train.wcce_loss_s": ("s", "lower"),
    "train.evaluate_s": ("s", "lower"),
    "train.train_calls": ("count", "lower"),
    "attribution.gradcam_s": ("s", "lower"),
    "attribution.ig_s": ("s", "lower"),
    "attribution.param_grad_mb": ("MB", "lower"),
    "attribution.useful_grad_ratio": ("ratio", "higher"),
    "fbs.cv_trainings": ("count", "lower"),
    "fbs.train_s": ("s", "lower"),
    "fbs.evaluate_s": ("s", "lower"),
    "fbs.attribution_s": ("s", "lower"),
    "fbs.patient_kfold_s": ("s", "lower"),
    "fbs.self_s": ("s", "lower"),
    "masks.apply_mask_s": ("s", "lower"),
    "masks.apply_mask_calls": ("count", "lower"),
    "masks.copied_mb": ("MB", "lower"),
    "audio.read_wav_s": ("s", "lower"),
    "audio.standardize_s": ("s", "lower"),
    "audio.fit_duration_s": ("s", "lower"),
    "audio.mel_spectrogram_s": ("s", "lower"),
    "data.parse_sprsound_s": ("s", "lower"),
    "data.synth_corpus_s": ("s", "lower"),
    "io.write_spec_cache_s": ("s", "lower"),
    "io.read_spec_cache_s": ("s", "lower"),
    "io.save_checkpoint_s": ("s", "lower"),
    "io.load_checkpoint_s": ("s", "lower"),
    "io.cache_mb": ("MB", "lower"),
    "cli.preprocess.self_s": ("s", "lower"),
    "cli.evaluate.self_s": ("s", "lower"),
    "cli.attribute.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _op_name(closure) -> str:
    """conv2d.<locals>.bwd -> conv2d; Tensor.__add__.<locals>.bwd -> other."""
    owner = getattr(closure, "__qualname__", "").split(".<locals>")[0]
    return owner if owner in TENSOR_OPS else "other"


class Tracer:
    """Spans in memory plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.child_ns: list[int] = []
        self._stack: list[int] = []
        self._step_depth = 0  # open STEP_SPANS
        self.counters: dict[str, float] = defaultdict(float)
        self._attr_params: set[int] | None = None  # params of the model being attributed

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_ns.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        if name in STEP_SPANS:
            self._step_depth += 1
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self.ends[idx] = end
        self._stack.pop()
        if self.names[idx] in STEP_SPANS:
            self._step_depth -= 1
        parent = self.parents[idx]
        if parent >= 0:
            self.child_ns[parent] += end - self.starts[idx]

    def wrap(self, name: str, fn, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_exit is not None:
                on_exit(args, kwargs, out)
            return out

        return traced

    # -- counters measured where the work happens -------------------------------

    def _conv_exit(self, args, kwargs, out):
        x, weight = args[0], args[1]
        b, co, ho, wo = out.shape
        _, ci, kh, kw = weight.shape
        patch = ci * kh * kw
        self.counters["conv2d.flop"] += 2.0 * b * co * ho * wo * patch
        self.counters["conv2d.im2col_bytes"] += b * ho * wo * patch * x.data.itemsize

    def _mask_exit(self, args, kwargs, out):
        if out is not args[0]:
            self.counters["masks.copied_bytes"] += out.values.nbytes

    def _cache_exit(self, args, kwargs, out):
        self.counters["io.cache_bytes"] += os.path.getsize(args[0])

    def _fbs_exit(self, args, kwargs, out):
        self.counters["fbs.cv_trainings"] += out.train_runs

    def _attribution(self, fn, name: str):
        """Span an attribution call and count the gradient bytes it makes.

        Computed bytes are every gradient array handed to Tensor._accum
        during the call; the method reads the last conv activation's
        gradient (Grad-CAM) or the input's gradient at each step (IG).
        """
        tracer = self
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(model, spec, class_id, *args, **kwargs):
            tracer._attr_params = {id(p) for p in model.params.values()}
            try:
                out = traced(model, spec, class_id, *args, **kwargs)
            finally:
                tracer._attr_params = None
            if name == "attribution.gradcam":
                useful = model.last_conv_activation.data.nbytes
            else:
                steps = kwargs.get("steps", args[1] if len(args) > 1 else 50)
                useful = spec.values.size * np.dtype(np.float32).itemsize * steps
            tracer.counters["attribution.useful_bytes"] += useful
            return out

        return counted

    # -- installation ---------------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement) for every traced call site."""
        exits = {
            "tensor.conv2d": self._conv_exit,
            "masks.apply_mask": self._mask_exit,
            "io.write_spec_cache": self._cache_exit,
            "fbs.importance": self._fbs_exit,
            "fbs.backward": self._fbs_exit,
        }
        for module, attr, name in FUNCTION_SPANS:
            fn = getattr(module, attr)
            if name.startswith("attribution."):
                yield module, attr, self._attribution(fn, name)
            else:
                yield module, attr, self.wrap(name, fn, exits.get(name))
        forward = self.wrap("model.forward", CnnTsa.forward)
        yield CnnTsa, "forward", forward
        yield CnnTsa, "__call__", forward
        yield Tensor, "backward", self.wrap("tensor.backward", Tensor.backward)

        tracer = self
        from_op = Tensor._from_op
        accum = Tensor._accum

        def traced_from_op(data, parents, backward):
            if tracer._step_depth:
                tracer.counters["tensor.step_ops"] += 1
            if backward is None:
                return from_op(data, parents, backward)
            op = _op_name(backward)
            name = f"tensor.{op}.bwd"

            def traced_backward(g):
                if op == "conv2d":  # in a span of its own, so no op's self time grows
                    idx = tracer._open("trace.subnormal_count")
                    tracer.counters["conv2d.grad_values"] += g.size
                    tracer.counters["conv2d.subnormal_values"] += np.count_nonzero(
                        (np.abs(g) < SUBNORMAL) & (g != 0)
                    )
                    tracer._close(idx)
                idx = tracer._open(name)
                try:
                    backward(g)
                finally:
                    tracer._close(idx)

            return from_op(data, parents, traced_backward)

        def counted_accum(self_tensor, grad):
            params = tracer._attr_params
            if params is not None:
                tracer.counters["attribution.computed_bytes"] += grad.nbytes
                if id(self_tensor) in params:
                    tracer.counters["attribution.param_grad_bytes"] += grad.nbytes
            return accum(self_tensor, grad)

        yield Tensor, "_from_op", staticmethod(traced_from_op)
        yield Tensor, "_accum", counted_accum

    @contextmanager
    def active(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, replacement in list(self._patches()):
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------------------

    def _ancestor(self, idx: int, prefix: str) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p].startswith(prefix):
                return True
            p = self.parents[p]
        return False

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        under_fbs = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = (self.ends[i] - self.starts[i]) / 1e9
            total[name] += dur
            self_s[name] += dur - self.child_ns[i] / 1e9
            calls[name] += 1
            if not name.startswith("fbs.") and self._ancestor(i, "fbs."):
                under_fbs[name] += dur
        c = self.counters

        def per(num, den):
            return num / den if den else 0.0

        m = {
            "tensor.conv2d.fwd_s": total["tensor.conv2d"],
            "tensor.conv2d.bwd_s": total["tensor.conv2d.bwd"],
            "tensor.conv2d.calls": calls["tensor.conv2d"],
            "tensor.conv2d.gflop": c["conv2d.flop"] / 1e9,
            "tensor.conv2d.im2col_mb": c["conv2d.im2col_bytes"] / MB,
            "tensor.conv2d.subnormal_grad_ratio": per(
                c["conv2d.subnormal_values"], c["conv2d.grad_values"]
            ),
        }
        for op in TENSOR_OPS[1:]:
            m[f"tensor.{op}.fwd_s"] = total[f"tensor.{op}"]
            m[f"tensor.{op}.bwd_s"] = total[f"tensor.{op}.bwd"]
        maps_gc = calls["attribution.gradcam"]
        maps_ig = calls["attribution.ig"]
        m |= {
            "tensor.backward.self_s": self_s["tensor.backward"],
            "tensor.ops_per_step": per(c["tensor.step_ops"], calls["tensor.backward"]),
            "model.forward_s": self_s["model.forward"],
            "model.forward_calls": calls["model.forward"],
            "optim.adam_step_s": total["optim.adam_step"],
            "train.step_s": per(total["train.train"], calls["optim.adam_step"]),
            "train.augment_s": total["train.augment"],
            "train.wcce_loss_s": total["train.wcce_loss"],
            "train.evaluate_s": total["train.evaluate"],
            "train.train_calls": calls["train.train"],
            "attribution.gradcam_s": per(total["attribution.gradcam"], maps_gc),
            "attribution.ig_s": per(total["attribution.ig"], maps_ig),
            "attribution.param_grad_mb": per(
                c["attribution.param_grad_bytes"] / MB, maps_gc + maps_ig
            ),
            "attribution.useful_grad_ratio": per(
                c["attribution.useful_bytes"], c["attribution.computed_bytes"]
            ),
            "fbs.cv_trainings": c["fbs.cv_trainings"],
            "fbs.train_s": under_fbs["train.train"],
            "fbs.evaluate_s": under_fbs["train.evaluate"],
            "fbs.attribution_s": under_fbs["attribution.gradcam"] + under_fbs["attribution.ig"],
            "fbs.patient_kfold_s": under_fbs["fbs.patient_kfold"],
            "fbs.self_s": self_s["fbs.importance"] + self_s["fbs.backward"],
            "masks.apply_mask_s": total["masks.apply_mask"],
            "masks.apply_mask_calls": calls["masks.apply_mask"],
            "masks.copied_mb": c["masks.copied_bytes"] / MB,
            "audio.read_wav_s": total["audio.read_wav"],
            "audio.standardize_s": total["audio.standardize"],
            "audio.fit_duration_s": total["audio.fit_duration"],
            "audio.mel_spectrogram_s": total["audio.mel_spectrogram"],
            "data.parse_sprsound_s": total["data.parse_sprsound"],
            "data.synth_corpus_s": total["data.synth_corpus"],
            "io.write_spec_cache_s": total["io.write_spec_cache"],
            "io.read_spec_cache_s": total["io.read_spec_cache"],
            "io.save_checkpoint_s": total["io.save_checkpoint"],
            "io.load_checkpoint_s": total["io.load_checkpoint"],
            "io.cache_mb": c["io.cache_bytes"] / MB,
            "cli.preprocess.self_s": self_s["cli.preprocess"],
            "cli.evaluate.self_s": self_s["cli.evaluate"],
            "cli.attribute.self_s": self_s["cli.attribute"],
            "trace.overhead_s": overhead_s,
            "trace.spans": len(self.names),
        }
        return {name: float(m[name]) for name in LAYER_METRICS}

    def write_trace_events(self, path) -> None:
        """Trace Event Format: one complete ("X") event per span, in µs."""
        t0 = min(self.starts) if self.starts else 0
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, name in enumerate(self.names):
                event = {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (self.starts[i] - t0) / 1e3,
                    "dur": (self.ends[i] - self.starts[i]) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {"span": i, "parent": self.parents[i]},
                }
                fh.write(("," if i else "") + json.dumps(event) + "\n")
            fh.write("]}\n")

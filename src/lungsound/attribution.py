"""Signed attribution maps over input spectrograms.

Two backends: Grad-CAM at the last conv layer of the backbone (the
ReLU output of the final block, before pooling), and Integrated
Gradients on the raw input. Both keep the sign of the evidence; no
ReLU clipping and no per-sample normalization, because downstream band
scores average the raw values.

Both run batched and differentiate only what they read. Each call runs
inside one ``tensor.frozen`` block over the model's parameters: no
weight gradient is ever computed, no parameter's ``.grad`` is touched,
and each Winograd kernel is transformed once for the whole call. Grad-CAM
builds no graph for the conv backbone, whose input needs no gradient;
its backward starts at the last conv activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import LOG_FLOOR, Spectrogram
from .data import SpecSet
from .errors import DivergenceError, UnsupportedMethodError
from .tensor import Tensor, frozen

__all__ = [
    "AttributionMap",
    "gradcam",
    "integrated_gradients",
    "band_profile",
    "bilinear_resize",
    "ATTRIBUTION_BATCH",
]

# clips (Grad-CAM) or interpolation steps (IG) per forward pass; 16 is the
# batch of one ICBHI-preset training step, whose full-graph memory peak
# bounds what one IG chunk holds
ATTRIBUTION_BATCH = 16


@dataclass
class AttributionMap:
    """Per-sample relevance, same T x F layout as the input spectrogram."""

    values: np.ndarray  # (T, F), signed float32
    sample_id: str
    class_id: int
    method: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError(f"attribution map must be 2-D, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise DivergenceError(f"{self.method} map of {self.sample_id!r} holds non-finite values")


def bilinear_resize(values: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    """Bilinear interpolation with the align-corners=False convention.

    Source coordinates are sampled at (dst + 0.5) * scale - 0.5 and
    clamped to the valid range, matching the common image-resize
    definition, so corner behavior is exactly testable.
    """
    src = np.asarray(values, dtype=np.float32)
    h, w = src.shape
    oh, ow = out_shape
    if (h, w) == (oh, ow):
        return src.copy()

    def axis_coords(n_src: int, n_dst: int):
        scale = n_src / n_dst
        pos = (np.arange(n_dst, dtype=np.float64) + 0.5) * scale - 0.5
        pos = np.clip(pos, 0.0, n_src - 1.0)
        lo = np.floor(pos).astype(np.int64)
        hi = np.minimum(lo + 1, n_src - 1)
        frac = (pos - lo).astype(np.float32)
        return lo, hi, frac

    r_lo, r_hi, r_f = axis_coords(h, oh)
    c_lo, c_hi, c_f = axis_coords(w, ow)
    top = src[r_lo][:, c_lo] * (1 - c_f) + src[r_lo][:, c_hi] * c_f
    bot = src[r_hi][:, c_lo] * (1 - c_f) + src[r_hi][:, c_hi] * c_f
    return (top * (1 - r_f)[:, None] + bot * r_f[:, None]).astype(np.float32)


def _class_score(logits: Tensor, class_id: int) -> Tensor:
    """Sum over the batch of each row's ``class_id`` logit.

    Rows of the model are independent in eval mode, so the gradient of
    this sum with respect to row b's input is that of row b's logit.
    """
    n_rows, n_classes = logits.shape
    if not 0 <= class_id < n_classes:
        raise ValueError(f"class {class_id} out of range for {n_classes} classes")
    onehot = np.zeros((n_rows, n_classes), dtype=np.float32)
    onehot[:, class_id] = 1.0
    return (logits * Tensor(onehot)).sum()


def gradcam(model, specs: SpecSet, class_id: int) -> list[AttributionMap]:
    """Grad-CAM at the last conv layer, upsampled to the input size.

    Weights are the spatial average of d(score)/d(feature map); the
    weighted feature-map sum keeps its sign and is bilinearly resized
    to T x F. One map per spectrogram, in input order.

    The model must split its forward pass as ``head(features(x))``.
    Clips go through in chunks of ``ATTRIBUTION_BATCH``, all in one
    ``tensor.frozen`` block, so each Winograd kernel is transformed once
    per call: ``features`` builds no graph (``CnnTsa`` runs it depth
    first), then only ``head`` is differentiated, with respect to a
    fresh leaf holding the activation. At a time the call holds one
    chunk's maps and head graph, plus every U.
    """
    if not (hasattr(model, "features") and hasattr(model, "head")):
        raise UnsupportedMethodError(
            "grad-cam needs a model with a convolutional backbone exposing "
            "features() and head()"
        )
    maps = []
    with frozen(model.params.values()):
        for start in range(0, len(specs), ATTRIBUTION_BATCH):
            chunk = slice(start, start + ATTRIBUTION_BATCH)
            feats = model.features(Tensor(specs.clips(chunk)[:, None]))
            act = Tensor(feats.data, requires_grad=True)
            model.last_conv_activation = act  # read by perfbench/tracer.py, not by lungsound
            _class_score(model.head(act), class_id).backward()
            weights = act.grad.mean(axis=(2, 3))  # (B, M): GAP of the gradients
            for clip_id, w, fmaps in zip(specs.clip_ids[chunk], weights, act.data):
                cam = np.tensordot(w, fmaps, axes=(0, 0))  # (h, w), signed
                cam = bilinear_resize(cam, (specs.n_frames, specs.n_bands))
                maps.append(
                    AttributionMap(cam, sample_id=clip_id, class_id=class_id, method="gradcam")
                )
    return maps


def integrated_gradients(
    model,
    spec: Spectrogram,
    class_id: int,
    baseline: np.ndarray | None = None,
    steps: int = 50,
) -> AttributionMap:
    """Integrated Gradients from a baseline spectrogram to the input.

    Right-Riemann approximation with ``steps`` points; the default
    baseline is the all-log-floor (silence) spectrogram. Exact on
    linear models for any step count.

    The interpolation points go through the model in batches of
    ``ATTRIBUTION_BATCH``, all in one ``tensor.frozen`` block, so
    backward computes input gradients only and each Winograd kernel is
    transformed once per call, for every pass.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = spec.values.astype(np.float32)
    if baseline is None:
        base = np.full_like(x, np.float32(math.log(LOG_FLOOR)))
    else:
        base = np.asarray(baseline, dtype=np.float32)
        if base.shape != x.shape:
            raise ValueError(f"baseline shape {base.shape} != input {x.shape}")
    diff = x - base
    total = np.zeros_like(x)
    with frozen(model.params.values()):
        for start in range(1, steps + 1, ATTRIBUTION_BATCH):
            alphas = np.arange(start, min(start + ATTRIBUTION_BATCH, steps + 1)) / steps
            points = base + alphas.astype(np.float32)[:, None, None] * diff
            xt = Tensor(points[:, None, :, :], requires_grad=True)
            _class_score(model.forward(xt, training=False), class_id).backward()
            for g in xt.grad[:, 0]:  # step order, as a per-step loop sums
                total += g
    values = diff * (total / np.float32(steps))
    return AttributionMap(values, sample_id=spec.clip_id, class_id=class_id, method="ig")


def band_profile(attr: AttributionMap) -> np.ndarray:
    """Average the map over time: one signed value per band."""
    return attr.values.mean(axis=0)

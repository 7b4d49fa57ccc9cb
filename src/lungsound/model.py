"""CNN with temporal self-attention for spectrogram classification.

The backbone is a stack of [5x5 conv (stride 1, pad 2) -> batchnorm ->
ReLU -> 2x2 average pool] blocks. Every block runs its batchnorm, ReLU
and pool as one op (``tensor.bn_relu_pool``) whose graph keeps only the
conv output and the op's output, so a training step holds no batchnorm
map, and no ReLU map but the last block's: that block's op skips the
pool, Grad-CAM reads its ReLU output, and ``head`` pools it. The op is
also handed the conv's input and weight, so that where the engine's
rule allows (the first block of the ICBHI and SPRSound presets in
training) its graph keeps those instead of the conv output, which it
rebuilds in backward. A frequency aggregation step (mean + max over the
band axis) collapses the feature map to a per-frame vector sequence;
scaled dot-product self-attention over time follows, then temporal mean
pooling and a linear classifier.

The attention block can be placed at several points for ablations; at
non-aggregated placements it runs on the frequency-flattened feature
map [B, T', C*F'] so attention stays temporal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .seeding import rng_for
from .tensor import (
    IM2COL_BYTES,
    BatchNormState,
    Tensor,
    _records,
    batchnorm2d,  # noqa: F401  unused; perfbench's tracer patches it by name until ROADMAP item 4
    bn_relu_pool,
    conv2d,
    matmul,
    pool2d,
    reduce,
    softmax,
)

__all__ = [
    "PRESETS",
    "ModelConfig",
    "CnnTsa",
    "icbhi_config",
    "sprsound_config",
    "aggregate_frequency",
    "temporal_self_attention",
    "classify_head",
]

KERNEL = 5
PADDING = 2
POOL = 2

# conv widths of each named model: ICBHI (d=512), SPRSound (d=256), and a
# one-block model for tests and quick runs
PRESETS = {"icbhi": (64, 128, 256, 512), "sprsound": (64, 128, 256), "tiny": (8,)}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``d`` (the attention feature dim) always equals the last conv
    width and must be divisible by 8 so that d_k = d/8 is exact.
    ``n_mel_rows_in`` is the effective band count after masking; every
    block pools 2x2 (the last one in ``head``), so it must be at least
    ``min_input_size``, as must the frame count of every input.
    """

    channels: tuple[int, ...] = PRESETS["icbhi"]
    n_classes: int = 4
    attention_placement: str = "after_aggregation"
    n_mel_rows_in: int = 64

    def __post_init__(self):
        if not self.channels or min(self.channels) < 1:
            raise ConfigError(f"channels must be non-empty and positive, got {self.channels}")
        if self.n_classes < 2:
            raise ConfigError(f"need >=2 classes, got {self.n_classes}")
        if self.d % 8 != 0:
            raise ConfigError(f"feature dim d={self.d} must be divisible by 8")
        if self.n_mel_rows_in < self.min_input_size:
            raise ConfigError(
                f"a {self.n_conv_blocks}-block model needs at least {self.min_input_size} bands, "
                f"got {self.n_mel_rows_in}"
            )
        allowed = self.allowed_placements()
        if self.attention_placement not in allowed:
            raise ConfigError(
                f"attention_placement {self.attention_placement!r} not in {sorted(allowed)}"
            )

    @property
    def n_conv_blocks(self) -> int:
        return len(self.channels)

    @property
    def min_input_size(self) -> int:
        """The fewest bands, and frames, an input can have: one 2x2 pool per block."""
        return POOL**self.n_conv_blocks

    @property
    def d(self) -> int:
        return self.channels[-1]

    @property
    def d_k(self) -> int:
        return self.d // 8

    def allowed_placements(self) -> set[str]:
        mid = {f"after_block_{k}" for k in range(1, self.n_conv_blocks)}
        return {"none", "input", "after_last", "after_aggregation"} | mid

    def band_counts(self) -> list[int]:
        """Band-axis size before block 1, 2, ... and after the last pool."""
        sizes = [self.n_mel_rows_in]
        for _ in self.channels:
            sizes.append(sizes[-1] // POOL)
        return sizes

    def attention_stage(self) -> int | None:
        """Block index before which attention runs.

        0 = on the raw input, k = after block k, n_conv_blocks = after
        the last block, -1 = after frequency aggregation, None = no
        attention.
        """
        p = self.attention_placement
        if p == "none":
            return None
        if p == "input":
            return 0
        if p == "after_last":
            return self.n_conv_blocks
        if p == "after_aggregation":
            return -1
        return int(p.rsplit("_", 1)[1])

    def depth_first_chunk(self, t: int, f: int, itemsize: int) -> int:
        """Clips per depth-first chunk: as many as fit their block-1 conv output in ``IM2COL_BYTES``, at least one."""
        return max(1, IM2COL_BYTES // (self.channels[0] * t * f * itemsize))

    def attention_dims(self) -> tuple[int, int] | None:
        """(model dim, key dim) of the attention block, or None."""
        stage = self.attention_stage()
        if stage is None:
            return None
        if stage == -1:
            return self.d, self.d_k
        n_ch = 1 if stage == 0 else self.channels[stage - 1]
        dm = n_ch * self.band_counts()[stage]
        return dm, max(1, dm // 8)


def icbhi_config(n_classes: int = 4, **overrides) -> ModelConfig:
    """Four-block configuration (d=512) used for ICBHI-style tasks."""
    return ModelConfig(channels=PRESETS["icbhi"], n_classes=n_classes, **overrides)


def sprsound_config(n_classes: int = 7, **overrides) -> ModelConfig:
    """Three-block configuration (d=256) used for SPRSound-style tasks."""
    return ModelConfig(channels=PRESETS["sprsound"], n_classes=n_classes, **overrides)


# -- building blocks (usable standalone) -----------------------------------------


def aggregate_frequency(fm: Tensor) -> Tensor:
    """Collapse [B,C,T,F] to [B,T,C] by mean-over-F plus max-over-F."""
    if fm.ndim != 4:
        raise ShapeError(f"aggregate_frequency expects 4-D input, got {fm.shape}")
    summed = reduce(fm, "mean", axis=3) + reduce(fm, "max", axis=3)  # (B,C,T)
    return summed.transpose(0, 2, 1)


def temporal_self_attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    return_weights: bool = False,
):
    """Scaled dot-product attention over the time axis of [B,T,d]."""
    if wq.shape != wk.shape or wq.shape[0] != x.shape[-1] or wv.shape[0] != x.shape[-1]:
        raise ShapeError(
            f"attention projections {wq.shape}/{wk.shape}/{wv.shape} do not "
            f"match input {x.shape}"
        )
    d_k = wq.shape[1]
    q = matmul(x, wq)
    k = matmul(x, wk)
    v = matmul(x, wv)
    scores = matmul(q, k.swap_last2()) * (1.0 / math.sqrt(d_k))
    weights = softmax(scores, axis=-1)
    out = matmul(weights, v)
    if return_weights:
        return out, weights
    return out


def classify_head(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Temporal mean pooling of [B,T,d] followed by a linear layer, run per
    item as [B,1,d] @ [d,k]: numpy's stacked matmul gives each clip the
    logits it gets alone, where one [B,d] @ [d,k] GEMM need not."""
    pooled = reduce(x, "mean", axis=1)  # (B,d)
    n, k = pooled.shape[0], w.shape[1]
    return matmul(pooled.reshape(n, 1, -1), w).reshape(n, k) + b


# -- the model --------------------------------------------------------------------


def _uniform(rng: np.random.Generator, low: float, high: float, shape, scratch: np.ndarray) -> np.ndarray:
    """``rng.uniform(low, high, size=shape).astype(np.float32)``, bit for bit.

    ``Generator.uniform`` maps each float64 draw u to ``low + (high - low) * u``;
    the same float ops run here one ``scratch``-sized chunk at a time, so
    no float64 array of the whole shape is allocated.
    """
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for s in range(0, flat.size, scratch.size):
        u = scratch[: flat.size - s]
        rng.random(out=u)
        u *= high - low
        u += low
        flat[s : s + u.size] = u
    return out


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, scratch: np.ndarray) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return _uniform(rng, -bound, bound, shape, scratch)


class CnnTsa:
    """The classifier; single-writer during training, shareable frozen.

    ``last_conv_activation`` is written only by ``attribution.gradcam``
    (the detached activation leaf of its last chunk); the forward pass
    never stores one.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, state: dict[str, np.ndarray] | None = None):
        """A random init drawn from ``seed``, or, given ``state`` (a
        ``state_dict``), copies of its tensors and no random draw.

        ``state`` must hold every tensor the model has, at its shape, and
        nothing else: a missing or unknown name is a ``ConfigError``, a
        wrong shape a ``ShapeError``.
        """
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.bn_states: dict[str, BatchNormState] = {}
        self.last_conv_activation: Tensor | None = None
        rng = rng_for(seed, "model-init")
        scratch = np.empty(1 << 16)  # float64 draws, reused by every random init

        def take(name, shape):
            if name not in state:
                raise ConfigError(f"state dict lacks tensor {name}")
            if state[name].shape != shape:
                raise ShapeError(f"checkpoint tensor {name} has shape {state[name].shape}, model expects {shape}")
            return state[name].copy()  # the model owns its tensors

        def param(name, shape, draw):
            self.params[name] = Tensor(draw() if state is None else take(name, shape), requires_grad=True)

        cin = 1
        for i, cout in enumerate(cfg.channels, start=1):
            shape = (cout, cin, KERNEL, KERNEL)
            fan_in = cin * KERNEL * KERNEL
            param(f"conv{i}.weight", shape, lambda: _kaiming_uniform(rng, shape, fan_in, scratch))
            param(f"bn{i}.gamma", (cout,), lambda: np.ones(cout, np.float32))
            param(f"bn{i}.beta", (cout,), lambda: np.zeros(cout, np.float32))
            st = self.bn_states[f"bn{i}"] = BatchNormState(cout)
            if state is not None:
                st.running_mean[...] = take(f"bn{i}.running_mean", (cout,))
                st.running_var[...] = take(f"bn{i}.running_var", (cout,))
            cin = cout
        dims = cfg.attention_dims()
        if dims is not None:
            dm, dk = dims
            param("tsa.wq", (dm, dk), lambda: _kaiming_uniform(rng, (dm, dk), dm, scratch))
            param("tsa.wk", (dm, dk), lambda: _kaiming_uniform(rng, (dm, dk), dm, scratch))
            param("tsa.wv", (dm, dm), lambda: _kaiming_uniform(rng, (dm, dm), dm, scratch))
        # near-zero head init keeps the untrained model an (almost)
        # uniform predictor, so the initial loss sits at the
        # random-predictor value; Adam rescales it within a few steps
        head = (cfg.d, cfg.n_classes)
        param("head.weight", head, lambda: _uniform(rng, -1e-3, 1e-3, head, scratch))
        param("head.bias", (cfg.n_classes,), lambda: np.zeros(cfg.n_classes, np.float32))
        if state is not None:
            held = set(self.params) | {f"{b}.{s}" for b in self.bn_states for s in ("running_mean", "running_var")}
            if set(state) - held:
                raise ConfigError(f"unexpected tensors in state dict: {sorted(set(state) - held)}")

    # -- forward -------------------------------------------------------------
    #
    # forward(x) == head(features(x)), split at the last conv block's ReLU
    # output, where Grad-CAM reads its activation: attribution runs
    # ``features`` on frozen parameters, which builds no graph, and
    # differentiates only ``head``, with respect to a fresh leaf. The
    # model keeps no activation it computes, so a trained model pins no
    # graph.

    def _attend_flat(self, fm: Tensor) -> Tensor:
        """Temporal attention on the frequency-flattened feature map."""
        b, c, t, f = fm.shape
        seq = fm.transpose(0, 2, 1, 3).reshape(b, t, c * f)
        seq = temporal_self_attention(
            seq, self.params["tsa.wq"], self.params["tsa.wk"], self.params["tsa.wv"]
        )
        return seq.reshape(b, t, c, f).transpose(0, 2, 1, 3)

    def _attend_at(self, fm: Tensor, i: int) -> Tensor:
        """``fm`` through attention on the flattened map if attention is
        placed after block i (0: on the input), else ``fm`` itself."""
        return self._attend_flat(fm) if self.cfg.attention_stage() == i else fm

    def _block(self, fm: Tensor, i: int, training: bool) -> Tensor:
        """Conv block i on ``fm``: conv, then ``bn_relu_pool`` (no pool on the
        last block), which may rebuild the conv output from ``fm`` and the weight."""
        weight = self.params[f"conv{i}.weight"]
        out = conv2d(fm, weight, stride=1, padding=PADDING)
        _, _, t, f = out.shape
        if t < POOL or f < POOL:
            raise ShapeError(
                f"conv block {i}: feature map {t}x{f} too small for "
                f"{POOL}x{POOL} pooling"
            )
        bn = (self.params[f"bn{i}.gamma"], self.params[f"bn{i}.beta"], self.bn_states[f"bn{i}"])
        pool = i < self.cfg.n_conv_blocks
        return bn_relu_pool(out, *bn, training=training, pool=pool, conv=(fm, weight, PADDING))

    def _stack(self, x: Tensor, training: bool) -> Tensor:
        """Blocks 1..n on ``x``, with attention where it is placed."""
        fm = self._attend_at(x, 0)
        n = self.cfg.n_conv_blocks
        for i in range(1, n + 1):
            fm = self._block(fm, i, training)
            if i < n:
                fm = self._attend_at(fm, i)
        return fm

    def _depth_first(self, x, training: bool, run) -> Tensor:
        """``run(x)``, or, when no graph is built in eval mode, ``run`` on
        each chunk of ``x`` in turn, each chunk's result written into one
        whole-batch array. No graph means frozen parameters
        (``tensor.frozen``), which also hold each Winograd kernel's U
        for every chunk."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        cfg = self.cfg
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected input [B,1,T,F], got {x.shape}")
        if x.shape[3] != cfg.n_mel_rows_in:
            raise ShapeError(
                f"input has {x.shape[3]} bands but the model was built for "
                f"{cfg.n_mel_rows_in}"
            )
        b, _, t, f = x.shape
        chunk = cfg.depth_first_chunk(t, f, x.data.itemsize)
        if training or chunk >= b or _records((x, *self.params.values())):
            return run(x)
        out = None
        for s in range(0, b, chunk):
            part = run(Tensor(x.data[s : s + chunk]))
            if out is None:
                out = np.empty((b, *part.shape[1:]), dtype=part.data.dtype)
            out[s : s + chunk] = part.data
        return Tensor(out)

    def features(self, x, training: bool = False) -> Tensor:
        """The last conv block's ReLU output [B, d, T', F'], before its pool.

        Each block runs conv, then ``bn_relu_pool`` (batchnorm, ReLU and
        the 2x2 pool as one op that keeps only its input and output for
        backward), then attention if it is placed after that block. The
        last block's op skips the pool and returns the ReLU output that
        Grad-CAM reads; ``head`` pools it.

        In eval mode with no graph to record, batchnorm is a per-channel
        affine over its running statistics, and conv2d gives each clip
        the bytes it gets alone, so the output for a clip depends on that
        clip alone. The batch then runs depth first: each chunk of
        ``ModelConfig.depth_first_chunk`` items goes through every block
        and attention before the next chunk starts, and its last-block
        map is written into one whole-batch array. Only one chunk's maps
        of the earlier blocks exist at a time, and the ``tensor.frozen``
        block that froze the parameters holds each Winograd kernel's
        transform for all the chunks. The bytes are those of one
        whole-batch call.
        """
        return self._depth_first(x, training, lambda c: self._stack(c, training))

    def head(self, act: Tensor) -> Tensor:
        """Logits [B, n_classes] from ``features``: pool, attention, aggregation, classifier."""
        fm = self._attend_at(pool2d(act), self.cfg.n_conv_blocks)
        seq = aggregate_frequency(fm)  # (B, T', d)
        if self.cfg.attention_stage() == -1:
            seq = temporal_self_attention(
                seq, self.params["tsa.wq"], self.params["tsa.wk"], self.params["tsa.wv"]
            )
        return classify_head(seq, self.params["head.weight"], self.params["head.bias"])

    def forward(self, x, training: bool = False) -> Tensor:
        """Full forward pass to logits [B, n_classes]: ``head(features(x))``.

        Where ``features`` runs depth first (frozen parameters, eval
        mode), each chunk also runs ``head``, so no whole-batch map of
        any block exists; the logits are the same bytes.
        """
        return self._depth_first(x, training, lambda c: self.head(self._stack(c, training)))

    __call__ = forward

    # -- bookkeeping ----------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def grads(self) -> dict[str, np.ndarray]:
        return {k: p.grad for k, p in self.params.items() if p.grad is not None}

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {k: p.data.copy() for k, p in self.params.items()}
        for name, st in self.bn_states.items():
            out[f"{name}.running_mean"] = st.running_mean.copy()
            out[f"{name}.running_var"] = st.running_var.copy()
        return out

"""Minimal dense-tensor engine with reverse-mode differentiation.

Covers exactly the operations the classifier needs: elementwise
arithmetic, matmul with leading-batch broadcasting, 2D convolution,
batch normalization, average pooling, softmax, axis reductions,
ReLU, log, and shape manipulation. Values are float32 throughout
(the ``precision`` context widens the engine for gradient oracles).

Broadcasting is restricted to leading batch dimensions (shapes must
match once right-aligned, except that one operand may be missing
leading dimensions or have size 1 there). Anything else needs an
explicit reshape; this keeps gradient bookkeeping small and auditable.

Convolution is im2col + GEMM with channels-first columns,
(B, C*kh*kw, Ho*Wo): the forward GEMM lands directly in NCHW and the
input-gradient col2im reads contiguous (Ho, Wo) planes (see
``conv2d``).

Training memory is bounded by recomputing cheap values instead of
storing them (sublinear-memory training, arXiv:1604.06174): conv2d
builds its columns a few batch items at a time (``IM2COL_BYTES``) and
rebuilds them in backward, batchnorm recomputes its normalized input in
backward, and ``backward()`` frees each intermediate gradient once it
has been passed on.

Graph building: an op records its parents and backward closure only
when one of its inputs has ``requires_grad``. Inside ``no_grad()`` no
op records anything, so every result is a leaf and the buffers a
backward would need (im2col columns, masks, softmax outputs) are freed
as soon as the op returns; evaluation runs this way. A backward closure
hands a gradient to an input only if that input has ``requires_grad``,
so clearing the flag on the parameters ("freezing" them) skips the
weight-gradient work while gradients still flow to the activations.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor",
    "BatchNormState",
    "conv2d",
    "batchnorm2d",
    "pool2d",
    "matmul",
    "softmax",
    "reduce",
    "relu",
    "precision",
    "no_grad",
]

# float32 is the working precision; gradient-check oracles flip the
# engine to float64 because float32 central differences cannot resolve
# a 1e-5 absolute tolerance.
_DTYPE = np.float32


@contextmanager
def precision(dtype):
    """Temporarily run the engine at a different float width."""
    global _DTYPE
    saved = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = saved


# cleared inside no_grad(); read by Tensor._from_op
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Build no graph: every op inside returns a leaf tensor.

    The flag is module-global, like ``precision``; the engine is not
    meant to be driven from several threads at once.
    """
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


def _as_dtype(data) -> np.ndarray:
    arr = np.asarray(data, dtype=_DTYPE)
    return arr


def _check_leading_broadcast(sa: tuple, sb: tuple) -> None:
    """Allow broadcasting only over leading dims (missing or size-1).

    A size-1 dim of either operand may stretch only if it lies in that
    operand's leading run of missing or size-1 dims.
    """
    n = max(len(sa), len(sb))
    lead_a = n - len(sa) + _leading_ones(sa)
    lead_b = n - len(sb) + _leading_ones(sb)
    pa = (1,) * (n - len(sa)) + tuple(sa)
    pb = (1,) * (n - len(sb)) + tuple(sb)
    for i, (da, db) in enumerate(zip(pa, pb)):
        if da == db or (da == 1 and i < lead_a) or (db == 1 and i < lead_b):
            continue
        raise ShapeError(
            f"shapes {sa} and {sb} only broadcast over leading batch dims"
        )


def _leading_ones(shape: tuple) -> int:
    n = 0
    for d in shape:
        if d != 1:
            break
        n += 1
    return n


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of leading-dim broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.astype(_DTYPE)


class Tensor:
    """A float32 array plus an optional gradient accumulator.

    Operations on tensors record a backward closure (outside
    ``no_grad``); calling ``backward()`` on a scalar result propagates
    gradients to every tensor in the graph with ``requires_grad`` set.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_dtype(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(
            data, requires_grad=_GRAD_ENABLED and any(p.requires_grad for p in parents)
        )
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autograd -------------------------------------------------------------

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self)=1).

        Only leaves (tensors no op produced: parameters, inputs) keep
        their ``.grad``; an op result's gradient is freed as soon as its
        closure has passed it on, so it never outlives its use.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_dtype(grad)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accum(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def _accum(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # a copy: callers hand in views of buffers they keep using
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise ops ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        _check_leading_broadcast(self.shape, other.shape)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.shape))

        return Tensor._from_op(a.data + b.data, (a, b), bwd)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        _check_leading_broadcast(self.shape, other.shape)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(a.data * b.data, (a, b), bwd)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    def relu(self) -> "Tensor":
        x = self

        def bwd(g):
            x._accum(g * (x.data > 0))

        return Tensor._from_op(np.maximum(x.data, _DTYPE(0)), (x,), bwd)

    def log(self) -> "Tensor":
        """Natural log; the caller must guarantee strictly positive input."""
        x = self
        out_data = np.log(x.data)

        def bwd(g):
            x._accum(g / x.data)

        return Tensor._from_op(out_data, (x,), bwd)

    def clamp_min(self, floor: float) -> "Tensor":
        x = self
        mask = x.data >= floor

        def bwd(g):
            x._accum(g * mask)

        return Tensor._from_op(np.maximum(x.data, _DTYPE(floor)), (x,), bwd)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        x = self
        old = x.shape

        def bwd(g):
            x._accum(g.reshape(old))

        return Tensor._from_op(x.data.reshape(shape), (x,), bwd)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        x = self
        inv = np.argsort(axes)

        def bwd(g):
            x._accum(g.transpose(inv))

        return Tensor._from_op(np.ascontiguousarray(x.data.transpose(axes)), (x,), bwd)

    def swap_last2(self) -> "Tensor":
        axes = list(range(self.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        return self.transpose(*axes)

    # -- reductions (also exposed as module-level reduce()) --------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        return reduce(self, "sum", axis)

    def mean(self, axis: int | None = None) -> "Tensor":
        return reduce(self, "mean", axis)

    def max(self, axis: int | None = None) -> "Tensor":
        return reduce(self, "max", axis)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


# -- matmul -------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    Leading dimensions must match or be absent on one operand
    (e.g. ``[B,T,d] @ [d,k]``). Gradients flow to both operands.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    la, lb = a.shape[:-2], b.shape[:-2]
    if la and lb and la != lb:
        raise ShapeError(f"matmul leading dims disagree: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return Tensor._from_op(out_data, (a, b), bwd)


# -- softmax ------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        x._accum(s * (g - dot))

    return Tensor._from_op(s, (x,), bwd)


# -- reductions ---------------------------------------------------------------


def reduce(x: Tensor, kind: str, axis: int | None = None) -> Tensor:
    """Reduce along ``axis`` (or all elements when None).

    ``mean`` spreads the incoming gradient uniformly, ``max`` routes it
    to the first (row-major) maximal element, ``sum`` passes it through.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if axis is not None and not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    if kind == "sum":
        out_data = x.data.sum(axis=axis)

        def bwd(g):
            x._accum(_expand_like(g, x.shape, axis))

    elif kind == "mean":
        out_data = x.data.mean(axis=axis)
        n = x.data.size if axis is None else x.shape[axis]

        def bwd(g):
            x._accum(_expand_like(g, x.shape, axis) / _DTYPE(n))

    elif kind == "max":
        out_data = x.data.max(axis=axis)
        if axis is None:
            flat_idx = int(np.argmax(x.data))

            def bwd(g):
                gi = np.zeros_like(x.data)
                gi.reshape(-1)[flat_idx] = g
                x._accum(gi)

        else:
            ax = axis % x.ndim
            idx = np.argmax(x.data, axis=ax)  # first occurrence on ties

            def bwd(g):
                gi = np.zeros_like(x.data)
                np.put_along_axis(
                    gi, np.expand_dims(idx, ax), np.expand_dims(g, ax), ax
                )
                x._accum(gi)

    else:
        raise ValueError(f"unknown reduction kind {kind!r}")
    return Tensor._from_op(np.asarray(out_data, dtype=_DTYPE), (x,), bwd)


def _expand_like(g: np.ndarray, shape: tuple, axis: int | None) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(np.asarray(g, dtype=_DTYPE), shape).copy()
    ax = axis % len(shape)
    return np.broadcast_to(np.expand_dims(g, ax), shape).copy()


def relu(x: Tensor) -> Tensor:
    return x.relu()


# -- convolution ----------------------------------------------------------------

# Bytes of im2col columns conv2d builds at once. The batch is split into
# chunks of items whose columns fit, so a conv holds O(this) extra memory
# at any batch size instead of one column buffer for the whole batch.
IM2COL_BYTES = 16 << 20


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(B, C*kh*kw, Ho*Wo) columns of the already padded ``xp``."""
    b, c = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(b, c, kh, kw, ho, wo),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    # the window view in its own order, so each row is one contiguous
    # (Ho, Wo) plane and no transpose is copied
    return np.ascontiguousarray(windows).reshape(b, c * kh * kw, ho * wo)


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation of ``x`` [B,C,H,W] with ``weight`` [C',C,kh,kw].

    Output spatial size is floor((H + 2*pad - kh)/stride) + 1 (same for W).
    Implemented as im2col + GEMM; gradients are produced for both the
    input and the kernel.

    The im2col columns are channels-first, (B, C*kh*kw, Ho*Wo), for
    memory layout, not FLOPs: the forward GEMM ``wmat @ cols`` lands in
    NCHW with no output transpose, the input-gradient col2im reads each
    kernel shift as contiguous (Ho, Wo) planes instead of striding by
    C*kh*kw elements, and the weight gradient accumulates one batch item
    at a time into one (C', C*kh*kw) buffer.

    Columns are built a chunk of batch items at a time, as many items as
    fit in ``IM2COL_BYTES`` (at least one), and are not kept: backward keeps
    only the padded input and rebuilds each chunk's columns for the
    weight gradient, so frozen weights (``requires_grad`` cleared) never
    rebuild them. The input gradient's ``wmat.T @ g`` and col2im run per
    chunk too, into that chunk's slice of the padded input gradient.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    weight = weight if isinstance(weight, Tensor) else Tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(
            f"conv2d expects 4-D input and kernel, got {x.shape} and {weight.shape}"
        )
    b, c, h, w = x.shape
    co, ci, kh, kw = weight.shape
    if ci != c:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} vs kernel {weight.shape}"
        )
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(
            f"conv2d kernel {weight.shape} larger than padded input {x.shape}"
            f" (padding={padding})"
        )
    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    patch = ci * kh * kw
    chunk = max(1, IM2COL_BYTES // (patch * ho * wo * xp.itemsize))
    wmat = weight.data.reshape(co, patch)
    out_data = np.empty((b, co, ho * wo), dtype=np.result_type(wmat, xp))
    for s in range(0, b, chunk):
        np.matmul(wmat, _im2col(xp[s : s + chunk], kh, kw, stride, ho, wo), out=out_data[s : s + chunk])

    def bwd(g):
        g2 = g.reshape(b, co, ho * wo)
        gw = np.zeros_like(wmat) if weight.requires_grad else None
        gx = np.zeros_like(xp) if x.requires_grad else None
        for s in range(0, b, chunk):
            gs = g2[s : s + chunk]
            if gw is not None:
                cols = _im2col(xp[s : s + chunk], kh, kw, stride, ho, wo)
                for n in range(len(gs)):
                    gw += gs[n] @ cols[n].T
                del cols  # hold one chunk-sized buffer at a time
            if gx is not None:
                gcols = np.matmul(wmat.T, gs).reshape(len(gs), ci, kh, kw, ho, wo)
                gxs = gx[s : s + chunk]
                for i in range(kh):
                    for j in range(kw):
                        gxs[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[
                            :, :, i, j
                        ]
                del gcols
        if gw is not None:
            weight._accum(gw.reshape(co, ci, kh, kw))
        if gx is not None:
            x._accum(gx[:, :, padding : padding + h, padding : padding + w])

    return Tensor._from_op(out_data.reshape(b, co, ho, wo), (x, weight), bwd)


# -- batch normalization --------------------------------------------------------

BN_MOMENTUM = 0.1  # weight of the batch statistics in the running estimates
BN_EPS = 1e-5


class BatchNormState:
    """Running statistics for one batchnorm layer (not trainable)."""

    def __init__(self, n_channels: int):
        self.running_mean = np.zeros(n_channels, dtype=np.float32)
        self.running_var = np.ones(n_channels, dtype=np.float32)
        self.n_batches = 0


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization over [B,C,H,W].

    Training mode normalizes with batch statistics and updates the
    running estimates (exponential moving average, unbiased variance);
    eval mode normalizes with the running estimates.

    Statistics reduce a (B, C, H*W) view over its contiguous last axis
    first; the variance is the mean squared deviation from the mean
    (two passes, no cancellation). The output is ``x*scale + shift``
    with per-channel ``scale = gamma/std`` and ``shift = beta -
    mean*scale``. The normalized input is not stored: backward
    recomputes it from ``x``, which the graph keeps alive anyway.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    b, c, h, w = x.shape
    if b == 0:
        raise ShapeError("batchnorm2d on a zero-size batch")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batchnorm2d affine params must have shape ({c},), got "
            f"{gamma.shape} and {beta.shape}"
        )
    n = b * h * w
    dt = x.data.dtype
    xv = x.data.reshape(b, c, h * w)
    if training:
        mean = xv.sum(axis=2).sum(axis=0) / n
        dev = xv - mean[:, None]
        var = np.einsum("bcs,bcs->c", dev, dev) / n  # biased, used for normalization
        del dev
        unbiased = var * (n / max(n - 1, 1))
        state.running_mean = (
            (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        ).astype(state.running_mean.dtype)
        state.running_var = (
            (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * unbiased
        ).astype(state.running_var.dtype)
        state.n_batches += 1
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=dt))
    scale = (gamma.data * inv_std).astype(dt, copy=False)
    out_data = xv * scale[:, None]
    out_data += (beta.data - mean * scale).astype(dt, copy=False)[:, None]

    def bwd(g):
        gv = g.reshape(b, c, h * w)
        sum_g = gv.sum(axis=2).sum(axis=0) if beta.requires_grad or training else None
        if beta.requires_grad:
            beta._accum(sum_g)
        if x.requires_grad and not training:
            x._accum((gv * scale[:, None]).reshape(b, c, h, w))
        if gamma.requires_grad or (x.requires_grad and training):
            xhat = (xv - mean[:, None]) * inv_std[:, None]
            sum_gxhat = np.einsum("bcs,bcs->c", gv, xhat)
            if gamma.requires_grad:
                gamma._accum(sum_gxhat)
            if x.requires_grad and training:
                # scale * (g - mean(g) - xhat * mean(g * xhat)), in xhat's buffer
                xhat *= -(sum_gxhat / n)[:, None]
                xhat += gv
                xhat -= (sum_g / n)[:, None]
                xhat *= scale[:, None]
                x._accum(xhat.reshape(b, c, h, w))

    return Tensor._from_op(out_data.reshape(b, c, h, w), (x, gamma, beta), bwd)


# -- pooling --------------------------------------------------------------------


def pool2d(x: Tensor, window: int, stride: int | None = None) -> Tensor:
    """Average pooling with a square window over the last two dims."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    stride = window if stride is None else stride
    b, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(
            f"pool window {window} exceeds spatial dims of input {x.shape}"
        )
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    # one add of whole (Ho, Wo) planes per window offset; a mean over
    # the two small window axes of a strided view loops element-wise
    # when the input is NCHW-contiguous, as conv2d outputs are
    out_data = np.zeros((b, c, ho, wo), dtype=x.data.dtype)
    for i in range(window):
        for j in range(window):
            out_data += x.data[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    out_data /= _DTYPE(window * window)

    def bwd(g):
        gx = np.zeros_like(x.data)
        gshare = g / _DTYPE(window * window)
        for i in range(window):
            for j in range(window):
                gx[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gshare
        x._accum(gx)

    return Tensor._from_op(np.ascontiguousarray(out_data, dtype=x.data.dtype), (x,), bwd)

"""Minimal dense-tensor engine with reverse-mode differentiation.

Covers exactly the operations the classifier needs: elementwise sum
and product, matmul with leading-batch broadcasting, 2D convolution,
the conv-block epilogue ``bn_relu_pool`` (batchnorm -> ReLU -> 2x2
average pool as one op, or without the pool for the last block), 2x2
average pooling, softmax, axis reductions, log, clamping, and shape
manipulation. ``batchnorm2d`` alone is the reference the epilogue is
tested against. Values are float32 throughout
(the ``precision`` context widens the engine for gradient oracles).

Broadcasting is restricted to leading batch dimensions (shapes must
match once right-aligned, except that one operand may be missing
leading dimensions or have size 1 there). Anything else needs an
explicit reshape; this keeps gradient bookkeeping small and auditable.

Convolution runs one of two algorithms, picked by a fixed rule on the
shape of one image (see ``conv2d``):

- Winograd F(4x4, 5x5) (Lavin & Gray, arXiv:1509.09308) for 5x5,
  stride-1, pad-2 convs with at least 8 input channels and 16 output
  tiles of 4x4 per image: blocks 2 and up of the paper's backbone. It
  needs 64 multiplies per 16 outputs where direct convolution needs
  400; the forward pass and both gradients are batched GEMMs over the
  64 points of an 8x8 tile.
- im2col + GEMM with channels-first columns, (B, C*kh*kw, Ho*Wo), for
  every other conv, including the 1-channel first block: the forward
  GEMM lands directly in NCHW and the input-gradient col2im reads
  contiguous (Ho, Wo) planes.

Training memory is bounded by recomputing cheap values instead of
storing them (sublinear-memory training, arXiv:1604.06174): conv2d
builds its columns or transformed tiles a few batch items at a time
(``IM2COL_BYTES``) and rebuilds them in backward, batchnorm recomputes
its normalized input in backward, ``bn_relu_pool`` keeps only its input
and output and recomputes the batchnorm map it never stores, and
``backward()`` frees each intermediate gradient once it has been passed
on (so a closure may overwrite the gradient it is handed: only its node
holds it). Batchnorm's statistics and adjoint and the fused epilogue run
over blocks of at most ``EPILOGUE_BYTES`` (whole items, or one item's
channel range), so their chains of elementwise steps stay in a core's
L2 cache and hold no whole-batch temporary; each (item, channel) row is
summed inside its block and the row sums are added over items
afterwards, the order a whole-batch reduction takes, so no float depends
on the blocking. A closure that allocates a gradient buffer for one
input alone hands it over with ``_adopt``, and the input keeps it as its
gradient instead of copying it.

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

import math
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor",
    "BatchNormState",
    "conv2d",
    "batchnorm2d",
    "bn_relu_pool",
    "pool2d",
    "matmul",
    "softmax",
    "reduce",
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

# the buffer Tensor._adopt is handing to Tensor._accum, which keeps it
# instead of copying it; every gradient still enters through _accum
_ADOPTING = None


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
            if grad is _ADOPTING and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                # a copy: callers may hand in views of buffers they keep using
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _adopt(self, grad: np.ndarray) -> None:
        """``_accum`` for a buffer the caller has just allocated for this
        tensor alone and drops: a first gradient becomes ``.grad`` without
        a copy, and later ones add into it. Never a view, never a buffer
        handed to two tensors."""
        global _ADOPTING
        _ADOPTING = grad
        try:
            self._accum(grad)
        finally:
            _ADOPTING = None

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

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        _check_leading_broadcast(self.shape, other.shape)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._adopt(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._adopt(_unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(a.data * b.data, (a, b), bwd)

    def log(self) -> "Tensor":
        """Natural log; the caller must guarantee strictly positive input."""
        x = self
        out_data = np.log(x.data)

        def bwd(g):
            x._adopt(g / x.data)

        return Tensor._from_op(out_data, (x,), bwd)

    def clamp_min(self, floor: float) -> "Tensor":
        x = self
        mask = x.data >= floor

        def bwd(g):
            x._adopt(g * mask)

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
            a._adopt(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            b._adopt(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

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
        x._adopt(s * (g - dot))

    return Tensor._from_op(s, (x,), bwd)


# -- reductions ---------------------------------------------------------------


def reduce(x: Tensor, kind: str, axis: int | None = None) -> Tensor:
    """Reduce along ``axis`` (``sum`` and ``mean`` also over all elements,
    when it is None).

    ``mean`` spreads the incoming gradient uniformly, ``max`` routes it
    to the first (row-major) maximal element, ``sum`` passes it through.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if axis is not None and not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    if kind == "sum":
        out_data = x.data.sum(axis=axis)

        def bwd(g):
            x._adopt(_expand_like(g, x.shape, axis))

    elif kind == "mean":
        out_data = x.data.mean(axis=axis)
        n = x.data.size if axis is None else x.shape[axis]

        def bwd(g):
            x._adopt(_expand_like(g, x.shape, axis) / _DTYPE(n))

    elif kind == "max":
        if axis is None:
            raise ShapeError("reduce 'max' needs an axis")
        out_data = x.data.max(axis=axis)
        ax = axis % x.ndim
        idx = np.argmax(x.data, axis=ax)  # first occurrence on ties

        def bwd(g):
            gi = np.zeros_like(x.data)
            np.put_along_axis(gi, np.expand_dims(idx, ax), np.expand_dims(g, ax), ax)
            x._adopt(gi)

    else:
        raise ValueError(f"unknown reduction kind {kind!r}")
    return Tensor._from_op(np.asarray(out_data, dtype=_DTYPE), (x,), bwd)


def _expand_like(g: np.ndarray, shape: tuple, axis: int | None) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(np.asarray(g, dtype=_DTYPE), shape).copy()
    ax = axis % len(shape)
    return np.broadcast_to(np.expand_dims(g, ax), shape).copy()


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


# Winograd F(4x4, 5x5) (Lavin & Gray, arXiv:1509.09308): an 8x8 input
# tile d and a 5x5 kernel k give the 4x4 output tile
# AT [(G k G^T) * (BT d B)] A, 64 multiplies where direct convolution
# needs 400. The interpolation points are 0, 1, -1, 2, -2, 1/2, -1/2 and
# infinity, so BT and AT hold only halves, quarters and eighths (exact in
# binary floating point) and only G is rounded.
_WINO_BT = (
    (1, 0, -21 / 4, 0, 21 / 4, 0, -1, 0),
    (0, 1, 1, -17 / 4, -17 / 4, 1, 1, 0),
    (0, -1, 1, 17 / 4, -17 / 4, -1, 1, 0),
    (0, 1 / 2, 1 / 4, -5 / 2, -5 / 4, 2, 1, 0),
    (0, -1 / 2, 1 / 4, 5 / 2, -5 / 4, -2, 1, 0),
    (0, 2, 4, -5 / 2, -5, 1 / 2, 1, 0),
    (0, -2, 4, 5 / 2, -5, -1 / 2, 1, 0),
    (0, -1, 0, 21 / 4, 0, -21 / 4, 0, 1),
)
_WINO_G = (
    (1, 0, 0, 0, 0),
    (-2 / 9, -2 / 9, -2 / 9, -2 / 9, -2 / 9),
    (-2 / 9, 2 / 9, -2 / 9, 2 / 9, -2 / 9),
    (1 / 90, 1 / 45, 2 / 45, 4 / 45, 8 / 45),
    (1 / 90, -1 / 45, 2 / 45, -4 / 45, 8 / 45),
    (32 / 45, 16 / 45, 8 / 45, 4 / 45, 2 / 45),
    (32 / 45, -16 / 45, 8 / 45, -4 / 45, 2 / 45),
    (0, 0, 0, 0, 1),
)
_WINO_AT = (
    (1, 1, 1, 1, 1, 1, 1, 0),
    (0, 1, -1, 2, -2, 1 / 2, -1 / 2, 0),
    (0, 1, 1, 4, 4, 1 / 4, 1 / 4, 0),
    (0, 1, -1, 8, -8, 1 / 8, -1 / 8, 1),
)


def _winograd_applies(ci: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> bool:
    """The fixed rule that sends a conv to the Winograd path.

    Only 5x5, stride-1, pad-2 convs with at least 8 input channels and 16
    output tiles per image: below that the transforms cost more than the
    multiplies they save. The rule reads one image's shape, never the
    batch size, so a clip's output does not depend on its batch.
    """
    tiles = -(-h // 4) * -(-w // 4)
    return (kh, kw, stride, padding) == (5, 5, 1, 2) and ci >= 8 and tiles >= 16


def _wino_transforms(dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2-D transforms over a flattened tile: input (64, 64), kernel
    (64, 25) and output (16, 64), at ``dtype``."""
    bt, g, at = (np.array(m, dtype=dtype) for m in (_WINO_BT, _WINO_G, _WINO_AT))
    return np.kron(bt, bt), np.kron(g, g), np.kron(at, at)


def _wino_kernel(weight: np.ndarray, kg: np.ndarray) -> np.ndarray:
    """U = (64, C', C): the transformed kernel."""
    co, ci = weight.shape[:2]
    return (kg @ weight.reshape(co * ci, 25).T).reshape(64, co, ci)


def _wino_input(x: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """V = (64, C, n*T): the transformed 8x8 tiles, at stride 4, of the
    chunk ``x`` (n, C, H, W) padded by 2 and then to whole 4x4 output
    tiles; columns run over (item, tile row, tile column)."""
    n, c, h, w = x.shape
    th, tw = -(-h // 4), -(-w // 4)
    xp = np.zeros((n, c, 4 * th + 4, 4 * tw + 4), dtype=x.dtype)
    xp[:, :, 2 : 2 + h, 2 : 2 + w] = x
    s0, s1, s2, s3 = xp.strides
    tiles = np.lib.stride_tricks.as_strided(
        xp, shape=(c, n, th, tw, 8, 8), strides=(s1, s0, 4 * s2, 4 * s3, s2, s3), writeable=False
    )
    d = np.ascontiguousarray(tiles).reshape(c * n * th * tw, 64)
    return (kb @ d.T).reshape(64, c, n * th * tw)


def _winograd_forward(x: np.ndarray, weight: np.ndarray, chunk: int) -> np.ndarray:
    """(B, C', H, W) output for the input ``x`` (B, C, H, W)."""
    dt = np.result_type(x, weight)
    kb, kg, ka = _wino_transforms(dt)
    b, _, h, w = x.shape
    th, tw = -(-h // 4), -(-w // 4)
    co = weight.shape[0]
    u = _wino_kernel(weight, kg)
    out = np.empty((b, co, h, w), dtype=dt)
    for s in range(0, b, chunk):
        n = min(chunk, b - s)
        m = np.matmul(u, _wino_input(x[s : s + n], kb)).reshape(64, -1)
        y = (ka @ m).reshape(4, 4, co, n, th, tw)
        del m
        # output pixel (4*ty + i, 4*tx + j) is y[i, j, :, :, ty, tx]; the
        # last tile row and column may hang over the edge
        outs = out[s : s + n].transpose(1, 0, 2, 3)
        for i in range(4):
            for j in range(4):
                outs[:, :, i::4, j::4] = y[i, j, :, :, : (h - i + 3) // 4, : (w - j + 3) // 4]
    return out


def _winograd_backward(
    x: np.ndarray, weight: np.ndarray, g: np.ndarray, chunk: int, want_w: bool, want_x: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(d weight, d x) for the output gradient ``g`` (B, C', H, W).

    In the transformed domain dU = dM V^T and dV = U^T dM, where dM is
    the adjoint output transform of ``g``; dV's adjoint input transform
    is scatter-added into the overlapping tiles of the chunk's padded
    input gradient. V is rebuilt from ``x`` only for dU, and U only for
    dV.
    """
    dt = np.result_type(x, weight)
    kb, kg, ka = _wino_transforms(dt)
    b, c, h, w = x.shape
    th, tw = -(-h // 4), -(-w // 4)
    co = weight.shape[0]
    # the long-lived d x first, and U freed before d weight exists: in
    # the other order the transient U and dU leave holes in the heap that
    # raise a B=16 ICBHI train step's peak RSS by about 4%
    gx = np.empty_like(x) if want_x else None
    ut = _wino_kernel(weight, kg).transpose(0, 2, 1) if want_x else None
    du = np.zeros((64, co, c), dtype=dt) if want_w else None
    ragged = (4 * th, 4 * tw) != (h, w)
    for s in range(0, b, chunk):
        n = min(chunk, b - s)
        # g's tiles, zero where they hang over the edge
        gt = (np.zeros if ragged else np.empty)((4, 4, co, n, th, tw), dtype=dt)
        gs = g[s : s + n].transpose(1, 0, 2, 3)
        for i in range(4):
            for j in range(4):
                gt[i, j, :, :, : (h - i + 3) // 4, : (w - j + 3) // 4] = gs[:, :, i::4, j::4]
        dm = (ka.T @ gt.reshape(16, -1)).reshape(64, co, -1)
        del gt
        if du is not None:
            v = _wino_input(x[s : s + n], kb)
            for k in range(64):  # one (C', C) product at a time, added in place
                du[k] += dm[k] @ v[k].T
            del v  # hold one chunk's transformed buffers at a time
        if gx is not None:
            dd = (kb.T @ np.matmul(ut, dm).reshape(64, -1)).reshape(8, 8, c, n, th, tw)
            gxp = np.zeros((c, n, 4 * th + 4, 4 * tw + 4), dtype=dt)
            for i in range(8):
                for j in range(8):
                    gxp[:, :, i : i + 4 * th : 4, j : j + 4 * tw : 4] += dd[i, j]
            del dd
            gx[s : s + n] = gxp[:, :, 2 : 2 + h, 2 : 2 + w].transpose(1, 0, 2, 3)
        del dm
    del ut
    gw = None if du is None else (du.reshape(64, co * c).T @ kg).reshape(co, c, 5, 5)
    return gw, gx


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation of ``x`` [B,C,H,W] with ``weight`` [C',C,kh,kw].

    Output spatial size is floor((H + 2*pad - kh)/stride) + 1 (same for W).
    Gradients are produced for both the input and the kernel.

    Two algorithms, chosen by ``_winograd_applies`` from constants and
    the shape of one image, never from the batch size (a clip's output
    must not depend on the batch it is in):

    Winograd F(4x4, 5x5) when the kernel is 5x5, stride 1 and padding 2,
    C >= 8 and ceil(H/4)*ceil(W/4) >= 16. The input, padded to whole
    tiles, is cut into 8x8 tiles at stride 4 and transformed to V
    (64, C, n*tiles); the kernel to U (64, C', C); one batched GEMM
    ``U @ V`` gives M (64, C', n*tiles), whose output transform is the
    4x4 output tiles. Backward has the same shape: dM is the adjoint
    output transform of the output gradient, the kernel gradient is the
    kernel transform's adjoint of dU = dM V^T (V rebuilt from the input,
    which the graph keeps), and the input gradient is the adjoint input
    transform of dV = U^T dM, scatter-added into the overlapping tiles.
    Below 8 channels or 16 tiles the transforms cost more than the
    multiplies they save. Results differ from im2col's in float rounding
    only, by about 1e-5 of the largest output in float32.

    im2col + GEMM otherwise. The im2col columns are channels-first,
    (B, C*kh*kw, Ho*Wo), for memory layout, not FLOPs: the forward GEMM
    ``wmat @ cols`` lands in NCHW with no output transpose, the
    input-gradient col2im reads each kernel shift as contiguous (Ho, Wo)
    planes instead of striding by C*kh*kw elements, and the weight
    gradient accumulates one batch item at a time into one
    (C', C*kh*kw) buffer.

    Columns are built a chunk of batch items at a time, as many items as
    fit in ``IM2COL_BYTES`` (at least one), and are not kept: backward keeps
    only the padded input and rebuilds each chunk's columns for the
    weight gradient, so frozen weights (``requires_grad`` cleared) never
    rebuild them. The input gradient's ``wmat.T @ g`` and col2im run per
    chunk too, into that chunk's slice of the padded input gradient. The
    Winograd path chunks the batch the same way, so that V and M (or dM,
    V and dV) of one chunk fit in ``IM2COL_BYTES``, and pads each chunk
    as it cuts its tiles, so it keeps no padded copy of the input;
    frozen weights build no dU and rebuild no V, and an input without
    ``requires_grad`` builds no U or dV in backward.
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
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    winograd = _winograd_applies(ci, h, w, kh, kw, stride, padding)
    if winograd:
        # V and M, or dM, V and dV, of one chunk: (C' + 2C) * 64 values per tile
        tiles = -(-h // 4) * -(-w // 4)
        chunk = max(1, IM2COL_BYTES // (64 * tiles * (co + 2 * ci) * x.data.itemsize))
        out_data = _winograd_forward(x.data, weight.data, chunk)
    else:
        patch = ci * kh * kw
        wmat = weight.data.reshape(co, patch)
        xp = x.data
        if padding:
            xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        chunk = max(1, IM2COL_BYTES // (patch * ho * wo * xp.itemsize))
        out_data = np.empty((b, co, ho * wo), dtype=np.result_type(wmat, xp))
        for s in range(0, b, chunk):
            np.matmul(wmat, _im2col(xp[s : s + chunk], kh, kw, stride, ho, wo), out=out_data[s : s + chunk])

    def bwd(g):
        if winograd:
            gw, gx = _winograd_backward(
                x.data, weight.data, g, chunk, weight.requires_grad, x.requires_grad
            )
            if gw is not None:
                weight._adopt(gw)
            if gx is not None:
                x._adopt(gx)
            return
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
            weight._adopt(gw.reshape(co, ci, kh, kw))
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


# Bytes of one block of the batchnorm passes: its statistics, its adjoint
# and the fused epilogue's forward and backward run over a (B, C, H*W)
# view one block of rows at a time, several whole items when one fits,
# else one item's channel range. Each pass's chain of elementwise steps
# then runs in a core's L2 cache instead of streaming the whole batch
# through memory once per step. 512 KiB to 1 MiB ran fastest with 2 MiB
# of L2 per core; 1 MiB keeps a small model's whole batch (32 items of
# 20 KB) in one block, so its passes run once, as unblocked code's do.
EPILOGUE_BYTES = 1 << 20


def _split(total: int, most: int, least: int) -> list[slice]:
    """``range(total)`` cut into the fewest near-equal parts of at most
    ``most``, each at least ``least`` long when ``total`` allows."""
    m = max(1, min(-(-total // most), total // least))
    return [slice(total * i // m, total * (i + 1) // m) for i in range(m)]


def _bn_blocks(x: np.ndarray) -> tuple[list[tuple[slice, slice]], int]:
    """(items, channels) blocks of ``x`` (B, C, H, W) and the largest one's size.

    A batch that fits in one block is one block. A block holds at least
    two (item, channel) rows, because ``np.einsum`` sums a lone row of
    over 8192 values in another order than the same row inside a larger
    array. A one-channel batch is one block (see ``_row_dots``).
    """
    b, c, h, w = x.shape
    rows = max(1, EPILOGUE_BYTES // (h * w * x.itemsize))
    if c == 1:
        blocks = [(slice(0, b), slice(0, 1))]
    elif rows >= c:
        blocks = [(items, slice(0, c)) for items in _split(b, rows // c, 1)]
    else:
        blocks = [(slice(i, i + 1), chans) for i in range(b) for chans in _split(c, rows, 2)]
    size = max((i.stop - i.start) * (ch.stop - ch.start) for i, ch in blocks) * h * w
    return blocks, size


def _front(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The start of the flat scratch buffer ``buf`` as an array of ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


def _row_dots(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Each row's dot product of the (n, C, S) blocks ``u`` and ``v`` into ``out`` (n, C).

    Summing ``out`` over items gives ``np.einsum("bcs,bcs->c")`` of the
    whole batch bit for bit. That einsum sums each (item, channel) row
    and then adds the rows item by item, except with one channel, where
    it sums the whole batch as one flat row: that sum goes in the first
    row and -0.0, which changes no sum, in the others.
    """
    if u.shape[1] > 1:
        np.einsum("bcs,bcs->bc", u, v, out=out)
    else:
        out[...] = -0.0
        out[0, 0] = np.einsum("bcs,bcs->", u, v)


def _bn_stats(
    x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, training: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel (mean, inv_std, scale, shift) of batchnorm over ``x``.

    Training mode takes batch statistics and updates the running
    estimates (exponential moving average, unbiased variance); eval mode
    reads the running estimates. Each (item, channel) row of a
    (B, C, H*W) view is summed over its contiguous pixels block by block
    (``EPILOGUE_BYTES``), then the (B, C) row sums over items: the order
    a whole-batch ``sum(axis=2).sum(axis=0)`` takes. The variance is the
    mean squared deviation from the mean (two passes, no cancellation).
    The output is ``x*scale + shift`` with ``scale = gamma/std`` and
    ``shift = beta - mean*scale``.
    """
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
    if training:
        xv = x.data.reshape(b, c, h * w)
        blocks, size = _bn_blocks(x.data)
        rows = np.empty((b, c), dtype=dt)
        for i, ch in blocks:
            xv[i, ch].sum(axis=2, out=rows[i, ch])
        mean = rows.sum(axis=0) / n
        work = np.empty(size, dtype=dt)
        for i, ch in blocks:
            xb = xv[i, ch]
            dev = np.subtract(xb, mean[ch, None], out=_front(work, xb.shape))
            _row_dots(dev, dev, rows[i, ch])
        var = rows.sum(axis=0) / n  # biased, used for normalization
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
    shift = (beta.data - mean * scale).astype(dt, copy=False)
    return mean, inv_std, scale, shift


def _bn_adjoint(x, gamma, beta, grad_block, mean, inv_std, scale, training) -> None:
    """Hand batchnorm's gradients to ``x``, ``gamma`` and ``beta``.

    ``grad_block(items, channels, work)`` returns the gradient of the
    output over one block of ``_bn_blocks(x)`` as (n, c, H*W); ``work``
    is a block-sized scratch buffer it may overwrite. The adjoint runs
    two passes over the blocks: the first sums each (item, channel) row
    of the gradient and of its product with xhat (recomputed from ``x``)
    for dbeta and dgamma, the second writes dx into one fresh buffer,
    which ``x`` adopts. The second pass runs the blocks in reverse, so
    its first block reuses the gradient and xhat the first pass left.
    A batch of one block works in that dx buffer, as unblocked code
    would, rather than in a second buffer of the batch's size.
    """
    b, c, h, w = x.shape
    n = b * h * w
    xv = x.data.reshape(b, c, h * w)
    blocks, size = _bn_blocks(x.data)
    need_g = beta.requires_grad or (x.requires_grad and training)
    need_gx = gamma.requires_grad or (x.requires_grad and training)
    rows_g = np.empty((b, c), dtype=x.data.dtype) if need_g else None
    rows_gx = np.empty((b, c), dtype=x.data.dtype) if need_gx else None
    gx = np.empty_like(x.data) if x.requires_grad else None
    if gx is not None and len(blocks) == 1:
        work = gx.reshape(-1)
    else:
        work = np.empty(size, dtype=x.data.dtype)

    def normalized(i, ch):  # xhat of one block, in ``work``
        xb = xv[i, ch]
        xhat = np.subtract(xb, mean[ch, None], out=_front(work, xb.shape))
        xhat *= inv_std[ch, None]
        return xhat

    gv = xhat = None
    for i, ch in blocks if need_g or need_gx else ():
        gv = grad_block(i, ch, work)
        if need_g:
            gv.sum(axis=2, out=rows_g[i, ch])
        if need_gx:
            xhat = normalized(i, ch)
            _row_dots(gv, xhat, rows_gx[i, ch])
    sum_g = rows_g.sum(axis=0) if need_g else None
    sum_gxhat = rows_gx.sum(axis=0) if need_gx else None
    if beta.requires_grad:
        beta._adopt(sum_g)
    if gamma.requires_grad:
        gamma._adopt(sum_gxhat)
    if gx is None:
        return
    gxv = gx.reshape(b, c, h * w)
    for k, (i, ch) in enumerate(reversed(blocks)):
        if k or gv is None:
            gv, xhat = grad_block(i, ch, work), None
        if not training:
            np.multiply(gv, scale[ch, None], out=gxv[i, ch])
            continue
        if xhat is None:
            xhat = normalized(i, ch)
        # scale * (g - mean(g) - xhat * mean(g * xhat)), in xhat's buffer
        xhat *= -(sum_gxhat / n)[ch, None]
        xhat += gv
        xhat -= (sum_g / n)[ch, None]
        np.multiply(xhat, scale[ch, None], out=gxv[i, ch])
    x._adopt(gx)


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization over [B,C,H,W]; the model runs it
    only inside ``bn_relu_pool``, and tests hold the fused op to this one.

    Training mode normalizes with batch statistics and updates the
    running estimates; eval mode normalizes with the running estimates
    (see ``_bn_stats``). The normalized input is not stored: backward
    recomputes it from ``x``, which the graph keeps alive anyway.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    mean, inv_std, scale, shift = _bn_stats(x, gamma, beta, state, training)
    b, c, h, w = x.shape
    out_data = x.data.reshape(b, c, h * w) * scale[:, None]
    out_data += shift[:, None]

    def bwd(g):
        gv = g.reshape(b, c, h * w)
        _bn_adjoint(x, gamma, beta, lambda i, ch, work: gv[i, ch], mean, inv_std, scale, training)

    return Tensor._from_op(out_data.reshape(b, c, h, w), (x, gamma, beta), bwd)


def bn_relu_pool(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
    pool: bool = True,
) -> Tensor:
    """Batchnorm, ReLU and a 2x2 average pool (or, with ``pool=False``,
    no pool) as one op, bit for bit the maps and gradients of the
    separate ops (``batchnorm2d``, a ReLU and ``pool2d``).

    Backward reads only ``x`` and, without the pool, the ReLU output
    (In-Place Activated BatchNorm, arXiv:1712.02616, keeps what backward
    recomputes from): no batchnorm map, and with the pool no ReLU map,
    outlives the call. Both passes run block by block (``_bn_blocks``,
    ``EPILOGUE_BYTES``), so no temporary is larger than one block.
    Forward: the affine, ReLU and pool of each block. Backward: for each
    block, the pool adjoint (g/4 in each 2x2 window, zero in a dropped
    odd row or column) is masked by the sign of ``x*scale + shift``,
    recomputed with the forward's float ops; without the pool, the
    output gradient is masked in place by the sign of the ReLU output.
    The batchnorm adjoint consumes these blocks twice, so they are
    recomputed (or masked again) in its second pass rather than stored.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    b, c, h, w = x.shape
    if pool and (h < 2 or w < 2):
        raise ShapeError(f"pool window 2 exceeds spatial dims of input {x.shape}")
    mean, inv_std, scale, shift = _bn_stats(x, gamma, beta, state, training)
    ho, wo = h // 2, w // 2
    dt = x.data.dtype
    xv = x.data.reshape(b, c, h * w)
    blocks, size = _bn_blocks(x.data)
    if pool:
        out_data = np.zeros((b, c, ho, wo), dtype=dt)
        work = np.empty(size, dtype=dt)
    else:
        out_data = np.empty((b, c, h, w), dtype=dt)
        yv = out_data.reshape(b, c, h * w)
    for i, ch in blocks:
        xb = xv[i, ch]
        y = np.multiply(xb, scale[ch, None], out=_front(work, xb.shape) if pool else yv[i, ch])
        y += shift[ch, None]
        np.maximum(y, _DTYPE(0), out=y)
        if not pool:
            continue
        y = y.reshape(-1, y.shape[1], h, w)
        outs = out_data[i, ch]
        for di in range(2):
            for dj in range(2):
                outs += y[:, :, di : di + 2 * ho : 2, dj : dj + 2 * wo : 2]
        outs /= _DTYPE(4)

    def bwd(g):
        # zeros once: the dropped row and column of an odd H or W stay zero
        gy = np.zeros(size, dtype=dt) if pool else None
        share = np.empty(size // 4, dtype=g.dtype) if pool else None

        def grad_block(i, ch, work):
            gs = g[i, ch]
            nb, nc = gs.shape[:2]
            if not pool:
                # the output gradient where the ReLU passed it on, masked in
                # place: g is this op's alone and dropped once the closure
                # returns, and the adjoint's second pass masks it again,
                # which changes no bit
                gv = gs.reshape(nb, nc, h * w)
                gv *= yv[i, ch] > 0
                return gv
            # 0 + g/4, as the scatter into zeros of pool2d's adjoint adds
            # it: a -0.0 share becomes +0.0
            q = np.divide(gs, _DTYPE(4), out=_front(share, gs.shape))
            q += 0
            gb = _front(gy, (nb, nc, h, w))
            for di in range(2):
                for dj in range(2):
                    gb[:, :, di : di + 2 * ho : 2, dj : dj + 2 * wo : 2] = q
            gv = gb.reshape(nb, nc, h * w)
            y = np.multiply(xv[i, ch], scale[ch, None], out=_front(work, gv.shape))
            y += shift[ch, None]
            gv *= y > 0
            return gv

        _bn_adjoint(x, gamma, beta, grad_block, mean, inv_std, scale, training)

    return Tensor._from_op(out_data, (x, gamma, beta), bwd)


# -- pooling --------------------------------------------------------------------


def pool2d(x: Tensor) -> Tensor:
    """2x2 average pooling at stride 2 over the last two dims; an odd
    last row or column is dropped."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    b, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ShapeError(f"pool window 2 exceeds spatial dims of input {x.shape}")
    ho, wo = h // 2, w // 2
    # one add of whole (Ho, Wo) planes per window offset; a mean over
    # the two small window axes of a strided view loops element-wise
    # when the input is NCHW-contiguous, as conv2d outputs are
    out_data = np.zeros((b, c, ho, wo), dtype=x.data.dtype)
    for i in range(2):
        for j in range(2):
            out_data += x.data[:, :, i : i + 2 * ho : 2, j : j + 2 * wo : 2]
    out_data /= _DTYPE(4)

    def bwd(g):
        gx = np.zeros_like(x.data)
        gshare = g / _DTYPE(4)
        for i in range(2):
            for j in range(2):
                gx[:, :, i : i + 2 * ho : 2, j : j + 2 * wo : 2] += gshare
        x._adopt(gx)

    return Tensor._from_op(out_data, (x,), bwd)

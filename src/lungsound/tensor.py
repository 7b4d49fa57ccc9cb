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
and output and recomputes the batchnorm map it never stores; when its
input is a conv output above ``IM2COL_BYTES`` made from an input that
needs no gradient (the first block in training), it keeps not even that
but rebuilds it in backward and writes the conv's output gradient over
it. A shared weight's gradient adds its per-item products one at a
time above ``IM2COL_BYTES``. ``backward()`` frees the graph as it runs:
each intermediate gradient once it has been passed on (so a closure may
overwrite the gradient it is handed: only its node holds it), and each
op result's closure and parent links as it reaches them, so an
activation dies as soon as the last closure that reads it has run
rather than when the caller drops the loss. Batchnorm's statistics and
adjoint and the fused epilogue run over blocks of at most
``EPILOGUE_BYTES`` (whole items, or one item's channel range), so their
chains of elementwise steps stay in a core's L2 cache and hold no
whole-batch temporary; each (item, channel) row is summed inside its
block and the row sums are added over items afterwards, the order a
whole-batch reduction takes, so no float depends on the blocking. A closure that allocates a gradient buffer for one
input alone hands it over with ``_adopt``, and the input keeps it as its
gradient instead of copying it.

Threads: conv2d and the batchnorm passes cut their work into units
fixed by shapes, each writing its own part of buffers the calling
thread allocated, and run them on a pool of the process's thread budget
(``thread_budget``; by default its CPUs) when that budget is 2 to
``UNITS`` threads, with OpenBLAS at one thread while the pool runs. No
unit adds into another's output, so every result is bit-identical at any
thread count. Ops are still called from one thread: the graph and the
flags below are not shared. ``cli``'s audio frontend runs one unit per
WAV file on the same threads.

Graph building: an op records its parents and backward closure only
when one of its inputs has ``requires_grad``; otherwise its result is a
leaf and the buffers a backward would need (im2col columns, masks,
softmax outputs) are freed as soon as the op returns. A backward
closure hands a gradient to an input only if that input has
``requires_grad``, which is also batchnorm's mode: it takes batch
statistics, and updates its running statistics, exactly when its gamma
or beta needs a gradient. A trained model runs inside
``frozen(params)``, which clears the flag on its parameters: batchnorm
reads its running statistics, a forward on a plain input builds no
graph (evaluation, Grad-CAM's backbone), and a backward to an input
skips every weight gradient (Integrated Gradients). Only a held tensor
keeps its Winograd kernel transform, so training others is safe.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
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
    "frozen",
    "thread_budget",
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


# the buffer Tensor._adopt is handing to Tensor._accum, which keeps it
# instead of copying it; every gradient still enters through _accum
_ADOPTING = None


def _records(inputs) -> bool:
    """Whether an op on ``inputs`` records a graph: when one of them has
    ``requires_grad``."""
    return any(t.requires_grad for t in inputs)


def _freed(grad) -> None:
    """The closure of an op result that a backward pass has consumed."""
    raise RuntimeError("backward through a graph an earlier backward() freed; run the forward pass again")


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

    Operations on tensors record a backward closure when an input has
    ``requires_grad``; calling ``backward()`` on a scalar result
    propagates gradients to every tensor in the graph with that flag.
    A tensor that ``frozen`` holds has a ``_kernels`` dict for the block,
    where a conv on it keeps its Winograd transforms U; otherwise None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_kernels")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_dtype(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._kernels: dict | None = None  # U by (dtype, split), while frozen holds it

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data, requires_grad=_records(parents))
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
        closure has passed it on, so it never outlives its use. The graph
        is freed as it is consumed: each op result drops its closure and
        parent links when backward reaches it, so an activation dies when
        the last closure that reads it has run. A second backward through
        a freed graph raises ``RuntimeError``.
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
        while topo:
            node = topo.pop()  # the list holds no node it has visited
            closure, g = node._backward, node.grad
            if closure is None:
                continue
            node.grad, node._backward, node._parents = None, _freed, ()
            # unless the caller holds this node, its data dies here, before the
            # closure runs; only softmax's and bn_relu_pool(pool=False)'s closures
            # read their op's output (``s``, ``yv``), so theirs lives until they run
            del node
            if g is not None:
                closure(g)

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
            a._adopt(_product_grad(g, np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._adopt(_product_grad(np.swapaxes(a.data, -1, -2), g, b.shape))

    return Tensor._from_op(out_data, (a, b), bwd)


def _product_grad(u: np.ndarray, v: np.ndarray, shape: tuple) -> np.ndarray:
    """``_unbroadcast(u @ v, shape)``: the gradient of a matmul operand of ``shape``.

    A 2-D operand that the batch shares (an attention projection) sums
    one product per batch item. When those products hold more than
    ``IM2COL_BYTES`` (``tsa.wv`` at B=128: 128 MiB), each is made and
    added in item order, the order the batch sum takes, so the bytes are
    the same and no batch of them exists; smaller ones keep the one
    batched GEMM, which costs less per call.
    """
    items = math.prod(u.shape[:-2])
    if len(shape) != 2 or not u.ndim == v.ndim > 2 or items * math.prod(shape) * u.itemsize <= IM2COL_BYTES:
        return _unbroadcast(np.matmul(u, v), shape)
    u, v = u.reshape(-1, *u.shape[-2:]), v.reshape(-1, *v.shape[-2:])
    out = u[0] @ v[0]
    for n in range(1, len(u)):
        out += u[n] @ v[n]
    return out


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
        if _records((x,)):
            idx = np.argmax(x.data, axis=ax)  # first occurrence on ties; only backward reads it

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


# -- engine threads -------------------------------------------------------------------

# conv2d and the batchnorm passes split their work into units that write
# disjoint parts of buffers the calling thread allocated: channel ranges,
# transform points, batch items, weight-gradient rows or batchnorm
# blocks. The split reads shapes only, never the thread count, and no
# unit adds into another's output, so every float is the one a loop over
# the units in order computes, at any thread count. Two parts per split:
# four ran an ICBHI train step 4% slower on 2 vCPUs (more, smaller GEMMs).
UNITS = 2

# An op whose largest array holds fewer bytes per batch item is not split
# and runs on the calling thread without starting the pool. Like
# ``_winograd_applies``, the rule reads one image's shape, not the batch
# size: the tiny preset (20 KB per item) runs serially at any batch,
# every block of the ICBHI and SPRSound presets (at least 0.5 MB per
# item) on the pool.
THREAD_BYTES = 256 << 10

_BUDGET = None  # threads the engine may run; None: the CPUs this process may run on
_POOL = None  # (threads, executor or None), from the first op that splits


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it starts its own pool."""
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS
    through ``ctypes``, or None where numpy uses another BLAS (MKL,
    Accelerate), whose threads the engine cannot hand over."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):  # numpy 2's scipy-openblas, numpy 1's
            get = getattr(lib, prefix + "get_num_threads64_", None)
            set_ = getattr(lib, prefix + "set_num_threads64_", None)
            if get is not None and set_ is not None:
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _one_heap() -> None:
    """Have every thread allocate from the main thread's heap (glibc's
    ``M_ARENA_MAX`` of 1). With heaps of their own, the pool threads' freed
    unit temporaries stay mapped beside the main heap's: the ``train-icbhi``
    benchmark's peak RSS read 441-466 MB, against 405-430 MB serially and
    389-413 MB with one heap."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc only
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-8, 1)  # M_ARENA_MAX


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim`` through ``ctypes``, or None elsewhere."""
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _trim_heap_before(nbytes: int) -> None:
    """Hand the heap's free pages back to the system before allocating
    ``nbytes`` that glibc serves from mmap (above its 32 MiB ceiling on
    64-bit hosts), which no free heap chunk can take.

    How many freed temporaries the shared heap keeps resident at such a
    moment depends on how the pool threads' allocations interleaved: a
    ``train-icbhi`` benchmark step peaked at 337, 353 or 361 MB from one
    run to the next, at the first block's batchnorm input gradient; with
    the heap trimmed there, at 335-337 MB in 20 of 20 runs. That buffer is
    now the first block's conv output, rebuilt in backward."""
    if nbytes > 32 << 20 and (trim := _malloc_trim()) is not None:
        trim(0)


def _empty_like(a: np.ndarray) -> np.ndarray:
    """``np.empty_like(a)``, with the heap trimmed first (``_trim_heap_before``)."""
    _trim_heap_before(a.nbytes)
    return np.empty_like(a)


@contextmanager
def thread_budget(threads: int):
    """Run the block, and every process forked inside it, on ``threads`` threads.

    The process's one thread budget, by default the CPUs it may run on.
    Ops inside the block start a pool of that size when it is 2 to
    ``UNITS`` (the pool from before is set aside until the block ends),
    and OpenBLAS runs ``threads`` threads, but no more than those CPUs,
    until one does, then one thread while the pool runs. The FBS job
    pool forks its workers inside the block, each with its share of the
    CPUs.
    """
    global _BUDGET, _POOL
    if threads < 1:
        raise ValueError(f"a thread budget must be at least 1, got {threads}")
    blas = _openblas()
    saved = _BUDGET, _POOL, blas and blas[0]()
    _BUDGET, _POOL = threads, None
    if blas:
        # more OpenBLAS threads than CPUs spin against each other: one
        # block-2 conv took 39.5 s at 3 threads on 2 CPUs, against 0.6 s
        blas[1](min(threads, len(os.sched_getaffinity(0))))
    try:
        yield
    finally:
        if _POOL is not None and _POOL[1] is not None:
            _POOL[1].shutdown()
        _BUDGET, _POOL, count = saved
        if blas:
            blas[1](count)


def _lanes(big: bool) -> int:
    """The threads an op runs its units on: one below ``THREAD_BYTES``,
    else the pool's. The first such op starts the pool with the thread
    budget, and sets OpenBLAS to one thread from then on, so that each
    unit's GEMMs run on the thread that calls them. A budget above
    ``UNITS`` keeps the engine serial and OpenBLAS at the budget: the
    units would run a conv's GEMMs on ``UNITS`` threads where OpenBLAS
    runs them on all (hosts with more than 2 CPUs are not measured).
    Without a way to set OpenBLAS's threads the engine stays serial."""
    global _POOL
    if not big:
        return 1
    if _POOL is None:
        n = _BUDGET or len(os.sched_getaffinity(0))
        blas = _openblas() if 1 < n <= UNITS else None
        if blas is None:
            _POOL = (1, None)
        else:
            blas[1](1)
            _one_heap()
            _POOL = (n, ThreadPoolExecutor(n - 1, thread_name_prefix="lungsound-engine"))
    return _POOL[0]


def _parts(total: int, big: bool) -> list[slice]:
    """``range(total)`` in ``UNITS`` near-equal parts (fewer if it is shorter),
    or whole for an op below ``THREAD_BYTES``."""
    m = min(UNITS, total) if big else 1
    return [slice(total * i // m, total * (i + 1) // m) for i in range(m)]


def _each(lanes: int, unit, parts: list) -> None:
    """``unit(part, lane)`` for each of ``parts``, on ``lanes`` threads;
    ``lane`` numbers the thread that runs it (0 is this one), so that a
    unit can use that thread's scratch. A unit's exception is raised once
    every unit has stopped."""
    if lanes == 1 or len(parts) == 1:
        for part in parts:
            unit(part, 0)
        return
    todo = iter(parts)  # each thread takes the next part

    def drain(lane):
        for part in todo:
            unit(part, lane)

    others = [_POOL[1].submit(drain, lane) for lane in range(1, min(lanes, len(parts)))]
    try:
        drain(0)
    finally:
        wait(others)
    for f in others:
        f.result()


# -- convolution ----------------------------------------------------------------

# Bytes of im2col columns conv2d builds at once. The batch is split into
# chunks of items whose columns fit, so a conv holds O(this) extra memory
# at any batch size instead of one column buffer for the whole batch.
# Above it, a shared weight's per-item gradient products are added one at
# a time (``_product_grad``), and a conv output that ``bn_relu_pool`` can
# rebuild is not kept for backward.
IM2COL_BYTES = 16 << 20


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int, out: np.ndarray) -> None:
    """The (B, C*kh*kw, Ho*Wo) columns of the already padded ``xp``, into ``out``."""
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
    out.reshape(windows.shape)[...] = windows


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
    batch size, so every clip of any batch runs the same algorithm.
    """
    tiles = -(-h // 4) * -(-w // 4)
    return (kh, kw, stride, padding) == (5, 5, 1, 2) and ci >= 8 and tiles >= 16


# OpenBLAS can round a GEMM column by where it falls in the kernel's column
# blocks. Padded to 16 or 32 tiles, 20-tile items shared M = U V with the
# bytes each got alone; padded to 8 they did not (C = 64 and 128, 1 and 2
# threads). The kernel is OpenBLAS's per-CPU pick: TestBatchInvariance holds it.
WINO_ALIGN = 16


def _winograd_chunk(ci: int, co: int, h: int, w: int, itemsize: int) -> int:
    """Batch items a Winograd conv2d runs at once, and the one place that
    decides which clips share a GEMM: one, unless an item's tile count is
    a multiple of ``WINO_ALIGN``; then as many as fit their V and M, or
    dM, V and dV, (C' + 2C) * 64 values per tile, in ``IM2COL_BYTES`` (at
    least one)."""
    tiles = -(-h // 4) * -(-w // 4)
    if tiles % WINO_ALIGN:
        return 1
    return max(1, IM2COL_BYTES // (64 * tiles * (co + 2 * ci) * itemsize))


def _wino_transforms(dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2-D transforms over a flattened tile: input (64, 64), kernel
    (64, 25) and output (16, 64), at ``dtype``."""
    bt, g, at = (np.array(m, dtype=dtype) for m in (_WINO_BT, _WINO_G, _WINO_AT))
    return np.kron(bt, bt), np.kron(g, g), np.kron(at, at)


def _wino_kernel(weight: np.ndarray, kg: np.ndarray, lanes: int, big: bool) -> np.ndarray:
    """U = (64, C', C): the transformed kernel, split by output channel
    (a split by point would have each unit read the whole kernel)."""
    co, ci = weight.shape[:2]
    u = np.empty((64, co, ci), dtype=np.result_type(kg, weight))

    def unit(chans, lane):
        np.matmul(kg, weight[chans].reshape(-1, 25).T, out=u[:, chans].reshape(64, -1))

    _each(lanes, unit, _parts(co, big))
    return u


@contextmanager
def frozen(tensors):
    """Run a model that is not being trained: the one way to do so.

    Clears ``requires_grad`` on ``tensors`` (a model's parameters) for
    the block, so ops record a graph only for an input that needs a
    gradient, and no backward computes a weight gradient or touches a
    parameter's ``.grad``. Each held tensor also keeps the U of every
    conv2d forward or backward on it (by dtype and split), so a call
    that runs batches, chunks or passes transforms each kernel once.
    The weights must not change inside the block. A nested block shares
    the U its outer block holds, and every exit restores the flag and
    the U each held tensor had at entry, after an error too, so the
    outermost exit drops it: none outlives a step that updates the
    weights in place, and a tensor no block holds never keeps one.
    """
    tensors = list(tensors)
    saved = [(t.requires_grad, t._kernels) for t in tensors]
    try:
        for t in tensors:
            t.requires_grad = False
            if t._kernels is None:
                t._kernels = {}
        yield
    finally:
        for t, (flag, kernels) in zip(tensors, saved):
            t.requires_grad, t._kernels = flag, kernels


def _kernel_of(weight: Tensor, dt, lanes: int, big: bool) -> np.ndarray:
    """U of ``weight`` at ``dt``: built here, or taken from the frozen
    weight that holds it."""
    kernels = None if weight.requires_grad else weight._kernels
    if kernels is not None and (dt, big) in kernels:
        return kernels[dt, big]
    u = _wino_kernel(weight.data, _wino_transforms(dt)[1], lanes, big)
    if kernels is not None:
        kernels[dt, big] = u
    return u


def _wino_input(x: np.ndarray, kb: np.ndarray, lanes: int, big: bool) -> np.ndarray:
    """V = (64, C, n*T): the transformed 8x8 tiles, at stride 4, of the
    chunk ``x`` (n, C, H, W) padded by 2 and then to whole 4x4 output
    tiles; columns run over (item, tile row, tile column). Split by input
    channel: each unit pads, cuts and transforms its channels' tiles."""
    n, c, h, w = x.shape
    th, tw = -(-h // 4), -(-w // 4)
    v = np.empty((64, c, n * th * tw), dtype=np.result_type(kb, x))

    def unit(chans, lane):
        xs = x[:, chans]
        xp = np.zeros((n, xs.shape[1], 4 * th + 4, 4 * tw + 4), dtype=x.dtype)
        xp[:, :, 2 : 2 + h, 2 : 2 + w] = xs
        s0, s1, s2, s3 = xp.strides
        tiles = np.lib.stride_tricks.as_strided(
            xp, shape=(xs.shape[1], n, th, tw, 8, 8), strides=(s1, s0, 4 * s2, 4 * s3, s2, s3), writeable=False
        )
        d = np.ascontiguousarray(tiles).reshape(-1, 64)
        np.matmul(kb, d.T, out=v[:, chans].reshape(64, -1))

    _each(lanes, unit, _parts(c, big))
    return v


def _winograd_forward(x: np.ndarray, weight: Tensor, chunk: int, lanes: int, big: bool) -> np.ndarray:
    """(B, C', H, W) output for the input ``x`` (B, C, H, W) and the
    kernel tensor ``weight`` (C', C, 5, 5).

    Per chunk: V split by input channel, M = U V by transform point, and
    the output transform and write by output channel.
    """
    dt = np.result_type(x, weight.data)
    u = _kernel_of(weight, dt, lanes, big)
    kb, _, ka = _wino_transforms(dt)
    b, _, h, w = x.shape
    th, tw = -(-h // 4), -(-w // 4)
    co = u.shape[1]
    out = np.empty((b, co, h, w), dtype=dt)
    for s in range(0, b, chunk):
        n = min(chunk, b - s)
        v = _wino_input(x[s : s + n], kb, lanes, big)
        m = np.empty((64, co, n * th * tw), dtype=dt)

        def products(points, lane):
            np.matmul(u[points], v[points], out=m[points])

        _each(lanes, products, _parts(64, big))
        del v

        def write(chans, lane):
            y = (ka @ m[:, chans].reshape(64, -1)).reshape(4, 4, -1, n, th, tw)
            # output pixel (4*ty + i, 4*tx + j) is y[i, j, :, :, ty, tx]; the
            # last tile row and column may hang over the edge
            outs = out[s : s + n, chans].transpose(1, 0, 2, 3)
            for i in range(4):
                for j in range(4):
                    outs[:, :, i::4, j::4] = y[i, j, :, :, : (h - i + 3) // 4, : (w - j + 3) // 4]

        _each(lanes, write, _parts(co, big))
        del m
    return out


def _winograd_backward(
    x: np.ndarray, weight: Tensor, g: np.ndarray, chunk: int, want_x: bool, lanes: int, big: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(d weight, d x) for the output gradient ``g`` (B, C', H, W): d
    weight when ``weight`` has ``requires_grad``, d x when ``want_x``.

    In the transformed domain dU = dM V^T and dV = U^T dM, where dM is
    the adjoint output transform of ``g``; dV's adjoint input transform
    is scatter-added into the overlapping tiles of the chunk's padded
    input gradient. V is rebuilt from ``x`` only for dU, and U comes from
    ``_kernel_of`` only for dV. Per chunk: dM split by output channel, V
    by input channel, dU and dV by transform point (each dU[k] adds the
    chunks in order), and the input gradient's transform, scatter and
    copy-out by input channel; U and the kernel gradient by output
    channel.
    """
    dt = np.result_type(x, weight.data)
    kb, kg, ka = _wino_transforms(dt)
    b, c, h, w = x.shape
    th, tw = -(-h // 4), -(-w // 4)
    co = weight.shape[0]
    # the long-lived d x first, and U freed before d weight exists: in
    # the other order the transient U and dU leave holes in the heap that
    # raise a B=16 ICBHI train step's peak RSS by about 4%
    gx = np.empty_like(x) if want_x else None
    ut = _kernel_of(weight, dt, lanes, big).transpose(0, 2, 1) if want_x else None
    du = np.zeros((64, co, c), dtype=dt) if weight.requires_grad else None
    ragged = (4 * th, 4 * tw) != (h, w)
    for s in range(0, b, chunk):
        n = min(chunk, b - s)
        dm = np.empty((64, co, n * th * tw), dtype=dt)

        def cut(chans, lane):
            # g's tiles, zero where they hang over the edge
            gs = g[s : s + n, chans].transpose(1, 0, 2, 3)
            gt = (np.zeros if ragged else np.empty)((4, 4, gs.shape[0], n, th, tw), dtype=dt)
            for i in range(4):
                for j in range(4):
                    gt[i, j, :, :, : (h - i + 3) // 4, : (w - j + 3) // 4] = gs[:, :, i::4, j::4]
            np.matmul(ka.T, gt.reshape(16, -1), out=dm[:, chans].reshape(64, -1))

        _each(lanes, cut, _parts(co, big))
        v = None if du is None else _wino_input(x[s : s + n], kb, lanes, big)
        dv = None if gx is None else np.empty((64, c, n * th * tw), dtype=dt)

        def products(points, lane):
            if du is not None:
                for k in range(points.start, points.stop):  # one (C', C) product at a time, added in place
                    du[k] += dm[k] @ v[k].T
            if dv is not None:
                np.matmul(ut[points], dm[points], out=dv[points])

        _each(lanes, products, _parts(64, big))
        del v, dm  # hold one chunk's transformed buffers at a time
        if gx is None:
            continue

        def scatter(chans, lane):
            dd = (kb.T @ dv[:, chans].reshape(64, -1)).reshape(8, 8, -1, n, th, tw)
            gxp = np.zeros((dd.shape[2], n, 4 * th + 4, 4 * tw + 4), dtype=dt)
            for i in range(8):
                for j in range(8):
                    gxp[:, :, i : i + 4 * th : 4, j : j + 4 * tw : 4] += dd[i, j]
            del dd
            gx[s : s + n, chans] = gxp[:, :, 2 : 2 + h, 2 : 2 + w].transpose(1, 0, 2, 3)

        _each(lanes, scatter, _parts(c, big))
        del dv
    del ut
    if du is None:
        return None, gx
    gw = np.empty((co, c, 5, 5), dtype=dt)

    def kernel_adjoint(chans, lane):
        np.matmul(du[:, chans].reshape(64, -1).T, kg, out=gw[chans].reshape(-1, 25))

    _each(lanes, kernel_adjoint, _parts(co, big))
    return gw, gx


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation of ``x`` [B,C,H,W] with ``weight`` [C',C,kh,kw].

    Output spatial size is floor((H + 2*pad - kh)/stride) + 1 (same for W).
    Gradients are produced for both the input and the kernel.

    A clip's output and input gradient are the bytes it gets alone, in any
    batch: ``_winograd_applies`` picks one of two algorithms per image, and
    a GEMM runs per item or over items ``_winograd_chunk`` keeps aligned.
    That covers no-grad and frozen-weight passes; the weight gradient sums
    over the batch by definition. This, and the thread-count identity
    below, hold on OpenBLAS's SkylakeX kernel, where they were checked;
    under its Haswell kernel (``OPENBLAS_CORETYPE=Haswell``) 18 tests in
    ``TestBatchInvariance``, ``TestChunkedInference``,
    ``TestConv2dWinograd`` and ``TestEngineThreads`` fail (ROADMAP item 9).

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
    fit in ``IM2COL_BYTES`` (at least one), and are not kept: backward pads
    the input, which the graph keeps, again and rebuilds each chunk's
    columns for the weight gradient, so frozen weights (``requires_grad``
    cleared) never rebuild them. The input gradient's ``wmat.T @ g`` and
    col2im run per chunk too, into that chunk's slice of the padded input
    gradient. The Winograd path chunks the batch by ``_winograd_chunk``,
    so that V and M (or dM, V and dV) of one chunk fit in
    ``IM2COL_BYTES``, and pads each chunk as it cuts its tiles; frozen
    weights build no dU and rebuild no V, and an input without
    ``requires_grad`` builds no U or dV in backward. Neither path keeps a
    padded copy of the input, and the forward pass is ``_conv_forward``,
    which ``bn_relu_pool`` also runs to rebuild an output it did not keep.

    Where U lives: on a weight that ``frozen`` holds, every call reuses
    the U the first one built, until the outermost block that holds it
    ends. Otherwise each forward, and each backward that needs dV,
    builds its own and drops it on return. The graph keeps none.

    A conv whose input or output holds ``THREAD_BYTES`` per batch item runs each
    chunk as units on the engine's threads (see ``_each``), each writing
    its own part of a buffer allocated here. Winograd: the tile cut and
    input transform (V), the input gradient's transform, scatter-add and
    copy-out split by input channel; M = U V, dU and dV by transform
    point, so each dU[k] still adds the chunks in order; U, the output
    transform and write, dM and the kernel gradient by output channel.
    im2col: the columns, the forward GEMM and the input gradient by batch
    item, the weight gradient by rows, each adding the items in order.
    The parts are fixed by shapes (``UNITS``), so the result does not
    depend on the thread count. A smaller conv is one unit per step.
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
    out_data = _conv_forward(x.data, weight, stride, padding)

    def bwd(g):
        ho, wo, winograd, chunk, big = _conv_plan(x.shape, weight.shape, stride, padding, x.data.itemsize)
        lanes = _lanes(big)
        if winograd:
            gw, gx = _winograd_backward(x.data, weight, g, chunk, x.requires_grad, lanes, big)
            if gw is not None:
                weight._adopt(gw)
            if gx is not None:
                x._adopt(gx)
            return
        xp = _padded(x.data, padding)
        wmat = weight.data.reshape(co, -1)
        g2 = g.reshape(b, co, ho * wo)
        gw = np.zeros_like(wmat) if weight.requires_grad else None
        gx = np.zeros_like(xp) if x.requires_grad else None
        for s in range(0, b, chunk):
            gs = g2[s : s + chunk]
            cols = None if gw is None else np.empty((len(gs), wmat.shape[1], ho * wo), dtype=xp.dtype)

            def per_item(items, lane):
                if cols is not None:
                    _im2col(xp[s : s + chunk][items], kh, kw, stride, ho, wo, cols[items])
                if gx is not None:
                    gcols = np.matmul(wmat.T, gs[items]).reshape(-1, ci, kh, kw, ho, wo)
                    gxs = gx[s : s + chunk][items]
                    for i in range(kh):
                        for j in range(kw):
                            gxs[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[
                                :, :, i, j
                            ]

            def per_rows(rows, lane):  # each item's product added in item order
                for n in range(len(gs)):
                    gw[rows] += gs[n, rows] @ cols[n].T

            _each(lanes, per_item, _parts(len(gs), big))
            if gw is not None:
                _each(lanes, per_rows, _parts(co, big))
            del cols  # hold one chunk-sized buffer at a time
        if gw is not None:
            weight._adopt(gw.reshape(co, ci, kh, kw))
        if gx is not None:
            x._accum(gx[:, :, padding : padding + h, padding : padding + w])

    return Tensor._from_op(out_data, (x, weight), bwd)


def _conv_plan(shape: tuple, wshape: tuple, stride: int, padding: int, itemsize: int) -> tuple:
    """(Ho, Wo, winograd, items per chunk, big) of a conv2d of an input of
    ``shape`` with a kernel of ``wshape``: all fixed by the shapes."""
    _, c, h, w = shape
    co, ci, kh, kw = wshape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    winograd = _winograd_applies(ci, h, w, kh, kw, stride, padding)
    big = max(c * h * w, co * ho * wo) * itemsize >= THREAD_BYTES
    if winograd:
        chunk = _winograd_chunk(ci, co, h, w, itemsize)
    else:
        chunk = max(1, IM2COL_BYTES // (ci * kh * kw * ho * wo * itemsize))
    return ho, wo, winograd, chunk, big


def _padded(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` (B, C, H, W) with ``padding`` zeros around each plane."""
    if not padding:
        return x
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def _conv_forward(x: np.ndarray, weight: Tensor, stride: int, padding: int) -> np.ndarray:
    """conv2d's output (B, C', Ho, Wo) for the input array ``x``: conv2d's
    forward pass, and how ``bn_relu_pool`` rebuilds a conv output that its
    graph does not keep, in the same chunks and GEMMs, so the same bytes."""
    ho, wo, winograd, chunk, big = _conv_plan(x.shape, weight.shape, stride, padding, x.itemsize)
    lanes = _lanes(big)
    if winograd:
        return _winograd_forward(x, weight, chunk, lanes, big)
    co, _, kh, kw = weight.shape
    b = len(x)
    wmat = weight.data.reshape(co, -1)
    xp = _padded(x, padding)
    out = np.empty((b, co, ho * wo), dtype=np.result_type(wmat, xp))
    for s in range(0, b, chunk):
        cols = np.empty((min(chunk, b - s), wmat.shape[1], ho * wo), dtype=xp.dtype)

        def forward(items, lane):
            _im2col(xp[s : s + chunk][items], kh, kw, stride, ho, wo, cols[items])
            np.matmul(wmat, cols[items], out=out[s : s + chunk][items])

        _each(lanes, forward, _parts(len(cols), big))
        del cols
    return out.reshape(b, co, ho, wo)


# -- batch normalization --------------------------------------------------------

BN_MOMENTUM = 0.1  # weight of the batch statistics in the running estimates
BN_EPS = 1e-5


class BatchNormState:
    """Running statistics for one batchnorm layer (not trainable)."""

    def __init__(self, n_channels: int):
        self.running_mean = np.zeros(n_channels, dtype=np.float32)
        self.running_var = np.ones(n_channels, dtype=np.float32)


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


def _bn_stats(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState) -> tuple:
    """Per-channel (mean, inv_std, scale, shift) of batchnorm over ``x``, and
    the mode ``learn``: (gamma, beta), each None if it needs no gradient.

    When ``gamma`` or ``beta`` needs a gradient it takes batch statistics
    and updates the running estimates (exponential moving average,
    unbiased variance); otherwise it reads them. Each (item, channel) row
    of a (B, C, H*W) view is summed over its contiguous pixels block by block
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
    learn = tuple(p if p.requires_grad else None for p in (gamma, beta))
    if learn != (None, None):
        xv = x.data.reshape(b, c, h * w)
        blocks, size = _bn_blocks(x.data)
        lanes = _lanes(c * h * w * x.data.itemsize >= THREAD_BYTES)
        rows = np.empty((b, c), dtype=dt)

        def sums(block, lane):
            i, ch = block
            xv[i, ch].sum(axis=2, out=rows[i, ch])

        _each(lanes, sums, blocks)
        mean = rows.sum(axis=0) / n
        work = np.empty((lanes, size), dtype=dt)

        def squares(block, lane):
            i, ch = block
            xb = xv[i, ch]
            dev = np.subtract(xb, mean[ch, None], out=_front(work[lane], xb.shape))
            _row_dots(dev, dev, rows[i, ch])

        _each(lanes, squares, blocks)
        var = rows.sum(axis=0) / n  # biased, used for normalization
        unbiased = var * (n / max(n - 1, 1))
        state.running_mean = (
            (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        ).astype(state.running_mean.dtype)
        state.running_var = (
            (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * unbiased
        ).astype(state.running_var.dtype)
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=dt))
    scale = (gamma.data * inv_std).astype(dt, copy=False)
    shift = (beta.data - mean * scale).astype(dt, copy=False)
    return mean, inv_std, scale, shift, learn


def _bn_adjoint(x, gamma, beta, grad_block, mean, inv_std, scale, gx) -> None:
    """Batchnorm's input gradient into ``gx``; dgamma and dbeta handed to ``gamma`` and ``beta``.

    ``x`` is the input array (B, C, H, W). ``grad_block(items, channels,
    out, work)`` writes the gradient of the output over one block of
    ``_bn_blocks(x)`` into ``out`` (n, c, H*W); ``work`` is a block-sized
    scratch buffer it may overwrite, one per thread. ``gx`` is None when
    no input gradient is wanted, else a fresh buffer or ``x`` itself,
    which dx is written over one block at a time, after that block's
    last read.

    The adjoint runs two passes over the blocks, each block a unit. The
    first makes each block's gradient and sums each (item, channel) row
    of it and of its product with xhat (recomputed from ``x``) for dbeta
    and dgamma; it parks the gradient in the block's slice of a fresh
    ``gx``, else in a block-sized spare buffer per thread. The second
    writes each block's dx into its slice of ``gx``, from the parked
    gradient, or from the block's gradient made again where none could
    be parked. ``gamma`` and ``beta`` are the mode ``_bn_stats`` fixed at
    forward: with both None, dx is the output gradient times ``scale``,
    and the first pass is skipped.
    """
    b, c, h, w = x.shape
    n = b * h * w
    dt = x.dtype
    xv = x.reshape(b, c, h * w)
    blocks, size = _bn_blocks(x)
    lanes = _lanes(c * h * w * x.itemsize >= THREAD_BYTES)
    training = gamma is not None or beta is not None
    work = np.empty((lanes, size), dtype=dt)
    gxv = None if gx is None else gx.reshape(b, c, h * w)
    parked = gx is not None and gx is not x
    spare = None if parked else np.empty((lanes, size), dtype=dt)

    def normalized(i, ch, lane):  # xhat of one block, in the thread's ``work``
        xb = xv[i, ch]
        xhat = np.subtract(xb, mean[ch, None], out=_front(work[lane], xb.shape))
        xhat *= inv_std[ch, None]
        return xhat

    def gradient(i, ch, lane):  # one block's output gradient, parked in gx or in the thread's spare
        gv = gxv[i, ch] if parked else _front(spare[lane], xv[i, ch].shape)
        grad_block(i, ch, gv, work[lane])
        return gv

    def sums(block, lane):
        i, ch = block
        gv = gradient(i, ch, lane)
        gv.sum(axis=2, out=rows_g[i, ch])
        _row_dots(gv, normalized(i, ch, lane), rows_gx[i, ch])

    if training:
        rows_g, rows_gx = np.empty((b, c), dtype=dt), np.empty((b, c), dtype=dt)
        _each(lanes, sums, blocks)
        sum_g, sum_gxhat = rows_g.sum(axis=0), rows_gx.sum(axis=0)
        if beta is not None:
            beta._adopt(sum_g)
        if gamma is not None:
            gamma._adopt(sum_gxhat)
    if gx is None:
        return

    def adjoint(block, lane):
        i, ch = block
        gv = gxv[i, ch] if parked and training else gradient(i, ch, lane)
        if not training:
            np.multiply(gv, scale[ch, None], out=gxv[i, ch])
            return
        # scale * (g - mean(g) - xhat * mean(g * xhat)), in xhat's buffer;
        # a batch of one block (one unit, on this thread) whose gradient
        # was parked still has its xhat from the first pass
        xhat = _front(work[0], gv.shape) if parked and len(blocks) == 1 else normalized(i, ch, lane)
        xhat *= -(sum_gxhat / n)[ch, None]
        xhat += gv
        xhat -= (sum_g / n)[ch, None]
        np.multiply(xhat, scale[ch, None], out=gxv[i, ch])

    _each(lanes, adjoint, blocks)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState) -> Tensor:
    """Per-channel batch normalization over [B,C,H,W]; the model runs it
    only inside ``bn_relu_pool``, and tests hold the fused op to this one.

    Batch statistics when ``gamma`` or ``beta`` needs a gradient, else the
    running estimates (``_bn_stats``). The normalized input is not stored:
    backward recomputes it from ``x``, which the graph keeps alive anyway.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    mean, inv_std, scale, shift, learn = _bn_stats(x, gamma, beta, state)
    b, c, h, w = x.shape
    out_data = x.data.reshape(b, c, h * w) * scale[:, None]
    out_data += shift[:, None]

    def bwd(g):
        gv = g.reshape(b, c, h * w)

        def grad_block(i, ch, out, work):
            out[...] = gv[i, ch]

        gx = _empty_like(x.data) if x.requires_grad else None
        _bn_adjoint(x.data, *learn, grad_block, mean, inv_std, scale, gx)
        if gx is not None:
            x._adopt(gx)

    return Tensor._from_op(out_data.reshape(b, c, h, w), (x, gamma, beta), bwd)


def bn_relu_pool(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    pool: bool = True,
    conv: tuple | None = None,
) -> Tensor:
    """Batchnorm, ReLU and a 2x2 average pool (or, with ``pool=False``,
    no pool) as one op, bit for bit the maps and gradients of the
    separate ops (``batchnorm2d``, a ReLU and ``pool2d``), whose mode it
    shares: batch statistics when ``gamma`` or ``beta`` needs a gradient.

    Backward reads only ``x`` and, without the pool, the ReLU output
    (In-Place Activated BatchNorm, arXiv:1712.02616, keeps what backward
    recomputes from): no batchnorm map, and with the pool no ReLU map,
    outlives the call. Both passes run block by block (``_bn_blocks``,
    ``EPILOGUE_BYTES``), so no temporary is larger than one block.
    Forward: the affine, ReLU and pool of each block. Backward: for each
    block, the pool adjoint (g/4 in each 2x2 window, zero in a dropped
    odd row or column) is masked by the sign of ``x*scale + shift``,
    recomputed with the forward's float ops; without the pool, the
    output gradient is masked by the sign of the ReLU output. The
    batchnorm adjoint (``_bn_adjoint``) writes dx into a fresh buffer,
    where its first pass parks each masked block for the second.

    ``conv`` is None or the (input, weight, padding) of the stride-1
    ``conv2d`` that made ``x``. If that input needs no gradient, ``x``
    needs one, and ``x`` holds more than ``IM2COL_BYTES`` (in training,
    the first block of the ICBHI and SPRSound presets), the graph keeps
    the input and the weight instead of ``x``, so ``x`` dies when the
    caller drops it. Backward then rebuilds ``x`` with the conv's own
    forward (``_conv_forward``: the same bytes), has the adjoint write dx
    over it, masking each block again in its second pass, and hands that
    buffer to the conv's backward as its output gradient: a step holds
    ``x`` neither through the forward pass nor beside a gradient of its
    size (arXiv:1604.06174 and 1712.02616).
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    b, c, h, w = x.shape
    if pool and (h < 2 or w < 2):
        raise ShapeError(f"pool window 2 exceeds spatial dims of input {x.shape}")
    mean, inv_std, scale, shift, learn = _bn_stats(x, gamma, beta, state)
    ho, wo = h // 2, w // 2
    dt = x.data.dtype
    xv = x.data.reshape(b, c, h * w)
    blocks, size = _bn_blocks(x.data)
    lanes = _lanes(c * h * w * x.data.itemsize >= THREAD_BYTES)
    if pool:
        out_data = np.zeros((b, c, ho, wo), dtype=dt)
        work = np.empty((lanes, size), dtype=dt)
    else:
        out_data = np.empty((b, c, h, w), dtype=dt)
        yv = out_data.reshape(b, c, h * w)

    def forward(block, lane):
        i, ch = block
        xb = xv[i, ch]
        y = np.multiply(xb, scale[ch, None], out=_front(work[lane], xb.shape) if pool else yv[i, ch])
        y += shift[ch, None]
        np.maximum(y, _DTYPE(0), out=y)
        if not pool:
            return
        y = y.reshape(-1, y.shape[1], h, w)
        outs = out_data[i, ch]
        for di in range(2):
            for dj in range(2):
                outs += y[:, :, di : di + 2 * ho : 2, dj : dj + 2 * wo : 2]
        outs /= _DTYPE(4)

    _each(lanes, forward, blocks)
    rebuild = conv is not None and x.requires_grad and not conv[0].requires_grad and x.data.nbytes > IM2COL_BYTES
    if rebuild:  # the graph keeps the conv's input and weight, not x
        inp, weight, padding = conv
        nbytes, hand, parents = x.data.nbytes, x._backward, (weight, gamma, beta)
    else:
        kept, hand, parents = x.data, (x._adopt if x.requires_grad else None), (x, gamma, beta)

    def bwd(g):
        if rebuild:  # x again, which dx is written over
            _trim_heap_before(nbytes)
            m = gx = _conv_forward(inp.data, weight, 1, padding)
        else:
            m, gx = kept, (None if hand is None else _empty_like(kept))
        mv = m.reshape(b, c, h * w)

        def grad_block(i, ch, out, work):
            gs = g[i, ch]
            if not pool:
                # the output gradient where the ReLU passed it on
                np.multiply(gs, yv[i, ch].reshape(gs.shape) > 0, out=out.reshape(gs.shape))
                return
            nb, nc = gs.shape[:2]
            # 0 + g/4, as the scatter into zeros of pool2d's adjoint adds
            # it: a -0.0 share becomes +0.0; ``work`` holds it until the
            # four copies are made, then the batchnorm map
            q = np.divide(gs, _DTYPE(4), out=_front(work, gs.shape))
            q += 0
            gb = out.reshape(nb, nc, h, w)
            gb[:, :, 2 * ho :] = 0  # the dropped row and column of an odd H or W
            gb[:, :, :, 2 * wo :] = 0
            for di in range(2):
                for dj in range(2):
                    gb[:, :, di : di + 2 * ho : 2, dj : dj + 2 * wo : 2] = q
            y = np.multiply(mv[i, ch], scale[ch, None], out=_front(work, out.shape))
            y += shift[ch, None]
            out *= y > 0

        _bn_adjoint(m, *learn, grad_block, mean, inv_std, scale, gx)
        if gx is not None:
            hand(gx)

    return Tensor._from_op(out_data, parents, bwd)


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

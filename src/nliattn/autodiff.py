"""Minimal dense-tensor arithmetic with reverse-mode automatic differentiation.

Every forward operation optionally records itself on the innermost active
``Tape``; ``Tape.backward`` then replays the records in reverse and
accumulates gradients into the leaves.  Without an active tape the same
functions run forward-only, which is what inference and
finite-difference evaluation use.

``requires_grad`` is the one flag that says a tensor learns.  A tensor
made with ``requires_grad=False`` is a constant, such as the frozen word
embeddings: it gets no ``.grad``, an operation none of whose inputs needs
a gradient is not taped, and its output is a constant too.
``lstm_sequence`` reads its input rows from a table given as column
blocks side by side, and forms an input gradient only for the blocks that
need one.

There is one tensor class.  A model's parameters are plain tensors; the
model names them in its ``parameters()`` registry, whose names key
checkpoints and the optimizer's state.  The optimizer updates the ones
that require a gradient, and the tape treats a parameter as any other
leaf.

Gradient arrays have one ownership rule: the walk never writes into an
array that a backward rule handed back, and a leaf keeps the array it is
handed only when that array owns its data and no other leaf holds it.
The gradient gᵀ·x of an ``affine`` weight is handed back as its two
factors (``_Factored``): x is held for the backward pass anyway, and for
a few batch rows g is far smaller than the array.  A leaf whose only
contribution they are keeps them: its ``.grad`` forms the array on first
read, and ``training.RMSProp.step`` forms it one row block at a time, the
same blocks, so a training step holds no such array.

Computation defaults to float32.  A global float64 mode (``precision``)
exists so gradients can be checked against central finite differences,
which are too noisy at single precision.

A tape and its tensors belong to one thread, and each thread keeps its
own stack of entered tapes, so an operation records on the innermost tape
of the thread that runs it.  Independent models (own tapes, own
parameters) may run in parallel; frozen tensors may be shared read-only.
``precision`` is process-wide.  The library starts one thread of its own,
the worker, and hands it work through ``_split`` only (in
``lstm_sequence``, ``affine``, ``attention_scores``, ``_uniform`` and for
``_size_groups``).  The worker reads and writes numpy arrays only and
never touches a tape.  Which calls a split makes depends on shapes alone,
and ``_use_worker`` decides only where they run, so outputs, gradients
and initial weights have the same bits either way, on any BLAS kernels.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import threading
from concurrent import futures
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    InvalidInputError,
    UsageError,
)

_DTYPE = np.float32


def default_dtype():
    return _DTYPE


@contextlib.contextmanager
def precision(name: str):
    """Temporarily switch the global dtype, "float32" (the default) or
    "float64", e.g. ``with precision("float64"):``."""
    global _DTYPE
    if name not in ("float32", "float64"):
        raise ConfigError(f"unsupported dtype {name!r}; use 'float32' or 'float64'")
    saved = _DTYPE
    _DTYPE = np.float32 if name == "float32" else np.float64
    try:
        yield
    finally:
        _DTYPE = saved


class Tensor:
    """Dense n-dimensional float array; the unit of all numeric computation.

    ``data`` is row-major contiguous; ``grad`` is filled in by
    ``Tape.backward`` and accumulates until the owner clears it.  A tensor
    with ``requires_grad`` False is a constant and never gets a ``grad``;
    an operation's output needs one when any of its inputs does.
    """

    # _grad: the gradient as stored, an array or a ``_Factored`` one
    __slots__ = ("data", "_grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = True):
        arr = np.asarray(data, dtype=_DTYPE)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self._grad = None
        self.requires_grad = requires_grad

    @property
    def grad(self):
        """The accumulated gradient array, or None.  A weight gradient the
        walk left as its two factors (``_Factored``) is formed on first
        read and kept, so every read sees the same array."""
        if isinstance(self._grad, _Factored):
            self._grad = self._grad.form()
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


# ---------------------------------------------------------------------------
# Tape


class _TapeStack(threading.local):
    """The tapes entered on the current thread, innermost last."""

    def __init__(self):
        self.tapes: list[Tape] = []


_TAPES = _TapeStack()


def _active_tape():
    tapes = _TAPES.tapes
    return tapes[-1] if tapes else None


class Tape:
    """Ordered record of differentiable operations.

    Records are appended in creation order, which is topological by
    construction: an operation's inputs always exist before its output.
    ``backward`` walks the records once, in reverse.  An operation's output
    gradient is complete when its record is reached; the walk takes it out
    of its scratch space there and lets go of it once the rule has run.
    What is left at the end are the gradients of the leaves that need one
    (parameters, tensors made off the tape), which become their ``.grad``.

    A backward rule returns one gradient per input: an array, None for
    none, or the two factors of a weight gradient (``_Factored``).  The
    walk sums contributions out of place, so it never writes into an array
    that a rule handed back, and forms factors into their array wherever
    it reads them or sums them with another contribution.  Factors that
    are a leaf's only contribution stay factors.  A leaf keeps the array
    it is handed when that array owns its data and no other leaf already
    holds it; otherwise it gets a copy.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPES.tapes.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.tapes.pop()
        assert popped is self

    def __len__(self):
        return len(self._records)

    def _record(self, out: Tensor, inputs: tuple, backward: Callable) -> None:
        self._records.append((out, inputs, backward))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``leaf.grad`` for this tape's leaves.

        Gradients add onto whatever a leaf already stores, so parameters
        keep accumulating until their owner zeroes them.  A tape can be
        walked only once.
        """
        if loss.data.ndim != 0:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self._consumed:
            raise UsageError("this tape has already been walked backward")
        if not loss.requires_grad:
            raise UsageError("loss depends on no tensor that needs a gradient")
        if not any(out is loss for out, _, _ in self._records):
            raise UsageError("loss was not produced on this tape")
        self._consumed = True
        given: set[int] = set()  # ids of the arrays leaves keep uncopied
        for tensor, grad in self._walk(loss).items():
            if tensor.grad is not None:
                tensor.grad = tensor.grad + _resolved(grad)
            elif isinstance(grad, _Factored) or (
                isinstance(grad, np.ndarray) and grad.base is None and id(grad) not in given
            ):
                tensor.grad = grad
                given.add(id(grad))
            else:
                tensor.grad = np.array(grad, copy=True)

    def _walk(self, loss: Tensor) -> dict[Tensor, object]:
        """The leaves' gradients, keyed on the leaf: arrays, or factors
        that were a leaf's only contribution."""
        grads: dict[Tensor, object] = {loss: np.ones((), dtype=loss.data.dtype)}
        for out, inputs, backward_rule in reversed(self._records):
            gout = grads.pop(out, None)
            if gout is None:
                continue
            for tensor, gin in zip(inputs, backward_rule(_resolved(gout))):
                if gin is None or not tensor.requires_grad:
                    continue
                if tensor in grads:
                    gin = _resolved(grads[tensor]) + _resolved(gin)
                grads[tensor] = gin
        return grads


def _resolved(grad):
    """A gradient from the scratch space as an array: its factors
    multiplied out."""
    return grad.form() if isinstance(grad, _Factored) else grad


# elements per block of an RMSProp update (``training.RMSProp``) and of a
# formed factored gradient's row blocks.  Each ufunc call of a step on two
# threads retakes the GIL, so fewer, larger calls cost less: with the paper
# models' factored MLP gradients, a step took 36.7 ms on train-paper and
# 27.3 on infer-paper at 2^17, against 42.3 and 27.9 at 2^16 (medians of
# alternating rounds, one BLAS thread, 2-vCPU Xeon host).
CHUNK = 1 << 17


class _Factored:
    """A weight gradient gᵀ·x kept as its two factors, the output gradient
    g [B x d_out] and the input x [B x d_in] of ``affine``, which holds x
    for its backward pass anyway.  The factors are read, never written.
    Every reader forms the array in the same row blocks (``row_blocks``):
    with some BLAS kernels (OpenBLAS's Haswell ones) rows formed apart
    differ from the same rows of one GEMM."""

    __slots__ = ("g", "x")

    def __init__(self, g: np.ndarray, x: np.ndarray):
        self.g, self.x = g, x

    @property
    def shape(self) -> tuple[int, int]:
        return self.g.shape[1], self.x.shape[1]

    @property
    def dtype(self):
        return np.result_type(self.g, self.x)

    def row_blocks(self) -> list[slice]:
        """As many whole rows as fit ``CHUNK`` elements, block after block."""
        rows, width = self.shape
        step = max(1, CHUNK // width)
        return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]

    def form(self) -> np.ndarray:
        """The gradient array, formed block by block."""
        out = np.empty(self.shape, dtype=self.dtype)
        for rows in self.row_blocks():
            self.form_rows(rows, out[rows])
        return out

    def form_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """The gradient's ``rows``, written into ``out`` [rows x d_in]."""
        return np.matmul(self.g[:, rows].T, self.x, out=out)


def _emit(out: Tensor, inputs: tuple, backward: Callable) -> Tensor:
    """Record an operation on the active tape, unless none of its inputs
    needs a gradient: then the output is a constant."""
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._record(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# Arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; operands must have equal shapes."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes disagree: {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)
    return _emit(out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shapes disagree: {a.shape} - {b.shape}")
    out = Tensor(a.data - b.data)
    return _emit(out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product; operands must have equal shapes."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes disagree: {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data)
    adata, bdata = a.data, b.data
    return _emit(out, (a, b), lambda g: (g * bdata, g * adata))


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    ydata = out.data
    return _emit(out, (x,), lambda g: (g * (1.0 - ydata * ydata),))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid as 0.5·tanh(0.5·x) + 0.5, written into ``out``
    (a new array when None, 0-d for 0-d input).

    The identity cannot overflow at any x, and at float32 it runs 3-5x as
    fast as ``scipy.special.expit`` on a [1300 x 1400] gate block.
    """
    if out is None:
        out = np.empty_like(x)
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor(_sigmoid(np.asarray(x.data)))
    ydata = out.data
    return _emit(out, (x,), lambda g: (g * ydata * (1.0 - ydata),))


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    xdata = x.data
    return _emit(out, (x,), lambda g: (g * (xdata > 0),))


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at exactly 0 (np.sign(0) == 0)."""
    out = Tensor(np.abs(x.data))
    sign = np.sign(x.data)
    return _emit(out, (x,), lambda g: (g * sign,))


# ---------------------------------------------------------------------------
# Shape plumbing


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``; backward zero-pads."""
    if not 0 <= axis < x.ndim:
        raise DimensionError(f"narrow: axis {axis} out of range for shape {x.shape}")
    if start < 0 or start + length > x.shape[axis]:
        raise DimensionError(
            f"narrow: slice [{start}:{start + length}] exceeds axis {axis} of shape {x.shape}"
        )
    index = tuple(
        slice(start, start + length) if d == axis else slice(None) for d in range(x.ndim)
    )
    out = Tensor(x.data[index])
    xshape, xdtype = x.data.shape, x.data.dtype

    def back(g):
        buf = np.zeros(xshape, dtype=xdtype)
        buf[index] = g
        return (buf,)

    return _emit(out, (x,), back)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along ``axis``."""
    parts = list(parts)
    if not parts:
        raise InvalidInputError("concat needs at least one tensor")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]

    def back(g):
        grads = []
        offset = 0
        for size in sizes:
            index = tuple(
                slice(offset, offset + size) if d == axis else slice(None)
                for d in range(g.ndim)
            )
            grads.append(g[index])
            offset += size
        return tuple(grads)

    return _emit(out, tuple(parts), back)


def _row_index(indices, n: int, what: str) -> np.ndarray:
    """Validated 1-D row indices into a table of ``n`` rows."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"{what}: row indices must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidInputError(f"{what}: index out of range for {n} rows")
    return idx


def _scatter_rows(g: np.ndarray, idx: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Zeros shaped as ``like`` with row j of g added to row ``idx[j]``."""
    buf = np.zeros_like(like)
    np.add.at(buf, idx, g)
    return buf


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor; backward scatter-adds into the source."""
    if x.ndim != 2:
        raise DimensionError(f"take_rows needs a 2-D tensor, got {x.shape}")
    idx = _row_index(indices, x.shape[0], "take_rows")
    out = Tensor(x.data[idx])
    return _emit(out, (x,), lambda g: (_scatter_rows(g, idx, x.data),))


# ---------------------------------------------------------------------------
# Reductions, softmax, loss
#
# A batch of variable-length sequences is packed: the rows of sequence s
# follow those of sequence s - 1, and ``lengths`` [S] says how many rows
# each holds.  Segment operations work on every sequence at once.


def _segments(lengths, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Validated segment lengths and their first rows, for ``n`` packed rows."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0:
        raise DimensionError(f"{what}: need a non-empty 1-D list of lengths, got {lengths.shape}")
    if lengths.min() < 1:
        raise InvalidInputError(f"{what}: every segment needs at least one row")
    ends = np.cumsum(lengths)
    if ends[-1] != n:
        raise DimensionError(f"{what}: lengths sum to {ends[-1]}, input has {n} rows")
    return lengths, ends - lengths


def segment_softmax(scores: Tensor, lengths) -> Tensor:
    """Softmax of a packed score vector [L] within each segment.

    Max-subtraction per segment keeps the exponentials finite; no segment's
    scores reach another's probabilities.
    """
    if scores.ndim != 1:
        raise DimensionError(f"segment_softmax needs a 1-D score vector, got {scores.shape}")
    lengths, starts = _segments(lengths, scores.shape[0], "segment_softmax")
    s = scores.data
    e = np.exp(s - np.repeat(np.maximum.reduceat(s, starts), lengths))
    probs = e / np.repeat(np.add.reduceat(e, starts), lengths)
    out = Tensor(probs)

    def back(g):
        inner = np.add.reduceat(g * probs, starts)
        return (probs * (g - np.repeat(inner, lengths)),)

    return _emit(out, (scores,), back)


def _segment_rows(x: Tensor, lengths, what: str) -> tuple[np.ndarray, np.ndarray]:
    if x.ndim != 2:
        raise DimensionError(f"{what} needs an [L x d] tensor, got {x.shape}")
    return _segments(lengths, x.shape[0], what)


def segment_sum(x: Tensor, lengths, weights: Tensor | None = None) -> Tensor:
    """Per-segment sums [S x d] of the rows of x [L x d].

    With ``weights`` [L], row i enters its segment's sum as weights_i·x_i.
    """
    lengths, starts = _segment_rows(x, lengths, "segment_sum")
    xdata = x.data
    if weights is None:
        out = Tensor(np.add.reduceat(xdata, starts, axis=0))
        return _emit(out, (x,), lambda g: (np.repeat(g, lengths, axis=0),))
    if weights.shape != (x.shape[0],):
        raise DimensionError(f"segment_sum: weights {weights.shape} do not match x {x.shape}")
    wdata = weights.data
    out = Tensor(np.add.reduceat(xdata * wdata[:, None], starts, axis=0))

    def back(g):
        rows = np.repeat(g, lengths, axis=0)
        return rows * wdata[:, None], np.einsum("ij,ij->i", rows, xdata)

    return _emit(out, (x, weights), back)


def segment_mean(x: Tensor, lengths) -> Tensor:
    """Per-segment means [S x d]; each divides by its segment's row count."""
    lengths, starts = _segment_rows(x, lengths, "segment_mean")
    counts = lengths[:, None].astype(x.data.dtype)
    out = Tensor(np.add.reduceat(x.data, starts, axis=0) / counts)
    return _emit(out, (x,), lambda g: (np.repeat(g / counts, lengths, axis=0),))


def segment_max(x: Tensor, lengths) -> Tensor:
    """Columnwise per-segment maxima [S x d]; the gradient goes to the
    first maximal row of each segment."""
    lengths, starts = _segment_rows(x, lengths, "segment_max")
    xdata = x.data
    out = Tensor(np.maximum.reduceat(xdata, starts, axis=0))
    top = out.data

    def back(g):
        n, d = xdata.shape
        rows = np.where(xdata == np.repeat(top, lengths, axis=0), np.arange(n)[:, None], n)
        winners = np.minimum.reduceat(rows, starts, axis=0)
        buf = np.zeros_like(xdata)
        buf[winners, np.arange(d)] = g
        return (buf,)

    return _emit(out, (x,), back)


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    out = Tensor(x.data.sum())
    shape, dtype = x.data.shape, x.data.dtype
    return _emit(out, (x,), lambda g: (np.full(shape, g, dtype=dtype),))


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Identity when not training or p == 0.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    keep = keep.astype(x.data.dtype)
    out = Tensor(x.data * keep)
    return _emit(out, (x,), lambda g: (g * keep,))


def cross_entropy_from_logits(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    ``logits`` is [b x k]; ``labels`` holds class indices.  Computed with
    max-subtracted log-sum-exp for stability.
    """
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy needs [b x k] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.shape != (b,):
        raise DimensionError(f"cross_entropy: {b} rows but labels shape {labels.shape}")
    bad = np.flatnonzero((labels < 0) | (labels >= k))
    if bad.size:
        raise DataError(f"label out of range at example {int(bad[0])}: {int(labels[bad[0]])}")

    z = logits.data
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logprobs = shifted - lse
    out = Tensor(-logprobs[np.arange(b), labels].mean())
    probs = np.exp(logprobs)

    def back(g):
        gz = probs.copy()
        gz[np.arange(b), labels] -= 1.0
        gz *= g / b
        return (gz,)

    return _emit(out, (logits,), back)


# ---------------------------------------------------------------------------
# Fused layers: one tape record each, hand-written backward passes


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Batched affine map x·wᵀ + b: [B x d_in], [d_out x d_in], [d_out] -> [B x d_out].

    The forward GEMM is w·xᵀ, with the weight as the left operand: for a
    few rows (B = 8-32 through the 2000-wide paper MLP, one BLAS thread)
    it runs 1.4-1.7x as fast as x·wᵀ.  Its transpose and the bias go into
    a row-major result in one pass.  ``w`` is read through a transposed
    view in the backward pass, so no weight copy is made in either
    direction.  A large GEMM is split by weight rows (``_row_blocks``),
    one block on the worker.  The weight gradient gᵀ·x is handed back as
    its two factors (``_Factored``).
    """
    if x.ndim != 2 or w.ndim != 2 or b.shape != (w.shape[0],) or x.shape[1] != w.shape[1]:
        raise DimensionError(f"affine: shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    xdata, wdata = x.data, w.data
    wx = np.empty((w.shape[0], x.shape[0]), dtype=np.result_type(xdata, wdata))
    _split(
        [
            functools.partial(np.matmul, wdata[rows], xdata.T, out=wx[rows])
            for rows in _row_blocks(wdata)
        ]
    )
    out = Tensor(np.empty((x.shape[0], w.shape[0]), dtype=np.result_type(xdata, wdata, b.data)))
    np.add(wx.T, b.data, out=out.data)

    def back(g):
        return g @ wdata, _Factored(g, xdata), g.sum(axis=0)

    return _emit(out, (x, w, b), back)


def _time_major(lengths: np.ndarray, starts: np.ndarray, reverse: bool):
    """Time-major packing of sequences laid end to end (``_segments``).

    Sequences are sorted by length, longest first, so the ones still
    running at step t are the first ``sizes[t]``; the rows of step t are
    ``offsets[t]:offsets[t + 1]``, and row j of them reads input row
    ``perm[offsets[t] + j]``.  With ``reverse`` each sequence is read from
    its last row to its first.
    """
    order = np.argsort(-lengths, kind="stable")
    sizes = np.count_nonzero(lengths[order] > np.arange(lengths.max())[:, None], axis=1)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    step = np.repeat(np.arange(sizes.size), sizes)
    seq = order[np.arange(offsets[-1]) - offsets[step]]
    pos = lengths[seq] - 1 - step if reverse else step
    return starts[seq] + pos, sizes, offsets


# The worker, which runs the second half of a split (``_split``)


@functools.cache
def _use_worker() -> bool:
    """Whether the worker runs work beside the calling thread: the process
    may use at least 2 CPUs and BLAS runs each call on one thread.  Two
    threads that each run a multi-threaded BLAS fight over the same cores
    and are slower side by side than in turn, so everything runs on the
    calling thread then, and when the thread count cannot be read."""
    return _usable_cpus() >= 2 and _blas_threads() == 1


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas() -> tuple[ctypes.CDLL, str] | None:
    """numpy's bundled OpenBLAS and its symbol names' pattern, or None."""
    root = Path(np.__file__).resolve().parent
    for path in (*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # numpy has it loaded: the same handle
        except OSError:
            continue
        for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            if hasattr(lib, name.format("get_num_threads")):
                return lib, name
    return None


def _blas_get(what: str, restype):
    """numpy's OpenBLAS's ``get_<what>()``, or None when it cannot be read."""
    lib, name = _openblas() or (None, "")
    get = getattr(lib, name.format(f"get_{what}"), None)
    if get is None:
        return None
    get.argtypes, get.restype = [], restype
    return get()


def _blas_threads() -> int | None:
    """Threads per call of numpy's OpenBLAS, or None when unknown."""
    return _blas_get("num_threads", ctypes.c_int)


def _blas_kernels() -> str | None:
    """The name of numpy's OpenBLAS's kernels (``Haswell``), or None."""
    name = _blas_get("corename", ctypes.c_char_p)
    return name.decode() if name else None


def _new_worker() -> None:
    # the executor starts its one thread at the first submit; a forked
    # child inherits the executor but not the thread, so it makes its own
    global _worker
    _worker = futures.ThreadPoolExecutor(1, thread_name_prefix="nliattn-worker")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def _split(calls: Sequence[Callable[[], object]]) -> list:
    """Results of zero-argument calls, in order, once every call is done.

    ``_use_worker``, read here only, decides where the calls run, never
    which: without it they run in turn on the calling thread.  With it,
    the first runs on the calling thread and the rest go to the worker,
    each in a copy of the caller's context, so numpy's error
    state (``np.errstate``) holds there too.  When the calling thread is
    done, it takes back every call the worker has not started and runs it
    itself, so a split never waits behind work queued before it, such as
    a split of an independent model on another thread.  An exception
    reaches the caller only once none of the calls is still running.  A
    call that writes into an array should get that array made on the
    calling thread: one the worker's own malloc arena made would go back
    to the system when freed, and the calling thread's next passes would
    fault its pages in again."""
    if not _use_worker():
        return [call() for call in calls]
    first, *rest = calls
    handed = [_worker.submit(contextvars.copy_context().run, call) for call in rest]
    try:
        results = [first()]
        for call, future in zip(rest, handed):
            results.append(call() if future.cancel() else future)  # take back an unstarted call
    finally:
        # after a failure, cancel what has not started and wait for the rest
        futures.wait([f for f in handed if not f.cancel()])
    return [r.result() if isinstance(r, futures.Future) else r for r in results]


# A weight of at least _SPLIT_MIN_WEIGHT elements is split in two, one half
# on the worker when it runs: its GEMMs by weight rows (``_row_blocks``)
# and its initial draw (``_uniform``).  The weight's shape alone decides.
_SPLIT_MIN_WEIGHT = 1 << 18


def _row_blocks(w: np.ndarray) -> list[slice]:
    """The row blocks of a GEMM with weight ``w``: two halves of a large
    weight, else the whole."""
    rows = w.shape[0]
    if w.size >= _SPLIT_MIN_WEIGHT:
        return [slice(0, rows // 2), slice(rows // 2, rows)]
    return [slice(0, rows)]


def _size_groups(sizes: dict[str, int]) -> list[list[str]]:
    """The names of ``sizes`` in groups for ``_split``, each group in the
    order of ``sizes``: two of about equal total size when there are two
    names or more, else one holding them all."""
    if len(sizes) < 2:
        return [list(sizes)]
    groups: list[list[str]] = [[], []]
    # largest first into the lighter group; on a tie the shorter, so
    # neither group is left empty
    for name in sorted(sizes, key=sizes.get, reverse=True):
        min(groups, key=lambda group: (sum(map(sizes.get, group)), len(group))).append(name)
    order = {name: i for i, name in enumerate(sizes)}
    return [sorted(group, key=order.get) for group in groups]


# Every initial array is drawn _UNIFORM_BLOCK values at a time, so the
# float64 draws stay in cache and no whole-size temporary is made.  A
# train-paper build took 86 ms with these blocks and halves from
# _SPLIT_MIN_WEIGHT = 2^18 (one BLAS thread, 2-vCPU host), 92 with a floor
# of 2^20 and 118-136 with blocks of 2^12, against 168 ms for whole-size
# draws on one thread.  Only these bit generators jump ahead by a number
# of draws and then give the serial stream: Philox's ``advance`` did not
# reproduce it, and SFC64 and MT19937 have no ``advance``.
_UNIFORM_BLOCK = 1 << 16
_JUMPABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _uniform(
    rng: np.random.Generator | None, low: float, high: float, shape, dtype=None
) -> np.ndarray:
    """A new ``dtype`` array (the current one by default) holding
    ``rng.uniform(low, high, shape)``, with the same values and the same
    generator state afterwards; an unfilled one when ``rng`` is None.

    A large array drawn from a PCG64 or PCG64DXSM generator is filled in
    two halves through ``_split``.  The second half draws from a copy of
    the bit generator advanced past the first half.  Afterwards the
    caller's generator takes the copy's state, with its own buffered
    32-bit half (``has_uint32``, ``uinteger``), which ``advance`` drops
    and no double draw touches."""
    out = np.empty(shape, dtype=dtype or _DTYPE)
    if rng is None:
        return out
    flat = out.reshape(-1)
    bitgen = rng.bit_generator
    if not (flat.size >= _SPLIT_MIN_WEIGHT and type(bitgen) in _JUMPABLE):
        _fill_uniform(rng, low, high, flat)
        return out
    half = flat.size // 2
    state = bitgen.state
    twin = type(bitgen)(0)  # the seed is overwritten by the next line
    twin.state = state
    twin.advance(half)
    _split(
        [
            functools.partial(_fill_uniform, rng, low, high, flat[:half]),
            functools.partial(_fill_uniform, np.random.Generator(twin), low, high, flat[half:]),
        ]
    )
    after = twin.state
    after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
    bitgen.state = after
    return out


def _fill_uniform(rng: np.random.Generator, low: float, high: float, out: np.ndarray) -> None:
    """Fill the 1-D ``out`` with ``rng.uniform(low, high)`` draws, in order,
    ``_UNIFORM_BLOCK`` at a time.  Each block is drawn into one reused
    float64 row by ``random``, scaled there by ``high - low``, and ``low``
    is added on the way into ``out``: the arithmetic of ``uniform``, so the
    same values, without a new array per block."""
    draws = np.empty(min(out.size, _UNIFORM_BLOCK))
    for start in range(0, out.size, _UNIFORM_BLOCK):
        block = out[start : start + _UNIFORM_BLOCK]
        row = draws[: block.size]
        rng.random(out=row)
        row *= high - low
        np.add(row, low, out=block)


def _lstm_direction(xdata, rows, lengths, starts, learned, wi, wh, bias, reverse: bool, dest):
    """Forward pass of one LSTM direction over L packed rows, row i reading
    row ``rows[i]`` of the table ``xdata`` [R x d].

    Writes the hidden states into ``dest`` [L x h] in packed row order and
    returns the direction's backward pass, which maps the gradient of
    ``dest`` to (*dxs, dw_ih, dw_hh, dbias).  ``learned`` holds the columns
    of each table block that needs a gradient, else None; dxs holds each
    such block's gradient of its table rows, scatter-added through the
    index the forward pass gathered with, and None for a None.  Reads and
    writes numpy arrays only, so it may run on the worker.
    """
    n = rows.size
    h = wh.shape[1]
    wh_t = np.ascontiguousarray(wh.T)
    perm, sizes, offsets = _time_major(lengths, starts, reverse)
    bounds = offsets.tolist()
    reads = rows[perm]  # the table row of each time-major row
    xp = xdata[reads]
    acts = xp @ wi.T  # pre-activations, overwritten by the gate values
    acts += bias
    cells = np.empty((n, h), dtype=acts.dtype)
    hidden = np.empty((n, h), dtype=acts.dtype)
    i, f, g, o = (acts[:, k * h : (k + 1) * h] for k in range(4))
    for t in range(sizes.size):
        lo, hi = bounds[t], bounds[t + 1]
        gate = acts[lo:hi]
        if t:
            prev = slice(bounds[t - 1], bounds[t - 1] + hi - lo)
            gate += hidden[prev] @ wh_t
        cell_gate = np.tanh(g[lo:hi], out=g[lo:hi])
        i_f = gate[:, : 2 * h]
        _sigmoid(i_f, out=i_f)
        _sigmoid(o[lo:hi], out=o[lo:hi])
        c = cells[lo:hi]
        np.multiply(i[lo:hi], cell_gate, out=c)
        if t:
            c += f[lo:hi] * cells[prev]
        np.tanh(c, out=hidden[lo:hi])
        hidden[lo:hi] *= o[lo:hi]
    dest[perm] = hidden

    def back(gout):
        gout = gout[perm]
        first = bounds[1]  # from here on, row r continues row prev_rows[r - first]
        prev_rows = np.arange(first, n) - np.repeat(sizes[:-1], sizes[1:])
        c_prev = np.zeros_like(cells)
        c_prev[first:] = cells[prev_rows]
        tanh_c = np.tanh(cells)
        dh_to_dc = o * (1.0 - tanh_c * tanh_c)
        dh_to_do = tanh_c * o * (1.0 - o)
        dc_to_difg = np.stack(  # dc -> pre-activation gradients of i, f, g
            [g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)], axis=1
        )
        dgates = np.empty((n, 4, h), dtype=acts.dtype)
        dh_next = np.zeros((sizes[0], h), dtype=acts.dtype)
        dc_next = np.zeros((sizes[0], h), dtype=acts.dtype)
        for t in range(sizes.size - 1, -1, -1):
            lo, hi = bounds[t], bounds[t + 1]
            k = hi - lo
            dh = gout[lo:hi] + dh_next[:k]
            dc = dh * dh_to_dc[lo:hi]
            dc += dc_next[:k]
            dgates[lo:hi, :3] = dc_to_difg[lo:hi] * dc[:, None]
            dgates[lo:hi, 3] = dh * dh_to_do[lo:hi]
            if t:
                np.matmul(dgates[lo:hi].reshape(k, -1), wh, out=dh_next[:k])
                np.multiply(dc, f[lo:hi], out=dc_next[:k])
        dg = dgates.reshape(n, 4 * h)
        dxs = [
            None if cols is None else _scatter_rows(dg @ wi[:, cols], reads, xdata[:, cols])
            for cols in learned
        ]
        return (*dxs, dg.T @ xp, dg[first:].T @ hidden[prev_rows], dg.sum(axis=0))

    return back


def lstm_sequence(
    x: Sequence[Tensor],
    rows,
    lengths,
    forward: Sequence[Tensor] | None = None,
    backward: Sequence[Tensor] | None = None,
) -> Tensor:
    """One or two LSTM directions over packed sequences, each from zero
    state.  ``x`` is a table [R x d] given as its column blocks side by
    side, such as constant word vectors beside learned char features;
    packed row i reads table row ``rows[i]`` [L], and ``lengths`` [S] says
    how many rows each sequence holds.

    ``forward`` and ``backward`` are each a (w_ih, w_hh, bias) triple or
    None, and at least one is given.  The result is [L x Σh]: row i holds
    each given direction's hidden state after the step that reads row i,
    the forward direction's columns first.  The backward direction runs
    each sequence from its last row to its first.  Gate order is input,
    forget, cell, output.  The input projection x·w_ihᵀ + bias of every row
    is one GEMM over the blocks' joined columns; each time step is then one
    GEMM against a contiguous copy of w_hhᵀ over the sequences still
    running, plus the cell update.  The backward pass is BPTT over the
    stacked gate gradients dG [L x 4h]; the weight gradients are GEMMs on
    dG.  A block that needs a gradient gets one GEMM of dG against its
    columns of w_ih per direction, scatter-added into its table rows; a
    constant block gets none.  The record lists each direction's blocks
    and weights in turn, so the tape's walk sums a block's two gradients,
    as for any input read twice: the op has the bits of two one-direction
    calls side by side.

    With both directions, ``_split`` runs the backward one beside the
    forward one, in the forward and in the backward pass.
    """
    blocks = list(x)
    if not blocks or any(b.ndim != 2 or b.shape[0] != blocks[0].shape[0] for b in blocks):
        raise DimensionError(f"lstm_sequence needs [R x d] blocks, got {[b.shape for b in blocks]}")
    bounds = np.cumsum([0, *(b.shape[1] for b in blocks)]).tolist()
    rows = _row_index(rows, blocks[0].shape[0], "lstm_sequence")
    n, d = rows.size, bounds[-1]
    lengths, starts = _segments(lengths, n, "lstm_sequence")
    directions = [(w, rev) for w, rev in ((forward, False), (backward, True)) if w is not None]
    if not directions:
        raise UsageError("lstm_sequence needs a forward or a backward direction")
    xdata = blocks[0].data if len(blocks) == 1 else np.concatenate([b.data for b in blocks], 1)
    spans = zip(bounds, bounds[1:])
    learned = [slice(*span) if b.requires_grad else None for b, span in zip(blocks, spans)]
    columns = []
    width = 0
    for (w_ih, w_hh, bias), _ in directions:
        h = w_hh.shape[1]
        if w_hh.shape != (4 * h, h) or w_ih.shape != (4 * h, d) or bias.shape != (4 * h,):
            raise DimensionError(
                f"lstm_sequence: weights w_ih {w_ih.shape}, w_hh {w_hh.shape}, "
                f"bias {bias.shape} do not fit input width {d}"
            )
        columns.append(slice(width, width + h))
        width += h
    out = Tensor(np.empty((n, width), dtype=_DTYPE))
    backs = _split(
        [
            functools.partial(
                _lstm_direction, xdata, rows, lengths, starts, learned,
                *(w.data for w in weights), rev, out.data[:, cols],
            )
            for (weights, rev), cols in zip(directions, columns)
        ]
    )

    def back(gout):
        grads = _split([functools.partial(b, gout[:, cols]) for b, cols in zip(backs, columns)])
        return tuple(g for direction in grads for g in direction)

    inputs = tuple(t for weights, _ in directions for t in (*blocks, *weights))
    return _emit(out, inputs, back)


def attention_scores(H: Tensor, lengths, query: Tensor, w: Tensor, v: Tensor) -> Tensor:
    """Inner-attention scores vᵀ·tanh(w·[query_s; h_i]) for every packed row
    h_i of H [L x d], where segment s of H is scored against row s of
    ``query`` [S x q].

    ``w`` is split as [w_q | w_h]: the query term is one GEMM over the S
    queries, repeated over each segment's rows, and H·w_hᵀ one GEMM over
    all L rows, neither copying a weight block.  A large H·w_hᵀ is split
    by the rows of w_h (``_row_blocks``), and each block adds its columns
    of the query term and applies tanh, one block on the worker.  The
    backward pass forms the gradient of ``w`` once per batch, on the
    worker, while the calling thread forms the input gradients
    (``_split``).
    """
    lengths, starts = _segments(lengths, H.shape[0], "attention_scores")
    q = query.shape[-1]
    if (
        H.ndim != 2
        or query.shape != (lengths.size, q)
        or w.shape[1] != q + H.shape[1]
        or v.shape != (w.shape[0],)
    ):
        raise DimensionError(
            f"attention_scores: shapes disagree: H {H.shape}, {lengths.size} segments, "
            f"query {query.shape}, w {w.shape}, v {v.shape}"
        )
    hdata, qdata, wdata, vdata = H.data, query.data, w.data, v.data
    w_q, w_h = wdata[:, :q], wdata[:, q:]
    # the column blocks of w are strided views: BLAS reads them as the left
    # operand without a copy, faster than through a transposed view
    u = np.repeat((w_q @ qdata.T).T, lengths, axis=0)  # [L x a], the query term so far
    hw = np.empty((w_h.shape[0], hdata.shape[0]), dtype=np.result_type(w_h, hdata))

    def block(rows):  # u[:, rows] = tanh(query term + H·w_hᵀ)
        np.matmul(w_h[rows], hdata.T, out=hw[rows])
        np.add(u[:, rows], hw[rows].T, out=u[:, rows])
        np.tanh(u[:, rows], out=u[:, rows])

    _split([functools.partial(block, rows) for rows in _row_blocks(w_h)])
    out = Tensor(u @ vdata)

    def back(g):
        dpre = np.outer(g, vdata) * (1.0 - u * u)
        dquery_term = np.add.reduceat(dpre, starts, axis=0)  # [S x a]
        dw = np.empty_like(wdata)

        def fill():
            np.matmul(dquery_term.T, qdata, out=dw[:, :q])
            np.matmul(dpre.T, hdata, out=dw[:, q:])
            return dw

        # g @ u too runs beside the fill: after the join, a train-paper
        # backward took 152.7 against 148.3 ms (medians, one BLAS thread)
        (dh, dq, dv), dw = _split([lambda: (dpre @ w_h, dquery_term @ w_q, g @ u), fill])
        return dh, dq, dw, dv

    return _emit(out, (H, query, w, v), back)

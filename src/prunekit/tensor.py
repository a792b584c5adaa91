"""Dense tensors with reverse-mode automatic differentiation.

Everything is numpy float64 under the hood. Differentiable operations are
plain functions that take an optional ``Tape``; when a tape is supplied the
operation records a backward rule on it, and ``backward(loss, tape)`` replays
the tape in reverse to populate ``.grad`` on every leaf tensor that has
``requires_grad`` set. Without a tape the same functions are cheap forward-only
kernels.

Gradients are need-driven. Recording an operation marks its output as needing
a gradient when any input does, so the flag spreads forward from the leaves the
caller wants gradients for. ``backward`` skips every node whose output needs
none, each backward rule computes only the input gradients whose tensor needs
one, and ``.grad`` is written only into leaves (tensors no node produced). A
caller that wants one layer's gradients clears ``requires_grad`` everywhere
else and pays for nothing more.

``conv2d`` is one im2col/GEMM kernel that works with the batch innermost. It
reads the input through its ``[C,H,W,B]`` view (free when the input came from
another conv), copies it once into a zeroed padded buffer when ``pad`` > 0, and
gathers ``cols``, a contiguous ``[C*kh*kw, ho*wo*B]`` matrix whose rows run
over (channel, tap row, tap column) and whose columns run over (output row,
output column, image); the output is ``w.reshape(M, -1) @ cols``, handed back
as a ``[B,M,ho,wo]`` view of that ``[M,ho,wo,B]`` product, not a copy. In
backward, ``gw`` is ``g @ cols.T`` and reads ``cols``; ``gx`` is
``w.reshape(M, -1).T @ g`` followed by a col2im of kh*kw plane adds into a
``[C,H+2p,W+2p,B]`` buffer, and reads only the kernel; ``gb`` sums ``g``. So
``cols`` is kept by the backward rule only when ``w`` needs a gradient when the
op is recorded, and is freed before the op returns otherwise.

Layout rule: every op keeps the ``[B,C,H,W]`` shape contract, but ``data`` may
be a strided view. ``conv2d`` returns batch-innermost data; ``relu`` and
``max_pool2d``, and so ``network.forward``, keep their input's memory order; only
``flatten`` (for ``dense``) and the map losses copy to row-major.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class TapeError(RuntimeError):
    """Backward was invoked on a tensor the tape knows nothing about."""


class Tensor:
    """A dense n-d array plus an optional gradient buffer.

    ``data`` is always float64, in any memory order: a strided view is kept as
    it is, not copied (see the layout rule above). ``grad``, once populated,
    has the same shape as ``data``. Gradients accumulate across ``backward``
    calls; callers zero them between optimization steps.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
        self.output = output
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations for one differentiable computation.

    Nodes are appended in execution order, so the list is already a topological
    order of the graph; replaying it in reverse is reverse-mode autodiff.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> None:
        """Append one operation and mark ``output`` as needing a gradient when
        any input does. ``backward_fn(out_grad)`` must return one gradient
        array (or None) per input, in order; inputs without ``requires_grad``
        may get None."""
        if any(t.requires_grad for t in inputs):
            output.requires_grad = True
        self.nodes.append(_Node(output, inputs, backward_fn))


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``.grad`` on every requires_grad leaf reachable from ``loss``.

    Repeated calls accumulate into existing gradients.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    produced = {id(n.output) for n in tape.nodes}
    if id(loss) not in produced:
        raise TapeError("loss tensor was not produced by an operation on this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    for node in reversed(tape.nodes):
        if not node.output.requires_grad:
            continue
        # every consumer of this output comes later on the tape, so its
        # gradient is complete here and no longer needed afterwards
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            tid = id(t)
            if tid not in produced:
                leaves[tid] = t
            grads[tid] = grads[tid] + gi if tid in grads else gi
    for tid, t in leaves.items():
        t.accumulate_grad(grads[tid])


def scatter_channels(x: Tensor, positions: Sequence[int], channels: int,
                     tape: Optional[Tape] = None) -> Tensor:
    """Input channel i to channel ``positions[i]`` of a zero [B,channels,...] map."""
    pos = np.asarray(positions, dtype=np.intp)
    if x.data.ndim < 2 or pos.shape != (x.shape[1],):
        raise ShapeError(f"scatter_channels: {pos.size} positions for input {x.shape}")
    out = Tensor(np.zeros((x.shape[0], channels) + x.shape[2:]))
    out.data[:, pos] = x.data
    if tape is not None:
        tape.record(out, (x,), lambda g: (g[:, pos] if x.requires_grad else None,))
    return out


# ---------------------------------------------------------------------------
# network layers


def _window_out(what: str, size: Sequence[int], kernel: Sequence[int], stride: int,
                pad: int = 0) -> tuple[int, ...]:
    """Output height and width of ``kernel`` windows at ``stride`` over a ``size``
    input padded by ``pad``; raises unless the windows tile it exactly."""
    spans = [n + 2 * pad - k for n, k in zip(size, kernel)]
    if min(spans) < 0 or any(s % stride for s in spans):
        raise ShapeError(f"{what}: non-integral output size for input {size[0]}x{size[1]}, "
                         f"window {kernel[0]}x{kernel[1]}, stride {stride}, pad {pad}")
    return tuple(s // stride + 1 for s in spans)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0,
           bias: Optional[Tensor] = None, tape: Optional[Tape] = None) -> Tensor:
    """2-d cross-correlation of a [B,C,H,W] input with an [M,C,kh,kw] kernel."""
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-d [B,C,H,W], got {x.shape}")
    if w.data.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be 4-d [M,C,kh,kw], got {w.shape}")
    bsz, cin, h, wd = x.shape
    m, cker, kh, kw = w.shape
    if cin != cker:
        raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {cker}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"conv2d: pad must be >= 0, got {pad}")
    if bias is not None and bias.shape != (m,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({m},)")
    ho, wo = _window_out("conv2d", (h, wd), (kh, kw), stride, pad)

    # im2col on the [C,H,W,B] view of x: row (c, i, j) of cols holds input
    # channel c at kernel tap (i, j) for every output position, columns
    # ordered (oh, ow, b), so each tap row copies runs of wo*B floats
    xt = x.data.transpose(1, 2, 3, 0)
    hp, wp = h + 2 * pad, wd + 2 * pad
    if pad:
        xp = np.zeros((cin, hp, wp, bsz))
        xp[:, pad:pad + h, pad:pad + wd] = xt
    else:
        xp = xt
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 4, 5, 1, 2, 3)).reshape(cin * kh * kw, -1)
    w2 = w.data.reshape(m, -1)
    out_mp = w2 @ cols
    if bias is not None:
        out_mp += bias.data[:, None]
    # only gw reads cols again; a closure that keeps it pins C*kh*kw*B*ho*wo floats
    if tape is None or not w.requires_grad:
        cols = None
    # the [B,M,ho,wo] result is a view of the [M,ho,wo,B] GEMM output
    out = Tensor(out_mp.reshape(m, ho, wo, bsz).transpose(3, 0, 1, 2))

    if tape is not None:
        def bw(g):
            g_mp = g.transpose(1, 2, 3, 0).reshape(m, -1)
            gx = gw = None
            if cols is not None:
                gw = (g_mp @ cols.T).reshape(w.shape)
            if x.requires_grad:
                # col2im: tap (i, j) of gcols is one contiguous [C,ho,wo,B] plane
                gcols = (w2.T @ g_mp).reshape(cin, kh, kw, ho, wo, bsz)
                gxp = np.zeros((cin, hp, wp, bsz))
                for i in range(kh):
                    for j in range(kw):
                        gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                            gcols[:, i, j]
                gx = gxp[:, pad:pad + h, pad:pad + wd].transpose(3, 0, 1, 2)
            if bias is None:
                return gx, gw
            return gx, gw, g_mp.sum(axis=1) if bias.requires_grad else None
        inputs = (x, w) if bias is None else (x, w, bias)
        tape.record(out, inputs, bw)
    return out


def relu(x: Tensor, tape: Optional[Tape] = None) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    if tape is not None:
        mask = x.data > 0
        tape.record(out, (x,), lambda g: (g * mask,))
    return out


def max_pool2d(x: Tensor, k: int, stride: int, tape: Optional[Tape] = None) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2d: input must be 4-d, got {x.shape}")
    h, wd = x.shape[2:]
    if k < 1 or stride < 1:
        raise ShapeError(f"max_pool2d: kernel {k} and stride {stride} must be >= 1")
    ho, wo = _window_out("max_pool2d", (h, wd), (k, k), stride)
    # work on x in its memory order: the [C,H,W,B] view when the batch is
    # innermost (as conv2d returns it), else [B,C,H,W]; out and gx keep it
    perm, inv = (((1, 2, 3, 0), (3, 0, 1, 2)) if x.data.transpose(1, 2, 3, 0).flags.c_contiguous
                 else ((0, 1, 2, 3), (0, 1, 2, 3)))
    xv = x.data.transpose(perm)
    lead = (slice(None),) * perm.index(2)
    # window position (i, j), row-major, of every output is one strided view of x
    spans = [lead + (slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride))
             for i in range(k) for j in range(k)]
    out_v = xv[spans[0]].copy()
    for span in spans[1:]:
        np.maximum(out_v, xv[span], out=out_v)
    out = Tensor(out_v.transpose(inv))
    if tape is not None:
        def bw(g):
            # the gradient goes to the first window position holding the max
            gv = np.ascontiguousarray(g.transpose(perm))
            gxv = np.zeros(xv.shape)
            taken = np.zeros(out_v.shape, dtype=bool)
            for span in spans:
                sel = (xv[span] == out_v) & ~taken
                taken |= sel
                gxv[span] += sel * gv
            return (gxv.transpose(inv),)
        tape.record(out, (x,), bw)
    return out


def flatten(x: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Collapse every non-batch dimension, row-major."""
    if x.data.ndim < 2:
        raise ShapeError(f"flatten: input must have a batch dimension, got {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data.reshape(x.shape[0], -1)))
    if tape is not None:
        tape.record(out, (x,), lambda g: (g.reshape(x.shape),))
    return out


def dense(x: Tensor, w: Tensor, b: Tensor, tape: Optional[Tape] = None) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"dense: input must be 2-d [B,in], got {x.shape}")
    if w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: input {x.shape} and weights {w.shape} are not conformable")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"dense: bias shape {b.shape} != ({w.shape[1]},)")
    out = Tensor(x.data @ w.data + b.data)
    if tape is not None:
        tape.record(out, (x, w, b),
                    lambda g: (g @ w.data.T if x.requires_grad else None,
                               x.data.T @ g if w.requires_grad else None,
                               g.sum(axis=0) if b.requires_grad else None))
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray,
                          tape: Optional[Tape] = None) -> Tensor:
    """Mean softmax cross-entropy over the batch. ``labels`` are int class ids."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels)
    bsz, ncls = logits.shape
    if labels.shape != (bsz,):
        raise ShapeError(f"softmax_cross_entropy: labels shape {labels.shape} != ({bsz},)")
    if labels.min() < 0 or labels.max() >= ncls:
        raise ValueError(
            f"softmax_cross_entropy: label out of range [0, {ncls}): "
            f"min {labels.min()}, max {labels.max()}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    out = Tensor(-logp[np.arange(bsz), labels].mean())
    if tape is not None:
        def bw(g):
            p = np.exp(logp)
            p[np.arange(bsz), labels] -= 1.0
            return (g * p / bsz,)
        tape.record(out, (logits,), bw)
    return out

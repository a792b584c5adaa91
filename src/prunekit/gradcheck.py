"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .losses import LossWeights, correlation_loss, joint_loss, reconstruction_loss
from .tensor import Tape, Tensor, backward

STEP = 1e-4  # central-difference step
RTOL = 1e-3  # relative error a case may reach
ATOL = 1e-6  # absolute error allowed where both gradients are below ATOL / RTOL


def suite_cases() -> dict:
    """Named gradient-check cases covering every differentiable operation.

    Each value is ``builder(rng) -> (build_loss, params)`` suitable for
    ``check_gradients``. Used by the test suite and the ``check-grad`` CLI.
    """
    def _scalarize(x, tape):
        # squared sum keeps the reduction's own gradient nontrivial
        out = Tensor((x.data * x.data).sum())
        if tape is not None:
            tape.record(out, (x,), lambda g: (2.0 * g * x.data,))
        return out

    def conv_case(stride, pad, size=6):
        def build(rng):
            x = Tensor(rng.standard_normal((2, 3, size, size)), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5, requires_grad=True)
            b = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
            def loss(tape):
                return _scalarize(T.conv2d(x, w, stride=stride, pad=pad, bias=b, tape=tape), tape)
            return loss, [x, w, b]
        return build

    def relu_case(rng):
        # keep values away from the kink so central differences stay valid
        vals = rng.standard_normal((3, 7))
        x = Tensor(vals + 0.2 * np.sign(vals), requires_grad=True)
        return (lambda tape: _scalarize(T.relu(x, tape), tape)), [x]

    def pool_case(k, stride):
        def build(rng):
            # spread values so the argmax is stable under the FD perturbation
            x = Tensor(rng.standard_normal((2, 2, 6, 6)) * 3.0, requires_grad=True)
            return (lambda tape: _scalarize(T.max_pool2d(x, k, stride, tape), tape)), [x]
        return build

    def dense_case(rng):
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        return (lambda tape: _scalarize(T.dense(x, w, b, tape), tape)), [x, w, b]

    def flatten_case(rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        return (lambda tape: _scalarize(T.flatten(x, tape), tape)), [x]

    def softmax_case(rng):
        logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=5)
        return (lambda tape: T.softmax_cross_entropy(logits, labels, tape)), [logits]

    def scatter_case(rng):
        x = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        return (lambda tape: _scalarize(T.scatter_channels(x, [3, 0], 4, tape), tape)), [x]

    def reconstruction_case(rng):
        fb = Tensor(rng.standard_normal((2, 3, 4, 4)))
        fp = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        return (lambda tape: reconstruction_loss(fb, fp, tape)), [fp]

    def correlation_case(rng):
        fb = Tensor(rng.standard_normal((2, 3, 3, 3)))
        fp = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
        return (lambda tape: correlation_loss(fb, fp, tape)), [fp]

    def joint_case(rng):
        fb = Tensor(rng.standard_normal((2, 3, 3, 3)))
        fp = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=4)
        def loss(tape):
            total, _ = joint_loss(reconstruction_loss(fb, fp, tape),
                                  correlation_loss(fb, fp, tape),
                                  T.softmax_cross_entropy(logits, labels, tape),
                                  LossWeights(0.5, 1.5), frozenset("rsc"), tape)
            return total
        return loss, [fp, logits]

    return {
        "conv2d": conv_case(1, 1),
        "conv2d_stride2": conv_case(2, 1, size=7),
        "conv2d_nopad": conv_case(1, 0),
        "conv2d_stride3": conv_case(3, 2, size=8),
        "relu": relu_case,
        "max_pool2d": pool_case(2, 2),
        "max_pool2d_overlap": pool_case(3, 1),
        "dense": dense_case,
        "flatten": flatten_case,
        "softmax_cross_entropy": softmax_case,
        "scatter_channels": scatter_case,
        "reconstruction_loss": reconstruction_case,
        "correlation_loss": correlation_case,
        "joint_loss": joint_case,
    }


def run_suite(n_seeds: int = 20, rtol: float = RTOL) -> list[tuple[str, float, bool]]:
    """Run every case over ``n_seeds`` seeds; returns (name, worst rel, worst <= rtol),
    the worst error as ``check_gradients`` measures it and ``rtol`` only the pass mark."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    results = []
    for name, builder in suite_cases().items():
        worst = max(check_gradients(*builder(np.random.default_rng(seed)))
                    for seed in range(n_seeds))
        results.append((name, worst, worst <= rtol))
    return results


def numerical_grad(fn: Callable[[], float], param: Tensor) -> np.ndarray:
    """Central differences (step ``STEP``) of a scalar closure w.r.t. each entry of ``param``."""
    # index ``param.data`` itself: a reshape of a strided view would perturb a copy
    grad = np.zeros(param.shape)
    for i in np.ndindex(param.shape):
        orig = param.data[i]
        param.data[i] = orig + STEP
        hi = fn()
        param.data[i] = orig - STEP
        lo = fn()
        param.data[i] = orig
        grad[i] = (hi - lo) / (2.0 * STEP)
    return grad


def check_gradients(build_loss: Callable[[Tape], Tensor],
                    params: Sequence[Tensor]) -> float:
    """Compare analytic and numeric gradients of a loss builder.

    ``build_loss(tape)`` must construct the scalar loss from ``params`` on the
    given tape (pass ``None`` while the checker perturbs entries). Returns the
    worst relative error, ``|analytic - numeric| / max(|analytic|, |numeric|,
    ATOL / RTOL)`` over every entry of every param, a non-finite one counting
    as inf; the caller judges it against ``RTOL``.
    """
    for p in params:
        p.zero_grad()
        p.requires_grad = True
    tape = Tape()
    loss = build_loss(tape)
    backward(loss, tape)

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numerical_grad(lambda: build_loss(None).item(), p)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), ATOL / RTOL)
        rel = np.nan_to_num(np.abs(analytic - numeric) / denom, nan=np.inf, posinf=np.inf)
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
    return worst

"""The three supervision signals and their weighted fusion.

For one layer, let F be the baseline feature map and F' the pruned one, viewed
as M channels by N = H*Z spatial positions per example:

* reconstruction: mean squared map difference, 1/(2T) * ||F - F'||^2 with
  T = M*H*Z;
* correlation: 1/(4 N^2 M^2) * (||Gf - Gf'||^2 + ||Gs - Gs'||^2), where
  Gf = F F^T captures which channels co-activate and Gs = F^T F captures where
  activation mass sits spatially;
* classification: mean softmax cross-entropy of the pruned network's logits.

Batched inputs are averaged per example, then over the batch. F is a
constant target, like the labels of ``softmax_cross_entropy``: only F' gets a
gradient. Each loss, ``joint_loss`` included, records one tape node with its
own backward rule: ``joint_loss`` adds the enabled terms, each times its
weight (1.0 for r, alpha for s, beta for c), left to right in r, s, c order.
alpha and beta are run settings, the ``PruneConfig`` fields of those names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import DivergenceError
from .tensor import ShapeError, Tape, Tensor

LOSS_KEYS = ("r", "s", "c")


def check_weights(alpha: float, beta: float) -> None:
    """Reject a negative or non-finite alpha (correlation) or beta
    (classification) weight."""
    if not (0.0 <= alpha < np.inf and 0.0 <= beta < np.inf):
        raise ValueError(f"loss weights must be finite and nonnegative, "
                         f"got alpha {alpha}, beta {beta}")


@dataclass
class LossBreakdown:
    l_r: float
    l_s: float
    l_c: float
    total: float


def _as_batched(name: str, f_base: Tensor,
                f_pruned: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Both maps, which must share one [M,H,Z] or [B,M,H,Z] shape, as row-major
    [B,M,H,Z] data, so their sums and Grams add in one order."""
    if f_base.shape != f_pruned.shape:
        raise ShapeError(f"{name}: shapes {f_base.shape} and {f_pruned.shape} differ")
    if f_base.data.ndim not in (3, 4):
        raise ShapeError(f"{name}: expected [M,H,Z] or [B,M,H,Z], got {f_base.shape}")
    return tuple(np.ascontiguousarray(f.data.reshape(-1, *f.shape[-3:]))
                 for f in (f_base, f_pruned))


def reconstruction_loss(f_base: Tensor, f_pruned: Tensor,
                        tape: Optional[Tape] = None) -> Tensor:
    """Mean 1/(2T) ||F - F'||^2; ``f_base`` is a constant target, as above."""
    fb, fp = _as_batched("reconstruction_loss", f_base, f_pruned)
    bsz = fb.shape[0]
    t_norm = fb[0].size  # M * H * Z
    diff = fb - fp
    out = Tensor((diff * diff).sum() / (2.0 * t_norm * bsz))
    if tape is not None:
        tape.record(out, (f_pruned,), lambda g: (
            (g * (fp - fb) / (t_norm * bsz)).reshape(f_pruned.shape)
            if f_pruned.requires_grad else None,))
    return out


def grams(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature Grams F F^T [B,M,M] and spatial Grams F^T F [B,N,N] of [B,M,N] maps."""
    if f.ndim != 3:
        raise ShapeError(f"grams: expected [B,M,N], got {f.shape}")
    return f @ f.transpose(0, 2, 1), f.transpose(0, 2, 1) @ f


def correlation_loss(f_base: Tensor, f_pruned: Tensor,
                     tape: Optional[Tape] = None) -> Tensor:
    """Mean Gram distance of F and F'; ``f_base`` is a constant target, as above."""
    fb, fp = _as_batched("correlation_loss", f_base, f_pruned)
    bsz, m = fb.shape[0], fb.shape[1]
    n = fb.shape[2] * fb.shape[3]
    fb2 = fb.reshape(bsz, m, n)
    fp2 = fp.reshape(bsz, m, n)

    gf_b, gs_b = grams(fb2)
    gf_p, gs_p = grams(fp2)
    df = gf_b - gf_p
    ds = gs_b - gs_p
    coef = 1.0 / (4.0 * n * n * m * m)
    out = Tensor(coef * ((df * df).sum() + (ds * ds).sum()) / bsz)
    if tape is not None:
        # d||A - FF^T||^2 / dF = -4 (A - FF^T) F for symmetric difference
        tape.record(out, (f_pruned,), lambda g: (
            (-4.0 * (g * coef / bsz) * (df @ fp2 + fp2 @ ds)).reshape(f_pruned.shape)
            if f_pruned.requires_grad else None,))
    return out


def joint_loss(l_r: Optional[Tensor], l_s: Optional[Tensor], l_c: Optional[Tensor],
               alpha: float, beta: float, enabled: frozenset | set = frozenset(LOSS_KEYS),
               tape: Optional[Tape] = None) -> tuple[Tensor, LossBreakdown]:
    """Weighted fusion over the enabled terms; disabled terms contribute zero.

    Returns the differentiable total and the per-term breakdown. A term passed
    as None (callers skip computing disabled ones) is reported as 0.0. A
    non-finite term raises ``DivergenceError``, a negative or non-finite
    weight ``ValueError``.
    """
    check_weights(alpha, beta)
    enabled = frozenset(enabled)
    if not enabled:
        raise ValueError("joint_loss: no loss terms enabled")
    unknown = enabled - set(LOSS_KEYS)
    if unknown:
        raise ValueError(f"joint_loss: unknown loss flags {sorted(unknown)}")
    for name, term in (("l_r", l_r), ("l_s", l_s), ("l_c", l_c)):
        if term is not None and not np.isfinite(term.data).all():
            raise DivergenceError(f"joint_loss: {name} is not finite")

    # -0.0 is the exact identity of + (0.0 + -0.0 is 0.0), and x * 1.0 is x
    terms, coefs, value = [], [], -0.0
    for key, term, coef in (("r", l_r, 1.0), ("s", l_s, alpha), ("c", l_c, beta)):
        if key not in enabled:
            continue
        if term is None:
            raise ValueError(f"joint_loss: enabled term {key!r} was not provided")
        value += term.item() * coef
        terms.append(term)
        coefs.append(coef)
    total = Tensor(value)
    if tape is not None:
        tape.record(total, terms, lambda g: tuple(g * c if t.requires_grad else None
                                                  for t, c in zip(terms, coefs)))
    return total, LossBreakdown(
        l_r=l_r.item() if l_r is not None else 0.0,
        l_s=l_s.item() if l_s is not None else 0.0,
        l_c=l_c.item() if l_c is not None else 0.0,
        total=total.item(),
    )

"""Greedy layer-wise channel pruning under the joint loss, plus fine-tuning.

The sweep walks conv layers first to last. For each layer it accumulates
gradients of the joint loss over a handful of batches, scores every output
channel by the squared gradient-times-weight mass of its kernel slice, keeps
the top-K, removes the rest from the network, and refits the surviving slice
with plain SGD while the baseline stays frozen; later layers run on the shrunk
network. The whole network is then optionally fine-tuned. ``prune_runs`` does
this for a list of configs on one baseline, whose errors it computes once.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Optional

import numpy as np

from .data import Dataset, epoch_indices, sample_indices
from .losses import (LOSS_KEYS, LossBreakdown, LossWeights, correlation_loss,
                     joint_loss, reconstruction_loss)
from .metrics import (CompressionStats, DivergenceError, PruneError, check_fits,
                      error_rate, evaluate)
from .network import ChannelMask, Network, forward, forward_chunks, shrink_layer
from .tensor import Tape, Tensor, backward, scatter_channels, softmax_cross_entropy

MOMENTUM = 0.9  # of fine-tuning and baseline training
DIVERGENCE_FACTOR = 10.0  # of refit and fine-tuning; see _check_divergence


class UntrainedBaselineError(PruneError):
    """The baseline model is not flagged as trained."""


@dataclass(frozen=True)
class PruneConfig:
    rate: float
    weights: LossWeights = LossWeights()
    eta: float = 0.01
    selection_batches: int = 10
    refit_epochs: int = 20
    finetune_epochs: int = 0
    enabled_losses: frozenset = frozenset("rsc")
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        object.__setattr__(self, "enabled_losses", frozenset(self.enabled_losses))
        if not self.enabled_losses:
            raise ValueError(f"enabled_losses must hold at least one of {', '.join(LOSS_KEYS)}")
        unknown = self.enabled_losses - set(LOSS_KEYS)
        if unknown:
            raise ValueError(f"enabled_losses: unknown loss keys {sorted(unknown)}")
        on, w = self.enabled_losses, self.weights
        if not ("r" in on or ("s" in on and w.alpha) or ("c" in on and w.beta)):
            # every sensitivity would be 0 and each layer would keep channels 0..K-1
            raise ValueError(f"every enabled loss term has zero weight: losses "
                             f"{','.join(k for k in LOSS_KEYS if k in on)}, "
                             f"alpha {w.alpha}, beta {w.beta}")
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"pruning rate must be in (0,1), got {self.rate}")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.eta}")
        if self.selection_batches < 1:
            raise ValueError("selection_batches must be positive")
        if self.refit_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class ChannelSelection:
    sensitivities: np.ndarray
    retained: list[int]
    budget: int


@dataclass
class PruneReport:
    config: dict
    baseline_train_error: float
    baseline_test_error: float
    masked_train_error: float
    masked_test_error: float
    final_train_error: float
    final_test_error: float
    selections: dict[int, ChannelSelection]
    loss_curves: dict[int, list[LossBreakdown]]
    stats: CompressionStats
    finetune_log: list[dict]

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "errors": {
                "baseline": {"train": self.baseline_train_error,
                             "test": self.baseline_test_error},
                "masked": {"train": self.masked_train_error,
                           "test": self.masked_test_error},
                "final": {"train": self.final_train_error,
                          "test": self.final_test_error},
            },
            "layers": {
                str(l): {
                    "budget": sel.budget,
                    "retained": list(sel.retained),
                    "sensitivities": [float(v) for v in sel.sensitivities],
                } for l, sel in self.selections.items()
            },
            "compression": {
                "params_before": self.stats.params_before,
                "params_after": self.stats.params_after,
                "param_ratio": self.stats.param_ratio,
                "flops_before": self.stats.flops_before,
                "flops_after": self.stats.flops_after,
                "flops_ratio": self.stats.flops_ratio,
            },
            "finetune_log": self.finetune_log,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def write_loss_curves(self, out_dir) -> None:
        for l, curve in self.loss_curves.items():
            path = os.path.join(str(out_dir), f"layer_{l}_losses.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["epoch", "l_r", "l_s", "l_c", "total"])
                for epoch, bd in enumerate(curve):
                    writer.writerow([epoch, repr(bd.l_r), repr(bd.l_s),
                                     repr(bd.l_c), repr(bd.total)])


def budget_for(channels: int, rate: float) -> int:
    """Retained-channel budget: at least one channel always survives."""
    return max(1, int(math.floor((1.0 - rate) * channels + 0.5)))


def channel_sensitivity(w: Tensor, grad_w: np.ndarray) -> np.ndarray:
    """Per-output-channel score: sum of (gradient * weight)^2 over the channel's
    entire kernel slice."""
    grad_w = np.asarray(grad_w, dtype=np.float64)
    if grad_w.shape != w.shape:
        raise ValueError(
            f"channel_sensitivity: gradient shape {grad_w.shape} != weight shape {w.shape}")
    if not np.isfinite(grad_w).all():
        raise ValueError("channel_sensitivity: gradient contains NaN/Inf")
    prod = grad_w * w.data
    return (prod * prod).reshape(w.shape[0], -1).sum(axis=1)


def select_channels(delta: np.ndarray, k: int) -> ChannelSelection:
    """Deterministic top-K by sensitivity; ties keep the lower index."""
    if k < 1:
        raise ValueError(f"select_channels: K must be >= 1, got {k}")
    delta = np.asarray(delta, dtype=np.float64)
    order = np.argsort(-delta, kind="stable")
    retained = sorted(int(i) for i in order[:min(k, len(delta))])
    return ChannelSelection(sensitivities=delta, retained=retained, budget=k)


@dataclass
class FrozenActivations:
    """What scoring and refitting one conv layer read but never change, over
    the whole train split: the pruned net's input to the layer, the baseline's
    map there when r or s is enabled and, once the layer is shrunk, the
    baseline channels it keeps (``retained``).

    Refitting layer l changes only its weights, so the arrays are computed
    once per layer, without a tape, and moved on by ``advance_activations``.
    ``f_base`` holds about N_train times the largest per-image map in float64,
    ``x_in`` only the retained channels of the shrunk net: about (1 - rate)
    times that past the first conv layer. Past the last conv layer both hold
    train logits, the pruned net's and the baseline's.
    """
    x_in: np.ndarray
    f_base: Optional[np.ndarray]
    labels: np.ndarray
    retained: Optional[list[int]] = None


def frozen_activations(net_base: Network, net_pruned: Network, layer: int,
                       cfg: PruneConfig, dataset: Dataset) -> FrozenActivations:
    """The frozen activations of conv layer ``layer``, from the train images."""
    images, labels = dataset.normalized("train")
    f_base = (forward_chunks(net_base, images, cfg.batch_size, upto_layer=layer)
              if cfg.enabled_losses & {"r", "s"} else None)
    x_in = forward_chunks(net_pruned, images, cfg.batch_size, upto_layer=layer - 1)
    return FrozenActivations(x_in, f_base, labels)


def advance_activations(acts: FrozenActivations, net_base: Network,
                        net_pruned: Network, layer: int, nxt: Optional[int],
                        cfg: PruneConfig) -> FrozenActivations:
    """Move the frozen activations of conv layer ``layer`` on to conv layer
    ``nxt``, once layer ``layer`` is selected and refit: the pruned input runs
    through layers ``layer..nxt-1``, the baseline map through ``layer+1..nxt``.
    With ``nxt`` None both run to the logits."""
    f_base = (forward_chunks(net_base, acts.f_base, cfg.batch_size, layer + 1, nxt)
              if acts.f_base is not None else None)
    return FrozenActivations(
        forward_chunks(net_pruned, acts.x_in, cfg.batch_size, layer,
                       None if nxt is None else nxt - 1),
        f_base, acts.labels)


@contextmanager
def _only_layer_trainable(net: Network, layer: int):
    """Set ``requires_grad`` on layer ``layer``'s parameters only, so backward
    computes nothing that the layer's score or update does not read. Every
    flag is restored on exit, also when the body raises."""
    saved = [(idx, t, t.requires_grad) for idx, _, t in net.parameters()]
    try:
        for idx, t, _ in saved:
            t.requires_grad = idx == layer
        yield
    finally:
        for _, t, flag in saved:
            t.requires_grad = flag


def _layer_backward(net_pruned: Network, layer: int, cfg: PruneConfig,
                    acts: FrozenActivations, idx: np.ndarray) -> LossBreakdown:
    """One taped pass of the joint loss at layer ``layer`` on the examples
    ``idx``, which adds to the layer's ``w.grad`` and ``b.grad``. Only those
    two are differentiated: the cached input, the baseline map and the layers
    past ``layer`` are constants. Only the enabled terms are built: the pruned
    net runs layer ``layer``, and the layers past it only for c; r and s
    compare it, at ``acts.retained`` once shrunk, with ``acts.f_base``."""
    on = cfg.enabled_losses
    with _only_layer_trainable(net_pruned, layer):
        tape = Tape()
        f_base = Tensor(acts.f_base[idx]) if on & {"r", "s"} else None
        f_pruned = forward(net_pruned, Tensor(acts.x_in[idx]), tape=tape, upto_layer=layer,
                           start=layer)
        if "c" in on:
            logits = forward(net_pruned, f_pruned, tape=tape, start=layer + 1)
        f_cmp = (f_pruned if f_base is None or acts.retained is None
                 else scatter_channels(f_pruned, acts.retained, f_base.shape[1], tape))
        l_r = reconstruction_loss(f_base, f_cmp, tape) if "r" in on else None
        l_s = correlation_loss(f_base, f_cmp, tape) if "s" in on else None
        l_c = softmax_cross_entropy(logits, acts.labels[idx], tape) if "c" in on else None
        total, bd = joint_loss(l_r, l_s, l_c, cfg.weights, on, tape)
        backward(total, tape)
    return bd


def score_layer(net_pruned: Network, layer: int, cfg: PruneConfig,
                acts: FrozenActivations, rng: np.random.Generator) -> np.ndarray:
    """Joint-loss gradients accumulated over selection batches, averaged, then
    turned into per-channel sensitivities. Batches are drawn as
    ``Dataset.sample_batch`` draws them."""
    for _ in range(cfg.selection_batches):
        _layer_backward(net_pruned, layer, cfg, acts,
                        sample_indices(len(acts.labels), cfg.batch_size, rng))
    w = net_pruned.params[layer]["w"]
    grad = w.grad / cfg.selection_batches
    for t in net_pruned.params[layer].values():
        t.zero_grad()
    return channel_sensitivity(w, grad)


def _baseline_prefix(net_base: Network, net_pruned: Network, layer: int) -> bool:
    """Whether every layer before ``layer`` of ``net_pruned`` has the
    baseline's spec and bit-equal parameters, as before the sweep's first conv
    layer, or past layers that kept every channel and whose refit left them."""
    return net_pruned.specs[:layer] == net_base.specs[:layer] and all(
        t.data.tobytes() == net_base.params[i][name].data.tobytes()
        for i, name, t in net_pruned.parameters() if i < layer)


def _score_on_baseline_prefix(net_pruned: Network, layer: int, cfg: PruneConfig,
                              acts: FrozenActivations,
                              rng: np.random.Generator) -> np.ndarray:
    """``score_layer`` at a conv layer behind a ``_baseline_prefix``: the
    layer's map equals the baseline's, so r and s add only the rounding gap
    between the cached map and a batch's, not a score. Scores under c alone,
    or, with c off or weighted 0, zeros from the same draws."""
    if "c" in cfg.enabled_losses and cfg.weights.beta:
        return score_layer(net_pruned, layer, replace(cfg, enabled_losses=frozenset("c")),
                           acts, rng)
    for _ in range(cfg.selection_batches):
        sample_indices(len(acts.labels), cfg.batch_size, rng)
    return np.zeros(net_pruned.specs[layer].out_channels)


def refit_layer(net_pruned: Network, layer: int, cfg: PruneConfig,
                acts: FrozenActivations, rng: np.random.Generator) -> list[LossBreakdown]:
    """Plain SGD on every row of one conv layer, which ``prune_runs`` has
    already shrunk to its retained channels; the baseline and every other
    layer stay put. Each epoch shuffles as ``Dataset.iter_batches`` does.
    Returns the per-epoch loss curve."""
    params = net_pruned.params[layer].values()

    history: list[LossBreakdown] = []
    for _ in range(cfg.refit_epochs):
        sums = np.zeros(4)
        for batches, idx in enumerate(epoch_indices(len(acts.labels), cfg.batch_size, rng), 1):
            bd = _layer_backward(net_pruned, layer, cfg, acts, idx)
            for t in params:
                t.data -= cfg.eta * t.grad
                t.zero_grad()
            sums += (bd.l_r, bd.l_s, bd.l_c, bd.total)
        epoch_bd = LossBreakdown(*map(float, sums / batches))
        history.append(epoch_bd)
        _check_divergence(f"refit of layer {layer}", epoch_bd.total, history[0].total)
    return history


def _check_divergence(what: str, loss: float, first: float) -> None:
    """Raise ``DivergenceError`` when an epoch's mean loss is not finite or
    exceeds ``DIVERGENCE_FACTOR`` times the first epoch's."""
    if not math.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(first, 1e-12):
        raise DivergenceError(f"{what} diverged: loss {loss:.4g}, first epoch {first:.4g}, "
                              f"limit {DIVERGENCE_FACTOR}x")


def prune_runs(net_base: Network, cfgs: Iterable[PruneConfig],
               dataset: Dataset) -> Iterator[tuple[Network, PruneReport]]:
    """Prune ``net_base`` once per config, in order: per conv layer score,
    select, ``shrink_layer``, refit and advance the frozen activations, so
    later layers run on the shrunk net; then optionally fine-tune. A conv
    layer whose earlier layers are still the baseline's, the first one always,
    is scored without r and s (``_score_on_baseline_prefix``). Past the
    last conv layer the activations reach the train logits, which give the
    masked train error. The swept net is the final one, so the final
    errors are the masked ones by construction, or after fine-tuning the last
    epoch's logged ones. ``net_base`` is not changed. The baseline's errors
    are computed once per call: the test error with one ``evaluate``, the
    train error from the first run's baseline logits when that run keeps a
    baseline map, else with one ``evaluate``."""
    check_fits(net_base, dataset)
    if not net_base.trained:
        raise UntrainedBaselineError("baseline model is not flagged as trained")
    convs = net_base.conv_layers()
    if not convs:
        raise PruneError("network has no prunable conv layers")
    baseline: Optional[tuple[float, float]] = None

    for cfg in cfgs:
        rng = np.random.default_rng(cfg.seed)
        pruned = net_base.copy()
        selections: dict[int, ChannelSelection] = {}
        curves: dict[int, list[LossBreakdown]] = {}

        acts = frozen_activations(net_base, pruned, convs[0], cfg, dataset)
        for layer, nxt in zip(convs, convs[1:] + [None]):
            score = (_score_on_baseline_prefix if _baseline_prefix(net_base, pruned, layer)
                     else score_layer)
            delta = score(pruned, layer, cfg, acts, rng)
            channels = net_base.specs[layer].out_channels
            sel = select_channels(delta, budget_for(channels, cfg.rate))
            mask = ChannelMask(layer, np.isin(np.arange(channels), sel.retained))
            pruned = shrink_layer(pruned, mask)
            selections[layer] = sel
            acts = replace(acts, retained=sel.retained)
            curves[layer] = refit_layer(pruned, layer, cfg, acts, rng)
            acts = advance_activations(acts, net_base, pruned, layer, nxt, cfg)

        masked_train = error_rate(acts.x_in, acts.labels, "train")
        if baseline is None:
            baseline = (error_rate(acts.f_base, acts.labels, "train")
                        if acts.f_base is not None else evaluate(net_base, dataset, "train"),
                        evaluate(net_base, dataset, "test"))
        masked_test = evaluate(pruned, dataset, "test")

        finetune_log: list[dict] = []
        final_train, final_test = masked_train, masked_test
        if cfg.finetune_epochs:
            finetune_log = fine_tune(pruned, dataset, cfg.finetune_epochs,
                                     batch_size=cfg.batch_size, seed=cfg.seed)
            final_train, final_test = (finetune_log[-1]["train_error"],
                                       finetune_log[-1]["test_error"])
        pruned.trained = True

        config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        weights, losses = config.pop("weights"), config.pop("enabled_losses")
        config.update(alpha=weights.alpha, beta=weights.beta,
                      losses="".join(k for k in LOSS_KEYS if k in losses))
        yield pruned, PruneReport(
            config=config,
            baseline_train_error=baseline[0],
            baseline_test_error=baseline[1],
            masked_train_error=masked_train,
            masked_test_error=masked_test,
            final_train_error=final_train,
            final_test_error=final_test,
            selections=selections,
            loss_curves=curves,
            stats=CompressionStats.compare(net_base, pruned),
            finetune_log=finetune_log,
        )


def prune_model(net_base: Network, cfg: PruneConfig,
                dataset: Dataset) -> tuple[Network, PruneReport]:
    """Prune ``net_base`` under one config; see ``prune_runs``."""
    (run,) = prune_runs(net_base, [cfg], dataset)
    return run


def fine_tune(net: Network, dataset: Dataset, epochs: int, eta: float = 0.01,
              batch_size: int = 32, seed: int = 0) -> list[dict]:
    """SGD with momentum ``MOMENTUM`` and one rate ``eta`` on every parameter
    under the cross-entropy loss; diverging epochs raise (``_check_divergence``).
    Returns a per-epoch log of mean loss and train/test error."""
    check_fits(net, dataset)
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"learning rate must be finite and >= 0, got {eta}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    velocity = {(idx, name): np.zeros_like(t.data) for idx, name, t in net.parameters()}
    log: list[dict] = []
    for epoch in range(epochs):
        total, batches = 0.0, 0
        for xb, yb in dataset.iter_batches("train", batch_size, rng=rng):
            tape = Tape()
            loss = softmax_cross_entropy(forward(net, xb, tape=tape), yb, tape)
            backward(loss, tape)
            # the tape's conv rules hold every layer's im2col matrix; free them
            # before the next batch and the per-epoch evaluate
            del tape
            for idx, name, t in net.parameters():
                v = velocity[(idx, name)]
                g = t.grad if t.grad is not None else 0.0
                v *= MOMENTUM
                v -= eta * g
                t.data += v
                t.zero_grad()
            total += loss.item()
            batches += 1
        mean_loss = total / batches
        _check_divergence(f"fine-tuning at epoch {epoch}", mean_loss,
                          log[0]["loss"] if log else mean_loss)
        log.append({
            "epoch": epoch,
            "eta": eta,
            "loss": mean_loss,
            "train_error": evaluate(net, dataset, "train"),
            "test_error": evaluate(net, dataset, "test"),
        })
    return log


def train_baseline(net: Network, dataset: Dataset, epochs: int, eta: float = 0.01,
                   batch_size: int = 32, seed: int = 0) -> list[dict]:
    """Train a fresh network as the pruning baseline and flag it as trained."""
    if epochs < 1:
        raise ValueError(f"a baseline needs at least one training epoch, got {epochs}")
    log = fine_tune(net, dataset, epochs, eta=eta, batch_size=batch_size, seed=seed)
    net.trained = True
    return log

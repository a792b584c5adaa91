"""Multi-loss-aware channel pruning for small feedforward CNNs."""

from .data import Dataset, DataError, load_cifar10, synth_dataset
from .losses import LossBreakdown, correlation_loss, joint_loss, reconstruction_loss
from .metrics import CompressionStats, count_flops, count_params, evaluate
from .network import (ChannelMask, FormatError, LayerSpec, Network, apply_mask,
                      forward, load, materialize, reference_specs, save)
from .pruner import (ChannelSelection, DivergenceError, PruneConfig, PruneReport,
                     UntrainedBaselineError, budget_for, channel_sensitivity,
                     fine_tune, frozen_activations, prune_model, refit_layer,
                     select_channels, train_baseline)
from .tensor import ShapeError, Tape, TapeError, Tensor, backward

__all__ = [
    "ChannelMask", "ChannelSelection", "CompressionStats", "DataError",
    "Dataset", "DivergenceError", "FormatError", "LayerSpec", "LossBreakdown",
    "Network", "PruneConfig", "PruneReport", "ShapeError", "Tape", "TapeError",
    "Tensor", "UntrainedBaselineError", "apply_mask", "backward", "budget_for",
    "channel_sensitivity", "correlation_loss", "count_flops", "count_params",
    "evaluate", "fine_tune", "forward", "frozen_activations", "joint_loss",
    "load", "load_cifar10", "materialize", "prune_model", "reconstruction_loss",
    "reference_specs", "refit_layer", "save", "select_channels", "synth_dataset",
    "train_baseline",
]

"""Parameter/FLOPs accounting, top-1 evaluation, the ablation's loss
combinations and the plain-text table of the CLI's results.

The pruning errors live here, below ``pruner`` and ``losses``, because
``error_rate`` and ``joint_loss`` raise ``DivergenceError`` too."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DataError, Dataset
from .network import Network, forward
from .tensor import Tensor


class PruneError(RuntimeError):
    pass


class DivergenceError(PruneError):
    """A loss or the network's output became non-finite, or an optimization's
    total loss blew past the configured guard threshold."""


ABLATION_COMBOS: tuple[frozenset, ...] = (
    frozenset("r"), frozenset("s"), frozenset("c"),
    frozenset("rs"), frozenset("rc"), frozenset("sc"), frozenset("rsc"),
)


@dataclass(frozen=True)
class CompressionStats:
    params_before: int
    params_after: int
    flops_before: int
    flops_after: int

    @property
    def param_ratio(self) -> float:
        return self.params_before / self.params_after

    @property
    def flops_ratio(self) -> float:
        return self.flops_before / self.flops_after

    @classmethod
    def compare(cls, before: Network, after: Network) -> "CompressionStats":
        return cls(count_params(before), count_params(after),
                   count_flops(before), count_flops(after))


def count_params(net: Network) -> int:
    """Total weight and bias elements across all layers."""
    return sum(t.size for _, _, t in net.parameters())


def count_flops(net: Network) -> int:
    """Multiply-accumulate count with multiply and add counted separately:
    conv contributes 2*M*C*kh*kw*H'*Z', dense 2*in*out. Pooling, activations,
    and biases are excluded."""
    shapes = net.layer_shapes()
    total = 0
    for idx, spec in enumerate(net.specs):
        if spec.kind == "conv":
            _, ho, wo = shapes[idx]
            total += 2 * spec.out_channels * spec.in_channels * spec.kernel ** 2 * ho * wo
        elif spec.kind == "dense":
            total += 2 * spec.in_features * spec.out_features
    return total


def error_rate(logits: np.ndarray, labels: np.ndarray, split: str) -> float:
    """Top-1 error fraction of ``logits`` against ``labels``. Non-finite logits
    raise ``DivergenceError``: argmax over a NaN row picks class 0, which would
    read as a plausible error."""
    if not np.isfinite(logits).all():
        raise DivergenceError(
            f"non-finite logits on the {split} split; the network holds NaN/Inf "
            "weights or overflows")
    return int((logits.argmax(axis=1) != labels).sum()) / len(labels)


def check_fits(net: Network, dataset: Dataset) -> None:
    """Raise ``DataError`` unless ``net`` takes the dataset's images and outputs
    logits of its classes."""
    output = (net.input_shape, *net.layer_shapes())[-1]
    if (net.input_shape, output) != (dataset.image_shape, (dataset.num_classes,)):
        raise DataError(f"model takes {net.input_shape} images of {net.num_classes} "
                        f"classes and outputs {output}, the dataset has "
                        f"{dataset.image_shape} images of {dataset.num_classes} classes")


# Float64 bytes that the largest per-row array of one ``evaluate`` chunk (the
# input image or a conv layer's im2col rows) may take. Forward time per image
# does not depend on the chunk size. 20 MiB is 63 rows at 24x24 and 252 at 12x12
# on the reference net. A fixed 64 rows at every size lowered glibc's dynamic
# mmap and trim thresholds at 12x12 below one training step's working set, so
# every step page-faulted its heap back in.
EVAL_CHUNK_BYTES = 20 * 2**20


def evaluate(net: Network, dataset: Dataset, split: str = "test") -> float:
    """Top-1 error fraction of the network on one labeled split, run in chunks of
    as many rows as keep the largest per-row array within ``EVAL_CHUNK_BYTES``.
    Each chunk is normalized as it is run; no normalized copy of the split is held."""
    check_fits(net, dataset)
    shapes = net.layer_shapes()
    row_floats = max([math.prod(net.input_shape)]
                     + [s.in_channels * s.kernel ** 2 * shapes[l][1] * shapes[l][2]
                        for l, s in enumerate(net.specs) if s.kind == "conv"])
    rows = max(1, EVAL_CHUNK_BYTES // (8 * row_floats))
    labels = dataset.split(split)[1]
    logits = np.empty((len(labels), dataset.num_classes))
    for i in range(0, len(labels), rows):
        images, _ = dataset.normalized(split, slice(i, i + rows))
        logits[i:i + rows] = forward(net, Tensor(images)).data
    return error_rate(logits, labels, split)


def loss_combo_label(combo: frozenset) -> str:
    return "+".join(k for k in "rsc" if k in combo)


def format_table(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Aligned plain-text rendering of a list of dict rows."""
    def fmt(v):
        return f"{v:.4f}" if isinstance(v, float) else str(v)

    cells = [[fmt(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)

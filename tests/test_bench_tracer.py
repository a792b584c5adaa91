"""The benchmark's tracer binds prunekit functions by parameter name and
patches them in place; a renamed parameter or hook target shows up here rather
than only in a traced benchmark run."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

import prunekit as pk
from tests.conftest import tiny_specs

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _callables() -> dict:
    """Every function of the prunekit modules and of the classes the tracer
    patches, by qualified name."""
    found = {}
    owners = [(name, module) for name, module in sys.modules.items()
              if name == "prunekit" or name.startswith("prunekit.")]
    owners += [(cls.__name__, cls) for cls in (pk.data.Dataset, pk.tensor.Tensor)]
    for owner_name, owner in owners:
        found.update({f"{owner_name}.{attr}": value for attr, value in vars(owner).items()
                      if callable(value)})
    return found


def test_tracer_hooks_bind_and_uninstall(tiny_dataset):
    tracer = _load_tracer().Tracer(pk)
    net = pk.Network.initialize(tiny_specs(), tiny_dataset.image_shape, 3,
                                np.random.default_rng(7))
    before = _callables()
    tracer.install()
    try:
        pk.train_baseline(net, tiny_dataset, epochs=2, eta=0.02, seed=7)
        cfg = pk.PruneConfig(rate=0.5, selection_batches=2, refit_epochs=1, finetune_epochs=1,
                             batch_size=16)
        pk.prune_model(net, cfg, tiny_dataset)
    finally:
        tracer.uninstall()
    metrics = tracer.op_metrics(1.0, net.conv_layers())
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["losses.useful_ratio"] == 1.0
    assert metrics["tensor.conv2d.calls"] > 0 and metrics["pruner.refit_layer.s"] > 0
    after = _callables()
    assert after.keys() == before.keys()
    # uninstall puts every original back, so no tracer wrapper (which keeps
    # the original as __wrapped__) is left behind
    assert [name for name in before if after[name] is not before[name]] == []
    assert not any(getattr(fn, "__qualname__", "").startswith("Tracer.")
                   for fn in after.values())


def test_conv_flop_reads_the_shape_contract():
    # _conv_flop reads x.shape[1] as C; conv2d's input and output keep the
    # [B,C,H,W] shape even when their data is a batch-innermost view
    bsz, cin, h, wd, m, kh, kw = 2, 3, 6, 7, 5, 3, 2
    rng = np.random.default_rng(3)
    x = np.ascontiguousarray(rng.standard_normal((cin, h, wd, bsz))).transpose(3, 0, 1, 2)
    w = pk.tensor.Tensor(rng.standard_normal((m, cin, kh, kw)))
    tracer = _load_tracer().Tracer(pk)
    tracer.install()
    try:
        out = pk.tensor.conv2d(pk.tensor.Tensor(x), w, pad=1)
    finally:
        tracer.uninstall()
    ho, wo = out.shape[2:]
    assert (ho, wo) == (h + 2 - kh + 1, wd + 2 - kw + 1)
    assert tracer.counts["tensor.conv2d.flop"] == 2 * bsz * m * cin * kh * kw * ho * wo

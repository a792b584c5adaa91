"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks its outputs must pass.

Shapes and settings follow the paper's desk-scale setup (reference 16-32-32-64
network, batch 32). Epoch and image counts are cut so that one operation
takes a few seconds on two cores: a run then times several operations and
reports their median. bench/README.md gives the reasons and the sizes each
workload was scaled from.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import prunekit as pk

BASELINE_ETA = 0.02


@dataclass
class Outcome:
    """What one operation produced, and the bytes it wrote."""
    model: object
    loaded: object
    model_bytes: bytes
    report_text: str
    test_error: float
    record: object  # the training log, or the PruneReport


def _write_outputs(net, report_text: str, out_dir: str):
    path = os.path.join(out_dir, "model.prnk")
    pk.save(net, path)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report_text)
    loaded = pk.load(path)
    with open(path, "rb") as fh:
        return loaded, fh.read()


def _same_parameters(a, b) -> bool:
    if a.specs != b.specs or sorted(a.params) != sorted(b.params):
        return False
    return all(x.shape == y.shape and np.array_equal(x.data, y.data)
               for (_, _, x), (_, _, y) in zip(a.parameters(), b.parameters()))


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    per_class: int
    test_per_class: int
    image_size: int

    def setup(self, seed: int):
        """The inputs every operation starts from: data and a fresh network."""
        ds = pk.synth_dataset(self.classes, self.per_class, image_size=self.image_size,
                              seed=seed, test_per_class=self.test_per_class)
        return ds, self.fresh_network(ds, seed)

    def fresh_network(self, ds, seed: int):
        specs = pk.reference_specs(ds.image_shape[0], self.image_size, self.classes)
        return pk.Network.initialize(specs, ds.image_shape, self.classes,
                                     np.random.default_rng(seed))


@dataclass(frozen=True)
class TrainWorkload(Workload):
    epochs: int = 4

    def prepare(self, inputs, seed: int) -> dict:
        ds, net = inputs
        return {"dataset": ds, "seed": seed, "conv_layers": net.conv_layers()}

    def run(self, state: dict, out_dir: str) -> Outcome:
        ds, seed = state["dataset"], state["seed"]
        net = self.fresh_network(ds, seed)
        log = pk.train_baseline(net, ds, epochs=self.epochs, eta=BASELINE_ETA, seed=seed)
        report_text = json.dumps(log, indent=2, sort_keys=True)
        loaded, blob = _write_outputs(net, report_text, out_dir)
        return Outcome(net, loaded, blob, report_text, log[-1]["test_error"], log)

    def check(self, state: dict, out: Outcome) -> dict:
        return {
            "losses_finite": all(math.isfinite(e["loss"]) for e in out.record),
            "save_load_identical": _same_parameters(out.model, out.loaded),
            "loaded_error_matches_log": (
                pk.evaluate(out.loaded, state["dataset"], "test") == out.test_error),
        }


@dataclass(frozen=True)
class PruneWorkload(Workload):
    baseline_epochs: int = 8
    baseline_eta: float = BASELINE_ETA
    rate: float = 0.3
    losses: str = "rsc"
    refit_epochs: int = 1
    selection_batches: int = 4

    def config(self, seed: int):
        return pk.PruneConfig(rate=self.rate, enabled_losses=frozenset(self.losses),
                              refit_epochs=self.refit_epochs,
                              selection_batches=self.selection_batches,
                              batch_size=32, seed=seed)

    def prepare(self, inputs, seed: int) -> dict:
        """Train the baseline that every operation of the run prunes."""
        ds, net = inputs
        pk.train_baseline(net, ds, epochs=self.baseline_epochs, eta=self.baseline_eta,
                          seed=seed)
        return {"dataset": ds, "seed": seed, "baseline": net,
                "conv_layers": net.conv_layers()}

    def run(self, state: dict, out_dir: str) -> Outcome:
        final, report = pk.prune_model(state["baseline"], self.config(state["seed"]),
                                       state["dataset"])
        report_text = report.to_json()
        loaded, blob = _write_outputs(final, report_text, out_dir)
        return Outcome(final, loaded, blob, report_text, report.final_test_error, report)

    def check(self, state: dict, out: Outcome) -> dict:
        report, final, ds = out.record, out.model, state["dataset"]
        base = state["baseline"]
        budgets = all(
            len(report.selections[l].retained)
            == final.specs[l].out_channels
            == pk.budget_for(base.specs[l].out_channels, self.rate)
            for l in state["conv_layers"])
        curves = [v for curve in report.loss_curves.values() for bd in curve
                  for v in (bd.l_r, bd.l_s, bd.l_c, bd.total)]
        return {
            "retained_equals_budget": budgets,
            "materialized_error_equals_masked": (
                pk.evaluate(final, ds, "train") == report.masked_train_error
                and pk.evaluate(final, ds, "test") == report.masked_test_error),
            "save_load_identical": _same_parameters(final, out.loaded),
            "losses_finite": all(math.isfinite(v) for v in curves),
        }


WORKLOADS = {w.name: w for w in (
    # Whole-network SGD on cross-entropy with per-epoch evaluation: the
    # forward-only share is large, and losses and refit stay idle.
    TrainWorkload("train_ref", classes=3, per_class=200, test_per_class=80,
                  image_size=12, epochs=4),
    # One ablation row (r,c) at CIFAR shape: large maps, and spatial Grams of
    # N*N per image that the disabled correlation term computes anyway. At
    # 24x24 a baseline at eta 0.02 can trip the divergence guard; at 0.005 its
    # loss never rose above the first epoch's on 40 seeds.
    PruneWorkload("prune_rc_wide", classes=4, per_class=32, test_per_class=20,
                  image_size=24, baseline_epochs=8, baseline_eta=0.005, rate=0.5,
                  losses="rc", refit_epochs=1, selection_batches=2),
)}

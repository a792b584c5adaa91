import math
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunekit as pk
from prunekit import pruner
from prunekit.data import DataError, Dataset
from prunekit.losses import (LossBreakdown, LossWeights, correlation_loss, joint_loss,
                             reconstruction_loss)
from prunekit.network import (ChannelMask, Network, apply_mask, conv, dense_layer,
                              flatten_layer, forward, load, maxpool, relu_layer, save,
                              shrink_layer)
from prunekit.pruner import (DivergenceError, PruneConfig, UntrainedBaselineError,
                             budget_for, channel_sensitivity, fine_tune,
                             frozen_activations, prune_model, refit_layer,
                             score_layer, select_channels, train_baseline)
from prunekit.tensor import Tape, Tensor, backward, scatter_channels, softmax_cross_entropy


def small_cfg(**kw):
    base = dict(rate=0.5, selection_batches=2, refit_epochs=1, batch_size=16, seed=0)
    base.update(kw)
    return PruneConfig(**base)


class TestChannelSensitivity:
    def test_zero_gradient_gives_zero(self, rng):
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        np.testing.assert_array_equal(channel_sensitivity(w, np.zeros(w.shape)),
                                      np.zeros(3))

    def test_zero_weights_give_zero(self, rng):
        w = Tensor(np.zeros((3, 2, 3, 3)))
        g = rng.standard_normal((3, 2, 3, 3))
        np.testing.assert_array_equal(channel_sensitivity(w, g), np.zeros(3))

    def test_matches_triple_loop_oracle(self, rng):
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        g = rng.standard_normal((3, 2, 3, 3))
        expect = np.zeros(3)
        for k in range(3):
            for c in range(2):
                for i in range(3):
                    for j in range(3):
                        expect[k] += (g[k, c, i, j] * w.data[k, c, i, j]) ** 2
        np.testing.assert_allclose(channel_sensitivity(w, g), expect, atol=1e-9)

    def test_nan_gradient_rejected(self, rng):
        w = Tensor(rng.standard_normal((2, 1, 2, 2)))
        g = np.full(w.shape, np.nan)
        with pytest.raises(ValueError, match="NaN"):
            channel_sensitivity(w, g)

    def test_shape_mismatch_rejected(self, rng):
        w = Tensor(rng.standard_normal((2, 1, 2, 2)))
        with pytest.raises(ValueError, match="shape"):
            channel_sensitivity(w, np.zeros((2, 1, 3, 3)))

    def test_loss_scale_covariance(self, rng):
        # scaling the loss by c scales every delta by c^2, set unchanged
        w = Tensor(rng.standard_normal((5, 2, 3, 3)))
        g = rng.standard_normal((5, 2, 3, 3))
        base = channel_sensitivity(w, g)
        scaled = channel_sensitivity(w, 3.0 * g)
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)
        assert select_channels(base, 3).retained == select_channels(scaled, 3).retained


class TestSelectChannels:
    def test_topk_example(self):
        sel = select_channels(np.array([3.0, 1.0, 2.0]), 2)
        assert sel.retained == [0, 2]
        assert sel.budget == 2

    def test_tie_rule_keeps_lower_index(self):
        sel = select_channels(np.ones(4), 2)
        assert sel.retained == [0, 1]

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="K must be"):
            select_channels(np.ones(3), 0)

    def test_k_above_m_keeps_all(self):
        assert select_channels(np.array([1.0, 2.0]), 5).retained == [0, 1]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exhaustive_enumeration(self, seed):
        r = np.random.default_rng(seed)
        m = int(r.integers(2, 13))
        k = int(r.integers(1, m + 1))
        # quantized values force occasional ties
        delta = r.integers(0, 5, size=m).astype(float)
        best = min(combinations(range(m), k),
                   key=lambda s: (-sum(delta[list(s)]), s))
        assert select_channels(delta, k).retained == list(best)


class TestBudget:
    def test_half_rate_even_channels(self):
        assert budget_for(16, 0.5) == 8

    def test_rounding_half_up(self):
        assert budget_for(16, 0.3) == 11   # 11.2 -> 11
        assert budget_for(16, 0.7) == 5    # 4.8 -> 5
        assert budget_for(15, 0.5) == 8    # 7.5 rounds up

    def test_at_least_one_channel(self):
        assert budget_for(4, 0.99) == 1


def _quadratic_toy():
    """1x1 conv on a single pixel: reconstruction refit is exactly w -= eta*d*x."""
    specs = [conv(1, 1, kernel=1, stride=1, pad=0), flatten_layer(), dense_layer(1, 2)]
    rng = np.random.default_rng(0)
    base = Network.initialize(specs, (1, 1, 1), 2, rng)
    base.params[0]["w"].data[:] = 2.0
    base.params[0]["b"].data[:] = 0.0
    imgs = np.full((1, 1, 1, 1), 0.5)
    labels = np.array([0])
    ds = Dataset(imgs, labels, imgs.copy(), labels.copy(), num_classes=2)
    ds.mean, ds.std = np.zeros(1), np.ones(1)  # the one pixel enters as it is
    return base, ds


class TestRefitLayer:
    def test_zero_eta_leaves_weights_bit_identical(self, trained_tiny, tiny_dataset):
        cfg = small_cfg(eta=0.0, refit_epochs=2)
        pruned = apply_mask(trained_tiny.copy(),
                            ChannelMask(0, np.array([True, True, False, True])))
        before = {n: t.data.tobytes() for _, n, t in pruned.parameters()}
        acts = frozen_activations(trained_tiny, pruned, 0, cfg, tiny_dataset)
        refit_layer(pruned, 0, cfg, acts, np.random.default_rng(0))
        after = {n: t.data.tobytes() for _, n, t in pruned.parameters()}
        assert before == after

    def test_single_sgd_step_matches_closed_form(self):
        base, ds = _quadratic_toy()
        pruned = base.copy()
        pruned.params[0]["w"].data[:] = 3.0  # offset from baseline
        pruned = apply_mask(pruned, ChannelMask(0, np.array([True])))
        eta = 0.1
        cfg = PruneConfig(rate=0.5, eta=eta, refit_epochs=1, batch_size=1,
                          enabled_losses=frozenset("r"), selection_batches=1)
        acts = frozen_activations(base, pruned, 0, cfg, ds)
        refit_layer(pruned, 0, cfg, acts, np.random.default_rng(0))
        # L_r = 0.5*((w-2)*x)^2 with x=0.5 -> grad = (w-2)*x*x = 0.25
        assert pruned.params[0]["w"].item() == pytest.approx(3.0 - eta * 0.25, abs=1e-12)

    def test_unmasked_net_moves_every_row(self, trained_tiny, tiny_dataset):
        unmasked = trained_tiny.copy()
        before = {n: t.data.copy() for n, t in unmasked.params[2].items()}
        acts = frozen_activations(trained_tiny, unmasked, 2, small_cfg(), tiny_dataset)
        refit_layer(unmasked, 2, small_cfg(), acts, np.random.default_rng(0))
        for name, old in before.items():
            new = unmasked.params[2][name].data
            assert all(not np.array_equal(new[i], old[i]) for i in range(len(old))), name

    def test_saved_masked_net_refits_as_the_unsaved_one(self, trained_tiny, tiny_dataset,
                                                         tmp_path):
        # the file holds the zeroed rows
        cfg = small_cfg(refit_epochs=2)
        masked = apply_mask(trained_tiny,
                            ChannelMask(2, np.array([True, False, True, True, False, True])))
        save(masked, tmp_path / "m.prnk")
        nets = [masked.copy(), load(tmp_path / "m.prnk")]
        for net in nets:
            acts = frozen_activations(trained_tiny, net, 2, cfg, tiny_dataset)
            refit_layer(net, 2, cfg, acts, np.random.default_rng(0))
        assert ([(i, n, t.data.tobytes()) for i, n, t in nets[1].parameters()]
                == [(i, n, t.data.tobytes()) for i, n, t in nets[0].parameters()])

    def test_divergence_guard_triggers(self, trained_tiny, tiny_dataset, monkeypatch):
        monkeypatch.setattr(pruner, "DIVERGENCE_FACTOR", 0.01)
        cfg = small_cfg(eta=0.5, refit_epochs=5)
        pruned = apply_mask(trained_tiny.copy(),
                            ChannelMask(0, np.array([True, False, False, False])))
        acts = frozen_activations(trained_tiny, pruned, 0, cfg, tiny_dataset)
        with pytest.raises(DivergenceError, match="diverged"):
            refit_layer(pruned, 0, cfg, acts, np.random.default_rng(0))

    def test_curve_length_matches_epochs(self, trained_tiny, tiny_dataset):
        cfg = small_cfg(refit_epochs=3)
        pruned = apply_mask(trained_tiny.copy(),
                            ChannelMask(0, np.array([True, True, True, False])))
        acts = frozen_activations(trained_tiny, pruned, 0, cfg, tiny_dataset)
        curve = refit_layer(pruned, 0, cfg, acts, np.random.default_rng(0))
        assert len(curve) == 3
        for bd in curve:
            assert bd.total == pytest.approx(
                bd.l_r + cfg.weights.alpha * bd.l_s + cfg.weights.beta * bd.l_c,
                abs=1e-9)


class TestPruneModel:
    def test_budget_exactness(self, trained_tiny, tiny_dataset):
        final, report = prune_model(trained_tiny, small_cfg(rate=0.5), tiny_dataset)
        kept = {l: len(report.selections[l].retained) for l in report.selections}
        assert kept == {0: budget_for(4, 0.5), 2: budget_for(6, 0.5)}
        assert final.specs[0].out_channels == 2
        assert final.specs[2].out_channels == 3

    def test_determinism(self, trained_tiny, tiny_dataset, tmp_path):
        outs = []
        for run in range(2):
            final, report = prune_model(trained_tiny, small_cfg(seed=3), tiny_dataset)
            path = tmp_path / f"run{run}.prnk"
            save(final, path)
            outs.append((path.read_bytes(), report.to_json()))
        assert outs[0] == outs[1]

    def test_untrained_baseline_rejected(self, tiny_net, tiny_dataset):
        with pytest.raises(UntrainedBaselineError):
            prune_model(tiny_net, small_cfg(), tiny_dataset)

    def test_no_prunable_layers_rejected(self, tiny_dataset):
        rng = np.random.default_rng(0)
        net = Network.initialize(
            [flatten_layer(), dense_layer(3 * 8 * 8, 3)], (3, 8, 8), 3, rng)
        net.trained = True
        with pytest.raises(pk.pruner.PruneError, match="no prunable"):
            prune_model(net, small_cfg(), tiny_dataset)

    def test_report_is_populated(self, trained_tiny, tiny_dataset, tmp_path):
        _, report = prune_model(trained_tiny, small_cfg(), tiny_dataset)
        assert report.stats.params_after < report.stats.params_before
        assert report.stats.param_ratio > 1.0
        assert set(report.loss_curves) == {0, 2}
        report.write_loss_curves(tmp_path)
        assert (tmp_path / "layer_0_losses.csv").exists()
        header = (tmp_path / "layer_0_losses.csv").read_text().splitlines()[0]
        assert header == "epoch,l_r,l_s,l_c,total"

    def test_every_config_field_is_recorded(self, trained_tiny, tiny_dataset):
        cfg = small_cfg(rate=0.4, weights=LossWeights(0.25, 0.75), eta=0.02,
                        finetune_epochs=1, enabled_losses="sr", seed=2)
        _, report = prune_model(trained_tiny, cfg, tiny_dataset)
        assert report.config == {"rate": 0.4, "alpha": 0.25, "beta": 0.75, "eta": 0.02,
                                 "selection_batches": 2, "refit_epochs": 1,
                                 "finetune_epochs": 1, "losses": "rs", "seed": 2,
                                 "batch_size": 16}
        # a new PruneConfig field is recorded under its own name
        assert ({f.name for f in fields(PruneConfig)} - {"weights", "enabled_losses"}
                == set(report.config) - {"alpha", "beta", "losses"})

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            PruneConfig(rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            PruneConfig(rate=0.0)

    def test_loss_set_coerced_to_frozenset(self, trained_tiny, tiny_dataset):
        # a str once passed and then failed in prune_model on str & set
        cfg = small_cfg(enabled_losses="rc")
        assert cfg.enabled_losses == frozenset("rc")
        assert (prune_model(trained_tiny, cfg, tiny_dataset)[1].to_json()
                == prune_model(trained_tiny, small_cfg(enabled_losses=frozenset("rc")),
                               tiny_dataset)[1].to_json())

    @pytest.mark.parametrize("losses,match", [(frozenset(), "at least one"),
                                              ({"x"}, "unknown loss keys"),
                                              ("r,s", "unknown loss keys")])
    def test_bad_loss_set_rejected(self, losses, match):
        with pytest.raises(ValueError, match=match):
            PruneConfig(rate=0.5, enabled_losses=losses)

    @pytest.mark.parametrize("losses,alpha,beta,named", [
        ("s", 0.0, 1.0, "losses s, alpha 0.0, beta 1.0"),
        ("c", 0.001, 0.0, "losses c, alpha 0.001, beta 0.0"),
        ("sc", 0.0, 0.0, "losses s,c, alpha 0.0, beta 0.0")])
    def test_all_zero_weight_loss_set_rejected(self, losses, alpha, beta, named):
        # each once gave all-zero sensitivities, so every layer kept channels 0..K-1
        with pytest.raises(ValueError, match=f"every enabled loss term has zero weight: {named}$"):
            PruneConfig(rate=0.5, enabled_losses=losses, weights=LossWeights(alpha, beta))

    @pytest.mark.parametrize("losses,alpha,beta", [("r", 0.0, 0.0), ("rs", 0.0, 1.0),
                                                   ("sc", 0.0, 1.0), ("sc", 0.5, 0.0)])
    def test_a_weighted_term_is_enough(self, losses, alpha, beta):
        cfg = PruneConfig(rate=0.5, enabled_losses=losses, weights=LossWeights(alpha, beta))
        assert cfg.enabled_losses == frozenset(losses)

    def test_overflowing_refit_is_divergence(self, trained_tiny, tiny_dataset):
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="not finite"):
            prune_model(trained_tiny, small_cfg(eta=1e3), tiny_dataset)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_validation(self, batch_size):
        # 0 once failed in range(), -3 in np.concatenate, both deep in the sweep
        with pytest.raises(ValueError, match="batch_size"):
            PruneConfig(rate=0.5, batch_size=batch_size)


class TestFirstConvLayerScore:
    """When the sweep scores its first conv layer, the pruned net is still
    the baseline, so r and s score nothing there; the same holds at a later
    conv layer behind a baseline prefix (see ``TestShrunkSweep``)."""

    def test_r_scores_exact_zeros_and_keeps_the_first_channels(self):
        # the cached baseline map and the batch's map once came from GEMMs that
        # rounded apart, and r's noise kept channels [1, 3]
        specs = [conv(3, 4), relu_layer(), conv(4, 6), relu_layer(), maxpool(),
                 flatten_layer(), dense_layer(6 * 3 * 3, 3)]
        ds = pk.synth_dataset(3, 10, image_size=6, seed=0, test_per_class=4)
        net = Network.initialize(specs, ds.image_shape, 3, np.random.default_rng(7))
        train_baseline(net, ds, 3, eta=0.02, seed=7)
        _, report = prune_model(net, small_cfg(batch_size=5, enabled_losses="r"), ds)
        assert not report.selections[0].sensitivities.any()
        assert report.selections[0].retained == [0, 1]

    @pytest.mark.parametrize("losses,beta", [("r", 1.0), ("s", 1.0), ("rs", 1.0),
                                             ("sc", 0.0), ("rsc", 0.0)])
    def test_without_weighted_c_scores_zeros_from_the_same_draws(
            self, trained_tiny, tiny_dataset, losses, beta):
        cfg = small_cfg(enabled_losses=losses, weights=LossWeights(0.5, beta))
        acts = frozen_activations(trained_tiny, trained_tiny, 0, cfg, tiny_dataset)
        rngs = [np.random.default_rng(0), np.random.default_rng(0)]
        delta = pruner._score_on_baseline_prefix(trained_tiny.copy(), 0, cfg, acts, rngs[0])
        score_layer(trained_tiny.copy(), 0, cfg, acts, rngs[1])
        np.testing.assert_array_equal(delta, np.zeros(4))
        assert rngs[0].random() == rngs[1].random()


class TestModelMustFitData:
    """A model that does not take the dataset's images or does not output
    logits of its classes raises ``DataError`` at every library entry, before
    any forward pass."""

    @pytest.fixture
    def no_forward(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("forward pass before the fit check")
        monkeypatch.setattr(pruner, "forward_chunks", fail)
        for module in (pruner, pk.metrics):
            monkeypatch.setattr(module, "forward", fail)

    @staticmethod
    def _net(specs, classes, trained=True):
        net = Network.initialize(specs, (3, 8, 8), classes, np.random.default_rng(0))
        net.trained = trained
        return net

    @pytest.mark.parametrize("specs", [[conv(3, 4)], [conv(3, 4), relu_layer()]])
    def test_headless_chain(self, tiny_dataset, no_forward, specs):
        # conv-only once failed with "start layer 1 out of range", conv + relu
        # with "logits must be 2-d", both in the sweep
        with pytest.raises(DataError, match=r"outputs \(4, 8, 8\)"):
            prune_model(self._net(specs, 3), small_cfg(), tiny_dataset)

    def test_more_classes_than_the_data(self, tiny_dataset, no_forward):
        # once gave a plausible report and error rate
        from tests.conftest import tiny_specs
        net = self._net(tiny_specs(4), 4)
        with pytest.raises(DataError, match="4 classes and outputs .* 3 classes"):
            prune_model(net, small_cfg(), tiny_dataset)
        with pytest.raises(DataError, match="4 classes and outputs .* 3 classes"):
            pk.evaluate(net, tiny_dataset)

    def test_fewer_classes_than_the_data(self, no_forward):
        # evaluate once returned a plausible error, fine_tune failed with
        # "label out of range"
        from tests.conftest import tiny_specs
        four = pk.synth_dataset(4, 10, image_size=8, seed=0)
        net = self._net(tiny_specs(3), 3, trained=False)
        before = {(i, n): t.data.tobytes() for i, n, t in net.parameters()}
        for call in (lambda: pk.evaluate(net, four), lambda: fine_tune(net, four, 1),
                     lambda: train_baseline(net, four, 1)):
            with pytest.raises(DataError, match="3 classes and outputs .* 4 classes"):
                call()
        assert {(i, n): t.data.tobytes() for i, n, t in net.parameters()} == before
        assert not net.trained


LOSS_SETS = ["r", "s", "c", "rs", "rc", "sc", "rsc"]


class TestReportTrainErrors:
    """The report's train errors come from the frozen activations after the
    sweep, its final errors from the masked ones or the fine-tuning log, and
    all must equal full-depth ``evaluate`` passes."""

    @pytest.mark.parametrize("losses", LOSS_SETS)
    def test_equal_full_evaluate(self, trained_tiny, tiny_dataset, losses):
        final, report = prune_model(
            trained_tiny, small_cfg(enabled_losses=frozenset(losses)), tiny_dataset)
        assert report.baseline_train_error == pk.evaluate(trained_tiny, tiny_dataset, "train")
        assert report.baseline_test_error == pk.evaluate(trained_tiny, tiny_dataset, "test")
        for split in ("train", "test"):
            final_err = getattr(report, f"final_{split}_error")
            assert final_err == getattr(report, f"masked_{split}_error")
            assert final_err == pk.evaluate(final, tiny_dataset, split)

    @pytest.mark.parametrize("losses", LOSS_SETS)
    def test_fine_tuned_final_equals_evaluate(self, trained_tiny, tiny_dataset, losses):
        final, report = prune_model(
            trained_tiny, small_cfg(enabled_losses=frozenset(losses), finetune_epochs=1),
            tiny_dataset)
        for split in ("train", "test"):
            assert getattr(report, f"final_{split}_error") == pk.evaluate(final, tiny_dataset, split)

    def test_nan_dense_weight_raises(self, trained_tiny, tiny_dataset):
        # under r the sweep never runs the dense head, so the cached train-error
        # passes meet the NaN first and must keep evaluate's non-finite check
        net = trained_tiny.copy()
        net.params[6]["w"].data[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="non-finite logits"):
            prune_model(net, small_cfg(enabled_losses=frozenset("r")), tiny_dataset)

    @staticmethod
    def _count_evaluates(monkeypatch) -> list:
        seen = []
        monkeypatch.setattr(pruner, "evaluate",
                            lambda net, ds, split, **kw: seen.append(split)
                            or pk.evaluate(net, ds, split, **kw))
        return seen

    @pytest.mark.parametrize("losses,calls", [("r", 2), ("s", 2), ("rsc", 2), ("c", 3)])
    def test_evaluate_calls(self, trained_tiny, tiny_dataset, monkeypatch, losses, calls):
        # masked test and baseline test; the baseline train error needs its own
        # pass only when no baseline map is kept, and without fine-tuning the
        # final errors are the masked ones
        seen = self._count_evaluates(monkeypatch)
        prune_model(trained_tiny, small_cfg(enabled_losses=frozenset(losses)), tiny_dataset)
        assert len(seen) == calls

    def test_ablation_evaluates_baseline_once(self, trained_tiny, tiny_dataset, monkeypatch):
        # one masked test pass per row plus one baseline test pass; the first
        # row (r) keeps a baseline map, so the baseline train error needs none
        seen = self._count_evaluates(monkeypatch)
        cfgs = [small_cfg(enabled_losses=combo) for combo in pk.metrics.ABLATION_COMBOS]
        assert len(list(pruner.prune_runs(trained_tiny, cfgs, tiny_dataset))) == 7
        assert len(seen) == 8

    def test_runs_share_baseline_errors(self, trained_tiny, tiny_dataset):
        # c first: the baseline train error comes from evaluate, and the later
        # runs reuse both baseline errors
        cfgs = [small_cfg(enabled_losses=frozenset(k)) for k in ("c", "r", "sc")]
        reports = [report for _, report in pruner.prune_runs(trained_tiny, cfgs, tiny_dataset)]
        for cfg, report in zip(cfgs, reports):
            assert report.baseline_train_error == pk.evaluate(trained_tiny, tiny_dataset, "train")
            assert report.baseline_test_error == pk.evaluate(trained_tiny, tiny_dataset, "test")
            assert report.to_json() == prune_model(trained_tiny, cfg, tiny_dataset)[1].to_json()


def _reference_prune(net_base, cfg, dataset):
    """``prune_model`` from the paper's steps alone, sharing none of the
    sweep's score, refit or activation cache. Every batch runs a taped forward
    from its normalized train images with every parameter trainable, and the
    baseline's map comes from the same images; batches are drawn as the sweep
    draws them, ``shrink_layer`` follows each selection, and layer l's refit is
    plain SGD. Every error is an ``evaluate``. Returns the final net and what
    the report would hold."""
    rng = np.random.default_rng(cfg.seed)
    on = cfg.enabled_losses
    pruned, sels, curves = net_base.copy(), {}, {}

    def backward_joint(layer, xb, yb, retained):
        """The joint loss at layer ``layer`` on one batch, built in
        ``_layer_backward``'s order and differentiated into every parameter."""
        tape = Tape()
        f_pruned = forward(pruned, xb, tape=tape, upto_layer=layer)
        if "c" in on:
            logits = forward(pruned, f_pruned, tape=tape, start=layer + 1)
        f_base = forward(net_base, xb, upto_layer=layer)
        f_cmp = (f_pruned if retained is None
                 else scatter_channels(f_pruned, retained, f_base.shape[1], tape))
        total, bd = joint_loss(reconstruction_loss(f_base, f_cmp, tape) if "r" in on else None,
                               correlation_loss(f_base, f_cmp, tape) if "s" in on else None,
                               softmax_cross_entropy(logits, yb, tape) if "c" in on else None,
                               cfg.weights, on, tape)
        backward(total, tape)
        return bd

    def zero_grads():
        for _, _, t in pruned.parameters():
            t.zero_grad()

    for layer in net_base.conv_layers():
        for _ in range(cfg.selection_batches):
            backward_joint(layer, *dataset.sample_batch("train", cfg.batch_size, rng), None)
        w = pruned.params[layer]["w"]
        delta = channel_sensitivity(w, w.grad / cfg.selection_batches)
        zero_grads()
        channels = net_base.specs[layer].out_channels
        sels[layer] = select_channels(delta, budget_for(channels, cfg.rate))
        pruned = shrink_layer(pruned, ChannelMask(
            layer, np.isin(np.arange(channels), sels[layer].retained)))
        curves[layer] = []
        for _ in range(cfg.refit_epochs):
            sums = np.zeros(4)
            for batches, (xb, yb) in enumerate(
                    dataset.iter_batches("train", cfg.batch_size, rng), 1):
                bd = backward_joint(layer, xb, yb, sels[layer].retained)
                for t in pruned.params[layer].values():
                    t.data -= cfg.eta * t.grad
                zero_grads()
                sums += (bd.l_r, bd.l_s, bd.l_c, bd.total)
            curves[layer].append(LossBreakdown(*map(float, sums / batches)))
            total, first = curves[layer][-1].total, curves[layer][0].total
            if not math.isfinite(total) or total > pruner.DIVERGENCE_FACTOR * max(first, 1e-12):
                raise DivergenceError(f"reference refit of layer {layer} diverged")
    errors = {stage: [pk.evaluate(net, dataset, split) for split in ("train", "test")]
              for stage, net in (("baseline", net_base), ("masked", pruned))}
    errors["final"] = errors["masked"]
    if cfg.finetune_epochs:
        log = fine_tune(pruned, dataset, cfg.finetune_epochs, batch_size=cfg.batch_size,
                        seed=cfg.seed)
        errors["final"] = [log[-1]["train_error"], log[-1]["test_error"]]
    return pruned, sels, curves, errors


# the sweep's cached activations come from other row blocks than the
# reference's batches, so on some chains its GEMMs round differently in the
# last bits
SWEEP_RTOL, SWEEP_ATOL = 1e-9, 1e-12


def _assert_equals_reference(net_base, cfg, dataset, rtol=0.0, atol=0.0):
    """``prune_model`` and ``_reference_prune`` keep the same channels and
    give the same errors, and their floats agree within ``rtol``/``atol``;
    one raising ``DivergenceError`` means the other raises it too. Returns
    both final nets, or None on divergence."""
    try:
        final, report = prune_model(net_base, cfg, dataset)
    except DivergenceError:
        with pytest.raises(DivergenceError):
            _reference_prune(net_base, cfg, dataset)
        return None
    ref, sels, curves, errors = _reference_prune(net_base, cfg, dataset)
    assert {l: sel.retained for l, sel in report.selections.items()} == {
        l: sel.retained for l, sel in sels.items()}
    assert {stage: [getattr(report, f"{stage}_{split}_error") for split in ("train", "test")]
            for stage in errors} == errors
    assert report.loss_curves.keys() == curves.keys()
    for l, sel in sels.items():
        np.testing.assert_allclose(report.selections[l].sensitivities, sel.sensitivities,
                                   rtol=rtol, atol=atol, err_msg=f"layer {l} sensitivities")
        np.testing.assert_allclose(
            [[bd.l_r, bd.l_s, bd.l_c, bd.total] for bd in report.loss_curves[l]],
            [[bd.l_r, bd.l_s, bd.l_c, bd.total] for bd in curves[l]],
            rtol=rtol, atol=atol, err_msg=f"layer {l} loss curve")
    assert final.specs == ref.specs
    for (i, name, got), (_, _, want) in zip(final.parameters(), ref.parameters()):
        np.testing.assert_allclose(got.data, want.data, rtol=rtol, atol=atol,
                                   err_msg=f"layer {i} {name}")
    return final, ref


@st.composite
def _random_chains(draw):
    """A random chain, its data and a prune config: 1-3 convs (kernel 1-3,
    stride 1-2, pad 0-1), each maybe followed by relu and a 2x2 maxpool, then
    1-2 dense layers; the batch size does not divide the train split's size."""
    size, classes = draw(st.integers(4, 10)), draw(st.integers(2, 3))
    specs, shape = [], (3, size, size)

    def stride(span):  # windows must tile the input exactly
        return draw(st.sampled_from([s for s in (1, 2) if span % s == 0]))

    for _ in range(draw(st.integers(1, 3))):
        pad = draw(st.integers(0, 1))
        kernel = draw(st.integers(1, min(3, shape[1] + 2 * pad)))
        specs.append(conv(shape[0], draw(st.integers(2, 8)), kernel,
                          stride(shape[1] + 2 * pad - kernel), pad))
        if draw(st.booleans()):
            specs.append(relu_layer())
        shape = Network(specs, (3, size, size), classes).layer_shapes()[-1]
        if shape[1] >= 2 and draw(st.booleans()):
            specs.append(maxpool(2, stride(shape[1] - 2)))
            shape = Network(specs, (3, size, size), classes).layer_shapes()[-1]
    specs.append(flatten_layer())
    features = math.prod(shape)
    if draw(st.booleans()):
        hidden = draw(st.integers(2, 6))
        specs += [dense_layer(features, hidden), relu_layer()]
        features = hidden
    specs.append(dense_layer(features, classes))
    per_class = draw(st.integers(3, 6))
    n = classes * per_class
    dataset = pk.synth_dataset(classes, per_class, image_size=size, seed=0, test_per_class=2)
    cfg = PruneConfig(rate=draw(st.floats(0.05, 0.95)),
                      enabled_losses=draw(st.sampled_from(LOSS_SETS)),
                      eta=draw(st.sampled_from([0.01, 0.1, 1.0])),
                      selection_batches=draw(st.integers(1, 2)),
                      refit_epochs=draw(st.integers(1, 2)),
                      finetune_epochs=draw(st.integers(0, 1)),
                      seed=draw(st.integers(0, 3)),
                      batch_size=draw(st.integers(2, n + 2).filter(lambda b: n % b)))
    return specs, dataset, cfg


class TestShrunkSweep:
    @pytest.mark.parametrize("finetune_epochs", [0, 1])
    @pytest.mark.parametrize("losses", LOSS_SETS)
    def test_equals_reference_prune(self, trained_tiny, tiny_dataset, losses, finetune_epochs,
                                    tmp_path):
        cfg = small_cfg(enabled_losses=frozenset(losses), refit_epochs=2,
                        finetune_epochs=finetune_epochs)
        nets = _assert_equals_reference(trained_tiny, cfg, tiny_dataset)
        for name, net in zip(("sweep", "reference"), nets):
            save(net, tmp_path / f"{name}.prnk")
        assert (tmp_path / "sweep.prnk").read_bytes() == (tmp_path / "reference.prnk").read_bytes()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(chain=_random_chains())
    def test_random_chain_equals_reference_prune(self, chain):
        # without the baseline-prefix rule at the first conv layer, the sweep
        # kept other channels than this reference on 6 of these chains, all
        # under s alone
        specs, dataset, cfg = chain
        net = Network.initialize(specs, dataset.image_shape, dataset.num_classes,
                                 np.random.default_rng(cfg.seed))
        train_baseline(net, dataset, 1, eta=0.02, batch_size=cfg.batch_size, seed=cfg.seed)
        with np.errstate(all="ignore"):  # eta 1.0 overflows on some chains
            _assert_equals_reference(net, cfg, dataset, rtol=SWEEP_RTOL, atol=SWEEP_ATOL)

    def test_later_layer_behind_baseline_prefix_equals_reference_prune(self):
        # layer 0 keeps both channels and its r,s refit leaves it bit-equal, so
        # layer 2's map is still the baseline's; r and s once scored it by
        # rounding noise (<= 1.7e-39) and kept [0, 1, 2, 3, 5]
        specs = [conv(3, 2), relu_layer(), conv(2, 6), relu_layer(), maxpool(),
                 flatten_layer(), dense_layer(54, 3)]
        ds = pk.synth_dataset(3, 10, image_size=6, seed=0)
        net = Network.initialize(specs, ds.image_shape, 3, np.random.default_rng(0))
        train_baseline(net, ds, epochs=3, eta=0.02, seed=0)
        cfg = PruneConfig(rate=0.2, enabled_losses="rs", batch_size=3, selection_batches=2,
                          refit_epochs=1, seed=0)
        final, _ = _assert_equals_reference(net, cfg, ds, rtol=SWEEP_RTOL, atol=SWEEP_ATOL)
        assert final.specs[2].out_channels == 5

    def test_baseline_parameters_unchanged(self, trained_tiny, tiny_dataset):
        before = [(i, n, t.data.tobytes()) for i, n, t in trained_tiny.parameters()]
        cfgs = [small_cfg(finetune_epochs=1), small_cfg(enabled_losses=frozenset("c"))]
        for final, _ in pruner.prune_runs(trained_tiny, cfgs, tiny_dataset):
            assert all(t is not b for (_, _, t), (_, _, b)
                       in zip(final.parameters(), trained_tiny.parameters()))
        assert [(i, n, t.data.tobytes()) for i, n, t in trained_tiny.parameters()] == before


class TestFineTune:
    def test_zero_epochs_leaves_network_unchanged(self, trained_tiny, tiny_dataset):
        net = trained_tiny.copy()
        before = {n: t.data.tobytes() for _, n, t in net.parameters()}
        log = fine_tune(net, tiny_dataset, epochs=0)
        assert log == []
        assert {n: t.data.tobytes() for _, n, t in net.parameters()} == before

    def test_loss_decreases_on_separable_toy(self, tiny_dataset, rng):
        from tests.conftest import tiny_specs
        net = Network.initialize(tiny_specs(), tiny_dataset.image_shape, 3, rng)
        log = fine_tune(net, tiny_dataset, epochs=5, eta=0.02, seed=0)
        assert log[-1]["loss"] < log[0]["loss"]

    def test_nan_loss_raises_instead_of_finishing(self, trained_tiny, tiny_dataset):
        net = trained_tiny.copy()
        net.params[0]["w"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(DivergenceError, match="nan"):
            fine_tune(net, tiny_dataset, epochs=2, seed=0)

    def test_bad_batch_size_rejected_before_training(self, trained_tiny, tiny_dataset):
        net = trained_tiny.copy()
        before = {(i, n): t.data.tobytes() for i, n, t in net.parameters()}
        for batch_size in (0, -3):
            with pytest.raises(ValueError, match="batch_size"):
                fine_tune(net, tiny_dataset, epochs=1, batch_size=batch_size)
        assert {(i, n): t.data.tobytes() for i, n, t in net.parameters()} == before

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_baseline_needs_an_epoch(self, tiny_net, tiny_dataset, epochs):
        # zero epochs once returned an untrained net flagged as trained
        before = {(i, n): t.data.tobytes() for i, n, t in tiny_net.parameters()}
        with pytest.raises(ValueError, match="epoch"):
            train_baseline(tiny_net, tiny_dataset, epochs=epochs)
        assert not tiny_net.trained
        assert {(i, n): t.data.tobytes() for i, n, t in tiny_net.parameters()} == before

    def test_nan_baseline_is_never_flagged_trained(self, tiny_net, tiny_dataset):
        tiny_net.params[0]["w"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(DivergenceError):
            train_baseline(tiny_net, tiny_dataset, epochs=2, seed=0)
        assert not tiny_net.trained

    def test_eta_schedule_variants(self, trained_tiny, tiny_dataset):
        # the rate is one float for every epoch; its default is 0.01
        net = trained_tiny.copy()
        log = fine_tune(net, tiny_dataset, epochs=2, eta=0.001, seed=0)
        assert [e["eta"] for e in log] == [0.001, 0.001]
        log = fine_tune(net, tiny_dataset, epochs=1, seed=0)
        assert log[0]["eta"] == 0.01


def _masked_at_zero(net):
    return apply_mask(net.copy(), ChannelMask(0, np.array([True, False, True, True])))


def _flags(net):
    return [t.requires_grad for _, _, t in net.parameters()]


class TestLayerLocalGradients:
    @pytest.mark.parametrize("losses", ["rsc", "rc", "s", "c"])
    @pytest.mark.parametrize("layer", [0, 2])
    def test_score_gradient_equals_all_trainable_gradient(
            self, trained_tiny, tiny_dataset, monkeypatch, losses, layer):
        """The layer's gradient is bit-identical to one taken through the full
        graph: all three terms built, every parameter trainable."""
        cfg = small_cfg(enabled_losses=frozenset(losses), selection_batches=3)
        pruned = _masked_at_zero(trained_tiny)
        seen = []
        monkeypatch.setattr(pruner, "channel_sensitivity",
                            lambda w, g: seen.append(g.copy()) or channel_sensitivity(w, g))
        acts = frozen_activations(trained_tiny, pruned, layer, cfg, tiny_dataset)
        score_layer(pruned, layer, cfg, acts, np.random.default_rng(4))

        ref = _masked_at_zero(trained_tiny)
        assert all(_flags(ref))
        rng = np.random.default_rng(4)
        for _ in range(cfg.selection_batches):
            xb, yb = tiny_dataset.sample_batch("train", cfg.batch_size, rng)
            tape = Tape()
            f_base = forward(trained_tiny, xb, upto_layer=layer)
            f_pruned = forward(ref, xb, tape=tape, upto_layer=layer)
            logits = forward(ref, f_pruned, tape=tape, start=layer + 1)
            total, _ = joint_loss(reconstruction_loss(f_base, f_pruned, tape),
                                  correlation_loss(f_base, f_pruned, tape),
                                  softmax_cross_entropy(logits, yb, tape),
                                  cfg.weights, cfg.enabled_losses, tape)
            backward(total, tape)
        expect = ref.params[layer]["w"].grad / cfg.selection_batches
        assert len(seen) == 1 and np.array_equal(seen[0], expect)

    @pytest.mark.parametrize("losses", ["rsc", "r"])
    def test_refit_equals_full_graph_sgd(self, trained_tiny, tiny_dataset, losses):
        """Refit at a deeper layer from the cached activations takes the same
        steps as SGD through the full graph on ``Dataset.iter_batches`` batches."""
        cfg = small_cfg(enabled_losses=frozenset(losses), refit_epochs=2)
        keep = ChannelMask(2, np.array([True, False, True, True, False, True]))
        pruned = apply_mask(_masked_at_zero(trained_tiny), keep)
        acts = frozen_activations(trained_tiny, pruned, 2, cfg, tiny_dataset)
        refit_layer(pruned, 2, cfg, acts, np.random.default_rng(4))

        ref = apply_mask(_masked_at_zero(trained_tiny), keep)
        rng = np.random.default_rng(4)
        for _ in range(cfg.refit_epochs):
            for xb, yb in tiny_dataset.iter_batches("train", cfg.batch_size, rng=rng):
                tape = Tape()
                f_base = forward(trained_tiny, xb, upto_layer=2)
                f_pruned = forward(ref, xb, tape=tape, upto_layer=2)
                logits = forward(ref, f_pruned, tape=tape, start=3)
                total, _ = joint_loss(reconstruction_loss(f_base, f_pruned, tape),
                                      correlation_loss(f_base, f_pruned, tape),
                                      softmax_cross_entropy(logits, yb, tape),
                                      cfg.weights, cfg.enabled_losses, tape)
                backward(total, tape)
                for t in ref.params[2].values():
                    t.data -= cfg.eta * t.grad
                for _, _, t in ref.parameters():
                    t.zero_grad()
        for name in ("w", "b"):
            assert np.array_equal(pruned.params[2][name].data, ref.params[2][name].data)

    def test_flags_restored_after_return(self, trained_tiny, tiny_dataset):
        pruned = _masked_at_zero(trained_tiny)
        pruned.params[6]["b"].requires_grad = False
        before = _flags(pruned)
        acts = frozen_activations(trained_tiny, pruned, 0, small_cfg(), tiny_dataset)
        score_layer(pruned, 0, small_cfg(), acts, np.random.default_rng(0))
        assert _flags(pruned) == before
        refit_layer(pruned, 0, small_cfg(), acts, np.random.default_rng(0))
        assert _flags(pruned) == before
        assert all(t.grad is None for _, _, t in pruned.parameters())

    def test_flags_restored_after_divergence(self, trained_tiny, tiny_dataset, monkeypatch):
        monkeypatch.setattr(pruner, "DIVERGENCE_FACTOR", 0.01)
        cfg = small_cfg(eta=0.5, refit_epochs=5)
        pruned = apply_mask(trained_tiny.copy(),
                            ChannelMask(0, np.array([True, False, False, False])))
        pruned.params[2]["w"].requires_grad = False
        before = _flags(pruned)
        acts = frozen_activations(trained_tiny, pruned, 0, cfg, tiny_dataset)
        with pytest.raises(DivergenceError):
            refit_layer(pruned, 0, cfg, acts, np.random.default_rng(0))
        assert _flags(pruned) == before


def _forbid(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} was called for a disabled loss term")
    return call


class TestDisabledLossTerms:
    def test_correlation_never_built_without_s(self, trained_tiny, tiny_dataset,
                                               monkeypatch, tmp_path):
        monkeypatch.setattr(pruner, "correlation_loss", _forbid("correlation_loss"))
        _, report = prune_model(trained_tiny, small_cfg(enabled_losses=frozenset("rc")),
                                tiny_dataset)
        assert all(bd.l_s == 0.0 for curve in report.loss_curves.values() for bd in curve)
        report.write_loss_curves(tmp_path)
        rows = (tmp_path / "layer_0_losses.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[2] == "0.0" for row in rows)

    def test_classification_and_tail_skipped_without_c(self, trained_tiny, tiny_dataset,
                                                       monkeypatch):
        monkeypatch.setattr(pruner, "softmax_cross_entropy", _forbid("softmax_cross_entropy"))
        calls = []
        monkeypatch.setattr(pruner, "forward",
                            lambda net, x, **kw: calls.append(kw) or forward(net, x, **kw))
        prune_model(trained_tiny, small_cfg(enabled_losses=frozenset("rs")), tiny_dataset)
        assert calls and all(kw.get("upto_layer") is not None for kw in calls)

    def test_baseline_forward_skipped_without_r_or_s(self, trained_tiny, tiny_dataset,
                                                     monkeypatch):
        monkeypatch.setattr(pruner, "reconstruction_loss", _forbid("reconstruction_loss"))
        monkeypatch.setattr(pruner, "correlation_loss", _forbid("correlation_loss"))
        nets = []
        monkeypatch.setattr(pruner, "forward",
                            lambda net, x, **kw: nets.append(net) or forward(net, x, **kw))
        prune_model(trained_tiny, small_cfg(enabled_losses=frozenset("c")), tiny_dataset)
        assert nets and all(net is not trained_tiny for net in nets)

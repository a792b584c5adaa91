import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import prunekit as pk
from prunekit import metrics
from prunekit.data import DataError
from prunekit.metrics import (ABLATION_COMBOS, CompressionStats, count_flops,
                              count_params, error_rate, evaluate, format_table,
                              loss_combo_label)
from prunekit.network import (ChannelMask, Network, conv, dense_layer,
                              flatten_layer, forward, materialize, maxpool,
                              relu_layer)
from prunekit.tensor import Tensor


class TestCountParams:
    def test_conv_closed_form(self, rng):
        net = Network.initialize([conv(3, 4)], (3, 4, 4), 3, rng)
        assert count_params(net) == 4 * 3 * 3 * 3 + 4  # 112

    def test_half_pruning_halves_conv_weights(self, rng):
        net = Network.initialize([conv(3, 16)], (3, 4, 4), 3, rng)
        keep = np.arange(16) < 8
        pruned = materialize(net, [ChannelMask(0, keep)])
        w_before = net.params[0]["w"].size
        assert pruned.params[0]["w"].size == w_before // 2

    def test_reference_net_matches_per_layer_hand_count(self, rng):
        net = Network.initialize(pk.reference_specs(3, 12, 3), (3, 12, 12), 3, rng)
        convs = [(16, 3), (32, 16), (32, 32), (64, 32)]
        expect = sum(m * c * 9 + m for m, c in convs)
        expect += 64 * 3 * 3 * 3 + 3  # dense head on 3x3 spatial tail
        assert count_params(net) == expect


class TestCountFlops:
    def test_single_1x1_conv(self, rng):
        net = Network.initialize([conv(1, 1, kernel=1, pad=0)], (1, 4, 4), 3, rng)
        assert count_flops(net) == 2 * 16

    def test_halving_channels_halves_two_layers(self, rng):
        specs = [conv(3, 16), relu_layer(), conv(16, 8), relu_layer(),
                 flatten_layer(), dense_layer(8 * 4 * 4, 3)]
        net = Network.initialize(specs, (3, 4, 4), 3, rng)
        keep = np.arange(16) < 8
        pruned = materialize(net, [ChannelMask(0, keep),
                                   ChannelMask(2, np.ones(8, dtype=bool))])
        conv0 = 2 * 16 * 3 * 9 * 16
        conv2 = 2 * 8 * 16 * 9 * 16
        assert count_flops(net) == conv0 + conv2 + 2 * 8 * 16 * 3
        assert count_flops(pruned) == conv0 // 2 + conv2 // 2 + 2 * 8 * 16 * 3

    def test_half_per_layer_pruning_compounds_near_4x(self, rng):
        # middle conv layers lose both M and C: closed-form 4x
        net = Network.initialize(pk.reference_specs(3, 12, 3), (3, 12, 12), 3, rng)
        masks = [ChannelMask(l, np.arange(net.specs[l].out_channels)
                             < net.specs[l].out_channels // 2)
                 for l in net.conv_layers()]
        pruned = materialize(net, masks)
        shapes = net.layer_shapes()
        for l in net.conv_layers()[1:]:
            s, sp = net.specs[l], pruned.specs[l]
            _, ho, wo = shapes[l]
            before = 2 * s.out_channels * s.in_channels * s.kernel ** 2 * ho * wo
            after = 2 * sp.out_channels * sp.in_channels * sp.kernel ** 2 * ho * wo
            assert before == 4 * after

    def test_stats_ratios(self, rng):
        net = Network.initialize([conv(2, 4), relu_layer(), flatten_layer(),
                                  dense_layer(4 * 16, 3)], (2, 4, 4), 3, rng)
        pruned = materialize(net, [ChannelMask(0, np.array([True, False, True, False]))])
        stats = CompressionStats.compare(net, pruned)
        assert stats.param_ratio > 1.0 and stats.flops_ratio > 1.0
        assert stats.params_after <= stats.params_before


class TestEvaluate:
    def test_matches_argmax_loop_oracle(self, trained_tiny, tiny_dataset):
        err = evaluate(trained_tiny, tiny_dataset, "test")
        images, labels = tiny_dataset.normalized("test")
        wrong = 0
        for i in range(len(images)):
            logits = forward(trained_tiny, Tensor(images[i:i + 1])).data[0]
            if int(np.argmax(logits)) != labels[i]:
                wrong += 1
        assert err == wrong / len(images)

    def test_memorizing_model_scores_zero_on_train(self):
        ds = pk.synth_dataset(3, 3, image_size=8, seed=5, test_per_class=1)
        rng = np.random.default_rng(1)
        from tests.conftest import tiny_specs
        net = Network.initialize(tiny_specs(), ds.image_shape, 3, rng)
        pk.train_baseline(net, ds, epochs=60, eta=0.02, batch_size=9, seed=1)
        assert evaluate(net, ds, "train") == 0.0

    def test_constant_predictor_on_uniform_labels(self, rng):
        # predictor stuck on one class over exactly uniform labels: error 1 - 1/C
        ds = pk.synth_dataset(10, 10, image_size=8, seed=2, test_per_class=2)
        net = Network.initialize(
            [flatten_layer(), dense_layer(3 * 64, 10)], (3, 8, 8), 10, rng)
        net.params[1]["w"].data[:] = 0.0
        net.params[1]["b"].data[:] = 0.0
        net.params[1]["b"].data[4] = 10.0
        assert evaluate(net, ds, "test") == pytest.approx(0.9)

    def test_permutation_invariance(self, trained_tiny, tiny_dataset):
        err = evaluate(trained_tiny, tiny_dataset, "test")
        perm = np.random.default_rng(0).permutation(len(tiny_dataset.test_images))
        shuffled = pk.Dataset(tiny_dataset.train_images, tiny_dataset.train_labels,
                              tiny_dataset.test_images[perm],
                              tiny_dataset.test_labels[perm], 3)
        assert evaluate(trained_tiny, shuffled, "test") == err

    def test_empty_split_rejected(self, trained_tiny, tiny_dataset):
        empty = pk.Dataset(tiny_dataset.train_images, tiny_dataset.train_labels,
                           tiny_dataset.test_images[:0], tiny_dataset.test_labels[:0], 3)
        with pytest.raises(DataError, match="empty"):
            evaluate(trained_tiny, empty, "test")

    @pytest.fixture
    def rows_64(self, monkeypatch):
        """Chunks of 64 rows on the tiny net, whose largest per-row array is the
        im2col rows of its 4->6 conv: 4 channels x 3x3 taps x 8x8 positions."""
        monkeypatch.setattr(metrics, "EVAL_CHUNK_BYTES", 64 * 8 * (4 * 9 * 8 * 8))

    @pytest.fixture
    def chunk_rows(self, monkeypatch):
        """The row count of every forward ``evaluate`` runs, in order."""
        rows = []
        monkeypatch.setattr(metrics, "forward",
                            lambda net, x: rows.append(len(x.data)) or forward(net, x))
        return rows

    def test_chunks_equal_one_forward(self, trained_tiny, rows_64, chunk_rows):
        # two full chunks and a remainder give the error of one forward over
        # the whole normalized split
        full = pk.synth_dataset(3, 10, image_size=8, seed=4, test_per_class=50)
        ds = replace(full, test_images=full.test_images[:130],
                     test_labels=full.test_labels[:130])
        images, labels = ds.normalized("test")
        expected = error_rate(forward(trained_tiny, Tensor(images)).data, labels, "test")
        assert evaluate(trained_tiny, ds, "test") == expected
        assert chunk_rows == [64, 64, 2]

    def test_memory_does_not_grow_with_the_split(self, trained_tiny, tiny_dataset, rows_64):
        # evaluate holds one chunk, never a normalized copy of the whole split:
        # one normalized 1 024-row split of 8x8 images is 1.5 MB
        rng = np.random.default_rng(5)
        sets = [replace(tiny_dataset, test_images=rng.uniform(size=(n, 3, 8, 8)),
                        test_labels=rng.integers(0, 3, n)) for n in (256, 1024)]
        evaluate(trained_tiny, sets[0], "test")
        peaks = []
        tracemalloc.start()
        try:
            for ds in sets:
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                evaluate(trained_tiny, ds, "test")
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 200e3, f"peaks {peaks} bytes"

    def test_reference_net_chunk_rows(self, chunk_rows):
        # at 24x24 the 32->32 conv's im2col rows take 331 776 bytes per image
        ds = pk.synth_dataset(3, 30, image_size=24, seed=1, test_per_class=30)
        net = Network.initialize(pk.reference_specs(3, 24, 3), ds.image_shape, 3,
                                 np.random.default_rng(0))
        evaluate(net, ds, "train")
        assert chunk_rows == [63, 27]

    def test_non_finite_logits_raise(self, trained_tiny, tiny_dataset):
        # argmax over a NaN row picks class 0, which once read as a plausible error
        net = trained_tiny.copy()
        net.params[0]["w"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(pk.DivergenceError, match="non-finite logits"):
            evaluate(net, tiny_dataset, "test")


class TestAblation:
    def test_combo_labels(self):
        assert [loss_combo_label(c) for c in ABLATION_COMBOS] == \
            ["r", "s", "c", "r+s", "r+c", "s+c", "r+s+c"]


def test_format_table_alignment():
    rows = [{"a": "x", "b": 0.5}, {"a": "long-label", "b": 0.25}]
    text = format_table(rows, ["a", "b"])
    lines = text.splitlines()
    assert lines[0].startswith("a")
    assert len({len(l) for l in lines if l.strip()}) <= 2
    assert "long-label" in lines[3]

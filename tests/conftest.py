import numpy as np
import pytest

import prunekit as pk
from prunekit import tensor as T


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def tiny_specs(num_classes=3):
    """4->6 channel two-conv net on 8x8 inputs, small enough for fast tests."""
    return [
        pk.network.conv(3, 4), pk.network.relu_layer(),
        pk.network.conv(4, 6), pk.network.relu_layer(),
        pk.network.maxpool(),
        pk.network.flatten_layer(), pk.network.dense_layer(6 * 4 * 4, num_classes),
    ]


def break_rule(monkeypatch, op, wrong):
    """Replace ``tensor.<op>``, called with its tape last as the suite calls it,
    by one whose backward rule returns ``wrong(gi)`` for each input gradient
    ``gi`` of the original rule."""
    original = getattr(T, op)

    def broken(*args):
        out = original(*args)
        if args[-1] is not None:
            node = args[-1].nodes[-1]
            rule = node.backward_fn
            node.backward_fn = lambda g: tuple(None if gi is None else wrong(gi)
                                               for gi in rule(g))
        return out

    monkeypatch.setattr(T, op, broken)


@pytest.fixture
def tiny_net(rng):
    return pk.Network.initialize(tiny_specs(), (3, 8, 8), 3, rng)


@pytest.fixture(scope="session")
def tiny_dataset():
    return pk.synth_dataset(3, 30, image_size=8, seed=0, test_per_class=10)


@pytest.fixture(scope="session")
def trained_tiny(tiny_dataset):
    rng = np.random.default_rng(7)
    net = pk.Network.initialize(tiny_specs(), tiny_dataset.image_shape, 3, rng)
    pk.train_baseline(net, tiny_dataset, epochs=8, eta=0.02, seed=7)
    return net

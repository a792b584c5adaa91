"""Finite-difference checks for every differentiable operation.

The full 20-seed sweep lives in the acceptance suite; here each case runs a
few seeds so a broken gradient is pinned to its operation quickly.
"""

import numpy as np
import pytest

from prunekit.gradcheck import check_gradients, run_suite, suite_cases
from tests.conftest import break_rule

CASES = sorted(suite_cases().items())


@pytest.mark.parametrize("name,builder", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", range(3))
def test_analytic_matches_central_differences(name, builder, seed):
    build_loss, params = builder(np.random.default_rng(seed))
    worst = check_gradients(build_loss, params)
    assert worst <= 1e-3


def test_network_end_to_end_gradient(trained_tiny, tiny_dataset):
    # gradients through conv/relu/pool/flatten/dense jointly
    from prunekit.network import forward
    from prunekit.tensor import softmax_cross_entropy

    xb, yb = tiny_dataset.sample_batch("train", 4, np.random.default_rng(0))
    params = [trained_tiny.params[0]["w"], trained_tiny.params[2]["w"],
              trained_tiny.params[6]["w"]]

    def build(tape):
        return softmax_cross_entropy(forward(trained_tiny, xb, tape=tape), yb, tape)

    worst = check_gradients(build, params)
    assert worst <= 1e-3
    for p in params:
        p.zero_grad()


def test_numerical_grad_perturbs_a_strided_view_in_place():
    # a Tensor keeps a strided view as it is; central differences must move
    # its own entries, not those of a reshaped copy
    from prunekit.gradcheck import numerical_grad
    from prunekit.tensor import Tensor

    x = Tensor(np.arange(24.0).reshape(4, 6).T)  # [6,4] view, not C-contiguous
    weights = np.random.default_rng(0).standard_normal(x.shape)
    grad = numerical_grad(lambda: float((weights * x.data ** 2).sum()), x)
    np.testing.assert_allclose(grad, 2 * weights * x.data, rtol=1e-8)
    np.testing.assert_array_equal(x.data, np.arange(24.0).reshape(4, 6).T)


@pytest.mark.parametrize("op,wrong,expect", [
    ("relu", lambda gi: 1.5 * gi, pytest.approx(1 / 3, rel=1e-6)),
    ("dense", lambda gi: np.full_like(gi, np.nan), np.inf),
], ids=["relu_too_steep", "dense_nan"])
def test_run_suite_reports_the_error_it_failed_on(monkeypatch, op, wrong, expect):
    # a failing seed once never reached the reported worst, and NaN was dropped
    break_rule(monkeypatch, op, wrong)
    results = {name: (worst, ok) for name, worst, ok in run_suite(n_seeds=1)}
    assert results.pop(op) == (expect, False)
    assert all(ok for _, ok in results.values())

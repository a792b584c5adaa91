import numpy as np
import pytest

from prunekit.losses import correlation_loss, joint_loss, reconstruction_loss
from prunekit.metrics import DivergenceError
from prunekit.pruner import PruneConfig
from prunekit.tensor import ShapeError, Tape, Tensor, backward


class TestReconstructionLoss:
    def test_identical_maps_zero(self, rng):
        f = Tensor(rng.standard_normal((2, 3, 4, 4)))
        assert reconstruction_loss(f, f).item() == 0.0

    def test_closed_form_ones_vs_zeros(self):
        fb = Tensor(np.ones((1, 2, 2)))
        fp = Tensor(np.zeros((1, 2, 2)))
        assert reconstruction_loss(fb, fp).item() == pytest.approx(0.5, abs=1e-12)

    def test_matches_flat_loop_oracle(self, rng):
        fb = rng.standard_normal((2, 3, 4, 5))
        fp = rng.standard_normal((2, 3, 4, 5))
        t = 3 * 4 * 5
        acc = 0.0
        for b in range(2):
            for v1, v2 in zip(fb[b].ravel(), fp[b].ravel()):
                acc += (v1 - v2) ** 2
        expect = acc / (2 * t * 2)
        got = reconstruction_loss(Tensor(fb), Tensor(fp)).item()
        assert got == pytest.approx(expect, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((2, 2, 2))))

    def test_scale_law_quadratic(self, rng):
        fb = rng.standard_normal((3, 4, 4))
        fp = rng.standard_normal((3, 4, 4))
        base = reconstruction_loss(Tensor(fb), Tensor(fp)).item()
        scaled = reconstruction_loss(Tensor(2.5 * fb), Tensor(2.5 * fp)).item()
        assert scaled == pytest.approx(2.5 ** 2 * base, rel=1e-6)


class TestCorrelationLoss:
    def test_identical_maps_zero(self, rng):
        f = Tensor(rng.standard_normal((2, 3, 4, 4)))
        assert correlation_loss(f, f).item() == 0.0

    def test_explicit_gram_oracle_small(self, rng):
        # M=2 channels, N=2 positions (1x2 maps)
        fb = rng.standard_normal((2, 1, 2))
        fp = rng.standard_normal((2, 1, 2))
        b2, p2 = fb.reshape(2, 2), fp.reshape(2, 2)
        gf_b, gf_p = b2 @ b2.T, p2 @ p2.T
        gs_b, gs_p = b2.T @ b2, p2.T @ p2
        expect = (((gf_b - gf_p) ** 2).sum() + ((gs_b - gs_p) ** 2).sum()) / (4 * 4 * 4)
        got = correlation_loss(Tensor(fb), Tensor(fp)).item()
        assert got == pytest.approx(expect, abs=1e-9)

    def test_common_channel_permutation_invariance(self, rng):
        fb = rng.standard_normal((4, 3, 3))
        fp = rng.standard_normal((4, 3, 3))
        perm = np.array([2, 0, 3, 1])
        base = correlation_loss(Tensor(fb), Tensor(fp)).item()
        permuted = correlation_loss(Tensor(fb[perm]), Tensor(fp[perm])).item()
        assert permuted == pytest.approx(base, abs=1e-9)

    def test_common_spatial_permutation_invariance(self, rng):
        fb = rng.standard_normal((2, 3, 2, 2))
        fp = rng.standard_normal((2, 3, 2, 2))
        perm = np.array([3, 1, 0, 2])

        def permute(f):
            flat = f.reshape(2, 3, 4)[:, :, perm]
            return flat.reshape(2, 3, 2, 2)

        base_r = reconstruction_loss(Tensor(fb), Tensor(fp)).item()
        base_s = correlation_loss(Tensor(fb), Tensor(fp)).item()
        assert reconstruction_loss(Tensor(permute(fb)), Tensor(permute(fp))).item() \
            == pytest.approx(base_r, abs=1e-9)
        assert correlation_loss(Tensor(permute(fb)), Tensor(permute(fp))).item() \
            == pytest.approx(base_s, abs=1e-9)

    def test_scale_law_quartic(self, rng):
        fb = rng.standard_normal((3, 4, 4))
        fp = rng.standard_normal((3, 4, 4))
        base = correlation_loss(Tensor(fb), Tensor(fp)).item()
        scaled = correlation_loss(Tensor(1.5 * fb), Tensor(1.5 * fp)).item()
        assert scaled == pytest.approx(1.5 ** 4 * base, rel=1e-6)

    def test_nonnegative(self, rng):
        for _ in range(20):
            fb = Tensor(rng.standard_normal((2, 3, 3)))
            fp = Tensor(rng.standard_normal((2, 3, 3)))
            assert correlation_loss(fb, fp).item() >= 0.0
            assert reconstruction_loss(fb, fp).item() >= 0.0


class TestLayout:
    def test_batch_innermost_view_equals_row_major_copy(self, rng):
        # forward hands back conv maps as strided views; each map loss must give
        # byte-equal values and f_pruned gradients for a view and its row-major copy
        def first_axis_innermost(a):
            return np.ascontiguousarray(np.moveaxis(a, 0, -1)).transpose(-1, *range(a.ndim - 1))

        def run(loss, fb, fp):
            f_pruned = Tensor(fp, requires_grad=True)
            tape = Tape()
            out = loss(Tensor(fb), f_pruned, tape)
            backward(out, tape)
            return [out.data.tobytes(), f_pruned.grad.tobytes()]

        for shape in ((6, 8, 8), (5, 6, 8, 8), (16, 32, 6, 6)):
            fb, fp = rng.standard_normal(shape), rng.standard_normal(shape)
            views = first_axis_innermost(fb), first_axis_innermost(fp)
            assert not views[0].flags.c_contiguous
            for loss in (reconstruction_loss, correlation_loss):
                assert run(loss, *views) == run(loss, fb, fp), (loss.__name__, shape)


class TestBaselineMapIsConstant:
    @pytest.mark.parametrize("loss", [reconstruction_loss, correlation_loss])
    def test_baseline_map_gets_no_gradient(self, rng, loss):
        # f_base is a target, like the labels of softmax_cross_entropy: a
        # requires_grad baseline map once got a gradient that no caller read
        fb, fp = rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 3, 4, 4))
        grads = []
        for base_requires_grad in (False, True):
            f_base = Tensor(fb, requires_grad=base_requires_grad)
            f_pruned = Tensor(fp, requires_grad=True)
            tape = Tape()
            backward(loss(f_base, f_pruned, tape), tape)
            assert f_base.grad is None
            grads.append(f_pruned.grad.tobytes())
        assert grads[0] == grads[1]
        if loss is reconstruction_loss:  # (F' - F) / (T B), the rule's own arithmetic
            assert grads[0] == ((fp - fb) / (3 * 4 * 4 * 2)).tobytes()


class TestClassificationLoss:
    def test_decreases_with_margin(self):
        from prunekit.tensor import softmax_cross_entropy
        labels = np.array([0, 1])
        prev = np.inf
        for margin in (1.0, 5.0, 20.0):
            logits = Tensor(np.array([[margin, 0.0], [0.0, margin]]))
            loss = softmax_cross_entropy(logits, labels).item()
            assert loss < prev
            prev = loss
        assert prev < 1e-8

    def test_matches_log_sum_exp_oracle(self, rng):
        from prunekit.tensor import softmax_cross_entropy
        logits = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, size=6)
        expect = 0.0
        for i in range(6):
            expect += np.log(np.exp(logits[i]).sum()) - logits[i, labels[i]]
        expect /= 6
        got = softmax_cross_entropy(Tensor(logits), labels).item()
        assert got == pytest.approx(expect, abs=1e-9)


class TestJointLoss:
    def test_alpha_beta_zero_reduces_to_reconstruction(self):
        _, bd = joint_loss(Tensor(0.7), Tensor(3.0), Tensor(1.5), 0.0, 0.0)
        assert bd.total == pytest.approx(0.7, abs=1e-12)

    def test_reference_default_weights_arithmetic(self):
        _, bd = joint_loss(Tensor(0.2), Tensor(3.0), Tensor(1.5), 0.001, 1.0)
        assert bd.total == pytest.approx(1.703, abs=1e-12)

    def test_single_term_ablation_rows(self):
        _, bd = joint_loss(Tensor(0.2), Tensor(3.0), Tensor(1.5), 0.001, 1.0, frozenset("c"))
        assert bd.total == pytest.approx(1.5, abs=1e-12)
        _, bd = joint_loss(Tensor(0.2), Tensor(3.0), Tensor(1.5), 0.001, 1.0, frozenset("s"))
        assert bd.total == pytest.approx(0.003, abs=1e-12)

    def test_linear_in_each_term(self, rng):
        w = 0.4, 2.0
        vals = rng.random(3)
        _, bd = joint_loss(Tensor(vals[0]), Tensor(vals[1]), Tensor(vals[2]), *w)
        assert bd.total == pytest.approx(vals[0] + 0.4 * vals[1] + 2.0 * vals[2], abs=1e-9)
        _, bumped = joint_loss(Tensor(vals[0] + 1), Tensor(vals[1]), Tensor(vals[2]), *w)
        assert bumped.total - bd.total == pytest.approx(1.0, abs=1e-9)

    def test_breakdown_invariant(self, rng):
        alpha, beta = 0.013, 0.7
        _, bd = joint_loss(Tensor(0.3), Tensor(1.1), Tensor(2.2), alpha, beta)
        assert bd.total == pytest.approx(bd.l_r + alpha * bd.l_s + beta * bd.l_c, abs=1e-9)

    def test_all_disabled_rejected(self):
        with pytest.raises(ValueError, match="no loss terms"):
            joint_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), 0.001, 1.0, frozenset())

    def test_non_finite_term_is_divergence(self):
        with pytest.raises(DivergenceError, match="l_r is not finite"):
            joint_loss(Tensor(np.inf), None, None, 0.001, 1.0, frozenset("r"))

    def test_negative_weights_rejected(self):
        # the one weight check of joint_loss and PruneConfig; NaN and inf fail it too
        for alpha, beta in ((-0.1, 1.0), (0.001, -1.0), (np.nan, 1.0), (0.001, np.inf)):
            named = f"must be finite and nonnegative, got alpha {alpha}, beta {beta}$"
            with pytest.raises(ValueError, match=named):
                joint_loss(Tensor(0.2), Tensor(3.0), Tensor(1.5), alpha, beta)
            with pytest.raises(ValueError, match=named):
                PruneConfig(rate=0.5, alpha=alpha, beta=beta)

    @pytest.mark.parametrize("alpha,beta", [(0.001, 1.0), (0.0, 0.0), (0.5, 1.5)])
    @pytest.mark.parametrize("losses", ["r", "s", "c", "rs", "rc", "sc", "rsc"])
    def test_one_node_records_the_weighted_sum(self, rng, losses, alpha, beta):
        vals = rng.random(3)
        terms = [Tensor(v, requires_grad=True) for v in vals]
        coefs = dict(zip("rsc", (1.0, alpha, beta)))
        tape = Tape()
        total, bd = joint_loss(*terms, alpha, beta, frozenset(losses), tape)
        assert len(tape.nodes) == 1
        expect = None
        for key, v in zip("rsc", vals):
            if key in losses:
                expect = coefs[key] * v if expect is None else expect + coefs[key] * v
        assert total.item() == bd.total == expect
        backward(total, tape)
        for key, t in zip("rsc", terms):
            assert (t.grad == coefs[key]) if key in losses else t.grad is None, key

    def test_total_is_differentiable(self, rng):
        fb = Tensor(rng.standard_normal((2, 2, 2)))
        fp = Tensor(rng.standard_normal((2, 2, 2)), requires_grad=True)
        tape = Tape()
        total, bd = joint_loss(reconstruction_loss(fb, fp, tape),
                               correlation_loss(fb, fp, tape),
                               None, 0.5, 1.0, frozenset("rs"), tape)
        backward(total, tape)
        assert total.item() == bd.total
        assert fp.grad is not None and np.isfinite(fp.grad).all()

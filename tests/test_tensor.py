from itertools import combinations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from prunekit.losses import (LOSS_KEYS, LossWeights, correlation_loss, grams, joint_loss,
                             reconstruction_loss)
from prunekit.tensor import (ShapeError, Tape, TapeError, Tensor, backward,
                             conv2d, dense, flatten, max_pool2d, relu, scatter_channels,
                             softmax_cross_entropy)


def dot(y, g, tape):
    """The scalar ``sum(y * g)`` for a fixed array ``g``, taped, so backward
    seeds ``y``'s gradient with ``g``."""
    out = Tensor((y.data * g).sum())
    tape.record(out, (y,), lambda s: (s * g,))
    return out


def batch_innermost(a):
    """``a`` [B,...] as a view of a contiguous [...,B] array, as conv2d returns it."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1)).transpose(-1, *range(a.ndim - 1))


LAYOUTS = {"row_major": np.ascontiguousarray, "batch_innermost": batch_innermost}


def naive_conv2d(x, w, stride, pad):
    """Six-nested-loop reference convolution."""
    b, c, h, wd = x.shape
    m, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((b, m, ho, wo))
    for bi in range(b):
        for mi in range(m):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[bi, ci, oi * stride + ki, oj * stride + kj] \
                                    * w[mi, ci, ki, kj]
                    out[bi, mi, oi, oj] = acc
    return out


def naive_conv2d_backward(x, w, g, stride, pad):
    """Loop reference for the gradients of ``sum(g * (conv2d(x, w) + bias))``:
    every output element sends its ``g`` to each input and weight it read."""
    b, c, h, wd = x.shape
    m, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp, gw, gb = np.zeros_like(xp), np.zeros_like(w), np.zeros(m)
    for bi in range(b):
        for mi in range(m):
            for oi in range(g.shape[2]):
                for oj in range(g.shape[3]):
                    go = g[bi, mi, oi, oj]
                    gb[mi] += go
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                hi, wj = oi * stride + ki, oj * stride + kj
                                gxp[bi, ci, hi, wj] += go * w[mi, ci, ki, kj]
                                gw[mi, ci, ki, kj] += go * xp[bi, ci, hi, wj]
    return gxp[:, :, pad:pad + h, pad:pad + wd], gw, gb


def nchw_im2col_conv2d(x, w, b, g, stride, pad):
    """Reference im2col/GEMM kernel in row-major NCHW: ``np.pad``, ``cols``
    columns ordered (image, output row, output column), an NCHW output copy
    and a col2im into [C,B,Hp,Wp]. Returns the output and the gradients of
    ``sum(g * output)``."""
    bsz, cin, h, wd = x.shape
    m, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2:4]
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(cin * kh * kw, -1)
    w2 = w.reshape(m, -1)
    out = (w2 @ cols + b[:, None]).reshape(m, bsz, ho, wo).transpose(1, 0, 2, 3)
    g_mp = g.transpose(1, 0, 2, 3).reshape(m, -1)
    gcols = (w2.T @ g_mp).reshape(cin, kh, kw, bsz, ho, wo)
    gxp = np.zeros((cin, bsz) + xp.shape[2:])
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, i, j]
    gx = gxp[:, :, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3)
    return out, gx, (g_mp @ cols.T).reshape(w.shape), g_mp.sum(axis=1)


def naive_max_pool2d(x, k, stride, g):
    """Loop reference max-pool: forward value and the backward of ``g``, which
    goes to the first window position (row-major) holding the max."""
    b, c, h, wd = x.shape
    ho, wo = (h - k) // stride + 1, (wd - k) // stride + 1
    out = np.zeros((b, c, ho, wo))
    gx = np.zeros_like(x)
    for bi in range(b):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    best = None
                    for ki in range(k):
                        for kj in range(k):
                            v = x[bi, ci, oi * stride + ki, oj * stride + kj]
                            if best is None or v > best[0]:
                                best = (v, oi * stride + ki, oj * stride + kj)
                    out[bi, ci, oi, oj] = best[0]
                    gx[bi, ci, best[1], best[2]] += g[bi, ci, oi, oj]
    return out, gx


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(conv2d(x, w).data, np.ones((1, 1, 3, 3)))

    def test_sum_kernel(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = Tensor(np.ones((1, 1, 2, 2)))
        assert conv2d(x, w).data.reshape(()) == 10.0

    def test_matches_naive_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), stride=1, pad=1).data
        assert got.shape == (2, 4, 8, 8)
        np.testing.assert_allclose(got, naive_conv2d(x, w, 1, 1), atol=1e-6)

    @pytest.mark.parametrize("stride,pad", [(2, 0), (2, 1), (1, 2)])
    def test_matches_oracle_strided(self, rng, stride, pad):
        x = rng.standard_normal((1, 2, 7, 7))
        w = rng.standard_normal((3, 2, 3, 3))
        if (7 + 2 * pad - 3) % stride:
            pytest.skip("shape not representable")
        got = conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
        np.testing.assert_allclose(got, naive_conv2d(x, w, stride, pad), atol=1e-6)

    @pytest.mark.parametrize("stride,pad,x_shape,w_shape", [
        (1, 0, (2, 3, 6, 6), (4, 3, 3, 3)),
        (1, 1, (2, 3, 6, 6), (4, 3, 3, 3)),
        (1, 2, (2, 3, 5, 5), (4, 3, 3, 3)),
        (2, 0, (2, 3, 7, 7), (4, 3, 3, 3)),
        (2, 1, (2, 3, 7, 7), (4, 3, 3, 3)),
        (3, 2, (2, 3, 8, 8), (4, 3, 3, 3)),
        (1, 1, (2, 3, 5, 7), (4, 3, 2, 3)),
        (3, 2, (2, 3, 7, 8), (4, 3, 2, 3)),
    ])
    def test_backward_matches_naive_loop_oracle(self, rng, stride, pad, x_shape, w_shape):
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        bt = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)
        tape = Tape()
        out = conv2d(xt, wt, stride=stride, pad=pad, bias=bt, tape=tape)
        g = rng.standard_normal(out.shape)
        backward(dot(out, g, tape), tape)
        expect_gx, expect_gw, expect_gb = naive_conv2d_backward(x, w, g, stride, pad)
        np.testing.assert_allclose(xt.grad, expect_gx, rtol=0, atol=1e-9)
        np.testing.assert_allclose(wt.grad, expect_gw, rtol=0, atol=1e-9)
        np.testing.assert_allclose(bt.grad, expect_gb, rtol=0, atol=1e-9)

    @staticmethod
    def _against_nchw_kernel(rng, bsz, stride, pad, layout):
        """conv2d and its backward rule, fed ``layout`` input and output
        gradient, next to ``nchw_im2col_conv2d`` on the same values. The
        3x2 kernel runs over the smallest map of at least 6x6 it tiles."""
        h = next(n for n in range(6, 12) if (n + 2 * pad - 3) % stride == 0)
        wd = next(n for n in range(6, 12) if (n + 2 * pad - 2) % stride == 0)
        x, w = rng.standard_normal((bsz, 3, h, wd)), rng.standard_normal((4, 3, 3, 2))
        b = rng.standard_normal(4)
        xt, wt, bt = (Tensor(LAYOUTS[layout](x), requires_grad=True),
                      Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
        tape = Tape()
        out = conv2d(xt, wt, stride=stride, pad=pad, bias=bt, tape=tape)
        g = rng.standard_normal(out.shape)
        got = (out.data, *tape.nodes[0].backward_fn(LAYOUTS[layout](g)))
        return got, nchw_im2col_conv2d(x, w, b, g, stride, pad)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_nchw_kernel(self, rng, stride, pad, layout):
        # each output element is the same dot product, and each input-gradient
        # element gets the same plane adds in the same order, as in the
        # reference, so they are bit-equal; gw and gb sum the columns in
        # another order
        (out, gx, gw, gb), (e_out, e_gx, e_gw, e_gb) = self._against_nchw_kernel(
            rng, 8, stride, pad, layout)
        np.testing.assert_array_equal(out, e_out)
        np.testing.assert_array_equal(gx, e_gx)
        np.testing.assert_allclose(gw, e_gw, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gb, e_gb, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_batch_not_multiple_of_eight_matches_nchw_kernel(self, rng, layout):
        # OpenBLAS computes the GEMM columns past the last multiple of 8 with an
        # edge kernel that may round differently, and the (oh, ow, b) column
        # order puts other outputs there than (b, oh, ow) did: with a batch of 8
        # every column falls in a full block in both orders, with 3 it does not
        (out, gx, gw, gb), (e_out, e_gx, e_gw, e_gb) = self._against_nchw_kernel(
            rng, 3, 2, 0, layout)
        for got, expect in ((out, e_out), (gx, e_gx), (gw, e_gw), (gb, e_gb)):
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)

    def test_channel_mismatch_names_dimensions(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="2 channels.*expects 3"):
            conv2d(x, w)

    def test_non_integral_output_size(self):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        w = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError, match="non-integral"):
            conv2d(x, w, stride=2)


class TestSimpleOps:
    def test_relu_example(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softmax_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = softmax_cross_entropy(logits, np.array([0, 3, 5, 9]))
        assert loss.item() == pytest.approx(np.log(10), abs=1e-12)

    def test_softmax_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_dense_matches_loop_matmul(self, rng):
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 3))
        b = rng.standard_normal(3)
        expect = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                expect[i, j] = b[j]
                for k in range(6):
                    expect[i, j] += x[i, k] * w[k, j]
        got = dense(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_max_pool(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2, 2)
        np.testing.assert_array_equal(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    @pytest.mark.parametrize("k,stride,size", [(2, 2, 6), (3, 1, 5), (3, 2, 7)])
    @pytest.mark.parametrize("values,layout", [
        pytest.param(v, layout, id=v if layout == "row_major" else f"{v}-{layout}")
        for layout in sorted(LAYOUTS) for v in ("random", "constant", "few_levels")])
    def test_max_pool_matches_loop_oracle(self, rng, k, stride, size, values, layout):
        # constant and few-level inputs tie inside windows; k > stride overlaps them
        x = {"random": rng.standard_normal((2, 3, size, size)),
             "constant": np.full((2, 3, size, size), 0.5),
             "few_levels": rng.integers(0, 3, size=(2, 3, size, size)).astype(float)}[values]
        xt = Tensor(LAYOUTS[layout](x), requires_grad=True)
        tape = Tape()
        out = max_pool2d(xt, k, stride, tape)
        g = rng.standard_normal(out.shape)
        expect_out, expect_gx = naive_max_pool2d(x, k, stride, g)
        np.testing.assert_array_equal(out.data, expect_out)
        backward(dot(out, g, tape), tape)
        np.testing.assert_allclose(xt.grad, expect_gx, rtol=0, atol=1e-12)
        # out and gx keep the input's memory order
        (gx,) = tape.nodes[0].backward_fn(g)
        for a in (out.data, gx):
            assert a.transpose(1, 2, 3, 0).flags.c_contiguous == (layout == "batch_innermost")

    def test_pool_window_larger_than_input(self):
        with pytest.raises(ShapeError, match="max_pool2d: non-integral"):
            max_pool2d(Tensor(np.zeros((1, 1, 2, 2))), 3, 1)

    def test_flatten_row_major(self):
        x = Tensor(np.arange(12.0).reshape(1, 3, 2, 2))
        np.testing.assert_array_equal(flatten(x).data, np.arange(12.0).reshape(1, 12))


class TestLayout:
    """conv2d hands back a batch-innermost view; relu and max_pool2d keep it,
    flatten returns row-major data."""

    def test_reshape_and_flatten_of_batch_innermost_are_row_major(self, rng):
        # flatten copies row-major; its backward reshapes back to the input's shape
        x = rng.standard_normal((4, 3, 2, 5))
        xt = Tensor(batch_innermost(x), requires_grad=True)
        tape = Tape()
        out = flatten(xt, tape)
        assert out.data.flags.c_contiguous
        np.testing.assert_array_equal(out.data, x.reshape(4, -1))
        g = rng.standard_normal(out.shape)
        backward(dot(out, g, tape), tape)
        np.testing.assert_array_equal(xt.grad, g.reshape(x.shape))

    def test_conv_relu_pool_conv_chain_matches_naive_oracles(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w1, b1 = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)
        w2, b2 = rng.standard_normal((5, 4, 3, 3)), rng.standard_normal(5)
        ts = [Tensor(a, requires_grad=True) for a in (x, w1, b1, w2, b2)]
        tape = Tape()
        c1 = conv2d(ts[0], ts[1], pad=1, bias=ts[2], tape=tape)
        r1 = relu(c1, tape)
        p1 = max_pool2d(r1, 2, 2, tape)
        out = conv2d(p1, ts[3], pad=1, bias=ts[4], tape=tape)
        for h in (c1, r1, p1, out):  # the chain stays batch-innermost, as views
            assert h.data.strides[0] == 8 and not h.data.flags.c_contiguous, h.data.strides
        g = rng.standard_normal(out.shape)
        backward(dot(out, g, tape), tape)

        e_c1 = naive_conv2d(x, w1, 1, 1) + b1[:, None, None]
        e_r1 = np.maximum(e_c1, 0.0)
        e_p1, _ = naive_max_pool2d(e_r1, 2, 2, np.zeros(p1.shape))
        np.testing.assert_allclose(out.data, naive_conv2d(e_p1, w2, 1, 1) + b2[:, None, None],
                                   atol=1e-6)
        e_gp1, e_gw2, e_gb2 = naive_conv2d_backward(e_p1, w2, g, 1, 1)
        _, e_gr1 = naive_max_pool2d(e_r1, 2, 2, e_gp1)
        e_gx, e_gw1, e_gb1 = naive_conv2d_backward(x, w1, e_gr1 * (e_c1 > 0), 1, 1)
        for t, expect in zip(ts, (e_gx, e_gw1, e_gb1, e_gw2, e_gb2)):
            np.testing.assert_allclose(t.grad, expect, rtol=0, atol=1e-9)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
        tape = Tape()
        backward(dot(flatten(x, tape), np.ones((3, 4)), tape), tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 2, 2)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tape = Tape()
        y = relu(x, tape)
        with pytest.raises(ShapeError, match="scalar"):
            backward(y, tape)

    def test_off_tape_loss_rejected(self):
        tape = Tape()
        with pytest.raises(TapeError, match="not produced"):
            backward(Tensor(1.0), tape)

    def test_grads_accumulate_across_calls(self, rng):
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        g = rng.standard_normal(5)
        tape = Tape()
        loss = dot(x, g, tape)
        backward(loss, tape)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 2 * g)

    def test_shared_input_accumulates_within_graph(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        tape = Tape()
        loss = dense(x, x, Tensor(np.zeros(1)), tape)  # x is input and weights
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [[6.0]])


class TestGram:
    """The batched Grams that correlation_loss compares, on one-example batches."""

    def test_identity_feature(self):
        gf, gs = grams(np.eye(2)[None])
        np.testing.assert_array_equal(gf[0], np.eye(2))
        np.testing.assert_array_equal(gs[0], np.eye(2))

    def test_hand_inner_product_oracle(self):
        gf, gs = grams(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(gf[0], [[5.0, 11.0], [11.0, 25.0]])
        np.testing.assert_array_equal(gs[0], [[10.0, 14.0], [14.0, 20.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_symmetry_and_psd(self, seed):
        r = np.random.default_rng(seed)
        for g in grams(r.standard_normal((1, 4, 9))):
            g = g[0]
            np.testing.assert_array_equal(g, g.T)
            for _ in range(10):
                x = r.standard_normal(g.shape[0])
                assert x @ g @ x >= -1e-9

    def test_traces_equal_squared_frobenius(self, rng):
        f = rng.standard_normal((1, 3, 7))
        sq = (f ** 2).sum()
        gf, gs = grams(f)
        assert np.trace(gf[0]) == pytest.approx(sq, rel=1e-6)
        assert np.trace(gs[0]) == pytest.approx(sq, rel=1e-6)

    def test_scaling_law(self, rng):
        f = rng.standard_normal((1, 3, 5))
        c = 1.7
        for scaled, plain in zip(grams(c * f), grams(f)):
            np.testing.assert_allclose(scaled, c * c * plain, rtol=1e-6)

    def test_rank_check(self):
        with pytest.raises(ShapeError):
            grams(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            grams(np.zeros((1, 2, 2, 2)))


F_BASE = [Tensor(np.random.default_rng(6).standard_normal(s))
          for s in ((2, 3, 4, 4), (2, 3, 3, 3))]
# op name -> (input shapes, op(inputs, tape)); the op's own node comes first
NEED_DRIVEN_CASES = {
    "conv2d_bias": ([(2, 3, 6, 6), (4, 3, 3, 3), (4,)],
                    lambda t, tape: conv2d(t[0], t[1], stride=1, pad=1, bias=t[2], tape=tape)),
    "conv2d_nobias": ([(2, 3, 7, 7), (4, 3, 3, 3)],
                      lambda t, tape: conv2d(t[0], t[1], stride=2, pad=1, tape=tape)),
    "conv2d_stride3_rect": ([(2, 3, 7, 8), (4, 3, 2, 3), (4,)],
                            lambda t, tape: conv2d(t[0], t[1], stride=3, pad=2, bias=t[2],
                                                   tape=tape)),
    "dense": ([(4, 6), (6, 3), (3,)], lambda t, tape: dense(t[0], t[1], t[2], tape)),
    # the map losses differentiate f_pruned only; f_base is a fixed target
    "reconstruction_loss": ([(2, 3, 4, 4)],
                            lambda t, tape: reconstruction_loss(F_BASE[0], t[0], tape)),
    "correlation_loss": ([(2, 3, 3, 3)],
                         lambda t, tape: correlation_loss(F_BASE[1], t[0], tape)),
    "scatter_channels": ([(2, 2, 3, 3)],
                         lambda t, tape: scatter_channels(t[0], [3, 0], 4, tape)),
    "joint_loss": ([(), (), ()],
                   lambda t, tape: joint_loss(*t, LossWeights(0.5, 1.5), LOSS_KEYS, tape)[0]),
}


def _run_need_driven(name, marked):
    """Build the op on fixed inputs, marking only the ``marked`` indices, reduce
    it to a scalar with fixed weights, and run backward."""
    shapes, op = NEED_DRIVEN_CASES[name]
    r = np.random.default_rng(5)
    inputs = [Tensor(r.standard_normal(s), requires_grad=i in marked)
              for i, s in enumerate(shapes)]
    tape = Tape()
    out = op(inputs, tape)
    if out.size != 1:
        out = dot(out, r.standard_normal(out.shape), tape)
    backward(out, tape)
    return inputs, tape


class TestNeedDrivenGradients:
    @pytest.mark.parametrize("name", sorted(NEED_DRIVEN_CASES))
    def test_every_subset_matches_all_marked_run(self, name):
        n = len(NEED_DRIVEN_CASES[name][0])
        full, _ = _run_need_driven(name, set(range(n)))
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                inputs, tape = _run_need_driven(name, set(subset))
                for i, t in enumerate(inputs):
                    if i in subset:
                        assert np.array_equal(t.grad, full[i].grad), (subset, i)
                    else:
                        assert t.grad is None, (subset, i)
                assert all(node.output.grad is None for node in tape.nodes)
                # the rule itself skips the gradients nobody asked for
                op_node = tape.nodes[0]
                got = op_node.backward_fn(np.ones_like(op_node.output.data))
                assert [g is not None for g in got] == [i in subset for i in range(n)]

    def test_output_needs_grad_iff_an_input_does(self):
        tape = Tape()
        frozen = relu(Tensor(np.ones((2, 2))), tape)
        assert not frozen.requires_grad
        live = dense(frozen, Tensor(np.ones((2, 2)), requires_grad=True), Tensor(np.zeros(2)),
                     tape)
        assert live.requires_grad

    def test_nodes_without_needed_output_are_not_replayed(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 5)))
        w = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
        tape = Tape()
        h = relu(x, tape)
        calls = []
        prefix = tape.nodes[0]
        inner = prefix.backward_fn
        prefix.backward_fn = lambda g: calls.append(1) or inner(g)
        out = conv2d(h, w, pad=1, tape=tape)
        backward(dot(out, np.ones(out.shape), tape), tape)
        assert calls == [] and x.grad is None and w.grad is not None


class TestScatterChannels:
    def test_places_channels_and_zeros_the_rest(self, rng):
        x = rng.standard_normal((2, 2, 3, 3))
        out = scatter_channels(Tensor(x), [3, 0], 4).data
        assert out.shape == (2, 4, 3, 3)
        np.testing.assert_array_equal(out[:, [3, 0]], x)
        assert not out[:, [1, 2]].any()

    def test_backward_gathers(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        g = rng.standard_normal((2, 4, 3, 3))
        tape = Tape()
        out = scatter_channels(x, [3, 0], 4, tape)
        backward(dot(out, g, tape), tape)
        np.testing.assert_array_equal(x.grad, g[:, [3, 0]])

    def test_position_count_must_match_channels(self):
        with pytest.raises(ShapeError, match="scatter_channels"):
            scatter_channels(Tensor(np.ones((2, 3, 2, 2))), [0, 1], 4)

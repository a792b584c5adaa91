"""Spans and counters recorded around prunekit's public functions.

``Tracer.install`` replaces every public function of the tensor, network,
losses, pruner, metrics and data modules with a timing wrapper, in every
prunekit namespace that holds a reference to it (``pruner`` calls
``evaluate`` through its own import, ``network`` calls ``T.conv2d`` through
the tensor module, the package re-exports most names). When a wrapped op
appends nodes to a ``Tape``, their backward closures are wrapped too, so the
time ``backward`` spends in each op's rule becomes a child span of the
``tensor.backward`` span. ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent]`` and reduced by
``summary`` after the operation; nothing in prunekit changes.
"""

from __future__ import annotations

import collections
import inspect
import math
import os
import sys
from time import perf_counter

TRACED_MODULES = ("tensor", "network", "losses", "pruner", "metrics", "data")
DATASET_METHODS = ("normalized", "sample_batch", "iter_batches")

# Phases whose outermost spans should cover the whole operation.
COVERING = frozenset({"pruner.score_layer", "pruner.refit_layer", "pruner.fine_tune",
                      "metrics.evaluate", "network.materialize", "network.save",
                      "network.load"})
# Loops that take one SGD step per batch of ``Dataset.iter_batches``.
STEP_LOOPS = frozenset({"pruner.refit_layer", "pruner.fine_tune"})
# Batch fetches whose ``normalized`` call hands out only part of the split.
BATCH_FETCHES = frozenset({"data.sample_batch", "data.batch_wait"})


def _conv_flop(x_shape, w_shape, out_shape) -> int:
    """Multiply and add counted separately: 2 * output elements * C*kh*kw."""
    return 2 * math.prod(out_shape) * x_shape[1] * w_shape[2] * w_shape[3]


class Tracer:
    def __init__(self, prunekit):
        self.pk = prunekit
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.step_s: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def _current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "prunekit" or n.startswith("prunekit.")]
        for short in TRACED_MODULES:
            module = getattr(self.pk, short)
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, name, wrapper)
        dataset = self.pk.data.Dataset
        for attr in DATASET_METHODS:
            fn = vars(dataset)[attr]
            wrapper = (self._wrap_batches(fn) if attr == "iter_batches"
                       else self._wrap(f"data.{attr}", fn))
            self._patch(dataset, attr, wrapper)
        tensor_cls = self.pk.tensor.Tensor
        self._patch(tensor_cls, "accumulate_grad",
                    self._count_accumulate(vars(tensor_cls)["accumulate_grad"]))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        params = list(sig.parameters)
        tape_pos = params.index("tape") if "tape" in params else None
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)
        tracer = self

        def traced(*args, **kwargs):
            tape = None
            if tape_pos is not None:
                tape = args[tape_pos] if len(args) > tape_pos else kwargs.get("tape")
            first_node = len(tape.nodes) if tape is not None else 0
            call = None
            if before is not None or after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                call = bound.arguments
            span_name = name
            if name == "network.forward":
                span_name += ".taped" if tape is not None else ".notape"
            state = before(call) if before is not None else None
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(idx)
            if tape is not None:
                tracer._wrap_nodes(name, tape, first_node)
            if after is not None:
                after(state, call, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_nodes(self, name: str, tape, first: int) -> None:
        """Time the backward rule of each node the op just appended, unless a
        nested traced op already did."""
        for node in tape.nodes[first:]:
            fn = node.backward_fn
            if getattr(fn, "_traced", False):
                continue
            flop = (2 * _conv_flop(node.inputs[0].shape, node.inputs[1].shape,
                                   node.output.shape)
                    if name == "tensor.conv2d" else 0)
            node.backward_fn = self._wrap_backward(name + ".bwd", fn, flop)

    def _wrap_backward(self, name: str, fn, flop: int):
        tracer = self

        def traced_bw(g):
            idx = tracer._open(name)
            try:
                return fn(g)
            finally:
                tracer._close(idx)
                if flop:
                    tracer.counts["tensor.conv2d.flop"] += flop

        traced_bw._traced = True
        return traced_bw

    def _wrap_batches(self, fn):
        """``iter_batches`` is a generator: time each ``next`` as a batch wait,
        and the loop body between two batches as one SGD step."""
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def batches():
                last_yield = None
                while True:
                    now = perf_counter()
                    if last_yield is not None and tracer._current() in STEP_LOOPS:
                        tracer.step_s.append(now - last_yield)
                    idx = tracer._open("data.batch_wait")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counts["data.images_used"] += len(item[1])
                    last_yield = perf_counter()
                    yield item

            return batches()

        traced.__wrapped__ = fn
        return traced

    def _count_accumulate(self, fn):
        tracer = self

        def traced(t, g):
            tracer.counts["grad_elements"] += g.size
            return fn(t, g)

        traced.__wrapped__ = fn
        return traced

    # -- per-function counters -------------------------------------------

    def _after_tensor_conv2d(self, state, call, out, dur) -> None:
        self.counts["tensor.conv2d.flop"] += _conv_flop(call["x"].shape, call["w"].shape,
                                                        out.shape)

    def _after_tensor_backward(self, state, call, out, dur) -> None:
        self.counts["tensor.backward.calls"] += 1
        self.counts["tensor.tape_nodes"] += len(call["tape"].nodes)

    def _after_network_save(self, state, call, out, dur) -> None:
        self.counts["network.file_bytes"] = os.path.getsize(call["path"])

    def _after_losses_correlation_loss(self, state, call, out, dur) -> None:
        shape = call["f_base"].shape
        bsz = shape[0] if len(shape) == 4 else 1
        m, h, w = shape[-3:]
        # two channel Grams [B,M,M] and two spatial Grams [B,N,N] of float64
        self.counts["losses.gram_bytes"] += 8 * bsz * 2 * (m * m + (h * w) ** 2)

    def _after_losses_joint_loss(self, state, call, out, dur) -> None:
        made = [k for k, term in zip("rsc", (call["l_r"], call["l_s"], call["l_c"]))
                if term is not None]
        self.counts["losses.terms"] += len(made)
        self.counts["losses.terms_used"] += sum(1 for k in made if k in call["enabled"])

    def _after_metrics_evaluate(self, state, call, out, dur) -> None:
        images, _ = call["dataset"].split(call["split"])
        self.counts["metrics.evaluate.images"] += len(images)

    def _after_data_normalized(self, state, call, out, dur) -> None:
        n = len(out[0])
        self.counts["data.images_normalized"] += n
        if self._current() not in BATCH_FETCHES:
            self.counts["data.images_used"] += n

    def _after_data_sample_batch(self, state, call, out, dur) -> None:
        self.counts["data.images_used"] += len(out[1])

    def _before_pruner_refit_layer(self, call):
        return self.counts["grad_elements"], self.counts["tensor.backward.calls"]

    def _after_pruner_refit_layer(self, state, call, out, dur) -> None:
        grad0, steps0 = state
        layer = call["layer"]
        kept = int(call["net_pruned"].masks[layer].sum())
        w = call["net_pruned"].params[layer]["w"]
        steps = self.counts["tensor.backward.calls"] - steps0
        # the SGD update reads the kept rows of w.grad and of b.grad
        self.counts["refit.grad_read"] += steps * kept * (w.size // w.shape[0] + 1)
        self.counts["refit.grad_accumulated"] += self.counts["grad_elements"] - grad0
        self.counts[f"pruner.refit_layer.l{layer}_s"] += dur

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Total, self time and calls per span name, plus the covered time."""
        total = collections.Counter()
        child = [0.0] * len(self.spans)
        calls = collections.Counter()
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            if name in COVERING:
                p = parent
                while p >= 0 and self.spans[p][0] not in COVERING:
                    p = self.spans[p][3]
                if p < 0:
                    covered += dur
        self_time = collections.Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        return {"total": total, "self": self_time, "calls": calls, "covered": covered}

    def op_metrics(self, wall_s: float, conv_layers) -> dict:
        """Per-module metrics of one traced operation (see bench/README.md)."""
        summary = self.summary()
        t, own, calls = summary["total"], summary["self"], summary["calls"]
        c = self.counts
        conv_s = t["tensor.conv2d"] + t["tensor.conv2d.bwd"]
        gflop = c["tensor.conv2d.flop"] / 1e9
        m = {
            "tensor.conv2d.fwd_s": t["tensor.conv2d"],
            "tensor.conv2d.bwd_s": t["tensor.conv2d.bwd"],
            "tensor.conv2d.calls": calls["tensor.conv2d"],
            "tensor.conv2d.gflop": gflop,
            "tensor.conv2d.gflop_per_s": _ratio(gflop, conv_s),
            "tensor.max_pool2d.fwd_s": t["tensor.max_pool2d"],
            "tensor.max_pool2d.bwd_s": t["tensor.max_pool2d.bwd"],
            "tensor.relu.s": t["tensor.relu"] + t["tensor.relu.bwd"],
            "tensor.mul.s": t["tensor.mul"] + t["tensor.mul.bwd"],
            "tensor.dense.s": t["tensor.dense"] + t["tensor.dense.bwd"],
            "tensor.backward.s": t["tensor.backward"],
            "tensor.backward.self_s": own["tensor.backward"],
            "tensor.backward.calls": calls["tensor.backward"],
            "tensor.tape_nodes": c["tensor.tape_nodes"],
            "network.forward.taped_s": t["network.forward.taped"],
            "network.forward.notape_s": t["network.forward.notape"],
            "network.forward.self_s": (own["network.forward.taped"]
                                       + own["network.forward.notape"]),
            "network.materialize.s": t["network.materialize"],
            "network.save.s": t["network.save"],
            "network.load.s": t["network.load"],
            "network.file_bytes": c["network.file_bytes"],
            "losses.correlation.s": t["losses.correlation_loss"],
            "losses.correlation.bwd_s": t["losses.correlation_loss.bwd"],
            "losses.reconstruction.s": (t["losses.reconstruction_loss"]
                                        + t["losses.reconstruction_loss.bwd"]),
            "losses.useful_ratio": _ratio(c["losses.terms_used"], c["losses.terms"]),
            "losses.gram_bytes": c["losses.gram_bytes"],
            "pruner.score_layer.s": t["pruner.score_layer"],
            "pruner.refit_layer.s": t["pruner.refit_layer"],
            "pruner.refit.grad_useful_ratio": _ratio(c["refit.grad_read"],
                                                     c["refit.grad_accumulated"]),
            "pruner.fine_tune.s": t["pruner.fine_tune"],
            "metrics.evaluate.s": t["metrics.evaluate"],
            "metrics.evaluate.calls": calls["metrics.evaluate"],
            "metrics.evaluate.img_per_s": _ratio(c["metrics.evaluate.images"],
                                                 t["metrics.evaluate"]),
            "data.normalized.s": t["data.normalized"],
            "data.normalized.calls": calls["data.normalized"],
            "data.normalized.useful_ratio": _ratio(c["data.images_used"],
                                                   c["data.images_normalized"]),
            "data.batch_wait_s": t["data.batch_wait"] + t["data.sample_batch"],
            "trace.coverage": _ratio(summary["covered"], wall_s),
        }
        for layer in conv_layers:
            m[f"pruner.refit_layer.l{layer}_s"] = c[f"pruner.refit_layer.l{layer}_s"]
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

"""Small feedforward CNNs: definition, execution, masking, materialization, file I/O.

A network is an ordered chain of layers (conv / relu / maxpool / flatten /
dense) with a parameter store keyed by layer index. A channel mask zeroes the
kernel rows and biases of the conv channels it drops, so their output planes
are exactly zero; ``masks`` reads the rows still live back from the parameters,
so a masked net keeps its masks through a copy or a file. ``shrink_layer``
removes one layer's channels for real with the next layer's input slice, and
``materialize`` every layer's. The on-disk format is documented in docs/format.md.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tape, Tensor

_MAGIC = b"PRNK"
_FORMAT_VERSION = 1
_KIND_CODES = {"conv": 0, "relu": 1, "maxpool": 2, "flatten": 3, "dense": 4}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
# the LayerSpec fields each kind reads; a kind leaves the others at their defaults
_USED_FIELDS = {"conv": {"in_channels", "out_channels", "kernel", "stride", "pad"},
                "relu": set(), "maxpool": {"kernel", "stride"}, "flatten": set(),
                "dense": {"in_features", "out_features"}}


class FormatError(ValueError):
    """Model file is truncated, corrupt, or from an unknown format version."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the chain. Unused fields stay at 0 for the other kinds."""
    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    in_features: int = 0
    out_features: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv" and self.out_channels < 1:
            raise ShapeError("conv layer needs out_channels >= 1")
        if self.kind in ("conv", "maxpool") and (self.kernel < 1 or self.stride < 1):
            raise ShapeError(f"{self.kind} layer needs kernel and stride >= 1")
        for f in fields(self)[1:]:  # every field after kind
            if f.name not in _USED_FIELDS[self.kind] and getattr(self, f.name) != f.default:
                raise ShapeError(f"{self.kind} layer does not use field {f.name}")


def conv(in_channels: int, out_channels: int, kernel: int = 3, stride: int = 1,
         pad: int = 1) -> LayerSpec:
    return LayerSpec("conv", in_channels=in_channels, out_channels=out_channels,
                     kernel=kernel, stride=stride, pad=pad)


def relu_layer() -> LayerSpec:
    return LayerSpec("relu")


def maxpool(kernel: int = 2, stride: int = 2) -> LayerSpec:
    return LayerSpec("maxpool", kernel=kernel, stride=stride)


def flatten_layer() -> LayerSpec:
    return LayerSpec("flatten")


def dense_layer(in_features: int, out_features: int) -> LayerSpec:
    return LayerSpec("dense", in_features=in_features, out_features=out_features)


@dataclass
class ChannelMask:
    """Retained-channel pattern for one conv layer (True = keep)."""
    layer: int
    keep: np.ndarray

    def __post_init__(self):
        self.keep = np.asarray(self.keep, dtype=bool)
        if self.keep.ndim != 1:
            raise ShapeError(f"mask for layer {self.layer} must be 1-d")
        if not self.keep.any():
            raise ShapeError(f"mask for layer {self.layer} removes every channel")


class Network:
    """Ordered layer chain with named parameters. Its per-layer output shapes
    are derived once, at construction, from ``specs``, a tuple.
    ``trained``, the model file's one flag bit, marks a net fit to be a pruning baseline."""

    def __init__(self, specs: Sequence[LayerSpec], input_shape: tuple, num_classes: int,
                 params: Optional[dict] = None, trained: bool = False):
        self.specs = tuple(specs)
        self.input_shape = tuple(input_shape)
        self.num_classes = int(num_classes)
        self.params = params if params is not None else {}
        self.trained = trained
        self._shapes = self._shape_table()  # raises on incompatible adjacent layers

    @classmethod
    def initialize(cls, specs: Sequence[LayerSpec], input_shape: tuple, num_classes: int,
                   rng: np.random.Generator) -> "Network":
        """He-initialized weights, zero biases."""
        net = cls(specs, input_shape, num_classes)
        for idx, spec in enumerate(net.specs):
            if spec.kind in ("conv", "dense"):
                w_shape, b_shape = _param_shapes(spec)
                fan_in = math.prod(w_shape) // b_shape[0]
                net.params[idx] = {
                    "w": Tensor(rng.standard_normal(w_shape) * np.sqrt(2.0 / fan_in),
                                requires_grad=True),
                    "b": Tensor(np.zeros(b_shape), requires_grad=True)}
        return net

    def layer_shapes(self) -> list[tuple]:
        """Output shape (without batch dim) after each layer."""
        return list(self._shapes)

    def _shape_table(self) -> list[tuple]:
        shape = self.input_shape
        shapes = []
        for idx, spec in enumerate(self.specs):
            if spec.kind == "conv":
                if len(shape) != 3 or shape[0] != spec.in_channels:
                    raise ShapeError(
                        f"layer {idx} (conv): expects {spec.in_channels} input channels, "
                        f"upstream provides {shape}")
                shape = (spec.out_channels, *T._window_out(
                    f"layer {idx} (conv)", shape[1:], (spec.kernel,) * 2, spec.stride, spec.pad))
            elif spec.kind == "maxpool":
                if len(shape) != 3:
                    raise ShapeError(f"layer {idx} (maxpool): needs [C,H,W] input, got {shape}")
                shape = (shape[0], *T._window_out(
                    f"layer {idx} (maxpool)", shape[1:], (spec.kernel,) * 2, spec.stride))
            elif spec.kind == "flatten":
                shape = (int(np.prod(shape)),)
            elif spec.kind == "dense":
                if len(shape) != 1 or shape[0] != spec.in_features:
                    raise ShapeError(
                        f"layer {idx} (dense): expects {spec.in_features} features, "
                        f"upstream provides {shape}")
                shape = (spec.out_features,)
            shapes.append(shape)
        # classifier networks must end in logits of the declared class count;
        # headless (conv-only) chains are allowed for feature extraction
        if shapes and len(shapes[-1]) == 1 and shapes[-1] != (self.num_classes,):
            raise ShapeError(
                f"network output {shapes[-1]} does not match class count {self.num_classes}")
        return shapes

    def conv_layers(self) -> list[int]:
        return [i for i, s in enumerate(self.specs) if s.kind == "conv"]

    @property
    def masks(self) -> dict[int, np.ndarray]:
        """For every conv layer, the live rows: those whose kernel or bias is
        not all zero. A row that ``apply_mask`` dropped is zero, so reads False."""
        live = {}
        for l in self.conv_layers():
            w, b = self.params[l]["w"].data, self.params[l]["b"].data
            live[l] = w.reshape(len(b), -1).any(axis=1) | (b != 0)
        return live

    def parameters(self):
        for idx in sorted(self.params):
            for name in ("w", "b"):
                yield idx, name, self.params[idx][name]

    def copy(self) -> "Network":
        """Deep copy: the parameters are new objects."""
        params = {idx: {k: Tensor(t.data.copy(), requires_grad=t.requires_grad)
                        for k, t in entry.items()}
                  for idx, entry in self.params.items()}
        return Network(self.specs, self.input_shape, self.num_classes,
                       params=params, trained=self.trained)


def forward(net: Network, x: Tensor, tape: Optional[Tape] = None,
            upto_layer: Optional[int] = None, start: int = 0) -> Tensor:
    """Run layers ``start..upto_layer`` of the chain on a batch.

    ``x`` is what enters layer ``start``: a [B,C,H,W] image batch for the
    default 0, otherwise the batched output of layer ``start - 1``. Returns the
    logits, or the output of layer ``upto_layer`` when given; for a conv layer
    that is the feature map right after the convolution. A caller
    that needs a conv layer's map and the logits runs ``upto_layer=l``, then
    ``start=l + 1`` from that map. ``x`` is checked against the shape table built at construction.
    """
    if start and not 0 < start < len(net.specs):
        raise ShapeError(f"forward: start layer {start} out of range")
    expect = net._shapes[start - 1] if start else net.input_shape
    if x.data.ndim != len(expect) + 1 or x.shape[1:] != expect:
        raise ShapeError(
            f"forward: input shape {x.shape} does not match declared {expect} "
            f"entering layer {start}")
    if upto_layer is not None and not (start <= upto_layer < len(net.specs)):
        raise ShapeError(f"forward: layer index {upto_layer} out of range")

    h = x
    for idx in range(start, len(net.specs) if upto_layer is None else upto_layer + 1):
        spec = net.specs[idx]
        if spec.kind == "conv":
            p = net.params[idx]
            h = T.conv2d(h, p["w"], stride=spec.stride, pad=spec.pad, bias=p["b"], tape=tape)
        elif spec.kind == "relu":
            h = T.relu(h, tape)
        elif spec.kind == "maxpool":
            h = T.max_pool2d(h, spec.kernel, spec.stride, tape)
        elif spec.kind == "flatten":
            h = T.flatten(h, tape)
        elif spec.kind == "dense":
            p = net.params[idx]
            h = T.dense(h, p["w"], p["b"], tape)
    return h


def forward_chunks(net: Network, x: np.ndarray, batch_size: int, start: int = 0,
                   upto_layer: Optional[int] = None) -> np.ndarray:
    """Untaped ``forward`` of layers ``start..upto_layer`` over the rows of
    ``x``, ``batch_size`` rows at a time, into one array; ``x`` itself if
    ``upto_layer < start``."""
    if upto_layer is not None and upto_layer < start:
        return x
    shapes = (net.input_shape, *net._shapes)  # entering layer 0, then leaving each layer
    out = np.empty((len(x), *shapes[-1 if upto_layer is None else upto_layer + 1]))
    for i in range(0, len(x), batch_size):
        out[i:i + batch_size] = forward(net, Tensor(x[i:i + batch_size]), start=start,
                                        upto_layer=upto_layer).data
    return out


def apply_mask(net: Network, mask: ChannelMask) -> Network:
    """Zero the ``w`` and ``b`` rows of conv layer ``mask.layer`` that ``mask``
    drops, so the layer's output planes there are exactly zero. A row that is
    already zero stays zero, so ``masks[l]`` becomes ``mask.keep & masks[l]``.
    The layer's parameters are new; every other layer's are shared with ``net``.
    """
    _check_mask_fits(net, mask)
    l = mask.layer
    keep = mask.keep & net.masks[l]
    if not keep.any():
        raise ShapeError(f"mask for layer {l} removes every channel that is still live")
    params = dict(net.params)
    params[l] = {k: Tensor(np.where(keep.reshape(-1, *(1,) * (t.data.ndim - 1)), t.data, 0.0),
                           requires_grad=t.requires_grad) for k, t in params[l].items()}
    return Network(net.specs, net.input_shape, net.num_classes, params=params,
                   trained=net.trained)


def _check_mask_fits(net: Network, mask: ChannelMask) -> None:
    spec = net.specs[mask.layer] if 0 <= mask.layer < len(net.specs) else None
    if spec is None or spec.kind != "conv" or mask.keep.shape != (spec.out_channels,):
        raise ShapeError(f"mask does not fit layer {mask.layer} "
                         f"({spec or 'no such layer'}): mask length {mask.keep.size}")


def shrink_layer(net: Network, mask: ChannelMask) -> Network:
    """Remove the channels ``mask`` drops from conv layer ``mask.layer``: its
    output rows, and the next conv's input slice or the next
    dense layer's rows (a flatten groups them per channel). Shares the rest."""
    _check_mask_fits(net, mask)
    l = mask.layer
    kidx = np.flatnonzero(mask.keep)
    specs, params = list(net.specs), dict(net.params)
    params[l] = {k: Tensor(t.data[kidx], requires_grad=True) for k, t in params[l].items()}
    specs[l] = replace(specs[l], out_channels=len(kidx))
    nxt = next((i for i in range(l + 1, len(specs)) if i in params), None)  # conv or dense
    if nxt is not None:
        w = params[nxt]["w"].data
        if specs[nxt].kind == "conv":
            w, specs[nxt] = w[:, kidx], replace(specs[nxt], in_channels=len(kidx))
        else:
            w = w.reshape(len(mask.keep), -1, w.shape[1])[kidx].reshape(-1, w.shape[1])
            specs[nxt] = replace(specs[nxt], in_features=w.shape[0])
        params[nxt] = {**params[nxt], "w": Tensor(w, requires_grad=True)}
    return Network(specs, net.input_shape, net.num_classes, params=params, trained=net.trained)


def materialize(net: Network, masks: Sequence[ChannelMask]) -> Network:
    """``shrink_layer`` applied to every conv layer, on a copy."""
    by_layer = {m.layer: m for m in masks}
    convs = net.conv_layers()
    if sorted(by_layer) != convs:
        raise ShapeError(
            f"need exactly one mask per conv layer {convs}, got {sorted(by_layer)}")
    out = net.copy()
    for l in convs:
        out = shrink_layer(out, by_layer[l])
    return out


# ---------------------------------------------------------------------------
# serialization (see docs/format.md)


def _pack_array(a: np.ndarray) -> bytes:
    out = struct.pack("<B", a.ndim)
    out += struct.pack(f"<{a.ndim}I", *a.shape)
    out += np.ascontiguousarray(a, dtype="<f8").tobytes()
    return out


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError("model file is truncated")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def save(net: Network, path) -> None:
    body = _MAGIC + struct.pack("<H", _FORMAT_VERSION)
    body += struct.pack("<B", 1 if net.trained else 0)
    body += struct.pack("<I", net.num_classes)
    body += struct.pack("<B", len(net.input_shape))
    body += struct.pack(f"<{len(net.input_shape)}I", *net.input_shape)
    body += struct.pack("<I", len(net.specs))
    for spec in net.specs:
        body += struct.pack("<B7I", _KIND_CODES[spec.kind], spec.in_channels,
                            spec.out_channels, spec.kernel, spec.stride, spec.pad,
                            spec.in_features, spec.out_features)
    for idx in sorted(net.params):
        for name in ("w", "b"):
            body += _pack_array(net.params[idx][name].data)
    body += struct.pack("<I", zlib.crc32(body))
    # write a sibling file, then rename over the target: a failed write never
    # leaves a truncated model behind
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load(path) -> Network:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 10:
        raise FormatError("model file is truncated")
    if blob[:4] != _MAGIC:
        raise FormatError("bad magic: not a model file")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise FormatError("checksum failure: file is corrupted")

    r = _Reader(blob[:-4])
    r.take(4)
    (version,) = r.unpack("<H")
    if version != _FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    (flags,) = r.unpack("<B")
    if flags & ~1:
        raise FormatError(f"unknown flag bits {flags:#04x}")
    (num_classes,) = r.unpack("<I")
    (ndim,) = r.unpack("<B")
    input_shape = r.unpack(f"<{ndim}I")
    (n_layers,) = r.unpack("<I")
    specs = []
    for idx in range(n_layers):
        code, cin, cout, k, s, p, fin, fout = r.unpack("<B7I")
        if code not in _KIND_NAMES:
            raise FormatError(f"unknown layer kind code {code}")
        try:
            specs.append(LayerSpec(_KIND_NAMES[code], in_channels=cin, out_channels=cout,
                                   kernel=k, stride=s, pad=p, in_features=fin,
                                   out_features=fout))
        except ShapeError as exc:
            raise FormatError(f"layer {idx}: {exc}") from exc
    params = {}
    for idx, spec in enumerate(specs):
        if spec.kind not in ("conv", "dense"):
            continue
        entry = {}
        for name, expect in zip(("w", "b"), _param_shapes(spec)):
            (nd,) = r.unpack("<B")
            shape = r.unpack(f"<{nd}I")
            if shape != expect:
                raise FormatError(
                    f"layer {idx} {name}: stored shape {shape} contradicts the layer "
                    f"table, which implies {expect}")
            data = np.frombuffer(r.take(math.prod(shape) * 8), dtype="<f8").reshape(shape)
            entry[name] = Tensor(data.copy(), requires_grad=True)
        params[idx] = entry
    if r.pos != len(r.blob):
        raise FormatError("trailing bytes after parameter payload")
    try:
        return Network(specs, input_shape, num_classes, params=params, trained=bool(flags & 1))
    except ShapeError as exc:
        raise FormatError(f"inconsistent layer table: {exc}") from exc


def _param_shapes(spec: LayerSpec) -> tuple[tuple, tuple]:
    """Shapes of a conv or dense layer's weight and bias."""
    if spec.kind == "conv":
        return ((spec.out_channels, spec.in_channels, spec.kernel, spec.kernel),
                (spec.out_channels,))
    return (spec.in_features, spec.out_features), (spec.out_features,)


def reference_specs(in_channels: int = 3, image_size: int = 12,
                    num_classes: int = 3) -> list[LayerSpec]:
    """Desk-scale 4-conv benchmark network: 16-32-32-64 channels, two pools."""
    if image_size % 4:
        raise ShapeError("reference network needs an image size divisible by 4")
    tail = image_size // 4
    return [
        conv(in_channels, 16), relu_layer(), maxpool(),
        conv(16, 32), relu_layer(),
        conv(32, 32), relu_layer(), maxpool(),
        conv(32, 64), relu_layer(),
        flatten_layer(), dense_layer(64 * tail * tail, num_classes),
    ]

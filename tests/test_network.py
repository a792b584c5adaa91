import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunekit as pk
from prunekit.network import (ChannelMask, FormatError, LayerSpec, Network,
                              apply_mask, conv, dense_layer, flatten_layer,
                              forward, forward_chunks, load, materialize, maxpool,
                              reference_specs, relu_layer, save, shrink_layer)
from prunekit.tensor import ShapeError, Tensor


def random_masks(net, rng, keep_prob=0.6):
    masks = []
    for l in net.conv_layers():
        m = net.specs[l].out_channels
        keep = rng.random(m) < keep_prob
        if not keep.any():
            keep[rng.integers(0, m)] = True
        masks.append(ChannelMask(l, keep))
    return masks


class TestForward:
    def test_identity_kernel_net_maps_input_to_itself(self, rng):
        net = Network([conv(1, 1, kernel=1, stride=1, pad=0)], (1, 3, 3), 3)
        net.params[0] = {"w": Tensor(np.ones((1, 1, 1, 1))), "b": Tensor(np.zeros(1))}
        x = rng.standard_normal((2, 1, 3, 3))
        np.testing.assert_array_equal(forward(net, x=Tensor(x)).data, x)

    def test_all_true_masks_bitwise_equal(self, trained_tiny, tiny_dataset, rng):
        xb, _ = tiny_dataset.sample_batch("test", 8, rng)
        plain = forward(trained_tiny, xb).data
        masked = trained_tiny
        for l in trained_tiny.conv_layers():
            masked = apply_mask(masked, ChannelMask(
                l, np.ones(trained_tiny.specs[l].out_channels, dtype=bool)))
        np.testing.assert_array_equal(forward(masked, xb).data, plain)

    def test_upto_layer_returns_feature_map(self, trained_tiny, tiny_dataset, rng):
        xb, _ = tiny_dataset.sample_batch("test", 2, rng)
        feat = forward(trained_tiny, xb, upto_layer=2)
        assert feat.shape == (2, 6, 8, 8)

    def test_bad_input_shape(self, trained_tiny):
        with pytest.raises(ShapeError, match="does not match declared"):
            forward(trained_tiny, Tensor(np.zeros((1, 3, 9, 9))))

    def test_layer_index_out_of_range(self, trained_tiny, tiny_dataset, rng):
        xb, _ = tiny_dataset.sample_batch("test", 1, rng)
        with pytest.raises(ShapeError, match="out of range"):
            forward(trained_tiny, xb, upto_layer=99)

    def test_start_resumes_where_upto_stopped(self, trained_tiny, tiny_dataset, rng):
        net = apply_mask(trained_tiny, ChannelMask(0, np.array([True, False, True, True])))
        xb, _ = tiny_dataset.sample_batch("test", 8, rng)
        full = forward(net, xb).data
        for l in range(1, len(net.specs)):
            mid = forward(net, xb, upto_layer=l - 1)
            assert np.array_equal(forward(net, mid, start=l).data, full), l
            mid = forward(net, mid, start=l, upto_layer=l)
            assert np.array_equal(mid.data, forward(net, xb, upto_layer=l).data), l

    def test_chunks_fill_one_array_equal_to_concatenated_chunks(self, trained_tiny,
                                                                 tiny_dataset):
        images, _ = tiny_dataset.normalized("train")
        for l in [*range(len(trained_tiny.specs)), None]:
            got = forward_chunks(trained_tiny, images, 7, upto_layer=l)
            expect = np.concatenate([forward(trained_tiny, Tensor(images[i:i + 7]),
                                             upto_layer=l).data
                                     for i in range(0, len(images), 7)])
            assert got.shape == expect.shape and got.flags.c_contiguous, l
            assert got.tobytes() == expect.tobytes(), l

    def test_start_checks_the_shape_entering_the_layer(self, trained_tiny):
        # layer 2 is conv(4->6) fed by layer 1's [4,8,8] output
        forward(trained_tiny, Tensor(np.zeros((1, 4, 8, 8))), start=2)
        with pytest.raises(ShapeError, match="entering layer 2"):
            forward(trained_tiny, Tensor(np.zeros((1, 3, 8, 8))), start=2)
        with pytest.raises(ShapeError, match="out of range"):
            forward(trained_tiny, Tensor(np.zeros((1, 4, 8, 8))), start=2, upto_layer=1)
        with pytest.raises(ShapeError, match="start layer"):
            forward(trained_tiny, Tensor(np.zeros((1, 4, 8, 8))), start=len(trained_tiny.specs))

    def test_shape_table_built_once_per_net(self, trained_tiny, tiny_dataset, monkeypatch):
        # forward once rebuilt the whole table on every call
        calls = []
        build = Network._shape_table
        monkeypatch.setattr(Network, "_shape_table", lambda net: calls.append(1) or build(net))
        net = trained_tiny.copy()
        assert len(calls) == 1
        images, _ = tiny_dataset.normalized("test")
        mid = forward(net, Tensor(images[:4]), upto_layer=1)
        forward(net, mid, start=2)
        forward_chunks(net, forward_chunks(net, images, 8, upto_layer=1), 8, start=2)
        pk.count_flops(net)
        assert len(calls) == 1

    def test_mutating_layer_shapes_leaves_the_net(self, trained_tiny):
        shapes = trained_tiny.layer_shapes()
        trained_tiny.layer_shapes()[1] = (3, 8, 8)
        assert trained_tiny.layer_shapes() == shapes
        with pytest.raises(ShapeError, match="entering layer 2"):
            forward(trained_tiny, Tensor(np.zeros((1, 3, 8, 8))), start=2)


class TestApplyMask:
    def test_masks_exactly_one_plane(self, rng):
        net = Network.initialize([conv(1, 2, kernel=3, pad=1)], (1, 4, 4), 3, rng)
        masked = apply_mask(net, ChannelMask(0, np.array([True, False])))
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        base = forward(net, x).data
        out = forward(masked, x).data
        np.testing.assert_array_equal(out[:, 0], base[:, 0])
        np.testing.assert_array_equal(out[:, 1], np.zeros((1, 4, 4)))

    def test_all_false_mask_rejected(self):
        with pytest.raises(ShapeError, match="every channel"):
            ChannelMask(0, np.zeros(3, dtype=bool))

    def test_mask_length_mismatch(self, trained_tiny):
        with pytest.raises(ShapeError, match="mask length"):
            apply_mask(trained_tiny, ChannelMask(0, np.ones(7, dtype=bool)))

    def test_masking_is_logical_not_physical(self, trained_tiny):
        masked = apply_mask(trained_tiny, ChannelMask(0, np.array([True] + [False] * 3)))
        assert pk.count_params(masked) == pk.count_params(trained_tiny)

    def test_dropped_rows_are_zero_and_the_input_net_unchanged(self, trained_tiny):
        before = [(i, n, t.data.tobytes()) for i, n, t in trained_tiny.parameters()]
        keep = np.array([True, False, True, True, False, True])
        masked = apply_mask(trained_tiny, ChannelMask(2, keep))
        for name, t in masked.params[2].items():
            old = trained_tiny.params[2][name].data
            assert t is not trained_tiny.params[2][name]
            assert np.array_equal(t.data[keep], old[keep]) and not t.data[~keep].any(), name
        assert all(masked.params[i] is trained_tiny.params[i] for i in (0, 6))
        np.testing.assert_array_equal(masked.masks[2], keep)
        assert all(m.all() for m in trained_tiny.masks.values())
        assert [(i, n, t.data.tobytes()) for i, n, t in trained_tiny.parameters()] == before

    def test_second_mask_cannot_revive_dropped_rows(self, trained_tiny):
        first = apply_mask(trained_tiny, ChannelMask(0, np.array([True, False, True, True])))
        second = apply_mask(first, ChannelMask(0, np.array([False, True, True, False])))
        np.testing.assert_array_equal(second.masks[0], [False, False, True, False])
        assert not second.params[0]["w"].data[[0, 1, 3]].any()
        np.testing.assert_array_equal(second.params[0]["w"].data[2],
                                      trained_tiny.params[0]["w"].data[2])

    def test_second_mask_that_leaves_no_row_rejected(self, trained_tiny):
        first = apply_mask(trained_tiny, ChannelMask(0, np.array([True, False, False, False])))
        with pytest.raises(ShapeError, match="layer 0 removes every channel"):
            apply_mask(first, ChannelMask(0, np.array([False, True, True, True])))


class TestDerivedMasks:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_masks_are_the_and_of_the_applied_keeps(self, trained_tiny, fuzz_dir, data):
        # masks[l] is the AND of every keep applied to layer l, restricted to
        # the rows still there, through copy, save/load, shrink_layer and materialize
        convs = trained_tiny.conv_layers()
        width = {l: trained_tiny.specs[l].out_channels for l in convs}

        def keep_of(l, label):
            return np.array(data.draw(st.lists(st.booleans(), min_size=width[l],
                                               max_size=width[l]).filter(any), label=label))

        def check(net, expect):
            assert net.masks.keys() == expect.keys()
            for l, keep in expect.items():
                np.testing.assert_array_equal(net.masks[l], keep, err_msg=f"layer {l}")

        expect = {l: np.ones(width[l], dtype=bool) for l in convs}
        net = trained_tiny
        for l in data.draw(st.lists(st.sampled_from(convs), max_size=4), label="layers"):
            keep = keep_of(l, f"keep {l}")
            if (keep & expect[l]).any():
                net = apply_mask(net, ChannelMask(l, keep))
                expect[l] = expect[l] & keep
            else:
                with pytest.raises(ShapeError, match=f"layer {l} removes every channel"):
                    apply_mask(net, ChannelMask(l, keep))
        check(net, expect)
        check(net.copy(), expect)
        save(net, fuzz_dir / "masked.prnk")
        check(load(fuzz_dir / "masked.prnk"), expect)
        cuts = {l: keep_of(l, f"cut {l}") for l in convs}
        l = data.draw(st.sampled_from(convs), label="shrunk")
        check(shrink_layer(net, ChannelMask(l, cuts[l])), {**expect, l: expect[l][cuts[l]]})
        check(materialize(net, [ChannelMask(l, cut) for l, cut in cuts.items()]),
              {l: expect[l][cut] for l, cut in cuts.items()})


class TestMaterialize:
    def test_all_true_masks_identity(self, trained_tiny, tiny_dataset, rng):
        masks = [ChannelMask(l, np.ones(trained_tiny.specs[l].out_channels, dtype=bool))
                 for l in trained_tiny.conv_layers()]
        out = materialize(trained_tiny, masks)
        assert [s.out_channels for s in out.specs] == \
            [s.out_channels for s in trained_tiny.specs]
        xb, _ = tiny_dataset.sample_batch("test", 4, rng)
        np.testing.assert_array_equal(forward(out, xb).data,
                                      forward(trained_tiny, xb).data)

    def test_next_conv_input_slices_shrink(self, rng):
        specs = [conv(3, 4), relu_layer(), conv(4, 5), relu_layer(),
                 flatten_layer(), dense_layer(5 * 4 * 4, 2)]
        net = Network.initialize(specs, (3, 4, 4), 2, rng)
        masks = [ChannelMask(0, np.array([True, True, False, True])),
                 ChannelMask(2, np.ones(5, dtype=bool))]
        out = materialize(net, masks)
        assert out.params[0]["w"].shape == (3, 3, 3, 3)
        assert out.params[2]["w"].shape == (5, 3, 3, 3)
        assert out.specs[2].in_channels == 3

    def test_dense_columns_shrink_with_flatten_grouping(self, trained_tiny, tiny_dataset, rng):
        keep = np.array([True, False, True, False, True, True])
        masks = [ChannelMask(0, np.ones(4, dtype=bool)), ChannelMask(2, keep)]
        out = materialize(trained_tiny, masks)
        assert out.params[6]["w"].shape == (4 * 4 * 4, 3)
        masked = apply_mask(trained_tiny, masks[1])
        xb, _ = tiny_dataset.sample_batch("test", 16, rng)
        np.testing.assert_allclose(forward(out, xb).data,
                                   forward(masked, xb).data, atol=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_mask_equivalence_oracle(self, trained_tiny, tiny_dataset, seed):
        r = np.random.default_rng(seed)
        masks = random_masks(trained_tiny, r)
        masked = trained_tiny
        for m in masks:
            masked = apply_mask(masked, m)
        out = materialize(trained_tiny, masks)
        xb, _ = tiny_dataset.sample_batch("test", 10, r)
        np.testing.assert_allclose(forward(out, xb).data,
                                   forward(masked, xb).data, atol=1e-5)

    def test_missing_mask_rejected(self, trained_tiny):
        with pytest.raises(ShapeError, match="one mask per conv layer"):
            materialize(trained_tiny, [ChannelMask(0, np.ones(4, dtype=bool))])

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_layer_by_layer_shrink(self, trained_tiny, seed):
        masks = random_masks(trained_tiny, np.random.default_rng(seed))
        before = [t.data.tobytes() for _, _, t in trained_tiny.parameters()]
        out = materialize(trained_tiny, masks)
        step = trained_tiny
        for m in masks:
            step = shrink_layer(step, m)
        assert out.specs == step.specs
        assert all(m.all() for net in (out, step) for m in net.masks.values())
        assert ([(i, n, t.data.tobytes()) for i, n, t in out.parameters()]
                == [(i, n, t.data.tobytes()) for i, n, t in step.parameters()])
        assert [t.data.tobytes() for _, _, t in trained_tiny.parameters()] == before


class TestShrinkLayer:
    def test_mask_entry_keeps_its_retained_part(self, trained_tiny):
        mask = ChannelMask(2, np.array([True, False, True, True, False, True]))
        other = ChannelMask(0, np.array([True, False, True, True]))
        masked = apply_mask(apply_mask(trained_tiny, other), mask)
        out = shrink_layer(masked, mask)
        np.testing.assert_array_equal(out.masks[2], np.ones(4, dtype=bool))
        np.testing.assert_array_equal(out.masks[0], other.keep)
        assert out.params[0] is masked.params[0]

    def test_equals_masked_forward(self, trained_tiny, tiny_dataset, rng):
        mask = ChannelMask(0, np.array([False, True, True, False]))
        out = shrink_layer(trained_tiny, mask)
        assert out.specs[0].out_channels == out.specs[2].in_channels == 2
        xb, _ = tiny_dataset.sample_batch("test", 8, rng)
        np.testing.assert_allclose(forward(out, xb).data,
                                   forward(apply_mask(trained_tiny, mask), xb).data,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layer,keep", [(0, [True, False]), (1, [True, False, True, True]),
                                            (99, [True, False, True, True])])
    def test_mask_must_fit_a_conv_layer(self, trained_tiny, layer, keep):
        # layer 99 once ended in an IndexError from both functions
        for op in (shrink_layer, apply_mask):
            with pytest.raises(ShapeError, match=f"mask does not fit layer {layer} .*mask length"):
                op(trained_tiny, ChannelMask(layer, np.array(keep)))


class TestSerialization:
    def test_round_trip_byte_identical(self, trained_tiny, tmp_path):
        p1, p2 = tmp_path / "a.prnk", tmp_path / "b.prnk"
        save(trained_tiny, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_params_bit_exact(self, trained_tiny, tmp_path):
        path = tmp_path / "m.prnk"
        save(trained_tiny, path)
        back = load(path)
        assert back.trained == trained_tiny.trained
        for (i1, n1, t1), (i2, n2, t2) in zip(trained_tiny.parameters(), back.parameters()):
            assert (i1, n1) == (i2, n2)
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_corrupted_file_reports_checksum(self, trained_tiny, tmp_path):
        path = tmp_path / "m.prnk"
        save(trained_tiny, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum"):
            load(path)

    def test_truncated_file(self, trained_tiny, tmp_path):
        path = tmp_path / "m.prnk"
        save(trained_tiny, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError):
            load(path)

    def test_version_mismatch(self, trained_tiny, tmp_path):
        import struct
        import zlib
        path = tmp_path / "m.prnk"
        save(trained_tiny, path)
        blob = bytearray(path.read_bytes()[:-4])
        blob[4:6] = struct.pack("<H", 99)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load(path)

    def test_failed_write_leaves_old_file_intact(self, trained_tiny, tmp_path, monkeypatch):
        path = tmp_path / "m.prnk"
        save(trained_tiny, path)
        old = path.read_bytes()

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("no space left on device")

        real_open = open
        monkeypatch.setattr(pk.network, "open",
                            lambda *a, **kw: DiskFull(real_open(*a, **kw)), raising=False)
        other = trained_tiny.copy()
        other.params[0]["w"].data += 1.0
        with pytest.raises(OSError, match="no space"):
            save(other, path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.prnk"]

    def test_param_shape_contradicting_layer_table(self, tmp_path, rng):
        net = Network.initialize(reference_specs(3, 12, 3), (3, 12, 12), 3, rng)
        # a CRC-valid file whose layer-0 weight has 15 output channels, not 16
        net.params[0]["w"] = Tensor(net.params[0]["w"].data[:15])
        path = tmp_path / "m.prnk"
        save(net, path)
        with pytest.raises(FormatError, match="layer 0 w.*contradicts"):
            load(path)

    @pytest.mark.parametrize("field,value,match", [
        ("num_classes", 5, "inconsistent layer table"),   # Network: output != classes
        ("layer0.stride", 0, "layer 0"),                  # LayerSpec: conv stride 0
        ("layer0.in_features", 7, "layer 0"),             # LayerSpec: unused conv field
    ])
    def test_inconsistent_header_is_a_format_error(self, trained_tiny, tmp_path,
                                                   field, value, match):
        blob = _saved_blob(trained_tiny, tmp_path)
        off, fmt = dict(_header_fields(blob))[field]
        path = tmp_path / "bad.prnk"
        path.write_bytes(_resigned(_put(blob, off, fmt, value)))
        with pytest.raises(FormatError, match=match):
            load(path)

    def test_masked_net_round_trips_with_equal_logits(self, trained_tiny, tiny_dataset,
                                                      tmp_path, rng):
        # the file holds no masks, only the zeroed rows that stand for them
        path = tmp_path / "m.prnk"
        keep = np.array([True, True, True, False, True, False])
        masked = apply_mask(trained_tiny, ChannelMask(2, keep))
        save(masked, path)
        back = load(path)
        assert back.trained and back.masks.keys() == {0, 2}
        assert back.masks[0].all()
        np.testing.assert_array_equal(back.masks[2], keep)
        xb, _ = tiny_dataset.sample_batch("test", 8, rng)
        np.testing.assert_array_equal(forward(back, xb).data, forward(masked, xb).data)

    def test_logits_survive_round_trip(self, trained_tiny, tiny_dataset, tmp_path, rng):
        path = tmp_path / "m.prnk"
        save(trained_tiny, path)
        xb, _ = tiny_dataset.sample_batch("test", 8, rng)
        np.testing.assert_allclose(forward(load(path), xb).data,
                                   forward(trained_tiny, xb).data, atol=1e-6)


# ---------------------------------------------------------------------------
# fuzzing the file format: damage of any kind is a FormatError, never another
# exception and never a loaded network

_LAYER_FIELDS = ("in_channels", "out_channels", "kernel", "stride", "pad",
                 "in_features", "out_features")


def _saved_blob(net, directory) -> bytes:
    path = directory / "tiny.prnk"
    save(net, path)
    return path.read_bytes()


def _header_fields(blob: bytes) -> list[tuple[str, tuple[int, str]]]:
    """(name, (offset, struct format)) of every header and array-header field
    of a saved file, walked as docs/format.md lays them out."""
    fields = [("magic", (0, "<I")), ("version", (4, "<H")), ("flags", (6, "<B")),
              ("num_classes", (7, "<I")), ("ndim", (11, "<B"))]
    (ndim,) = struct.unpack_from("<B", blob, 11)
    fields += [(f"input_shape{i}", (12 + 4 * i, "<I")) for i in range(ndim)]
    pos = 12 + 4 * ndim
    fields.append(("n_layers", (pos, "<I")))
    (n_layers,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    kinds = []
    for l in range(n_layers):
        kinds.append(blob[pos])
        fields.append((f"layer{l}.kind", (pos, "<B")))
        fields += [(f"layer{l}.{name}", (pos + 1 + 4 * j, "<I"))
                   for j, name in enumerate(_LAYER_FIELDS)]
        pos += 29
    for l, kind in enumerate(kinds):
        if kind not in (0, 4):  # conv and dense carry parameters
            continue
        for name in ("w", "b"):
            nd = blob[pos]
            fields.append((f"layer{l}.{name}.ndim", (pos, "<B")))
            dims = struct.unpack_from(f"<{nd}I", blob, pos + 1)
            fields += [(f"layer{l}.{name}.dim{i}", (pos + 1 + 4 * i, "<I")) for i in range(nd)]
            pos += 1 + 4 * nd + 8 * int(np.prod(dims))
    assert pos == len(blob) - 4
    return fields


def _put(blob: bytes, off: int, fmt: str, value: int) -> bytes:
    out = bytearray(blob[:-4])
    struct.pack_into(fmt, out, off, value)
    return bytes(out)


def _resigned(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_format_error(path, blob: bytes) -> None:
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        load(path)


class TestFormatFuzz:
    def test_every_truncation(self, trained_tiny, fuzz_dir):
        blob = _saved_blob(trained_tiny, fuzz_dir)
        path = fuzz_dir / "cut.prnk"
        for n in range(len(blob)):
            _assert_format_error(path, blob[:n])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_flip(self, trained_tiny, fuzz_dir, data):
        blob = bytearray(_saved_blob(trained_tiny, fuzz_dir))
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
        _assert_format_error(fuzz_dir / "flip.prnk", bytes(blob))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_resigned_header_field_mutation(self, trained_tiny, fuzz_dir, data):
        blob = _saved_blob(trained_tiny, fuzz_dir)
        name, (off, fmt) = data.draw(st.sampled_from(_header_fields(blob)), label="field")
        (old,) = struct.unpack_from(fmt, blob, off)
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        # bit 0 of flags is the trained flag: either value is a valid file
        low = 2 if name == "flags" else 0
        # small values pass the cheap checks and reach the deeper ones
        value = data.draw(st.one_of(st.integers(low, min(top, 300)), st.integers(low, top))
                          .filter(lambda v: v != old), label="value")
        _assert_format_error(fuzz_dir / "field.prnk", _resigned(_put(blob, off, fmt, value)))


def test_layer_spec_rejects_fields_its_kind_does_not_use():
    with pytest.raises(ShapeError, match="does not use field kernel"):
        LayerSpec("relu", kernel=3)
    with pytest.raises(ShapeError, match="stride"):
        maxpool(kernel=2, stride=0)


def test_pool_window_larger_than_its_input_names_the_layer():
    with pytest.raises(ShapeError, match=r"layer 1 \(maxpool\): non-integral"):
        Network([conv(1, 2), maxpool(kernel=5, stride=1)], (1, 4, 4), 3)

import struct
import zlib
from collections import Counter
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cosnet import ops, runtime, training
from cosnet.arch import build_mini_network, registry_lookup, \
    render_variant_text
from cosnet.errors import (CheckpointError, ConfigError, CosnetError,
                           DatasetFormatError, DivergenceError)
from cosnet.graph import (GraphBuilder, _activation_signature,
                          graph_backward, graph_forward)
from cosnet.runtime import plan
from cosnet.tensor import Tensor
from cosnet.training import (Dataset, TrainConfig, evaluate, load_checkpoint,
                             load_dataset, nearest_centroid_accuracy,
                             save_checkpoint, save_dataset, split_indices,
                             synth_dataset, train)


class TestSynthDataset:
    def test_shapes_and_range(self):
        ds = synth_dataset(count=30, seed=0)
        assert ds.images.shape == (30, 3, 32, 32)
        assert ds.images.dtype == np.float32
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_quantized_to_8bit_grid(self):
        ds = synth_dataset(count=10, seed=1)
        q = np.round(ds.images * 255.0) / np.float32(255.0)
        assert np.array_equal(ds.images, q)

    def test_seeded_reproducibility(self):
        a = synth_dataset(count=20, seed=5)
        b = synth_dataset(count=20, seed=5)
        c = synth_dataset(count=20, seed=6)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.images, c.images)

    def test_split_is_disjoint_and_complete(self):
        ds = synth_dataset(count=50, seed=0)
        both = np.concatenate([ds.train_idx, ds.test_idx])
        assert len(set(both)) == 50
        assert len(ds.test_idx) == 10

    def test_classes_are_separable(self):
        ds = synth_dataset(count=200, seed=0)
        acc = nearest_centroid_accuracy(ds)
        assert acc > 2.0 / ds.num_classes   # clearly better than chance

    @pytest.mark.parametrize("count", [-1, 0])
    def test_empty_count_rejected(self, count):
        with pytest.raises(ConfigError):
            synth_dataset(count=count)

    @pytest.mark.parametrize("field", ["size", "num_classes", "channels"])
    @pytest.mark.parametrize("value", [-1, 0])
    def test_empty_geometry_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            synth_dataset(count=4, **{field: value})

    @pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5, float("nan")])
    def test_split_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigError, match="test_fraction"):
            split_indices(10, fraction)

    def test_centroids_need_held_out_images(self):
        ds = synth_dataset(count=2, seed=0)
        assert len(ds.test_idx) == 0
        with pytest.raises(ConfigError, match="held-out"):
            nearest_centroid_accuracy(ds)

    def test_centroids_need_every_class_in_training(self):
        ds = synth_dataset(count=12, num_classes=40, seed=0)
        assert len(ds.test_idx) > 0
        with pytest.raises(ConfigError, match="every class"):
            nearest_centroid_accuracy(ds)

    def test_label_validation(self):
        with pytest.raises(Exception):
            Dataset(images=np.zeros((2, 1, 2, 2), np.float32),
                    labels=np.array([0, 9]), num_classes=3,
                    train_idx=np.array([0]), test_idx=np.array([1]))


class TestDatasetFile:
    def test_round_trip_exact(self, tmp_path):
        ds = synth_dataset(count=12, seed=3)
        path = tmp_path / "d.bin"
        save_dataset(path, ds)
        ds2 = load_dataset(path)
        assert np.array_equal(ds.images, ds2.images)
        assert np.array_equal(ds.labels, ds2.labels)
        assert ds2.num_classes == ds.num_classes

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(path)

    def test_truncation(self, tmp_path):
        ds = synth_dataset(count=5, seed=0)
        path = tmp_path / "d.bin"
        save_dataset(path, ds)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(path)

    def test_trailing_garbage(self, tmp_path):
        ds = synth_dataset(count=3, seed=0)
        path = tmp_path / "d.bin"
        save_dataset(path, ds)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DatasetFormatError, match="trailing"):
            load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        ds = synth_dataset(count=3, num_classes=4, seed=0)
        path = tmp_path / "d.bin"
        save_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        hdr = 4 + struct.calcsize("<HIHHHH")
        struct.pack_into("<H", blob, hdr, 99)   # first record's label
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="label"):
            load_dataset(path)

    @pytest.mark.parametrize("fraction", [-0.5, 1.5])
    def test_bad_test_fraction_rejected(self, tmp_path, fraction):
        path = tmp_path / "d.bin"
        save_dataset(path, synth_dataset(count=3, seed=0))
        with pytest.raises(ConfigError, match="test_fraction"):
            load_dataset(path, test_fraction=fraction)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"CSDS" + struct.pack("<HIHHHH", 1, 0, 10, 3, 4, 4))
        with pytest.raises(DatasetFormatError, match="no records"):
            load_dataset(path)


    def test_huge_record_count_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "d.bin"
        hdr = struct.pack("<HIHHHH", 1, 2**32 - 1, 10, 3, 32, 32)
        path.write_bytes(b"CSDS" + hdr + b"\0" * (2 + 3 * 32 * 32))
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["classes", "c", "h", "w"])
    def test_zero_dimension_rejected(self, tmp_path, field):
        dims = {"classes": 4, "c": 1, "h": 2, "w": 2, field: 0}
        path = tmp_path / "d.bin"
        path.write_bytes(b"CSDS" + struct.pack(
            "<HIHHHH", 1, 1, dims["classes"], dims["c"], dims["h"],
            dims["w"]) + b"\0" * (2 + dims["c"] * dims["h"] * dims["w"]))
        with pytest.raises(DatasetFormatError, match="zero"):
            load_dataset(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.binary(max_size=64))
    def test_any_bytes_give_typed_error_or_dataset(self, tmp_path, body):
        path = tmp_path / "d.bin"
        path.write_bytes(b"CSDS" + body)
        try:
            ds = load_dataset(path)
        except CosnetError:
            return
        assert len(ds.labels) == ds.images.shape[0] > 0


class TestTrainConfig:
    @pytest.mark.parametrize("kw", [
        {"epochs": 0}, {"batch_size": 1}, {"lr": 0.0}, {"momentum": 1.0},
        {"momentum": -0.1}, {"weight_decay": -1e-4},
        {"lr_schedule": "step"}, {"lr": float("nan")}, {"lr": float("inf")},
        {"momentum": float("nan")}, {"weight_decay": float("nan")},
        {"weight_decay": float("inf")},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)

    def test_cosine_schedule_decays(self):
        cfg = TrainConfig(epochs=10, lr=1.0, lr_schedule="cosine")
        assert cfg.lr_at(0) == 1.0
        assert cfg.lr_at(9) < cfg.lr_at(1)


class TestTraining:
    def test_loss_decreases(self):
        ds = synth_dataset(count=128, seed=0)
        g = build_mini_network(seed=0)
        hist = train(g, ds, TrainConfig(epochs=6, batch_size=16, lr=0.02,
                                        seed=0))
        assert hist[-1].loss < hist[0].loss

    def test_training_split_under_two_images_rejected(self):
        ds = synth_dataset(count=1, seed=0)
        assert len(ds.train_idx) == 1
        with pytest.raises(ConfigError, match="2 training images"):
            train(build_mini_network(seed=0), ds, TrainConfig(epochs=1))

    def test_evaluate_over_no_images_rejected(self):
        ds = synth_dataset(count=2, seed=0)
        assert len(ds.test_idx) == 0
        with pytest.raises(ConfigError, match="zero images"):
            evaluate(build_mini_network(seed=0), ds.images[ds.test_idx],
                     ds.labels[ds.test_idx])

    @pytest.mark.parametrize("batch_size", [-1, 0])
    def test_evaluate_batch_size_below_one_rejected(self, batch_size):
        ds = synth_dataset(count=4, seed=0)
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate(build_mini_network(seed=0), ds.images, ds.labels,
                     batch_size=batch_size)

    def test_divergence_raises_with_epoch(self):
        ds = synth_dataset(count=16, seed=0)
        g = build_mini_network(seed=0)
        nid = next(iter(g.weights))
        g.weights[nid]["weight"][0, 0, 0, 0] = np.nan
        with pytest.raises(DivergenceError) as exc:
            train(g, ds, TrainConfig(epochs=1, batch_size=8))
        assert exc.value.epoch == 0

    def test_large_loss_is_finite(self):
        # a batch whose label probability underflows used to report an
        # infinite loss that the divergence check let through
        ds = synth_dataset(count=64, seed=2)
        g = build_mini_network(columns=4, seed=2)
        with np.errstate(divide="raise"):
            hist = train(g, ds, TrainConfig(epochs=2, batch_size=16, seed=2))
        assert all(np.isfinite(m.loss) for m in hist)

    def test_infinite_loss_raises(self, monkeypatch):
        real = training.softmax_cross_entropy

        def inf_loss(logits, labels):
            _, grad = real(logits, labels)
            return float("inf"), grad

        monkeypatch.setattr(training, "softmax_cross_entropy", inf_loss)
        ds = synth_dataset(count=16, seed=0)
        g = build_mini_network(seed=0)
        with pytest.raises(DivergenceError) as exc:
            train(g, ds, TrainConfig(epochs=1, batch_size=8))
        assert exc.value.epoch == 0

    def test_backward_recomputes_nothing(self, monkeypatch):
        """One SGD step of mini M=2: the forward builds one patch matrix
        per conv step of the batched plan and normalises each BN once; the
        backward reads that state from the tape and builds none."""
        calls = []
        phase = ["other"]

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((phase[0], name))
                return fn(*args, **kwargs)
            return wrapped

        def in_phase(fn, name):
            def wrapped(*args, **kwargs):
                phase[0] = name if kwargs.get("mode") != "eval" else "eval"
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase[0] = "other"
            return wrapped

        monkeypatch.setattr(ops, "im2col_nd", spy("im2col", ops.im2col_nd))
        monkeypatch.setattr(ops, "_bn_normalize",
                            spy("bn", ops._bn_normalize))
        monkeypatch.setattr(training, "graph_forward",
                            in_phase(training.graph_forward, "forward"))
        monkeypatch.setattr(training, "graph_backward",
                            in_phase(training.graph_backward, "backward"))
        ds = synth_dataset(count=40, seed=0)
        assert len(ds.train_idx) == 32   # one batch of 32: one SGD step
        g = build_mini_network(columns=2, seed=0)
        train(g, ds, TrainConfig(epochs=1, batch_size=32))
        kinds = [s.kind for s in plan(g, "batched").steps]
        counts = Counter(calls)
        assert counts["backward", "im2col"] == 0
        assert counts["backward", "bn"] == 0
        assert counts["forward", "im2col"] == (kinds.count("conv")
                                               + kinds.count("conv_grouped"))
        assert counts["forward", "bn"] == kinds.count("bn")

    def test_max_pool_backward_builds_no_windows(self, monkeypatch):
        """Max-pool backward and the gradient check's kink fingerprint read
        the argmax the forward saved; neither builds the window stack."""
        calls = []
        windows = ops._pool_windows

        def spy(*args, **kwargs):
            calls.append(args)
            return windows(*args, **kwargs)

        monkeypatch.setattr(ops, "_pool_windows", spy)
        b = GraphBuilder()
        x = b.add("input")
        pm = b.add("pool_max", [x], "pm", kernel=(3, 3), stride=(2, 2),
                   pad=(1, 1))
        g = b.freeze(b.add("output", [b.add("gap", [pm])]))
        xt = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        out, tape = graph_forward(g, xt, mode="train")
        assert len(calls) == 1
        _activation_signature(g, tape)
        _, gin = graph_backward(g, tape, Tensor(np.ones(out.shape)))
        assert len(calls) == 1
        assert gin.shape == xt.shape

    def test_graph_lowers_its_batched_plan_once(self, monkeypatch):
        calls = []
        real = runtime.plan

        def counted(graph, mode):
            calls.append((graph, mode))
            return real(graph, mode)

        monkeypatch.setattr(runtime, "plan", counted)
        ds = synth_dataset(count=40, seed=0)
        g = build_mini_network(columns=2, seed=0)
        images, labels = ds.images[ds.test_idx], ds.labels[ds.test_idx]
        evaluate(g, images, labels)
        evaluate(g, images, labels)
        train(g, ds, TrainConfig(epochs=1, batch_size=16))
        assert calls == [(g, "batched")]

    def test_graphs_never_share_a_plan(self):
        ds = synth_dataset(count=20, seed=0)
        g1 = build_mini_network(columns=2, seed=0)
        g2 = build_mini_network(columns=2, seed=1)
        p1, p2 = g1.batched_plan(), g2.batched_plan()
        assert p1 is not p2
        assert (p1.graph, p2.graph) == (g1, g2)
        assert g1.batched_plan() is p1
        # each graph evaluates with its own weights
        x = ds.images[ds.test_idx]
        for g in (g1, g2):
            loss, _ = evaluate(g, x, ds.labels[ds.test_idx])
            out, _ = graph_forward(g, Tensor(x), mode="eval")
            want, _ = ops.softmax_cross_entropy(out, ds.labels[ds.test_idx])
            assert loss == pytest.approx(want, rel=1e-5)

    def test_evaluate_tie_breaks_to_lower_index(self):
        b = GraphBuilder()
        x = b.add("input")
        fc = b.add("linear", [x], "fc", in_features=2, out_features=3)
        out = b.add("output", [fc])
        g = b.freeze(out)
        g.weights[fc]["weight"][...] = 0.0
        g.weights[fc]["bias"][...] = 0.0
        images = np.ones((4, 2, 1, 1), np.float32)
        labels = np.array([0, 0, 1, 2])
        _, acc = evaluate(g, images, labels)
        assert acc == 0.5   # all predictions are class 0


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        g = build_mini_network(seed=4)
        path = tmp_path / "c.bin"
        spec_text = "name = mini\n"
        save_checkpoint(path, g, spec_text)
        g2 = build_mini_network(seed=9)
        text, _ = load_checkpoint(path, g2)
        assert text == spec_text
        for nid in g.weights:
            for f in g.weights[nid]:
                assert np.array_equal(g.weights[nid][f], g2.weights[nid][f])

    def test_includes_running_stats(self, tmp_path):
        g = build_mini_network(seed=0)
        path = tmp_path / "c.bin"
        save_checkpoint(path, g, "name = mini\n")
        _, tensors = load_checkpoint(path)
        assert any(name.endswith(":running_mean") for name in tensors)

    def test_variant_text_round_trip(self, tmp_path):
        g = build_mini_network(seed=0)
        spec = registry_lookup("CoSNet-A1")
        path = tmp_path / "c.bin"
        save_checkpoint(path, g, render_variant_text(spec))
        text, _ = load_checkpoint(path)
        from cosnet.arch import parse_variant_text
        assert parse_variant_text(text) == spec

    def test_single_byte_corruption_detected(self, tmp_path):
        g = build_mini_network(seed=0)
        path = tmp_path / "c.bin"
        save_checkpoint(path, g, "name = mini\n")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        g = build_mini_network(seed=0)
        path = tmp_path / "c.bin"
        save_checkpoint(path, g, "name = mini\n")
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 3])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.bin"
        import zlib
        body = b"XXXX" + struct.pack("<H", 1) + struct.pack("<I", 0) \
            + struct.pack("<I", 0)
        body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(body)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "c.bin"
        import zlib
        body = b"COSN" + struct.pack("<H", 9) + struct.pack("<I", 0) \
            + struct.pack("<I", 0)
        body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(body)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @staticmethod
    def _with_crc(body):
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    def _one_tensor(self, name, dims, payload=b""):
        return self._with_crc(
            b"COSN" + struct.pack("<HI", 1, 0) + struct.pack("<I", 1)
            + struct.pack("<H", len(name)) + name
            + struct.pack("<4I", *dims) + payload)

    def test_overflowing_dims_rejected(self, tmp_path):
        # 2**16 * 2**16 * 2**16 * 2**16 wraps to 0 in int64 arithmetic
        path = tmp_path / "c.bin"
        path.write_bytes(self._one_tensor(b"w", (2**16,) * 4))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        path.write_bytes(self._one_tensor(b"w", (2**32 - 1,) * 4))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_payload_cannot_reach_into_checksum(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(self._one_tensor(b"w", (1, 1, 1, 2), b"\0" * 4))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(self._one_tensor(b"\xff\xfe", (1, 1, 1, 1),
                                          b"\0" * 4))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.binary(max_size=64))
    def test_any_checksummed_bytes_give_typed_error_or_tensors(
            self, tmp_path, body):
        path = tmp_path / "c.bin"
        path.write_bytes(self._with_crc(b"COSN" + struct.pack("<H", 1)
                                        + body))
        try:
            text, tensors = load_checkpoint(path)
        except CosnetError:
            return
        assert isinstance(text, str)
        assert all(a.ndim == 4 for a in tensors.values())

    @pytest.mark.parametrize("field, value, match", [
        ("running_var", -1.0, "negative variance"),
        ("weight", float("nan"), "not finite"),
        ("gamma", float("inf"), "not finite")])
    def test_bad_values_rejected_naming_tensor(self, tmp_path, field, value,
                                               match):
        g = build_mini_network(seed=0)
        nid = next(n for n in g.order if field in g.weights.get(n, {}))
        g.weights[nid][field].flat[0] = value
        path = tmp_path / "c.bin"
        save_checkpoint(path, g, "name = mini\n")   # a valid checksum
        fresh = build_mini_network(seed=1)
        before = fresh.copy_weights()
        name = f"{g.node(nid).name}:{field}"
        with pytest.raises(CheckpointError, match=f"{name} .*{match}"):
            load_checkpoint(path, fresh)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        assert all(np.array_equal(fresh.weights[n][f], before[n][f])
                   for n in before for f in before[n])

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # two convs under one name write two tensors "<name>:weight"
        g = build_mini_network(seed=0)
        first, second = [n for n in g.order if g.node(n).kind == "conv"][:2]
        g.nodes[second] = dc_replace(g.node(second),
                                     name=g.node(first).name)
        path = tmp_path / "c.bin"
        save_checkpoint(path, g, "name = mini\n")
        with pytest.raises(CheckpointError,
                           match=f"{g.node(first).name}:weight appears twice"):
            load_checkpoint(path)
        fresh = build_mini_network(seed=1)
        before = fresh.copy_weights()
        with pytest.raises(CheckpointError, match="appears twice"):
            load_checkpoint(path, fresh)
        assert all(np.array_equal(fresh.weights[n][f], before[n][f])
                   for n in before for f in before[n])

    def test_architecture_mismatch_names_tensor(self, tmp_path):
        g = build_mini_network(seed=0, kernels=8)
        path = tmp_path / "c.bin"
        save_checkpoint(path, g, "name = mini\n")
        other = build_mini_network(seed=0, kernels=4)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, other)

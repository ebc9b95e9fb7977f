import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cosnet import training
from cosnet.arch import build_mini_network, registry_lookup, \
    render_variant_text
from cosnet.errors import (CheckpointError, ConfigError, CosnetError,
                           DatasetFormatError, DivergenceError)
from cosnet.graph import GraphBuilder
from cosnet.training import (Dataset, TrainConfig, evaluate, load_checkpoint,
                             load_dataset, nearest_centroid_accuracy,
                             save_checkpoint, save_dataset, synth_dataset,
                             train)


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

    def test_architecture_mismatch_names_tensor(self, tmp_path):
        g = build_mini_network(seed=0, kernels=8)
        path = tmp_path / "c.bin"
        save_checkpoint(path, g, "name = mini\n")
        other = build_mini_network(seed=0, kernels=4)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, other)

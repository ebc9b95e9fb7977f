import json

import numpy as np
import pytest

from cosnet import analysis
from cosnet.cli import main
from cosnet.tensor import deterministic_enabled
from cosnet.training import load_checkpoint, save_dataset, synth_dataset


class TestDescribe:
    def test_mini(self, capsys):
        assert main(["describe", "mini"]) == 0
        out = capsys.readouterr().out
        assert "stem" in out and "head.fc" in out

    def test_with_shapes(self, capsys):
        assert main(["describe", "mini", "--input-res", "32"]) == 0
        assert "(1, 10, 1, 1)" in capsys.readouterr().out

    def test_unknown_variant_is_usage_error(self, capsys):
        assert main(["describe", "CoSNet-Z"]) == 2
        assert "known" in capsys.readouterr().err


class TestAnalyze:
    def test_table(self, capsys):
        assert main(["analyze", "CoSNet-A0", "--compare-reference"]) == 0
        out = capsys.readouterr().out
        assert "depth 26" in out and "vs reference" in out

    def test_csv_parses(self, capsys):
        assert main(["analyze", "mini", "--input-res", "32",
                     "--format", "csv"]) == 0
        rows = analysis.parse_csv(capsys.readouterr().out)
        assert rows and rows[0].name == "stem"

    def test_calibrate(self, capsys):
        assert main(["analyze", "--calibrate"]) == 0
        out = capsys.readouterr().out
        assert "best combo" in out and "fusion=block_sum" in out

    def test_model_required_without_calibrate(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_variant_file(self, tmp_path, capsys):
        f = tmp_path / "v.txt"
        f.write_text("name = custom\nM = 2,2,2,2\n")
        assert main(["analyze", str(f), "--input-res", "64"]) == 0
        assert "depth" in capsys.readouterr().out

    def test_bad_variant_file(self, tmp_path, capsys):
        f = tmp_path / "v.txt"
        f.write_text("nonsense = 1\n")
        assert main(["analyze", str(f)]) == 2

    @pytest.mark.parametrize("text", ["S = a,b,c,d\n", "zeta = x\n"])
    def test_non_integer_variant_value(self, tmp_path, capsys, text):
        f = tmp_path / "v.txt"
        f.write_text(text)
        assert main(["analyze", str(f)]) == 2
        assert "needs integers" in capsys.readouterr().err


class TestVerify:
    def test_mini_passes(self, capsys):
        assert main(["verify", "mini", "--trials", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_tolerance_fails(self, capsys):
        assert main(["verify", "mini", "--trials", "1", "--tol", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bench", "mini", "--iters", "0"],
    ["verify", "mini", "--trials", "0"],
    ["analyze", "mini", "--input-res", "-5"],
    ["describe", "mini", "--input-res", "0"],
    ["verify", "mini", "--input-res", "0"],
    ["bench", "mini", "--input-res", "-1"],
])
def test_empty_sample_or_size_is_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "PASS" not in captured.out


class TestGradcheck:
    def test_default_unit_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_pff_unit_passes(self, capsys):
        assert main(["gradcheck", "--pff"]) == 0

    def test_bad_config(self, capsys):
        assert main(["gradcheck", "--columns", "0"]) == 2


class TestTrain:
    def test_synthetic_with_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "m.ckpt"
        assert main(["train", "mini", "--epochs", "2", "--synth-count", "48",
                     "--batch-size", "16", "--out", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "train acc" in out and "test acc" in out
        text, tensors = load_checkpoint(ck)
        assert text == "name = mini\n"
        assert tensors

    def test_dataset_file(self, tmp_path, capsys):
        ds = synth_dataset(count=24, seed=0)
        path = tmp_path / "d.bin"
        save_dataset(path, ds)
        assert main(["train", "mini", "--epochs", "1", "--batch-size", "8",
                     "--dataset", str(path)]) == 0

    def test_bad_config_is_usage_error(self, capsys):
        assert main(["train", "mini", "--lr", "-1"]) == 2

    def test_deterministic_reruns_write_equal_checkpoints(self, tmp_path,
                                                          capsys):
        argv = ["train", "mini", "--epochs", "1", "--synth-count", "32",
                "--batch-size", "8", "--deterministic"]
        paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
            assert not deterministic_enabled()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_failed_deterministic_run_restores_the_flag(self, capsys):
        assert main(["train", "mini", "--lr", "-1", "--deterministic"]) == 2
        assert not deterministic_enabled()

    def test_missing_dataset_file_fails(self, capsys):
        assert main(["train", "mini", "--dataset", "/no/such/file"]) in (1, 2)


class TestBench:
    def test_json_output(self, capsys):
        assert main(["bench", "mini", "--iters", "2", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["mode"] == "batched" and stats["iters"] == 2

    def test_unrolled_text(self, capsys):
        assert main(["bench", "mini", "--mode", "unrolled",
                     "--iters", "1"]) == 0
        assert "mode=unrolled" in capsys.readouterr().out


class TestExport:
    def test_round_trip_through_file(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        assert main(["export", "CoSNet-B2", "--out", str(out)]) == 0
        assert main(["describe", str(out)]) == 0

    def test_stdout(self, capsys):
        assert main(["export", "CoSNet-A1"]) == 0
        assert "M = 4,4,4,4" in capsys.readouterr().out

    def test_mini_has_no_text_form(self, capsys):
        assert main(["export", "mini"]) == 2

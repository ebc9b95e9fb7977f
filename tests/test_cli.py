import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from cosnet import analysis, cli
from cosnet.arch import REGISTRY, build_mini_network
from cosnet.cli import main
from cosnet.runtime import MODES
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

    def test_zero_classes_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "v.txt"
        path.write_text("name = x\nnum_classes = 0\n")
        assert main(["describe", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: num_classes must be positive, got 0\n"


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

    @pytest.mark.parametrize("command", ["describe", "analyze", "train",
                                         "verify", "bench", "export"])
    def test_non_utf8_variant_file(self, tmp_path, capsys, command):
        f = tmp_path / "v.txt"
        f.write_bytes(b"\xff\xfe name = x\n")
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err
        assert err.count("\n") == 1

    def test_variant_file_with_byte_order_mark(self, tmp_path, capsys):
        # as some editors save UTF-8: the leading mark is not part of the
        # first key, and the exported text carries no mark
        f = tmp_path / "v.txt"
        f.write_bytes(b"\xef\xbb\xbfname = custom\nM = 2,2,2,2\n")
        assert main(["describe", str(f)]) == 0
        out = tmp_path / "out.txt"
        assert main(["export", str(f), "--out", str(out)]) == 0
        text = out.read_bytes()
        assert text.startswith(b"name = custom\n")
        assert b"\xef\xbb\xbf" not in text and b"M = 2,2,2,2\n" in text
        # a mark does not make other bytes UTF-8
        f.write_bytes(b"\xef\xbb\xbf\xff name = x\n")
        capsys.readouterr()
        assert main(["describe", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err
        assert err.count("\n") == 1


class TestVerify:
    def test_mini_passes(self, capsys):
        assert main(["verify", "mini", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "largest |output|" in out and "relative to it" in out

    def test_zero_tolerance_fails(self, capsys):
        # float32 never equals the float64 run, so tol 0 cannot hold
        assert main(["verify", "mini", "--trials", "1", "--tol", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_readme_example_passes(self, capsys):
        assert main(["verify", "CoSNet-B2", "--trials", "1"]) == 0
        assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bench", "mini", "--iters", "0"],
    ["verify", "mini", "--trials", "0"],
    ["analyze", "mini", "--input-res", "-5"],
    ["describe", "mini", "--input-res", "0"],
    ["verify", "mini", "--input-res", "0"],
    ["bench", "mini", "--input-res", "-1"],
    ["bench", "mini", "--warmup", "-1"],
    ["bench", "--all", "--iters", "0"],
    ["bench", "--all", "--warmup", "-1"],
    # numpy refuses the 21 PiB input before allocating any of it
    ["bench", "mini", "--batch", "100000", "--input-res", "100000",
     "--iters", "1", "--warmup", "0"],
    ["gradcheck", "--size", "0"],
    ["gradcheck", "--eps", "0"],
    ["gradcheck", "--tol", "-1"],
    ["verify", "mini", "--tol", "-1"],
    ["verify", "mini", "--seed", "-1"],
    ["train", "mini", "--lr", "nan"],
    ["train", "mini", "--weight-decay", "nan"],
])
def test_empty_sample_or_size_is_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "PASS" not in captured.out


def test_unallocatable_input_is_one_error_line(capsys):
    assert main(["bench", "mini", "--batch", "100000", "--input-res",
                 "100000", "--iters", "1", "--warmup", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "(100000, 3, 100000, 100000)" in err[0]


@pytest.mark.parametrize("argv", [["verify", "--input-res", "8"],
                                  ["train", "--epochs", "1"], ["bench"]],
                         ids=["verify", "train", "bench"])
@pytest.mark.parametrize("text, error", [
    ("N = 1,1,1,1\nnum_classes = 10000000000000000\n",
     "node head.fc: cannot allocate a weight table of shape "
     "(10000000000000000, 2048): "),
    ("N = 10000000000000000,1,1,1\n",
     "node u1.col.level1.bn: Unable to allocate 35.5 PiB for an array with "
     "shape (10000000000000000,)")], ids=["head", "batch_norm"])
def test_unallocatable_weight_table_is_one_error_line(tmp_path, capsys,
                                                      argv, text, error):
    # numpy refuses a table of 10**16 rows before allocating any of it
    path = tmp_path / "v.txt"
    path.write_text(f"name = x\nM = 1,1,1,1\nl = 1,1,1,1\n{text}")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith(f"error: {error}")


class TestGradcheck:
    def test_default_unit_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_pff_unit_passes(self, capsys):
        assert main(["gradcheck", "--pff"]) == 0

    def test_bad_config(self, capsys):
        assert main(["gradcheck", "--columns", "0"]) == 2

    def test_parameter_guard_is_usage_error(self, capsys):
        # refused before any check runs: a configuration error, not a FAIL
        assert main(["gradcheck", "--expand", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "10,000" in captured.err
        assert captured.err.count("\n") == 1


class TestTrain:
    def test_synthetic_with_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "m.ckpt"
        assert main(["train", "mini", "--epochs", "2", "--synth-count", "48",
                     "--batch-size", "16", "--out", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "train acc" in out and "test acc" in out
        g = build_mini_network(seed=0)
        before = g.copy_weights()
        assert load_checkpoint(ck, g) == "name = mini\n"
        # the trained weights replaced the seed-0 ones
        assert any(not np.array_equal(g.weights[n][f], before[n][f])
                   for n in before for f in before[n])

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

    @pytest.mark.parametrize("count", [-1, 0, 1])
    def test_too_few_images_is_usage_error(self, count, capsys):
        assert main(["train", "mini", "--synth-count", str(count),
                     "--batch-size", "2", "--epochs", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_two_images_train_without_held_out_metrics(self, capsys):
        # both images land in the training split; there is nothing to test
        assert main(["train", "mini", "--synth-count", "2",
                     "--batch-size", "2", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "train acc" in out and "test" not in out

    def test_more_classes_than_outputs_is_usage_error(self, tmp_path,
                                                      capsys):
        path = tmp_path / "d20.bin"
        save_dataset(path, random_dataset(count=40, num_classes=20))
        assert main(["train", "mini", "--dataset", str(path),
                     "--epochs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "20 classes" in captured.err and "outputs 10" in captured.err
        # refused before the first epoch logs
        assert captured.err.count("\n") == 1

    def test_images_the_network_cannot_take_is_usage_error(self, tmp_path,
                                                            capsys):
        path = tmp_path / "d1.bin"
        save_dataset(path, random_dataset(count=40, channels=1))
        assert main(["train", "mini", "--dataset", str(path),
                     "--epochs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "(1, 32, 32)" in captured.err
        # refused before the first epoch logs
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("out", ["no-such-dir/m.ckpt", "."],
                             ids=["missing_dir", "a_directory"])
    def test_unwritable_output_fails_before_training(self, out, tmp_path,
                                                     capsys):
        out = tmp_path / out
        assert main(["train", "mini", "--epochs", "1", "--synth-count", "8",
                     "--batch-size", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out {out}: ")
        assert "epoch" not in captured.err
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []

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


    def test_all_json_covers_the_registry(self, capsys):
        assert main(["bench", "--all", "--json", "--input-res", "32",
                     "--iters", "2", "--warmup", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"batch", "input_res", "iters", "control",
                               "variants"}
        assert report["control"] == "ResNet-50-ref"
        assert list(report["variants"]) == list(REGISTRY)
        for row in report["variants"].values():
            assert set(row) == {"macs", *MODES} and row["macs"] > 0
            for mode in MODES:
                assert set(row[mode]) == {"steps", "median_ms", "gmac_s",
                                          "ratio_to_control"}
                assert row[mode]["median_ms"] > 0
                assert row[mode]["gmac_s"] == pytest.approx(
                    row["macs"] / row[mode]["median_ms"] / 1e6)
                assert row[mode]["ratio_to_control"] > 0
        ref = report["variants"]["ResNet-50-ref"]
        assert ref["batched"]["steps"] == ref["unrolled"]["steps"]

    def test_all_pairs_each_variant_execute_with_the_control(
            self, monkeypatch, capsys):
        """Every variant execute runs next to one control execute of the
        same mode, the order alternating between repeats; the ratio is
        each pair's variant over control ms, and at most two networks are
        built at a time."""
        calls, built, names = [], [], {}
        real_build = cli.arch.build_network

        def build(spec, seed=0, init=True):
            built.append(spec.name)
            g = real_build(spec, seed=seed, init=False)
            names[id(g)] = spec.name
            return g

        def bench(p, shape, warmup=1, iters=5):
            name = names[id(p.graph)]
            calls.append((name, p.mode))
            # the machine slows down call by call; the variant always takes
            # twice the control's time
            return {"p50_ms": len(calls) * (1 if name == "ResNet-50-ref"
                                            else 2.0)}

        monkeypatch.setattr(cli.arch, "build_network", build)
        monkeypatch.setattr(cli.runtime, "bench", bench)
        monkeypatch.setattr(cli.arch, "REGISTRY", {
            k: REGISTRY[k] for k in ("CoSNet-A0", "ResNet-50-ref")})
        assert main(["bench", "--all", "--json", "--iters", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert built == ["ResNet-50-ref", "CoSNet-A0"]
        # three repeats of CoSNet-A0 paired with the control: the mode
        # order and the order within each pair flip between repeats
        a0, ref = "CoSNet-A0", "ResNet-50-ref"
        assert calls[:12] == [
            (a0, "batched"), (ref, "batched"),
            (a0, "unrolled"), (ref, "unrolled"),
            (ref, "unrolled"), (a0, "unrolled"),
            (ref, "batched"), (a0, "batched"),
            (a0, "batched"), (ref, "batched"),
            (a0, "unrolled"), (ref, "unrolled")]
        for mode in MODES:
            row = report["variants"]["CoSNet-A0"][mode]
            # (variant call, control call): batched (1, 2), (8, 7) and
            # (9, 10), ratios 1, 16/7 and 1.8; unrolled (3, 4), (6, 5) and
            # (11, 12), ratios 1.5, 2.4 and 11/6
            assert row["ratio_to_control"] == pytest.approx(
                {"batched": 1.8, "unrolled": 11 / 6}[mode])

    @pytest.mark.parametrize("argv", [["bench"], ["bench", "mini", "--all"]])
    def test_all_or_a_model(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "a model or --all" in capsys.readouterr().err


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


# Each subcommand with its numeric flags and its boolean flags.  The CLI
# property draws every numeric flag from {-1, 0, 1, 2} and every boolean
# flag on or off; the fixed arguments keep each run small.
_CLI_SURFACE = {
    "describe": (["describe", "mini"], ["--input-res"], []),
    "analyze": (["analyze", "mini"], ["--input-res"],
                ["--compare-reference", "--calibrate"]),
    "verify": (["verify", "mini"],
               ["--trials", "--seed", "--tol", "--input-res", "--batch"], []),
    "gradcheck": (["gradcheck"],
                  ["--in-channels", "--squeeze", "--expand", "--columns",
                   "--kernels", "--column-depth", "--size", "--eps", "--tol",
                   "--seed"],
                  ["--pff", "--no-downsample"]),
    "train": (["train", "mini"],
              ["--synth-count", "--epochs", "--batch-size", "--lr",
               "--momentum", "--weight-decay", "--seed"],
              ["--deterministic"]),
    "bench": (["bench", "mini"],
              ["--input-res", "--batch", "--warmup", "--iters"],
              ["--json", "--all"]),
    "export": (["export", "CoSNet-A0"], [], []),
}


@st.composite
def _cli_argv(draw):
    argv, numeric, flags = _CLI_SURFACE[draw(st.sampled_from(
        sorted(_CLI_SURFACE)))]
    argv = list(argv)
    for flag in numeric:
        argv += [flag, str(draw(st.sampled_from([-1, 0, 1, 2])))]
    return argv + [flag for flag in flags if draw(st.booleans())]


@settings(max_examples=120, deadline=None)
@given(argv=_cli_argv())
def test_any_small_numeric_flags_exit_cleanly(argv):
    """Every run ends in exit 0, 1 or 2 with no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv

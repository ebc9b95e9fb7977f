"""Checks of the benchmark's float64 reference against convolutions
computed by hand on tiny inputs.

    python3 -m pytest perfbench/test_reference.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cosnet.analysis import count_flops  # noqa: E402
from cosnet.arch import build_mini_network  # noqa: E402
from cosnet.graph import GraphBuilder  # noqa: E402
from cosnet.ops import ConvParams  # noqa: E402

import reference  # noqa: E402


def test_conv_2x2_by_hand():
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    w = np.array([[1.0, 0.0], [0.0, -1.0]]).reshape(1, 1, 2, 2)
    y, macs = reference.conv(x, w, None, (1, 1), (0, 0), 1)
    # each output is x[i, j] - x[i+1, j+1] = -4
    np.testing.assert_array_equal(y, np.full((1, 1, 2, 2), -4.0))
    assert macs == 2 * 2 * 2 * 2


def test_conv_stride_pad_by_hand():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    w = np.ones((1, 1, 3, 3))
    y, macs = reference.conv(x, w, np.array([0.5]), (2, 2), (1, 1), 1)
    # windows centred on (0,0), (0,2), (2,0), (2,2); zero padding
    want = np.array([[0 + 1 + 4 + 5, 1 + 2 + 3 + 5 + 6 + 7],
                     [4 + 5 + 8 + 9 + 12 + 13,
                      5 + 6 + 7 + 9 + 10 + 11 + 13 + 14 + 15]]) + 0.5
    np.testing.assert_array_equal(y[0, 0], want)
    assert macs == 9 * 2 * 2


def test_grouped_conv_keeps_groups_apart():
    x = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 10.0)])[None]
    w = np.array([2.0, 3.0, -1.0, 4.0]).reshape(4, 1, 1, 1)
    y, macs = reference.conv(x, w, None, (1, 1), (0, 0), 2)
    # outputs 0,1 read channel 0 only; outputs 2,3 read channel 1 only
    np.testing.assert_array_equal(y[0, :, 0, 0], [2.0, 3.0, -10.0, 40.0])
    assert macs == 4 * 1 * 2 * 2


def test_pooling_by_hand():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    np.testing.assert_array_equal(
        reference.pool(x, "max", (2, 2), (2, 2), (0, 0))[0, 0],
        [[5.0, 7.0], [13.0, 15.0]])
    avg = reference.pool(x, "avg", (3, 3), (1, 1), (1, 1))
    assert avg[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 9)
    assert avg[0, 0, 1, 1] == pytest.approx(45.0 / 9)


def test_replicated_columns_by_hand():
    """input -> replicate x2 -> grouped 1x1 conv -> block sum is the
    input scaled by the sum of the two column weights."""
    b = GraphBuilder()
    x = b.add("input", name="input")
    ir = b.add("ir", [x], "ir", m=2)
    conv = b.add("conv", [ir], "col", params=ConvParams(
        out_channels=2, in_channels=2, groups=2))
    fuse = b.add("block_sum", [conv], "fuse", m=2)
    g = b.freeze(b.add("output", [fuse], "output"))
    g.weights[conv]["weight"][...] = np.array([3.0, -1.0]).reshape(2, 1, 1, 1)
    xin = np.arange(4.0).reshape(1, 1, 2, 2)
    y, macs = reference.forward(g, xin)
    np.testing.assert_array_equal(y, 2.0 * xin)
    assert macs == 2 * 2 * 2


def test_macs_match_the_analyzer():
    g = build_mini_network(seed=0)
    xin = np.random.default_rng(0).uniform(size=(3, 3, 32, 32))
    y, macs = reference.forward(g, xin)
    assert y.shape == (3, 10, 1, 1)
    assert macs == 3 * count_flops(g, xin.shape)

from types import SimpleNamespace

import numpy as np
import pytest

from cosnet.graph import LayerNode
from cosnet.runtime import INPUT_ID, PlanStep
from cosnet.tensor import deterministic_enabled, set_deterministic


@pytest.fixture(autouse=True)
def _deterministic_mode_restored():
    """Fail a test that leaves the process-wide deterministic flag changed,
    then restore the flag so the rest of the suite runs as configured."""
    before = deterministic_enabled()
    yield
    after = deterministic_enabled()
    set_deterministic(before)
    if after != before:
        pytest.fail(f"test left deterministic mode {'on' if after else 'off'}")


def swap_nc(a):
    """``a`` with its first two axes swapped, C-contiguous: an (n, c, h, w)
    array in the kernels' channel-major (c, n, h, w) layout, and back."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


def numeric_grad(f, arr, eps=1e-5):
    """Central finite differences of a scalar function w.r.t. an array."""
    arr = np.asarray(arr, dtype=np.float64)
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = f(arr)
        flat[i] = orig - eps
        lm = f(arr)
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * eps)
    return g


def max_rel_err(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float((np.abs(a - n) / denom).max())


class PlanAsGraph:
    """A plan seen as a graph (``order`` and ``node``), the way the
    benchmark's byte tracker walks plan steps with ``infer_shapes``."""

    def __init__(self, p):
        self.order = [INPUT_ID] + [s.id for s in p.steps]
        self._steps = {s.id: s for s in p.steps}
        self._steps[INPUT_ID] = LayerNode(INPUT_ID, "input", {}, (), "input")

    def node(self, nid):
        return self._steps[nid]


def node_program(g):
    """The graph's nodes as a step program, one step per non-input node
    reading its own weight table: no replication fold, each grouped conv
    over its replicated input.  The reference the batched plan is checked
    against; it has no weight table of its own, so pass ``weights``."""
    return SimpleNamespace(
        steps=[PlanStep(n.id, n.kind, n.config, n.inputs, n.name,
                        src_node=n.id)
               for n in map(g.node, g.order) if n.id != g.input_id],
        input_id=g.input_id, output_id=g.output_id)

"""The benchmark session (``perfbench/session.py``) and its float64 reference
(``perfbench/reference.py``) against the package: every library name they
read must exist, so that a renamed or deleted one fails here rather than only
inside a benchmark run.  Both files are loaded and read, never changed."""

import ast
import importlib.util
import sys
from math import prod
from pathlib import Path

import numpy as np
import pytest

import cosnet
from cosnet import analysis, arch, graph, runtime, tensor, training
from cosnet.arch import build_mini_network, registry_lookup
from cosnet.runtime import INPUT_ID, MODES

from conftest import PlanAsGraph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"cosnet": cosnet, "analysis": analysis, "arch": arch,
           "graph": graph, "runtime": runtime, "tensor": tensor,
           "training": training}


def _session():
    """``perfbench/session.py`` as a module; ``perfbench/`` is on the path
    while it loads, for its ``import reference``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_session", PERFBENCH / "session.py")
    mod = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = mod   # dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return mod


def _module_attributes(path):
    """Every ``<module>.<name>`` that ``path`` reads from a cosnet module
    bound by one of :data:`MODULES`' names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}


def test_every_module_attribute_resolves():
    used = _module_attributes(PERFBENCH / "session.py")
    assert ("runtime", "plans_identical") in used
    assert ("graph", "infer_shapes") in used
    missing = {f"{mod}.{attr}" for mod, attr in used
               if not hasattr(MODULES[mod], attr)}
    assert not missing


def test_every_object_attribute_resolves():
    """The attributes of graphs, plans, tensors and data sets that the
    session and the reference read off the objects the library returns
    (the reference imports no cosnet module: it reads a graph's fields)."""
    g = build_mini_network(columns=2, seed=0)
    p = runtime.plan(g, "unrolled")
    conv = next(n for n in map(g.node, g.order) if n.kind == "conv")
    x = tensor.Tensor(np.zeros((2, 3, 32, 32), np.float32))
    reads = [(g, ("nodes", "order", "weights", "output_id", "copy_weights")),
             (conv, ("kind", "config", "inputs")),
             (conv.config["params"], ("stride", "pad", "groups")),
             (p, ("num_steps", "steps")),
             (p.steps[0], ("id", "inputs")),
             (x, ("n", "data", "shape")),
             (training.synth_dataset(count=8, seed=0),
              ("images", "labels", "test_idx"))]
    missing = {f"{type(obj).__name__}.{attr}"
               for obj, attrs in reads for attr in attrs
               if not hasattr(obj, attr)}
    assert not missing
    assert p.num_steps() == len(p.steps)
    assert x.n == 2


def _live_bytes(p, input_shape, itemsize=4):
    """Peak bytes of live plan tensors under ``graph.last_reads``."""
    shapes = graph.infer_shapes(PlanAsGraph(p), input_shape)
    size = {k: prod(v) * itemsize for k, v in shapes.items()}
    live = peak = size[INPUT_ID]
    for s, dead in zip(p.steps, graph.last_reads(p)):
        live += size[s.id]
        peak = max(peak, live)
        live -= sum(size[d] for d in dead)
    return peak


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["CoSNet-A0", "CoSNet-C2-PFF"])
def test_peak_live_bytes_follow_the_lifetime_rule(name, mode):
    session = _session()
    p = runtime.plan(arch.build_network(registry_lookup(name), init=False),
                     mode)
    shape = (2, 3, 64, 64)
    assert session.peak_live_bytes(p, shape) == _live_bytes(p, shape)

"""The benchmark session (``perfbench/session.py``), its float64 reference
(``perfbench/reference.py``) and the reference's tests
(``perfbench/test_reference.py``) against the package: every library name
they read must exist, and every call they make into the package must fit
its callee's signature, so that a renamed or deleted name or parameter fails
here rather than only inside a benchmark run.  The files are loaded and
read, never changed."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
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


_MISSING = object()


def _cosnet_object(node, bound):
    """The package object that the expression ``node`` names, through the
    names in ``bound``: a bound name, or an attribute of a package module;
    :data:`_MISSING` for an attribute the module lacks, and None for an
    expression that names nothing in the package.  A name bound to an
    instance of a package class (``bound`` maps it to ``("instance",
    cls)``) names that class's methods, returned as ``("method",
    function)``."""
    if isinstance(node, ast.Name):
        obj = bound.get(node.id)
        return obj if not isinstance(obj, tuple) else None
    if not isinstance(node, ast.Attribute):
        return None
    if isinstance(node.value, ast.Name) and isinstance(
            bound.get(node.value.id), tuple):
        method = getattr(bound[node.value.id][1], node.attr, _MISSING)
        return ("method", method) if method is not _MISSING else _MISSING
    owner = _cosnet_object(node.value, bound)
    if inspect.ismodule(owner):
        return getattr(owner, node.attr, _MISSING)
    return None


def _signature(obj):
    if isinstance(obj, tuple):   # an unbound method: drop ``self``
        sig = inspect.signature(obj[1])
        return sig.replace(parameters=list(sig.parameters.values())[1:])
    return inspect.signature(obj)


def _package_calls(source, namespace):
    """Every call ``source`` makes into the package, as (label, positional
    count, keywords, problem).  ``problem`` is None when the callee takes
    that many positional arguments and every keyword given; a call through
    ``<obj>.op(fn, *args, **kwargs)`` is checked as ``fn(*args,
    **kwargs)``, and ``**name`` contributes the keys of the dict that
    ``namespace`` binds to ``name``."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cosnet":
                    bound[alias.asname or alias.name] = \
                        importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "cosnet":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(mod, alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            cls = _cosnet_object(node.value.func, bound)
            if inspect.isclass(cls):
                bound[node.targets[0].id] = ("instance", cls)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute) and func.attr == "op" and args:
            func, args = args[0], args[1:]
        obj = _cosnet_object(func, bound)
        if obj is None:
            continue
        label = ast.unparse(func)
        if obj is _MISSING or not callable(
                obj[1] if isinstance(obj, tuple) else obj):
            calls.append((label, len(args), set(), "names nothing callable"))
            continue
        keywords, problem = set(), None
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
            elif isinstance(kw.value, ast.Name) and isinstance(
                    namespace.get(kw.value.id), dict):
                keywords.update(namespace[kw.value.id])
            else:
                problem = f"cannot resolve **{ast.unparse(kw.value)}"
        if any(isinstance(a, ast.Starred) for a in args):
            problem = problem or "cannot count *args"
        try:
            _signature(obj).bind_partial(*args, **dict.fromkeys(keywords))
        except TypeError as exc:
            problem = problem or str(exc)
        calls.append((label, len(args), keywords, problem))
    return calls


def test_every_package_call_fits_its_signature():
    calls = _package_calls((PERFBENCH / "session.py").read_text(
        encoding="utf-8"), vars(_session()))
    calls += _package_calls((PERFBENCH / "test_reference.py").read_text(
        encoding="utf-8"), {})
    assert [c for c in calls if c[3] is not None] == []
    made = {(label, npos, frozenset(kws)) for label, npos, kws, _ in calls}
    # the calls whose keywords the benchmark depends on were all seen,
    # including those through ``Session.op`` and ``**TRAIN_CONFIG``
    assert ("runtime.execute", 2, frozenset({"weights"})) in made
    assert ("training.evaluate", 3, frozenset()) in made
    assert ("training.TrainConfig", 0, frozenset(
        {"epochs", "seed", "batch_size", "lr"})) in made
    assert ("arch.build_mini_network", 0, frozenset({"columns",
                                                     "seed"})) in made
    assert ("training.synth_dataset", 0, frozenset({"count", "seed"})) in made
    assert ("graph.graph_forward", 2, frozenset({"mode"})) in made
    assert ("b.add", 3, frozenset({"m"})) in made
    assert ("ConvParams", 0, frozenset(
        {"out_channels", "in_channels", "groups"})) in made


def test_a_call_that_does_not_fit_is_reported():
    source = textwrap.dedent("""
        from cosnet import arch, runtime
        from cosnet.graph import GraphBuilder
        b = GraphBuilder()
        b.freeze(1, 2, 3, 4)
        runtime.execute(p, x, weight=w)
        self.op(runtime.execute, p, x, w, 4)
        arch.build_mini_network(kernels=4)
        arch.no_such_builder()
        arch.build_network(**options)
        arch.build_network(spec, **SETTINGS)
    """)
    calls = _package_calls(source, {"SETTINGS": {"seed": 0, "depth": 3}})
    problems = {label: problem for label, _, _, problem in calls}
    assert set(problems) == {"GraphBuilder", "b.freeze", "runtime.execute",
                             "arch.build_mini_network", "arch.no_such_builder",
                             "arch.build_network"}
    assert problems["GraphBuilder"] is None
    assert [p for label, _, _, p in calls if label == "runtime.execute"] == [
        "got an unexpected keyword argument 'weight'",
        "too many positional arguments"]
    assert "too many positional" in problems["b.freeze"]
    assert "kernels" in problems["arch.build_mini_network"]
    assert problems["arch.no_such_builder"] == "names nothing callable"
    assert [p for label, _, _, p in calls if label == "arch.build_network"] \
        == ["cannot resolve **options",
            "got an unexpected keyword argument 'depth'"]

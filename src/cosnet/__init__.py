"""Columnar stage network construction kit, reference execution engine, and
static analyzer."""

from .arch import (REGISTRY, UnitConfig, VariantSpec, build_mini_network,
                   build_network, build_unit_graph, parse_variant_text,
                   registry_lookup, render_variant_text)
from .errors import CosnetError
from .graph import Graph, GraphBuilder, grad_check, graph_backward, \
    graph_forward, infer_shapes
from .runtime import equivalence_check, execute, plan
from .tensor import Tensor, set_deterministic, tensor_create

__version__ = "0.1.0"

__all__ = [
    "REGISTRY", "UnitConfig", "VariantSpec", "build_mini_network",
    "build_network", "build_unit_graph", "parse_variant_text",
    "registry_lookup", "render_variant_text", "CosnetError", "Graph",
    "GraphBuilder", "grad_check", "graph_backward", "graph_forward",
    "infer_shapes", "equivalence_check", "execute", "plan", "Tensor",
    "set_deterministic", "tensor_create", "__version__",
]

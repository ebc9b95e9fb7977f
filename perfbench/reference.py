"""Independent float64 forward pass over a cosnet graph, in plain numpy.

It reads a graph's nodes and weight table and nothing else: no function of
``cosnet.tensor``, ``ops``, ``graph`` or ``runtime`` is called, so a fault
in the engine's kernels cannot hide by also being in the check.  Batch norm
runs in eval mode (running statistics), as ``runtime.execute`` does.

Alongside the output it counts the multiply-accumulates it performs, over
the whole batch, so the count can be compared with the analyzer's.
"""

from __future__ import annotations

import numpy as np


def _out_size(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def conv(x, weight, bias, stride, pad, groups):
    """Grouped 2-D cross-correlation; returns (output, MACs performed)."""
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    g = groups
    cout_g = cout // g
    sh, sw = stride
    ph, pw = pad
    ho, wo = _out_size(h, kh, sh, ph), _out_size(w, kw, sw, pw)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    wg = weight.astype(np.float64).reshape(g, cout_g, cin_g, kh, kw)
    out = np.zeros((n, g, cout_g, ho, wo))
    for ki in range(kh):
        for kj in range(kw):
            patch = xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
            patch = patch.reshape(n, g, cin_g, ho, wo)
            out += np.einsum("goc,ngchw->ngohw", wg[:, :, :, ki, kj], patch)
    out = out.reshape(n, cout, ho, wo)
    if bias is not None:
        out += bias.astype(np.float64)[None, :, None, None]
    return out, n * cout * cin_g * kh * kw * ho * wo


def pool(x, kind, kernel, stride, pad):
    """Max or mean over each window; the mean divides by the full window,
    padding included."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    ho, wo = _out_size(h, kh, sh, ph), _out_size(w, kw, sw, pw)
    fill = -np.inf if kind == "max" else 0.0
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    wins = [xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
            for ki in range(kh) for kj in range(kw)]
    if kind == "max":
        return np.max(wins, axis=0)
    return np.sum(wins, axis=0) / (kh * kw)


def forward(graph, x, weights=None):
    """Evaluate ``graph`` on ``x`` in float64 with ``weights`` (default: the
    graph's own table); returns (output, MACs)."""
    weights = graph.weights if weights is None else weights
    uses = {nid: 0 for nid in graph.order}
    for nid in graph.order:
        for src in graph.nodes[nid].inputs:
            uses[src] += 1
    acts = {}
    macs = 0
    for nid in graph.order:
        node = graph.nodes[nid]
        cfg = node.config
        table = weights.get(nid, {})
        ins = [acts[src] for src in node.inputs]
        kind = node.kind
        if kind == "input":
            y = np.asarray(x, dtype=np.float64)
        elif kind == "conv":
            p = cfg["params"]
            y, m = conv(ins[0], table["weight"], table.get("bias"),
                        p.stride, p.pad, p.groups)
            macs += m
        elif kind == "bn":
            eps = cfg.get("epsilon", 1e-5)
            scale = table["gamma"].astype(np.float64) / np.sqrt(
                table["running_var"].astype(np.float64) + eps)
            shift = (table["beta"].astype(np.float64)
                     - table["running_mean"].astype(np.float64) * scale)
            y = (ins[0] * scale[None, :, None, None]
                 + shift[None, :, None, None])
        elif kind == "relu":
            y = np.maximum(ins[0], 0.0)
        elif kind in ("pool_max", "pool_avg"):
            y = pool(ins[0], kind[5:], cfg["kernel"], cfg["stride"],
                     cfg["pad"])
        elif kind == "gap":
            y = ins[0].mean(axis=(2, 3), keepdims=True)
        elif kind == "linear":
            n, c = ins[0].shape[:2]
            wt = table["weight"].astype(np.float64)
            y = ins[0].reshape(n, c) @ wt.T + table["bias"].astype(np.float64)
            y = y[:, :, None, None]
            macs += n * wt.shape[0] * wt.shape[1]
        elif kind == "ir":
            y = np.concatenate([ins[0]] * cfg["m"], axis=1)
        elif kind == "concat":
            y = np.concatenate(ins, axis=1)
        elif kind == "block_sum":
            n, c, h, w = ins[0].shape
            m = cfg["m"]
            y = ins[0].reshape(n, m, c // m, h, w).sum(axis=1)
        elif kind == "slice":
            y = ins[0][:, cfg["start"]:cfg["stop"]]
        elif kind == "add":
            y = sum(ins[1:], ins[0])
        elif kind == "output":
            y = ins[0]
        else:
            raise ValueError(f"reference has no rule for node kind {kind!r}")
        acts[nid] = y
        for src in node.inputs:      # free at last use to bound memory
            uses[src] -= 1
            if uses[src] == 0 and src != graph.output_id:
                del acts[src]
    return acts[graph.output_id], macs

"""Per-layer metrics derived from the tracer's spans.

Time and MAC metrics are per op (one training step or one manifest entry),
averaged over the steady ops of the traced sessions: every op but the first
of its session. Per-call metrics (``*.load_s``, ``optim.adam_step.s``, ...)
average over every traced call. ``*_mb`` values are computed from array
sizes, not measured. A layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import CONV_KINDS, POINTWISE

MB = 1e6
MAC_OPS = ("tensor.conv2d", "tensor.conv2d_transpose",
           "deform.modulated_deform_conv2d", "model.bilinear_upsample_x2")

UNITS = {"gmac_s": "GMAC/s", "gmac": "GMAC", "calls": "count",
         "nodes": "count", "pct": "%", "mb": "MB_computed",
         "mb_per_op": "MB_computed", "s": "s"}


def metric_names() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    names = []
    for kind in CONV_KINDS:
        names += [f"tensor.conv2d.{kind}.{m}" for m in
                  ("fwd_s", "bwd_s", "gmac", "fwd_gmac_s", "bwd_gmac_s")]
    names += ["tensor.conv2d_transpose.fwd_s", "tensor.conv2d_transpose.bwd_s",
              "tensor.conv2d_transpose.fwd_gmac_s"]
    names += [f"deform.{m}" for m in
              ("fwd_s", "bwd_s", "gmac", "fwd_gmac_s", "bwd_gmac_s")]
    names += ["tensor.pointwise.calls", "tensor.pointwise.fwd_s",
              "tensor.pointwise.bwd_s", "tensor.backward.self_s",
              "tensor.backward.nodes", "model.forward.self_s",
              "model.forward.gmac", "model.upsample_x2.fwd_s",
              "model.upsample_x2.bwd_s", "training.forward_s",
              "training.backward_s", "training.adam_s", "training.batch_s",
              "optim.adam_step.s", "optim.adam_step.mb",
              "tensor.conv2d.held_mb", "deform.held_mb",
              "tensor.conv2d.moved_mb", "deform.moved_mb",
              "tensor.retained_mb_per_op", "checkpoint.load_s",
              "checkpoint.load_mb", "checkpoint.save_s", "checkpoint.save_mb",
              "data.load_image_s", "data.load_image_mb", "metrics.ssim_s",
              "metrics.psnr_s", "blas.sgemm_gmac_s", "trace.overhead_pct"]
    return {n: _unit(n) for n in names}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    for suffix, unit in UNITS.items():
        if last == suffix or last.endswith("_" + suffix):
            return unit
    raise KeyError(name)


def _op_of(spans, ops):
    """Index of the op whose [start, end) holds each span's start, or -1."""
    bounds = sorted((op["start"], op["end"], i) for i, op in enumerate(ops))
    out = []
    j = 0
    for span in sorted(range(len(spans)), key=lambda k: spans[k][1]):
        start = spans[span][1]
        while j < len(bounds) and bounds[j][1] <= start:
            j += 1
        inside = j < len(bounds) and bounds[j][0] <= start
        out.append((span, bounds[j][2] if inside else -1))
    result = [-1] * len(spans)
    for span, op in out:
        result[span] = op
    return result


# Calls timed one by one: span name -> metric prefix.
PER_CALL = {"checkpoint.load_checkpoint": "checkpoint.load",
            "checkpoint.save_checkpoint": "checkpoint.save",
            "data.load_image": "data.load_image",
            "metrics.psnr": "metrics.psnr", "metrics.ssim": "metrics.ssim",
            "optim.adam_step": "optim.adam_step."}
OP_KEYS = {"tensor.conv2d_transpose": "tensor.conv2d_transpose",
           "deform.modulated_deform_conv2d": "deform",
           "model.bilinear_upsample_x2": "model.upsample_x2"}


def summarize(spans, ops) -> dict:
    """Sums over one process's traced spans; ``finalize`` turns the sums of
    one or more processes into metrics. Also tags each span with its op."""
    for i, op in enumerate(_op_of(spans, ops)):
        spans[i][4] = op
    steady = {i for i, op in enumerate(ops) if op["traced"] and op["pos"] > 0}
    acc = defaultdict(float)
    children = defaultdict(float)
    child_count = defaultdict(int)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            children[parent] += end - start
            child_count[parent] += 1
    for idx, (name, start, end, parent, op, attrs) in enumerate(spans):
        dur = end - start
        attrs = attrs or {}
        if name in PER_CALL:
            key = PER_CALL[name]
            acc[key + "calls"] += 1
            acc[key + "_s_sum"] += dur
            acc[key + "_mb_sum"] += attrs.get("bytes", 0) / MB
        if op not in steady:
            continue
        base = name[:-4] if name.endswith(".bwd") else name
        phase = "bwd" if name.endswith(".bwd") else "fwd"
        if base == "tensor.conv2d" or base in OP_KEYS:
            key = (f"tensor.conv2d.{attrs['kind']}" if base == "tensor.conv2d"
                   else OP_KEYS[base])
            acc[f"{key}.{phase}_s"] += dur
            acc[f"{key}.{phase}_gmac"] += attrs.get(
                "macs" if phase == "fwd" else "bwd_macs", 0) / 1e9
            if phase == "fwd":
                acc["model.forward.gmac"] += attrs["macs"] / 1e9
                prefix = "deform" if key == "deform" else "tensor.conv2d"
                acc[prefix + ".held_mb"] += attrs.get("held", 0) / MB
                acc[prefix + ".moved_mb"] += attrs.get("moved", 0) / MB
        elif base.startswith("tensor.") and base[7:] in POINTWISE:
            acc[f"tensor.pointwise.{phase}_s"] += dur
            acc["tensor.pointwise.calls"] += phase == "fwd"
            if base == "tensor.loss" and phase == "fwd":
                acc["training.forward_s"] += dur
        elif name == "tensor.backward":
            acc["tensor.backward.self_s"] += dur - children[idx]
            acc["tensor.backward.nodes"] += child_count[idx]
            acc["training.backward_s"] += dur
        elif name == "model.forward":
            acc["model.forward.self_s"] += dur - children[idx]
            if ops[op]["kind"] == "train":
                acc["training.forward_s"] += dur
                acc["training.batch_s"] += start - ops[op]["start"]
        elif name == "optim.adam_step":
            acc["training.adam_s"] += dur
    acc["steady_ops"] = len(steady)
    return dict(acc)


def finalize(parts, session_recs, sgemm) -> dict:
    """Per-layer metrics from the ``summarize`` sums of every traced process."""
    acc = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            acc[key] += value
    n = max(acc["steady_ops"], 1)
    out = {}
    for name in metric_names():
        out[name] = acc.get(name, 0.0) / n
    out["deform.gmac"] = acc["deform.fwd_gmac"] / n
    for kind in CONV_KINDS:
        out[f"tensor.conv2d.{kind}.gmac"] = (
            acc[f"tensor.conv2d.{kind}.fwd_gmac"] / n)
    for key in [f"tensor.conv2d.{k}" for k in CONV_KINDS] + [
            "tensor.conv2d_transpose", "deform"]:
        for phase in ("fwd", "bwd"):
            name = f"{key}.{phase}_gmac_s"
            if name in out:
                t = acc[f"{key}.{phase}_s"]
                out[name] = acc[f"{key}.{phase}_gmac"] / t if t else 0.0
    for prefix in PER_CALL.values():
        calls = acc[prefix + "calls"]
        for suffix in ("_s", "_mb"):
            name = (prefix + suffix[1:]) if prefix.endswith(".") else (
                prefix + suffix)
            if name in out:
                out[name] = (acc[prefix + suffix + "_sum"] / calls
                             if calls else 0.0)

    traced = [r for r in session_recs if r.get("traced") and r["planned"]]
    traced_ops = sum(r["planned"] for r in traced)
    out["tensor.retained_mb_per_op"] = (
        sum(b for r in traced for b in r.get("retained", [])) / traced_ops
        / MB if traced_ops else 0.0)
    base = [t for r in session_recs if not r.get("traced") and r.get("ops")
            for t in r["ops"][1:]]
    with_trace = [t for r in traced if r.get("ops") for t in r["ops"][1:]]
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(with_trace) / statistics.median(base) - 1)
        if base and with_trace else 0.0)
    out["blas.sgemm_gmac_s"] = sgemm
    return out


def mac_check(spans, modules):
    """Sum the MACs of the first traced forward and compare to the model's
    own ``count_params_flops`` for the same shape and batch."""
    fwd = next((i for i, s in enumerate(spans) if s[0] == "model.forward"),
               None)
    if fwd is None:
        return {"ok": False, "reason": "no traced forward"}
    _, start, end, _, _, attrs = spans[fwd]
    by_layer = defaultdict(int)
    for name, s_start, _, _, _, s_attrs in spans:
        if name in MAC_OPS and start <= s_start <= end:
            by_layer[s_attrs["layer"]] += s_attrs["macs"]
    shape = attrs["shape"]
    params, flops = modules["model"].count_params_flops(attrs["config"], shape)
    traced = sum(by_layer.values())
    expected = shape[0] * flops
    groups = defaultdict(int)
    for layer, macs in by_layer.items():
        groups[_group(layer)] += macs
    check = {"ok": traced == expected, "traced_macs": traced,
             "count_params_flops_macs": expected, "shape": list(shape),
             "params": params,
             "gmac_by_group": {k: v / 1e9 for k, v in sorted(groups.items())}}
    check["macs_by_layer"] = dict(by_layer)
    return check


def _group(layer: str) -> str:
    """``enc.0.res0.conv1`` -> ``enc``; ``rsab.2.0.dconv`` -> ``rsab.dconv``."""
    parts = layer.split(".")
    if parts[0] == "rsab":
        return "rsab." + ("dconv" if parts[-1] == "dconv" else "conv")
    return parts[0]

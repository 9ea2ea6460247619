"""Span tracer that wraps sadnet's public functions from outside.

Nothing inside ``src/`` is changed: ``Tracer.install`` re-binds module
attributes (and the two ``SADNet``/``Tensor`` methods) to timing wrappers,
and ``Tracer.uninstall`` puts every original object back. Each op wrapper
also wraps the backward closure it leaves on its output tensor, so backward
time is attributed to the op that built the closure.

A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
index of the enclosing span or -1, ``op`` the index of the op (training
step or manifest entry) whose time interval holds the start, or -1. Spans
stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import gc
import json
import time

import numpy as np

_WRAPPED = "__perfbench_wrapped__"

# Element-wise tensor ops, aggregated as ``tensor.pointwise``.
POINTWISE = ("leaky_relu", "sigmoid", "add", "mul", "concat_channels",
             "slice_channels", "scale", "tensor_sum", "loss", "crop_or_pad")

CONV_KINDS = ("k3", "k3_dil", "k1", "k2s2")


def conv_kind(weight_shape, stride, dilation) -> str:
    kh = weight_shape[2]
    if kh == 1:
        return "k1"
    if tuple(stride) != (1, 1):
        return "k2s2"
    return "k3_dil" if tuple(dilation) != (1, 1) else "k3"


def held_bytes(closure_fn) -> int:
    """Bytes of arrays a backward closure keeps alive besides graph tensors.

    Walks the closure cells (and nested closures, lists and tuples) and sums
    each distinct owning buffer once. Tensors are not entered: their data
    are activations and parameters, not state saved for backward.
    """
    seen: set[int] = set()
    total = 0
    stack = [closure_fn]
    visited: set[int] = set()
    while stack:
        obj = stack.pop()
        if id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = obj
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            if id(owner) not in seen:
                seen.add(id(owner))
                total += owner.nbytes
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(c.cell_contents for c in obj.__closure__
                         if _cell_full(c))
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return total


def _cell_full(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def garbage_bytes() -> int:
    """Array bytes that only the cyclic collector frees, then free them.

    Runs a full collection that saves what it finds, sums the distinct
    array buffers those objects reference, and collects again to release
    them.
    """
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
    finally:
        gc.set_debug(0)
    seen: set[int] = set()
    total = 0
    for obj in gc.garbage:
        for ref in gc.get_referents(obj):
            if isinstance(ref, np.ndarray):
                owner = ref
                while isinstance(owner.base, np.ndarray):
                    owner = owner.base
                if id(owner) not in seen:
                    seen.add(id(owner))
                    total += owner.nbytes
    gc.garbage.clear()
    gc.collect()
    return total


def _shape(t):
    return tuple(int(d) for d in t.shape)


class Tracer:
    """Owns the span list and the set of installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._names: dict[int, str] = {}
        self.before: dict[str, object] = {}

    # -- spans ------------------------------------------------------------

    def open(self, name: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        # the op index is filled in afterwards, from op boundary times
        self.spans.append([name, time.monotonic(), 0.0, parent, -1, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _plain(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook = tracer.before.get(name)
            if hook is not None:
                hook(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._annotate(name, idx, args, kwargs, out)
            return out

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def _op(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            attrs = tracer._op_attrs(name, args, kwargs, out)
            tracer.spans[idx][5] = attrs
            back = out._backward
            if back is not None:
                if name in ("tensor.conv2d", "deform.modulated_deform_conv2d"):
                    attrs["held"] = held_bytes(back)
                out._backward = tracer._timed_backward(back, name + ".bwd",
                                                       attrs)
            return out

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def _timed_backward(self, back, name, attrs):
        tracer = self

        def timed():
            idx = tracer.open(name, attrs)
            try:
                back()
            finally:
                tracer.close(idx)

        return timed

    def _forward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, x):
            names = tracer._names
            names.clear()
            for pname, p in model.params():
                if pname.endswith(".weight"):
                    names[id(p)] = pname[:-len(".weight")]
            idx = tracer.open("model.forward",
                              {"shape": _shape(x), "config": model.config})
            try:
                return fn(model, x)
            finally:
                tracer.close(idx)

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def _backward_method(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(t):
            idx = tracer.open("tensor.backward")
            try:
                return fn(t)
            finally:
                tracer.close(idx)

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def _op_attrs(self, name, args, kwargs, out) -> dict:
        """MACs per the conventions of ``count_params_flops``."""
        x = args[0]
        if not hasattr(x, "shape"):  # loss(kind, prediction, target)
            return {}
        n = x.shape[0]
        if name == "tensor.conv2d":
            weight = args[1]
            o, c, kh, kw = weight.shape
            stride = _arg(args, kwargs, 3, "stride", (1, 1))
            dilation = _arg(args, kwargs, 4, "dilation", (1, 1))
            _, _, oh, ow = out.shape
            macs = n * oh * ow * o * c * kh * kw
            return {"kind": conv_kind(weight.shape, stride, dilation),
                    "macs": macs, "bwd_macs": macs * (1 + x.requires_grad),
                    "layer": self._names.get(id(weight), "?"),
                    "moved": x.data.nbytes + out.data.nbytes
                    + weight.data.nbytes + n * c * oh * ow * kh * kw
                    * x.data.itemsize}
        if name == "tensor.conv2d_transpose":
            weight = args[1]
            o, c, kh, kw = weight.shape
            _, _, h, w = x.shape
            macs = n * h * w * c * o * kh * kw
            return {"macs": macs, "bwd_macs": macs * (1 + x.requires_grad),
                    "layer": self._names.get(id(weight), "?")}
        if name == "deform.modulated_deform_conv2d":
            weight = args[1]
            o, c, kh, kw = weight.shape
            k = kh * kw
            _, _, oh, ow = out.shape
            conv = n * oh * ow * o * c * k
            extra = n * oh * ow * k * (5 * c + 10)
            return {"macs": conv + extra, "bwd_macs": 2 * conv + extra,
                    "layer": self._names.get(id(weight), "?"),
                    "moved": x.data.nbytes + out.data.nbytes
                    + weight.data.nbytes + args[3].data.nbytes
                    + args[4].data.nbytes + 4 * n * c * oh * ow * k
                    * x.data.itemsize}
        if name == "model.bilinear_upsample_x2":
            _, c, oh, ow = out.shape
            return {"macs": 8 * n * c * oh * ow, "layer": "field_upsample"}
        return {}

    def _annotate(self, name, idx, args, kwargs, out) -> None:
        if name == "data.load_image":
            self.spans[idx][5] = {"bytes": int(out.samples.nbytes)}
        elif name == "checkpoint.load_checkpoint":
            self.spans[idx][5] = {"bytes": _param_bytes(out.model, out.adam)}
        elif name == "checkpoint.save_checkpoint":
            self.spans[idx][5] = {"bytes": _param_bytes(args[1], args[2])}
        elif name == "optim.adam_step":
            nbytes = sum(p.data.nbytes for _, p in args[0])
            self.spans[idx][5] = {"bytes": 4 * nbytes}

    # -- install / uninstall ---------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every traced function wherever a sadnet module binds it."""
        tensor, deform, model = (modules["tensor"], modules["deform"],
                                 modules["model"])
        targets = [(getattr(tensor, f), "tensor." + f, self._op)
                   for f in ("conv2d", "conv2d_transpose") + POINTWISE
                   if hasattr(tensor, f)]
        targets += [
            (deform.modulated_deform_conv2d, "deform.modulated_deform_conv2d",
             self._op),
            (model.bilinear_upsample_x2, "model.bilinear_upsample_x2",
             self._op),
            (tensor.zero_grads, "tensor.zero_grads", self._plain),
            (modules["optim"].adam_step, "optim.adam_step", self._plain),
            (modules["data"].load_image, "data.load_image", self._plain),
            (modules["data"].read_manifest, "data.read_manifest", self._plain),
            (modules["data"].augment, "data.augment", self._plain),
            (modules["data"].to_tensor, "data.to_tensor", self._plain),
            (modules["data"].from_tensor, "data.from_tensor", self._plain),
            (modules["checkpoint"].load_checkpoint,
             "checkpoint.load_checkpoint", self._plain),
            (modules["checkpoint"].save_checkpoint,
             "checkpoint.save_checkpoint", self._plain),
            (modules["metrics"].psnr, "metrics.psnr", self._plain),
            (modules["metrics"].ssim, "metrics.ssim", self._plain),
            (modules["training"].denoise_tensor, "training.denoise_tensor",
             self._plain),
        ]
        for fn, name, factory in targets:
            wrapper = factory(fn, name)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._installed.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        sadnet_cls = model.SADNet
        fwd = self._forward(sadnet_cls.forward)
        for attr in ("forward", "__call__"):
            self._installed.append((sadnet_cls, attr, vars(sadnet_cls)[attr]))
            setattr(sadnet_cls, attr, fwd)
        tensor_cls = tensor.Tensor
        self._installed.append((tensor_cls, "backward", tensor_cls.backward))
        tensor_cls.backward = self._backward_method(tensor_cls.backward)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, fh, process: int) -> None:
        """Write the spans as JSON lines tagged with the process index."""
        for name, start, end, parent, op_id, attrs in self.spans:
            rec = {"process": process, "name": name, "start": start,
                   "end": end, "parent": parent, "op": op_id}
            if attrs:
                rec["attrs"] = {k: v for k, v in attrs.items()
                                if k != "config"}
            fh.write(json.dumps(rec) + "\n")


def wrapped_objects(modules: dict) -> list[str]:
    """Names of sadnet attributes that currently hold a tracer wrapper."""
    found = []
    owners = list(modules.values()) + [modules["model"].SADNet,
                                       modules["tensor"].Tensor]
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, _WRAPPED):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _param_bytes(model, adam) -> int:
    total = 0
    for name, p in model.params():
        total += p.data.nbytes
        if name in adam.m:
            total += adam.m[name].nbytes + adam.v[name].nbytes
    return total

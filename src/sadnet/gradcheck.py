"""Central finite-difference verification of analytic gradients.

Every check rebuilds its graph from scratch around shared leaf tensors in
double precision, compares the analytic gradient of a scalar loss against
(f(x+h) - f(x-h)) / 2h with h = 1e-3, and records the worst relative error
(absolute floor 1e-6 near zero). Deformable-convolution checks start the
offsets at +-0.3 fractional parts so no sample sits on the bilinear kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .deform import modulated_deform_conv2d
from .model import ModelConfig, SADNet, bilinear_upsample_x2, upsample_offsets
from .tensor import Tensor

H_STEP = 1e-3
REL_TOL = 1e-4
ABS_FLOOR = 1e-6


@dataclass
class CheckResult:
    name: str
    worst_rel_err: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<40s}  worst_rel_err={self.worst_rel_err:.3e}"


def finite_diff_check(name: str, build, tensors: list[Tensor],
                      max_elements: int = 6) -> CheckResult:
    """Check d(build())/d(tensor) for a sample of elements of each tensor,
    at most ``max_elements`` each, drawn by a generator seeded 0."""
    out = build()
    nodes = T._graph(out)  # before backward() consumes the graph
    leaves = [t for t in nodes if t.requires_grad and not t._prev]
    out.backward()
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
             for t in tensors]
    T.zero_grads(nodes)
    rng = np.random.default_rng(0)
    worst = 0.0
    # the perturbed builds need values only: with no leaf requiring
    # gradients they build no backward closures
    for t in leaves:
        t.requires_grad = False
    try:
        for t, g in zip(tensors, grads):
            flat = t.data.reshape(-1)
            gflat = g.reshape(-1)
            n = flat.size
            if n <= max_elements:
                idxs = range(n)
            else:
                idxs = sorted(
                    rng.choice(n, size=max_elements, replace=False).tolist())
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + H_STEP
                fp = build().item()
                flat[i] = orig - H_STEP
                fm = build().item()
                flat[i] = orig
                fd = (fp - fm) / (2.0 * H_STEP)
                err = abs(gflat[i] - fd)
                if err <= ABS_FLOOR:
                    continue
                rel = err / max(abs(gflat[i]), abs(fd), ABS_FLOOR)
                worst = max(worst, rel)
    finally:
        for t in leaves:
            t.requires_grad = True
    return CheckResult(name, worst, worst < REL_TOL)


def _rand(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _proj_loss(y: Tensor, proj: np.ndarray) -> Tensor:
    """sum(y * proj) as a (1,1,1,1) scalar tensor, whose gradient is proj."""
    prod = y.data * proj
    return T._node(np.array(prod.sum(), prod.dtype).reshape(1, 1, 1, 1),
                   (y,), lambda g: y.accumulate_grad(g.reshape(()) * proj))


def _off_kink(pre: Tensor) -> None:
    assert np.abs(pre.data).min() > 0.1, \
        "gradcheck fixture drifted onto the leaky ReLU kink"


def run_ops_suite() -> list[CheckResult]:
    """Every op's check on at most 6 elements of each input."""
    rng = np.random.default_rng(1234)
    results = []

    # conv2d: plain, the 2x2 stride-2 down conv, stride 1 with an output
    # smaller (s1d2p1) and larger (s1d1p3) than its input, and plain with a
    # skip input
    for tag, k, stride, dilation, padding in (
            ("s1d1p1", 3, 1, 1, 1), ("k2s2", 2, 2, 1, 0),
            ("s1d2p1", 3, 1, 2, 1), ("s1d1p3", 3, 1, 1, 3)):
        x = _rand(rng, (2, 3, 6, 6))
        w = _rand(rng, (4, 3, k, k))
        b = _rand(rng, (1, 4, 1, 1))
        oh = T.conv_output_size(6, k, stride, dilation, padding)
        proj = rng.standard_normal((2, 4, oh, oh))
        results.append(finite_diff_check(
            f"conv2d[{tag}]",
            lambda x=x, w=w, b=b, proj=proj, s=stride, d=dilation, p=padding:
                _proj_loss(T.conv2d(x, w, b, (s, s), (d, d), (p, p)), proj),
            [x, w, b]))

    x = _rand(rng, (2, 3, 6, 6))
    w = _rand(rng, (4, 3, 3, 3))
    b = _rand(rng, (1, 4, 1, 1))
    skip = _rand(rng, (2, 4, 6, 6))
    proj = rng.standard_normal((2, 4, 6, 6))
    results.append(finite_diff_check(
        "conv2d[s1d1p1+skip]",
        lambda: _proj_loss(T.conv2d(x, w, b, padding=(1, 1), skip=skip), proj),
        [x, w, b, skip]))

    # a fused leaky ReLU: small weights and biases of +-0.8 keep every
    # pre-activation away from the kink at 0, on both sides of it (its own
    # generator leaves the other checks' draws as they were)
    krng = np.random.default_rng(4321)
    x = _rand(krng, (2, 3, 6, 6))
    w_s = Tensor(krng.standard_normal((4, 3, 3, 3)) * 0.02,
                 requires_grad=True)
    b_s = Tensor(np.array([0.8, -0.8, 0.8, -0.8]).reshape(1, 4, 1, 1),
                 requires_grad=True)
    _off_kink(T.conv2d(x, w_s, b_s, padding=(1, 1)))
    results.append(finite_diff_check(
        "conv2d[s1d1p1+slope]",
        lambda: _proj_loss(T.conv2d(x, w_s, b_s, padding=(1, 1), slope=0.2),
                           proj), [x, w_s, b_s]))

    x = _rand(rng, (2, 3, 4, 4))
    w = _rand(rng, (2, 3, 2, 2))
    b = _rand(rng, (1, 2, 1, 1))
    proj = rng.standard_normal((2, 2, 8, 8))
    results.append(finite_diff_check(
        "conv2d_transpose[k2s2]",
        lambda: _proj_loss(T.conv2d_transpose(x, w, b), proj), [x, w, b]))

    x = _rand(rng, (2, 4, 5, 5))
    proj = rng.standard_normal(x.shape)
    results.append(finite_diff_check(
        "sigmoid", lambda: _proj_loss(T.sigmoid(x), proj), [x]))

    a = _rand(rng, (2, 3, 4, 4))
    c = _rand(rng, (2, 3, 4, 4))
    proj = rng.standard_normal(a.shape)
    proj2 = rng.standard_normal((2, 6, 4, 4))
    results.append(finite_diff_check(
        "concat_channels",
        lambda: _proj_loss(T.concat_channels(a, c), proj2), [a, c]))
    results.append(finite_diff_check(
        "slice_channels",
        lambda: _proj_loss(T.slice_channels(a, 1, 3), proj[:, 1:3]), [a]))

    pred = _rand(rng, (2, 3, 4, 4))
    target = _rand(rng, (2, 3, 4, 4))
    results.append(finite_diff_check(
        "loss_L2", lambda: T.loss("L2", pred, target), [pred, target]))
    results.append(finite_diff_check(
        "loss_L1", lambda: T.loss("L1", pred, target), [pred, target]))

    f = _rand(rng, (1, 2, 4, 4))
    proj = rng.standard_normal((1, 2, 8, 8))
    results.append(finite_diff_check(
        "bilinear_upsample_x2",
        lambda: _proj_loss(bilinear_upsample_x2(f), proj), [f]))

    # modulated deformable conv, all five argument groups
    x = _rand(rng, (2, 3, 6, 6))
    w = _rand(rng, (4, 3, 3, 3))
    b = _rand(rng, (1, 4, 1, 1))
    # integer base plus a 0.3..0.7 fractional part keeps samples off the kink
    off_data = (rng.integers(-1, 2, (2, 18, 6, 6)).astype(np.float64)
                + rng.uniform(0.3, 0.7, (2, 18, 6, 6)))
    offsets = Tensor(off_data, requires_grad=True)
    masks = Tensor(rng.uniform(0.2, 0.8, (2, 9, 6, 6)), requires_grad=True)
    proj = rng.standard_normal((2, 4, 6, 6))
    results.append(finite_diff_check(
        "modulated_deform_conv2d",
        lambda: _proj_loss(
            modulated_deform_conv2d(x, w, b, offsets, masks, (1, 1)), proj),
        [x, w, b, offsets, masks]))

    _off_kink(modulated_deform_conv2d(x, w_s, b_s, offsets, masks, (1, 1)))
    results.append(finite_diff_check(
        "deform[+slope]",
        lambda: _proj_loss(modulated_deform_conv2d(
            x, w_s, b_s, offsets, masks, (1, 1), 0.2), proj),
        [x, w_s, b_s, offsets, masks]))

    off2 = Tensor(rng.uniform(0.3, 0.7, (1, 18, 4, 4)), requires_grad=True)
    m2 = Tensor(rng.uniform(0.2, 0.8, (1, 9, 4, 4)), requires_grad=True)
    proj_o = rng.standard_normal((1, 18, 8, 8))
    proj_m = rng.standard_normal((1, 9, 8, 8))

    proj_u = np.concatenate([proj_o, proj_m], axis=1)
    results.append(finite_diff_check(
        "upsample_offsets",
        lambda: _proj_loss(T.concat_channels(*upsample_offsets(off2, m2)),
                           proj_u), [off2, m2]))
    return results


def micro_model_config() -> ModelConfig:
    return ModelConfig(in_channels=1, scales=2, channels_per_scale=(4, 8),
                       resblocks_per_scale=1, rsabs_per_scale=1,
                       context_compression=4)


def run_model_suite() -> list[CheckResult]:
    """End-to-end check through the 2-scale micro model, on at most 3
    elements of the input and of each parameter.

    The zero-initialized layers (tail conv, offset heads) are re-randomized
    first: at their zero init the offsets sit exactly on integer coordinates
    and the tail blocks gradient flow, which would make the check vacuous.
    """
    rng = np.random.default_rng(7)
    cfg = micro_model_config()
    model = SADNet(cfg, rng=np.random.default_rng(21), dtype=np.float64)
    model.tail.weight.data = rng.standard_normal(model.tail.weight.shape) * 0.5
    # tiny head weights + fractional biases keep the predicted offsets well
    # away from integer sampling coordinates under the +-h perturbations
    for ot in model.offset:
        ot.head.weight.data = rng.standard_normal(ot.head.weight.shape) * 1e-3
        ot.head.bias.data = rng.uniform(0.25, 0.45, ot.head.bias.shape)

    x = Tensor(rng.standard_normal((1, 1, 8, 8)), requires_grad=True)
    target = Tensor(rng.standard_normal((1, 1, 8, 8)))
    model(x)
    for state in model.scale_states:
        frac = state.offsets - np.floor(state.offsets)
        assert min(frac.min(), 1.0 - frac.max()) > 0.1, \
            "gradcheck fixture drifted onto a bilinear kink"

    def build():
        return T.loss("L2", model(x), target)

    results = []
    results.append(finite_diff_check("model/input", build, [x],
                                     max_elements=3))
    for name, p in model.params():
        results.append(finite_diff_check(f"model/{name}", build, [p],
                                         max_elements=3))
    return results


def run_suite(scope: str = "all") -> list[CheckResult]:
    results = []
    if scope in ("ops", "all"):
        results += run_ops_suite()
    if scope in ("model", "all"):
        results += run_model_suite()
    return results

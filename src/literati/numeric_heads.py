"""Desk-scale network head operations with analytic gradients.

Forward passes for the five differentiable head operations (transposed
convolution, layer norm, global average pooling, cross entropy,
layer-selecting 1-D convolution), the broadcast language-spatial fusion
and a central-difference gradient checker. One table, ``_OPS``, gives each
checked op its forward pass, vector-Jacobian product (private to the
checker), inputs and error bound. Everything runs in float64: this module
exists for numerical verification, not throughput.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np


def _as64(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite values in input tensor")
    return arr


def deconv2d(x, kernel, stride: int = 1) -> np.ndarray:
    """Transposed convolution: scatter-add stride-spaced kernel copies.

    x is [Cin, H, W], kernel is [Cin, Cout, k, k]; the output is
    [Cout, (H-1)*stride + k, (W-1)*stride + k].
    """
    x = _as64(x)
    kernel = _as64(kernel)
    if x.ndim != 3:
        raise ValueError(f"input must be [Cin, H, W], got shape {x.shape}")
    if kernel.ndim != 4:
        raise ValueError(f"kernel must be [Cin, Cout, k, k], got shape {kernel.shape}")
    if kernel.shape[0] != x.shape[0]:
        raise ValueError(
            f"channel axis mismatch: input Cin={x.shape[0]}, kernel Cin={kernel.shape[0]}"
        )
    if kernel.shape[2] != kernel.shape[3]:
        raise ValueError(f"kernel window must be square, got {kernel.shape[2:]}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    _, H, W = x.shape
    _, cout, k, _ = kernel.shape
    out = np.zeros((cout, (H - 1) * stride + k, (W - 1) * stride + k))
    # contrib[cout, a, b, i, j] = sum_cin x[cin, i, j] * kernel[cin, cout, a, b]
    contrib = np.einsum("cij,cdab->dabij", x, kernel)
    for a in range(k):
        for b in range(k):
            out[:, a:a + stride * (H - 1) + 1:stride,
                   b:b + stride * (W - 1) + 1:stride] += contrib[:, a, b]
    return out


def _deconv2d_vjp(x, kernel, stride, grad_out):
    _, H, W = x.shape
    _, _, k, _ = kernel.shape
    # gathered[cout, a, b, i, j] = grad_out[cout, i*stride + a, j*stride + b]
    gathered = np.empty((kernel.shape[1], k, k, H, W))
    for a in range(k):
        for b in range(k):
            gathered[:, a, b] = grad_out[:, a:a + stride * (H - 1) + 1:stride,
                                            b:b + stride * (W - 1) + 1:stride]
    grad_x = np.einsum("dabij,cdab->cij", gathered, kernel)
    grad_kernel = np.einsum("cij,dabij->cdab", x, gathered)
    return grad_x, grad_kernel


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> np.ndarray:
    """Mean-0/var-1 normalization over the last axis, then affine."""
    x = _as64(x)
    gamma = _as64(gamma)
    beta = _as64(beta)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ValueError(
            f"gamma/beta must match the last axis {x.shape[-1:]}, "
            f"got {gamma.shape} and {beta.shape}"
        )
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return xhat * gamma + beta


def _layer_norm_vjp(x, gamma, beta, eps, grad_out):
    D = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = xc / std

    lead = tuple(range(x.ndim - 1))
    grad_gamma = (grad_out * xhat).sum(axis=lead) if lead else grad_out * xhat
    grad_beta = grad_out.sum(axis=lead) if lead else grad_out.copy()

    dxhat = grad_out * gamma
    dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * std ** -3
    dmu = -dxhat.sum(axis=-1, keepdims=True) / std
    grad_x = dxhat / std + dvar * 2.0 * xc / D + dmu / D
    return grad_x, grad_gamma, grad_beta


def global_average_pool(x) -> np.ndarray:
    """Per-channel spatial mean of a [C, H, W] tensor."""
    x = _as64(x)
    if x.ndim != 3:
        raise ValueError(f"input must be [C, H, W], got shape {x.shape}")
    return x.mean(axis=(1, 2))


def _global_average_pool_vjp(x, grad_out):
    _, H, W = x.shape
    return (np.broadcast_to(grad_out[:, None, None] / (H * W), x.shape).copy(),)


def cross_entropy(logits, label: int):
    """Negative log softmax at the label; returns (loss, gradient)."""
    logits = _as64(logits)
    if logits.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {logits.shape}")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    loss = float(log_z - shifted[label])
    grad = np.exp(shifted - log_z)
    grad[label] -= 1.0
    return loss, grad


def conv1d_layer_select(stack, kernel, stride: int = 1) -> np.ndarray:
    """1-D convolution down the layer axis, then the mean over positions.

    stack is [L, D] (one embedding per transformer layer), kernel is
    [L_k]; the result is a single fused D-vector. A uniform 1/4 kernel on
    a 4-layer stack reproduces the plain last-4-layer average.
    """
    stack = _as64(stack)
    kernel = _as64(kernel)
    if stack.ndim != 2:
        raise ValueError(f"stack must be [L, D], got shape {stack.shape}")
    if kernel.ndim != 1:
        raise ValueError(f"kernel must be 1-D, got shape {kernel.shape}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    L = stack.shape[0]
    Lk = kernel.shape[0]
    if Lk > L:
        raise ValueError(f"kernel length {Lk} exceeds stack depth {L}")
    P = (L - Lk) // stride + 1
    positions = np.stack(
        [kernel @ stack[p * stride:p * stride + Lk] for p in range(P)]
    )
    return positions.mean(axis=0)


def _conv1d_layer_select_vjp(stack, kernel, stride, grad_out):
    L = stack.shape[0]
    Lk = kernel.shape[0]
    P = (L - Lk) // stride + 1
    grad_stack = np.zeros_like(stack)
    grad_kernel = np.zeros_like(kernel)
    for p in range(P):
        sl = slice(p * stride, p * stride + Lk)
        grad_stack[sl] += np.outer(kernel, grad_out) / P
        grad_kernel += (stack[sl] @ grad_out) / P
    return grad_stack, grad_kernel


def fuse_language_spatial(spatial, lang) -> np.ndarray:
    """Broadcast the L2-normalized language vector to every spatial cell
    and concatenate it along the channel axis."""
    spatial = _as64(spatial)
    lang = _as64(lang)
    if spatial.ndim != 3:
        raise ValueError(f"spatial must be [C, H, W], got shape {spatial.shape}")
    if lang.ndim != 1:
        raise ValueError(f"lang must be 1-D, got shape {lang.shape}")
    norm = np.linalg.norm(lang)
    unit = lang / norm if norm > 0 else lang
    _, H, W = spatial.shape
    tiled = np.broadcast_to(unit[:, None, None], (lang.shape[0], H, W))
    return np.concatenate([spatial, tiled], axis=0)


# ---------------------------------------------------------------------------
# gradient checking


# forward, VJP, differentiated inputs, error bound and input maker of one op.
# The VJP takes the op's inputs and grad_out and returns one gradient per
# differentiated input; None means the forward pass returns (loss, gradient).
# bound: max |analytic - numeric| / max(1, |numeric|) allowed at h = 1e-6
_Op = namedtuple("_Op", "forward vjp diff bound make")

_OPS = {
    "deconv2d": _Op(
        deconv2d, _deconv2d_vjp, ("x", "kernel"),
        1e-9,  # linear: central differences are exact
        # half scale keeps the projected loss small, so central-difference
        # roundoff stays well under the linear-op bound
        lambda rng: {"x": 0.5 * rng.standard_normal((2, 3, 3)),
                     "kernel": 0.5 * rng.standard_normal((2, 3, 2, 2)),
                     "stride": int(rng.integers(1, 3))}),
    "layer_norm": _Op(
        layer_norm, _layer_norm_vjp, ("x", "gamma", "beta"), 1e-6,
        lambda rng: {"x": rng.standard_normal((4, 6)),
                     "gamma": 1.0 + 0.2 * rng.standard_normal(6),
                     "beta": 0.2 * rng.standard_normal(6), "eps": 1e-5}),
    "global_average_pool": _Op(
        global_average_pool, _global_average_pool_vjp, ("x",), 1e-9,  # linear
        lambda rng: {"x": rng.standard_normal((3, 4, 5))}),
    "cross_entropy": _Op(
        cross_entropy, None, ("logits",), 1e-6,
        lambda rng: {"logits": rng.standard_normal(7), "label": int(rng.integers(0, 7))}),
    "conv1d_layer_select": _Op(
        conv1d_layer_select, _conv1d_layer_select_vjp, ("stack", "kernel"),
        1e-9,  # linear in each argument
        lambda rng: {"stack": 0.7 * rng.standard_normal((6, 5)),
                     "kernel": 0.7 * rng.standard_normal(3),
                     "stride": int(rng.integers(1, 3))}),
}

GRAD_CHECK_OPS = tuple(_OPS)
GRAD_CHECK_BOUNDS = {name: op.bound for name, op in _OPS.items()}


def make_grad_check_inputs(op_tag: str, rng: np.random.Generator) -> dict:
    """Random, well-conditioned inputs for one op's gradient check."""
    if op_tag not in GRAD_CHECK_OPS:
        raise ValueError(f"unknown op {op_tag!r}")
    return _OPS[op_tag].make(rng)


def grad_check(op_tag: str, inputs: dict, h: float = 1e-6, projection_seed: int = 0) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Array-valued ops are reduced to a scalar through a fixed random
    projection; cross_entropy is checked on its own loss. The error metric
    per coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"h must be in [1e-7, 1e-3], got {h}")
    if op_tag not in GRAD_CHECK_OPS:
        raise ValueError(f"unknown op {op_tag!r}")
    op = _OPS[op_tag]
    work = {k: (np.array(v, dtype=np.float64) if k in op.diff else v)
            for k, v in inputs.items()}

    if op.vjp is None:
        def loss():
            return op.forward(**work)[0]
        analytic = dict(zip(op.diff, op.forward(**work)[1:]))
    else:
        # the forward call checks the copies in work before the VJP sees them
        out = op.forward(**work)
        proj_rng = np.random.default_rng(projection_seed)
        projection = proj_rng.standard_normal(out.shape) / np.sqrt(out.size)

        def loss():
            return float((op.forward(**work) * projection).sum())
        analytic = dict(zip(op.diff, op.vjp(**work, grad_out=projection)))

    max_err = 0.0
    for name in op.diff:
        flat = work[name].ravel()
        a_flat = analytic[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            err = abs(a_flat[i] - numeric) / max(1.0, abs(numeric))
            if err > max_err:
                max_err = err
    return max_err

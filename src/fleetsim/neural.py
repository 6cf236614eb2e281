"""Minimal neural-network engine backing the ETA, demand and Q models.

Layers are dense and 2-D convolution (valid or same padding) with relu
or linear activations, plus a concatenation for networks that merge a
spatial main input with one convolution of an auxiliary input.  Everything
runs in float64 numpy; convolutions go through batched im2col GEMMs.

Conventions: every input is a batch, of row-major plane stacks
``(batch, h, w, planes)`` or of vectors ``(batch, n)``; a single input
is a batch of one.  A dense network also takes a stack of one-row
batches ``(batch, 1, n)``: numpy's ``matmul`` multiplies each one-row
matrix of the stack on its own, so a row's output has the bytes that a
batch of that row alone gives, whatever batch it is in.  A 2-D batch is
one matrix product, whose blocking may round a row differently.
Training takes 2-D minibatches only.
Convolution weights are ``(filters, kh, kw, planes)``.
Networks are fully convolutional: any spatial input size at least as
large as the kernels is accepted.  Forward passes are pure functions of
(spec, params, input) and repeated calls give bit-identical outputs.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

ACTIVATIONS = ("relu", "linear")
# RMSProp's squared-gradient decay and the term that keeps its divisor positive
RMSPROP_RHO = 0.95
RMSPROP_EPS = 1e-8


@dataclass(frozen=True)
class Dense:
    n_in: int
    n_out: int
    activation: str = "relu"


@dataclass(frozen=True)
class Conv2D:
    in_planes: int
    filters: int
    kh: int
    kw: int
    activation: str = "relu"
    padding: str = "valid"  # "valid" shrinks by kernel-1, "same" preserves dims


@dataclass(frozen=True)
class Concat:
    """Concatenate the output of ``layer`` (run on the aux input) onto the main path."""

    layer: Conv2D


def _check_activation(layer) -> None:
    if getattr(layer, "activation", "linear") not in ACTIVATIONS:
        raise ValueError(f"unknown activation in {layer}")


def walk_param_layers(spec) -> list:
    """The parameterized layer of each spec entry, in order: entry ``k`` owns
    ``params[2k:2k + 2]``, and a :class:`Concat` owns its layer's."""
    return [layer.layer if isinstance(layer, Concat) else layer for layer in spec]


def _layer_shapes(layer) -> tuple[tuple, tuple]:
    """(weight shape, bias shape) of a parameterized layer."""
    if isinstance(layer, Dense):
        return (layer.n_out, layer.n_in), (layer.n_out,)
    if isinstance(layer, Conv2D):
        return (layer.filters, layer.kh, layer.kw, layer.in_planes), (layer.filters,)
    raise TypeError(f"unsupported layer {layer}")


def init_params(spec, rng: np.random.Generator) -> list[np.ndarray]:
    """Scaled-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    params: list[np.ndarray] = []
    for layer in walk_param_layers(spec):
        _check_activation(layer)
        shape, bias_shape = _layer_shapes(layer)
        # fan_in: inputs per output (kh*kw*planes); fan_out: outputs per input (filters*kh*kw)
        fan_in, fan_out = math.prod(shape[1:]), math.prod(shape[:-1])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, size=shape))
        params.append(np.zeros(bias_shape))
    return params


def all_finite(params: list[np.ndarray]) -> bool:
    """Whether every entry of every array in ``params`` is finite."""
    return all(np.isfinite(p).all() for p in params)


def _same_pad(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    top = (kh - 1) // 2
    left = (kw - 1) // 2
    b, h, w, c = x.shape
    out = np.zeros((b, h + kh - 1, w + kw - 1, c), dtype=x.dtype)
    out[:, top:top + h, left:left + w] = x
    return out


def _im2col(x: np.ndarray, kh: int, kw: int):
    """(batch*oh*ow, kh*kw*planes) patch matrix; a free view for 1x1 kernels."""
    b, h, w, c = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    if kh == 1 and kw == 1:
        return x.reshape(b * h * w, c), oh, ow
    sb, sh, sw, sc = x.strides
    win = as_strided(x, shape=(b, oh, ow, kh, kw, c), strides=(sb, sh, sw, sh, sw, sc),
                     writeable=False)
    return win.reshape(b * oh * ow, kh * kw * c), oh, ow


def _conv_forward(layer: Conv2D, w, bias, x, want_cache: bool):
    if x.ndim != 4 or x.shape[-1] != layer.in_planes:
        raise ValueError(f"conv expected (batch, h, w, {layer.in_planes}) input, got {x.shape}")
    xp = _same_pad(x, layer.kh, layer.kw) if layer.padding == "same" else x
    if xp.shape[1] < layer.kh or xp.shape[2] < layer.kw:
        raise ValueError(f"input {x.shape} smaller than {layer.kh}x{layer.kw} kernel")
    xp = np.ascontiguousarray(xp)
    cols, oh, ow = _im2col(xp, layer.kh, layer.kw)
    w2d = w.reshape(layer.filters, -1)
    out2d = cols @ w2d.T
    out2d += bias
    out = out2d.reshape(x.shape[0], oh, ow, layer.filters)
    if layer.activation == "relu":
        np.maximum(out, 0.0, out=out)
    cache = {"cols": cols, "out": out, "in_shape": xp.shape} if want_cache else None
    return out, cache


def _conv_backward(layer: Conv2D, w, cache, d_out, need_dx: bool):
    out = cache["out"]
    if layer.activation == "relu":
        d_out = np.where(out > 0.0, d_out, 0.0)
    b, oh, ow, _ = d_out.shape
    dz2d = d_out.reshape(b * oh * ow, layer.filters)
    cols = cache["cols"]
    dw = (dz2d.T @ cols).reshape(w.shape)
    db = dz2d.sum(axis=0)
    dx = None
    if need_dx:
        w2d = w.reshape(layer.filters, -1)
        dcols = dz2d @ w2d
        _, hp, wp, c = cache["in_shape"]
        if layer.kh == 1 and layer.kw == 1:
            dxp = dcols.reshape(b, hp, wp, c)
        else:
            dcols = dcols.reshape(b, oh, ow, layer.kh, layer.kw, c)
            dxp = np.zeros((b, hp, wp, c))
            for ki in range(layer.kh):
                for kj in range(layer.kw):
                    dxp[:, ki:ki + oh, kj:kj + ow, :] += dcols[:, :, :, ki, kj, :]
        if layer.padding == "same":
            top = (layer.kh - 1) // 2
            left = (layer.kw - 1) // 2
            dx = dxp[:, top:top + hp - (layer.kh - 1),
                     left:left + wp - (layer.kw - 1), :]
        else:
            dx = dxp
    return dw, db, dx


def _dense_forward(layer: Dense, w, bias, x, want_cache: bool):
    # the backward pass takes 2-D batches only, so a stack is not cached
    stack = x.ndim == 3 and x.shape[1] == 1 and not want_cache
    if not (x.ndim == 2 or stack) or x.shape[-1] != layer.n_in:
        raise ValueError(f"dense expected (batch, {layer.n_in}) input, or (batch, 1, "
                         f"{layer.n_in}) outside training, got {x.shape}")
    out = x @ w.T + bias
    if layer.activation == "relu":
        np.maximum(out, 0.0, out=out)
    cache = {"x": x, "out": out} if want_cache else None
    return out, cache


def _dense_backward(layer: Dense, w, cache, d_out, need_dx: bool):
    if layer.activation == "relu":
        d_out = np.where(cache["out"] > 0.0, d_out, 0.0)
    dw = d_out.T @ cache["x"]
    db = d_out.sum(axis=0)
    dx = d_out @ w if need_dx else None
    return dw, db, dx


def _forward(spec, params, x, aux, want_cache: bool):
    caches = []
    value = x
    for k, layer in enumerate(spec):
        w, bias = params[2 * k], params[2 * k + 1]
        if isinstance(layer, Concat):
            if aux is None:
                raise ValueError("network has a Concat layer but no aux input given")
            aux_out, cache = _conv_forward(layer.layer, w, bias, aux, want_cache)
            caches.append((cache, value.shape[-1]))
            value = np.concatenate([value, aux_out], axis=-1)
        else:
            fwd = _conv_forward if isinstance(layer, Conv2D) else _dense_forward
            value, cache = fwd(layer, w, bias, value, want_cache)
            caches.append(cache)
    return value, caches


def forward(spec, params, x, aux=None) -> np.ndarray:
    """Evaluate the network on a batch: ``x`` is ``(batch, h, w, planes)``,
    ``(batch, n)`` or, for a dense network, ``(batch, 1, n)``, and ``aux`` is
    batched the same way."""
    return _forward(spec, params, x, aux, want_cache=False)[0]


def forward_cached(spec, params, x, aux=None):
    """Like :func:`forward`, but returns (output, cache) for backward."""
    return _forward(spec, params, x, aux, want_cache=True)


def backward_from_grad(spec, params, caches, d_out) -> list[np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(output), matching param order."""
    grads: list[np.ndarray | None] = [None] * len(params)
    d = d_out
    for k in range(len(spec) - 1, -1, -1):
        layer, w = spec[k], params[2 * k]
        if isinstance(layer, Concat):
            cache, main_planes = caches[k]
            grads[2 * k], grads[2 * k + 1], _ = _conv_backward(
                layer.layer, w, cache, d[..., main_planes:], False)
            d = d[..., :main_planes]
        else:
            bwd = _conv_backward if isinstance(layer, Conv2D) else _dense_backward
            grads[2 * k], grads[2 * k + 1], d = bwd(layer, w, caches[k], d, k > 0)
    return grads


class RmsProp:
    """Stateful RMSProp over a parameter list; updates in place.

    Per element: ``s <- rho*s + (1-rho)*g^2``, then ``p <- p - lr*g/sqrt(s+eps)``,
    with ``rho`` and ``eps`` the module's ``RMSPROP_RHO`` and ``RMSPROP_EPS``.
    """

    def __init__(self, lr):
        if lr <= 0:
            raise ValueError(f"rmsprop learning rate must be positive, got {lr}")
        self.lr = lr
        self.state: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.state is None:
            self.state = [np.zeros_like(p) for p in params]
        for p, g, s in zip(params, grads, self.state):
            s *= RMSPROP_RHO
            s += (1.0 - RMSPROP_RHO) * g * g
            p -= self.lr * g / np.sqrt(s + RMSPROP_EPS)


def fit(spec, params, x, d_loss, rng: np.random.Generator, epochs: int,
        batch_size: int, lr: float) -> None:
    """Train ``params`` in place on the samples ``x`` by minibatch RMSProp.

    Each epoch draws one ``rng.permutation`` of the samples and steps once
    per ``batch_size`` of them, the last minibatch short when they do not
    divide.  ``d_loss(idx, out)`` is d(loss)/d(output) on the samples
    ``idx``, whose output is ``out``.
    """
    opt = RmsProp(lr)
    for _ in range(epochs):
        perm = rng.permutation(x.shape[0])
        for start in range(0, perm.size, batch_size):
            # every array of a minibatch lives until the next one replaces
            # it: freeing them at once lets the heap shrink and fault back.
            # Set-up's demand-fit worker keeps its heap instead
            # (experiment._keep_heap): its minor faults fell from 37.4k to 13.5k
            idx = perm[start:start + batch_size]
            xb = x[idx]
            out, caches = forward_cached(spec, params, xb)
            d_out = d_loss(idx, out)
            grads = backward_from_grad(spec, params, caches, d_out)
            opt.step(params, grads)


def rmse(predicted, target) -> float:
    """Root of the mean squared difference over every element."""
    return float(np.sqrt(np.mean((predicted - target) ** 2)))


def pool_bounds(h: int, w: int, k: int) -> tuple[np.ndarray, ...]:
    """Integral-image bounds ``(r0, r1, c0, c1)`` of each k x k window on an h x w plane.

    The window for index i covers rows ``[i - (k-1)//2, i + k//2]``, clipped
    to the plane, which is centered for odd k.
    """
    lo = -((k - 1) // 2)
    hi = k // 2 + 1
    return (np.clip(np.arange(h) + lo, 0, h), np.clip(np.arange(h) + hi, 0, h),
            np.clip(np.arange(w) + lo, 0, w), np.clip(np.arange(w) + hi, 0, w))


def integral_image(x: np.ndarray, pad: int = 0) -> np.ndarray:
    """Cumulative sums over the trailing two axes of ``x`` on a zero border of
    ``pad`` cells, with a leading zero row and column.

    Only ``x`` is summed; the border's sums are filled in, with the bytes
    of summing the zero-padded array.  Its sums down a column start from
    the border's +0.0: that adds +0.0 to every sum of ``x`` alone, which
    turns a -0.0 into 0.0 and changes nothing else.  No sum is -0.0 after
    that, so the border's +0.0 changes no sum across a row or past ``x``.
    """
    h, w = x.shape[-2:]
    integ = np.zeros(x.shape[:-2] + (h + 2 * pad + 1, w + 2 * pad + 1))
    down = x.cumsum(axis=-2)
    if pad:
        down += 0.0
    lo = pad + 1
    integ[..., lo:lo + h, lo:lo + w] = down.cumsum(axis=-1)
    integ[..., lo + h:, lo:lo + w] = integ[..., lo + h - 1:lo + h, lo:lo + w]
    integ[..., lo:, lo + w:] = integ[..., lo:, lo + w - 1:lo + w]
    return integ


def window_mean(integ: np.ndarray, bounds: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """Window sums from an :func:`integral_image`, rows first, then columns, over k*k."""
    r0, r1, c0, c1 = bounds
    rows = integ[..., r1, :] - integ[..., r0, :]
    sums = rows[..., :, c1] - rows[..., :, c0]
    return sums / float(k * k)


# --- model files -------------------------------------------------------------

class CheckpointError(ValueError):
    """A model file that does not load as the models it is read as, or a models'
    metrics record that does not load as a JSON object."""


def write_model_file(path, nets: dict, arrays: dict) -> None:
    """Write the uncompressed ``.npz`` model file that :func:`read_model_file`
    reads back bit for bit.

    Each network ``name: (spec, params)`` of ``nets`` is stored as the
    string ``{name}_spec``, the repr of ``spec``, and its params as
    ``{name}_0``, ``{name}_1``, ...; each of ``arrays`` is stored as float64.
    """
    out = {}
    for name, (spec, params) in nets.items():
        out[f"{name}_spec"] = np.array(repr(spec))
        out.update((f"{name}_{k}", p) for k, p in enumerate(params))
    out.update((name, np.asarray(a, dtype=np.float64)) for name, a in arrays.items())
    np.savez(path, **out)


def read_model_file(path, nets: dict, shapes: dict) -> tuple[dict, dict]:
    """The params of each network ``name: spec`` of ``nets``, and each array
    ``name: shape`` of ``shapes``, in the model file at ``path``.

    Raises :class:`CheckpointError`, naming ``path`` and the array, for a
    file that does not read as an ``.npz`` archive of plain arrays, a
    missing array, a network stored with another layer spec, or an array
    that is not finite float64 of its shape.
    """
    try:
        # np.load leaves a path it opened open when the archive is damaged
        with open(path, "rb") as f, np.load(f) as data:
            stored = {name: data[name] for name in data.files}
    except (OSError, ValueError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: unreadable ({exc!r})") from None

    def array(name: str) -> np.ndarray:
        if name not in stored:
            raise CheckpointError(f"{path}: no array {name}")
        return stored[name]

    want = {}
    for name, spec in nets.items():
        text = array(f"{name}_spec")
        if not (text.shape == () and text.dtype.kind == "U" and text.item() == repr(spec)):
            raise CheckpointError(f"{path}: {name}_spec holds other layers than the "
                                  f"network {name} is read as")
        want.update((f"{name}_{k}", shape) for k, shape in enumerate(
            s for layer in walk_param_layers(spec) for s in _layer_shapes(layer)))
    want.update(shapes)
    for name, shape in want.items():
        a = array(name)
        if a.dtype != np.float64 or a.shape != shape:
            raise CheckpointError(f"{path}: {name} is {a.dtype} {a.shape}, not float64 {shape}")
        if not np.isfinite(a).all():
            raise CheckpointError(f"{path}: {name} is not finite")
    params = {name: [stored[f"{name}_{k}"] for k in range(2 * len(spec))]
              for name, spec in nets.items()}
    return params, {name: stored[name] for name in shapes}

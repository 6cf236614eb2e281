"""Minimal neural-network engine backing the ETA, demand and Q models.

Layers are dense and 2-D convolution (valid or same padding) with relu
or linear activations, plus a two-branch concatenation for networks
that merge a spatial main input with an auxiliary input.  Everything
runs in float64 numpy; convolutions go through batched im2col GEMMs.

Conventions: every input is a batch, of row-major plane stacks
``(batch, h, w, planes)`` or of vectors ``(batch, n)``; a single input
is a batch of one.  Convolution weights are ``(filters, kh, kw, planes)``.
Networks are fully convolutional: any spatial input size at least as
large as the kernels is accepted.  Forward passes are pure functions of
(spec, params, input) and repeated calls give bit-identical outputs.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

ACTIVATIONS = ("relu", "linear")


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
    """Concatenate the output of ``branch`` (run on the aux input) onto the main path."""

    branch: tuple


def _check_activation(layer) -> None:
    if getattr(layer, "activation", "linear") not in ACTIVATIONS:
        raise ValueError(f"unknown activation in {layer}")


def walk_param_layers(spec) -> list:
    """Parameterized layers in deterministic order (branch layers precede the merge)."""
    out = []
    for layer in spec:
        if isinstance(layer, Concat):
            out.extend(walk_param_layers(layer.branch))
        else:
            out.append(layer)
    return out


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
    if x.ndim != 2 or x.shape[1] != layer.n_in:
        raise ValueError(f"dense expected (batch, {layer.n_in}) input, got {x.shape}")
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
    idx = 0
    for layer in spec:
        if isinstance(layer, Concat):
            if aux is None:
                raise ValueError("network has a Concat layer but no aux input given")
            n_branch = 2 * len(walk_param_layers(layer.branch))
            branch_out, branch_caches, _ = _forward(
                layer.branch, params[idx:idx + n_branch], aux, None, want_cache
            )
            idx += n_branch
            caches.append({"branch": branch_caches, "main_planes": value.shape[-1]})
            value = np.concatenate([value, branch_out], axis=-1)
        else:
            w, bias = params[idx], params[idx + 1]
            idx += 2
            fwd = _conv_forward if isinstance(layer, Conv2D) else _dense_forward
            value, cache = fwd(layer, w, bias, value, want_cache)
            caches.append(cache)
    return value, caches, idx


def forward(spec, params, x, aux=None) -> np.ndarray:
    """Evaluate the network on a batch: ``x`` is ``(batch, h, w, planes)`` or
    ``(batch, n)``, and ``aux`` is batched the same way."""
    return _forward(spec, params, x, aux, want_cache=False)[0]


def forward_cached(spec, params, x, aux=None):
    """Like :func:`forward`, but returns (output, cache) for backward."""
    out, caches, _ = _forward(spec, params, x, aux, want_cache=True)
    return out, caches


def backward_from_grad(spec, params, caches, d_out) -> list[np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(output), matching param order."""
    grads: list[np.ndarray | None] = [None] * len(params)

    def run(spec_, caches_, d, base: int, need_dx_level: bool):
        idx = base + 2 * len(walk_param_layers(spec_))
        for pos in range(len(spec_) - 1, -1, -1):
            layer = spec_[pos]
            cache = caches_[pos]
            if isinstance(layer, Concat):
                n_branch = 2 * len(walk_param_layers(layer.branch))
                idx -= n_branch
                main_planes = cache["main_planes"]
                run(layer.branch, cache["branch"], d[..., main_planes:], idx, False)
                d = d[..., :main_planes]
            else:
                idx -= 2
                w = params[idx]
                need_dx = pos > 0 or need_dx_level
                bwd = _conv_backward if isinstance(layer, Conv2D) else _dense_backward
                dw, db, dx = bwd(layer, w, cache, d, need_dx)
                grads[idx] = dw
                grads[idx + 1] = db
                d = dx
        return d

    run(spec, caches, d_out, 0, False)
    return grads


class RmsProp:
    """Stateful RMSProp over a parameter list; updates in place.

    Per element: ``s <- rho*s + (1-rho)*g^2``, then ``p <- p - lr*g/sqrt(s+eps)``.
    """

    def __init__(self, lr, rho=0.95, eps=1e-8):
        if lr <= 0 or not (0 < rho < 1) or eps <= 0:
            raise ValueError("rmsprop hyperparameters must be positive")
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.state: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.state is None:
            self.state = [np.zeros_like(p) for p in params]
        for p, g, s in zip(params, grads, self.state):
            s *= self.rho
            s += (1.0 - self.rho) * g * g
            p -= self.lr * g / np.sqrt(s + self.eps)


def pool_bounds(h: int, w: int, k: int) -> tuple[np.ndarray, ...]:
    """Integral-image bounds ``(r0, r1, c0, c1)`` of each k x k window on an h x w plane.

    The window for index i covers rows ``[i - (k-1)//2, i + k//2]``, clipped
    to the plane, which is centered for odd k.
    """
    lo = -((k - 1) // 2)
    hi = k // 2 + 1
    return (np.clip(np.arange(h) + lo, 0, h), np.clip(np.arange(h) + hi, 0, h),
            np.clip(np.arange(w) + lo, 0, w), np.clip(np.arange(w) + hi, 0, w))


def integral_image(x: np.ndarray) -> np.ndarray:
    """Cumulative sums over the trailing two axes, with a leading zero row and column."""
    integ = np.zeros(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1] + 1))
    integ[..., 1:, 1:] = x.cumsum(axis=-2).cumsum(axis=-1)
    return integ


def window_mean(integ: np.ndarray, bounds: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """Window sums from an :func:`integral_image`, rows first, then columns, over k*k."""
    r0, r1, c0, c1 = bounds
    rows = integ[..., r1, :] - integ[..., r0, :]
    sums = rows[..., :, c1] - rows[..., :, c0]
    return sums / float(k * k)


# --- checkpoint container -------------------------------------------------

def _layer_to_dict(layer) -> dict:
    if isinstance(layer, Dense):
        return {"kind": "dense", "n_in": layer.n_in, "n_out": layer.n_out,
                "activation": layer.activation}
    if isinstance(layer, Conv2D):
        return {"kind": "conv2d", "in_planes": layer.in_planes, "filters": layer.filters,
                "kh": layer.kh, "kw": layer.kw, "activation": layer.activation,
                "padding": layer.padding}
    if isinstance(layer, Concat):
        return {"kind": "concat", "branch": [_layer_to_dict(l) for l in layer.branch]}
    raise TypeError(f"cannot serialize layer {layer}")


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(d["shape"]).copy()


CHECKPOINT_FORMAT = "fleetsim-net-v1"


class CheckpointError(ValueError):
    """A network checkpoint that does not load as the network it is read as,
    or a models' metrics record that does not load as a JSON object."""


def save_model(path, spec, params, extra: dict | None = None) -> None:
    """Write a versioned JSON checkpoint; load(save(m)) round-trips bit-exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "layers": [_layer_to_dict(l) for l in spec],
        "params": [_encode_array(p) for p in params],
    }
    if extra is not None:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path, spec):
    """Read a checkpoint of the network ``spec`` back as (params, extra dict or None).

    Raises :class:`CheckpointError`, naming ``path``, for unreadable JSON, a
    missing key or bad base64 data, another format, a checkpoint of other
    layers, or params of another count or shape than ``spec``'s or not finite.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path}: unsupported checkpoint format "
                                  f"{doc.get('format')!r}")
        if doc["layers"] != [_layer_to_dict(l) for l in spec]:
            raise CheckpointError(f"{path} holds other layers than the network it is loaded as")
        params = [_decode_array(d) for d in doc["params"]]
        extra = doc.get("extra")
    except CheckpointError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc!r})") from exc
    want = [shape for layer in walk_param_layers(spec) for shape in _layer_shapes(layer)]
    got = [p.shape for p in params]
    if got != want:
        raise CheckpointError(f"{path}: params of shapes {got}, the network needs {want}")
    if not all_finite(params):
        raise CheckpointError(f"{path}: params not all finite")
    return params, extra

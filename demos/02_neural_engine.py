"""The tiny network engine: fit a nonlinear function with conv layers.

Trains a small two-layer convolutional network to reproduce a blurred
version of its input plane, then verifies analytic gradients against
finite differences.
"""

import numpy as np

from fleetsim import neural

rng = np.random.default_rng(0)
spec = (
    neural.Conv2D(1, 8, 3, 3, "relu", "same"),
    neural.Conv2D(8, 1, 1, 1, "linear", "same"),
)
params = neural.init_params(spec, rng)
opt = neural.RmsProp(lr=2e-3)

def target_fn(x):
    return neural.avg_pool(x[..., 0], 3)[..., None]

losses = []
for step in range(300):
    xb = rng.uniform(0, 1, size=(8, 10, 10, 1))
    yb = target_fn(xb)
    out, caches = neural.forward_cached(spec, params, xb)
    d = 2.0 * (out - yb) / out.size
    grads = neural.backward_from_grad(spec, params, caches, d)
    opt.step(params, grads)
    losses.append(float(((out - yb) ** 2).mean()))

print(f"loss step 1: {losses[0]:.5f}  step 300: {losses[-1]:.5f}")

# spot gradient check on one parameter
x = rng.uniform(0, 1, size=(10, 10, 1))
y = target_fn(x[None])[0]
out, caches = neural.forward_cached(spec, params, x[None])
analytic = neural.backward_from_grad(spec, params, caches, 2.0 * (out - y[None]))
h = 1e-5
w = params[0]
idx = (0, 1, 1, 0)
orig = w[idx]
w[idx] = orig + h
up = float(((neural.forward(spec, params, x) - y) ** 2).sum())
w[idx] = orig - h
down = float(((neural.forward(spec, params, x) - y) ** 2).sum())
w[idx] = orig
numeric = (up - down) / (2 * h)
print(f"gradient check: analytic {analytic[0][idx]:+.6f} vs numeric {numeric:+.6f}")

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

def target_fn(x):
    # 3x3 stride-1 mean pool with zero padding, from one integral image
    plane = x[..., 0]
    bounds = neural.pool_bounds(plane.shape[-2], plane.shape[-1], 3)
    return neural.window_mean(neural.integral_image(plane), bounds, 3)[..., None]

# a fixed training set, seen in shuffled minibatches of 8 each epoch
xs = rng.uniform(0, 1, size=(800, 10, 10, 1))
ys = target_fn(xs)
before = float(((neural.forward(spec, params, xs) - ys) ** 2).mean())
neural.fit(spec, params, xs, lambda idx, out: 2.0 * (out - ys[idx]) / out.size,
           rng, epochs=3, batch_size=8, lr=2e-3)
after = float(((neural.forward(spec, params, xs) - ys) ** 2).mean())
print(f"loss before training: {before:.5f}  after 3 epochs: {after:.5f}")

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
up = float(((neural.forward(spec, params, x[None]) - y[None]) ** 2).sum())
w[idx] = orig - h
down = float(((neural.forward(spec, params, x[None]) - y[None]) ** 2).sum())
w[idx] = orig
numeric = (up - down) / (2 * h)
print(f"gradient check: analytic {analytic[0][idx]:+.6f} vs numeric {numeric:+.6f}")

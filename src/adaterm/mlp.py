"""A small fully-connected ReLU network with explicit batched passes.

The parameters of n independent models are stacked on a leading trial axis
(``stack_parameters``), and ``forward`` / ``backward`` evaluate all n at
once; a single model is the case n = 1.  Hidden layers use ReLU
(subgradient 0 at exactly 0) and the output layer is linear.  This is all
the model machinery the regression experiment needs; there is deliberately
no general autodiff here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MlpModel", "stack_parameters", "forward", "backward", "mse_loss"]


class MlpModel:
    """Feedforward ReLU network.

    Args:
        layer_sizes: unit counts from input to output, at least two;
            ``len - 1`` linear layers are created.
        rng: numpy Generator for the He-uniform fan-in initialization
            (weights in +-sqrt(6/fan_in), biases zero).
    """

    def __init__(self, layer_sizes, rng):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"Invalid layer sizes: {layer_sizes}")
        self.layer_sizes = sizes
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / n_in)
            self.weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
            self.biases.append(np.zeros(n_out))


def stack_parameters(models):
    """Stack the parameters of n models on a leading trial axis, one entry
    per layer: ([(n, in, out) weights], [(n, out) biases])."""
    Ws = [np.stack(ws) for ws in zip(*(m.weights for m in models))]
    Bs = [np.stack(bs) for bs in zip(*(m.biases for m in models))]
    return Ws, Bs


def forward(Ws, Bs, x):
    """x: (n, batch, in) -> (y_hat, layer inputs, ReLU masks).

    ``masks[j]`` marks the strictly positive pre-activations of hidden
    layer j; the inputs and masks are what ``backward`` needs.
    """
    if x.ndim != 3 or x.shape[2] != Ws[0].shape[1]:
        raise ValueError(f"Expected input of shape (n, batch, in), got {x.shape}")
    inputs = [x]
    masks = []
    a = x
    last = len(Ws) - 1
    for j, (W, B) in enumerate(zip(Ws, Bs)):
        z = a @ W + B[:, None, :]
        if j < last:
            masks.append(z > 0.0)
            a = np.where(masks[-1], z, 0.0)
            inputs.append(a)
        else:
            a = z
    return a, inputs, masks


def backward(Ws, inputs, masks, delta):
    """Exact gradients of each trial's scalar loss w.r.t. every weight and
    bias, given ``delta``, the loss gradient w.r.t. the (n, batch, out)
    output.  Returns ([dW per layer], [dB per layer])."""
    if len(masks) != len(Ws) - 1:
        raise ValueError(
            f"{len(masks)} ReLU masks do not match a model of depth {len(Ws)}"
        )
    gWs = [None] * len(Ws)
    gBs = [None] * len(Ws)
    for j in range(len(Ws) - 1, -1, -1):
        if j < len(Ws) - 1:
            delta = delta * masks[j]
        gWs[j] = np.swapaxes(inputs[j], 1, 2) @ delta
        gBs[j] = delta.sum(axis=1)
        if j > 0:
            delta = delta @ np.swapaxes(Ws[j], 1, 2)
    return gWs, gBs


def mse_loss(y_hat, y):
    """Per-trial mean squared error over each (batch, out) block; returns
    (loss (n,), d loss/d y_hat), the ``delta`` that ``backward`` takes."""
    if y_hat.shape != y.shape:
        raise ValueError(f"Shape mismatch: {y_hat.shape} vs {y.shape}")
    diff = y_hat - y
    return np.mean(diff**2, axis=(1, 2)), 2.0 * diff / diff[0].size

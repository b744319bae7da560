"""Feedforward softmax classifier trained with Adam and early stopping.

ReLU hidden layers, cross-entropy loss, Glorot-uniform initialization and
mini-batch shuffling both driven by a seeded generator. Training keeps the
parameter snapshot with the best validation loss and stops once the number of
consecutive epochs without improvement exceeds the patience.

``fit_mlp`` holds every weight and bias in one flat vector, with per-layer
``(W, b)`` views into it, and the gradient in a second flat vector of the same
layout. Adam then updates all layers with a few in-place operations on whole
vectors, in the same arithmetic order as a per-array update, so the fitted
parameters do not depend on the layout. Each epoch takes one permuted copy of
the training rows, and the mini-batches are slices of it.
"""

from __future__ import annotations

import numpy as np

from ..errors import FitError
from ..staterep import StateMatrix
from .base import PolicyModel, register_model
from .logreg import softmax

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def init_params(
    layer_sizes: list[int], rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Glorot-uniform weights and zero biases for consecutive layer pairs."""
    params = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params.append((W, np.zeros(fan_out)))
    return params


def forward(
    params: list[tuple[np.ndarray, np.ndarray]], X: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Class probabilities plus per-layer activations (inputs first)."""
    activations = [X]
    h = X
    for i, (W, b) in enumerate(params):
        z = h @ W
        z += b
        h = np.maximum(z, 0.0, out=z) if i < len(params) - 1 else softmax(z)
        activations.append(h)
    return h, activations


def gradient(
    params: list[tuple[np.ndarray, np.ndarray]],
    X: np.ndarray,
    Y: np.ndarray,
    grads: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Write the gradient of the mean cross-entropy on one batch into
    ``grads`` (a ``(gW, gb)`` pair per layer) and return the batch's class
    probabilities."""
    probs, activations = forward(params, X)
    delta = probs - Y
    delta /= X.shape[0]
    for i in range(len(params) - 1, -1, -1):
        gW, gb = grads[i]
        np.matmul(activations[i].T, delta, out=gW)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            delta = delta @ params[i][0].T
            delta *= activations[i] > 0
    return probs


def _layer_views(
    flat: np.ndarray, layer_sizes: list[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer ``(W, b)`` views into a vector laid out as W1, b1, W2, b2, ..."""
    views, at = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        W = flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out)
        at += fan_in * fan_out
        views.append((W, flat[at : at + fan_out]))
        at += fan_out
    return views


@register_model
class MLPPolicy(PolicyModel):
    kind = "mlp"

    def __init__(self, feature_names, class_labels, params):
        super().__init__(feature_names, class_labels)
        self.params = [(np.asarray(W, dtype=float), np.asarray(b, dtype=float)) for W, b in params]

    def _predict_proba_impl(self, X: np.ndarray) -> np.ndarray:
        probs, _ = forward(self.params, X)
        return probs

    def _params_dict(self) -> dict:
        return {
            "layers": [
                {"W": W.tolist(), "b": b.tolist()} for W, b in self.params
            ]
        }

    @classmethod
    def _from_params(cls, feature_names, class_labels, params) -> "MLPPolicy":
        layers = [(np.array(l["W"]), np.array(l["b"])) for l in params["layers"]]
        return cls(feature_names, class_labels, layers)


def fit_mlp(
    train: StateMatrix,
    val: StateMatrix,
    hidden_dims: tuple[int, ...] = (32,),
    lr: float = 1e-3,
    batch_size: int = 64,
    max_epochs: int = 100,
    patience: int = 5,
    seed: int = 0,
) -> MLPPolicy:
    """Train with Adam; returns the snapshot with the best validation loss."""
    X, y = train.X, train.y
    K = train.n_actions
    if np.unique(y).size < 2:
        raise FitError("MLP needs at least 2 classes in training data")
    n, d = X.shape
    Y = np.zeros((n, K))
    Y[np.arange(n), y] = 1.0
    Yv = np.zeros((val.n_rows, K))
    Yv[np.arange(val.n_rows), val.y] = 1.0

    rng = np.random.default_rng(seed)
    sizes = [d, *hidden_dims, K]
    theta = np.concatenate([a.ravel() for layer in init_params(sizes, rng) for a in layer])
    params = _layer_views(theta, sizes)
    grad = np.empty_like(theta)
    grads = _layer_views(grad, sizes)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    num, den = np.empty_like(theta), np.empty_like(theta)

    def val_loss() -> float:
        probs, _ = forward(params, val.X)
        return -float(np.sum(Yv * np.log(np.maximum(probs, 1e-300)))) / max(val.n_rows, 1)

    best_loss = val_loss()
    best_theta = theta.copy()
    epochs_since_best = 0
    step = 0
    batch_size = max(1, min(batch_size, n))

    for _ in range(max_epochs):
        order = rng.permutation(n)
        Xp, Yp = X[order], Y[order]
        for start in range(0, n, batch_size):
            batch = slice(start, start + batch_size)
            probs = gradient(params, Xp[batch], Yp[batch], grads)
            # softmax outputs lie in [0, 1] or are NaN, so the batch log-loss
            # is non-finite exactly when a probability is NaN
            if np.isnan(probs).any():
                raise FitError("training diverged: non-finite loss")
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
            m *= ADAM_BETA1
            np.multiply(grad, 1 - ADAM_BETA1, out=num)
            m += num
            v *= ADAM_BETA2
            np.square(grad, out=den)
            den *= 1 - ADAM_BETA2
            v += den
            # theta -= lr * (m/c1) / (sqrt(v/c2) + eps)
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            np.divide(m, c1, out=num)
            num *= lr
            num /= den
            theta -= num
        current = val_loss()
        if not np.isfinite(current):
            raise FitError("training diverged: non-finite validation loss")
        if current < best_loss - 1e-12:
            best_loss = current
            best_theta[...] = theta
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > patience:
                break

    return MLPPolicy(train.feature_names, train.action_labels, _layer_views(best_theta, sizes))

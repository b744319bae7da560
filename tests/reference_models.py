"""Reference dense-model arithmetic, array by array.

``reference_softmax``, ``reference_log_softmax`` and
``reference_penalized_objective`` take row maxima and sums with numpy's
reductions along the short axis. ``reference_fit_mlp`` trains in float32
with Adam on one ``(W, b)`` pair of arrays per layer, gathers each
mini-batch by fancy indexing and tests every step's log-loss for
finiteness. It takes the bias gradient as a product with a vector of ones
and folds Adam's bias corrections into the step size and epsilon,
``lr*sqrt(c2)/c1 * m / (sqrt(v) + eps*sqrt(c2))``, and floors the
probabilities under the log at ``LOSS_FLOOR``, summing the loss in float64.
The column folds in ``seqpol.models.logreg`` and the flat-vector loop in
``seqpol.models.mlp`` must agree with them bit for bit.
"""

import math

import numpy as np

from seqpol.errors import FitError
from seqpol.models.mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LOSS_FLOOR, init_params


def reference_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def reference_penalized_objective(theta, X, Y, C):
    n, d = X.shape
    K = Y.shape[1]
    W = theta[: d * K].reshape(d, K)
    b = theta[d * K :]
    logp = reference_log_softmax(X @ W + b)
    loss = -float((Y * logp).sum()) / n + float((W * W).sum()) / (2.0 * C * n)
    R = (np.exp(logp) - Y) / n
    grad_W = X.T @ R + W / (C * n)
    return loss, np.concatenate([grad_W.ravel(), R.sum(axis=0)])


def reference_forward(params, X):
    activations = [X]
    h = X
    for i, (W, b) in enumerate(params):
        z = h @ W + b
        h = np.maximum(z, 0.0) if i < len(params) - 1 else reference_softmax(z)
        activations.append(h)
    return h, activations


def loss_and_grads(params, X, Y):
    """Mean cross-entropy of one batch and its gradient for every array."""
    n = X.shape[0]
    probs, activations = reference_forward(params, X)
    loss = -float(np.sum(Y * np.log(np.maximum(probs, LOSS_FLOOR)), dtype=np.float64)) / n
    grads = [None] * len(params)
    delta = (probs - Y) / n
    ones = np.ones(n, dtype=delta.dtype)
    for i in range(len(params) - 1, -1, -1):
        grads[i] = (activations[i].T @ delta, ones @ delta)
        if i > 0:
            delta = (delta @ params[i][0].T) * (activations[i] > 0)
    return loss, grads


def reference_fit_mlp(
    train, val, hidden_dims=(32,), lr=1e-3, batch_size=64, max_epochs=100, patience=5, seed=0
):
    """Returns the best snapshot's ``(W, b)`` pairs and the number of epochs run."""
    X, y = train.X, train.y
    K = train.n_actions
    if np.unique(y).size < 2:
        raise FitError("MLP needs at least 2 classes in training data")
    with np.errstate(over="ignore"):
        X, Xv = X.astype(np.float32), val.X.astype(np.float32)
    n, d = X.shape
    Y = np.zeros((n, K), dtype=np.float32)
    Y[np.arange(n), y] = 1.0
    Yv = np.zeros((val.n_rows, K), dtype=np.float32)
    Yv[np.arange(val.n_rows), val.y] = 1.0

    rng = np.random.default_rng(seed)
    params = [
        (W.astype(np.float32), b.astype(np.float32))
        for W, b in init_params([d, *hidden_dims, K], rng)
    ]
    m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]

    def val_loss():
        probs, _ = reference_forward(params, Xv)
        logp = np.log(np.maximum(probs, LOSS_FLOOR))
        return -float(np.sum(Yv * logp, dtype=np.float64)) / max(val.n_rows, 1)

    best_loss = val_loss()
    best_params = [(W.copy(), b.copy()) for W, b in params]
    epochs_since_best = 0
    step = 0
    epochs = 0
    batch_size = max(1, min(batch_size, n))

    for _ in range(max_epochs):
        epochs += 1
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grads = loss_and_grads(params, X[idx], Y[idx])
            if not np.isfinite(loss):
                raise FitError("training diverged: non-finite loss")
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            root_c2 = math.sqrt(1.0 - ADAM_BETA2**step)
            step_size, eps = lr * root_c2 / c1, ADAM_EPS * root_c2
            for i, ((W, b), (gW, gb)) in enumerate(zip(params, grads)):
                mW, mb = m[i]
                vW, vb = v[i]
                mW[...] = ADAM_BETA1 * mW + (1 - ADAM_BETA1) * gW
                mb[...] = ADAM_BETA1 * mb + (1 - ADAM_BETA1) * gb
                vW[...] = ADAM_BETA2 * vW + (1 - ADAM_BETA2) * gW**2
                vb[...] = ADAM_BETA2 * vb + (1 - ADAM_BETA2) * gb**2
                W -= step_size * mW / (np.sqrt(vW) + eps)
                b -= step_size * mb / (np.sqrt(vb) + eps)
        current = val_loss()
        if not np.isfinite(current):
            raise FitError("training diverged: non-finite validation loss")
        if current < best_loss - 1e-12:
            best_loss = current
            best_params = [(W.copy(), b.copy()) for W, b in params]
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > patience:
                break

    return best_params, epochs

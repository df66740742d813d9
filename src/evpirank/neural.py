"""Minimal dense neural stack with hand-written gradients.

Everything runs in double precision on numpy arrays: an LSTM sequence
encoder whose output is the mean of its hidden states, multi-layer tanh
feedforward networks with a linear final layer, the Adam optimizer, a
central-difference gradient checker, and a bit-exact checkpoint format.

Gradients are implemented per architecture rather than through a general
autodiff graph; the gradient checker is the safety net for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

CHECKPOINT_HEADER = "EVPIRANK-CKPT v1"

GATES = ("i", "f", "o", "g")

DEFAULT_INIT_SCALE = 0.08
DEFAULT_FORGET_BIAS = 1.0


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    if scalar:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Parameter containers


@dataclass
class LstmParams:
    """Gate weights of a single-layer LSTM.

    W_* map the input (hidden_dim x input_dim), U_* map the previous hidden
    state (hidden_dim x hidden_dim), b_* are gate biases.
    """

    W_i: np.ndarray
    W_f: np.ndarray
    W_o: np.ndarray
    W_g: np.ndarray
    U_i: np.ndarray
    U_f: np.ndarray
    U_o: np.ndarray
    U_g: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.W_i.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W_i.shape[0]

    @classmethod
    def init(
        cls,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        scale: float = DEFAULT_INIT_SCALE,
        forget_bias: float = DEFAULT_FORGET_BIAS,
    ) -> "LstmParams":
        def w(rows, cols):
            return rng.uniform(-scale, scale, size=(rows, cols))

        params = cls(
            W_i=w(hidden_dim, input_dim),
            W_f=w(hidden_dim, input_dim),
            W_o=w(hidden_dim, input_dim),
            W_g=w(hidden_dim, input_dim),
            U_i=w(hidden_dim, hidden_dim),
            U_f=w(hidden_dim, hidden_dim),
            U_o=w(hidden_dim, hidden_dim),
            U_g=w(hidden_dim, hidden_dim),
            b_i=np.zeros(hidden_dim),
            b_f=np.full(hidden_dim, forget_bias, dtype=np.float64),
            b_o=np.zeros(hidden_dim),
            b_g=np.zeros(hidden_dim),
        )
        return params

    def tensors(self, prefix: str = "") -> dict[str, np.ndarray]:
        out = {}
        for gate in GATES:
            out[f"{prefix}W_{gate}"] = getattr(self, f"W_{gate}")
        for gate in GATES:
            out[f"{prefix}U_{gate}"] = getattr(self, f"U_{gate}")
        for gate in GATES:
            out[f"{prefix}b_{gate}"] = getattr(self, f"b_{gate}")
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], prefix: str = "") -> "LstmParams":
        kwargs = {}
        for kind in ("W", "U", "b"):
            for gate in GATES:
                kwargs[f"{kind}_{gate}"] = tensors[f"{prefix}{kind}_{gate}"]
        return cls(**kwargs)


@dataclass
class FeedForwardParams:
    """Affine layer stack: tanh on hidden layers, linear final layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @classmethod
    def init(
        cls,
        layer_dims: Sequence[int],
        rng: np.random.Generator,
        scale: float | None = None,
    ) -> "FeedForwardParams":
        """Gain-corrected Xavier-uniform weights, or a fixed uniform scale.

        A fixed small scale attenuates signal multiplicatively across deep
        tanh stacks, which stalls training for the 5- and 10-hidden-layer
        networks used here. Xavier limits scaled by the tanh gain 5/3 keep
        the per-layer signal gain near 1 at any depth.
        """
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dimensions")
        tanh_gain = 5.0 / 3.0
        weights = []
        biases = []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            limit = scale if scale is not None else tanh_gain * math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases)

    def tensors(self, prefix: str = "") -> dict[str, np.ndarray]:
        out = {}
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}W{layer}"] = w
            out[f"{prefix}b{layer}"] = b
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], prefix: str = "") -> "FeedForwardParams":
        weights = []
        biases = []
        layer = 0
        while f"{prefix}W{layer}" in tensors:
            weights.append(tensors[f"{prefix}W{layer}"])
            biases.append(tensors[f"{prefix}b{layer}"])
            layer += 1
        if not weights:
            raise ValueError(f"no layers found under prefix {prefix!r}")
        return cls(weights=weights, biases=biases)


def count_parameters(tensors: dict[str, np.ndarray]) -> int:
    return sum(int(np.size(t)) for t in tensors.values())


def zeros_like_tensors(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in tensors.items()}


def copy_tensors(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in tensors.items()}


# ---------------------------------------------------------------------------
# LSTM encoder


@dataclass
class LstmCache:
    xs: np.ndarray          # (T, input_dim)
    i: np.ndarray           # (T, hidden)
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


def lstm_forward(params: LstmParams, xs: np.ndarray) -> tuple[np.ndarray, LstmCache | None]:
    """Run the LSTM over xs (T, input_dim); returns (mean hidden state, cache).

    The empty sequence encodes to the zero vector with no cache.
    """
    xs = np.asarray(xs, dtype=np.float64)
    hidden = params.hidden_dim
    if xs.size == 0:
        return np.zeros(hidden), None
    if xs.ndim != 2 or xs.shape[1] != params.input_dim:
        raise ValueError(f"expected (T, {params.input_dim}) inputs, got {xs.shape}")
    steps = xs.shape[0]
    i_s = np.empty((steps, hidden))
    f_s = np.empty((steps, hidden))
    o_s = np.empty((steps, hidden))
    g_s = np.empty((steps, hidden))
    c_s = np.empty((steps, hidden))
    tanh_c_s = np.empty((steps, hidden))
    h_s = np.empty((steps, hidden))
    h_prev = np.zeros(hidden)
    c_prev = np.zeros(hidden)
    for t in range(steps):
        x = xs[t]
        i_t = sigmoid(params.W_i @ x + params.U_i @ h_prev + params.b_i)
        f_t = sigmoid(params.W_f @ x + params.U_f @ h_prev + params.b_f)
        o_t = sigmoid(params.W_o @ x + params.U_o @ h_prev + params.b_o)
        g_t = np.tanh(params.W_g @ x + params.U_g @ h_prev + params.b_g)
        c_t = f_t * c_prev + i_t * g_t
        tanh_c = np.tanh(c_t)
        h_t = o_t * tanh_c
        i_s[t], f_s[t], o_s[t], g_s[t] = i_t, f_t, o_t, g_t
        c_s[t], tanh_c_s[t], h_s[t] = c_t, tanh_c, h_t
        h_prev, c_prev = h_t, c_t
    cache = LstmCache(xs=xs, i=i_s, f=f_s, o=o_s, g=g_s, c=c_s, tanh_c=tanh_c_s, h=h_s)
    return h_s.mean(axis=0), cache


def lstm_backward(
    params: LstmParams, cache: LstmCache | None, d_mean: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of scalar loss wrt params, given d(loss)/d(mean hidden state)."""
    grads = {
        f"{kind}_{gate}": np.zeros_like(getattr(params, f"{kind}_{gate}"))
        for kind in ("W", "U", "b")
        for gate in GATES
    }
    if cache is None:
        return grads
    steps, hidden = cache.h.shape
    dh_shared = np.asarray(d_mean, dtype=np.float64) / steps
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        dh = dh_shared + dh_next
        i_t, f_t, o_t, g_t = cache.i[t], cache.f[t], cache.o[t], cache.g[t]
        tanh_c = cache.tanh_c[t]
        c_prev = cache.c[t - 1] if t > 0 else np.zeros(hidden)
        h_prev = cache.h[t - 1] if t > 0 else np.zeros(hidden)
        x_t = cache.xs[t]

        d_o = dh * tanh_c
        dc = dh * o_t * (1.0 - tanh_c**2) + dc_next
        d_f = dc * c_prev
        d_i = dc * g_t
        d_g = dc * i_t

        dpre = {
            "i": d_i * i_t * (1.0 - i_t),
            "f": d_f * f_t * (1.0 - f_t),
            "o": d_o * o_t * (1.0 - o_t),
            "g": d_g * (1.0 - g_t**2),
        }
        dh_next = np.zeros(hidden)
        for gate in GATES:
            grads[f"W_{gate}"] += np.outer(dpre[gate], x_t)
            grads[f"U_{gate}"] += np.outer(dpre[gate], h_prev)
            grads[f"b_{gate}"] += dpre[gate]
            dh_next += getattr(params, f"U_{gate}").T @ dpre[gate]
        dc_next = dc * f_t
    return grads


# ---------------------------------------------------------------------------
# Feedforward stack


def feedforward_forward(
    params: FeedForwardParams, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Affine + tanh on hidden layers, linear final layer; (output, activations)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise ValueError(f"expected input of shape ({params.input_dim},), got {x.shape}")
    activations = [x]
    n_layers = len(params.weights)
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = w @ activations[-1] + b
        if layer < n_layers - 1:
            z = np.tanh(z)
        activations.append(z)
    return activations[-1], activations


def feedforward_backward(
    params: FeedForwardParams, activations: list[np.ndarray], d_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients wrt each layer plus the gradient propagated to the input."""
    grads: dict[str, np.ndarray] = {}
    delta = np.asarray(d_out, dtype=np.float64)
    n_layers = len(params.weights)
    for layer in range(n_layers - 1, -1, -1):
        out_act = activations[layer + 1]
        if layer < n_layers - 1:
            delta = delta * (1.0 - out_act**2)
        grads[f"W{layer}"] = np.outer(delta, activations[layer])
        grads[f"b{layer}"] = delta.copy()
        delta = params.weights[layer].T @ delta
    return grads, delta


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def fresh(cls, tensors: dict[str, np.ndarray]) -> "AdamState":
        return cls(step=0, m=zeros_like_tensors(tensors), v=zeros_like_tensors(tensors))


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update with bias correction; tensors are updated in place."""
    state.step += 1
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step
    for name, grad in grads.items():
        tensor = tensors[name]
        if tensor.shape != grad.shape:
            raise ValueError(f"shape mismatch for {name}: {tensor.shape} vs {grad.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad**2
        tensor -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return tensors, state


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(
    loss_fn: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    n_probes: int = 10,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn(params) must return (scalar loss, gradient dict). n_probes
    randomly chosen coordinates are perturbed by +/- eps; the relative error
    is |g_a - g_n| / max(1e-8, |g_a| + |g_n|).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    loss, grads = loss_fn(params)
    if not math.isfinite(loss):
        raise ValueError(f"loss is not finite: {loss}")
    names = sorted(params)
    sizes = np.array([params[name].size for name in names])
    total = int(sizes.sum())
    if total == 0:
        raise ValueError("no parameters to probe")
    worst = 0.0
    for _ in range(n_probes):
        flat = int(rng.integers(0, total))
        cum = 0
        for name, size in zip(names, sizes):
            if flat < cum + size:
                idx = flat - cum
                break
            cum += size
        tensor = params[name]
        original = tensor.flat[idx]
        tensor.flat[idx] = original + eps
        loss_plus = loss_fn(params)[0]
        tensor.flat[idx] = original - eps
        loss_minus = loss_fn(params)[0]
        tensor.flat[idx] = original
        if not (math.isfinite(loss_plus) and math.isfinite(loss_minus)):
            raise ValueError("perturbed loss is not finite")
        g_numeric = (loss_plus - loss_minus) / (2.0 * eps)
        g_analytic = grads[name].flat[idx]
        rel = abs(g_analytic - g_numeric) / max(1e-8, abs(g_analytic) + abs(g_numeric))
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors as a text manifest followed by raw little-endian doubles.

    Round-trips bit-exactly through load_checkpoint.
    """
    names = list(tensors)
    for name in names:
        if any(ws in name for ws in (" ", "\t", "\n")):
            raise ValueError(f"tensor name may not contain whitespace: {name!r}")
    with open(path, "wb") as handle:
        lines = [CHECKPOINT_HEADER, str(len(names))]
        for name in names:
            arr = tensors[name]
            shape = " ".join(str(d) for d in arr.shape)
            lines.append(f"{name} {arr.ndim}" + (f" {shape}" if arr.ndim else ""))
        lines.append("data")
        handle.write(("\n".join(lines) + "\n").encode("utf-8"))
        for name in names:
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            handle.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as handle:
        blob = handle.read()
    marker = b"\ndata\n"
    head_end = blob.find(marker)
    if head_end < 0:
        raise ValueError("malformed checkpoint: no data section")
    header_lines = blob[:head_end].decode("utf-8").split("\n")
    if header_lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"not a checkpoint file (missing {CHECKPOINT_HEADER!r} header)")
    n_tensors = int(header_lines[1])
    manifest = []
    for line in header_lines[2 : 2 + n_tensors]:
        parts = line.split(" ")
        name = parts[0]
        ndim = int(parts[1])
        shape = tuple(int(v) for v in parts[2 : 2 + ndim])
        manifest.append((name, shape))
    body = blob[head_end + len(marker) :]
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in manifest:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        chunk = body[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError(f"checkpoint truncated while reading tensor {name!r}")
        arr = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        tensors[name] = arr
        offset += nbytes
    if offset != len(body):
        raise ValueError("checkpoint has trailing bytes after the last tensor")
    return tensors

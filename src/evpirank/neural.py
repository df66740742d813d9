"""Minimal dense neural stack with hand-written gradients.

Everything runs in double precision on numpy arrays: an LSTM sequence
encoder whose output is the mean of its hidden states, multi-layer tanh
feedforward networks with a linear final layer, the Adam optimizer, and a
bit-exact checkpoint format.

The LSTM keeps its four gates stacked in one W, U and b; the per-gate
names of checkpoints (W_i ... b_g) exist only in LstmParams.tensors(),
whose views of the stacked rows assign_tensors writes a checkpoint into.
W and U are transposed views of column-padded arrays that the products
read in place. lstm_forward and lstm_backward run a batch of ragged
sequences as one packed pass, longest first, so each step is one product
over the sequences still running (Appleyard, Kocisky & Blunsom 2016,
arXiv:1604.01946). One forward-only call may run several
encoders of one shape: it cuts each encoder's sequences into token-balanced
groups and hands them out longest first to one thread per usable CPU,
above floors of sequences and FLOPs per group (GROUP_SEQUENCES,
GROUP_FLOPS), with the same bits at every CPU count; BLAS's own threads
(OPENBLAS_NUM_THREADS) multiply with these. The LSTM's and the feedforward
stacks' products are batch-invariant (PRODUCT_COLUMNS).

Gradients are implemented per architecture rather than through a general
autodiff graph; the central-difference gradient suite that acceptance
criterion 1 runs over every trainable component is the safety net for all
of them.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

CHECKPOINT_HEADER = "EVPIRANK-CKPT v1"

GATES = ("i", "f", "o", "g")

DEFAULT_INIT_SCALE = 0.08
DEFAULT_FORGET_BIAS = 1.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise; a scalar gives a 0-d array."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Parameter containers


@dataclass
class LstmParams:
    """Single-layer LSTM weights, the four gates stacked in GATES order.

    Rows [k*H, (k+1)*H) of W (4H x D), U (4H x H) and b (4H) belong to gate
    GATES[k]. Checkpoints, gradients and Adam state use per-gate names, and
    only tensors() spells them: it returns views of these rows, so writes
    through it (adam_step, assign_tensors) reach the model.

    W and U are copied in at construction and kept as transposed views of
    w_t (D x 4H') and u_t (H x 4H'), contiguous arrays whose columns past
    4H are zero up to a multiple of PRODUCT_COLUMNS. lstm_forward's products
    read w_t and u_t in place, so no pass copies a weight.
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    w_t: np.ndarray = field(init=False, repr=False, compare=False)
    u_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.w_t = _padded_columns(self.W.T)
        self.u_t = _padded_columns(self.U.T)
        self.W = self.w_t[:, : len(self.W)].T
        self.U = self.u_t[:, : len(self.U)].T

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W.shape[0] // len(GATES)

    @classmethod
    def init(
        cls,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        scale: float = DEFAULT_INIT_SCALE,
    ) -> "LstmParams":
        rows = len(GATES) * hidden_dim
        return cls(
            W=rng.uniform(-scale, scale, size=(rows, input_dim)),
            U=rng.uniform(-scale, scale, size=(rows, hidden_dim)),
            b=np.repeat([0.0, DEFAULT_FORGET_BIAS, 0.0, 0.0], hidden_dim),  # i, f, o, g
        )

    def tensors(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Per-gate views W_i..W_g, U_i..U_g, b_i..b_g; writes reach the model."""
        hidden = self.hidden_dim
        return {
            f"{prefix}{kind}_{gate}": stacked[k * hidden : (k + 1) * hidden]
            for kind, stacked in (("W", self.W), ("U", self.U), ("b", self.b))
            for k, gate in enumerate(GATES)
        }


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


def zeros_like_tensors(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in tensors.items()}


def copy_tensors(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in tensors.items()}


def assign_tensors(tensors: dict[str, np.ndarray], values: dict[str, np.ndarray]) -> None:
    """Copy each checkpoint tensor of values into the array of its name in a model's tensors().

    The names and shapes must match exactly. The first difference, in the
    model's order and then the checkpoint's other names, raises ValueError
    naming that tensor before anything is written.
    """
    for name in [*tensors, *values]:
        have = str(values[name].shape) if name in values else "absent"
        want = str(tensors[name].shape) if name in tensors else "absent"
        if have != want:
            raise ValueError(f"tensor {name!r} is {have} in the checkpoint but {want} in the model")
    for name, tensor in tensors.items():
        tensor[...] = values[name]


# ---------------------------------------------------------------------------
# LSTM encoder


@dataclass
class LstmCache:
    """A packed batch: the rows of step t are one contiguous block, slot k of
    each block is the k-th longest sequence, and every array has one row per
    token."""

    xs: np.ndarray          # (N, input_dim)
    gates: np.ndarray       # (N, 4 * hidden): i, f, o, g activations
    c: np.ndarray           # (N, hidden)
    h: np.ndarray           # (N, hidden)
    lengths: np.ndarray     # (B,) rows of each sequence, in input order
    order: np.ndarray       # (B,) the input sequence held by each slot
    batch_sizes: np.ndarray # (T,) sequences still running at each step


# Batch invariance of the LSTM's and the feedforward stacks' products. On
# OpenBLAS a row of a product of two or more rows gets the same bits in every
# such product, whatever its other rows, when the column count is a multiple
# of 8; a one-row product (a GEMV) and other column counts can round it
# differently (probed on OpenBLAS 0.3.31, Haswell kernels, 1 and 2 threads:
# 2 to 4,000 rows, inner dimensions 3 to 300). So both pad their weight
# columns to a multiple of PRODUCT_COLUMNS and run a one-row product as two
# rows: a text encodes, and a candidate scores, to the same bits alone and
# in any batch ("Defeating Nondeterminism in LLM Inference",
# https://thinkingmachines.ai/blog/defeating-nondeterminism-in-llm-inference/).
PRODUCT_COLUMNS = 8


def _padded_columns(w_t: np.ndarray) -> np.ndarray:
    """w_t (K, N) as a contiguous (K, N') with zero columns up to a multiple of PRODUCT_COLUMNS."""
    out = np.zeros((w_t.shape[0], -(-w_t.shape[1] // PRODUCT_COLUMNS) * PRODUCT_COLUMNS))
    out[:, : w_t.shape[1]] = w_t
    return out


def _rows_times(x: np.ndarray, w: np.ndarray, cols: int) -> np.ndarray:
    """(x @ w)[:, :cols], a one-row x run as a two-row product (see PRODUCT_COLUMNS)."""
    if len(x) == 1:
        return (np.concatenate([x, x]) @ w)[:1, :cols]
    return (x @ w)[:, :cols]


# A forward-only call cuts each encoder's longest-first sequences into at
# most one group per usable CPU, and a group holds at least GROUP_SEQUENCES
# sequences and GROUP_FLOPS of work, counted as the gate products' FLOPs:
# tokens x 8H(D + H). The call steps its groups on one thread per usable
# CPU, and on one thread per GROUP_FLOPS of its whole work at most, so a
# small call, such as train's tune evaluation at H = 24 (under 5 MFLOP),
# stays on the caller's thread: below the floor the threads' short products
# spend more time waiting for the GIL than they save. Two groups of one
# pass broke even near 75 to 80 MFLOP each at d = 200 (H = 24 and 100) and
# near 25 MFLOP at d = 24, H = 24 (2-core x86-64, OpenBLAS on 1 thread;
# CHANGES.md holds the table); at H = 100, d = 200, 100 MFLOP is about 32
# sequences of 13 tokens.
GROUP_SEQUENCES = 64
GROUP_FLOPS = 100e6


def _token_groups(sorted_lens: np.ndarray, token_flops: int, cpus: int) -> list[int]:
    """Bounds of contiguous groups of the longest-first lengths that hold about equal tokens.

    There are at most cpus groups, each of at least GROUP_SEQUENCES
    sequences and GROUP_FLOPS at token_flops a token. The first group holds
    at least the longest sequence, so the long sequences share one group and
    the many short ones the others.
    """
    cumulative = np.cumsum(sorted_lens)
    total = int(cumulative[-1]) if len(cumulative) else 0
    count = min(cpus, len(sorted_lens) // GROUP_SEQUENCES, int(total * token_flops // GROUP_FLOPS))
    if count < 2:
        return [0, len(sorted_lens)]
    cuts = np.searchsorted(cumulative, total * np.arange(1, count) / count, side="right")
    # np.unique would import numpy.ma (1 MB) on its first call
    return sorted({0, *np.maximum(cuts, 1).tolist(), len(sorted_lens)})


def _running(sorted_lens: np.ndarray) -> np.ndarray:
    """The number of the longest-first sequences still running at each step."""
    steps = np.arange(sorted_lens[0] if len(sorted_lens) else 0)
    return len(sorted_lens) - np.searchsorted(sorted_lens[::-1], steps, side="right")


def _on_threads(fn: Callable, calls: list[tuple], threads: int) -> None:
    """fn(*args) for each args of calls, on this thread and threads - 1 threads of their own.

    Each thread takes the first call no thread has taken, until none is
    left. Every thread has ended when this returns or raises; the exception
    of the first call that raised is raised here.
    """
    errors: list = [None] * len(calls)
    taken = itertools.count()  # next() on it is one atomic step under the GIL

    def work() -> None:
        while (k := next(taken)) < len(calls):
            try:
                fn(*calls[k])
            except BaseException as exc:
                errors[k] = exc

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def lstm_forward(
    params: LstmParams,
    tokens: np.ndarray,
    lengths: Sequence[int],
    gather: Callable[[np.ndarray], np.ndarray],
    for_backward: bool = True,
    others: Sequence[tuple[LstmParams, int]] = (),
) -> tuple[np.ndarray, LstmCache | None]:
    """Run the LSTM over a batch of sequences; returns (mean hidden states, cache).

    tokens holds the token ids of every sequence, concatenated, and lengths
    the id count of each; gather(ids) returns the (len(ids), input_dim) input
    rows of ids. The means come back as (B, hidden). Sorted longest first,
    the sequences still running at step t are a prefix of the batch, so each
    step is one U product over them with no padding or mask. An empty
    sequence encodes to the zero vector.

    With for_backward every token's row is gathered once, in packed order,
    its input projection is one product outside the recurrence, and the
    cache keeps both with every token's cell and hidden state for
    lstm_backward. Without it the cache is None: each step gathers and
    projects the rows of its running sequences only, so no array has a row
    per token. Both give the same bits.

    A forward-only call may run several encoders of params's shape: others
    holds (encoder, count) pairs, and each runs the next count sequences
    after those of params and of the pairs before it. Each encoder's
    sequences are sorted longest first on their own and cut into contiguous
    groups of about equal tokens (_token_groups). The groups are handed out
    longest first to one thread per usable CPU, the caller's thread
    included, within the floors of GROUP_SEQUENCES and GROUP_FLOPS. A row's
    products do not depend on the other rows (PRODUCT_COLUMNS), so the
    means have the same bits at every CPU count and in any call. Each
    thread's BLAS calls run on OPENBLAS_NUM_THREADS threads of their own, so
    the two counts multiply.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    hidden = params.hidden_dim
    if gather(tokens[:0]).shape != (0, params.input_dim):
        raise ValueError(f"gather does not return rows of length {params.input_dim}")
    lens = np.array(lengths, dtype=np.int64).reshape(-1)
    if (lens < 0).any() or lens.sum() != len(tokens):
        raise ValueError(f"lengths {list(lens)} do not split {len(tokens)} tokens")
    counts = [len(lens) - sum(count for _, count in others), *(count for _, count in others)]
    if for_backward and others:
        raise ValueError("a pass for backward runs one encoder")
    if min(counts) < 0:
        raise ValueError(f"the other encoders' {counts[1:]} sequences exceed {len(lens)}")
    if any((lstm.input_dim, lstm.hidden_dim) != (params.input_dim, hidden) for lstm, _ in others):
        raise ValueError("every encoder of one pass must have params's shape")
    # encoder k runs sequences edges[k]:edges[k + 1], sorted longest first on their own
    edges = np.cumsum([0, *counts])
    order = np.concatenate([
        lo + np.argsort(-lens[lo:hi], kind="stable") for lo, hi in zip(edges[:-1], edges[1:])
    ])
    sorted_lens = lens[order]
    sorted_starts = (np.cumsum(lens) - lens)[order]
    width = len(GATES) * hidden
    if for_backward:
        batch_sizes = _running(sorted_lens)
        steps = np.arange(len(batch_sizes))
        # Packed row r at step t, slot k, is token t of sequence order[k].
        slot = np.arange(len(tokens)) - np.repeat(np.cumsum(batch_sizes) - batch_sizes, batch_sizes)
        xs = gather(tokens[sorted_starts[slot] + np.repeat(steps, batch_sizes)])
        gates = _rows_times(xs, params.w_t, width) + params.b
        c_s = np.empty((len(xs), hidden))
        h_s = np.empty((len(xs), hidden))
    i_, f_, o_, g_ = (slice(k * hidden, (k + 1) * hidden) for k in range(len(GATES)))
    ifo = slice(0, 3 * hidden)
    sums = np.zeros((len(lens), hidden))

    def run(lstm: LstmParams, first: int, last: int) -> None:
        """Add into sums the hidden states of sorted sequences first..last-1, stepped alone."""
        starts = sorted_starts[first:last]
        h_prev = c_prev = np.zeros((last - first, hidden))
        total = sums[first:last]
        lo = 0  # packed rows lo:hi of gates, c_s and h_s: a for_backward pass is one group
        for t, live in enumerate(_running(sorted_lens[first:last])):
            hi = lo + live
            if for_backward:
                z = gates[lo:hi]
            else:
                z = _rows_times(gather(tokens[starts[:live] + t]), lstm.w_t, width)
                z += lstm.b
            z += _rows_times(h_prev[:live], lstm.u_t, width)
            # sigma(x) = (1 + tanh(x / 2)) / 2, so one tanh serves all four gates
            z[:, ifo] *= 0.5
            np.tanh(z, out=z)
            z[:, ifo] += 1.0
            z[:, ifo] *= 0.5
            c_prev = z[:, f_] * c_prev[:live] + z[:, i_] * z[:, g_]
            h_prev = z[:, o_] * np.tanh(c_prev)
            if for_backward:
                c_s[lo:hi] = c_prev
                h_s[lo:hi] = h_prev
            total[:live] += h_prev
            lo = hi

    # a pass for backward fills one packed cache: one group, on this thread
    usable = hasattr(os, "sched_getaffinity") and not for_backward
    cpus = len(os.sched_getaffinity(0)) if usable else 1
    token_flops = 8 * hidden * (params.input_dim + hidden)
    groups = []
    for lstm, lo, hi in zip([params, *(lstm for lstm, _ in others)], edges[:-1], edges[1:]):
        bounds = _token_groups(sorted_lens[lo:hi], token_flops, cpus)
        groups += [(lstm, lo + a, lo + b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    groups.sort(key=lambda group: -sorted_lens[group[1]])  # stable: longest first
    threads = min(cpus, len(groups), max(1, int(len(tokens) * token_flops // GROUP_FLOPS)))
    _on_threads(run, groups, threads)
    means = np.zeros((len(lens), hidden))
    means[order] = sums / np.maximum(sorted_lens, 1)[:, None]
    cache = LstmCache(xs, gates, c_s, h_s, lens, order, batch_sizes) if for_backward else None
    return means, cache


def lstm_backward(
    params: LstmParams, cache: LstmCache, d_mean: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of scalar loss wrt params, given d(loss)/d(mean hidden states).

    d_mean has lstm_forward's shape, (B, hidden). The recurrence fills
    d(loss)/d(gate pre-activations) for every token, step by step over the
    running sequences; each weight gradient is then one contraction over all
    tokens.
    """
    hidden = params.hidden_dim
    sizes = cache.batch_sizes
    i, f, o, g = np.hsplit(cache.gates, len(GATES))
    tanh_c = np.tanh(cache.c)
    # A row's previous step is the same slot one block earlier.
    first = sizes[0] if len(sizes) else 0
    prev = np.arange(first, len(cache.h)) - np.repeat(sizes[:-1], sizes[1:])
    c_prev = np.zeros_like(cache.c)
    c_prev[first:] = cache.c[prev]
    # d(pre-activation)/d(c) for the i, f and g blocks, d(pre-activation)/d(h) for o
    local = np.hstack(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), tanh_c * o * (1.0 - o), i * (1.0 - g**2)]
    )
    dc_dh = o * (1.0 - tanh_c**2)
    dpre = np.empty_like(cache.gates)
    # (token, gate, hidden) views of local and dpre, to fill dpre block by block in place
    local_gates = local.reshape(len(local), len(GATES), hidden)
    dpre_gates = dpre.reshape(local_gates.shape)
    o_gate = GATES.index("o")
    d_mean = np.asarray(d_mean, dtype=np.float64).reshape(len(cache.order), hidden)
    dh_shared = d_mean[cache.order] / np.maximum(cache.lengths[cache.order], 1)[:, None]
    dh_next = np.zeros_like(dh_shared)
    dc_next = np.zeros_like(dh_shared)
    u = np.ascontiguousarray(params.U)  # a product with the transposed view can round differently
    hi = len(dpre)
    for live in sizes[::-1]:
        lo = hi - live
        dh = dh_shared[:live] + dh_next[:live]
        dc = dh * dc_dh[lo:hi] + dc_next[:live]
        # the i, f and g blocks scale dc, the o block dh
        np.multiply(local_gates[lo:hi], dc[:, None, :], out=dpre_gates[lo:hi])
        np.multiply(local_gates[lo:hi, o_gate], dh, out=dpre_gates[lo:hi, o_gate])
        dh_next[:live] = dpre[lo:hi] @ u
        dc_next[:live] = dc * f[lo:hi]
        hi = lo
    grads = LstmParams(W=dpre.T @ cache.xs, U=dpre[first:].T @ cache.h[prev], b=dpre.sum(axis=0))
    return grads.tensors()


# ---------------------------------------------------------------------------
# Feedforward stack


def feedforward_forward(
    params: FeedForwardParams, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Affine + tanh on hidden layers, linear final layer; (output, activations).

    x holds rows (..., input_dim); a 1-D x is one row. Each layer is one
    product with w.T padded to PRODUCT_COLUMNS columns (_rows_times), which
    gives a row the same bits whatever rows share its call, so identical
    candidates score identically.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (params.input_dim,):
        raise ValueError(f"expected rows of length {params.input_dim}, got shape {x.shape}")
    activations = [x]
    rows = x.reshape(-1, params.input_dim)
    n_layers = len(params.weights)
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        rows = _rows_times(rows, _padded_columns(w.T), len(w)) + b
        if layer < n_layers - 1:
            np.tanh(rows, out=rows)
        activations.append(rows.reshape(*x.shape[:-1], len(w)))
    return activations[-1], activations


def feedforward_backward(
    params: FeedForwardParams, activations: list[np.ndarray], d_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Layer gradients summed over rows, plus the gradient of each input row."""
    grads: dict[str, np.ndarray] = {}
    delta = np.asarray(d_out, dtype=np.float64)
    n_layers = len(params.weights)
    for layer in range(n_layers - 1, -1, -1):
        out_act = activations[layer + 1]
        if layer < n_layers - 1:
            delta = delta * (1.0 - out_act**2)
        rows = delta.reshape(-1, delta.shape[-1])
        grads[f"W{layer}"] = rows.T @ activations[layer].reshape(len(rows), -1)
        grads[f"b{layer}"] = rows.sum(axis=0)
        delta = delta @ params.weights[layer]
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
    tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """One Adam update with bias correction; tensors and state are updated in place."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for name, grad in grads.items():
        tensor = tensors[name]
        if tensor.shape != grad.shape:
            raise ValueError(f"shape mismatch for {name}: {tensor.shape} vs {grad.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad**2
        tensor -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors as a text manifest followed by raw little-endian doubles.

    Round-trips bit-exactly through load_checkpoint. A tensor holding nan or
    inf is refused before the file is opened.
    """
    names = list(tensors)
    for name in names:
        if any(ws in name for ws in (" ", "\t", "\n")):
            raise ValueError(f"tensor name may not contain whitespace: {name!r}")
        if not np.isfinite(tensors[name]).all():
            raise ValueError(f"tensor {name!r} holds nan or inf")
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
    """Read a save_checkpoint file, refusing nan or inf; each tensor owns a copy of its bytes."""
    with open(path, "rb") as handle:
        blob = handle.read()
    marker = b"\ndata\n"
    head_end = blob.find(marker)
    if head_end < 0:
        raise ValueError("malformed checkpoint: no data section")
    header_lines = blob[:head_end].decode("utf-8").split("\n")
    if header_lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"not a checkpoint file (missing {CHECKPOINT_HEADER!r} header)")
    manifest: dict[str, tuple[int, ...]] = {}
    try:
        for line in header_lines[2 : 2 + int(header_lines[1])]:
            name, ndim, *dims = line.split(" ")
            if len(dims) != int(ndim):
                raise ValueError(f"tensor {name!r} has {len(dims)} dimensions, expected {ndim}")
            if name in manifest:
                raise ValueError(f"tensor {name!r} is listed twice")
            manifest[name] = tuple(int(v) for v in dims)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint manifest: {exc}") from None
    tensors: dict[str, np.ndarray] = {}
    offset = head_end + len(marker)
    for name, shape in manifest.items():
        count = int(np.prod(shape)) if shape else 1
        if offset + count * 8 > len(blob):
            raise ValueError(f"checkpoint truncated while reading tensor {name!r}")
        data = np.frombuffer(blob, "<f8", count, offset)
        if not np.isfinite(data).all():
            raise ValueError(f"{name!r} holds nan or inf")
        tensors[name] = data.reshape(shape).astype(np.float64)
        offset += count * 8
    if offset != len(blob):
        raise ValueError("checkpoint has trailing bytes after the last tensor")
    return tensors

"""Minimal dense-network engine: forward, losses, backprop, SGD with momentum.

Everything here is a pure function of its inputs. Parameters live in flat
float64 vectors (`ParamVector`) so that federated averaging, checkpointing
and finite-difference checks all operate on one representation. A
ParamVector carries the NetSpec it belongs to: construction checks once that
the values are 1-D, `spec.param_count()` long and finite. The engine takes
`(spec, values)` or their layer views, never a ParamVector.

Trace contract: each entry point runs the forward pass once, in
`_forward_trace`; `backprop` consumes the `Trace` it returns and never
recomputes it. `ce_grad` thus does one forward per step, and a caller
mixing k networks takes each one's output and trace from `forward_with_trace`.
A trace keeps one array per layer: a ReLU is written over its layer's output,
and a softmax head over the top activation, which backprop never reads.

Stack axis: `_forward_trace`, `forward_with_trace` and `ce_grad` take the
views `unpack` makes of `[..., P]` rows: B networks of one spec as `[B, P]`
rows on `[B, n, d]` inputs, or one network's `[P]` row (an empty lead) on
`[n, d]` inputs. Every matmul, reduction and elementwise op runs per slice,
so row b is bit for bit what network b gives alone; this is how a round's
clients step as one stack. A stepping caller binds each network once:
`sgdm_step` writes the rows in place, so the views stay current. Evaluation,
routing and embedding call `forward` on values, which binds them itself.

Long axes: a max or an argmax over a short last axis (a softmax's classes,
a route's experts) is taken over the leading axis of a contiguous moved
copy, `first_argmax` for the argmax, so numpy makes a few passes over long
rows instead of one call per short row. This is bit for bit: a max, and the
first index that reaches it, do not depend on the order the values are read.
Sums keep numpy's order: a sum along the last axis stays there, and a column
sum moves its axis to the front only where numpy already adds its rows one
after another.

Finiteness is checked at boundaries, not per step. The engine functions
return raw outputs and gradients, and a stack's caller scans each row with
`Scan`, so one client's overflow is charged to it alone; a gradient's error
names the top-most bad layer, which backprop reaches first. `forward`,
embeddings included, makes one `np.isfinite` pass and builds a one-row Scan
only when it fails. ParamVectors are scanned at construction; `sgdm_step`
checks nothing.

Parameter layout for layer dims (d0, d1, ..., dL): for each layer l the
weight matrix W_l of shape (d_l, d_{l+1}) in row-major order, followed by
the bias b_l of length d_{l+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError

LOG_CLAMP = 1e-12

HIDDEN_ACTIVATIONS = ("relu", "identity")
OUTPUT_HEADS = ("logits", "softmax")

# What each finiteness check raises, on one network or for one stack row.
NONFINITE_OUTPUT = "non-finite network output"
NONFINITE_GRADIENT = "non-finite gradient"
NONFINITE_PARAMS = "ParamVector contains non-finite values"


@dataclass(frozen=True)
class NetSpec:
    """Architecture of a dense network.

    `layer_dims` includes the input dimension, so a spec with L+1 dims has
    L weight layers. `activations` has one entry per hidden layer (L-1
    entries); the output layer is always linear, with `head` describing how
    its output is interpreted (`logits` are raw scores, `softmax` means
    `forward` returns row-normalized probabilities).
    """

    layer_dims: tuple[int, ...]
    activations: tuple[str, ...]
    head: str = "logits"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(dims) < 2:
            raise ConfigError(f"NetSpec needs at least 2 layer dims, got {dims}")
        if any(d < 1 for d in dims):
            raise ConfigError(f"all layer dims must be >= 1, got {dims}")
        if len(self.activations) != len(dims) - 2:
            raise ConfigError(
                f"expected {len(dims) - 2} hidden activations for dims {dims}, "
                f"got {len(self.activations)}"
            )
        for act in self.activations:
            if act not in HIDDEN_ACTIVATIONS:
                raise ConfigError(f"unknown activation {act!r}")
        if self.head not in OUTPUT_HEADS:
            raise ConfigError(f"unknown output head {self.head!r}")

    @classmethod
    def mlp(cls, layer_dims, activation: str = "relu", head: str = "logits") -> "NetSpec":
        """Spec with the same activation on every hidden layer."""
        dims = tuple(int(d) for d in layer_dims)
        return cls(dims, (activation,) * max(0, len(dims) - 2), head)

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def param_count(self) -> int:
        return self._layout[-1][2]

    @cached_property
    def _layout(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per layer: (weight start, bias start, bias end, fan_in, fan_out)
        within the flat parameter vector."""
        out, off = [], 0
        for fan_in, fan_out in zip(self.layer_dims, self.layer_dims[1:]):
            bias = off + fan_in * fan_out
            out.append((off, bias, bias + fan_out, fan_in, fan_out))
            off = bias + fan_out
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "layer_dims": list(self.layer_dims),
            "activations": list(self.activations),
            "head": self.head,
        }

    @staticmethod
    def from_dict(d: dict) -> "NetSpec":
        """The spec `to_dict` wrote: a list of JSON ints for `layer_dims`,
        strings for `activations` and `head`. Nothing is coerced, and equal
        dicts give one shared spec, so a process builds each architecture
        (and its layout) once."""
        try:
            dims, acts, head = d["layer_dims"], d["activations"], d["head"]
        except KeyError as exc:
            raise ConfigError(f"net spec dict missing key {exc}") from exc
        if type(dims) is not list or any(type(v) is not int for v in dims):
            raise ConfigError(f"layer_dims must be a list of ints, got {dims!r}")
        if type(acts) is not list or any(type(a) is not str for a in [*acts, head]):
            raise ConfigError(f"activations and head must be strings, got {acts!r} and {head!r}")
        return _shared_spec(tuple(dims), tuple(acts), head)


# Keyed after `from_dict`'s type checks: a bool or float dim, equal to an int as a key, never reaches it.
_shared_spec = cache(NetSpec)


@dataclass
class ParamVector:
    """Flat parameter block of one network, bound to the network's spec."""

    values: np.ndarray
    spec: NetSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        count = self.spec.param_count()
        if self.values.shape != (count,):
            raise ConfigError(f"ParamVector needs shape ({count},) for its spec, got {self.values.shape}")
        self.check_finite()

    def check_finite(self) -> None:
        """Scan the values; in-place updates bypass the scan at construction."""
        if not np.isfinite(self.values).all():
            raise NumericError(NONFINITE_PARAMS)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.spec)


def init_params(spec: NetSpec, rng: np.random.Generator) -> ParamVector:
    """Per-layer uniform weights in [-a, a] with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    dims = spec.layer_dims
    chunks = []
    for l in range(spec.num_layers):
        fan_in, fan_out = dims[l], dims[l + 1]
        a = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-a, a, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(chunks), spec)


def unpack(spec: NetSpec, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into per-layer (W, b) views, which an in-place update
    of `values` keeps current: `[..., P]` rows give `[..., fan_in, fan_out]` weights
    and `[..., 1, fan_out]` biases, which `h @ W + b` broadcasts; a `[P]` row has
    an empty lead."""
    if values.shape[-1] != spec.param_count():
        raise ConfigError(f"parameter rows {values.shape} do not match spec ({spec.param_count()},)")
    lead = values.shape[:-1]
    return [
        (values[..., w:b].reshape(*lead, fan_in, fan_out), values[..., None, b:end])
        for w, b, end, fan_in, fan_out in spec._layout
    ]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    return _softmax_in_place(np.array(logits, dtype=np.float64))


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    """`softmax` written over the float64 array `z`, bit for bit."""
    z -= z.T.copy().max(axis=0).T[..., None]  # the max over classes, leading in the reversed copy
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def first_argmax(a: np.ndarray) -> np.ndarray:
    """`a.argmax(axis=0)` of a NaN-free `a`, from one max over the leading
    axis: the number of leading rows that miss it."""
    miss = a != a.max(axis=0)
    run = miss[0].copy()  # where every row so far misses
    count = run.astype(np.intp)
    for row in miss[1:-1]:
        run &= row
        count += run
    return count


class Trace(NamedTuple):
    """What one forward pass keeps for backprop: the (W, b) views and the
    activations (acts[0] the input, acts[l+1] layer l's output, a softmax written
    over the top one). Backprop masks a ReLU on acts[l+1] > 0, as on its pre-activation > 0."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    acts: list[np.ndarray]


def _forward_trace(spec: NetSpec, layers: list[tuple[np.ndarray, np.ndarray]], inputs: np.ndarray) -> Trace:
    """The one forward pass every engine entry point runs, on `unpack`'s views of `[..., P]` rows."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != spec.input_dim:
        raise ConfigError(
            f"input shape {x.shape} incompatible with spec input dim {spec.input_dim}"
        )
    last = spec.num_layers - 1
    acts = [x]
    for l, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b
        if l < last and spec.activations[l] == "relu":
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return Trace(layers, acts)


def forward_with_trace(spec: NetSpec, layers: list, inputs: np.ndarray) -> tuple[np.ndarray, Trace]:
    """The raw network output of `layers` (head applied) together with the
    trace `backprop` consumes."""
    trace = _forward_trace(spec, layers, inputs)
    out = trace.acts[-1]
    if spec.head == "softmax":
        _softmax_in_place(out)
    return out, trace


def forward(spec: NetSpec, values: np.ndarray, inputs: np.ndarray, layer: int | None = None) -> np.ndarray:
    """The output of `[P]` values or `[B, P]` rows of `spec` on `inputs`:
    raw logits for a `logits` head, probabilities for `softmax`. With
    `layer` (0-based, in range), the activations after that layer instead,
    with no head applied. A non-finite result raises a one-row Scan failure."""
    layers = unpack(spec, values)
    if layer is None:
        out = forward_with_trace(spec, layers, inputs)[0]
    else:
        out = _forward_trace(spec, layers, inputs).acts[layer + 1]
    if not np.isfinite(out).all():
        raise Scan().rows(out[None], NONFINITE_OUTPUT, "forward").failures[0]
    return out


def backprop(spec: NetSpec, trace: Trace, output_grad: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product: the raw gradient of sum(output * output_grad)
    w.r.t. the parameters that produced `trace` (`[P]`, or `[B, P]` on a
    stack), where `output_grad` is the loss gradient at the pre-head output.
    """
    layers, acts = trace
    last = spec.num_layers - 1
    grads = [None] * spec.num_layers
    dz = np.asarray(output_grad, dtype=np.float64)
    lead = dz.shape[:-2]
    for l in range(last, -1, -1):
        if l < last and spec.activations[l] == "relu":
            dz *= acts[l + 1] > 0.0  # dz is this call's `dz @ W.T`, never `output_grad`
        grads[l] = (acts[l].swapaxes(-1, -2) @ dz, dz.sum(axis=-2))
        if l > 0:
            dz = dz @ layers[l][0].swapaxes(-1, -2)
    return np.concatenate([part for gw, gb in grads for part in (gw.reshape(*lead, -1), gb)], axis=-1)


class Scan:
    """Each network row's first non-finite value, as a NumericError: the one
    place that finds and names one. A row keeps the first failure recorded
    for it, so checks made in the order a network stepped alone meets them
    name what it would raise alone. `ids` names the rows (one network by
    default), and `failures` maps an id to its row's failure."""

    def __init__(self, ids=(0,), failures: dict | None = None):
        self.ids = ids
        self.failures = {} if failures is None else failures

    def _record(self, bad: np.ndarray, error) -> None:
        for b in np.flatnonzero(bad):
            self.failures.setdefault(self.ids[b], error(b))

    def rows(self, values: np.ndarray, message: str, context: str | None = None) -> "Scan":
        """Fail every row of `values` ([B, ...]) holding a non-finite value."""
        ok = np.isfinite(values)
        if not ok.all():
            self._record(~ok.reshape(len(values), -1).all(axis=1), lambda b: NumericError(message, context=context))
        return self

    def grads(self, spec: NetSpec, grads: np.ndarray) -> "Scan":
        """Fail every `[B, P]` gradient row holding a non-finite value, naming
        the top-most layer whose weights or bias hold one: backprop, running
        top-down, reaches that layer first."""
        ok = np.isfinite(grads)
        if not ok.all():

            def error(b):
                layer = max(l for l, (w, _, end, _, _) in enumerate(spec._layout) if not ok[b, w:end].all())
                return NumericError(NONFINITE_GRADIENT, layer=layer)

            self._record(~ok.all(axis=1), error)
        return self


def softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Backprop through a row-wise softmax: dL/dz = (g - sum(g*p)) * p,
    written over `grad_probs` (the caller's own fresh array) and returned."""
    inner = np.sum(grad_probs * probs, axis=-1, keepdims=True)
    grad_probs -= inner
    grad_probs *= probs
    return grad_probs


def ce_grad(spec: NetSpec, layers: list, inputs: np.ndarray, labels: np.ndarray, loss_kind: str):
    """Softmax probabilities and the raw parameter gradient of the mean
    cross-entropy, from one forward of `layers`, on one network or a stack
    (labels `[n]` or `[B, n]`). `ce_on_logits` is CE on the softmax of the
    output; `ce_on_mixture` is CE on the probabilities themselves, with the
    1e-12 log clamp. The caller validates the head and the labels."""
    trace = _forward_trace(spec, layers, inputs)
    probs = _softmax_in_place(trace.acts[-1])
    n = labels.shape[-1]
    rows, cols = np.arange(labels.size), labels.reshape(-1)  # each label's entry in the [-1, C] view
    if loss_kind == "ce_on_logits":
        dz = probs.copy()  # (probs - one_hot(labels)) / n
        dz.reshape(-1, spec.output_dim)[rows, cols] -= 1.0
        dz /= n
    else:
        picked = probs.reshape(-1, spec.output_dim)[rows, cols]
        dprobs = np.zeros_like(probs)
        # clamped entries contribute zero gradient
        live = picked > LOG_CLAMP
        dprobs.reshape(-1, spec.output_dim)[rows[live], cols[live]] = -1.0 / (n * picked[live])
        dz = softmax_vjp(probs, dprobs)
    return probs, backprop(spec, trace, dz)


def sgdm_step(params: np.ndarray, velocity: np.ndarray, grad: np.ndarray, lr: float, momentum: float) -> None:
    """One SGD-with-momentum step on float64 arrays, in place:
    v <- m*v + g; p <- p - lr*v. The rates are the caller's to validate."""
    if not (params.shape == velocity.shape == grad.shape):
        raise ConfigError("parameters, velocity and gradient lengths differ")
    velocity *= momentum
    velocity += grad
    params -= lr * velocity

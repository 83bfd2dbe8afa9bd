"""Minimal feed-forward network engine on flat parameter vectors.

Hand-rolled on purpose: generators, discriminators, and the baseline
regressors all share this one architecture family (sigmoid hidden layers,
linear output), and training needs exact parameter gradients plus the
gradient with respect to the input batch so losses can chain through a
second network (discriminator behind a generator, generator behind a
generator).

Storage: each network keeps its parameters in one contiguous float64
vector, all weight matrices first and then all bias vectors, in layer
order. ``Mlp.weights`` and ``Mlp.biases`` are per-layer views into it.
Gradients and the Adam moments use the same layout, so an optimizer step
is a few whole-vector operations behind a single finiteness check.

Ownership: Mlp values are immutable. Their parameter vector is read-only,
and apply_update writes the updated parameters to a fresh vector, so a
network held elsewhere never changes. An OptimizerState is different: each
Adam step updates its ``m`` and ``v`` moment vectors in place, and the
returned state shares them with the state passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, FormatError, NonFiniteError


def _flatten(weights, biases) -> np.ndarray:
    """All weights, then all biases, layer order, as one new float64 vector."""
    return np.concatenate([np.ravel(a) for a in (*weights, *biases)], dtype=np.float64)


def _views(vector: np.ndarray, weight_shapes, bias_shapes):
    """Per-layer weight and bias views of a vector in the flat layout."""
    views, pos = [], 0
    for shape in (*weight_shapes, *bias_shapes):
        size = math.prod(shape)
        views.append(vector[pos : pos + size].reshape(shape))
        pos += size
    n = len(weight_shapes)
    return tuple(views[:n]), tuple(views[n:])


@dataclass(frozen=True)
class Mlp:
    """Layer widths plus per-layer weight matrices and bias vectors.

    weights[l] has shape (layer_dims[l+1], layer_dims[l]); forward computes
    a @ W.T + b per layer, sigmoid on hidden layers, linear output. The
    constructor copies the given arrays into ``params``, the read-only flat
    vector that ``weights`` and ``biases`` then view.
    """

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    hidden_activation: str = "sigmoid"
    output_activation: str = "linear"
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.layer_dims) < 2:
            raise ValueError("an Mlp needs at least input and output widths")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError(f"layer widths must be >= 1, got {self.layer_dims}")
        if self.hidden_activation != "sigmoid" or self.output_activation != "linear":
            raise ValueError("supported activations: sigmoid hidden, linear output")
        n = len(self.layer_dims) - 1
        if len(self.weights) != n or len(self.biases) != n:
            raise DimensionMismatchError(
                f"expected {n} weight/bias pairs, got {len(self.weights)}/{len(self.biases)}"
            )
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[layer + 1], self.layer_dims[layer])
            if w.shape != want:
                raise DimensionMismatchError(
                    f"weight {layer} has shape {w.shape}, expected {want}"
                )
            if b.shape != (self.layer_dims[layer + 1],):
                raise DimensionMismatchError(
                    f"bias {layer} has shape {b.shape}, expected ({self.layer_dims[layer + 1]},)"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NonFiniteError(f"layer {layer} parameters are not finite")
        self._bind(_flatten(self.weights, self.biases))

    def _bind(self, params: np.ndarray) -> None:
        params.flags.writeable = False
        dims = self.layer_dims
        weights, biases = _views(
            params, [(o, i) for i, o in zip(dims, dims[1:])], [(o,) for o in dims[1:]]
        )
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    def _with_params(self, params: np.ndarray) -> "Mlp":
        """The same architecture over ``params``, which it takes over uncopied."""
        net = object.__new__(Mlp)
        for name in ("layer_dims", "hidden_activation", "output_activation"):
            object.__setattr__(net, name, getattr(self, name))
        net._bind(params)
        return net

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


class Gradients:
    """Parameter gradients in the flat layout of the owning Mlp.

    ``weights`` and ``biases`` are per-layer views of one vector; the
    constructor copies the given arrays into it.
    """

    __slots__ = ("_vector", "weights", "biases")

    def __init__(self, weights, biases) -> None:
        self._bind(
            _flatten(weights, biases),
            [np.shape(w) for w in weights],
            [np.shape(b) for b in biases],
        )

    def _bind(self, vector, weight_shapes, bias_shapes) -> None:
        self._vector = vector
        self.weights, self.biases = _views(vector, weight_shapes, bias_shapes)

    @classmethod
    def _wrap(cls, vector: np.ndarray, like) -> "Gradients":
        """Gradients over ``vector`` (uncopied), laid out like ``like``."""
        grads = object.__new__(cls)
        grads._bind(vector, [w.shape for w in like.weights], [b.shape for b in like.biases])
        return grads

    def __add__(self, other: "Gradients") -> "Gradients":
        return Gradients._wrap(self._vector + other._vector, self)

    def flat(self) -> np.ndarray:
        """All entries as one vector (weights then biases, layer order);
        the stored vector itself, not a copy."""
        return self._vector


@dataclass(frozen=True)
class ForwardCache:
    """Per-layer post-activations from one forward call (index 0 = input)."""

    activations: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class OptimizerState:
    """Adam or plain SGD state for one Mlp.

    m and v are Adam's first and second moment vectors in the Mlp's flat
    layout; apply_update overwrites them in place.
    """

    method: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step_count: int = 0

    def __post_init__(self) -> None:
        if self.method not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        if self.step_count < 0:
            raise ValueError("step_count must be >= 0")
        if self.method == "adam" and (self.m is None or self.v is None):
            raise ValueError("adam needs m and v moment vectors")


def init_optimizer(net: Mlp, method: str = "adam", learning_rate: float = 0.001,
                   beta1: float = 0.9, beta2: float = 0.999,
                   epsilon: float = 1e-8) -> OptimizerState:
    return OptimizerState(
        method=method, learning_rate=learning_rate,
        beta1=beta1, beta2=beta2, epsilon=epsilon,
        m=np.zeros_like(net.params), v=np.zeros_like(net.params),
    )


def init_mlp(layer_dims, seed: int) -> Mlp:
    """Seeded Glorot-uniform weights (plus/minus sqrt(6/(fan_in+fan_out))),
    zero biases. The same seed always produces bit-identical parameters."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least 2 layer widths, got {dims}")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer widths must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(layer_dims=dims, weights=tuple(weights), biases=tuple(biases))


def _sigmoid_inplace(z: np.ndarray) -> None:
    """z <- 1 / (1 + exp(-z)). exp(-z) overflows to inf below z = -709,
    which gives exactly 0; above z = 37, exp(-z) is below half an ulp of
    1, which gives exactly 1."""
    with np.errstate(over="ignore"):
        np.negative(z, out=z)
        np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def forward(net: Mlp, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a B x d_in batch through the net; also return the activation
    cache that backward needs."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.d_in:
        raise DimensionMismatchError(
            f"batch must be B x {net.d_in}, got shape {batch.shape}"
        )
    acts = [batch]
    last = net.n_layers - 1
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = acts[-1] @ w.T
        a += b
        if layer != last:
            _sigmoid_inplace(a)
        acts.append(a)
    return acts[-1], ForwardCache(activations=tuple(acts))


def backward(
    net: Mlp, cache: ForwardCache, output_gradient: np.ndarray, param_grads: bool = True
) -> tuple[Gradients | None, np.ndarray]:
    """Exact backprop given d(loss)/d(output).

    Returns the parameter gradients and the gradient with respect to the
    input batch, which lets callers chain losses through stacked networks.
    With param_grads=False, for a network that is only backpropagated
    through, the parameter gradients are not computed and None is returned
    in their place.
    """
    if len(cache.activations) != net.n_layers + 1:
        raise DimensionMismatchError(
            f"cache holds {len(cache.activations) - 1} layers, net has {net.n_layers}"
        )
    for layer, a in enumerate(cache.activations):
        if a.shape[1] != net.layer_dims[layer]:
            raise DimensionMismatchError(
                f"cache activation {layer} has width {a.shape[1]}, "
                f"net expects {net.layer_dims[layer]}"
            )
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != cache.activations[-1].shape:
        raise DimensionMismatchError(
            f"output_gradient shape {g.shape} does not match "
            f"output shape {cache.activations[-1].shape}"
        )
    grads = Gradients._wrap(np.empty_like(net.params), net) if param_grads else None
    last = net.n_layers - 1
    for layer in range(last, -1, -1):
        if layer != last:
            # Hidden layers need sigmoid' = a(1-a); g came from the matmul
            # below, so it can be scaled in place.
            a_out = cache.activations[layer + 1]
            g *= a_out
            g *= 1.0 - a_out
        if grads is not None:
            np.matmul(g.T, cache.activations[layer], out=grads.weights[layer])
            np.sum(g, axis=0, out=grads.biases[layer])
        g = g @ net.weights[layer]
    return grads, g


#: Elements per Adam block: 128 KiB per vector, so the eight vectors a
#: block touches stay in a core's L2 cache for all of its passes.
_ADAM_BLOCK = 16384


def apply_update(
    net: Mlp, grads: Gradients, opt: OptimizerState
) -> tuple[Mlp, OptimizerState]:
    """One optimizer step; returns the updated Mlp and state.

    The new parameters go to a fresh vector; Adam's moments are updated in
    place. Raises NonFiniteError on NaN/inf gradients so a diverged training
    run aborts instead of silently corrupting the model.
    """
    if len(grads.weights) != net.n_layers or len(grads.biases) != net.n_layers:
        raise DimensionMismatchError("gradient layer count does not match net")
    for layer, (gw, gb) in enumerate(zip(grads.weights, grads.biases)):
        if gw.shape != net.weights[layer].shape or gb.shape != net.biases[layer].shape:
            raise DimensionMismatchError(f"gradient {layer} shape mismatch")
    g = grads.flat()
    if not np.isfinite(g).all():
        layer = next(
            k for k, (gw, gb) in enumerate(zip(grads.weights, grads.biases))
            if not (np.isfinite(gw).all() and np.isfinite(gb).all())
        )
        raise NonFiniteError(f"non-finite gradient in layer {layer}")

    lr = opt.learning_rate
    if opt.method == "sgd":
        return net._with_params(net.params - lr * g), opt

    t = opt.step_count + 1
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    new_params = np.empty_like(net.params)
    # The operations run block by block, in the order of the textbook
    # formula term by term, so the result does not depend on the block size.
    for lo in range(0, g.size, _ADAM_BLOCK):
        blk = slice(lo, lo + _ADAM_BLOCK)
        gb, m, v = g[blk], opt.m[blk], opt.v[blk]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * gb
        v *= opt.beta2
        v += (1.0 - opt.beta2) * gb * gb
        step = m / bc1
        step *= lr
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += opt.epsilon
        step /= denom
        np.subtract(net.params[blk], step, out=new_params[blk])
    return net._with_params(new_params), replace(opt, step_count=t)


# ---------------------------------------------------------------------------
# Persistence: versioned text document, full-precision decimals
# ---------------------------------------------------------------------------

_MODEL_MAGIC = "MLP1"


def save_mlp(path, net: Mlp) -> None:
    """Write a text document that reloads to bit-identical parameters.

    repr() of a Python float is the shortest decimal that round-trips the
    exact 64-bit value, so no precision is lost.
    """
    lines = [
        _MODEL_MAGIC,
        "layer_dims " + " ".join(str(d) for d in net.layer_dims),
        f"hidden_activation {net.hidden_activation}",
        f"output_activation {net.output_activation}",
    ]
    for layer in range(net.n_layers):
        w = net.weights[layer]
        lines.append(f"weight {layer} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        b = net.biases[layer]
        lines.append(f"bias {layer} {b.shape[0]}")
        lines.append(" ".join(repr(float(v)) for v in b))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def load_mlp(path) -> Mlp:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MODEL_MAGIC:
        raise FormatError(f"{path}: not a {_MODEL_MAGIC} model file")
    try:
        fields = dict(line.split(" ", 1) for line in lines[1:4])
        dims = tuple(int(d) for d in fields["layer_dims"].split())
        hidden = fields["hidden_activation"]
        output = fields["output_activation"]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model header") from exc

    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    pos = 4
    try:
        for layer in range(len(dims) - 1):
            tag, idx, rows, cols = lines[pos].split()
            if tag != "weight" or int(idx) != layer:
                raise FormatError(f"{path}: expected 'weight {layer}' at line {pos + 1}")
            rows, cols = int(rows), int(cols)
            block = lines[pos + 1 : pos + 1 + rows]
            weights.append(
                np.array([[float(v) for v in row.split()] for row in block])
            )
            pos += 1 + rows
            tag, idx, n = lines[pos].split()
            if tag != "bias" or int(idx) != layer:
                raise FormatError(f"{path}: expected 'bias {layer}' at line {pos + 1}")
            biases.append(np.array([float(v) for v in lines[pos + 1].split()]))
            pos += 2
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model body") from exc
    return Mlp(
        layer_dims=dims,
        weights=tuple(weights),
        biases=tuple(biases),
        hidden_activation=hidden,
        output_activation=output,
    )

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
and apply_update returns a new Mlp over a fresh vector, so a network held
elsewhere never changes. An OptimizerState is Adam's running state: each
apply_update advances its ``m``, ``v`` and ``step_count`` in place, so a
trainer makes one per network per run and passes it to every step.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormatError,
    NonFiniteError,
    check_integer,
    finite_real,
    utf8_text,
)


def _flatten(weights, biases) -> np.ndarray:
    """All weights, then all biases, layer order, as one new float64 vector."""
    return np.concatenate([np.ravel(a) for a in (*weights, *biases)], dtype=np.float64)


def _shapes(layer_dims):
    """The weight and the bias shapes of a net with these layer widths."""
    pairs = tuple(zip(layer_dims, layer_dims[1:]))
    return tuple((o, i) for i, o in pairs), tuple((o,) for _, o in pairs)


def _layout(weight_shapes, bias_shapes):
    """(start, stop, shape) of each weight, then bias, in the flat layout; the weight count."""
    spans, pos = [], 0
    for shape in (*weight_shapes, *bias_shapes):
        spans.append((pos, pos + math.prod(shape), shape))
        pos += math.prod(shape)
    return tuple(spans), len(weight_shapes)


def _views(vector: np.ndarray, layout):
    """Per-layer weight and bias views of a vector in the flat layout."""
    spans, n = layout
    views = [vector[lo:hi].reshape(shape) for lo, hi, shape in spans]
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
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.layer_dims) < 2:
            raise ValueError("an Mlp needs at least input and output widths")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError(f"layer widths must be >= 1, got {self.layer_dims}")
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
        self._bind(_flatten(self.weights, self.biases), _layout(*_shapes(self.layer_dims)))

    def _bind(self, params: np.ndarray, layout) -> None:
        params.flags.writeable = False
        weights, biases = _views(params, layout)
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    def _with_params(self, params: np.ndarray) -> "Mlp":
        """The same architecture over ``params``, which it takes over uncopied."""
        net = object.__new__(Mlp)
        object.__setattr__(net, "layer_dims", self.layer_dims)
        net._bind(params, self._layout)
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

    __slots__ = ("_vector", "_layout", "weights", "biases")

    def __init__(self, weights, biases) -> None:
        shapes = tuple(np.shape(w) for w in weights), tuple(np.shape(b) for b in biases)
        self._bind(_flatten(weights, biases), _layout(*shapes))

    def _bind(self, vector, layout) -> None:
        self._vector, self._layout = vector, layout
        self.weights, self.biases = _views(vector, layout)

    @classmethod
    def _wrap(cls, vector: np.ndarray, layout) -> "Gradients":
        """Gradients over ``vector`` (uncopied) in ``layout``, a _layout()."""
        grads = object.__new__(cls)
        grads._bind(vector, layout)
        return grads

    def __add__(self, other: "Gradients") -> "Gradients":
        return Gradients._wrap(self._vector + other._vector, self._layout)

    def flat(self) -> np.ndarray:
        """All entries as one vector (weights then biases, layer order);
        the stored vector itself, not a copy."""
        return self._vector


#: Adam's moment decay rates and denominator guard (Kingma & Ba).
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adam's state (m, v, t) for one Mlp, which each apply_update advances.

    m and v are Adam's first and second moment vectors in the Mlp's flat
    layout and step_count the steps taken; apply_update updates all three
    in place.
    """

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    def __post_init__(self) -> None:
        if not (finite_real(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning rate must be > 0")
        check_integer("step_count", self.step_count, 0)


def init_optimizer(net: Mlp, learning_rate: float = 0.001) -> OptimizerState:
    return OptimizerState(
        learning_rate=learning_rate,
        m=np.zeros_like(net.params), v=np.zeros_like(net.params),
    )


def init_mlp(layer_dims, seed: int) -> Mlp:
    """Seeded Glorot-uniform weights (plus/minus sqrt(6/(fan_in+fan_out))),
    zero biases. The same seed always produces bit-identical parameters."""
    dims = tuple(layer_dims)
    for layer, width in enumerate(dims):
        check_integer(f"layer_dims[{layer}]", width, 1)
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(layer_dims=dims, weights=tuple(weights), biases=tuple(biases))


def sigmoid_inplace(z: np.ndarray) -> None:
    """z <- 1 / (1 + exp(-z)). exp(-z) overflows to inf below z = -709,
    which gives exactly 0; above z = 37, exp(-z) is below half an ulp of
    1, which gives exactly 1."""
    with np.errstate(over="ignore"):
        _sigmoid(z)


def _sigmoid(z: np.ndarray) -> None:
    """sigmoid_inplace without its np.errstate, for callers inside one."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def forward(net: Mlp, batch: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Run a B x d_in batch through the net; also return the cache that
    backward needs, each layer's post-activations (index 0 = input)."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.d_in:
        raise DimensionMismatchError(
            f"batch must be B x {net.d_in}, got shape {batch.shape}"
        )
    acts = [batch]
    last = net.n_layers - 1
    with np.errstate(over="ignore"):  # overflow in the layer matmuls and in the sigmoids' exp
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
            a = acts[-1] @ w.T
            a += b
            if layer != last:
                _sigmoid(a)
            acts.append(a)
    return acts[-1], tuple(acts)


def backward(
    net: Mlp, cache: tuple[np.ndarray, ...], output_gradient: np.ndarray,
    param_grads: bool = True, input_grad: bool = True,
) -> tuple[Gradients | None, np.ndarray | None]:
    """Exact backprop given d(loss)/d(output).

    Returns the parameter gradients and the gradient with respect to the
    input batch, which lets callers chain losses through stacked networks.
    With param_grads=False, for a network that is only backpropagated
    through, the parameter gradients are not computed and None is returned
    in their place. input_grad=False likewise skips the input gradient,
    layer 0's product with its weights; asking for neither is an error.
    """
    if not (param_grads or input_grad):
        raise ValueError("backward with neither parameter nor input gradients computes nothing")
    if len(cache) != net.n_layers + 1:
        raise DimensionMismatchError(
            f"cache holds {len(cache) - 1} layers, net has {net.n_layers}"
        )
    for layer, a in enumerate(cache):
        if a.shape[1] != net.layer_dims[layer]:
            raise DimensionMismatchError(
                f"cache activation {layer} has width {a.shape[1]}, "
                f"net expects {net.layer_dims[layer]}"
            )
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != cache[-1].shape:
        raise DimensionMismatchError(
            f"output_gradient shape {g.shape} does not match "
            f"output shape {cache[-1].shape}"
        )
    grads = Gradients._wrap(np.empty_like(net.params), net._layout) if param_grads else None
    last = net.n_layers - 1
    for layer in range(last, -1, -1):
        if layer != last:
            # Hidden layers need sigmoid' = a(1-a); g came from the matmul
            # below, so it can be scaled in place.
            a_out = cache[layer + 1]
            g *= a_out
            g *= 1.0 - a_out
        if grads is not None:
            np.matmul(g.T, cache[layer], out=grads.weights[layer])
            np.add.reduce(g, axis=0, out=grads.biases[layer])  # np.sum without its wrapper
        if layer == 0 and not input_grad:
            return grads, None
        g = g @ net.weights[layer]
    return grads, g


#: Elements per Adam block: 128 KiB per vector, so the eight vectors a
#: block touches stay in a core's L2 cache for all of its passes.
_ADAM_BLOCK = 16384


def apply_update(net: Mlp, grads: Gradients, opt: OptimizerState) -> Mlp:
    """One Adam step; returns the updated Mlp, over a fresh vector.

    opt advances in place: its moments and step_count. Raises
    NonFiniteError on NaN/inf gradients, before opt changes, so a diverged
    training run aborts instead of silently corrupting the model.
    """
    if grads._layout != net._layout:
        raise DimensionMismatchError("gradient shapes do not match the net's")
    g = grads.flat()
    if not np.isfinite(g).all():
        layer = next(
            k for k, (gw, gb) in enumerate(zip(grads.weights, grads.biases))
            if not (np.isfinite(gw).all() and np.isfinite(gb).all())
        )
        raise NonFiniteError(f"non-finite gradient in layer {layer}")

    lr = opt.learning_rate
    t = opt.step_count + 1
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    new_params = np.empty_like(net.params)
    # The operations run block by block, in the order of the textbook
    # formula term by term, so the result does not depend on the block size.
    for lo in range(0, g.size, _ADAM_BLOCK):
        blk = slice(lo, lo + _ADAM_BLOCK)
        gb, m, v = g[blk], opt.m[blk], opt.v[blk]
        m *= _BETA1
        m += (1.0 - _BETA1) * gb
        v *= _BETA2
        v += (1.0 - _BETA2) * gb * gb
        step = m / bc1
        step *= lr
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += _EPSILON
        step /= denom
        np.subtract(net.params[blk], step, out=new_params[blk])
    opt.step_count = t
    return net._with_params(new_params)


_M_TOP_PAD = -2  # glibc <malloc.h>
_HEAP_TOP_PAD = 64 << 20


@functools.cache
def keep_heap_top() -> None:
    """Have glibc keep 64 MiB of freed heap instead of returning it to the OS.

    A training step allocates and frees several MB of activations,
    gradients and parameter vectors. With glibc's default trim threshold
    the heap top goes back to the OS at the end of each step and every
    page faults in again during the next one: about 3000 minor faults per
    default-size step, a fifth of its time. Conversion sets it too
    (pipeline.convert_utterance): without it, a default-size generator
    forward over 1000 frames faults about 1,600 pages in again each
    time, and a whole 1000-frame conversion about 1,200, some 15 % of
    its time. The pad only keeps address space; untouched pages cost no
    memory. Without a C-library mallopt nothing changes. Runs once per
    process.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


#: Thread-count setters of OpenBLAS builds: the scipy-openblas build that
#: numpy wheels ship, other 64-bit-integer builds, and the classic one. Each
#: getter has the same name with "get" for "set".
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_thread_control() -> tuple | None:
    """The (get, set) thread-count pair of the OpenBLAS that numpy's GEMMs
    run on; None outside Linux or where none of _OPENBLAS_SETTERS resolves.
    A symbol looked up in the handle of numpy's linear-algebra extension is
    searched for in the libraries it links."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (OSError, AttributeError):
        return None
    for name in _OPENBLAS_SETTERS:
        try:
            get, set_ = getattr(lib, name.replace("set", "get", 1)), getattr(lib, name)
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


# ---------------------------------------------------------------------------
# Persistence: a binary image that load_mlp reads, plus an MLP1 text copy
# ---------------------------------------------------------------------------
#
# save_mlp(path) writes the network twice. ``<path>.f8`` is the model: four
# header lines (the image magic, the layer widths, the two activations),
# then ``Mlp.params`` as raw little-endian float64 in the flat layout. It
# goes to a temporary file that replaces the old image only once whole.
# ``path`` then gets the MLP1 text: the same header under its own magic and
# every value as a full-precision decimal, for programs that read text.
# load_mlp opens the image alone; an edited text changes nothing it loads.

_TEXT_MAGIC = "MLP1"
_IMAGE_MAGIC = "MLPF8"
#: The one layer layout the engine implements, named in every file's header.
_ACTIVATIONS = {"hidden_activation": "sigmoid", "output_activation": "linear"}
_IMAGE_SUFFIX = ".f8"
_IMAGE_DTYPE = np.dtype("<f8")


def _image_path(path) -> str:
    return os.fspath(path) + _IMAGE_SUFFIX


def _header(magic: str, net: Mlp) -> list[str]:
    return [
        magic,
        "layer_dims " + " ".join(str(d) for d in net.layer_dims),
        *(f"{key} {value}" for key, value in _ACTIVATIONS.items()),
    ]


def save_mlp(path, net: Mlp) -> None:
    """Write the binary image that load_mlp reads, then the MLP1 text. A
    failed image write leaves the old image and text in place."""
    image = _image_path(path)
    partial = f"{image}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as fh:
            fh.write("".join(f"{line}\n" for line in _header(_IMAGE_MAGIC, net)).encode("utf-8"))
            fh.write(net.params.astype(_IMAGE_DTYPE, copy=False).tobytes())
        os.replace(partial, image)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    # repr() is the shortest decimal that round-trips each 64-bit value.
    lines = _header(_TEXT_MAGIC, net)
    for layer in range(net.n_layers):
        w = net.weights[layer]
        lines.append(f"weight {layer} {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(map(repr, row.tolist())) for row in w)
        b = net.biases[layer]
        lines.append(f"bias {layer} {b.shape[0]}")
        lines.append(" ".join(map(repr, b.tolist())))
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _head(path, data: bytes, n: int) -> tuple[list[str], int]:
    """The first n lines of ``data``, decoded as UTF-8 without their line
    feeds, and the offset of the byte after the n-th line feed."""
    end = 0
    for _ in range(n):
        end = data.find(b"\n", end) + 1
        if not end:
            raise FormatError(f"{path}: malformed model header")
    return utf8_text(path, data[:end]).split("\n")[:n], end


def load_mlp(path) -> Mlp:
    """The network save_mlp wrote for path, read from its image alone; any
    defect raises FormatError naming the image."""
    image = _image_path(path)
    try:
        with open(image, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise FormatError(f"{image}: missing model image; save or train it again") from None
    if not data.startswith(_IMAGE_MAGIC.encode() + b"\n"):
        raise FormatError(f"{image}: not a {_IMAGE_MAGIC} model image")
    header, start = _head(image, data, 4)
    try:
        fields = dict(line.split(" ", 1) for line in header[1:])
        dims = tuple(int(d) for d in fields["layer_dims"].split())
        activations = {key: fields[key] for key in _ACTIVATIONS}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{image}: malformed model header") from exc
    if activations != _ACTIVATIONS:
        raise FormatError(
            f"{image}: unsupported activations {activations}, expected {_ACTIVATIONS}"
        )

    weight_shapes, bias_shapes = _shapes(dims)
    want = _IMAGE_DTYPE.itemsize * sum(math.prod(shape) for shape in weight_shapes + bias_shapes)
    if len(data) - start != want:
        raise FormatError(f"{image}: holds {len(data) - start} parameter bytes, expected {want}")
    try:
        params = np.frombuffer(data, dtype=_IMAGE_DTYPE, offset=start)
        weights, biases = _views(params, _layout(weight_shapes, bias_shapes))
        return Mlp(layer_dims=dims, weights=weights, biases=biases)
    except ValueError as exc:
        raise FormatError(f"{image}: {exc}") from exc

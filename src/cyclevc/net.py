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

Ownership: _shapes alone states the layer shapes and _layout alone their
offsets; _bind alone ties an Mlp or Gradients to its vector and views, and
builds either uncopied. Mlp values are immutable. Their vector is read-only,
and apply_update returns a new Mlp over a fresh vector, so a network held
elsewhere never changes. An OptimizerState is Adam's running state: each
apply_update advances its ``m``, ``v`` and ``step_count`` in place, so a
trainer makes one per network per run and passes it to every step.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormatError,
    NonFiniteError,
    check_integer,
    finite_real,
    utf8_text,
)


def _flatten(weights, biases) -> tuple[np.ndarray, tuple]:
    """All weights, then all biases, layer order, as one new float64 vector;
    and the (weight shapes, bias shapes) pair of the given arrays."""
    vector = np.concatenate([np.ravel(a) for a in (*weights, *biases)], dtype=np.float64)
    return vector, (tuple(map(np.shape, weights)), tuple(map(np.shape, biases)))


def _check_widths(layer_dims) -> None:
    """Raise ValueError unless layer_dims has an input and an output width
    and every width is at least 1."""
    if len(layer_dims) < 2:
        raise ValueError("an Mlp needs at least input and output widths")
    if any(d < 1 for d in layer_dims):
        raise ValueError(f"layer widths must be >= 1, got {layer_dims}")


def _shapes(layer_dims) -> tuple:
    """The layout rule: weight l is (layer_dims[l+1], layer_dims[l]) and bias
    l is (layer_dims[l+1],). Returns the weight shapes and the bias shapes."""
    pairs = tuple(zip(layer_dims[1:], layer_dims))
    return pairs, tuple((o,) for o, _ in pairs)


def _layout(shapes) -> tuple:
    """Where the arrays of a (weight shapes, bias shapes) pair sit in the flat
    vector: the (start, stop, shape) of each weight, then of each bias; the
    weight count; the vector's length."""
    flat = (*shapes[0], *shapes[1])
    offsets = tuple(itertools.accumulate(map(math.prod, flat), initial=0))
    return tuple(zip(offsets, offsets[1:], flat)), len(shapes[0]), offsets[-1]


def _views(vector: np.ndarray, layout) -> tuple:
    """Per-layer weight and bias views of a vector in a _layout()."""
    spans, n, _ = layout
    views = tuple(vector[lo:hi].reshape(shape) for lo, hi, shape in spans)
    return views[:n], views[n:]


def _bind(obj, vector: np.ndarray, layout, **fields):
    """Bind obj, an Mlp or Gradients, to vector (taken over uncopied) and its
    views in layout, and set any other fields; returns obj. On
    object.__new__(cls) this builds either class without a copy."""
    if isinstance(obj, Mlp):
        vector.flags.writeable = False
    weights, biases = _views(vector, layout)
    fields.update(_vector=vector, _layout=layout, weights=weights, biases=biases)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _require_finite(obj, message: str) -> None:
    """Raise NonFiniteError(message) with ``{layer}`` set to the first layer
    of obj, an Mlp or Gradients, whose weight or bias is not all finite."""
    if not np.isfinite(obj._vector).all():
        layers = zip(obj.weights, obj.biases)
        finite = [np.isfinite(w).all() and np.isfinite(b).all() for w, b in layers]
        raise NonFiniteError(message.format(layer=finite.index(False)))


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

    def __post_init__(self) -> None:
        _check_widths(self.layer_dims)
        shapes = _shapes(self.layer_dims)
        params, given = _flatten(self.weights, self.biases)
        if given != shapes:
            raise DimensionMismatchError(f"weight and bias shapes {given}, expected {shapes}")
        _bind(self, params, _layout(shapes))
        _require_finite(self, "layer {layer} parameters are not finite")

    @property
    def params(self) -> np.ndarray:
        return self._vector

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
    """Parameter gradients in the flat layout of the owning Mlp: ``weights``
    and ``biases`` view one vector, which the constructor copies them into."""

    __slots__ = ("_vector", "_layout", "weights", "biases")

    def __init__(self, weights, biases) -> None:
        vector, shapes = _flatten(weights, biases)
        _bind(self, vector, _layout(shapes))

    def __iadd__(self, other: "Gradients") -> "Gradients":
        """Add other's entries into this vector, in place."""
        self._vector += other._vector
        return self

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
    weight_shapes, bias_shapes = _shapes(dims)
    limits = [np.sqrt(6.0 / sum(shape)) for shape in weight_shapes]  # sum: fan_out + fan_in
    weights = tuple(rng.uniform(-a, a, size=shape) for a, shape in zip(limits, weight_shapes))
    return Mlp(layer_dims=dims, weights=weights, biases=tuple(map(np.zeros, bias_shapes)))


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
    grads = None
    if param_grads:
        grads = _bind(object.__new__(Gradients), np.empty_like(net.params), net._layout)
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
    _require_finite(grads, "non-finite gradient in layer {layer}")
    g = grads.flat()

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
    return _bind(object.__new__(Mlp), new_params, net._layout, layer_dims=net.layer_dims)


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


#: LAPACK's (pbsv, ptsv) under their 64-bit-integer names: those of the
#: scipy-openblas build that numpy 2 wheels ship, then those of numpy 1.x
#: wheels. Only these are bound: a 32-bit-integer LAPACK takes other types.
_LAPACK_BAND_SOLVERS = (
    ("scipy_dpbsv_64_", "scipy_dptsv_64_"),
    ("dpbsv_64_", "dptsv_64_"),
)


def _numpy_linalg_functions(candidates) -> tuple | None:
    """The functions of the first group of names in candidates that all
    resolve in numpy's linear-algebra extension; None outside Linux, where
    the extension cannot be opened or where no group resolves.

    The extension's already-loaded library is opened again with
    RTLD_NOLOAD, and a symbol looked up in that handle is searched for in
    the libraries it links: the BLAS and LAPACK numpy runs on.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (OSError, AttributeError):
        return None
    for names in candidates:
        try:
            return tuple(getattr(lib, name) for name in names)
        except AttributeError:
            continue
    return None


@functools.cache
def _lapack_band_solvers() -> tuple | None:
    """The (dpbsv, dptsv) pair of the LAPACK numpy links, bound with 64-bit
    integers, or None (_LAPACK_BAND_SOLVERS). Looked up once, on first use.

    dpbsv(uplo, n, kd, nrhs, ab, ldab, b, ldb, info) takes the hidden
    length of uplo last; dptsv(n, nrhs, d, e, b, ldb, info). All arguments
    but uplo and that length are pointers.
    """
    solvers = _numpy_linalg_functions(_LAPACK_BAND_SOLVERS)
    if solvers is not None:
        pbsv, ptsv = solvers
        pbsv.argtypes = (ctypes.c_char_p, *[ctypes.c_void_p] * 8, ctypes.c_size_t)
        ptsv.argtypes = (ctypes.c_void_p,) * 7
        pbsv.restype = ptsv.restype = None
    return solvers


def _openblas_thread_control() -> tuple | None:
    """The (get, set) thread-count pair of the OpenBLAS that numpy's GEMMs
    run on, or None (_OPENBLAS_SETTERS)."""
    control = _numpy_linalg_functions(
        (name.replace("set", "get", 1), name) for name in _OPENBLAS_SETTERS
    )
    if control is not None:
        get, set_ = control
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
    return control


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
    # Checked before the widths size the body: a negative width would
    # otherwise read as a negative byte count.
    try:
        _check_widths(dims)
    except ValueError as exc:
        raise FormatError(f"{image}: {exc}") from exc

    layout = _layout(_shapes(dims))
    want = _IMAGE_DTYPE.itemsize * layout[-1]  # the vector's length
    if len(data) - start != want:
        raise FormatError(f"{image}: holds {len(data) - start} parameter bytes, expected {want}")
    try:
        params = np.frombuffer(data, dtype=_IMAGE_DTYPE, offset=start)
        weights, biases = _views(params, layout)
        return Mlp(layer_dims=dims, weights=weights, biases=biases)
    except ValueError as exc:
        raise FormatError(f"{image}: {exc}") from exc

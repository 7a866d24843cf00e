"""Model configs: JSON schema validation, deterministic build, weight init.

A config is a JSON object::

    {"name": ..., "dtype": "f32"|"f64",
     "input": {"shape": [...]},            # frame shape entering the stack
     "layers": [ {...}, ... ]}

Layer entries (defaults in parentheses):

- conv3d:           c_in, c_out, kernel [KT,KH,KW], dilation(1), padding(0),
                    stride(1), init
- avgpool_t:        window, padding(0)
- maxpool_t:        window
- batchnorm:        channels, eps(1e-5), init; right after a conv3d in the
                    same layer list it is folded into that conv's weights
                    and bias, and the pair builds one TemporalConv
- layernorm:        d, eps(1e-5), init
- co_encoder_block: mode, n, d_model, heads(1), ff_dim, rpe_period(n), init;
                    an encoded token block is Sequential([RPE stage, block])
- stgcn_block:      v, partitions(1), c_in, c_out, tc_kernel, tc_stride(1),
                    tc_padding(0), residual("auto"), init
- head:             pool_window, classes, init   (channels inferred upstream)
- sequential:       layers
- residual:         inner, shortcut("identity"|"pointwise"), init
- parallel:         branches, reduce("sum")

``init`` is ``{"scheme": "uniform", "seed": s, "lo": a, "hi": b}``,
``{"scheme": "constant", "value": c}`` or ``{"scheme": "blob", "path": p,
"offset": o}`` (consecutive little-endian f32 tensors read in field order).
Each layer draws its tensors from its own generator stream in a fixed,
documented field order (weights before biases, query/key/value/output
projections, then feed-forward, norm and encoding tables), so identical
configs always rebuild bit-identical weights.

Validation is strict: a top-level field other than the four above, a
field that the layer type or init scheme does not read, a value of the
wrong kind (``_VALUE_KINDS``) or a blob path naming no file raises
``ConfigError`` at the field's path, e.g. ``layers[0].kernel``.
``load_config`` only reads the file; ``build_model`` validates, once per
build.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from pathlib import Path

import numpy as np

from .attention import EncoderBlock, MultiheadAttention, RecyclingPositionalEncoding
from .containers import Identity, Parallel, Pointwise, Residual, Sequential
from .conv import TemporalConv
from .errors import ConfigError, DimensionError
from .graph import GlobalAverageHead, SkeletonGraph, StGcnBlock
from .module import CoModule
from .norm import BatchNorm, LayerNorm
from .pool import TemporalPool
from .rng import Xoshiro256pp
from .tensor import Tensor, load_blob


def canonical_json(cfg: dict) -> str:
    """Stable serialization; identical configs dump byte-identically."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def load_config(path) -> dict:
    """The JSON config at ``path``, not yet validated (``build_model`` does)."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(str(path), f"not a readable JSON file: {e}") from e


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("$", "config must be a JSON object")
    for field in cfg:
        if field not in ("name", "dtype", "input", "layers"):
            raise ConfigError(field, "unknown top-level field")
    for field in ("name", "layers"):
        if field not in cfg:
            raise ConfigError(field, "missing required field")
    dtype = cfg.get("dtype", "f32")
    if dtype not in ("f32", "f64"):
        raise ConfigError("dtype", f"must be f32 or f64, got {dtype!r}")
    inp = cfg.get("input", {})
    if not isinstance(inp, dict):
        raise ConfigError("input", "must be an object")
    shape = inp.get("shape")
    if shape is not None and not (type(shape) is list
                                  and all(type(e) is int and e >= 0 for e in shape)):
        raise ConfigError("input.shape", "must be a list of nonnegative ints")
    _validate_layers(cfg["layers"], "layers")


# (test, what the value must be, the fields of that kind); layers, branches,
# inner and init are checked on their own.  ``type(v) is int`` keeps bools out.
_VALUE_KINDS = (
    (lambda v: type(v) is int and v > 0, "a positive int", "c_in c_out dilation stride window "
     "channels d n d_model heads ff_dim v partitions tc_kernel tc_stride pool_window classes"),
    (lambda v: type(v) is int and v >= 0, "a nonnegative int",
     "padding tc_padding rpe_period seed offset"),
    (lambda v: type(v) in (int, float), "a number", "eps lo hi value"),
    (lambda v: type(v) is str, "a string", "mode residual shortcut reduce path"),
    (lambda v: type(v) is list and len(v) == 3 and all(type(e) is int and e > 0 for e in v),
     "a list of three positive ints", "kernel"),
)
_FIELD_KIND = {f: (test, what) for test, what, fields in _VALUE_KINDS for f in fields.split()}

# layer type or init scheme -> (required fields, optional fields)
_LAYERS = {kind: (req.split(), opt.split()) for kind, (req, opt) in {
    "conv3d": ("c_in c_out kernel", "dilation padding stride init"),
    "avgpool_t": ("window", "padding"),
    "maxpool_t": ("window", ""),
    "batchnorm": ("channels", "eps init"),
    "layernorm": ("d", "eps init"),
    "co_encoder_block": ("mode n d_model ff_dim", "heads rpe_period init"),
    "stgcn_block": ("v c_in c_out tc_kernel", "partitions tc_stride tc_padding residual init"),
    "head": ("pool_window classes", "init"),
    "sequential": ("layers", ""),
    "residual": ("inner", "shortcut init"),
    "parallel": ("branches", "reduce"),
}.items()}
_SCHEMES = {kind: (req.split(), opt.split()) for kind, (req, opt) in {
    "uniform": ("seed", "lo hi"), "constant": ("value", ""), "blob": ("path", "offset")}.items()}


def _validate_layers(layers, path: str) -> None:
    if not isinstance(layers, list) or not layers:
        raise ConfigError(path, "must be a non-empty list")
    for i, entry in enumerate(layers):
        _validate_entry(entry, f"{path}[{i}]")


def _check_fields(obj, table: dict, key: str, path: str) -> str:
    """``obj`` is an object whose ``key`` names a kind of ``table``, holding
    every required field of that kind's (required, optional) fields, no
    other field, and values of the kind ``_FIELD_KIND`` gives each field.
    Returns the kind."""
    kind = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{path}.{key}", f"unknown {key} {kind!r}" if isinstance(obj, dict)
                          else f"must be an object with a {key!r}")
    required, optional = table[kind]
    for field in required:
        if field not in obj:
            raise ConfigError(f"{path}.{field}", f"missing required field for {kind}")
    for field, value in obj.items():
        if field != key and field not in required and field not in optional:
            raise ConfigError(f"{path}.{field}", f"unknown field for {kind}")
        check = _FIELD_KIND.get(field)
        if check and not check[0](value):
            raise ConfigError(f"{path}.{field}", f"must be {check[1]}, got {value!r}")
    return kind


def _validate_entry(entry, path: str) -> None:
    kind = _check_fields(entry, _LAYERS, "type", path)
    if kind == "sequential":
        _validate_layers(entry["layers"], f"{path}.layers")
    elif kind == "parallel":
        _validate_layers(entry["branches"], f"{path}.branches")
    elif kind == "residual":
        _validate_entry(entry["inner"], f"{path}.inner")
    if "init" in entry:
        _check_fields(entry["init"], _SCHEMES, "scheme", f"{path}.init")


class _Positive(tuple):
    """A shape whose tensor is drawn strictly positive (running variances)."""


def _batchnorm_shapes(c: int) -> list:
    """gamma, beta, running mean and running variance of ``c`` channels."""
    return [(c,), (c,), (c,), _Positive((c,))]


class _Init:
    """Draws a layer's tensors in declaration order from one source."""

    def __init__(self, spec: dict | None, dtype: str, base_dir: Path, path: str):
        spec = spec or {"scheme": "uniform", "seed": 0}
        self.scheme = spec["scheme"]
        self.dtype = dtype
        self.path = path
        if self.scheme == "uniform":
            self.rng = Xoshiro256pp(int(spec["seed"]))
            self.lo = float(spec.get("lo", -0.5))
            self.hi = float(spec.get("hi", 0.5))
        elif self.scheme == "constant":
            self.value = float(spec["value"])
        else:
            self.blob_path = base_dir / spec["path"]
            if not self.blob_path.is_file():
                raise ConfigError(f"{path}.init.path", f"no such file {str(self.blob_path)!r}")
            self.offset = int(spec.get("offset", 0))

    def draw(self, *shapes) -> list:
        """One tensor per shape, in order.  A ``_Positive`` shape draws from
        [0.5, 1.5) (uniform) or 1.0 (constant).  A uniform layer takes all its
        values from one generator call, each tensor's range applied to its
        slice: the values are the same as one call per tensor, and a large
        call runs on the generator's lanes."""
        sizes = [int(math.prod(shape)) for shape in shapes]
        if self.scheme == "uniform":
            bounds = [(0.5, 1.5) if isinstance(s, _Positive) else (self.lo, self.hi) for s in shapes]
            lo, hi = np.repeat(bounds, sizes, axis=0).T if len(set(bounds)) > 1 else bounds[0]
            flat = self.rng.uniform(sum(sizes), lo, hi)
            return [Tensor(flat[end - n: end], shape, self.dtype)
                    for shape, n, end in zip(shapes, sizes, accumulate(sizes))]
        if self.scheme == "constant":
            return [Tensor.full(shape, 1.0 if isinstance(shape, _Positive) else self.value,
                                self.dtype) for shape in shapes]
        tensors = []
        for shape, n in zip(shapes, sizes):
            tensors.append(load_blob(self.blob_path, shape, self.offset, self.dtype))
            self.offset += n
        return tensors


def build_model(cfg: dict, base_dir=".") -> Sequential:
    """Validate ``cfg`` and build the model tree; the top level is always a
    Sequential."""
    validate_config(cfg)
    dtype = cfg.get("dtype", "f32")
    base = Path(base_dir)
    frame = tuple(cfg.get("input", {}).get("shape", ()))
    modules, _ = _build_layers(cfg["layers"], "layers", dtype, base, frame)
    return Sequential(modules)


def _folds(entries: list, i: int) -> bool:
    """Whether entry ``i`` is a batchnorm that folds into the conv3d before it."""
    return i > 0 and entries[i]["type"] == "batchnorm" and entries[i - 1]["type"] == "conv3d"


def stage_types(entries: list) -> list:
    """The type of each stage that ``build_model`` makes of the layer
    entries ``entries``: a folded pair is one ``conv3d+batchnorm`` stage."""
    types = []
    for i, entry in enumerate(entries):
        if _folds(entries, i):
            types[-1] += "+batchnorm"
        else:
            types.append(entry["type"])
    return types


def _build_layers(entries, path, dtype, base, frame):
    modules = []
    for i, entry in enumerate(entries):
        m = _build_entry(entry, f"{path}[{i}]", dtype, base, frame)
        if _folds(entries, i):
            # the conv's emissions keep their shape through the fold
            try:
                modules[-1] = modules[-1].folded(m)
            except DimensionError as e:
                raise ConfigError(f"{path}[{i}]", str(e)) from e
            continue
        modules.append(m)
        frame = _advance(m, frame, f"{path}[{i}]")
    return modules, frame


def _advance(module: CoModule, frame, path):
    if not frame:
        return frame
    try:
        return module.out_frame_shape(frame)
    except Exception as e:
        raise ConfigError(path, f"frame shape {frame} rejected: {e}") from e


def _build_entry(entry: dict, path: str, dtype: str, base: Path, frame) -> CoModule:
    kind = entry["type"]
    init = _Init(entry.get("init"), dtype, base, path)
    try:
        if kind == "conv3d":
            kt, kh, kw = entry["kernel"]
            w, b = init.draw((entry["c_out"], entry["c_in"], kt, kh, kw), (entry["c_out"],))
            return TemporalConv(w, b, dilation=entry.get("dilation", 1),
                                padding=entry.get("padding", 0),
                                temporal_stride=entry.get("stride", 1))
        if kind == "avgpool_t":
            return TemporalPool("avg", entry["window"], entry.get("padding", 0))
        if kind == "maxpool_t":
            return TemporalPool("max", entry["window"])
        if kind == "batchnorm":
            gamma, beta, mean, var = init.draw(*_batchnorm_shapes(entry["channels"]))
            return BatchNorm(gamma, beta, mean, var, eps=entry.get("eps", 1e-5))
        if kind == "layernorm":
            d = entry["d"]
            return LayerNorm(*init.draw((d,), (d,)), entry.get("eps", 1e-5))
        if kind == "co_encoder_block":
            return _build_encoder(entry, init, frame)
        if kind == "stgcn_block":
            return _build_stgcn(entry, init, dtype)
        if kind == "head":
            if not frame:
                raise ValueError("head needs an input shape to infer channels")
            w, b = init.draw((frame[0], entry["classes"]), (entry["classes"],))
            return GlobalAverageHead(entry["pool_window"], w, b)
        if kind == "sequential":
            mods, _ = _build_layers(entry["layers"], f"{path}.layers", dtype, base, frame)
            return Sequential(mods)
        if kind == "residual":
            inner = _build_entry(entry["inner"], f"{path}.inner", dtype, base, frame)
            shortcut_kind = entry.get("shortcut", "identity")
            if shortcut_kind == "identity":
                shortcut = Identity()
            elif shortcut_kind == "pointwise":
                if not frame:
                    raise ValueError("pointwise shortcut needs an input shape")
                c_in = frame[0]
                c_out = inner.out_frame_shape(frame)[0]
                shortcut = Pointwise(*init.draw((c_in, c_out)))
            else:
                raise ValueError(f"unknown shortcut {shortcut_kind!r}")
            return Residual(inner, shortcut)
        if kind == "parallel":
            branches = [
                _build_entry(b, f"{path}.branches[{j}]", dtype, base, frame)
                for j, b in enumerate(entry["branches"])
            ]
            return Parallel(branches, entry.get("reduce", "sum"))
    except ConfigError:
        raise
    except (ValueError, KeyError) as e:
        raise ConfigError(path, str(e)) from e
    raise ConfigError(path, f"unknown layer type {kind!r}")


def _build_encoder(entry: dict, init: _Init, frame) -> CoModule:
    n = entry["n"]
    d = entry["d_model"]
    heads = entry.get("heads", 1)
    ff = entry["ff_dim"]
    period = entry.get("rpe_period", n)
    w_q, w_k, w_v, w_o, ff_w1, ff_b1, ff_w2, ff_b2, g1, b1, g2, b2, *table = init.draw(
        (d, d), (d, d), (d, d), (d, d), (d, ff), (ff,), (ff, d), (d,),
        (d,), (d,), (d,), (d,), *([(period, d)] if period else []))
    ln1 = LayerNorm(g1, b1)
    ln2 = LayerNorm(g2, b2)
    table = table[0] if table else None
    mha = MultiheadAttention(entry["mode"], n, w_q, w_k, w_v, w_o, heads=heads)
    # a single-output block directly after a retroactive one consumes that
    # block's (n, d) window emissions and recomputes per window
    window_input = frame == (n, d) and mha.mode == "single"
    block = EncoderBlock(mha, ff_w1, ff_b1, ff_w2, ff_b2, ln1, ln2, window_input=window_input)
    if window_input or table is None:
        return block
    return Sequential([RecyclingPositionalEncoding(table), block])


def _build_stgcn(entry: dict, init: _Init, dtype: str) -> StGcnBlock:
    v = entry["v"]
    parts = entry.get("partitions", 1)
    graph = SkeletonGraph.chain(v, partitions=parts, dtype=dtype)
    c_in, c_out = entry["c_in"], entry["c_out"]
    kt = entry["tc_kernel"]
    residual = entry.get("residual", "auto")
    if residual == "auto":
        residual = "identity" if (c_in == c_out and entry.get("tc_stride", 1) == 1) else "pointwise"
    pointwise = residual == "pointwise"
    drawn = init.draw(*[(c_in, c_out)] * parts, (c_out, c_out, kt, 1, 1), (c_out,),
                      *_batchnorm_shapes(c_out), *([(c_in, c_out)] if pointwise else []))
    tc_w, tc_b, gamma, beta, mean, var = drawn[parts: parts + 6]
    tc = TemporalConv(tc_w, tc_b, padding=entry.get("tc_padding", 0),
                      temporal_stride=entry.get("tc_stride", 1))
    bn = BatchNorm(gamma, beta, mean, var)
    res_w = drawn[parts + 6] if pointwise else None
    return StGcnBlock(graph, drawn[:parts], tc, bn, residual=residual, res_weight=res_w)


def random_stream(seed: int, length: int, frame_shape: tuple, dtype: str) -> Tensor:
    """Deterministic input stream in [-1, 1) from the documented generator."""
    rng = Xoshiro256pp(seed)
    n = length * int(np.prod(frame_shape))
    flat = rng.uniform(n, -1.0, 1.0)
    return Tensor(flat, (length,) + tuple(frame_shape), dtype)

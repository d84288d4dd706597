"""Decoder-only transformer used by the engine and the bound checker.

Pre-norm residual blocks. Multi-head attention keeps the output projection
merged into the per-head value matrices, so each head maps straight back to
model width and head outputs are summed. Queries and keys are head-stacked
``(H, n, d_head)`` arrays. Only the per-head path forms values ``x_norm @
W_V``; the tiled kernel, like decode (see ``kvcache``), weights the shared
input rows and applies W_V after the head sum. Attention is causal, or, with
``keep=(w_sink, w_recent)``, the StreamingLLM window of ``numerics.visible``;
no other mask exists. Causal attention over more than ``_PREFILL_BLOCK`` rows
runs on ``_causal_attention``, one ``numerics.attend`` call per query tile,
which also gives every row's log-sum-exp. ``mha_from_projections`` returns
that lse beside the output, and ``Session.prefill`` makes the same call as
``forward_full``, so its logits equal the plain model's bit for bit. Two
layer-norm modes:

* ``clip``: identity while a row's Euclidean norm is <= 1, else rescale the
  row to unit norm. This is the mode the error bounds are stated for.
* ``rms``: divide by the root-mean-square of the row (epsilon 1e-6), the
  practical default.

Attention score scaling is likewise switchable: ``none`` uses raw q.k
products (bound-checking mode), ``inv_sqrt_dk`` divides by sqrt(d_head).

There are no positional encodings: all supported properties are
position-agnostic, and adding them would change none of the contracts here.

Model file format (``save_model``/``load_model``): one UTF-8 JSON header
line (format, version 1, the ``ModelConfig`` fields, seed, byte order,
dtype) terminated by ``\\n``, followed by a raw little-endian float64 blob
of all matrices, row-major, in this order: embedding table; then per layer,
per head W_Q, W_K, W_V, followed by that layer's W_ff1 and W_ff2; finally
the unembedding matrix. ``_blob_views`` is the one statement of that layout:
save fills its views of the blob and load copies out of them, and
``ModelConfig.layer_width`` gives one layer's share. The loader validates
the blob length exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .errors import ContractViolation, InputError, check_seed, parse_json
from .numerics import attend, masked_row_softmax, visible

__all__ = [
    "ACTIVATIONS",
    "ModelConfig",
    "Weights",
    "HiddenTrace",
    "check_tokens",
    "ln",
    "mha_forward",
    "mha_from_projections",
    "project_qkv",
    "ffn_forward",
    "block_forward",
    "forward_full",
    "random_init",
    "param_norm_bound",
    "save_model",
    "load_model",
    "model_fingerprint",
]

RMS_EPS = 1e-6

# sup |gelu'(x)| sits at x = sqrt(2); value Phi(sqrt(2)) + sqrt(2)*phi(sqrt(2)),
# rounded up in the last digit so it stays a valid Lipschitz bound.
_GELU_LIP = 1.1289041450


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Below x = -709, exp(-x) overflows to inf and 1 / inf gives the exact
    # limit 0; that overflow is no error (the CLI raises on the others).
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


_ACT_FNS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "gelu": lambda x: 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0))),
    "sigmoid": _sigmoid,
}
ACTIVATIONS = {"relu": 1.0, "gelu": _GELU_LIP, "sigmoid": 0.25}


def _erf(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf  # deferred: only gelu models need scipy

    return erf(x)


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_head: int
    vocab_size: int
    activation: str = "relu"
    ln_mode: str = "clip"  # "clip" | "rms"
    logit_scaling: str = "none"  # "none" | "inv_sqrt_dk"

    def __post_init__(self):
        if self.n_layers < 0:
            raise InputError("n_layers must be >= 0")
        for name in ("n_heads", "d_model", "d_head", "vocab_size"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}")
        if self.ln_mode not in ("clip", "rms"):
            raise InputError(f"unknown ln_mode {self.ln_mode!r}")
        if self.logit_scaling not in ("none", "inv_sqrt_dk"):
            raise InputError(f"unknown logit_scaling {self.logit_scaling!r}")

    @property
    def lipschitz(self) -> float:
        return ACTIVATIONS[self.activation]

    @property
    def layer_width(self) -> int:
        """Floats of one layer's weights: per head W_Q, W_K, W_V, then W_ff1, W_ff2."""
        d = self.d_model
        return self.n_heads * (2 * d * self.d_head + d * d) + 2 * d * d

    @property
    def weight_bytes(self) -> int:
        """Bytes of the float64 weights, in memory and in a model file's blob."""
        return (2 * self.vocab_size * self.d_model + self.n_layers * self.layer_width) * 8

    @property
    def score_scale(self) -> float:
        if self.logit_scaling == "inv_sqrt_dk":
            return 1.0 / math.sqrt(self.d_head)
        return 1.0


@dataclass
class Weights:
    """All parameter matrices, stacked per layer / per head.

    Shapes: embedding (vocab, d); w_q, w_k (L, H, d, d_head);
    w_v (L, H, d, d); w_ff1, w_ff2 (L, d, d); unembed (d, vocab).
    """

    embedding: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_ff1: np.ndarray
    w_ff2: np.ndarray
    unembed: np.ndarray


@dataclass
class HiddenTrace:
    """Per-layer hidden states from a full forward pass.

    ``xs[0]`` is the input embedding; ``xs[i]`` the i-th block output.
    """

    xs: List[np.ndarray]
    logits: np.ndarray


def ln(x: np.ndarray, mode: str) -> np.ndarray:
    """Row-wise normalization; accepts a single row or a matrix of rows. One
    row (a vector, or a decode step's ``(1, d)``) takes a scalar path: the
    same ndarray sum of squares, then the same IEEE sqrt, clip and division
    on a Python float, so its bits equal the matrix path's."""
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        x = np.asarray(x, dtype=np.float64)
    # The ndarray sum (and, for rms, division by the width) is what np.sum
    # and np.mean compute, bit for bit, without their wrapper overhead.
    if x.ndim == 1 or x.shape[0] == 1:
        squares, sqrt, at_least = float((x * x).sum()), math.sqrt, max
    else:
        squares, sqrt, at_least = (x * x).sum(axis=1, keepdims=True), np.sqrt, np.maximum
    if mode == "clip":
        return x * (1.0 / at_least(sqrt(squares), 1.0))
    if mode == "rms":
        return x / sqrt(squares / x.shape[-1] + RMS_EPS)
    raise InputError(f"unknown ln mode {mode!r}")


# Query rows above which causal attention runs on ``_causal_attention``
# below, one ``numerics.attend`` call per tile. It is not 0, for two reasons:
# 1. At or below it, causal and streaming-window masks share one per-head
#    path, so a window that keeps every position gives output bit-identical
#    to causal at the sizes the theory checks use (at most 24 tokens), and
#    the vacuous-window run of the bound checker has zero error.
# 2. The benchmark's smoke tests (``perfbench/test_perfbench.py``) pin
#    prompts of up to 64 tokens to one ``mha_from_projections`` call per
#    layer and H per-head ``masked_row_softmax`` calls. Lifting that needs a
#    change to the benchmark alone first (ROADMAP item A).
# Above it the kernel is not slower at any length measured. Attention of one
# layer of the benchmark model (4 heads, d_model 64, d_head 16, one BLAS
# thread, 2-CPU x86 host with 2 MiB of L2 per core, best of 30+ runs, three
# rounds), per-head path vs kernel at 32-row tiles:
#   32 tokens: 0.15-0.23 vs 0.12-0.18 ms   (1.3-1.4x)
#   64 tokens: 0.37-0.45 vs 0.34-0.42 ms   (1.1x)
#  128 tokens: 1.27-1.68 vs 0.88-1.16 ms   (1.4-1.5x)
#  256 tokens:   6.8-9.3 vs 2.5-3.3 ms     (2.7-2.9x)
#  512 tokens:    29-33 vs 6.0-7.0 ms      (4.6-4.9x)
_PREFILL_BLOCK = 64
# Query rows per tile of the causal kernel: one tile's (H, rows, keys) score
# block then fits the 2 MiB per-core L2 up to about 2,000 keys. Median online
# prefill of the benchmark model, ms, same host, 12 interleaved runs:
#   rows per tile    16    32    48    64    96   128
#   1,024 tokens    263   230   219   236   257   278
#   1,536 tokens    519   482   482   499   546   613
_PREFILL_TILE = 32


def project_qkv(
    x_normed: np.ndarray, weights: Weights, layer: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Head-stacked query and key projections of already-normalized rows,
    both ``(H, n, d_head)``."""
    return (
        np.matmul(x_normed, weights.w_q[layer]),
        np.matmul(x_normed, weights.w_k[layer]),
    )


def _causal_attention(q, k, x_norm, w_v, scale: float):
    """Exact causal attention over head-stacked q/k, summed over heads.

    Query rows go in tiles of ``_PREFILL_TILE`` (the query tiling of
    FlashAttention, Dao et al. 2022); each tile is one ``attend`` call over
    only the keys up to its own end, which masks just the tile's trailing
    diagonal block, weighting the shared rows ``x_norm``, then one ``(t, H *
    d_model) @ (H * d_model, d_value)`` product with W_V. Returns ``(out (n,
    d_value), lse (H, n))``, the lse being the normalizer of every causal row.

    Every tile gets one bound on the layer's scores, |q.k| <= |q| |k|
    (Cauchy-Schwarz) over the largest norms of each head, inflated by 1e-9
    against rounding; where it is at most ``numerics.SAFE_SCORE``, ``attend``
    skips the max shift.
    """
    n_heads, n, _ = q.shape
    w_v = w_v.reshape(n_heads * x_norm.shape[1], -1)
    out = np.empty((n, w_v.shape[1]))
    lse = np.empty((n_heads, n))
    pos = np.arange(n)
    # Squared row norms by einsum, which forms no (H, n, d_head) temporary.
    q_sq = np.einsum("hnd,hnd->hn", q, q).max(axis=1)
    k_sq = np.einsum("hnd,hnd->hn", k, k).max(axis=1)
    bound = abs(scale) * math.sqrt((q_sq * k_sq).max()) * (1 + 1e-9)
    for r0 in range(0, n, _PREFILL_TILE):
        r1 = min(r0 + _PREFILL_TILE, n)
        rows, lse[:, r0:r1] = attend(
            q[:, r0:r1], k[:, :r1], scale, pos[r0:r1], pos[:r1], x_norm[:r1], bound=bound
        )
        out[r0:r1] = rows.transpose(1, 0, 2).reshape(r1 - r0, -1) @ w_v
    return out, lse


def mha_from_projections(q, k, x_norm, w_v, scale: float, keep=None):
    """Sum over heads of self-attention, from head-stacked q/k, the shared
    normalized input rows and the layer's ``(H, d_model, d_value)`` W_V.

    Causal by default; ``keep=(w_sink, w_recent)`` narrows every row to the
    streaming window (``numerics.visible``). Causal attention over more than
    ``_PREFILL_BLOCK`` rows runs on the tiled kernel; everything else forms
    per-head values and runs head by head through ``masked_row_softmax``, on
    one mask for all heads. Returns ``(out (n, d_value), lse)``: the kernel's
    ``(H, n)`` log-sum-exp of every row, or ``None`` on the per-head path.
    """
    n = q.shape[1]
    if keep is None and n > _PREFILL_BLOCK:
        return _causal_attention(q, k, x_norm, w_v, scale)
    pos = np.arange(n)
    allowed = visible(pos, pos, keep)
    if scale != 1.0:
        q = q * scale
    out = None
    for q_h, k_h, v_h in zip(q, k, np.matmul(x_norm, w_v)):
        head = masked_row_softmax(q_h @ k_h.T, allowed) @ v_h
        out = head if out is None else out + head
    return out, None


def mha_forward(
    x_normed: np.ndarray, weights: Weights, layer: int, config: ModelConfig, keep=None
) -> np.ndarray:
    """Multi-head self-attention over normalized input rows; causal, or the
    streaming window ``keep=(w_sink, w_recent)``."""
    x_normed = np.asarray(x_normed, dtype=np.float64)
    if x_normed.ndim != 2 or x_normed.shape[1] != config.d_model:
        raise ContractViolation(
            f"expected (N, {config.d_model}) input, got {x_normed.shape}"
        )
    q, k = project_qkv(x_normed, weights, layer)
    return mha_from_projections(
        q, k, x_normed, weights.w_v[layer], config.score_scale, keep
    )[0]


def ffn_forward(y_normed: np.ndarray, weights: Weights, layer: int, config: ModelConfig) -> np.ndarray:
    act = _ACT_FNS[config.activation]
    return act(y_normed @ weights.w_ff1[layer]) @ weights.w_ff2[layer]


def block_forward(
    x_prev: np.ndarray, layer: int, weights: Weights, config: ModelConfig, keep=None
) -> Tuple[np.ndarray, np.ndarray]:
    """One residual block, attention as in ``mha_forward``: returns
    (post-attention rows, block output)."""
    y = x_prev + mha_forward(ln(x_prev, config.ln_mode), weights, layer, config, keep)
    x_new = y + ffn_forward(ln(y, config.ln_mode), weights, layer, config)
    return y, x_new


def check_tokens(tokens, vocab_size: int, one: bool = False):
    """Token ids in ``[0, vocab_size)``: with ``one`` a single id, returned as
    an int, else a non-empty 1-D sequence, returned as int64. Python and numpy
    integers pass; a bool or a float is an InputError, never truncated."""
    if one:
        if not isinstance(tokens, (int, np.integer)) or isinstance(tokens, bool):
            raise InputError(f"token id must be an integer, got {tokens!r}")
        ids = lo = hi = int(tokens)
    else:
        try:
            ids = np.asarray(tokens)
        except ValueError:  # ragged nesting; refused below as not 1-D
            ids = np.empty((0, 0))
        if ids.ndim != 1 or ids.size == 0:
            raise InputError("tokens must be a non-empty 1-D id sequence")
        # numpy reads [1, True] as ints, so a list is searched for bools.
        listed = () if isinstance(tokens, np.ndarray) else tokens
        if ids.dtype.kind not in "iu" or any(isinstance(t, (bool, np.bool_)) for t in listed):
            raise InputError(f"token ids must be integers within int64, got {ids.dtype} values")
        ids, lo, hi = ids.astype(np.int64, copy=False), int(ids.min()), int(ids.max())
    if lo < 0 or hi >= vocab_size:
        raise InputError(f"token ids must lie in [0, {vocab_size}), got [{lo}, {hi}]")
    return ids


def forward_full(tokens, weights: Weights, config: ModelConfig) -> HiddenTrace:
    """Embed, run all blocks under the causal mask, unembed."""
    x = weights.embedding[check_tokens(tokens, config.vocab_size)]
    xs = [x]
    for layer in range(config.n_layers):
        x = block_forward(x, layer, weights, config)[1]
        xs.append(x)
    return HiddenTrace(xs=xs, logits=x @ weights.unembed)


def random_init(config: ModelConfig, seed: int, scale: float) -> Weights:
    """Reproducible uniform(-scale, scale) weights; scale 0 gives all zeros."""
    # The sampler draws from a range of width 2 * scale, which must be finite.
    if not (math.isfinite(2 * scale) and scale >= 0):
        raise InputError(f"scale must be >= 0 and 2 * scale finite, got {scale}")
    rng = np.random.default_rng(check_seed(seed))
    L, H, d, dk, v = (
        config.n_layers,
        config.n_heads,
        config.d_model,
        config.d_head,
        config.vocab_size,
    )

    def draw(*shape):
        return rng.uniform(-scale, scale, size=shape)

    return Weights(
        embedding=draw(v, d),
        w_q=draw(L, H, d, dk),
        w_k=draw(L, H, d, dk),
        w_v=draw(L, H, d, d),
        w_ff1=draw(L, d, d),
        w_ff2=draw(L, d, d),
        unembed=draw(d, v),
    )


def param_norm_bound(weights: Weights) -> float:
    """Max Frobenius norm over the transformer's parameter matrices.

    The token embedding table is input data rather than a block parameter
    and is excluded.
    """
    stacks = (weights.w_q, weights.w_k, weights.w_v, weights.w_ff1, weights.w_ff2)
    return max(
        float(np.sqrt(np.square(m).sum(axis=(-2, -1)).max(initial=0.0)))
        for m in stacks + (weights.unembed,)
    )


# --- model file I/O ---------------------------------------------------------

_BLOB_DTYPE = np.dtype("<f8")


def _blob_views(config: ModelConfig, flat: np.ndarray) -> Weights:
    """The weight stacks as views of a model file's flat blob, in file order:
    embedding, an ``(L, layer_width)`` block whose rows hold per head W_Q,
    W_K, W_V then W_ff1 and W_ff2, and the unembedding."""
    L, H, d, dk, v = (
        config.n_layers,
        config.n_heads,
        config.d_model,
        config.d_head,
        config.vocab_size,
    )
    head = 2 * d * dk + d * d
    ff = H * head
    # Explicit shapes throughout: reshaping with -1 fails on zero layers.
    layers = flat[v * d : flat.size - d * v].reshape(L, config.layer_width)
    heads = layers[:, :ff].reshape(L, H, head)
    return Weights(
        embedding=flat[: v * d].reshape(v, d),
        w_q=heads[:, :, : d * dk].reshape(L, H, d, dk),
        w_k=heads[:, :, d * dk : 2 * d * dk].reshape(L, H, d, dk),
        w_v=heads[:, :, 2 * d * dk :].reshape(L, H, d, d),
        w_ff1=layers[:, ff : ff + d * d].reshape(L, d, d),
        w_ff2=layers[:, ff + d * d :].reshape(L, d, d),
        unembed=flat[flat.size - d * v :].reshape(d, v),
    )


def save_model(path, config: ModelConfig, weights: Weights, seed: Optional[int] = None) -> None:
    flat = np.empty(config.weight_bytes // 8, dtype=_BLOB_DTYPE)
    for name, view in vars(_blob_views(config, flat)).items():
        stack = getattr(weights, name)
        if stack.shape != view.shape:
            raise ContractViolation(f"{name} is {stack.shape}, the config needs {view.shape}")
        view[...] = stack
    header = {
        "format": "lazykv-model",
        "version": 1,
        **asdict(config),
        "seed": seed,
        "byte_order": "little-endian",
        "dtype": "f64",
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(flat.tobytes())


def load_model(path) -> Tuple[ModelConfig, Weights, Optional[int]]:
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    header = parse_json(header_line, f"model header of {path}")
    if not isinstance(header, dict) or header.get("format") != "lazykv-model":
        raise InputError(f"{path} is not a lazykv model file")
    # 1.0 and True both equal 1, so the type is checked first.
    version = header.get("version")
    if type(version) is not int or version != 1:
        raise InputError(f"unsupported model file version {version!r}")
    if header.get("dtype") != "f64" or header.get("byte_order") != "little-endian":
        raise InputError("unsupported model dtype or byte order")
    # Annotations are strings here (``from __future__ import annotations``),
    # and a bool's type name is not "int".
    arch = {}
    for field in fields(ModelConfig):
        if field.name not in header:
            raise InputError(f"model header lacks {field.name!r}")
        arch[field.name] = value = header[field.name]
        if type(value).__name__ != field.type:
            raise InputError(
                f"model header field {field.name!r} must be {field.type}, got {value!r}"
            )
    config = ModelConfig(**arch)
    if len(blob) != config.weight_bytes:
        raise InputError(
            f"model blob is {len(blob)} bytes, expected exactly {config.weight_bytes}"
        )
    flat = np.frombuffer(blob, dtype=_BLOB_DTYPE)
    if not np.isfinite(flat).all():
        raise InputError("model blob contains non-finite values")
    # One native copy per stack, so that no weight keeps the blob alive.
    views = vars(_blob_views(config, flat))
    weights = Weights(**{name: m.astype(np.float64, order="C") for name, m in views.items()})
    return config, weights, header.get("seed")


def model_fingerprint(path) -> str:
    """Hex SHA-256 of the model file; used to pin policies to a model."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()

"""Decoder-only transformer used by the engine and the bound checker.

Pre-norm residual blocks. Multi-head attention keeps the output projection
merged into the per-head value matrices, so each head maps straight back to
model width and head outputs are summed. Queries, keys and values are
head-stacked ``(H, n, d)`` arrays. ``project_qkv`` gives only queries and
keys: decode caches a layer's normalized input rows instead of per-head
values (see ``kvcache``), so values are formed, as ``x_norm @ W_V``, only
where full-sequence attention needs them. A causal mask over more than
``_PREFILL_BLOCK`` rows runs on ``_causal_attention``, one ``numerics.attend``
call per query tile, which also gives every row's log-sum-exp; the engine's
prefill calls that same kernel, so its logits equal ``forward_full``'s bit
for bit at every prompt length. Two layer-norm modes:

* ``clip``: identity while a row's Euclidean norm is <= 1, else rescale the
  row to unit norm. This is the mode the error bounds are stated for.
* ``rms``: divide by the root-mean-square of the row (epsilon 1e-6), the
  practical default.

Attention score scaling is likewise switchable: ``none`` uses raw q.k
products (bound-checking mode), ``inv_sqrt_dk`` divides by sqrt(d_head).

There are no positional encodings: all supported properties are
position-agnostic, and adding them would change none of the contracts here.

Model file format (``save_model``/``load_model``): one UTF-8 JSON header
line (config fields, seed, byte order, dtype) terminated by ``\\n``,
followed by a raw little-endian float64 blob of all matrices, row-major, in
this order: embedding table; then per layer, per head W_Q, W_K, W_V,
followed by that layer's W_ff1 and W_ff2; finally the unembedding matrix.
The loader validates the blob length exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ContractViolation, InputError
from .numerics import MaskSpec, attend, masked_row_softmax

__all__ = [
    "ACTIVATIONS",
    "ModelConfig",
    "Weights",
    "HiddenTrace",
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
_ACT_FNS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "gelu": lambda x: 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0))),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
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
    """Row-wise normalization; accepts a single row or a matrix of rows."""
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    # The ndarray sum (and, for rms, division by the width) is what np.sum
    # and np.mean compute, bit for bit, without their wrapper overhead.
    squares = (rows * rows).sum(axis=1, keepdims=True)
    if mode == "clip":
        norms = np.sqrt(squares)
        factor = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)
        out = rows * factor
    elif mode == "rms":
        out = rows / np.sqrt(squares / rows.shape[1] + RMS_EPS)
    else:
        raise InputError(f"unknown ln mode {mode!r}")
    return out[0] if single else out


# Query rows above which a causal mask runs on ``_causal_attention`` below,
# one ``numerics.attend`` call per tile. It is not 0, for two reasons:
# 1. At or below it, causal and explicit ``lazy_set`` masks share one
#    per-head path, so a causal mask and the prefix sets it stands for give
#    bit-identical output at the sizes the theory checks use (at most 24
#    tokens), and the vacuous-mask run of the bound checker has zero error.
# 2. The benchmark's smoke tests (``perfbench/test_perfbench.py``) pin
#    prompts of up to 64 tokens to one ``mha_from_projections`` call per
#    layer and H per-head ``masked_row_softmax`` calls. Lifting that needs a
#    change to the benchmark alone first (ROADMAP item A).
# Above it the kernel is not slower at any length measured. Attention of one
# layer of the benchmark model (4 heads, d_model 64, d_head 16, one BLAS
# thread, 2-CPU x86 host, best of 30+ runs, three rounds), per-head path vs
# kernel (measured on the dedicated tile routine that ``attend`` replaced;
# its tiles give the same numbers bit for bit from the same arithmetic):
#   32 tokens: 0.15-0.23 vs 0.07-0.09 ms   (2.2-3.3x)
#   64 tokens: 0.27-0.39 vs 0.15-0.21 ms   (1.8-1.9x)
#  128 tokens: 0.87-1.24 vs 0.75-1.04 ms   (1.0-1.2x)
#  256 tokens:   4.0-5.5 vs 1.5-2.1 ms     (2.6-2.7x)
#  512 tokens:    18-25 vs 5.0-6.9 ms      (2.7-3.7x)
_PREFILL_BLOCK = 64
# Query rows per tile of the causal kernel.
_PREFILL_TILE = 128


def project_qkv(
    x_normed: np.ndarray, weights: Weights, layer: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Head-stacked query and key projections of already-normalized rows,
    both ``(H, n, d_head)``. Values, ``(H, n, d_model)``, are
    ``np.matmul(x_normed, weights.w_v[layer])`` where a caller needs them."""
    return (
        np.matmul(x_normed, weights.w_q[layer]),
        np.matmul(x_normed, weights.w_k[layer]),
    )


def _causal_attention(q, k, v, scale: float):
    """Exact causal attention over head-stacked (H, n, d) arrays.

    Query rows go in tiles of ``_PREFILL_TILE`` (the query tiling of
    FlashAttention, Dao et al. 2022); each tile is one ``attend`` call over
    only the keys up to its own end, which masks just the tile's trailing
    diagonal block. Returns ``(out (H, n, d_value), lse (H, n))``, the
    per-row log-sum-exp being the normalizer of every causal row.
    """
    n_heads, n, _ = q.shape
    out = np.empty((n_heads, n, v.shape[2]))
    lse = np.empty((n_heads, n))
    pos = np.arange(n)
    for r0 in range(0, n, _PREFILL_TILE):
        r1 = min(r0 + _PREFILL_TILE, n)
        out[:, r0:r1], lse[:, r0:r1] = attend(
            q[:, r0:r1], k[:, :r1], scale, pos[r0:r1], pos[:r1], v[:, :r1]
        )
    return out, lse


def mha_from_projections(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: MaskSpec,
    scale: float,
) -> np.ndarray:
    """Sum over heads of masked-softmax attention, from head-stacked q/k/v.

    A causal mask over more than ``_PREFILL_BLOCK`` rows runs on the tiled
    kernel, exactly as ``Session.prefill`` does; every other mask runs head
    by head through ``masked_row_softmax``.
    """
    if mask.kind == "causal" and q.shape[1] > _PREFILL_BLOCK:
        return _causal_attention(q, k, v, scale)[0].sum(axis=0)
    out = None
    for q_h, k_h, v_h in zip(q, k, v):
        scores = q_h @ k_h.T
        if scale != 1.0:
            scores = scores * scale
        head = masked_row_softmax(scores, mask) @ v_h
        out = head if out is None else out + head
    return out


def _check_self_attention_mask(mask: MaskSpec, n: int) -> None:
    if mask.kind != "lazy_set":
        return
    if mask.allowed is None or len(mask.allowed) != n:
        raise ContractViolation("lazy_set mask row count must match input rows")
    for i, idx in enumerate(mask.allowed):
        if idx.size and idx.max() > i:
            raise ContractViolation(
                f"row {i} allowed set reaches position {int(idx.max())} > {i}"
            )


def mha_forward(
    x_normed: np.ndarray,
    weights: Weights,
    layer: int,
    mask: MaskSpec,
    config: ModelConfig,
) -> np.ndarray:
    """Multi-head self-attention over normalized input rows."""
    x_normed = np.asarray(x_normed, dtype=np.float64)
    if x_normed.ndim != 2 or x_normed.shape[1] != config.d_model:
        raise ContractViolation(
            f"expected (N, {config.d_model}) input, got {x_normed.shape}"
        )
    _check_self_attention_mask(mask, x_normed.shape[0])
    q, k = project_qkv(x_normed, weights, layer)
    v = np.matmul(x_normed, weights.w_v[layer])
    return mha_from_projections(q, k, v, mask, config.score_scale)


def ffn_forward(y_normed: np.ndarray, weights: Weights, layer: int, config: ModelConfig) -> np.ndarray:
    act = _ACT_FNS[config.activation]
    return act(y_normed @ weights.w_ff1[layer]) @ weights.w_ff2[layer]


def block_forward(
    x_prev: np.ndarray,
    layer: int,
    weights: Weights,
    mask: MaskSpec,
    config: ModelConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """One residual block: returns (post-attention rows, block output)."""
    y = x_prev + mha_forward(ln(x_prev, config.ln_mode), weights, layer, mask, config)
    x_new = y + ffn_forward(ln(y, config.ln_mode), weights, layer, config)
    return y, x_new


def forward_full(tokens, weights: Weights, config: ModelConfig) -> HiddenTrace:
    """Embed, run all blocks under the causal mask, unembed."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise InputError("tokens must be a non-empty 1-D id sequence")
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise InputError(
            f"token ids must lie in [0, {config.vocab_size}), got "
            f"[{int(tokens.min())}, {int(tokens.max())}]"
        )
    x = weights.embedding[tokens]
    xs = [x]
    causal = MaskSpec.causal()
    for layer in range(config.n_layers):
        x = block_forward(x, layer, weights, causal, config)[1]
        xs.append(x)
    return HiddenTrace(xs=xs, logits=x @ weights.unembed)


def random_init(config: ModelConfig, seed: int, scale: float) -> Weights:
    """Reproducible uniform(-scale, scale) weights; scale 0 gives all zeros."""
    if not (math.isfinite(scale) and scale >= 0):
        raise InputError(f"scale must be finite and >= 0, got {scale}")
    rng = np.random.default_rng(seed)
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


def _blob_matrices(config: ModelConfig, weights: Weights):
    yield weights.embedding
    for layer in range(config.n_layers):
        for h in range(config.n_heads):
            yield weights.w_q[layer, h]
            yield weights.w_k[layer, h]
            yield weights.w_v[layer, h]
        yield weights.w_ff1[layer]
        yield weights.w_ff2[layer]
    yield weights.unembed


def save_model(path, config: ModelConfig, weights: Weights, seed: Optional[int] = None) -> None:
    header = {
        "format": "lazykv-model",
        "version": 1,
        "n_layers": config.n_layers,
        "n_heads": config.n_heads,
        "d_model": config.d_model,
        "d_head": config.d_head,
        "vocab_size": config.vocab_size,
        "activation": config.activation,
        "ln_mode": config.ln_mode,
        "logit_scaling": config.logit_scaling,
        "seed": seed,
        "byte_order": "little-endian",
        "dtype": "f64",
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for m in _blob_matrices(config, weights):
            f.write(np.ascontiguousarray(m, dtype=_BLOB_DTYPE).tobytes())


# Architecture fields of the model header and the JSON type each must have.
_HEADER_FIELDS = {
    "n_layers": int,
    "n_heads": int,
    "d_model": int,
    "d_head": int,
    "vocab_size": int,
    "activation": str,
    "ln_mode": str,
    "logit_scaling": str,
}


def load_model(path) -> Tuple[ModelConfig, Weights, Optional[int]]:
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"unreadable model header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "lazykv-model":
        raise InputError(f"{path} is not a lazykv model file")
    if header.get("dtype") != "f64" or header.get("byte_order") != "little-endian":
        raise InputError("unsupported model dtype or byte order")
    for name, kind in _HEADER_FIELDS.items():
        if name not in header:
            raise InputError(f"model header lacks {name!r}")
        value = header[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InputError(
                f"model header field {name!r} must be {kind.__name__}, got {value!r}"
            )
    config = ModelConfig(**{name: header[name] for name in _HEADER_FIELDS})
    L, H, d, dk, v = (
        config.n_layers,
        config.n_heads,
        config.d_model,
        config.d_head,
        config.vocab_size,
    )
    expected = (v * d + L * (H * (2 * d * dk + d * d) + 2 * d * d) + d * v) * 8
    if len(blob) != expected:
        raise InputError(
            f"model blob is {len(blob)} bytes, expected exactly {expected}"
        )
    flat = np.frombuffer(blob, dtype=_BLOB_DTYPE).astype(np.float64)
    if not np.isfinite(flat).all():
        raise InputError("model blob contains non-finite values")

    pos = 0

    def take(*shape):
        nonlocal pos
        n = int(np.prod(shape))
        out = flat[pos : pos + n].reshape(shape)
        pos += n
        return out

    embedding = take(v, d)
    w_q = np.empty((L, H, d, dk))
    w_k = np.empty((L, H, d, dk))
    w_v = np.empty((L, H, d, d))
    w_ff1 = np.empty((L, d, d))
    w_ff2 = np.empty((L, d, d))
    for layer in range(L):
        for h in range(H):
            w_q[layer, h] = take(d, dk)
            w_k[layer, h] = take(d, dk)
            w_v[layer, h] = take(d, d)
        w_ff1[layer] = take(d, d)
        w_ff2[layer] = take(d, d)
    unembed = take(d, v)
    weights = Weights(
        embedding=embedding,
        w_q=w_q,
        w_k=w_k,
        w_v=w_v,
        w_ff1=w_ff1,
        w_ff2=w_ff2,
        unembed=unembed,
    )
    return config, weights, header.get("seed")


def model_fingerprint(path) -> str:
    """Hex SHA-256 of the model file; used to pin policies to a model."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()

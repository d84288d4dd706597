"""Tests for the transformer blocks, weight init, and the model file format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lazykv.errors import InputError
from lazykv.model import (
    _PREFILL_BLOCK,
    _PREFILL_TILE,
    ACTIVATIONS,
    RMS_EPS,
    ModelConfig,
    Weights,
    _causal_attention,
    block_forward,
    ffn_forward,
    forward_full,
    ln,
    load_model,
    mha_forward,
    mha_from_projections,
    model_fingerprint,
    param_norm_bound,
    project_qkv,
    random_init,
    save_model,
)

from oracles import ln_clip_where, model_blob


def small_config(**kw):
    base = dict(n_layers=2, n_heads=2, d_model=4, d_head=3, vocab_size=7)
    base.update(kw)
    return ModelConfig(**base)


def explicit_mha_oracle(x_normed, weights, layer, config):
    """Per-head loops with a from-scratch softmax; no shared code paths."""
    n = x_normed.shape[0]
    out = np.zeros((n, config.d_model))
    for h in range(config.n_heads):
        q = x_normed @ weights.w_q[layer, h]
        k = x_normed @ weights.w_k[layer, h]
        v = x_normed @ weights.w_v[layer, h]
        for i in range(n):
            scores = np.array([q[i] @ k[j] for j in range(i + 1)])
            scores = scores * config.score_scale
            e = np.exp(scores - scores.max())
            probs = e / e.sum()
            for j in range(i + 1):
                out[i] += probs[j] * v[j]
    return out


def ln_mean_formulas(x, mode):
    """Row normalization through the np.sum / np.mean wrappers."""
    x = np.asarray(x, dtype=np.float64)
    rows = x[None, :] if x.ndim == 1 else x
    if mode == "clip":
        return ln_clip_where(x)
    out = rows / np.sqrt(np.mean(rows * rows, axis=1, keepdims=True) + RMS_EPS)
    return out[0] if x.ndim == 1 else out


@st.composite
def ln_inputs(draw):
    """1-D or 2-D rows at widths that cover the summation's 8-wide unroll
    and its pairwise split, as float64, float32 or a nested list."""
    width = draw(st.integers(1, 140))
    shape = (width,) if draw(st.booleans()) else (draw(st.integers(1, 4)), width)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))) * scale
    kind = draw(st.sampled_from(["float64", "float32", "list"]))
    if kind == "float32":
        return x.astype(np.float32)
    return x.tolist() if kind == "list" else x


@st.composite
def ln_matrices(draw):
    """2-4 rows at widths up to twice the pairwise summation's 128-float
    block; some rows rescaled to a norm within a few ulps of 1, where the
    clip switches between identity and division."""
    width = draw(st.integers(1, 300))
    x = draw(arrays(np.float64, (draw(st.integers(2, 4)), width), elements=st.floats(-1, 1)))
    for i in range(x.shape[0]):
        exponent = draw(st.sampled_from([None, -3, -1, 0, 1, 3]))
        norm = np.sqrt(np.sum(x[i] * x[i]))
        if exponent is not None and norm > 0:
            x[i] *= np.nextafter(1.0, 2.0 if exponent > 0 else 0.0) ** abs(exponent) / norm
    return x


class TestLn:
    @settings(max_examples=150, deadline=None)
    @given(x=ln_inputs(), mode=st.sampled_from(["clip", "rms"]))
    def test_matches_the_mean_formulas_bit_for_bit(self, x, mode):
        got = ln(x, mode)
        assert got.dtype == np.float64
        assert np.array_equal(got, ln_mean_formulas(x, mode))

    @settings(max_examples=150, deadline=None)
    @given(x=ln_matrices(), mode=st.sampled_from(["clip", "rms"]))
    def test_one_row_path_matches_the_matrix_path_bit_for_bit(self, x, mode):
        """A vector and a ``(1, d)`` matrix take the scalar path; two or more
        rows take the matrix path. Each row comes out the same either way."""
        rows = ln(x, mode)
        for i in range(x.shape[0]):
            assert np.array_equal(ln(x[i], mode), rows[i])
            assert np.array_equal(ln(x[i : i + 1], mode), rows[i : i + 1])

    @pytest.mark.parametrize(
        "row",
        [
            [0.0, 0.0, 0.0],
            [1e-300, -1e-300],
            [1.0],
            [-1.0, 0.0],
            [0.5, -0.5, 0.5, 0.5],
            [np.nextafter(1.0, 2.0)],
            [0.0, -np.nextafter(1.0, 2.0)],
            [3e153, 4e153],
            [1e200, -1e200],
        ],
        ids=["zero", "squares-underflow", "norm-1", "norm-1-negative", "norm-1-spread",
             "ulp-above-1", "ulp-above-1-negative", "norm-5e153", "squares-overflow"],
    )
    def test_clip_matches_the_where_formula_at_the_edges(self, row):
        """The edges of the clip branch; the test above draws random rows."""
        row = np.asarray(row)
        rows = np.stack([row, np.zeros_like(row), 2.0 * row])
        with np.errstate(over="ignore"):
            norm = np.sqrt(np.sum(row * row))
            assert norm in (0.0, 1.0, np.nextafter(1.0, 2.0)) or norm > 1e150
            assert np.array_equal(ln(row, "clip"), ln_clip_where(row))
            assert np.array_equal(ln(rows, "clip"), ln_clip_where(rows))

    def test_clip_identity_branch(self):
        v = np.array([0.3, 0.4])
        assert np.array_equal(ln(v, "clip"), v)

    def test_clip_rescales_norm_5(self):
        assert np.allclose(ln(np.array([3.0, 4.0]), "clip"), [0.6, 0.8], atol=1e-15)

    def test_clip_output_norm_is_one_for_large_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(6) * rng.uniform(1.5, 50)
            if np.linalg.norm(v) <= 1:
                continue
            assert abs(np.linalg.norm(ln(v, "clip")) - 1.0) <= 1e-12

    def test_rms_matches_manual(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        expect = x / np.sqrt((x**2).mean(axis=1, keepdims=True) + 1e-6)
        assert np.allclose(ln(x, "rms"), expect, atol=1e-15)


class TestMha:
    def test_single_token_is_value_projection(self):
        config = small_config()
        rng = np.random.default_rng(2)
        weights = random_init(config, 3, 0.5)
        x = rng.standard_normal((1, config.d_model))
        out = mha_forward(x, weights, 0, config)
        expect = sum(x @ weights.w_v[0, h] for h in range(config.n_heads))
        assert np.allclose(out, expect, atol=1e-12)

    def test_zero_qk_gives_uniform_causal_average(self):
        config = small_config(n_heads=1, d_head=4)
        weights = random_init(config, 4, 0.5)
        weights.w_q[:] = 0.0
        weights.w_k[:] = 0.0
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, config.d_model))
        out = mha_forward(x, weights, 0, config)
        v = x @ weights.w_v[0, 0]
        expect = np.array([v[: i + 1].mean(axis=0) for i in range(6)])
        assert np.allclose(out, expect, atol=1e-12)

    @pytest.mark.parametrize("scaling", ["none", "inv_sqrt_dk"])
    def test_matches_per_head_loop_oracle(self, scaling):
        config = small_config(logit_scaling=scaling)
        weights = random_init(config, 6, 0.8)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, config.d_model))
        out = mha_forward(x, weights, 1, config)
        assert np.allclose(out, explicit_mha_oracle(x, weights, 1, config), atol=1e-10)

    def test_tiled_causal_branch_matches_oracle(self):
        # above _PREFILL_BLOCK rows a causal mask runs on the tiled kernel;
        # the rows span at least two tiles, the last one partial
        config = small_config(logit_scaling="inv_sqrt_dk")
        weights = random_init(config, 11, 0.8)
        n = _PREFILL_BLOCK + _PREFILL_TILE + 5
        x = np.random.default_rng(11).standard_normal((n, config.d_model))
        assert x.shape[0] > _PREFILL_BLOCK
        out = mha_forward(x, weights, 1, config)
        assert np.allclose(out, explicit_mha_oracle(x, weights, 1, config), atol=1e-10, rtol=0)

    def test_only_the_tiled_branch_returns_an_lse(self):
        # prefill reads detection's lse from this one call: the kernel's rows
        # bit for bit above the block, none on the per-head path at it
        config = small_config(logit_scaling="inv_sqrt_dk")
        weights = random_init(config, 13, 0.8)
        rng = np.random.default_rng(13)
        for n in (_PREFILL_BLOCK, _PREFILL_BLOCK + 1):
            x = ln(rng.standard_normal((n, config.d_model)), config.ln_mode)
            q, k = project_qkv(x, weights, 0)
            args = (q, k, x, weights.w_v[0], config.score_scale)
            out, lse = mha_from_projections(*args)
            if n == _PREFILL_BLOCK:
                assert lse is None
            else:
                expect_out, expect_lse = _causal_attention(*args)
                assert np.array_equal(out, expect_out) and np.array_equal(lse, expect_lse)

    def test_tiled_causal_branch_forms_no_per_head_rows(self):
        # the kernel weights the shared input rows and applies W_V after the
        # head sum. Besides one tile's score block it holds q, k and the
        # output, three (n, d_model)-sized buffers on this model, and a few
        # per-tile ones; one (H, n, d_model) stack would add four more
        config = ModelConfig(n_layers=1, n_heads=4, d_model=64, d_head=16, vocab_size=7)
        weights = random_init(config, 12, 0.2)
        n = _PREFILL_BLOCK + 8 * _PREFILL_TILE + 5
        x = ln(np.random.default_rng(12).standard_normal((n, config.d_model)), "clip")
        row_block = n * config.d_model * 8
        score_block = config.n_heads * _PREFILL_TILE * n * 8
        tracemalloc.start()
        try:
            mha_forward(x, weights, 0, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < score_block + 6 * row_block

    def test_vacuous_window_equals_causal(self):
        # a window that keeps every position: recent >= n, or sinks >= n
        config = small_config()
        weights = random_init(config, 7, 0.6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, config.d_model))
        causal = mha_forward(x, weights, 0, config)
        for keep in [(0, 5), (5, 1), (9, 2)]:
            assert np.array_equal(causal, mha_forward(x, weights, 0, config, keep))


class TestBlockAndForward:
    def test_zero_weights_residual_identity(self):
        config = small_config()
        weights = random_init(config, 0, 0.0)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, config.d_model))
        y, x_new = block_forward(x, 0, weights, config)
        assert np.array_equal(y, x)
        assert np.array_equal(x_new, x)

    def test_relu_identity_ffn_passthrough(self):
        config = small_config(n_layers=1, d_model=3, activation="relu")
        weights = random_init(config, 1, 0.0)
        weights.w_ff1[0] = np.eye(3)
        weights.w_ff2[0] = np.eye(3)
        x = np.abs(np.random.default_rng(9).standard_normal((4, 3))) + 0.1
        y, x_new = block_forward(x, 0, weights, config)
        # zero attention weights keep y == x; rows positive so relu passes ln(y)
        assert np.array_equal(y, x)
        assert np.allclose(x_new, y + ln(y, "clip"), atol=1e-14)

    def test_block_matches_straight_line_oracle(self):
        config = small_config()
        weights = random_init(config, 11, 0.7)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, config.d_model))
        y, x_new = block_forward(x, 1, weights, config)
        # independent recomputation
        xn = ln(x, config.ln_mode)
        y_oracle = x + explicit_mha_oracle(xn, weights, 1, config)
        yn = ln(y_oracle, config.ln_mode)
        x_oracle = y_oracle + np.maximum(yn @ weights.w_ff1[1], 0) @ weights.w_ff2[1]
        assert np.allclose(y, y_oracle, atol=1e-10)
        assert np.allclose(x_new, x_oracle, atol=1e-10)

    def test_empty_stack_logits_are_embedding_times_unembed(self):
        config = small_config(n_layers=0)
        weights = random_init(config, 12, 0.5)
        trace = forward_full([1, 3, 5], weights, config)
        assert np.array_equal(
            trace.logits, weights.embedding[[1, 3, 5]] @ weights.unembed
        )

    def test_trace_starts_at_embedding(self):
        config = small_config()
        weights = random_init(config, 13, 0.4)
        trace = forward_full([0, 2, 4, 6], weights, config)
        assert np.array_equal(trace.xs[0], weights.embedding[[0, 2, 4, 6]])

    def test_matches_layer_loop_oracle(self):
        config = small_config(n_layers=2)
        weights = random_init(config, 14, 0.6)
        tokens = [1, 4, 2, 6]
        trace = forward_full(tokens, weights, config)
        x = weights.embedding[tokens]
        for layer in range(2):
            xn = ln(x, config.ln_mode)
            x = x + explicit_mha_oracle(xn, weights, layer, config)
            x = x + ffn_forward(ln(x, config.ln_mode), weights, layer, config)
        assert np.allclose(trace.logits, x @ weights.unembed, atol=1e-10)

    def test_out_of_range_token_rejected(self):
        config = small_config()
        weights = random_init(config, 15, 0.1)
        with pytest.raises(InputError):
            forward_full([0, config.vocab_size], weights, config)

    def test_prefix_consistency(self):
        config = small_config(n_layers=3)
        weights = random_init(config, 16, 0.5)
        short = forward_full([1, 2, 3], weights, config)
        long = forward_full([1, 2, 3, 4, 5], weights, config)
        assert np.allclose(short.logits, long.logits[:3], atol=1e-12)

    def test_clip_ln_rows_bounded_on_trace(self):
        config = small_config(n_layers=3)
        weights = random_init(config, 17, 1.0)
        trace = forward_full([0, 1, 2, 3, 4], weights, config)
        for x in trace.xs:
            normed = ln(x, "clip")
            assert (np.linalg.norm(normed, axis=1) <= 1.0 + 1e-12).all()


class TestRandomInitAndNormBound:
    def test_determinism(self):
        config = small_config()
        a = random_init(config, 42, 0.3)
        b = random_init(config, 42, 0.3)
        for name in ("embedding", "w_q", "w_k", "w_v", "w_ff1", "w_ff2", "unembed"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_scale_zero_gives_zero_weights(self):
        weights = random_init(small_config(), 1, 0.0)
        assert param_norm_bound(weights) == 0.0
        assert np.all(weights.embedding == 0.0)

    def test_frobenius_bound_for_scale(self):
        config = small_config(d_model=4, d_head=4, vocab_size=4)
        weights = random_init(config, 5, 0.1)
        # every matrix has at most 4*4 entries, each below 0.1 in magnitude
        assert param_norm_bound(weights) <= 0.1 * 4

    def test_single_entry_bound(self):
        config = small_config()
        weights = random_init(config, 0, 0.0)
        weights.w_ff1[0, 1, 2] = 5.0
        assert param_norm_bound(weights) == 5.0

    def test_matches_per_matrix_oracle(self):
        config = small_config()
        weights = random_init(config, 21, 0.9)
        mats = []
        for layer in range(config.n_layers):
            for h in range(config.n_heads):
                mats += [weights.w_q[layer, h], weights.w_k[layer, h], weights.w_v[layer, h]]
            mats += [weights.w_ff1[layer], weights.w_ff2[layer]]
        mats.append(weights.unembed)
        oracle = max(np.sqrt((m**2).sum()) for m in mats)
        assert abs(param_norm_bound(weights) - oracle) <= 1e-12


class TestActivations:
    def test_lipschitz_constants_bound_finite_differences(self):
        from lazykv.model import _ACT_FNS

        xs = np.linspace(-6, 6, 200001)
        for name, lip in ACTIVATIONS.items():
            ys = _ACT_FNS[name](xs)
            slopes = np.abs(np.diff(ys) / np.diff(xs))
            assert slopes.max() <= lip + 1e-9, name

    def test_sigmoid_saturates_without_overflow(self):
        # exp(-x) is inf below x = -709; the quotient is the exact limit 0
        from lazykv.model import _ACT_FNS

        with np.errstate(over="raise"):
            assert _ACT_FNS["sigmoid"](np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]


# (n_layers, n_heads, d_model, d_head): zero, one and three layers, one and
# three heads, d_head above and below d_model / n_heads.
FORMAT_SHAPES = [(0, 1, 4, 3), (1, 1, 4, 6), (1, 3, 6, 1), (3, 3, 6, 5), (3, 1, 4, 2)]


class TestModelFile:
    @pytest.mark.parametrize("shape", FORMAT_SHAPES, ids=str)
    def test_blob_is_the_per_matrix_oracle(self, tmp_path, shape):
        L, H, d, dk = shape
        config = ModelConfig(n_layers=L, n_heads=H, d_model=d, d_head=dk, vocab_size=5)
        weights = random_init(config, 3, 0.5)
        path = tmp_path / "m"
        save_model(path, config, weights)
        assert path.read_bytes().split(b"\n", 1)[1] == model_blob(config, weights)
        # so the file now holds the oracle's bytes
        _, loaded, _ = load_model(path)
        for name, stack in vars(loaded).items():
            assert stack.shape == getattr(weights, name).shape, name
            assert np.array_equal(stack, getattr(weights, name)), name
            assert stack.flags.c_contiguous and stack.base is None, name

    def test_file_bytes_are_pinned(self, tmp_path):
        # policy files name a model by this digest, so neither the header
        # nor the blob may drift; the weights are distinct per stack, no RNG
        config = ModelConfig(2, 2, 3, 2, 5, "gelu", "rms", "inv_sqrt_dk")
        zeros = vars(random_init(config, 0, 0.0))
        weights = Weights(**{
            name: np.arange(m.size).reshape(m.shape) * 0.5 + 1000.0 * i
            for i, (name, m) in enumerate(zeros.items())
        })
        path = tmp_path / "m"
        save_model(path, config, weights, seed=7)
        assert model_fingerprint(path) == (
            "6605df0ed00734617240ddeb9138111634a1d3dd660b997a2eddbfd3aadca76b"
        )

    def test_load_holds_the_blob_and_the_weights_only(self, tmp_path):
        # the file's bytes plus one copy of each stack; a float copy of the
        # whole blob beside them would make it three times the weights
        config = ModelConfig(n_layers=8, n_heads=4, d_model=64, d_head=16, vocab_size=256)
        path = tmp_path / "m"
        save_model(path, config, random_init(config, 1, 0.1))
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * config.weight_bytes

    def test_round_trip_preserves_forward(self, tmp_path):
        config = small_config(n_layers=2, activation="gelu", ln_mode="rms",
                              logit_scaling="inv_sqrt_dk")
        weights = random_init(config, 33, 0.4)
        path = tmp_path / "m.lazykv"
        save_model(path, config, weights, seed=33)
        config2, weights2, seed = load_model(path)
        assert seed == 33
        assert config2 == config
        tokens = [0, 3, 1, 6]
        a = forward_full(tokens, weights, config)
        b = forward_full(tokens, weights2, config2)
        assert np.array_equal(a.logits, b.logits)

    def test_loaded_weights_own_their_memory(self, tmp_path):
        # a view into the loader's float copy of the blob would keep all of
        # it alive beside the stacked weights
        config = small_config()
        path = tmp_path / "m"
        save_model(path, config, random_init(config, 1, 0.2))
        _, weights, _ = load_model(path)
        assert all(m.base is None for m in vars(weights).values())

    def test_same_seed_same_bytes(self, tmp_path):
        config = small_config()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_model(p1, config, random_init(config, 9, 0.2), seed=9)
        save_model(p2, config, random_init(config, 9, 0.2), seed=9)
        assert p1.read_bytes() == p2.read_bytes()
        assert model_fingerprint(p1) == model_fingerprint(p2)

    def test_truncated_blob_rejected(self, tmp_path):
        config = small_config()
        path = tmp_path / "m"
        save_model(path, config, random_init(config, 1, 0.2))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(InputError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        config = small_config()
        path = tmp_path / "m"
        save_model(path, config, random_init(config, 1, 0.2))
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(InputError):
            load_model(path)

    def test_non_model_file_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(InputError):
            load_model(path)

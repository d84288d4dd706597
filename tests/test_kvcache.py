"""Cache retention, eviction, and attend-from-cache equivalence tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazykv.errors import ContractViolation
from lazykv.kvcache import (
    CachePolicy,
    LayerCache,
    attend_from_cache,
    kept_positions_for,
)
from lazykv.model import ModelConfig, ln, mha_forward, project_qkv, random_init
from lazykv.numerics import masked_row_softmax

from oracles import MaskSpec


def kept_oracle(total, w_sink, w_recent):
    sink = set(range(min(w_sink, total)))
    recent = set(range(max(0, total - w_recent), total))
    return sorted(sink | recent)


def fill_cache(cache, rng, t):
    ks = np.stack([rng.standard_normal((t, cache.d_key)) for _ in range(cache.n_heads)])
    xs = rng.standard_normal((t, cache.d_model))
    cache.append(ks, xs)
    return ks, xs


class TestAppendAndEvict:
    def test_under_capacity_keeps_everything(self):
        rng = np.random.default_rng(0)
        cache = LayerCache(1, 2, 3, CachePolicy.streaming(4, 8))
        for _ in range(10):
            fill_cache(cache, rng, 1)
        assert cache.kept_positions.tolist() == list(range(10))
        assert cache.size == 10

    def test_streaming_4_8_at_20_tokens(self):
        rng = np.random.default_rng(1)
        cache = LayerCache(2, 2, 3, CachePolicy.streaming(4, 8))
        for _ in range(20):
            fill_cache(cache, rng, 1)
        assert cache.kept_positions.tolist() == kept_oracle(20, 4, 8)
        assert cache.size == 12

    def test_full_keeps_all(self):
        rng = np.random.default_rng(2)
        cache = LayerCache(1, 2, 2, CachePolicy.full())
        for _ in range(20):
            fill_cache(cache, rng, 1)
        assert cache.size == 20
        assert cache.kept_positions.tolist() == list(range(20))

    def test_width_mismatch_rejected(self):
        cache = LayerCache(1, 2, 3, CachePolicy.full())
        with pytest.raises(ContractViolation):
            cache.append(np.zeros((1, 1, 5)), np.zeros((1, 3)))
        with pytest.raises(ContractViolation):
            cache.append(np.zeros((1, 1, 2)), np.zeros((1, 4)))
        with pytest.raises(ContractViolation):  # one input row for two tokens
            cache.append(np.zeros((1, 2, 2)), np.zeros((1, 3)))
        with pytest.raises(ContractViolation):  # two heads of keys for one
            cache.append(np.zeros((2, 1, 2)), np.zeros((1, 3)))
        with pytest.raises(ContractViolation):  # one head's rows, not stacked
            cache.append(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_evicted_rows_are_the_right_ones(self):
        rng = np.random.default_rng(3)
        cache = LayerCache(1, 2, 2, CachePolicy.streaming(2, 3))
        rows_k, rows_x = [], []
        for _ in range(9):
            ks, xs = fill_cache(cache, rng, 1)
            rows_k.append(ks[0][0])
            rows_x.append(xs[0])
        kept = cache.kept_positions.tolist()
        assert kept == kept_oracle(9, 2, 3)
        for slot, pos in enumerate(kept):
            assert np.array_equal(cache.keys(0)[slot], rows_k[pos])
            assert np.array_equal(cache.inputs()[slot], rows_x[pos])


class TestTransfer:
    def test_streaming_defaults_at_2048(self):
        # default windows: 4 sinks + 1020 recent
        rng = np.random.default_rng(4)
        cache = LayerCache(1, 2, 2, CachePolicy.full())
        fill_cache(cache, rng, 2048)
        cache.transfer_to_streaming(4, 1020)
        kept = cache.kept_positions
        assert kept.tolist() == kept_oracle(2048, 4, 1020)
        assert kept.tolist()[:4] == [0, 1, 2, 3]
        assert kept[4] == 1028 and kept[-1] == 2047
        assert cache.size == 1024

    def test_short_input_drops_nothing(self):
        rng = np.random.default_rng(5)
        cache = LayerCache(1, 2, 2, CachePolicy.full())
        fill_cache(cache, rng, 10)
        cache.transfer_to_streaming(4, 8)
        assert cache.size == 10

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        cache = LayerCache(1, 2, 2, CachePolicy.full())
        fill_cache(cache, rng, 50)
        cache.transfer_to_streaming(2, 5)
        kept = cache.kept_positions.tolist()
        keys = cache.keys(0).copy()
        cache.transfer_to_streaming(2, 5)
        assert cache.kept_positions.tolist() == kept
        assert np.array_equal(cache.keys(0), keys)


    @pytest.mark.parametrize("prompt", [20, 6])
    def test_decode_appends_reuse_the_streaming_buffers(self, prompt):
        # 20 rows evict on transfer, 6 rows fit the 2 + 5 window
        w_sink, w_recent = 2, 5
        rng = np.random.default_rng(7)
        cache = LayerCache(2, 3, 4, CachePolicy.full())
        fill_cache(cache, rng, prompt)
        before = cache._k, cache._x
        cache.transfer_to_streaming(w_sink, w_recent)
        buffers = cache._k, cache._x
        if prompt > w_sink + w_recent:
            assert buffers[0].shape[1] == buffers[1].shape[0] == w_sink + w_recent
        else:
            assert buffers[0] is before[0] and buffers[1] is before[1]
        for _ in range(3 * w_recent):
            fill_cache(cache, rng, 1)
            assert cache._k is buffers[0] and cache._x is buffers[1]
        assert cache.size == w_sink + w_recent


class TestAttendFromCache:
    def make_model(self, seed, n_heads=2, scaling="inv_sqrt_dk"):
        config = ModelConfig(
            n_layers=1, n_heads=n_heads, d_model=4, d_head=3,
            vocab_size=5, ln_mode="rms", logit_scaling=scaling,
        )
        return config, random_init(config, seed, 0.6)

    def project_and_fill(self, config, weights, x, policy):
        x_norm = ln(x, config.ln_mode)
        qs, ks = project_qkv(x_norm, weights, 0)
        cache = LayerCache(config.n_heads, config.d_head, config.d_model, policy)
        cache.append(ks, x_norm)
        return cache, qs

    def test_full_cache_equals_causal_mha(self):
        config, weights = self.make_model(7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((9, config.d_model))
        cache, qs = self.project_and_fill(config, weights, x, CachePolicy.full())
        out = attend_from_cache(cache, qs, weights.w_v[0], config)
        expect = mha_forward(ln(x, config.ln_mode), weights, 0, config)
        assert np.allclose(out, expect, atol=1e-12, rtol=0)

    def test_streaming_without_eviction_equals_full(self):
        config, weights = self.make_model(9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, config.d_model))
        cache, qs = self.project_and_fill(
            config, weights, x, CachePolicy.streaming(4, 8)
        )
        out = attend_from_cache(cache, qs, weights.w_v[0], config)
        expect = mha_forward(ln(x, config.ln_mode), weights, 0, config)
        assert np.allclose(out, expect, atol=1e-12, rtol=0)

    def test_streaming_matches_masked_softmax_oracle(self):
        config, weights = self.make_model(11, scaling="none")
        rng = np.random.default_rng(12)
        n, w_sink, w_recent = 64, 2, 8
        x = rng.standard_normal((n, config.d_model))
        x_norm = ln(x, config.ln_mode)
        qs, ks = project_qkv(x_norm, weights, 0)
        vs = np.matmul(x_norm, weights.w_v[0])
        cache = LayerCache(config.n_heads, config.d_head, config.d_model,
                           CachePolicy.streaming(w_sink, w_recent))
        cache.append(ks, x_norm)
        kept = kept_oracle(n, w_sink, w_recent)
        n_q = len(kept)
        out = attend_from_cache(cache, qs[:, n - n_q:], weights.w_v[0], config)

        # brute force: each query row attends over kept positions <= its own
        expect = np.zeros((n_q, config.d_model))
        for h in range(config.n_heads):
            for row, pos in enumerate(range(n - n_q, n)):
                allowed = [p for p in kept if p <= pos]
                scores = np.array([qs[h][pos] @ ks[h][p] for p in allowed])
                e = np.exp(scores - scores.max())
                probs = e / e.sum()
                for w, p in zip(probs, allowed):
                    expect[row] += w * vs[h][p]
        assert np.allclose(out, expect, atol=1e-10)

    def test_empty_cache_rejected(self):
        config, weights = self.make_model(13)
        cache = LayerCache(config.n_heads, config.d_head, config.d_model, CachePolicy.full())
        with pytest.raises(ContractViolation):
            attend_from_cache(cache, np.zeros((config.n_heads, 1, 3)), weights.w_v[0], config)

    def test_query_with_no_visible_rows_rejected(self):
        config, weights = self.make_model(14)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((12, config.d_model))
        x_norm = ln(x, config.ln_mode)
        qs, ks = project_qkv(x_norm, weights, 0)
        cache = LayerCache(config.n_heads, config.d_head, config.d_model,
                           CachePolicy.streaming(0, 3))
        cache.append(ks, x_norm)
        # earliest query sits at position 4 < first kept position 9
        with pytest.raises(ContractViolation):
            attend_from_cache(cache, qs[:, -8:], weights.w_v[0], config)

    def test_value_stack_of_the_wrong_shape_rejected(self):
        config, weights = self.make_model(16)
        x = np.random.default_rng(17).standard_normal((5, config.d_model))
        cache, qs = self.project_and_fill(config, weights, x, CachePolicy.full())
        for w_v in (weights.w_v[0, :1], weights.w_v[0, :, :2], weights.w_v[0, 0]):
            with pytest.raises(ContractViolation):
                attend_from_cache(cache, qs, w_v, config)


class TestProperties:
    def test_streaming_never_exceeds_window_budget(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            w_sink = int(rng.integers(0, 5))
            w_recent = int(rng.integers(1, 9))
            cache = LayerCache(1, 2, 2, CachePolicy.streaming(w_sink, w_recent))
            total = 0
            for _ in range(rng.integers(1, 12)):
                t = int(rng.integers(1, 7))
                fill_cache(cache, rng, t)
                total += t
                kept = cache.kept_positions
                assert cache.size <= w_sink + w_recent
                assert cache.size == min(total, len(kept_oracle(total, w_sink, w_recent)))
                assert kept.tolist() == sorted(set(kept.tolist()))
                assert kept.tolist() == kept_oracle(total, w_sink, w_recent)
                assert (kept >= 0).all() and (kept < total).all()

    def test_window_is_path_independent(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(0, 15))
            w_sink, w_recent = int(rng.integers(0, 4)), int(rng.integers(1, 7))

            a = LayerCache(1, 2, 2, CachePolicy.full())
            fill_cache(a, np.random.default_rng(99), n)
            a.transfer_to_streaming(w_sink, w_recent)
            b = LayerCache(1, 2, 2, CachePolicy.streaming(w_sink, w_recent))
            fill_cache(b, np.random.default_rng(99), n)
            for step_rng in (np.random.default_rng(100),):
                for _ in range(k):
                    row_k = step_rng.standard_normal((1, 1, 2))
                    row_x = step_rng.standard_normal((1, 2))
                    a.append(row_k.copy(), row_x.copy())
                    b.append(row_k, row_x)
            assert a.kept_positions.tolist() == b.kept_positions.tolist()
            assert np.array_equal(a.keys(0), b.keys(0))
            assert np.array_equal(a.inputs(), b.inputs())


@st.composite
def cache_script(draw):
    """Random multi-row appends on a full or streaming cache, with an
    optional transfer of a full cache to streaming before some append."""
    w_recent = draw(st.integers(1, 6))
    return dict(
        n_heads=draw(st.integers(1, 3)),
        d_value=draw(st.integers(1, 5)),
        w_sink=draw(st.integers(0, 4)),
        w_recent=w_recent,
        streaming=draw(st.booleans()),
        appends=draw(st.lists(st.integers(1, 2 * w_recent + 3), min_size=1, max_size=10)),
        transfer_at=draw(st.integers(0, 10)),
        logit_scaling=draw(st.sampled_from(["none", "inv_sqrt_dk"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def check_against_appended_rows(cache, all_k, all_x, w_v, rng, logit_scaling):
    """Contents in position order equal the appended rows, and attention
    matches a masked-softmax oracle over explicit per-head values
    V_h = X W_V,h of those rows, for n_q = 1 and n_q > 1."""
    total = cache.total_seen
    pol = cache.policy
    if pol.kind == "streaming":
        kept = kept_positions_for(total, pol.w_sink, pol.w_recent)
    else:
        kept = np.arange(total)
    assert np.array_equal(cache.kept_positions, kept)
    assert cache.size == kept.size
    assert np.array_equal(cache.inputs(), all_x[kept])
    for h in range(cache.n_heads):
        assert np.array_equal(cache.keys(h), all_k[h][kept])

    config = ModelConfig(
        n_layers=1, n_heads=cache.n_heads, d_model=cache.d_model, d_head=cache.d_key,
        vocab_size=2, logit_scaling=logit_scaling,
    )
    scale = config.score_scale
    # every query position must see some kept row at or before it
    for n_q in sorted({1, total - int(kept[0])}):
        qs = np.stack([rng.standard_normal((n_q, cache.d_key)) for _ in range(cache.n_heads)])
        q_pos = np.arange(total - n_q, total)
        mask = MaskSpec.lazy_set([np.flatnonzero(kept <= p) for p in q_pos])
        allowed = mask.bool_matrix(n_q, kept.size)
        scores = [(qs[h] @ all_k[h][kept].T) * scale for h in range(cache.n_heads)]
        expect = sum(
            masked_row_softmax(scores[h], allowed) @ (all_x[kept] @ w_v[h])
            for h in range(cache.n_heads)
        )
        got = attend_from_cache(cache, qs, w_v, config)
        assert got.shape == (n_q, w_v.shape[2])
        assert np.allclose(got, expect, atol=1e-12, rtol=0)


@settings(max_examples=60, deadline=None)
@given(cache_script())
def test_random_appends_keep_the_window_contents(script):
    rng = np.random.default_rng(script["seed"])
    d_key, d_model, n_heads = 2, 4, script["n_heads"]
    w_sink, w_recent = script["w_sink"], script["w_recent"]
    policy = (
        CachePolicy.streaming(w_sink, w_recent) if script["streaming"] else CachePolicy.full()
    )
    cache = LayerCache(n_heads, d_key, d_model, policy)
    w_v = rng.standard_normal((n_heads, d_model, script["d_value"]))
    all_k = np.empty((n_heads, 0, d_key))
    all_x = np.empty((0, d_model))
    for i, t in enumerate(script["appends"] + [0]):
        if i == script["transfer_at"] and not script["streaming"]:
            cache.transfer_to_streaming(w_sink, w_recent)
            if cache.total_seen:
                check_against_appended_rows(
                    cache, all_k, all_x, w_v, rng, script["logit_scaling"]
                )
        if t == 0:
            break
        ks, xs = fill_cache(cache, rng, t)
        all_k = np.concatenate([all_k, ks], axis=1)
        all_x = np.concatenate([all_x, xs])
        check_against_appended_rows(cache, all_k, all_x, w_v, rng, script["logit_scaling"])


@settings(max_examples=80, deadline=None)
@given(
    n_rows=st.integers(0, 40),
    w_sink=st.integers(0, 4),
    w_recent=st.integers(1, 8),
    streaming=st.booleans(),
    transfer_at=st.one_of(st.none(), st.integers(0, 40)),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_row_appends_equal_one_bulk_append(
    n_rows, w_sink, w_recent, streaming, transfer_at, seed
):
    """Rows appended one at a time (the decode path) leave the same held
    rows, in the same storage slots, as the same rows in one bulk append;
    a full cache may switch to streaming after ``transfer_at`` rows, on
    both sides alike, and the ring wraps once it holds w_recent rows."""
    rng = np.random.default_rng(seed)
    n_heads, d_key, d_model = 2, 3, 4
    keys = rng.standard_normal((n_heads, n_rows, d_key))
    xs = rng.standard_normal((n_rows, d_model))
    policy = CachePolicy.streaming(w_sink, w_recent) if streaming else CachePolicy.full()
    one, bulk = (LayerCache(n_heads, d_key, d_model, policy) for _ in range(2))
    cut = n_rows if transfer_at is None else min(transfer_at, n_rows)
    for lo, hi in ((0, cut), (cut, n_rows)):
        for i in range(lo, hi):
            one.append(keys[:, i : i + 1], xs[i : i + 1])
        bulk.append(keys[:, lo:hi], xs[lo:hi])
        if lo == 0 and transfer_at is not None:
            one.transfer_to_streaming(w_sink, w_recent)
            bulk.transfer_to_streaming(w_sink, w_recent)
        assert one.total_seen == bulk.total_seen == hi
        assert one.size == bulk.size
        for got, expect in zip(one.held(), bulk.held()):
            assert np.array_equal(got, expect)
        assert np.array_equal(one.kept_positions, bulk.kept_positions)

"""Lazy-ratio computations and priority-queue layer selection."""

import numpy as np
import pytest

from lazykv.errors import ContractViolation
from lazykv.lazydetect import (
    DetectParams,
    IdentifierState,
    kept_query_positions,
    lazy_ratio_bruteforce,
    lazy_ratio_lse,
    lse_log_ratios,
)
from lazykv.numerics import MaskSpec, masked_row_logsumexp, masked_row_softmax


def kept_oracle(q, w_sink, w_recent):
    return sorted(set(range(min(w_sink, q + 1))) | set(range(max(0, q - w_recent + 1), q + 1)))


def causal_attention_weights(qs, ks, scale=1.0):
    """Explicit per-head causal softmax matrices."""
    out = []
    for q, k in zip(qs, ks):
        scores = (q @ k.T) * scale
        out.append(masked_row_softmax(scores, MaskSpec.causal()))
    return np.stack(out)


def double_sum_oracle(weights_hnn, params):
    """Head-average, then kept-set sums per trailing query row."""
    h, n, _ = weights_hnn.shape
    mean = weights_hnn.mean(axis=0)
    m = min(params.w_last, n)
    total = 0.0
    for q in range(n - m, n):
        kept = kept_oracle(q, params.w_sink, params.w_recent)
        total += sum(mean[q, j] for j in kept)
    return total / m


class TestKeptQueryPositions:
    def test_matches_set_arithmetic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = int(rng.integers(0, 40))
            w_sink = int(rng.integers(0, 6))
            w_recent = int(rng.integers(1, 9))
            got = kept_query_positions(q, w_sink, w_recent).tolist()
            assert got == kept_oracle(q, w_sink, w_recent)


class TestBruteForce:
    def test_short_input_ratio_is_one(self):
        # window covers the whole prompt, so nothing is ever outside kept
        rng = np.random.default_rng(1)
        a = causal_attention_weights(
            [rng.standard_normal((6, 3))], [rng.standard_normal((6, 3))]
        )
        params = DetectParams(w_last=4, w_sink=2, w_recent=6)
        assert abs(lazy_ratio_bruteforce(a, params) - 1.0) <= 1e-12

    def test_uniform_single_query(self):
        # equal logits over 8 keys; keep {0} + {5,6,7} -> mass 4/8
        a = np.full((1, 8, 8), 0.0)
        a[0] = masked_row_softmax(np.zeros((8, 8)), MaskSpec.causal())
        params = DetectParams(w_last=1, w_sink=1, w_recent=3)
        assert abs(lazy_ratio_bruteforce(a, params) - 0.5) <= 1e-12

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(2)
        qs = [rng.standard_normal((32, 4)) for _ in range(2)]
        ks = [rng.standard_normal((32, 4)) for _ in range(2)]
        a = causal_attention_weights(qs, ks)
        params = DetectParams(w_last=8, w_sink=2, w_recent=5)
        got = lazy_ratio_bruteforce(a, params)
        assert abs(got - double_sum_oracle(a, params)) <= 1e-12


def causal_tail_lse(qs, ks, w_last, scale=1.0):
    """Full-causal logsumexp rows for the trailing queries, via numerics."""
    n = ks[0].shape[0]
    m = min(w_last, n)
    out = []
    for q, k in zip(qs, ks):
        scores = (q[n - m :] @ k.T) * scale
        sets = [list(range(n - m + j + 1)) for j in range(m)]
        out.append(masked_row_logsumexp(scores, MaskSpec.lazy_set(sets)))
    return out


def loop_log_ratios(q_last, keys, lse, params, scale=1.0):
    """Reference: score each (head, trailing row) pair's kept set on its own."""
    n = keys[0].shape[0]
    m = q_last[0].shape[0]
    out = np.empty((len(q_last), m))
    for h in range(len(q_last)):
        for j in range(m):
            kept = kept_query_positions(n - m + j, params.w_sink, params.w_recent)
            scores = (q_last[h][j] @ keys[h][kept].T) * scale
            top = scores.max()
            out[h, j] = top + np.log(np.exp(scores - top).sum()) - lse[h][j]
    return out


class TestLseRatio:
    @pytest.mark.parametrize("scale", [1.0, 0.25])
    def test_gathered_block_matches_loop_reference(self, scale):
        rng = np.random.default_rng(6)
        for trial in range(40):
            n = int(rng.integers(1, 120))
            h = int(rng.integers(1, 4))
            dk = int(rng.integers(1, 6))
            qs = [rng.standard_normal((n, dk)) * 2 for _ in range(h)]
            ks = [rng.standard_normal((n, dk)) * 2 for _ in range(h)]
            params = DetectParams(
                w_last=int(rng.integers(1, 40)),
                w_sink=int(rng.integers(0, 6)),
                w_recent=int(rng.integers(1, 60)),
            )
            m = min(params.w_last, n)
            lse = causal_tail_lse(qs, ks, params.w_last, scale)
            q_last = [q[n - m :] for q in qs]
            got = lse_log_ratios(q_last, ks, lse, params, scale)
            expect = loop_log_ratios(q_last, ks, lse, params, scale)
            assert np.allclose(got, expect, atol=1e-12, rtol=0)
            # head-stacked arrays give the same answer as per-head lists
            stacked = lse_log_ratios(np.stack(q_last), np.stack(ks), np.stack(lse), params, scale)
            assert np.array_equal(stacked, got)

    def test_kept_equals_full_set_gives_one(self):
        rng = np.random.default_rng(3)
        qs = [rng.standard_normal((6, 3))]
        ks = [rng.standard_normal((6, 3))]
        params = DetectParams(w_last=3, w_sink=3, w_recent=6)
        lse = causal_tail_lse(qs, ks, params.w_last)
        q_last = [q[-3:] for q in qs]
        logs = lse_log_ratios(q_last, ks, lse, params)
        assert np.allclose(np.exp(logs), 1.0, atol=1e-12)
        assert abs(lazy_ratio_lse(q_last, ks, lse, params) - 1.0) <= 1e-12

    def test_equal_scores_half_kept(self):
        # one head, one query, zero scores, kept 4 of 8: exp(log 4 - log 8)
        qs = [np.zeros((8, 2))]
        ks = [np.zeros((8, 2))]
        params = DetectParams(w_last=1, w_sink=1, w_recent=3)
        lse = causal_tail_lse(qs, ks, 1)
        r = lazy_ratio_lse([q[-1:] for q in qs], ks, lse, params)
        assert abs(r - 0.5) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_matches_bruteforce(self, scale):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            h = int(rng.integers(1, 4))
            dk = int(rng.integers(1, 5))
            qs = [rng.standard_normal((n, dk)) * 2 for _ in range(h)]
            ks = [rng.standard_normal((n, dk)) * 2 for _ in range(h)]
            params = DetectParams(
                w_last=int(rng.integers(1, 9)),
                w_sink=int(rng.integers(0, 4)),
                w_recent=int(rng.integers(1, 8)),
            )
            brute = lazy_ratio_bruteforce(causal_attention_weights(qs, ks, scale), params)
            lse = causal_tail_lse(qs, ks, params.w_last, scale)
            q_last = [q[n - min(params.w_last, n) :] for q in qs]
            viaLse = lazy_ratio_lse(q_last, ks, lse, params, scale)
            assert abs(viaLse - brute) <= 1e-10

    def test_log_ratios_are_nonpositive(self):
        rng = np.random.default_rng(5)
        qs = [rng.standard_normal((16, 3)) * 3 for _ in range(2)]
        ks = [rng.standard_normal((16, 3)) * 3 for _ in range(2)]
        params = DetectParams(w_last=5, w_sink=1, w_recent=4)
        lse = causal_tail_lse(qs, ks, 5)
        logs = lse_log_ratios([q[-5:] for q in qs], ks, lse, params)
        ratios = np.exp(logs)
        assert ((ratios > 0) & (ratios <= 1.0 + 1e-12)).all()

    def test_head_count_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            lse_log_ratios(
                [np.zeros((1, 2))], [np.zeros((4, 2))] * 2, [np.zeros(1)],
                DetectParams(w_last=1, w_sink=1, w_recent=2),
            )


class TestIdentifierQueue:
    def test_capacity_equals_layers_never_pops(self):
        state = IdentifierState(capacity=4, n_layers=4)
        for i, r in enumerate([0.9, 0.2, 0.8, 0.1]):
            assert state.push(i, r) is None
        full, lazy = state.finalize()
        assert full == [0, 1, 2, 3] and lazy == []

    def test_hand_simulated_pop_sequence(self):
        state = IdentifierState(capacity=2, n_layers=4)
        pops = [state.push(i, r) for i, r in enumerate([0.9, 0.2, 0.8, 0.1])]
        assert pops == [None, None, 0, 2]
        full, lazy = state.finalize()
        assert full == [1, 3] and lazy == [0, 2]

    def test_capacity_zero_pops_every_push(self):
        state = IdentifierState(capacity=0, n_layers=3)
        assert [state.push(i, 0.5) for i in range(3)] == [0, 1, 2]
        full, lazy = state.finalize()
        assert full == [] and lazy == [0, 1, 2]

    def test_equal_ratios_pop_deeper_layers(self):
        state = IdentifierState(capacity=2, n_layers=4)
        for i in range(4):
            state.push(i, 0.7)
        full, lazy = state.finalize()
        assert lazy == [2, 3] and full == [0, 1]

    def test_duplicate_push_rejected(self):
        state = IdentifierState(capacity=2, n_layers=4)
        state.push(1, 0.5)
        with pytest.raises(ContractViolation):
            state.push(1, 0.6)

    def test_early_finalize_rejected(self):
        state = IdentifierState(capacity=1, n_layers=3)
        state.push(0, 0.2)
        with pytest.raises(ContractViolation):
            state.finalize()

    def test_selection_matches_sort_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            L = int(rng.integers(1, 12))
            P = int(rng.integers(0, L + 1))
            ratios = np.round(rng.uniform(0, 1, size=L), 2)  # rounding forces ties
            state = IdentifierState(capacity=P, n_layers=L)
            for i in range(L):
                state.push(i, float(ratios[i]))
                assert state.queued_count <= P or (P == 0 and state.queued_count <= 1)
            full, lazy = state.finalize()
            oracle_full = sorted(sorted(range(L), key=lambda i: (ratios[i], i))[:P])
            assert full == oracle_full
            assert len(lazy) == L - P
            assert sorted(full + lazy) == list(range(L))

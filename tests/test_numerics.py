"""Oracle tests for the masked softmax primitives and the attention kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazykv.errors import ContractViolation
from lazykv.numerics import (
    MaskSpec,
    attend,
    frobenius_norm,
    masked_row_softmax,
    row_2inf_norm,
)

from oracles import masked_row_logsumexp


def explicit_masked_softmax(scores, allowed_sets):
    """Unstabilized direct exp/normalize, row by row."""
    out = np.zeros_like(scores)
    for i, allowed in enumerate(allowed_sets):
        e = np.exp(scores[i, allowed])
        out[i, allowed] = e / e.sum()
    return out


class TestMaskedRowSoftmax:
    def test_zero_scores_causal_uniform(self):
        n = 5
        probs = masked_row_softmax(np.zeros((n, n)), MaskSpec.causal())
        for i in range(n):
            assert np.allclose(probs[i, : i + 1], 1.0 / (i + 1), atol=1e-15)
            assert np.all(probs[i, i + 1 :] == 0.0)

    def test_single_allowed_entry_is_one(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((4, 6))
        mask = MaskSpec.lazy_set([[2], [0], [5], [3]])
        probs = masked_row_softmax(scores, mask)
        expect = np.zeros((4, 6))
        for i, j in enumerate([2, 0, 5, 3]):
            expect[i, j] = 1.0
        assert np.array_equal(probs, expect)

    def test_matches_explicit_oracle_causal(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((6, 6)) * 3
        probs = masked_row_softmax(scores, MaskSpec.causal())
        oracle = explicit_masked_softmax(scores, [list(range(i + 1)) for i in range(6)])
        assert np.allclose(probs, oracle, atol=1e-12, rtol=0)

    def test_matches_explicit_oracle_lazy_sets(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((8, 8)) * 2
        sets = []
        for i in range(8):
            size = rng.integers(1, i + 2)
            sets.append(sorted(rng.choice(i + 1, size=size, replace=False).tolist()))
        probs = masked_row_softmax(scores, MaskSpec.lazy_set(sets))
        assert np.allclose(probs, explicit_masked_softmax(scores, sets), atol=1e-12, rtol=0)

    def test_rows_sum_to_one_over_allowed(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            scores = rng.standard_normal((n, n)) * rng.uniform(0.1, 20)
            probs = masked_row_softmax(scores, MaskSpec.causal())
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12, rtol=0)
            assert np.isfinite(probs).all()

    def test_empty_allowed_row_raises(self):
        with pytest.raises(ContractViolation):
            masked_row_softmax(np.zeros((2, 2)), MaskSpec.lazy_set([[0], []]))

    def test_extreme_scores_stay_finite(self):
        scores = np.array([[1e4, -1e4, 0.0], [5e3, 5e3, 5e3]])
        mask = MaskSpec.lazy_set([[0, 1, 2], [0, 1, 2]])
        probs = masked_row_softmax(scores, mask)
        assert np.isfinite(probs).all()
        assert np.allclose(probs.sum(axis=1), 1.0)


def per_row_bool_matrix(allowed_sets, n_rows, n_cols):
    """Reference lazy_set mask, one row at a time; raises as the rows come."""
    out = np.zeros((n_rows, n_cols), dtype=bool)
    for i, s in enumerate(allowed_sets):
        idx = np.unique(np.asarray(s, dtype=np.int64))
        if idx.size == 0:
            raise ContractViolation(f"row {i} has an empty allowed set")
        if idx.min() < 0 or idx.max() >= n_cols:
            raise ContractViolation(
                f"row {i} allowed indices out of range for {n_cols} columns"
            )
        out[i, idx] = True
    return out


@st.composite
def lazy_set_case(draw):
    """Row sets over n_cols columns, now and then empty or out of range."""
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    bad_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    sets = []
    for _ in range(n_rows):
        if draw(st.floats(0, 1)) < bad_rate:
            sets.append(draw(st.sampled_from([
                [], [-1], [n_cols], [0, -3], [n_cols - 1, n_cols + 2],
            ])))
        else:
            sets.append(draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=8)))
    return sets, n_rows, n_cols


class TestLazySetBoolMatrix:
    @settings(max_examples=200, deadline=None)
    @given(lazy_set_case())
    def test_matches_per_row_reference(self, case):
        sets, n_rows, n_cols = case
        try:
            expect = per_row_bool_matrix(sets, n_rows, n_cols)
        except ContractViolation as exc:
            # the same error, naming the same (first) bad row
            with pytest.raises(ContractViolation) as got:
                MaskSpec.lazy_set(sets).bool_matrix(n_rows, n_cols)
            assert str(got.value) == str(exc)
        else:
            got = MaskSpec.lazy_set(sets).bool_matrix(n_rows, n_cols)
            assert got.dtype == bool and np.array_equal(got, expect)

    @pytest.mark.parametrize(
        "sets, message",
        [
            ([[0], [9], []], "row 1 allowed indices out of range for 3 columns"),
            ([[0], [], [9]], "row 1 has an empty allowed set"),
            ([[-1, 0], [0]], "row 0 allowed indices out of range for 3 columns"),
        ],
    )
    def test_first_bad_row_is_named(self, sets, message):
        with pytest.raises(ContractViolation, match=f"^{message}$"):
            MaskSpec.lazy_set(sets).bool_matrix(len(sets), 3)

    def test_row_count_must_match(self):
        with pytest.raises(ContractViolation):
            MaskSpec.lazy_set([[0], [0]]).bool_matrix(3, 3)


class TestMaskedRowLogsumexp:
    def test_single_entry_returns_score(self):
        scores = np.array([[3.5, -1.0], [0.0, 2.25]])
        lse = masked_row_logsumexp(scores, MaskSpec.lazy_set([[0], [1]]))
        assert np.array_equal(lse, [3.5, 2.25])

    def test_uniform_zero_scores_give_log_n(self):
        n = 7
        lse = masked_row_logsumexp(np.zeros((n, n)), MaskSpec.causal())
        assert np.allclose(lse, np.log(np.arange(1, n + 1)), atol=1e-14)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal((5, 9)) * 4
        sets = [sorted(rng.choice(9, size=rng.integers(1, 9), replace=False).tolist()) for _ in range(5)]
        lse = masked_row_logsumexp(scores, MaskSpec.lazy_set(sets))
        oracle = np.array([np.log(np.exp(scores[i, s]).sum()) for i, s in enumerate(sets)])
        assert np.allclose(lse, oracle, atol=1e-12, rtol=0)

    def test_subset_mass_identity(self):
        # exp(lse over subset - lse over full set) is the subset's softmax mass
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(2, 16))
            scores = rng.standard_normal((1, n)) * rng.uniform(0.5, 8)
            full = list(range(n))
            size = int(rng.integers(1, n + 1))
            subset = sorted(rng.choice(n, size=size, replace=False).tolist())
            lse_full = masked_row_logsumexp(scores, MaskSpec.lazy_set([full]))[0]
            lse_sub = masked_row_logsumexp(scores, MaskSpec.lazy_set([subset]))[0]
            probs = masked_row_softmax(scores, MaskSpec.lazy_set([full]))
            assert abs(np.exp(lse_sub - lse_full) - probs[0, subset].sum()) <= 1e-10


class TestNorms:
    def test_frobenius_zero(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_frobenius_3_4_5(self):
        assert frobenius_norm([[3.0, 4.0]]) == 5.0

    def test_frobenius_matches_elementwise_oracle(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((4, 4))
        oracle = np.sqrt(sum(m[i, j] ** 2 for i in range(4) for j in range(4)))
        assert abs(frobenius_norm(m) - oracle) <= 1e-12

    def test_row_2inf_zero(self):
        assert row_2inf_norm(np.zeros((2, 5))) == 0.0

    def test_row_2inf_hand_case(self):
        assert row_2inf_norm([[1.0, 0.0], [0.0, 2.0]]) == 2.0

    def test_row_2inf_matches_per_row_oracle(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 3))
        oracle = max(np.sqrt((m[i] ** 2).sum()) for i in range(6))
        assert abs(row_2inf_norm(m) - oracle) <= 1e-12


def test_operations_are_pure():
    rng = np.random.default_rng(10)
    scores = rng.standard_normal((6, 6))
    mask = MaskSpec.causal()
    assert np.array_equal(
        masked_row_softmax(scores, mask), masked_row_softmax(scores.copy(), mask)
    )
    assert np.array_equal(
        masked_row_logsumexp(scores, mask), masked_row_logsumexp(scores.copy(), mask)
    )
    # the exp runs in place on a copy; the caller's scores are left alone
    before = scores.copy()
    masked_row_softmax(scores, mask)
    masked_row_logsumexp(scores, mask)
    assert np.array_equal(scores, before)
    q, k, v = (rng.standard_normal((2, 5, 3)) for _ in range(3))
    pos = np.arange(5)
    first = attend(q, k, 0.5, pos, pos, v)
    again = attend(q.copy(), k.copy(), 0.5, pos.copy(), pos.copy(), v.copy())
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


@st.composite
def attend_case(draw):
    """Queries at chosen positions over held keys in shuffled or ring order.

    Every query position is held, so each query sees at least itself.
    """
    total = draw(st.integers(1, 40))
    n_q = draw(st.sampled_from([1, draw(st.integers(1, total))]))
    q_pos = np.arange(total - n_q, total)
    if draw(st.booleans()):  # a random earlier subset, then a shuffle
        older = draw(st.sets(st.integers(0, max(total - n_q - 1, 0)), max_size=30))
        k_pos = np.array(sorted(older.union(q_pos.tolist())), dtype=np.int64)
        k_pos = k_pos[np.random.default_rng(draw(st.integers(0, 2**16))).permutation(k_pos.size)]
    else:  # a streaming cache's slots: sinks in place, the recent window a ring
        w_sink, w_recent = draw(st.integers(0, 4)), draw(st.integers(n_q, n_q + 8))
        k_pos = np.arange(total)
        k_pos = k_pos[(k_pos < w_sink) | (k_pos >= total - w_recent)]
        slot = np.where(k_pos < w_sink, k_pos, w_sink + (k_pos - w_sink) % w_recent)
        k_pos = k_pos[np.argsort(slot)]
    if n_q == 1 and draw(st.booleans()):
        q_pos = None  # the newest query: every key visible, no positions given
    keep = None
    if q_pos is not None and draw(st.booleans()):
        keep = (draw(st.integers(0, 4)), draw(st.integers(1, 10)))
    h, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    v_kind = draw(st.sampled_from(["none", "shared", "stacked"]))
    scale = draw(st.sampled_from([1.0, 0.5, 1.7]))
    spread = draw(st.sampled_from([0.1, 1.0, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.standard_normal((h, n_q, d)) * spread
    k = rng.standard_normal((h, k_pos.size, d)) * spread
    v = {
        "none": None,
        "shared": rng.standard_normal((k_pos.size, draw(st.integers(1, 5)))),
        "stacked": rng.standard_normal((h, k_pos.size, draw(st.integers(1, 5)))),
    }[v_kind]
    return q, k, scale, q_pos, k_pos, v, keep


class TestAttend:
    @settings(max_examples=300, deadline=None)
    @given(attend_case())
    def test_matches_mask_spec_oracles(self, case):
        q, k, scale, q_pos, k_pos, v, keep = case
        out, lse = attend(q, k, scale, q_pos, k_pos, v, keep)
        sets = []
        for i in range(q.shape[1]):
            seen = np.ones(k_pos.size, dtype=bool)
            if q_pos is not None:
                seen = k_pos <= q_pos[i]
            if keep is not None:
                seen &= (k_pos < keep[0]) | (k_pos > q_pos[i] - keep[1])
            sets.append(np.flatnonzero(seen))
        mask = MaskSpec.lazy_set(sets)
        assert out is None if v is None else out.shape[:2] == q.shape[:2]
        for h in range(q.shape[0]):
            scores = (q[h] @ k[h].T) * scale
            assert np.allclose(lse[h], masked_row_logsumexp(scores, mask), atol=1e-12, rtol=0)
            if v is not None:
                expect = masked_row_softmax(scores, mask) @ (v if v.ndim == 2 else v[h])
                assert np.allclose(out[h], expect, atol=1e-12, rtol=0)

    @pytest.mark.parametrize(
        "q_pos, k_pos, keep",
        [
            ([2], [5, 7], None),  # every key is newer than the query
            ([4, 9], [5, 7], None),  # the first query sees neither key
            ([10], [3, 4], (1, 2)),  # older keys outside the window, no sinks
        ],
    )
    def test_query_that_sees_no_key_rejected(self, q_pos, k_pos, keep):
        q_pos, k_pos = np.array(q_pos), np.array(k_pos)
        q, k = np.zeros((2, q_pos.size, 3)), np.zeros((2, k_pos.size, 3))
        with pytest.raises(ContractViolation, match="no allowed positions"):
            attend(q, k, 1.0, q_pos, k_pos, keep=keep)

    def test_shape_mismatches_rejected(self):
        q, k = np.zeros((2, 1, 3)), np.zeros((2, 4, 3))
        pos = np.arange(4)
        for args in [
            (q[:1], k, 1.0),  # head counts differ: would broadcast in matmul
            (q, k[..., :2], 1.0),  # key width differs
            (q, k[:, :0], 1.0),  # no keys at all
            (q, k, 1.0, pos[3:], pos[:3]),  # key positions miscounted
        ]:
            with pytest.raises(ContractViolation):
                attend(*args)
        for v in (np.zeros((3, 5)), np.zeros((1, 4, 5))):
            with pytest.raises(ContractViolation):
                attend(q, k, 1.0, v=v)
        with pytest.raises(ContractViolation):  # a window needs query positions
            attend(q, k, 1.0, keep=(1, 2))

"""Oracle tests for the dense linear-algebra and masked softmax kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazykv.errors import ContractViolation
from lazykv.numerics import (
    MaskSpec,
    frobenius_norm,
    masked_row_softmax,
    matmul,
    row_2inf_norm,
)

from oracles import masked_row_logsumexp


def triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def explicit_masked_softmax(scores, allowed_sets):
    """Unstabilized direct exp/normalize, row by row."""
    out = np.zeros_like(scores)
    for i, allowed in enumerate(allowed_sets):
        e = np.exp(scores[i, allowed])
        out[i, allowed] = e / e.sum()
    return out


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 5))
        assert np.array_equal(matmul(np.eye(3), m), m)

    def test_hand_checked_2x2(self):
        out = matmul([[1, 2], [3, 4]], [[0], [1]])
        assert np.array_equal(out, [[2], [4]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        assert np.allclose(matmul(a, b), triple_loop_matmul(a, b), atol=1e-12, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))


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
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    assert np.array_equal(matmul(a, b), matmul(a.copy(), b.copy()))

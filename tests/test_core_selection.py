"""Tests for the proxy-selection pipeline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProxySelector, selection, solvers
from repro.core.selection import _dedup_columns
from repro.errors import SelectionError
from repro.obs.trace import Tracer

from helpers import dedup_columns_oracle


def _toggle_problem(n=600, m=120, k=6, seed=0, noise=0.02):
    """Binary toggle features; power = weighted sum of k of them."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, m)) < rng.uniform(0.1, 0.6, size=m)).astype(np.uint8)
    support = rng.choice(m, size=k, replace=False)
    w = rng.uniform(2.0, 6.0, size=k)
    y = X[:, support] @ w + 1.0 + noise * rng.standard_normal(n)
    return X, y, support, w


def test_selects_requested_q():
    X, y, support, _w = _toggle_problem()
    for q in (3, 6, 12):
        res = ProxySelector().select(X, y, q)
        assert res.q == q
        assert np.all(np.diff(res.proxies) > 0)  # sorted, unique


def test_true_signals_found_first():
    X, y, support, _w = _toggle_problem()
    res = ProxySelector().select(X, y, 6)
    assert set(support.tolist()) == set(res.proxies.tolist())


def test_constant_columns_pruned():
    X, y, support, _w = _toggle_problem()
    X = X.copy()
    X[:, 0] = 1
    X[:, 1] = 0
    res = ProxySelector().select(X, y, 6)
    assert 0 not in res.proxies and 1 not in res.proxies
    assert res.n_after_constant == X.shape[1] - 2


def test_duplicate_columns_collapsed():
    X, y, support, _w = _toggle_problem()
    X = X.copy()
    dup_src = int(support[0])
    # a column identical to a true signal
    free = [j for j in range(X.shape[1]) if j not in set(support)][0]
    X[:, free] = X[:, dup_src]
    res = ProxySelector().select(X, y, 6)
    chosen = set(res.proxies.tolist())
    # only one of the duplicate pair may appear
    assert not ({dup_src, free} <= chosen)
    assert res.n_after_dedup < res.n_after_constant


def test_screening_keeps_true_support():
    X, y, support, _w = _toggle_problem(m=300)
    res = ProxySelector(screen_width=50).select(X, y, 6)
    assert res.n_after_screen <= 50
    assert set(support.tolist()) == set(res.proxies.tolist())


def test_candidate_ids_mapping():
    X, y, support, _w = _toggle_problem()
    ids = np.arange(X.shape[1]) * 10 + 7
    res = ProxySelector().select(X, y, 6, candidate_ids=ids)
    assert set(res.proxies.tolist()) == {s * 10 + 7 for s in support}


def test_lasso_penalty_variant():
    X, y, support, _w = _toggle_problem()
    res = ProxySelector(penalty="lasso").select(X, y, 6)
    assert res.penalty == "lasso"
    assert res.q == 6


def test_invalid_penalty_rejected():
    with pytest.raises(SelectionError):
        ProxySelector(penalty="ridge")


def test_q_out_of_range():
    X, y, _s, _w = _toggle_problem()
    with pytest.raises(SelectionError):
        ProxySelector().select(X, y, 0)
    with pytest.raises(SelectionError):
        ProxySelector().select(X, y, X.shape[1] + 1)


def test_too_few_nonconstant_candidates():
    X = np.zeros((100, 10), dtype=np.uint8)
    X[:, 0] = np.arange(100) % 2
    y = X[:, 0] * 3.0
    with pytest.raises(SelectionError):
        ProxySelector().select(X, y, 5)


def test_path_nnz_recorded_monotonish():
    X, y, _s, _w = _toggle_problem()
    res = ProxySelector().select(X, y, 10)
    assert res.path_nnz
    lams = [l for l, _ in res.path_nnz]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    # q=10 exceeds the true sparsity (6); the residual-correlation
    # fallback still delivers exactly q proxies.
    assert res.q == 10


def test_deterministic():
    X, y, _s, _w = _toggle_problem()
    r1 = ProxySelector().select(X, y, 8)
    r2 = ProxySelector().select(X, y, 8)
    np.testing.assert_array_equal(r1.proxies, r2.proxies)
    np.testing.assert_allclose(r1.temp_weights, r2.temp_weights)


def test_dedup_negative_zero_and_nan_columns_collapse():
    """Float dedup hashes canonicalized bytes: -0.0 == +0.0 and NaNs with
    different payloads are the same column."""
    base = np.array([0.5, 0.0, 1.25, 2.0])
    neg = base.copy()
    neg[1] = -0.0
    nan_a = base.copy()
    nan_a[2] = np.float64(np.nan)
    # A NaN with a different payload, same everywhere else.
    nan_b = nan_a.copy()
    nan_b[2] = np.frombuffer(
        np.uint64(0x7FF8000000000001).tobytes(), dtype=np.float64
    )[0]
    distinct = base + 1.0
    X = np.stack([base, neg, nan_a, nan_b, distinct], axis=1)
    reps = _dedup_columns(X)
    assert list(reps) == [0, 2, 4]


def test_dedup_float_distinct_columns_kept():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 8))
    X[:, 5] = X[:, 2]  # exact duplicate
    reps = _dedup_columns(X)
    assert list(reps) == [0, 1, 2, 3, 4, 6, 7]


# --------------------------------------------------------------------- #
# the array-code front end matches per-element reference loops
# --------------------------------------------------------------------- #
#: float32 bit patterns: both zeros, NaNs with different payloads and
#: signs, and plain values.  Patterns in one class compare equal as
#: features, so their columns must collapse together.
_F32_CLASSES = (
    (0x00000000, 0x80000000),
    (0x7FC00000, 0x7FC00001, 0xFFC00000, 0x7F800001),
    (0x3F800000,),
    (0xBFC00000,),
)


@st.composite
def _dedup_matrices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 24)), draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["uint8", "binary-float", "float32",
                                 "float64"]))
    if kind in ("uint8", "binary-float"):
        dtype = np.uint8 if kind == "uint8" else np.float32
        X = rng.integers(0, 2, size=(n, m)).astype(dtype)
        for j in range(1, m):  # exact duplicates of earlier columns
            if rng.random() < 0.3:
                X[:, j] = X[:, rng.integers(0, j)]
        return X
    cls = rng.integers(0, len(_F32_CLASSES), size=(n, m))
    for j in range(1, m):  # equal columns, often with other bytes
        if rng.random() < 0.3:
            cls[:, j] = cls[:, rng.integers(0, j)]
    bits = np.array(
        [[rng.choice(_F32_CLASSES[k]) for k in row] for row in cls],
        dtype=np.uint32,
    ).reshape(n, m)
    with np.errstate(invalid="ignore"):  # signaling NaN widened
        return bits.view(np.float32).astype(kind)


@given(_dedup_matrices())
@settings(max_examples=200, deadline=None)
def test_dedup_matches_per_column_loop(X):
    got = _dedup_columns(X)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, dedup_columns_oracle(X))


def test_dedup_counts_uint8_like_its_float32_cast():
    # Selection hands uint8 toggles to dedup uncast, so non-binary
    # uint8 columns must group exactly like their float32 cast: bit
    # packing would merge a 2 with a 1.
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(12, 40), dtype=np.uint8)
    X[:, 7] = np.where(X[:, 3] > 0, 3 - X[:, 3], 0)  # same nonzero mask
    np.testing.assert_array_equal(
        _dedup_columns(X), dedup_columns_oracle(X.astype(np.float32))
    )


def _select_bytes(X, y, q, penalty, ids):
    res = ProxySelector(penalty=penalty, screen_width=128).select(
        X, y, q, candidate_ids=ids
    )
    return (
        res.proxies.tobytes(), res.temp_weights.tobytes(),
        np.float64(res.temp_intercept).tobytes(),
        np.float64(res.lam).tobytes(),
        np.asarray(res.path_nnz, dtype=np.float64).tobytes(),
        (res.n_after_constant, res.n_after_dedup, res.n_after_screen),
    )


@pytest.mark.parametrize("penalty", ["mcp", "lasso"])
def test_select_matches_per_element_front_end(small_train, penalty):
    # The benchmark's selection (the bench core's toggles, screen width
    # 128) against a reference front end: float32 constant pruning,
    # the per-column dedup loop and the Python CD loop.
    X = small_train.features()
    y, ids = small_train.labels, small_train.candidate_ids
    assert X.dtype == np.uint8
    for q in (4, 24):
        got = _select_bytes(X, y, q, penalty, ids)
        with mock.patch.object(solvers, "load_cd_kernel", lambda: None), \
                mock.patch.object(selection, "_dedup_columns",
                                  dedup_columns_oracle):
            want = _select_bytes(X.astype(np.float32), y, q, penalty, ids)
        assert got == want, q


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_rejected_before_screening(bad):
    X, y, _s, _w = _toggle_problem()
    y_bad = y.copy()
    y_bad[11] = bad
    X_bad = X.astype(np.float64)
    X_bad[5, 3] = bad
    for args in ((X, y_bad), (X_bad, y)):
        tracer = Tracer()
        with pytest.raises(SelectionError, match="finite"):
            ProxySelector(tracer=tracer).select(*args, 3)
        assert tracer.find("select.constant") == []

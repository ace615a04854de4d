"""Tests for coordinate descent (MCP/Lasso/elastic net) and ridge."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coordinate_descent, lambda_max, lambda_path, ridge_fit
from repro.core import solvers
from repro.core.solvers import precompute, Standardizer
from repro.errors import PowerModelError
from repro.obs.trace import Tracer
from repro.rtl.backends import cc


def _sparse_problem(n=400, m=60, k=5, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, m)).astype(np.float64)
    w_true = np.zeros(m)
    support = rng.choice(m, size=k, replace=False)
    w_true[support] = rng.uniform(2.0, 5.0, size=k)
    y = X @ w_true + 1.5 + noise * rng.standard_normal(n)
    return X, y, w_true, support


def test_lambda_max_zeroes_everything():
    X, y, _w, _s = _sparse_problem()
    fit = coordinate_descent(
        X, y, lam=lambda_max(*_standardized(X, y)) * 1.01, penalty="lasso"
    )
    assert fit.n_nonzero == 0


def _standardized(X, y):
    std = Standardizer(X)
    return std.transform(X), y - y.mean()


def test_lambda_path_is_decreasing():
    path = lambda_path(1.0, n=10)
    assert np.all(np.diff(path) < 0)
    with pytest.raises(PowerModelError):
        lambda_path(0.0)


@pytest.mark.parametrize("penalty", ["mcp", "lasso", "elasticnet"])
def test_support_recovery(penalty):
    X, y, w_true, support = _sparse_problem()
    fit = coordinate_descent(X, y, lam=0.3, penalty=penalty)
    assert fit.converged
    got = set(fit.nonzero.tolist())
    assert set(support.tolist()) <= got
    # not wildly dense
    assert len(got) < 25


def test_mcp_weights_nearly_unbiased_lasso_shrunk():
    """Fig. 13's mechanism: at equal lambda, MCP keeps large weights."""
    X, y, w_true, support = _sparse_problem(noise=0.01)
    lam = 0.4
    w_mcp = coordinate_descent(X, y, lam=lam, penalty="mcp").weights
    w_lasso = coordinate_descent(X, y, lam=lam, penalty="lasso").weights
    err_mcp = np.abs(w_mcp[support] - w_true[support]).mean()
    err_lasso = np.abs(w_lasso[support] - w_true[support]).mean()
    assert err_mcp < err_lasso
    assert np.abs(w_mcp).sum() > np.abs(w_lasso).sum()


def test_warm_start_converges_faster():
    X, y, _w, _s = _sparse_problem()
    pre = precompute(X, y)
    cold = coordinate_descent(X, y, lam=0.3, _precomputed=pre)
    warm = coordinate_descent(
        X, y, lam=0.25, warm_start=cold.weights_std, _precomputed=pre
    )
    assert warm.converged
    assert warm.n_iter <= cold.n_iter + 5


def test_prediction_quality():
    X, y, _w, _s = _sparse_problem(noise=0.01)
    fit = coordinate_descent(X, y, lam=0.1, penalty="mcp")
    p = fit.predict(X)
    resid = np.sqrt(((y - p) ** 2).mean())
    assert resid < 0.2


def test_intercept_recovered():
    X, y, _w, _s = _sparse_problem(noise=0.0)
    fit = coordinate_descent(X, y, lam=0.05, penalty="mcp")
    assert fit.intercept == pytest.approx(1.5, abs=0.3)


def test_constant_columns_never_selected():
    X, y, _w, _s = _sparse_problem()
    X[:, 0] = 1.0
    X[:, 1] = 0.0
    fit = coordinate_descent(X, y, lam=0.2, penalty="mcp")
    assert 0 not in fit.nonzero
    assert 1 not in fit.nonzero


def test_shape_validation():
    with pytest.raises(PowerModelError):
        coordinate_descent(np.zeros((5, 3)), np.zeros(4), lam=0.1)
    with pytest.raises(PowerModelError):
        coordinate_descent(np.zeros((1, 3)), np.zeros(1), lam=0.1)
    with pytest.raises(PowerModelError):
        coordinate_descent(
            np.random.rand(10, 3), np.random.rand(10), lam=0.1,
            penalty="bogus",
        )


def test_ridge_matches_lstsq_at_tiny_lambda():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((200, 8))
    w_true = rng.standard_normal(8)
    y = X @ w_true + 0.7
    w, b = ridge_fit(X, y, lam=1e-10)
    np.testing.assert_allclose(w, w_true, atol=1e-6)
    assert b == pytest.approx(0.7, abs=1e-6)


def test_ridge_shrinks_with_lambda():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((100, 5))
    y = X @ np.ones(5)
    w_small, _ = ridge_fit(X, y, lam=1e-6)
    w_big, _ = ridge_fit(X, y, lam=10.0)
    assert np.abs(w_big).sum() < np.abs(w_small).sum()


def test_ridge_no_intercept():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((100, 4))
    y = X @ np.array([1.0, 2.0, 3.0, 4.0])
    w, b = ridge_fit(X, y, lam=1e-9, fit_intercept=False)
    assert b == 0.0
    np.testing.assert_allclose(w, [1, 2, 3, 4], atol=1e-5)


def test_ridge_shape_validation():
    with pytest.raises(PowerModelError):
        ridge_fit(np.zeros((4, 2)), np.zeros(5))


def test_converged_flag_reset_each_iteration():
    """Stale-flag regression: a *tentative* active-set convergence must
    not survive into the result when the confirming full sweep still
    moves weights and the iteration budget runs out."""
    rng = np.random.default_rng(9)
    n, m = 80, 30
    X = rng.standard_normal((n, m))
    # Strongly correlated columns make the active set miss coordinates,
    # so active-set sweeps stall below tol while full sweeps still move.
    X[:, 1] = X[:, 0] * 0.98 + 0.02 * X[:, 1]
    w_true = np.zeros(m)
    w_true[[0, 3, 5]] = [2.0, -1.5, 1.0]
    y = X @ w_true + 0.2 * rng.standard_normal(n)

    res = coordinate_descent(X, y, lam=0.05, tol=1e-3, max_iter=5)
    assert res.n_iter == 5
    assert not res.converged

    # With budget to finish, the same problem genuinely converges: a
    # warm restart's first full sweep stays below tolerance.
    full = coordinate_descent(X, y, lam=0.05, tol=1e-3, max_iter=200)
    assert full.converged
    again = coordinate_descent(
        X, y, lam=0.05, tol=1e-3, max_iter=1, warm_start=full.weights_std
    )
    assert again.converged


# --------------------------------------------------------------------- #
# inputs are checked before the sweep (the C sweep cannot raise)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_rejected(bad):
    X, y, _w, _s = _sparse_problem()
    y_bad = y.copy()
    y_bad[7] = bad
    X_bad = X.copy()
    X_bad[3, 2] = bad
    for args in ((X, y_bad), (X_bad, y)):
        with pytest.raises(PowerModelError, match="finite"):
            precompute(*args)
        with pytest.raises(PowerModelError, match="finite"):
            coordinate_descent(*args, lam=0.1)


@pytest.mark.parametrize("max_iter", [0, 1])
def test_bad_solver_arguments_rejected_before_sweeping(max_iter):
    X, y, _w, _s = _sparse_problem(n=50, m=6)
    for kw in (
        {"penalty": "bogus"},
        {"penalty": "mcp", "gamma": 0.5},
        {"penalty": "mcp", "gamma": 1.0},
        {"penalty": "mcp", "lam": -0.1},
    ):
        args = {"lam": 0.1, **kw}
        with pytest.raises(PowerModelError):
            coordinate_descent(X, y, max_iter=max_iter, **args)


# --------------------------------------------------------------------- #
# C kernel / Python-loop fallback
# --------------------------------------------------------------------- #
needs_compiler = pytest.mark.skipif(
    cc.compiler() is None, reason="no C compiler on this host"
)


def _traced_fit(X, y, **kw):
    """Every output of one fit as bytes, residual history included."""
    tracer = Tracer()
    fit = coordinate_descent(X, y, tracer=tracer, **kw)
    (span,) = tracer.find("solver.cd")
    history = np.asarray(span.attrs["residual_history"], dtype=np.float64)
    return (
        fit.weights_std.tobytes(), fit.weights.tobytes(),
        np.float64(fit.intercept).tobytes(), fit.n_iter, fit.converged,
        history.tobytes(),
    )


@st.composite
def _cd_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        X = rng.integers(0, 2, size=(n, m)).astype(np.float64)
    else:
        X = rng.standard_normal((n, m))
    if m > 1 and draw(st.booleans()):  # a correlated pair
        X[:, 1] = 0.95 * X[:, 0] + 0.05 * X[:, 1]
    if draw(st.booleans()):  # a constant column
        X[:, draw(st.integers(0, m - 1))] = draw(st.sampled_from([0.0, 1.0]))
    y = X @ rng.standard_normal(m) + 0.1 * rng.standard_normal(n)
    std = Standardizer(X)
    lam_hi = max(lambda_max(std.transform(X), y - y.mean()), 1e-3)
    kw = {
        "penalty": draw(st.sampled_from(["mcp", "lasso", "elasticnet"])),
        "lam": lam_hi * draw(st.floats(1e-3, 1.2)),
        "gamma": draw(st.sampled_from([3.0, 10.0])),
        "alpha": draw(st.sampled_from([0.3, 0.9])),
        "max_iter": draw(st.sampled_from([0, 1, 200])),
        "tol": draw(st.sampled_from([1e-6, 1e-3])),
    }
    if draw(st.booleans()):  # NumPy scalars: both sweeps see doubles
        kw["lam"], kw["gamma"] = np.float32(kw["lam"]), np.float32(3.0)
    if draw(st.booleans()):
        # Warm starts with signed zeros: the sign bit of an untouched
        # zero weight must survive the sweep unchanged.
        pool = np.array([0.0, -0.0, 0.5, -1.25, 3.0])
        kw["warm_start"] = pool[rng.integers(0, pool.size, size=m)]
    if draw(st.booleans()):
        # A caller's Gram matrix need not be exactly symmetric: the
        # sweeps must read G's columns, never its rows.
        std, G, c, y_mean = precompute(X, y)
        G = G + 1e-9 * rng.standard_normal(G.shape)
        kw["_precomputed"] = (std, G, c, y_mean)
    return X, y, kw


@needs_compiler
@given(_cd_problems())
@settings(max_examples=200, deadline=None)
def test_c_kernel_matches_python_loop(problem):
    X, y, kw = problem
    assert solvers.load_cd_kernel() is not None
    native = _traced_fit(X, y, **kw)
    with mock.patch.object(solvers, "load_cd_kernel", lambda: None):
        loop = _traced_fit(X, y, **kw)
    assert native == loop


@needs_compiler
def test_cd_kernel_loads_and_python_loop_never_runs(monkeypatch):
    # Where a compiler exists the kernel must load: a C compile error
    # would otherwise fall back silently to the Python loop, 10-30x
    # slower per lambda path.
    assert solvers.load_cd_kernel() is not None

    def no_python_loop(*_args):
        raise AssertionError("Python CD loop ran despite a loaded kernel")

    monkeypatch.setattr(solvers, "_cd_numpy", no_python_loop)
    X, y, _w, support = _sparse_problem()
    for penalty in ("mcp", "lasso", "elasticnet"):
        fit = coordinate_descent(X, y, lam=0.3, penalty=penalty)
        assert set(support.tolist()) <= set(fit.nonzero.tolist())


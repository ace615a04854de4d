"""Penalized least-squares solvers: coordinate descent and ridge.

One engine covers MCP, Lasso, and elastic net — exactly the solver family
the paper's comparisons need (APOLLO vs Pagliari-Lasso vs Simmani's elastic
net).  Features are standardized internally (zero mean, unit variance), the
standard setting for sparsity-inducing penalties; fitted weights are mapped
back to the original feature scale and an intercept absorbs the centering.

For speed the solver uses *covariance updates*: after one pass computing
``G = X'X / N`` and ``c = X'y / N``, each coordinate step is O(M), making
warm-started lambda paths over thousands of candidates cheap.  An active-set
strategy (full sweeps only when the active set stabilizes) gives the usual
further speedup.  The sweeps of one lambda point run in a small C kernel
(compiled on first use through :mod:`repro.rtl.backends.cc`) that returns
the same bits as the NumPy loop it mirrors; the loop runs where no kernel
loads.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.errors import PowerModelError
from repro.obs.trace import NULL_TRACER
from repro.core.mcp import _check as _check_mcp, mcp_prox, soft_threshold
from repro.rtl.backends import cc

__all__ = [
    "CdResult",
    "coordinate_descent",
    "lambda_max",
    "lambda_path",
    "load_cd_kernel",
    "ridge_fit",
    "Standardizer",
]

_PENALTIES = ("mcp", "lasso", "elasticnet")


class Standardizer:
    """Column standardization that tolerates constant columns.

    Constant columns get scale 1 and end up with weight 0 (their centered
    values are identically zero), so they can never be selected — matching
    the intuition that a never/always-toggling signal carries no per-cycle
    information (the intercept absorbs it).
    """

    def __init__(self, X: np.ndarray) -> None:
        X = np.asarray(X, dtype=np.float64)
        self.mean = X.mean(axis=0)
        sd = X.std(axis=0)
        self.constant = sd <= 1e-12
        self.scale = np.where(self.constant, 1.0, sd)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.scale

    def unstandardize_weights(
        self, w_std: np.ndarray, y_mean: float
    ) -> tuple[np.ndarray, float]:
        """Map standardized-space weights to raw-space (weights, intercept)."""
        w = np.where(self.constant, 0.0, w_std / self.scale)
        intercept = float(y_mean - w @ self.mean)
        return w, intercept


@dataclass
class CdResult:
    """Result of one coordinate-descent fit (raw feature space)."""

    weights: np.ndarray
    intercept: float
    weights_std: np.ndarray
    lam: float
    n_iter: int
    converged: bool

    @property
    def nonzero(self) -> np.ndarray:
        return np.nonzero(self.weights_std != 0.0)[0]

    @property
    def n_nonzero(self) -> int:
        return int(np.count_nonzero(self.weights_std))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept


def _prox_update(
    z: np.ndarray, penalty: str, lam: float, gamma: float, alpha: float
) -> np.ndarray:
    if penalty == "mcp":
        return mcp_prox(z, lam, gamma)
    if penalty == "lasso":
        return soft_threshold(z, lam)
    if penalty == "elasticnet":
        return soft_threshold(z, lam * alpha) / (1.0 + lam * (1.0 - alpha))
    raise PowerModelError(f"unknown penalty {penalty!r}")


def lambda_max(Xs: np.ndarray, y_centered: np.ndarray) -> float:
    """Smallest lambda with an all-zero Lasso/MCP solution."""
    n = Xs.shape[0]
    return float(np.abs(Xs.T @ y_centered).max() / n)


def lambda_path(
    lam_hi: float, lam_lo_frac: float = 1e-3, n: int = 60
) -> np.ndarray:
    """Log-spaced decreasing lambda path."""
    if lam_hi <= 0:
        raise PowerModelError("lambda_max must be positive")
    return np.geomspace(lam_hi, lam_hi * lam_lo_frac, n)


def coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    penalty: str = "mcp",
    gamma: float = 10.0,
    alpha: float = 0.5,
    max_iter: int = 200,
    tol: float = 1e-6,
    warm_start: np.ndarray | None = None,
    _precomputed: tuple | None = None,
    tracer=None,
) -> CdResult:
    """Solve ``min_w 1/(2N) ||y - Xw - b||^2 + sum P(w_j)``.

    Parameters mirror the paper: ``gamma=10`` is the unpenalized-weight
    threshold used in §7.1; the regressor "converges within 200 iterations"
    — ``max_iter`` defaults accordingly.

    ``_precomputed`` lets the path driver share the standardizer and Gram
    matrix across lambda values.  With an enabled ``tracer`` each fit
    becomes a ``solver.cd`` span carrying the per-iteration residual
    (max coordinate delta) history alongside the convergence outcome.

    The sweeps run in the C kernel of :func:`load_cd_kernel` when it
    loads and in :func:`_cd_numpy` otherwise; both return the same bits.
    """
    tracer = tracer or NULL_TRACER
    # Both sweeps compute in IEEE doubles, whatever scalar type came in.
    lam, gamma, alpha, tol = float(lam), float(gamma), float(alpha), float(tol)
    if penalty not in _PENALTIES:
        raise PowerModelError(f"unknown penalty {penalty!r}")
    if penalty == "mcp":
        _check_mcp(lam, gamma)
    if _precomputed is None:
        _precomputed = precompute(X, y)
    std, G, c, y_mean = _precomputed
    m = G.shape[0]
    if G.shape != (m, m) or c.shape != (m,):
        raise PowerModelError(f"bad Gram shapes G{G.shape} c{c.shape}")

    w = (
        warm_start.astype(np.float64).copy()
        if warm_start is not None
        else np.zeros(m)
    )
    if w.shape != (m,):
        raise PowerModelError("warm_start has wrong shape")
    Gw = G @ w if w.any() else np.zeros(m)

    # Residual history is only materialized when tracing is on, so the
    # disabled-by-default path stays allocation-free.
    history: list[float] | None = [] if tracer.enabled else None
    with tracer.span(
        "solver.cd", penalty=penalty, lam=float(lam)
    ) as sp:
        kernel = load_cd_kernel()
        args = (G, c, w, Gw, penalty, lam, gamma, alpha, max_iter, tol,
                history)
        it, converged = (
            _cd_numpy(*args) if kernel is None else _cd_native(kernel, *args)
        )
        if sp:
            sp.set(
                n_iter=it,
                converged=converged,
                n_nonzero=int(np.count_nonzero(w)),
                residual_history=history,
            )

    weights, intercept = std.unstandardize_weights(w, y_mean)
    return CdResult(
        weights=weights,
        intercept=intercept,
        weights_std=w,
        lam=lam,
        n_iter=it,
        converged=converged,
    )


def _cd_numpy(
    G, c, w, Gw, penalty, lam, gamma, alpha, max_iter, tol, history
) -> tuple[int, bool]:
    """One lambda point's sweeps in NumPy, updating ``w`` and ``Gw`` in
    place: the fallback where no kernel loads, and the kernel's oracle.
    Returns ``(n_iter, converged)``."""
    m = G.shape[0]
    converged = False
    it = 0
    active: np.ndarray | None = None
    for it in range(1, max_iter + 1):
        # An active-set sweep below tolerance only *tentatively*
        # converges (pending the confirming full sweep), so the flag
        # must not survive into an iteration whose sweep still moves
        # weights.
        converged = False
        # Alternate full sweeps with active-set sweeps.
        full_sweep = active is None or (it % 10 == 1)
        idx = np.arange(m) if full_sweep else active
        max_delta = 0.0
        for j in idx:
            zj = c[j] - Gw[j] + w[j]
            wj_new = float(
                _prox_update(np.asarray(zj), penalty, lam, gamma, alpha)
            )
            delta = wj_new - w[j]
            if delta != 0.0:
                Gw += G[:, j] * delta
                w[j] = wj_new
                max_delta = max(max_delta, abs(delta))
        if history is not None:
            history.append(max_delta)
        if full_sweep:
            active = np.nonzero(w != 0.0)[0]
        if max_delta < tol:
            converged = True
            if full_sweep:
                break
            active = None  # confirm with one final full sweep
    return it, converged


#: :func:`_cd_numpy` in C, statement for statement: the same IEEE
#: operations on the same operands in the same order, so every weight,
#: the iteration count and the residual history come out bit-identical
#: (see DESIGN.md, "The solver kernel").  The prox mirrors
#: ``mcp_prox`` / ``soft_threshold`` including signed zeros:
#: ``np.sign(-0.0)`` is ``+0.0`` and ``-1.0 * 0.0`` is ``-0.0``.
#: ``fabs(z) - t`` is never ``-0.0``, so its clamp at zero returns
#: ``+0.0`` exactly as ``np.maximum(.., 0.0)`` does.  ``Gw`` takes column
#: ``j`` of ``G`` (never row ``j``: ``G`` need not be exactly symmetric),
#: copied into row ``j`` of the scratch ``Gt`` the first time coordinate
#: ``j`` moves and read contiguously after that.  A full transposed copy
#: would cost O(m^2) per lambda point, and a strided read on every move
#: misses cache once ``G`` outgrows it.
_CD_SOURCE = r"""
#include <math.h>
#include <stdint.h>

static double sign_of(double z) {
    return z > 0.0 ? 1.0 : (z < 0.0 ? -1.0 : (z == 0.0 ? 0.0 : z));
}

static double soft(double z, double t) {
    const double a = fabs(z) - t;
    return sign_of(z) * ((a > 0.0 || a != a) ? a : 0.0);
}

int64_t repro_cd_solve(
    const double *G, const double *c, double *w, double *Gw,
    int64_t *active, double *history, double *Gt, uint8_t *copied,
    double lam, double gamma, double alpha, double tol,
    int64_t m, int64_t max_iter, int64_t penalty, int64_t *converged) {
    const double mcp_edge = gamma * lam, mcp_div = 1.0 - 1.0 / gamma;
    const double en_t = lam * alpha, en_div = 1.0 + lam * (1.0 - alpha);
    int64_t it = 0, conv = 0, have_active = 0, n_active = 0;
    for (int64_t k = 1; k <= max_iter; k++) {
        it = k;
        conv = 0;
        const int full = !have_active || k % 10 == 1;
        const int64_t n = full ? m : n_active;
        double max_delta = 0.0;
        for (int64_t t = 0; t < n; t++) {
            const int64_t j = full ? t : active[t];
            const double z = c[j] - Gw[j] + w[j];
            double wj;
            if (penalty == 0)
                wj = fabs(z) <= mcp_edge ? soft(z, lam) / mcp_div : z;
            else if (penalty == 1)
                wj = soft(z, lam);
            else
                wj = soft(z, en_t) / en_div;
            const double delta = wj - w[j];
            if (delta != 0.0) {
                double *gj = Gt + j * m;
                if (!copied[j]) {
                    for (int64_t i = 0; i < m; i++) gj[i] = G[i * m + j];
                    copied[j] = 1;
                }
                for (int64_t i = 0; i < m; i++) Gw[i] += gj[i] * delta;
                w[j] = wj;
                const double ad = fabs(delta);
                if (ad > max_delta) max_delta = ad;
            }
        }
        if (history) history[k - 1] = max_delta;
        if (full) {
            n_active = 0;
            for (int64_t j = 0; j < m; j++)
                if (w[j] != 0.0) active[n_active++] = j;
            have_active = 1;
        }
        if (max_delta < tol) {
            conv = 1;
            if (full) break;
            have_active = 0;
        }
    }
    *converged = conv;
    return it;
}
"""


def load_cd_kernel():
    """The compiled ``repro_cd_solve`` entry point, or ``None``."""
    ptr, f64, i64 = ctypes.c_void_p, ctypes.c_double, ctypes.c_int64
    return cc.load(
        _CD_SOURCE, "repro_cd_solve",
        [ptr] * 8 + [f64] * 4 + [i64] * 3 + [ctypes.POINTER(i64)], i64,
    )


def _cd_native(
    kernel, G, c, w, Gw, penalty, lam, gamma, alpha, max_iter, tol, history
) -> tuple[int, bool]:
    """:func:`_cd_numpy` run by the loaded C ``kernel``."""
    m = w.shape[0]
    G = np.ascontiguousarray(G, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    active = np.empty(m, dtype=np.int64)
    Gt = np.empty(m * m)  # row j: column j of G, once coordinate j moves
    copied = np.zeros(m, dtype=np.uint8)
    hist = np.empty(max(max_iter, 0) if history is not None else 0)
    converged = ctypes.c_int64(0)
    it = kernel(
        cc._ptr(G), cc._ptr(c), cc._ptr(w), cc._ptr(Gw), cc._ptr(active),
        cc._ptr(hist), cc._ptr(Gt), cc._ptr(copied),
        lam, gamma, alpha, tol, m, max_iter, _PENALTIES.index(penalty),
        ctypes.byref(converged),
    )
    if history is not None:
        history.extend(hist[:it].tolist())
    return it, bool(converged.value)


def precompute(
    X: np.ndarray, y: np.ndarray
) -> tuple[Standardizer, np.ndarray, np.ndarray, float]:
    """Standardize and form the Gram matrix / correlation vector.

    Returns ``(std, G, c, y_mean)`` — exactly what the coordinate-
    descent hot path consumes.  The centered target is cheap to rebuild
    (``y - y_mean``) where a caller needs it (e.g. ``lambda_max``), so
    it is not carried in the tuple.  Non-finite ``X`` or ``y`` raises
    :class:`PowerModelError` here: the C sweep cannot raise.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise PowerModelError(
            f"bad shapes X{X.shape} y{y.shape} for regression"
        )
    n = X.shape[0]
    if n < 2:
        raise PowerModelError("need at least 2 samples")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise PowerModelError("X and y must be finite (no NaN or inf)")
    std = Standardizer(X)
    Xs = std.transform(X)
    y_mean = float(y.mean())
    G = (Xs.T @ Xs) / n
    c = (Xs.T @ (y - y_mean)) / n
    return std, G, c, y_mean


def ridge_fit(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = 1e-3,
    fit_intercept: bool = True,
) -> tuple[np.ndarray, float]:
    """Closed-form ridge regression (the relaxation step of §4.4).

    Returns raw-space ``(weights, intercept)``.  ``lam`` is relative to the
    standardized scale, "much weaker" than the selection penalty.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise PowerModelError("X and y disagree on sample count")
    n, m = X.shape
    if fit_intercept:
        xm = X.mean(axis=0)
        ym = float(y.mean())
        Xc = X - xm
        yc = y - ym
    else:
        xm = np.zeros(m)
        ym = 0.0
        Xc, yc = X, y
    A = (Xc.T @ Xc) / n + lam * np.eye(m)
    b = (Xc.T @ yc) / n
    w = np.linalg.solve(A, b)
    intercept = ym - float(w @ xm) if fit_intercept else 0.0
    return w, intercept

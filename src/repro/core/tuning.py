"""Validation-based hyper-parameter tuning (§7.1 of the paper).

"20% of the training data are selected to form a validation set for
parameter tuning."  The paper tunes the interval size tau this way
(Fig. 11: "results show that tau = 8 provides the best accuracy") and
adjusts the penalty strength lambda to control Q.  This module implements
those procedures for Q, tau, and the relaxation ridge strength.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PowerModelError
from repro.core.metrics import nrmse
from repro.core.model import train_apollo
from repro.core.multicycle import train_apollo_tau, window_average
from repro.core.selection import ProxySelector
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import drop_state, get_state, seed_state

__all__ = ["TuningResult", "tune_tau", "tune_q", "tune_ridge"]

#: Distinguishes concurrent grid payloads in the parent's state registry.
_TUNE_TOKEN = itertools.count()


def _grid_map(kind: str, payload: dict, task, values: list, workers: int):
    """Score every grid value via a WorkerPool (serial when workers<=1).

    The shared payload (split arrays, selections) ships to each worker
    once through the pool initializer; the parent seeds the same state
    so the serial path and any degraded fallback reuse its arrays.
    Scores come back in grid order — identical to the sequential loop.
    """
    key = ("tune", kind, next(_TUNE_TOKEN))
    seed_state(key, payload)
    try:
        with WorkerPool(
            workers, initializer=seed_state, initargs=(key, payload)
        ) as pool:
            vals = pool.map(
                task, [(key, v) for v in values], label=f"tune.{kind}"
            )
    finally:
        drop_state(key)
    return [float(v) for v in vals]


@dataclass
class TuningResult:
    """Outcome of one hyper-parameter sweep."""

    parameter: str
    best: object
    scores: list[tuple[object, float]] = field(default_factory=list)

    def score_of(self, value) -> float:
        for v, s in self.scores:
            if v == value:
                return s
        raise PowerModelError(f"value {value!r} not in sweep")


def _split(
    n: int, val_frac: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    if not (0 < val_frac < 1):
        raise PowerModelError("val_frac must be in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)
    n_val = max(1, int(n * val_frac))
    return np.sort(idx[n_val:]), np.sort(idx[:n_val])


def _block_split(
    n: int, val_frac: float, block: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous-block split: windowed models need unbroken cycles."""
    if not (0 < val_frac < 1):
        raise PowerModelError("val_frac must be in (0, 1)")
    n_blocks = max(2, n // block)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_blocks)
    n_val = max(1, int(n_blocks * val_frac))
    val_blocks = set(order[:n_val].tolist())
    val_idx, train_idx = [], []
    for b in range(n_blocks):
        lo = b * block
        hi = min(n, (b + 1) * block)
        (val_idx if b in val_blocks else train_idx).extend(range(lo, hi))
    return np.asarray(train_idx), np.asarray(val_idx)


def _tau_score(payload: dict, tau: int) -> float:
    """Validation NRMSE of one tau (runs in parent or worker)."""
    Xtr, ytr = payload["Xtr"], payload["ytr"]
    candidate_ids = payload["candidate_ids"]
    if tau == 1:
        model = train_apollo(
            Xtr, ytr, q=payload["q"], candidate_ids=candidate_ids,
            selector=ProxySelector(screen_width=None),
        )
    else:
        model = train_apollo_tau(
            Xtr, ytr, q=payload["q"], tau=tau,
            candidate_ids=candidate_ids,
            selector=ProxySelector(screen_width=None),
        )
    if candidate_ids is None:
        cols = model.proxies
    else:
        lookup = {int(c): i for i, c in enumerate(candidate_ids)}
        cols = np.asarray([lookup[int(p)] for p in model.proxies])
    p = model.predict_window(
        payload["Xva"][:, cols].astype(np.float64), payload["t_eval"]
    )
    return nrmse(payload["yw"], p)


def _tau_task(args) -> float:
    key, tau = args
    return _tau_score(get_state(key), tau)


def tune_tau(
    X: np.ndarray,
    y: np.ndarray,
    q: int,
    t_eval: int,
    tau_grid: list[int] | None = None,
    candidate_ids: np.ndarray | None = None,
    val_frac: float = 0.2,
    seed: int = 0,
    workers: int = 1,
) -> TuningResult:
    """Pick the interval size tau by validation NRMSE at window ``t_eval``.

    Mirrors the paper's procedure behind Fig. 11: train APOLLO_tau for
    each tau, evaluate T-cycle accuracy on held-out cycles, keep the best.
    The split is block-contiguous (windows must not straddle the split).
    Grid points are independent fits, so ``workers > 1`` scores them in
    parallel with identical results.
    """
    tau_grid = tau_grid or [1, 4, 8, 16, min(32, t_eval)]
    tau_grid = sorted({t for t in tau_grid if t <= t_eval})
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.float64)
    train_idx, val_idx = _block_split(
        X.shape[0], val_frac, block=8 * t_eval, seed=seed
    )
    Xva, yva = X[val_idx], y[val_idx]
    _xw, yw = window_average(
        np.zeros((yva.size, 1)), yva, t_eval
    )
    payload = {
        "Xtr": X[train_idx], "ytr": y[train_idx], "Xva": Xva, "yw": yw,
        "q": q, "t_eval": t_eval, "candidate_ids": candidate_ids,
    }
    vals = _grid_map("tau", payload, _tau_task, tau_grid, workers)
    scores = list(zip(tau_grid, vals))
    best = min(scores, key=lambda t: t[1])[0]
    return TuningResult(parameter="tau", best=best, scores=scores)


def _ridge_cols_score(payload: dict, cols: np.ndarray) -> float:
    """Validation NRMSE of one ridge fit on the given columns."""
    from repro.core.solvers import ridge_fit

    w, b = ridge_fit(
        np.asarray(payload["Xtr"], dtype=np.float64)[:, cols],
        payload["ytr"],
        lam=payload.get("lam", 1e-3),
    )
    p = (
        np.asarray(payload["Xva"], dtype=np.float64)[:, cols] @ w + b
    )
    return nrmse(payload["yva"], p)


def _q_task(args) -> float:
    key, cols = args
    return _ridge_cols_score(get_state(key), cols)


def tune_q(
    X: np.ndarray,
    y: np.ndarray,
    q_grid: list[int],
    candidate_ids: np.ndarray | None = None,
    val_frac: float = 0.2,
    seed: int = 0,
    knee_tolerance: float = 0.02,
    workers: int = 1,
) -> TuningResult:
    """Pick the smallest Q whose validation NRMSE is within
    ``knee_tolerance`` (absolute) of the best — the accuracy/cost knee
    that §3 describes Q as controlling.  The shared selection path runs
    once; the per-Q ridge scores fan out across ``workers``."""
    if not q_grid:
        raise PowerModelError("q_grid must be non-empty")
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.float64)
    train_idx, val_idx = _split(X.shape[0], val_frac, seed)
    Xtr, ytr = X[train_idx], y[train_idx]
    Xva, yva = X[val_idx], y[val_idx]

    selector = ProxySelector(screen_width=None)
    sels = selector.select_many(
        Xtr, ytr, sorted(set(q_grid)), candidate_ids=candidate_ids
    )
    q_vals = sorted(set(q_grid))
    cols_per_q = []
    for q_val in q_vals:
        sel = sels[q_val]
        if candidate_ids is None:
            cols = sel.proxies
        else:
            lookup = {int(c): i for i, c in enumerate(candidate_ids)}
            cols = np.asarray([lookup[int(p)] for p in sel.proxies])
        cols_per_q.append(cols)
    payload = {"Xtr": Xtr, "ytr": ytr, "Xva": Xva, "yva": yva}
    vals = _grid_map("q", payload, _q_task, cols_per_q, workers)
    scores = list(zip(q_vals, vals))
    best_score = min(s for _q, s in scores)
    best = next(
        q_val for q_val, s in scores if s <= best_score + knee_tolerance
    )
    return TuningResult(parameter="q", best=best, scores=scores)


def _ridge_task(args) -> float:
    key, lam = args
    payload = get_state(key)
    return _ridge_cols_score(
        dict(payload, lam=lam), payload["cols"]
    )


def tune_ridge(
    X: np.ndarray,
    y: np.ndarray,
    q: int,
    lam_grid: list[float] | None = None,
    candidate_ids: np.ndarray | None = None,
    val_frac: float = 0.2,
    seed: int = 0,
    workers: int = 1,
) -> TuningResult:
    """Pick the relaxation ridge strength by validation NRMSE.

    One shared selection, then independent per-lambda ridge fits scored
    across ``workers``.
    """
    lam_grid = lam_grid or [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.float64)
    train_idx, val_idx = _split(X.shape[0], val_frac, seed)
    Xtr, ytr = X[train_idx], y[train_idx]
    Xva, yva = X[val_idx], y[val_idx]
    sel = ProxySelector(screen_width=None).select(
        Xtr, ytr, q, candidate_ids=candidate_ids
    )
    if candidate_ids is None:
        cols = sel.proxies
    else:
        lookup = {int(c): i for i, c in enumerate(candidate_ids)}
        cols = np.asarray([lookup[int(p)] for p in sel.proxies])
    payload = {
        "Xtr": Xtr, "ytr": ytr, "Xva": Xva, "yva": yva, "cols": cols,
    }
    vals = _grid_map("ridge", payload, _ridge_task, lam_grid, workers)
    scores = list(zip(lam_grid, vals))
    best = min(scores, key=lambda t: t[1])[0]
    return TuningResult(parameter="ridge_lam", best=best, scores=scores)

"""Automatic power-proxy selection (§4.3 of the paper).

Pipeline, given per-cycle toggle features of all candidate RTL signals and
ground-truth power labels:

1. **constant pruning** — drop never/always-toggling signals;
2. **duplicate collapsing** — RTL is full of identical toggle columns
   (buffers, fanout copies); one representative survives per group;
3. **correlation screening** (optional, on by default) — keep the top-K
   candidates by absolute label correlation.  This is the standard
   sure-screening step that makes the dense solve tractable at netlist
   scale; K is generous relative to Q (documented in DESIGN.md);
4. **MCP path** — warm-started coordinate descent along a decreasing
   lambda path until at least Q weights are nonzero; the Q candidates with
   the largest standardized |weight| at the best path point become the
   power proxies.

The returned :class:`SelectionResult` records the surviving ids in the
*original* net-id space plus everything needed for diagnostics (path
history, duplicate groups, the temporary model's weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SelectionError
from repro.obs.trace import NULL_TRACER
from repro.core.solvers import (
    CdResult,
    coordinate_descent,
    lambda_max,
    lambda_path,
    precompute,
)

__all__ = ["ProxySelector", "SelectionResult"]


@dataclass
class SelectionResult:
    """Outcome of proxy selection.

    ``proxies`` are indices into the caller's candidate id space (net ids
    when called through the dataset layer).  ``temp_weights`` are the
    MCP-model weights of the selected proxies (the "temporary model" of
    §4.4, before relaxation), in raw feature scale.
    """

    proxies: np.ndarray
    temp_weights: np.ndarray
    temp_intercept: float
    lam: float
    penalty: str
    n_candidates_in: int
    n_after_constant: int
    n_after_dedup: int
    n_after_screen: int
    path_nnz: list[tuple[float, int]] = field(default_factory=list)

    @property
    def q(self) -> int:
        return int(self.proxies.size)


class ProxySelector:
    """Configurable selector; ``penalty`` switches MCP vs Lasso baselines."""

    def __init__(
        self,
        penalty: str = "mcp",
        gamma: float = 10.0,
        screen_width: int | None = 2400,
        max_iter: int = 200,
        seed: int = 0,
        tracer=None,
    ) -> None:
        if penalty not in ("mcp", "lasso"):
            raise SelectionError(
                f"selector supports 'mcp' or 'lasso', got {penalty!r}"
            )
        self.penalty = penalty
        self.gamma = gamma
        self.screen_width = screen_width
        self.max_iter = max_iter
        self.seed = seed
        self.tracer = tracer or NULL_TRACER

    # ------------------------------------------------------------------ #
    def select_many(
        self,
        X: np.ndarray,
        y: np.ndarray,
        q_list: list[int],
        candidate_ids: np.ndarray | None = None,
    ) -> dict[int, SelectionResult]:
        """Select proxies for several Q values sharing one lambda path.

        The warm-started path runs once until the largest Q is reached;
        each requested Q takes the first path point with enough nonzeros.
        Far cheaper than repeated :meth:`select` calls in Q sweeps
        (Figs. 10/12/13/15).
        """
        if not q_list:
            raise SelectionError("q_list must be non-empty")
        return self._select_impl(X, y, sorted(set(q_list)), candidate_ids)

    def select(
        self,
        X: np.ndarray,
        y: np.ndarray,
        q: int,
        candidate_ids: np.ndarray | None = None,
    ) -> SelectionResult:
        """Select ``q`` proxies from feature matrix ``X`` (N x M).

        ``candidate_ids`` maps columns of ``X`` to external ids (net ids);
        defaults to ``arange(M)``.
        """
        return self._select_impl(X, y, [q], candidate_ids)[q]

    def _select_impl(
        self,
        X: np.ndarray,
        y: np.ndarray,
        q_list: list[int],
        candidate_ids: np.ndarray | None,
    ) -> dict[int, SelectionResult]:
        X = np.asarray(X)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise SelectionError(
                f"bad shapes X{X.shape} y{y.shape}"
            )
        if not np.isfinite(y).all() or (
            np.issubdtype(X.dtype, np.inexact) and not np.isfinite(X).all()
        ):
            raise SelectionError("X and y must be finite (no NaN or inf)")
        m_in = X.shape[1]
        if candidate_ids is None:
            candidate_ids = np.arange(m_in, dtype=np.int64)
        candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
        if candidate_ids.shape != (m_in,):
            raise SelectionError("candidate_ids length mismatch")
        q_max = max(q_list)
        if min(q_list) <= 0 or q_max > m_in:
            raise SelectionError(
                f"q values {q_list} out of range for {m_in} candidates"
            )

        tracer = self.tracer

        # 1. constant pruning (toggle matrices stay uint8: every uint8
        # is exactly a float32, so every later step sees the same values)
        with tracer.span("select.constant", n_in=m_in) as sp:
            Xf = (
                X if X.dtype == np.uint8
                else X.astype(np.float32, copy=False)
            )
            col_min = Xf.min(axis=0)
            col_max = Xf.max(axis=0)
            live = col_max > col_min
            n_const = int(live.sum())
            if sp:
                sp.set(n_out=n_const)
        if n_const < q_max:
            raise SelectionError(
                f"only {n_const} non-constant candidates for q={q_max}"
            )
        keep = np.nonzero(live)[0]

        # 2. duplicate collapsing (one key per whole column)
        with tracer.span("select.dedup", n_in=n_const) as sp:
            keep = keep[_dedup_columns(Xf[:, keep])]
            n_dedup = keep.size
            if sp:
                sp.set(n_out=int(n_dedup))
        if n_dedup < q_max:
            raise SelectionError(
                f"only {n_dedup} distinct candidates for q={q_max}"
            )

        # 3. correlation screening
        with tracer.span("select.screen", n_in=int(n_dedup)) as sp:
            if (
                self.screen_width is not None
                and n_dedup > self.screen_width
            ):
                width = max(self.screen_width, 4 * q_max)
                corr = _abs_corr(Xf[:, keep], y)
                order = np.argsort(-corr, kind="stable")
                keep = keep[np.sort(order[:width])]
            n_screen = keep.size
            if sp:
                sp.set(n_out=int(n_screen))
        if n_screen < q_max:
            raise SelectionError(
                f"screening left {n_screen} candidates for q={q_max}"
            )

        # 4. MCP / Lasso path, shared by every requested Q.
        with tracer.span(
            "select.path",
            penalty=self.penalty,
            q_max=q_max,
            n_candidates=int(n_screen),
        ) as sp:
            Xd = Xf[:, keep].astype(np.float64)
            pre = precompute(Xd, y)
            std, _G, _c, y_mean = pre
            lam_hi = lambda_max(
                std.transform(Xd),
                np.asarray(y, dtype=np.float64) - y_mean,
            )
            path = lambda_path(lam_hi)

            warm = None
            path_nnz: list[tuple[float, int]] = []
            fits_for_q: dict[int, CdResult] = {}
            pending = sorted(q_list)
            last_fit: CdResult | None = None
            for lam in path:
                fit = coordinate_descent(
                    Xd,
                    y,
                    lam=float(lam),
                    penalty=self.penalty,
                    gamma=self.gamma,
                    max_iter=self.max_iter,
                    warm_start=warm,
                    _precomputed=pre,
                    tracer=tracer,
                )
                warm = fit.weights_std
                path_nnz.append((float(lam), fit.n_nonzero))
                last_fit = fit
                while pending and fit.n_nonzero >= pending[0]:
                    fits_for_q[pending.pop(0)] = fit
                if not pending:
                    break
            if sp:
                sp.set(
                    n_path_points=len(path_nnz),
                    final_nnz=(
                        last_fit.n_nonzero if last_fit is not None else 0
                    ),
                )
        if last_fit is None:
            raise SelectionError("empty lambda path")
        # Any q the path never reached uses the final (densest) fit with
        # residual-correlation padding.
        for q in pending:
            fits_for_q[q] = last_fit

        out: dict[int, SelectionResult] = {}
        for q in q_list:
            fit = fits_for_q[q]
            if fit.n_nonzero < q:
                # The path bottomed out below q (the label is genuinely
                # sparser than requested).  Pad with the candidates most
                # correlated with the current residual — the natural
                # greedy completion, keeping the exact-Q contract.
                resid = y - Xd @ fit.weights - fit.intercept
                resid_corr = _abs_corr(Xd, resid)
                resid_corr[fit.nonzero] = -np.inf
                need = q - fit.n_nonzero
                pad = np.argsort(-resid_corr, kind="stable")[:need]
                score = np.abs(fit.weights_std).astype(np.float64)
                # Padded columns rank below every selected one (tiny
                # positive scores) but above the remaining zeros,
                # preserving their residual-correlation order.
                score[pad] = (
                    need - np.arange(need, dtype=np.float64)
                ) * 1e-12
                order = np.argsort(-score, kind="stable")[:q]
            else:
                # Rank by standardized |weight| and keep exactly q.
                order = np.argsort(
                    -np.abs(fit.weights_std), kind="stable"
                )[:q]
            order = np.sort(order)
            out[q] = SelectionResult(
                proxies=candidate_ids[keep[order]],
                temp_weights=fit.weights[order],
                temp_intercept=fit.intercept,
                lam=fit.lam,
                penalty=self.penalty,
                n_candidates_in=m_in,
                n_after_constant=n_const,
                n_after_dedup=int(n_dedup),
                n_after_screen=int(n_screen),
                path_nnz=path_nnz,
            )
        return out


def _dedup_columns(X: np.ndarray) -> np.ndarray:
    """Indices of the first column of each group of equal columns, in
    column order.

    Binary toggle matrices compare bit-packed columns; real-valued
    matrices (the multi-cycle averaged features) compare raw float32
    column bytes.
    """
    if X.dtype == np.uint8:
        is_binary = X.max() <= 1
    else:
        is_binary = (
            X.min() >= 0 and X.max() <= 1
            and np.all(X == X.astype(np.uint8))
        )
    if is_binary:
        hashable = np.packbits(X.astype(np.uint8, copy=False), axis=0)
    else:
        # Comparing float bytes must first canonicalize values that
        # compare equal but differ in representation: -0.0 vs +0.0 and
        # NaNs with different payloads.
        hashable = X.astype(np.float32, copy=True)
        hashable[hashable == 0.0] = 0.0  # -0.0 -> +0.0
        hashable[np.isnan(hashable)] = np.float32("nan")
    # One opaque key per column; np.unique's stable sort returns each
    # group's first column.
    cols = np.ascontiguousarray(hashable.T)
    keys = cols.view(np.dtype((np.void, cols.shape[1] * cols.itemsize)))
    _, first = np.unique(keys.ravel(), return_index=True)
    return np.sort(first).astype(np.int64)


def _abs_corr(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|corr(x_j, y)| per column, 0 for constant columns."""
    Xc = X.astype(np.float64) - X.mean(axis=0, dtype=np.float64)
    yc = y - y.mean()
    sx = np.sqrt((Xc * Xc).sum(axis=0))
    sy = np.sqrt((yc * yc).sum())
    denom = sx * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.abs(Xc.T @ yc) / np.where(denom == 0, np.inf, denom)
    return corr

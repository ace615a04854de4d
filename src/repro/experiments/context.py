"""Shared, cached experiment pipeline.

An :class:`ExperimentContext` owns everything the experiments need for one
design preset ("n1" or "a77") at one scale:

* the built core;
* the GA micro-benchmark pool (Fig. 3);
* training/testing datasets (disk-cached ``.npz`` under ``.artifacts``);
* a *screened* candidate feature matrix shared by every method, so Q
  sweeps and method comparisons pay the unpack/screen cost once;
* trained models per (method, Q, tau), cached in memory.

Cache keys embed design, scale, the root seed and the netlist's content
hash; changing any of them regenerates cleanly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import GLOBAL_SEED, Scale, artifacts_dir, get_scale
from repro.core import (
    ApolloModel,
    ApolloTauModel,
    ProxySelector,
    train_apollo,
    train_apollo_tau,
)
from repro.core.selection import SelectionResult
from repro.core.solvers import ridge_fit
from repro.design import CoreDesign, build_core
from repro.errors import ExperimentError
from repro.genbench import (
    BenchmarkEvolver,
    GaConfig,
    GaResult,
    PowerDataset,
    build_testing_dataset,
    build_training_dataset,
)
from repro.uarch import A77_LIKE, M0_LIKE, N1_LIKE, CoreParams

__all__ = ["ExperimentContext"]

_DESIGNS: dict[str, CoreParams] = {
    "n1": N1_LIKE,
    "a77": A77_LIKE,
    "m0": M0_LIKE,
}


class ExperimentContext:
    """Lazy, cached pipeline for one (design, scale) pair."""

    def __init__(
        self,
        design: str = "n1",
        scale: Scale | str | None = None,
        seed: int = GLOBAL_SEED,
        cache_dir: Path | None = None,
        workers: int = 1,
        eval_cache=None,
    ) -> None:
        if design not in _DESIGNS:
            raise ExperimentError(
                f"unknown design {design!r} (choose from {sorted(_DESIGNS)})"
            )
        self.design = design
        self.scale = (
            scale if isinstance(scale, Scale) else get_scale(
                scale if isinstance(scale, str) else None
            )
        )
        self.seed = seed
        self.cache_dir = cache_dir or artifacts_dir()
        # Simulation fan-out width and content-addressed evaluation cache
        # (repro.parallel.EvalCache); both deterministic no-ops at the
        # defaults.  Results are bit-identical for any workers/cache
        # combination, so these are pure throughput knobs.
        self.workers = workers
        self.eval_cache = eval_cache
        self._core: CoreDesign | None = None
        self._ga: GaResult | None = None
        self._train: PowerDataset | None = None
        self._test: PowerDataset | None = None
        self._screened: tuple[np.ndarray, np.ndarray] | None = None
        self._models: dict[tuple, object] = {}
        self._selections: dict[tuple, dict[int, SelectionResult]] = {}
        self._gamma: float | None = None

    # ------------------------------------------------------------------ #
    def _key(self, kind: str) -> Path:
        # The netlist's content hash and the dataset generator version
        # are part of the key, so a structural change to the design (an
        # AND made an OR, a rewired fanin) or to the generator
        # invalidates caches.
        from repro.genbench.dataset import DATASET_VERSION

        fp = f"{self.core.netlist.fingerprint()[:16]}v{DATASET_VERSION}"
        tag = f"{self.design}-{self.scale.name}-{self.seed}-{fp}-{kind}"
        digest = hashlib.sha1(tag.encode()).hexdigest()[:10]
        return self.cache_dir / f"{tag}-{digest}.npz"

    @property
    def params(self) -> CoreParams:
        return _DESIGNS[self.design]

    @property
    def core(self) -> CoreDesign:
        if self._core is None:
            self._core = build_core(self.params)
        return self._core

    @property
    def design_scale_factor(self) -> int:
        """Proxy/screening budget multiplier for larger designs.

        The paper needs Q ~ 300 on Cortex-A77 versus ~150 on Neoverse N1
        — bigger designs need proportionally more proxies and a wider
        screen.  Normalized to the n1-like preset's size.
        """
        return max(1, round(self.core.n_nets / 12_000))

    @property
    def ga(self) -> GaResult:
        """GA micro-benchmark pool (memory-cached; fast to regenerate
        relative to dataset collection, and programs don't serialize
        cheaply)."""
        if self._ga is None:
            cfg = GaConfig(
                population=self.scale.ga_population,
                generations=self.scale.ga_generations,
                eval_cycles=self.scale.ga_benchmark_cycles,
                seed=self.seed,
            )
            evolver = BenchmarkEvolver(
                self.core,
                cfg,
                workers=self.workers,
                cache=self.eval_cache,
            )
            try:
                self._ga = evolver.run()
            finally:
                evolver.close()
        return self._ga

    @property
    def train(self) -> PowerDataset:
        if self._train is None:
            path = self._key("train")
            if path.exists():
                self._train = PowerDataset.load(path)
            else:
                self._train = build_training_dataset(
                    self.core,
                    self.ga,
                    target_cycles=self.scale.train_cycles,
                    replay_cycles=self.scale.ga_benchmark_cycles,
                    seed=self.seed,
                    workers=self.workers,
                    cache=self.eval_cache,
                )
                self._train.save(path)
        return self._train

    @property
    def test(self) -> PowerDataset:
        if self._test is None:
            path = self._key("test")
            if path.exists():
                self._test = PowerDataset.load(path)
            else:
                self._test = build_testing_dataset(
                    self.core,
                    cycle_scale=self.scale.test_cycle_scale,
                    workers=self.workers,
                    cache=self.eval_cache,
                )
                self._test.save(path)
        return self._test

    # ------------------------------------------------------------------ #
    @property
    def screened(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, ids): the shared screened training features.

        One correlation screen over all candidates, reused by every
        method so comparisons share the same search space (and the dense
        matrix is unpacked once).
        """
        if self._screened is None:
            from repro.core.selection import _abs_corr

            ids = self.train.candidate_ids
            X = self.train.features(ids)
            width = self.scale.screen_width * self.design_scale_factor
            if X.shape[1] > width:
                corr = _abs_corr(
                    X.astype(np.float32), self.train.labels
                )
                keep = np.sort(
                    np.argsort(-corr, kind="stable")[:width]
                )
                X = X[:, keep]
                ids = ids[keep]
            self._screened = (
                np.ascontiguousarray(X), np.asarray(ids)
            )
        return self._screened

    def test_features(self, proxies: np.ndarray) -> np.ndarray:
        """Dense float toggle columns of the testing set."""
        return self.test.features(proxies).astype(np.float64)

    def train_features(self, proxies: np.ndarray) -> np.ndarray:
        return self.train.features(proxies).astype(np.float64)

    # ------------------------------------------------------------------ #
    @property
    def gamma(self) -> float:
        """MCP concavity, tuned on a 20% validation split (§7.1).

        The paper fixes gamma = 10 for its designs; on this substrate the
        best gamma shifts with dataset statistics, so it is selected the
        way the paper selects its hyper-parameters: by held-out NRMSE.
        """
        if self._gamma is None:
            self._gamma = self._tune_gamma()
        return self._gamma

    def _tune_gamma(self, grid=(2.0, 3.0, 10.0)) -> float:
        X, ids = self.screened
        y = self.train.labels
        train_idx, val_idx = self.train.split(0.2, seed=self.seed)
        # Score each gamma at two proxy budgets so the choice is stable
        # against the exact Q an experiment later requests.
        q_points = sorted(
            {max(4, self.default_q() // 2), self.default_q()}
        )
        lookup = {int(c): i for i, c in enumerate(ids)}
        best_gamma, best_score = grid[0], np.inf
        for gamma in grid:
            sels = ProxySelector(
                penalty="mcp", gamma=gamma, screen_width=None
            ).select_many(
                X[train_idx], y[train_idx], q_points, candidate_ids=ids
            )
            total = 0.0
            for q in q_points:
                cols = np.asarray(
                    [lookup[int(p)] for p in sels[q].proxies]
                )
                w, b = ridge_fit(
                    X[train_idx][:, cols].astype(np.float64),
                    y[train_idx],
                )
                pred = X[val_idx][:, cols].astype(np.float64) @ w + b
                total += float(
                    np.sqrt(((y[val_idx] - pred) ** 2).mean())
                )
            if total < best_score:
                best_gamma, best_score = gamma, total
        return best_gamma

    def _selector(self, penalty: str) -> ProxySelector:
        # Screening already happened at context level; MCP concavity is
        # validation-tuned once per context.
        if penalty == "mcp":
            return ProxySelector(
                penalty="mcp", gamma=self.gamma, screen_width=None
            )
        return ProxySelector(penalty=penalty, screen_width=None)

    def selections(
        self, q_list: list[int], penalty: str = "mcp"
    ) -> dict[int, SelectionResult]:
        """Shared-path selections for a Q sweep."""
        key = (penalty, tuple(sorted(set(q_list))))
        if key not in self._selections:
            X, ids = self.screened
            self._selections[key] = self._selector(penalty).select_many(
                X, self.train.labels, list(key[1]), candidate_ids=ids
            )
        return self._selections[key]

    def model_from_selection(
        self, sel: SelectionResult, ridge_lam: float = 1e-3
    ) -> ApolloModel:
        """Ridge relaxation of a selection (the §4.4 final model)."""
        X, ids = self.screened
        lookup = {int(c): i for i, c in enumerate(ids)}
        cols = np.asarray([lookup[int(p)] for p in sel.proxies])
        w, b = ridge_fit(
            X[:, cols].astype(np.float64),
            self.train.labels,
            lam=ridge_lam,
        )
        return ApolloModel(
            proxies=sel.proxies, weights=w, intercept=b, selection=sel
        )

    def apollo(self, q: int, penalty: str = "mcp") -> ApolloModel:
        """The relaxed APOLLO (or Lasso-baseline) model at proxy count Q."""
        key = ("apollo", penalty, q)
        if key not in self._models:
            sel = self.selections([q], penalty)[q]
            self._models[key] = self.model_from_selection(sel)
        return self._models[key]  # type: ignore[return-value]

    def apollo_tau(self, q: int, tau: int) -> ApolloTauModel:
        key = ("tau", q, tau)
        if key not in self._models:
            X, ids = self.screened
            self._models[key] = train_apollo_tau(
                X,
                self.train.labels,
                q=q,
                tau=tau,
                candidate_ids=ids,
                selector=self._selector("mcp"),
            )
        return self._models[key]  # type: ignore[return-value]

    def simmani(self, q: int, t: int = 1):
        from repro.baselines import train_simmani

        key = ("simmani", q, t)
        if key not in self._models:
            X, ids = self.screened
            self._models[key] = train_simmani(
                X,
                self.train.labels,
                q=q,
                t=t,
                candidate_ids=ids,
                seed=self.seed,
            )
        return self._models[key]

    def primal_cnn(self, epochs: int = 25):
        from repro.baselines import train_primal_cnn

        key = ("primal_cnn", epochs)
        if key not in self._models:
            X, _ids = self.screened
            self._models[key] = train_primal_cnn(
                X, self.train.labels, epochs=epochs, seed=self.seed
            )
        return self._models[key]

    def pca(self, n_components: int = 64):
        from repro.baselines import train_pca_baseline

        key = ("pca", n_components)
        if key not in self._models:
            X, _ids = self.screened
            self._models[key] = train_pca_baseline(
                X.astype(np.float64),
                self.train.labels,
                n_components=n_components,
            )
        return self._models[key]

    # ------------------------------------------------------------------ #
    def default_q(self) -> int:
        """The context's headline proxy count.

        The paper picks Q at the accuracy/cost knee of its design
        (Q = 159 on N1, ~300 on the larger A77); on this substrate the
        knee sits at the active scale's quickstart Q times the design
        scale factor (validated by the Fig. 10/12 sweeps).
        """
        return min(
            self.scale.max_quickstart_q * self.design_scale_factor,
            self.screened[0].shape[1] // 4,
        )

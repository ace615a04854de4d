"""The per-cycle APOLLO power model (Eqs. 1 and §4.4).

``ApolloModel`` is the *relaxed* final model: after MCP selects Q proxies,
a fresh ridge regression (much weaker penalty) is fit on only those
columns.  The model is deliberately tiny — net ids, weights, an intercept —
because the same object configures the design-time estimator, the
emulator-assisted flow, and the hardware OPM generator.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import PowerModelError
from repro.obs.trace import NULL_TRACER
from repro.core.selection import ProxySelector, SelectionResult
from repro.core.solvers import ridge_fit

__all__ = ["ApolloModel", "train_apollo", "MODEL_SCHEMA_VERSION"]

#: On-disk artifact schema.  v1 was a bare npz (proxies/weights/
#: intercept); v2 adds an embedded version plus a JSON sidecar, so a
#: stream service can validate an artifact without loading arrays.
MODEL_SCHEMA_VERSION = 2


def resolve_npz_path(path: str | Path) -> Path:
    """The actual file ``np.savez`` writes (it appends ``.npz``)."""
    p = Path(path)
    return p if p.name.endswith(".npz") else p.with_name(p.name + ".npz")


def sidecar_path(path: str | Path) -> Path:
    """The JSON sidecar next to a saved model artifact."""
    p = resolve_npz_path(path)
    return p.with_name(p.name + ".json")


def write_sidecar(path: str | Path, kind: str, extra: dict) -> None:
    from repro.resilience.atomic import atomic_write_bytes

    meta = {
        "format": "apollo-repro-model",
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": kind,
        **extra,
    }
    atomic_write_bytes(
        sidecar_path(path), (json.dumps(meta, indent=2) + "\n").encode()
    )


def check_artifact(path: str | Path, kind: str) -> dict | None:
    """Validate a sidecar (if present) against the expected kind.

    Returns the sidecar metadata, or ``None`` for v1 artifacts saved
    without one (accepted for backward compatibility).
    """
    sc = sidecar_path(path)
    if not sc.exists():
        return None
    meta = json.loads(sc.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{sc} does not hold a JSON object")
    if meta.get("kind") != kind:
        raise PowerModelError(
            f"{sc} holds a {meta.get('kind')!r} artifact, expected {kind!r}"
        )
    version = int(meta.get("schema_version", 0))
    if version > MODEL_SCHEMA_VERSION:
        raise PowerModelError(
            f"{sc} uses schema v{version}, newer than supported "
            f"v{MODEL_SCHEMA_VERSION}"
        )
    return meta


@contextmanager
def open_artifact(
    path: str | Path, kind: str, error: type[Exception]
) -> Iterator:
    """Check the sidecar, then open the artifact's npz for reading.

    A sidecar naming another kind or a newer schema raises
    :class:`PowerModelError`.  Every other way a torn, corrupt or
    foreign artifact fails, inside the block too (torn JSON, not a zip,
    a bad member, a missing key, pickled objects, a non-scalar where a
    scalar belongs), surfaces as ``error``.  I/O errors pass through
    unchanged: a missing file or a failing disk is not a bad artifact.
    """
    from repro.resilience.atomic import NPZ_DECODE_ERRORS

    npz = resolve_npz_path(path)
    try:
        check_artifact(path, kind)
        with np.load(npz) as data:
            yield data
    except NPZ_DECODE_ERRORS as exc:
        raise error(f"{npz} is not a readable {kind} artifact: {exc}") from exc


@dataclass
class ApolloModel:
    """A linear per-cycle power model over Q proxy signals.

    ``predict`` consumes the Q proxy *columns only* (N x Q toggle matrix);
    the caller extracts those columns from a trace — exactly the data an
    emulator dumps in the proxy-only flow.

    The intercept captures the design's baseline (always-on clock)
    switching power; on-chip it is realized by adding the constant to the
    accumulator each cycle, costing one adder input, no multiplier.
    """

    proxies: np.ndarray
    weights: np.ndarray
    intercept: float = 0.0
    selection: SelectionResult | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.proxies = np.asarray(self.proxies, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.proxies.shape != self.weights.shape:
            raise PowerModelError(
                f"proxies {self.proxies.shape} vs weights "
                f"{self.weights.shape} mismatch"
            )
        if self.proxies.ndim != 1 or self.proxies.size == 0:
            raise PowerModelError("model needs at least one proxy")

    @property
    def q(self) -> int:
        return int(self.proxies.size)

    def predict(self, x_proxies: np.ndarray) -> np.ndarray:
        """Per-cycle power from an (N x Q) proxy toggle matrix."""
        X = np.asarray(x_proxies, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.q:
            raise PowerModelError(
                f"expected (N, {self.q}) proxy matrix, got {X.shape}"
            )
        return X @ self.weights + self.intercept

    def predict_window(self, x_proxies: np.ndarray, t: int) -> np.ndarray:
        """Average per-cycle predictions over T-cycle windows.

        Trailing cycles that do not fill a window are dropped.
        """
        p = self.predict(x_proxies)
        n = (p.size // t) * t
        if n == 0:
            raise PowerModelError(
                f"trace of {p.size} cycles shorter than window T={t}"
            )
        return p[:n].reshape(-1, t).mean(axis=1)

    def abs_weight_sum(self) -> float:
        """Sum of |weights| (the Fig. 13 quantity)."""
        return float(np.abs(self.weights).sum())

    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> None:
        """Persist as versioned npz + JSON sidecar (schema v2).

        Both files publish atomically (tmp + rename), so a crashed save
        can never leave a torn artifact behind.
        """
        from repro.resilience.atomic import atomic_save_npz

        atomic_save_npz(
            resolve_npz_path(path),
            {
                "proxies": self.proxies,
                "weights": self.weights,
                "intercept": np.float64(self.intercept),
                "schema_version": np.int64(MODEL_SCHEMA_VERSION),
            },
        )
        write_sidecar(
            path,
            "ApolloModel",
            {
                "q": self.q,
                "intercept": float(self.intercept),
                "abs_weight_sum": self.abs_weight_sum(),
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "ApolloModel":
        """Load a saved model; v1 artifacts (no sidecar) still load, and a
        corrupt or foreign archive raises :class:`PowerModelError`."""
        with open_artifact(path, "ApolloModel", PowerModelError) as data:
            return cls(
                proxies=data["proxies"],
                weights=data["weights"],
                intercept=float(data["intercept"]),
            )


def train_apollo(
    X: np.ndarray,
    y: np.ndarray,
    q: int,
    candidate_ids: np.ndarray | None = None,
    selector: ProxySelector | None = None,
    ridge_lam: float = 1e-3,
    relax: bool = True,
    tracer=None,
) -> ApolloModel:
    """Full APOLLO training: MCP selection + ridge relaxation.

    Parameters
    ----------
    X, y:
        Per-cycle toggle features (N x M) and power labels (N,).
    q:
        Number of proxies to select.
    candidate_ids:
        External ids for the columns of ``X`` (net ids).
    selector:
        Preconfigured :class:`ProxySelector`; defaults to MCP with the
        paper's gamma = 10.
    ridge_lam:
        Relaxation ridge strength (standardized scale).
    relax:
        Disable to keep the raw MCP temporary-model weights — the ablation
        of §4.4 ("this temporary model can already provide rather accurate
        predictions").
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`: wraps the run in a
        ``train.apollo`` span with ``select.*``/``solver.cd`` children
        (via a default-constructed selector) and a ``train.relax`` span
        around the ridge relaxation.
    """
    tracer = tracer or NULL_TRACER
    selector = selector or ProxySelector(tracer=tracer)
    with tracer.span("train.apollo", q=q, relax=relax) as root:
        sel = selector.select(X, y, q, candidate_ids=candidate_ids)
        if candidate_ids is None:
            cols = sel.proxies
        else:
            lookup = {int(cid): i for i, cid in enumerate(candidate_ids)}
            cols = np.asarray([lookup[int(p)] for p in sel.proxies])
        if not relax:
            return ApolloModel(
                proxies=sel.proxies,
                weights=sel.temp_weights,
                intercept=sel.temp_intercept,
                selection=sel,
            )
        with tracer.span(
            "train.relax", q=sel.q, ridge_lam=float(ridge_lam)
        ):
            Xq = np.asarray(X, dtype=np.float64)[:, cols]
            w, b = ridge_fit(
                Xq, np.asarray(y, dtype=np.float64), lam=ridge_lam
            )
        model = ApolloModel(
            proxies=sel.proxies, weights=w, intercept=b, selection=sel
        )
        if root:
            root.set(
                lam=float(sel.lam),
                abs_weight_sum=model.abs_weight_sum(),
            )
    return model

"""Tests for the relaxed ApolloModel and train_apollo."""

import numpy as np
import pytest

from repro.core import ApolloModel, ProxySelector, r2_score, train_apollo
from repro.errors import PowerModelError


def _problem(n=800, m=100, k=8, seed=1, noise=0.05):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, m)) < rng.uniform(0.1, 0.5, size=m)).astype(np.uint8)
    support = rng.choice(m, size=k, replace=False)
    w = rng.uniform(1.0, 5.0, size=k)
    y = X[:, support] @ w + 2.0 + noise * rng.standard_normal(n)
    return X, y, support, w


def test_train_apollo_accuracy():
    X, y, support, _w = _problem()
    model = train_apollo(X, y, q=8)
    p = model.predict(X[:, model.proxies].astype(np.float64))
    assert r2_score(y, p) > 0.98


def test_relaxation_improves_over_temp_model():
    X, y, _s, _w = _problem(noise=0.02)
    relaxed = train_apollo(X, y, q=8, relax=True)
    raw = train_apollo(X, y, q=8, relax=False)
    p_relaxed = relaxed.predict(X[:, relaxed.proxies].astype(float))
    p_raw = raw.predict(X[:, raw.proxies].astype(float))
    assert r2_score(y, p_relaxed) >= r2_score(y, p_raw) - 1e-9


def test_intercept_captures_baseline():
    X, y, _s, _w = _problem(noise=0.0)
    model = train_apollo(X, y, q=8)
    assert model.intercept == pytest.approx(2.0, abs=0.5)


def test_candidate_id_space_respected():
    X, y, support, _w = _problem()
    ids = np.arange(X.shape[1]) + 5000
    model = train_apollo(X, y, q=8, candidate_ids=ids)
    assert set(model.proxies.tolist()) == {s + 5000 for s in support}
    # predict still takes columns in proxy order
    cols = model.proxies - 5000
    p = model.predict(X[:, cols].astype(float))
    assert r2_score(y, p) > 0.95


def test_predict_window_averages():
    X, y, _s, _w = _problem()
    model = train_apollo(X, y, q=6)
    Xq = X[:, model.proxies].astype(float)
    per_cycle = model.predict(Xq)
    win = model.predict_window(Xq, t=4)
    n = (len(per_cycle) // 4) * 4
    np.testing.assert_allclose(
        win, per_cycle[:n].reshape(-1, 4).mean(axis=1)
    )


def test_predict_window_too_short_raises():
    model = ApolloModel(proxies=[1, 2], weights=[1.0, 2.0])
    with pytest.raises(PowerModelError):
        model.predict_window(np.zeros((3, 2)), t=8)


def test_model_validation():
    with pytest.raises(PowerModelError):
        ApolloModel(proxies=[1, 2], weights=[1.0])
    with pytest.raises(PowerModelError):
        ApolloModel(proxies=[], weights=[])
    m = ApolloModel(proxies=[3], weights=[2.0])
    with pytest.raises(PowerModelError):
        m.predict(np.zeros((5, 2)))


def test_save_load_roundtrip(tmp_path):
    X, y, _s, _w = _problem()
    model = train_apollo(X, y, q=5)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = ApolloModel.load(path)
    np.testing.assert_array_equal(loaded.proxies, model.proxies)
    np.testing.assert_allclose(loaded.weights, model.weights)
    assert loaded.intercept == pytest.approx(model.intercept)


def test_abs_weight_sum():
    m = ApolloModel(proxies=[0, 1], weights=[-2.0, 3.0])
    assert m.abs_weight_sum() == 5.0


def test_custom_selector_passthrough():
    X, y, _s, _w = _problem()
    model = train_apollo(
        X, y, q=6, selector=ProxySelector(penalty="lasso")
    )
    assert model.selection is not None
    assert model.selection.penalty == "lasso"


def test_save_writes_versioned_sidecar(tmp_path):
    import json

    from repro.core.model import MODEL_SCHEMA_VERSION, sidecar_path

    model = ApolloModel(proxies=[1, 4], weights=[2.0, -1.0], intercept=0.5)
    path = tmp_path / "m.npz"
    model.save(path)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["kind"] == "ApolloModel"
    assert meta["schema_version"] == MODEL_SCHEMA_VERSION
    assert meta["q"] == 2
    assert meta["abs_weight_sum"] == 3.0


def test_load_accepts_v1_artifact_without_sidecar(tmp_path):
    from repro.core.model import sidecar_path

    model = ApolloModel(proxies=[0, 2], weights=[1.0, 3.0], intercept=2.0)
    path = tmp_path / "legacy.npz"
    model.save(path)
    sidecar_path(path).unlink()  # simulate a pre-versioning artifact
    loaded = ApolloModel.load(path)
    np.testing.assert_array_equal(loaded.proxies, model.proxies)


def test_load_rejects_wrong_kind_and_newer_schema(tmp_path):
    import json

    from repro.core.model import sidecar_path

    model = ApolloModel(proxies=[0], weights=[1.0])
    path = tmp_path / "m.npz"
    model.save(path)
    sc = sidecar_path(path)
    meta = json.loads(sc.read_text())
    meta["kind"] = "QuantizedModel"
    sc.write_text(json.dumps(meta))
    with pytest.raises(PowerModelError):
        ApolloModel.load(path)
    meta["kind"] = "ApolloModel"
    meta["schema_version"] = 99
    sc.write_text(json.dumps(meta))
    with pytest.raises(PowerModelError):
        ApolloModel.load(path)


@pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.9, 0.99])
def test_torn_or_foreign_artifact_raises_power_model_error(tmp_path, keep):
    from repro.resilience.faults import truncate_file

    model = ApolloModel(proxies=np.arange(30), weights=np.linspace(-1, 1, 30))
    path = tmp_path / "m.npz"
    model.save(path)
    truncate_file(path, keep)
    with pytest.raises(PowerModelError):
        ApolloModel.load(path)
    # Archives that never held an ApolloModel (no sidecar to vouch).
    foreign = tmp_path / "foreign.npz"
    for write in (
        lambda: foreign.write_bytes(b"not an archive"),
        lambda: np.savez(foreign, proxies=np.arange(3)),
        lambda: np.savez(foreign, proxies=np.arange(2), weights=np.ones(2),
                         intercept=np.ones(3)),
    ):
        write()
        with pytest.raises(PowerModelError):
            ApolloModel.load(foreign)

"""The observability layer: tracing, exporters, provenance, parity.

Covers the exporter round-trip contract (JSONL and Chrome trace-event
JSON reproduce the exact span forest), the zero-entry no-op tracer
property, the shared metrics registry, manifest save/load/render,
and the GA per-generation span stats' parity with
:meth:`GaResult.generation_stats` on both simulation engines.

The obs-v2 surface gets its own sections: :class:`SpanContext`
propagation (header round-trip, remote parenting, lane stitching),
the exact merge contract of :class:`LogHistogram` (associativity under
arbitrary splits, proven on dyadic-rational values where float sums
are exact), the bounded :class:`FlightRecorder` with its dump-once
post-mortem files, and the OpenMetrics render/parse round trip.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError, StreamError
from repro.obs import (
    NULL_TRACER,
    FlightRecorder,
    LogHistogram,
    MetricsRegistry,
    NullTracer,
    RunManifest,
    SpanContext,
    Tracer,
    config_hash,
    load_postmortem,
    load_trace,
    parse_openmetrics,
    render_openmetrics,
    render_tree,
)
from repro.obs.hist import STANDARD_QUANTILES
from repro.obs.trace import load_chrome, load_jsonl


def _build_nested_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("pipeline", run="demo") as root:
        with tracer.span("ga", generations=2) as ga:
            with tracer.span("ga.generation", generation=0) as g:
                g.set(mean_power=3.25)
            with tracer.span("ga.generation", generation=1):
                pass
            ga.set(best_power=4.5)
        with tracer.span("train", q=8):
            pass
        root.set(ok=True)
    return tracer


def _forest_shape(roots):
    return [
        (s.name, s.attrs, [_forest_shape([c])[0] for c in s.children])
        for s in roots
    ]


# --------------------------------------------------------------------- #
# Tracer core behaviour
# --------------------------------------------------------------------- #
class TestTracer:
    def test_nesting_and_attrs(self):
        tracer = _build_nested_tracer()
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "pipeline"
        assert [c.name for c in root.children] == ["ga", "train"]
        ga = root.children[0]
        assert [c.attrs["generation"] for c in ga.children] == [0, 1]
        assert ga.attrs["best_power"] == 4.5
        assert root.attrs == {"run": "demo", "ok": True}

    def test_durations_are_monotone(self):
        tracer = _build_nested_tracer()
        root = tracer.roots[0]
        assert root.duration >= sum(c.duration for c in root.children)
        for c in root.children:
            assert c.start >= root.start
            assert c.end <= root.end + 1e-9

    def test_exception_closes_span_and_tags_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert [s.name for s in tracer.roots] == ["outer"]
        names = {s.name: s for s in tracer.spans}
        assert "boom" in names["inner"].attrs["error"]
        assert "boom" in names["outer"].attrs["error"]
        # the stack unwound fully: a new span is again a root
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "after"]

    def test_find_and_total_seconds(self):
        tracer = _build_nested_tracer()
        gens = tracer.find("ga.generation")
        assert len(gens) == 2
        assert tracer.total_seconds("ga.generation") == pytest.approx(
            sum(s.duration for s in gens)
        )
        assert tracer.total_seconds("nope") == 0.0

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(label):
            barrier.wait()
            with tracer.span(f"{label}.outer"):
                with tracer.span(f"{label}.inner"):
                    pass

        threads = [
            threading.Thread(target=work, args=(lab,))
            for lab in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(s.name for s in tracer.roots) == [
            "a.outer", "b.outer"
        ]
        for root in tracer.roots:
            assert [c.name for c in root.children] == [
                root.name.replace("outer", "inner")
            ]
        tids = {s.tid for s in tracer.spans}
        assert len(tids) == 2


# --------------------------------------------------------------------- #
# Exporter round-trips (satellite 4)
# --------------------------------------------------------------------- #
class TestExporters:
    @pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
    def test_round_trip_preserves_forest(self, tmp_path, fmt):
        tracer = _build_nested_tracer()
        if fmt == "jsonl":
            path = tracer.to_jsonl(tmp_path / "t.jsonl")
            roots = load_jsonl(path)
        else:
            path = tracer.to_chrome(tmp_path / "t.json")
            roots = load_chrome(path)
        assert _forest_shape(roots) == _forest_shape(tracer.roots)
        loaded = {s.span_id: s for r in roots for s in _walk(r)}
        for s in tracer.spans:
            assert loaded[s.span_id].start == pytest.approx(
                s.start, abs=1e-6
            )
            assert loaded[s.span_id].duration == pytest.approx(
                s.duration, abs=1e-6
            )

    def test_chrome_event_schema(self, tmp_path):
        tracer = _build_nested_tracer()
        path = tracer.to_chrome(tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == len(tracer.spans)
        for e in events:
            assert e["ph"] == "X"
            assert e["ts"] >= 0.0
            assert e["dur"] >= 0.0
            assert e["pid"] == 0
            assert "span_id" in e["args"]
        # microsecond scaling against the recorded spans
        by_id = {s.span_id: s for s in tracer.spans}
        for e in events:
            s = by_id[e["args"]["span_id"]]
            assert e["ts"] == pytest.approx(s.start * 1e6)
            assert e["dur"] == pytest.approx(s.duration * 1e6)

    def test_load_trace_autodetects(self, tmp_path):
        tracer = _build_nested_tracer()
        j = tracer.to_jsonl(tmp_path / "t.jsonl")
        c = tracer.to_chrome(tmp_path / "t.json")
        assert _forest_shape(load_trace(j)) == _forest_shape(
            load_trace(c)
        )
        with pytest.raises(ObsError):
            load_trace(tmp_path / "missing.json")

    def test_render_tree_lines(self, tmp_path):
        tracer = _build_nested_tracer()
        text = render_tree(tracer.roots)
        lines = text.splitlines()
        assert len(lines) == len(tracer.spans)
        assert lines[0].startswith("pipeline")
        assert "  ga" in lines[1]
        assert "generation=0" in text

    @settings(max_examples=25, deadline=None)
    @given(
        names=st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("L", "N"), max_codepoint=0x7F
                ),
                min_size=1, max_size=12,
            ),
            min_size=1, max_size=6,
        ),
        attr=st.integers(),
    )
    def test_null_tracer_records_nothing(self, names, attr):
        tracer = NullTracer()
        for name in names:
            with tracer.span(name, k=attr) as sp:
                assert not sp  # falsy: attr work is skipped
                sp.set(expensive=attr)
        assert list(tracer.spans) == []
        assert list(tracer.roots) == []
        assert tracer.find(names[0]) == []
        assert tracer.total_seconds(names[0]) == 0.0

    def test_null_tracer_singleton_is_shared_and_disabled(self):
        assert NULL_TRACER.enabled is False
        cm1 = NULL_TRACER.span("a", x=1)
        cm2 = NULL_TRACER.span("b")
        assert cm1 is cm2  # one inert object, no per-call allocation


def _walk(span):
    yield span
    for c in span.children:
        yield from _walk(c)


# --------------------------------------------------------------------- #
# Shared metrics registry
# --------------------------------------------------------------------- #
class TestMetricsShim:
    def test_stream_package_uses_shared_registry_class(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.stream import MetricsRegistry as StreamRegistry

        assert StreamRegistry is MetricsRegistry

    def test_validation_still_raises_stream_error(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        with pytest.raises(StreamError):
            reg.counter("c").inc(-1)

    def test_default_registry_is_singleton(self):
        from repro.obs.metrics import default_registry

        assert default_registry() is default_registry()


# --------------------------------------------------------------------- #
# Provenance manifests
# --------------------------------------------------------------------- #
class TestManifest:
    def _manifest(self) -> RunManifest:
        return RunManifest(
            run="unit",
            design="small-shared",
            scale="tiny",
            seed=20211018,
            engine="packed",
            q=8,
            config={"ga": {"population": 6}, "bits": 10},
            model_schema_version=2,
            extra={"note": "test"},
        )

    def test_config_hash_is_stable_and_order_free(self):
        h1 = config_hash({"a": 1, "b": [2, 3]})
        h2 = config_hash({"b": [2, 3], "a": 1})
        assert h1 == h2
        assert len(h1) == 12
        assert h1 != config_hash({"a": 1, "b": [2, 4]})

    def test_stage_timing_accumulates(self):
        m = self._manifest()
        with m.stage("train"):
            sum(range(1000))
        with m.stage("train"):
            pass
        assert set(m.stages) == {"train"}
        assert m.stages["train"]["wall_s"] > 0.0
        assert m.stages["train"]["cpu_s"] is not None
        assert m.total_wall_s == pytest.approx(
            m.stages["train"]["wall_s"]
        )

    def test_record_tracer_imports_root_spans(self):
        m = self._manifest()
        tracer = _build_nested_tracer()
        m.record_tracer(tracer)
        assert set(m.stages) == {"pipeline"}
        assert m.stages["pipeline"]["wall_s"] == pytest.approx(
            tracer.roots[0].duration
        )

    def test_save_load_round_trip(self, tmp_path):
        m = self._manifest()
        with m.stage("ga"):
            pass
        path = m.save(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.run == "unit"
        assert loaded.design == "small-shared"
        assert loaded.seed == 20211018
        assert loaded.engine == "packed"
        assert loaded.q == 8
        assert loaded.config_hash == m.config_hash
        assert loaded.model_schema_version == 2
        assert loaded.extra == {"note": "test"}
        assert loaded.stages["ga"]["wall_s"] == pytest.approx(
            m.stages["ga"]["wall_s"]
        )

    def test_render_from_sidecar_alone(self, tmp_path):
        m = self._manifest()
        with m.stage("ga"):
            pass
        path = m.save(tmp_path / "manifest.json")
        text = RunManifest.load(path).render()
        for needle in (
            "seed", "20211018", "packed", "config hash",
            m.config_hash, "ga", "total",
        ):
            assert str(needle) in text

    def test_failed_save_keeps_the_previous_manifest(
        self, tmp_path, monkeypatch
    ):
        """A save that dies mid-write leaves the last manifest whole and
        no temporary file behind."""
        from pathlib import Path

        m = self._manifest()
        path = m.save(tmp_path / "manifest.json")
        before = path.read_bytes()

        def torn_write(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        monkeypatch.setattr(
            Path, "write_text", lambda self, text, *a, **kw: torn_write(
                self, text.encode()
            ),
        )
        m.extra["note"] = "second run"
        with pytest.raises(OSError, match="disk full"):
            m.save(path)
        assert path.read_bytes() == before
        assert RunManifest.load(path).extra == {"note": "test"}
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_load_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ObsError):
            RunManifest.load(bad)
        with pytest.raises(ObsError):
            RunManifest.load(tmp_path / "missing.json")

    def test_sidecar_for_convention(self, tmp_path):
        p = RunManifest.sidecar_for(tmp_path / "fig10.txt")
        assert p.name == "fig10.txt.manifest.json"


# --------------------------------------------------------------------- #
# Pipeline instrumentation parity (satellite 3 + flow timing)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ["packed", "uint8"])
def test_ga_generation_spans_match_generation_stats(small_core, engine):
    from repro.genbench import BenchmarkEvolver, GaConfig

    cfg = GaConfig(
        population=6, generations=3, eval_cycles=100, program_length=16,
        elite=1,
    )
    tracer = Tracer()
    result = BenchmarkEvolver(
        small_core, cfg, engine=engine, tracer=tracer
    ).run()

    spans = tracer.find("ga.generation")
    stats = result.generation_stats()
    assert len(spans) == len(stats) == cfg.generations
    for span, (gen, lo, mean, hi) in zip(spans, stats):
        assert span.attrs["generation"] == gen
        assert span.attrs["min_power"] == pytest.approx(lo)
        assert span.attrs["mean_power"] == pytest.approx(mean)
        assert span.attrs["max_power"] == pytest.approx(hi)

    root = tracer.find("ga.run")[0]
    assert root.attrs["max_min_ratio"] == pytest.approx(
        result.max_min_ratio
    )
    assert root.attrs["best_power"] == pytest.approx(result.best.power)
    assert [c.name for c in root.children] == (
        ["ga.generation"] * cfg.generations
    )


def test_solver_span_carries_residual_history(small_train):
    from repro.core.solvers import coordinate_descent

    X = small_train.features()[:, :40]
    y = small_train.labels
    tracer = Tracer()
    plain = coordinate_descent(X, y, lam=0.1)
    traced = coordinate_descent(X, y, lam=0.1, tracer=tracer)
    np.testing.assert_allclose(plain.weights, traced.weights)
    assert plain.intercept == traced.intercept
    assert plain.n_iter == traced.n_iter

    (span,) = tracer.find("solver.cd")
    assert span.attrs["n_iter"] == traced.n_iter
    history = span.attrs["residual_history"]
    assert len(history) == traced.n_iter
    if span.attrs["converged"] and len(history) > 1:
        assert history[-1] <= history[0]


def test_flow_estimate_reports_stage_seconds(small_core, small_model):
    from repro.flow.design_time import DesignTimeFlow
    from repro.genbench.workloads import mcf_like

    flow = DesignTimeFlow(small_core, small_model)
    tracer = Tracer()
    est = flow.estimate(mcf_like(), cycles=120, tracer=tracer)

    assert set(est.stage_seconds) == {"uarch", "rtl", "inference"}
    assert all(v >= 0.0 for v in est.stage_seconds.values())
    assert est.total_seconds == pytest.approx(
        sum(est.stage_seconds.values())
    )
    assert est.uarch_seconds == est.stage_seconds["uarch"]
    assert est.rtl_seconds == est.stage_seconds["rtl"]
    assert est.inference_seconds == est.stage_seconds["inference"]

    (root,) = tracer.find("flow.estimate")
    assert [c.name for c in root.children] == [
        "flow.uarch", "flow.rtl", "flow.inference"
    ]
    # the simulator's own span nests under the rtl stage
    rtl = root.children[1]
    assert [c.name for c in rtl.children] == ["rtl.sim.run"]

    # an untraced call still reports timings
    est2 = flow.estimate(mcf_like(), cycles=120)
    assert set(est2.stage_seconds) == {"uarch", "rtl", "inference"}
    assert est2.total_seconds > 0.0
    np.testing.assert_allclose(est.power, est2.power)


def test_train_apollo_span_tree(small_train):
    from repro.core import ProxySelector, train_apollo

    tracer = Tracer()
    model = train_apollo(
        small_train.features(),
        small_train.labels,
        q=10,
        candidate_ids=small_train.candidate_ids,
        selector=ProxySelector(screen_width=300, tracer=tracer),
        tracer=tracer,
    )
    (root,) = tracer.find("train.apollo")
    child_names = [c.name for c in root.children]
    assert child_names[-1] == "train.relax"
    assert "select.path" in child_names
    assert tracer.find("solver.cd"), "path search ran the MCP solver"
    assert root.attrs["abs_weight_sum"] == pytest.approx(
        model.abs_weight_sum()
    )


def test_stream_service_spans_and_shared_registry(small_core, small_model):
    from repro.obs.metrics import MetricsRegistry
    from repro.opm import OpmMeter, quantize_model
    from repro.stream import SimulatorSource, StreamService, StreamSession

    meter = OpmMeter(quantize_model(small_model, bits=10), t=8)
    tracer = Tracer()
    registry = MetricsRegistry()
    source = SimulatorSource.from_program(
        small_core, small_model.proxies,
        _tiny_program(), cycles=256, chunk_cycles=64, tracer=tracer,
    )
    service = StreamService(
        meter,
        [StreamSession("s0", source, meter)],
        registry=registry,
        tracer=tracer,
    )
    service.run()

    assert service.metrics is registry
    assert registry.counter("cycles_processed").value == 256
    (run_span,) = tracer.find("stream.run")
    assert run_span.attrs["cycles_processed"] == 256
    assert tracer.find("stream.drain")
    chunks = tracer.find("stream.chunk")
    assert [s.attrs["start_cycle"] for s in chunks] == [0, 64, 128, 192]


def _tiny_program():
    from repro.genbench.workloads import mcf_like

    return mcf_like()


# --------------------------------------------------------------------- #
# Exact log-bucketed histograms
# --------------------------------------------------------------------- #
#: Dyadic rationals (k / 1024): float addition over them is exact at
#: these magnitudes, so the merged ``sum`` must match bit for bit.
_dyadic = st.integers(min_value=0, max_value=2 ** 20).map(
    lambda n: n / 1024.0
)


class TestLogHistogram:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(_dyadic, min_size=1, max_size=60),
        cuts=st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=0, max_value=60),
        ),
    )
    def test_merge_is_associative_and_exact(self, values, cuts):
        """Any 3-way split, merged either way, equals one big histogram.

        Exact equality (not approx) on buckets, count, sum, min, max
        and every standard quantile — the merge contract shards and
        model versions rely on when their histograms roll up fleetwide.
        """
        i, j = sorted(min(c, len(values)) for c in cuts)
        parts = (values[:i], values[i:j], values[j:])

        def hist(vals):
            h = LogHistogram()
            h.observe_many(vals)
            return h

        whole = hist(values)
        left = hist(parts[0]).merge(hist(parts[1])).merge(hist(parts[2]))
        right = hist(parts[0]).merge(hist(parts[1]).merge(hist(parts[2])))
        for merged in (left, right):
            assert merged.buckets == whole.buckets
            assert merged.count == whole.count == len(values)
            assert merged.sum == whole.sum
            assert merged.min == whole.min
            assert merged.max == whole.max
            for q in STANDARD_QUANTILES:
                assert merged.quantile(q) == whole.quantile(q)

    @settings(max_examples=60, deadline=None)
    @given(
        value=st.floats(
            min_value=1e-9, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        )
    )
    def test_bucket_edges_bracket_every_value(self, value):
        h = LogHistogram()
        k = h.bucket_index(value)
        top = h.bucket_index_raw(h.hi)
        if k == -1:
            assert value <= h.edge(-1)
        elif k == top:
            assert value > h.edge(k - 1)  # overflow clamps into the top
        else:
            assert h.edge(k - 1) < value <= h.edge(k)

    def test_underflow_catches_nonpositive_values(self):
        h = LogHistogram()
        h.observe_many([0.0, -1.0, 1e-9])
        assert h.buckets == {-1: 3}
        assert h.count == 3
        assert h.quantile(0.99) == h.edge(-1)

    def test_quantiles_are_monotone_and_never_under_report(self):
        h = LogHistogram()
        # in-range spread (clamped overflow may under-report the top)
        h.observe_many(10.0 ** (i / 7.0 - 4.0) for i in range(50))
        qs = [h.quantile(q) for q in STANDARD_QUANTILES]
        assert qs == sorted(qs)
        assert h.quantile(1.0) >= h.max
        assert list(h.quantiles()) == ["p50", "p90", "p99", "p999"]
        assert LogHistogram().quantile(0.99) == 0.0  # empty: defined
        with pytest.raises(ObsError):
            h.quantile(1.5)

    def test_snapshot_json_round_trip_stays_mergeable(self):
        h = LogHistogram()
        h.observe_many([0.25, 0.5, 3.0, 700.0])
        back = LogHistogram.from_snapshot(
            json.loads(json.dumps(h.snapshot()))
        )
        assert back.buckets == h.buckets
        assert back.count == h.count
        assert back.sum == h.sum
        assert (back.min, back.max) == (h.min, h.max)
        back.merge(h)
        assert back.count == 2 * h.count
        empty = LogHistogram.from_snapshot(
            json.loads(json.dumps(LogHistogram().snapshot()))
        )
        assert empty.count == 0 and empty.min == math.inf

    def test_geometry_validation_and_merge_refusal(self):
        with pytest.raises(ObsError, match="bucket geometry"):
            LogHistogram().merge(LogHistogram(growth=2.0))
        with pytest.raises(ObsError):
            LogHistogram(lo=1.0, hi=0.5)
        with pytest.raises(ObsError):
            LogHistogram(growth=1.0)


# --------------------------------------------------------------------- #
# SpanContext propagation and remote stitching
# --------------------------------------------------------------------- #
class TestSpanContext:
    @settings(max_examples=40, deadline=None)
    @given(
        span_id=st.integers(min_value=0, max_value=2 ** 31),
        parent_id=st.none() | st.integers(min_value=0, max_value=2 ** 31),
    )
    def test_header_round_trip_through_json(self, span_id, parent_id):
        ctx = SpanContext("0000abcd-0001", span_id, parent_id)
        assert SpanContext.from_header(ctx.to_header()) == ctx
        # the header rides inside JSON frame headers on the wire
        wired = json.loads(json.dumps(ctx.to_header()))
        assert SpanContext.from_header(wired) == ctx

    def test_from_header_edge_cases(self):
        assert SpanContext.from_header(None) is None
        assert SpanContext.from_header({}) is None
        with pytest.raises(ObsError, match="span context"):
            SpanContext.from_header({"t": "orphan"})  # no span id

    def test_remote_parenting_joins_the_callers_trace(self):
        tracer = Tracer()
        with tracer.span("client") as root:
            ctx = root.ctx
        with tracer.span("server", ctx=ctx):
            with tracer.span("inner"):
                pass
        names = {s.name: s for s in tracer.spans}
        assert names["server"].trace_id == root.trace_id
        assert names["server"].parent_id == root.span_id
        assert names["inner"].trace_id == root.trace_id
        # the remote child hangs off the client root, not a new root
        assert [s.name for s in tracer.roots] == ["client"]

    def test_record_remote_stitches_worker_lane(self):
        tracer = Tracer()
        with tracer.span("dispatch") as sp:
            ctx = sp.ctx
        span = tracer.record_remote(
            "gemv.task", ctx, start=tracer.now(), duration=0.25,
            lane="worker-1", index=3,
        )
        assert span.trace_id == ctx.trace_id
        assert span.parent_id == ctx.span_id
        assert span.pid == tracer.register_lane("worker-1")
        assert span.attrs["index"] == 3
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["gemv.task"]

    def test_chrome_export_names_registered_lanes(self, tmp_path):
        tracer = Tracer()
        with tracer.span("serve.tick", lane="gateway"):
            pass
        doc = json.loads(
            tracer.to_chrome(tmp_path / "t.json").read_text()
        )
        meta = {
            (e["name"], e["pid"]): e["args"]["name"]
            for e in doc["traceEvents"] if e["ph"] == "M"
        }
        pid = tracer.register_lane("gateway")
        assert meta[("process_name", pid)] == "gateway"
        assert meta[("process_name", 0)] == "main"
        assert any(name == "thread_name" for name, _ in meta)


# --------------------------------------------------------------------- #
# Flight recorder post-mortems
# --------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_rings_are_bounded_and_ordered(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("shard-0", "windows", i=i)
        rec.record("gateway", "note")
        snap = rec.snapshot()
        assert [e["i"] for e in snap["shard-0"]] == [6, 7, 8, 9]
        seqs = [e["seq"] for e in snap["shard-0"]]
        assert seqs == sorted(seqs)
        assert len(snap["gateway"]) == 1
        with pytest.raises(ObsError):
            FlightRecorder(capacity=0)

    def test_dump_once_per_reason_and_load(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        rec.record("gateway", "note", detail="before")
        path = rec.dump(tmp_path / "pm.json", reason="shard-0 died")
        assert path is not None
        doc = load_postmortem(path)
        assert doc["reason"] == "shard-0 died"
        assert doc["lanes"]["gateway"][0]["detail"] == "before"
        # the first capture is the evidence: same reason never re-dumps
        again = rec.dump(tmp_path / "other.json", reason="shard-0 died")
        assert again is None
        assert not (tmp_path / "other.json").exists()
        assert rec.dumped == {"shard-0 died": path}

    def test_load_rejects_unknown_schema(self, tmp_path):
        bad = tmp_path / "pm.json"
        bad.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ObsError, match="schema"):
            load_postmortem(bad)

    def test_attach_tracer_records_finished_spans_per_lane(self):
        rec = FlightRecorder()
        tracer = Tracer()
        rec.attach_tracer(
            tracer, lane_of=lambda sp: tracer.lane_name(sp.pid)
        )
        with tracer.span("serve.tick", lane="gateway", tick=7):
            pass
        (event,) = rec.snapshot()["gateway"]
        assert event["kind"] == "span"
        assert event["name"] == "serve.tick"
        assert event["attrs"] == {"tick": 7}

    def test_watch_health_records_transitions_and_fires_demotions(self):
        from repro.resilience.retry import HealthState

        rec = FlightRecorder()
        health = HealthState()
        demotions = []
        rec.watch_health(
            "shard-1", health,
            on_demote=lambda *a: demotions.append(a),
        )
        health.degrade("queue backlog")
        health.recover()
        health.fail("sim crashed")
        events = rec.snapshot()["shard-1"]
        assert [(e["old"], e["new"]) for e in events] == [
            ("ok", "degraded"), ("degraded", "ok"), ("ok", "failed"),
        ]
        # recovery is not a demotion; degrade and fail both are
        assert [d[2] for d in demotions] == ["degraded", "failed"]


# --------------------------------------------------------------------- #
# OpenMetrics exposition round trip
# --------------------------------------------------------------------- #
class TestExposition:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("serve.ticks").inc(41)
        reg.gauge("serve.shard.0.queue_depth").set(3.5)
        ipc = reg.hist("serve.ipc.bytes", lo=1.0, hi=2.0 ** 41, growth=2.0)
        ipc.observe_many([100.0, 4096.0, 5e6])
        reg.hist("serve.tick.latency").observe_many(
            [0.001, 0.002, 0.004, 0.5]
        )
        return reg

    def test_render_parse_round_trip_is_exact(self):
        reg = self._registry()
        text = render_openmetrics(reg)
        assert text.endswith("# EOF\n")
        samples = parse_openmetrics(text)
        assert samples["serve_ticks_total"] == 41
        assert samples["serve_shard_0_queue_depth"] == 3.5
        assert samples["serve_ipc_bytes_count"] == 3
        assert samples["serve_tick_latency_count"] == 4
        assert samples["serve_tick_latency_sum"] == pytest.approx(0.507)
        # +Inf bucket is cumulative over everything observed
        assert samples['serve_ipc_bytes_bucket{le="+Inf"}'] == 3
        assert samples['serve_tick_latency_bucket{le="+Inf"}'] == 4

    def test_quantile_samples_match_the_histogram(self):
        reg = self._registry()
        h = reg.hists["serve.tick.latency"]
        samples = parse_openmetrics(render_openmetrics(reg))
        for q, name in zip(STANDARD_QUANTILES, ("p50", "p90", "p99", "p999")):
            key = f'serve_tick_latency{{quantile="{name}"}}'
            assert samples[key] == pytest.approx(h.quantile(q))

    def test_cumulative_buckets_are_monotone(self):
        samples = parse_openmetrics(render_openmetrics(self._registry()))
        for base in ("serve_ipc_bytes", "serve_tick_latency"):
            counts = [
                v for k, v in samples.items()
                if k.startswith(f"{base}_bucket")
            ]
            assert counts, f"no bucket samples for {base}"
            assert counts == sorted(counts)
            assert counts[-1] == samples[f"{base}_count"]

    def test_render_accepts_plain_snapshot_dict(self):
        reg = self._registry()
        assert render_openmetrics(reg.snapshot()) == render_openmetrics(reg)

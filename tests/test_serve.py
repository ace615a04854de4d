"""Tests for the fleet serving layer (``repro.serve``).

The load-bearing property: readings streamed through the gateway —
sharded, after a hot model swap and an injected shard death, with or
without a worker pool — are bit-identical to a single-process
:class:`StreamService` / offline :class:`OpmMeter` run, on every
simulator engine.
"""

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.opm import OpmMeter, QuantizedModel
from repro.rtl import RecordSpec, Simulator
from repro.serve import (
    AsyncTelemetryClient,
    FleetReport,
    FrameBuffer,
    Gateway,
    GatewayServer,
    InprocClient,
    LoadGenConfig,
    ModelRegistry,
    PushSource,
    ShardRouter,
    build_report,
    decode_array,
    decode_frame,
    encode_array,
    encode_frame,
    plan,
    read_frame,
    run_load,
)
from repro.serve.loadgen import SessionPlan  # noqa: F401  (API surface)
from repro.serve.protocol import MAX_FRAME_BYTES
from repro.stream import SimulatorSource

from helpers import SIM_PATHS, random_netlist


def _qmodel(q=6, seed=0, nl=None):
    rng = np.random.default_rng(seed)
    if nl is None:
        proxies = np.arange(q, dtype=np.int64)
    else:
        proxies = np.sort(rng.choice(nl.n_nets, size=q, replace=False))
    return QuantizedModel(
        proxies=proxies,
        int_weights=rng.integers(-400, 400, size=q),
        int_intercept=int(rng.integers(-50, 50)),
        step=0.01,
        bits=10,
    )


def _registry(q=6, versions=("v1", "v2"), seed=0):
    reg = ModelRegistry()
    for i, v in enumerate(versions):
        reg.publish(v, _qmodel(q=q, seed=seed + i), activate=i == 0)
    return reg


def _toggles(q, cycles, seed=0, density=0.3):
    rng = np.random.default_rng(seed)
    return (rng.random((cycles, q)) < density).astype(np.uint8)


# --------------------------------------------------------------------- #
# Protocol
# --------------------------------------------------------------------- #
def test_frame_round_trip_with_array_payload():
    arr = _toggles(5, 17, seed=3)
    fields, payload = encode_array(arr)
    frame = encode_frame({"op": "data", "session": "s", **fields}, payload)
    header, body, consumed = decode_frame(frame)
    assert consumed == len(frame)
    assert header["op"] == "data" and header["session"] == "s"
    np.testing.assert_array_equal(decode_array(header, body), arr)


@pytest.mark.parametrize("name", ["int64", "float64"])
def test_array_round_trips_from_swapped_byte_order(name):
    arr = np.array([1, 2, 3]).astype(np.dtype(name).newbyteorder("S"))
    fields, payload = encode_array(arr)
    assert fields["dtype"] == name
    back = decode_array(fields, payload)
    assert back.dtype == np.dtype(name)
    np.testing.assert_array_equal(back, [1, 2, 3])


def test_frame_buffer_reassembles_byte_dribble():
    frames = [
        encode_frame({"op": "open", "core": "c0"}),
        encode_frame({"op": "data"}, b"\x01\x02\x03"),
        encode_frame({"op": "close"}),
    ]
    blob = b"".join(frames)
    buf = FrameBuffer()
    seen = []
    for i in range(0, len(blob), 3):  # drip 3 bytes at a time
        seen.extend(buf.feed(blob[i:i + 3]))
    assert [h["op"] for h, _p in seen] == ["open", "data", "close"]
    assert seen[1][1] == b"\x01\x02\x03"
    assert buf.pending_bytes == 0


@given(
    span_id=st.integers(min_value=0, max_value=2 ** 31),
    parent_id=st.none() | st.integers(min_value=0, max_value=2 ** 31),
)
@settings(max_examples=25, deadline=None)
def test_frame_carries_span_context_round_trip(span_id, parent_id):
    """A SpanContext rides a data frame's header across the wire intact.

    This is the propagation hop distributed tracing depends on: the
    client's context survives encode -> byte stream -> FrameBuffer ->
    decode, so the gateway can parent its tick span under the client.
    """
    from repro.obs import SpanContext

    ctx = SpanContext("0000abcd-0003", span_id, parent_id)
    arr = _toggles(4, 9, seed=1)
    fields, payload = encode_array(arr)
    frame = encode_frame(
        {"op": "data", "session": "c0#0", "span": ctx.to_header(),
         **fields},
        payload,
    )
    ((header, body),) = FrameBuffer().feed(frame)
    assert SpanContext.from_header(header["span"]) == ctx
    np.testing.assert_array_equal(decode_array(header, body), arr)
    # frames without the optional span header still decode to None
    bare = encode_frame({"op": "data", "session": "c0#0", **fields},
                        payload)
    ((bare_header, _),) = FrameBuffer().feed(bare)
    assert SpanContext.from_header(bare_header.get("span")) is None


def test_malformed_frames_raise_serve_error():
    with pytest.raises(ServeError):
        decode_frame(b"\x00\x00")  # truncated length
    with pytest.raises(ServeError):
        decode_frame(b"\xff\xff\xff\xff" + b"x" * 16)  # absurd length
    good = encode_frame({"op": "x"}, b"abc")
    with pytest.raises(ServeError):
        decode_frame(good[:-1])  # truncated payload
    with pytest.raises(ServeError):
        encode_frame({"no_op": 1})
    with pytest.raises(ServeError):
        decode_array({"dtype": "float16", "shape": [2]}, b"\x00" * 4)
    with pytest.raises(ServeError):
        decode_array({"dtype": "uint8", "shape": [9]}, b"\x00" * 4)
    # The int64 element product of this shape wraps to 0.
    with pytest.raises(ServeError):
        decode_array({"dtype": "uint8", "shape": [2 ** 62, 4]}, b"")
    # 400 KB of nested arrays: deeper than the JSON parser's stack.
    nested = b"[" * 200_000 + b"]" * 200_000
    deep = struct.pack(">I", len(nested)) + nested + struct.pack(">I", 0)
    with pytest.raises(ServeError):
        decode_frame(deep)
    with pytest.raises(ServeError):
        FrameBuffer().feed(deep)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _wire_bytes(draw):
    """Frames as a peer might send them: random bytes, or a frame of a
    random JSON header and payload with its prefixes optionally
    replaced, then optionally truncated."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=96))
    header = draw(
        st.builds(lambda v: json.dumps(v).encode(), _json)
        | st.binary(max_size=32)
    )
    payload = draw(st.binary(max_size=32))
    hlen = draw(st.none() | st.integers(0, 2 ** 32 - 1))
    plen = draw(st.none() | st.integers(0, 2 ** 32 - 1))
    data = (
        struct.pack(">I", len(header) if hlen is None else hlen) + header
        + struct.pack(">I", len(payload) if plen is None else plen)
        + payload
    )
    return data[:draw(st.integers(0, len(data)))]


@given(data=_wire_bytes(), cut=st.integers(0, 128))
@settings(max_examples=300, deadline=None)
def test_frame_decoders_return_or_raise_serve_error(data, cut):
    try:
        decode_frame(data)
    except ServeError:
        pass
    buf = FrameBuffer()
    try:
        buf.feed(data[:cut])
        buf.feed(data[cut:])
    except ServeError:
        pass


@given(
    dtype=st.sampled_from(["uint8", "int64", "float64", "float16", ""])
    | st.none() | st.integers() | st.lists(st.text(max_size=4)),
    shape=st.none() | st.integers() | st.lists(
        st.integers(-2, 2 ** 70) | st.booleans() | st.floats()
        | st.text(max_size=2),
        max_size=70,
    ),
    payload=st.binary(max_size=64),
)
@settings(max_examples=300, deadline=None)
def test_decode_array_returns_or_raises_serve_error(dtype, shape, payload):
    try:
        arr = decode_array({"dtype": dtype, "shape": shape}, payload)
    except ServeError:
        return
    assert arr.nbytes == len(payload) and list(arr.shape) == shape


def test_frame_buffer_bounds_payload_length_at_once():
    # The payload prefix alone is enough to refuse the frame: nothing
    # waits for (or buffers) the 64 MiB+ it announces.
    blob = json.dumps({"op": "data"}).encode()
    prefix = (
        struct.pack(">I", len(blob)) + blob
        + struct.pack(">I", MAX_FRAME_BYTES + 1)
    )
    with pytest.raises(ServeError, match="payload length"):
        FrameBuffer().feed(prefix)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
def test_registry_publish_resolve_activate():
    reg = _registry()
    assert reg.active_version == "v1"  # first publish auto-activates
    assert reg.versions() == ["v1", "v2"]
    assert reg.resolve(None) == "v1"
    reg.activate("v2")
    assert reg.resolve(None) == "v2"
    assert reg.resolve("v1") == "v1"  # explicit pin survives the swap
    m1 = reg.meter("v1", 8)
    assert reg.meter("v1", 8) is m1  # cached per (version, T)
    assert reg.meter("v1", 4) is not m1


def test_registry_unknown_version_is_a_clear_error():
    reg = _registry()
    with pytest.raises(ServeError, match=r"unknown model version 'v9'"):
        reg.get("v9")
    with pytest.raises(ServeError, match=r"\['v1', 'v2'\]"):
        reg.resolve("v9")
    with pytest.raises(ServeError):
        ModelRegistry().resolve(None)  # nothing active yet


def test_registry_versions_are_immutable_and_names_validated():
    reg = _registry()
    with pytest.raises(ServeError, match="already published"):
        reg.publish("v1", _qmodel(seed=9))
    for bad in ("", "a/b", "a\\b", "ACTIVE", "x\ny"):
        with pytest.raises(ServeError, match="invalid model version"):
            reg.publish(bad, _qmodel(seed=9))


def test_registry_disk_round_trip(tmp_path):
    root = tmp_path / "reg"
    reg = ModelRegistry(root)
    reg.publish("v1", _qmodel(seed=0), activate=True)
    reg.publish("v2", _qmodel(seed=1))
    reg.activate("v2")

    back = ModelRegistry.open(root)
    assert back.versions() == ["v1", "v2"]
    assert back.active_version == "v2"
    np.testing.assert_array_equal(
        back.get("v1").int_weights, reg.get("v1").int_weights
    )
    # a stale ACTIVE pointer is rejected, not silently ignored
    (root / "ACTIVE").write_text("gone\n")
    with pytest.raises(ServeError, match="unknown version 'gone'"):
        ModelRegistry.open(root)


# --------------------------------------------------------------------- #
# Push sources and the gateway lifecycle
# --------------------------------------------------------------------- #
def test_push_source_backpressure_drops_oldest():
    src = PushSource(q=3, max_pending=2)
    a, b, c = (_toggles(3, 4, seed=i) for i in range(3))
    assert src.push(a)
    assert src.push(b)
    assert not src.push(c)  # a dropped
    assert src.dropped_blocks == 1 and src.dropped_cycles == 4
    src.close()
    blocks = list(src)
    np.testing.assert_array_equal(blocks[0].toggles, b)
    np.testing.assert_array_equal(blocks[1].toggles, c)


def test_push_source_rejects_bad_input():
    src = PushSource(q=3)
    with pytest.raises(ServeError):
        src.push(np.zeros((4, 2), dtype=np.uint8))  # wrong q
    with pytest.raises(ServeError):
        src.push(np.zeros((0, 3), dtype=np.uint8))  # empty chunk
    src.close()
    with pytest.raises(ServeError):
        src.push(_toggles(3, 2))  # closed


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[2, 0, 0, 0]], dtype=np.uint8),
        [[2, 0, 0, 0]],
        [[256, -1, 0, 0], [0, 0, 0, 1]],  # a cast wraps to 0 and 255
        np.array([[0.5, 0.0, 0.0, 1.0]]),
    ],
)
def test_push_rejects_non_binary_toggles(bad):
    # Refused before anything is buffered or a sequence number is
    # consumed; the session then serves its real data unharmed.
    reg = _registry(q=4, seed=7)
    gw = Gateway(reg, n_shards=1, t=4)
    client = InprocClient(gw)
    name = client.open("c0")
    with pytest.raises(ServeError, match="0 or 1"):
        gw.push(name, bad, seq=0)
    with pytest.raises(ServeError, match="0 or 1"):
        client.push(name, bad)
    handle = gw.handles[name]
    assert handle.push.pending == 0 and handle.push.cycles_pushed == 0
    assert handle.client_seq == 0
    stim = _toggles(4, 16, seed=9)
    client.push(name, stim, last=True)
    gw.drain()
    np.testing.assert_array_equal(
        client.windows(name).view(np.uint8),
        reg.meter("v1", 4).read(stim).view(np.uint8),
    )


def test_gateway_session_lifecycle_push_mode():
    """connect -> pump -> drain -> close, bit-identical to offline."""
    reg = _registry(q=4)
    gw = Gateway(reg, n_shards=2, t=4)
    client = InprocClient(gw)
    name = client.open("core0")
    stim = _toggles(4, 37, seed=5)
    for i in range(0, 37, 8):
        client.push(name, stim[i:i + 8])
    assert gw.has_live_sessions
    client.close(name)
    gw.drain()

    handle = gw.handles[name]
    assert handle.done
    assert handle.session.cycles_processed == 37
    meter = reg.meter("v1", 4)
    np.testing.assert_array_equal(client.windows(name), meter.read(stim))
    # exact integer accounting
    assert handle.attributed_sum_int == int(meter.per_cycle(stim).sum())
    stats = client.stats(name)
    assert stats["done"] and stats["cycles"] == 37
    assert stats["model_version"] == "v1"


def test_attributed_sum_is_exact_past_int64():
    """The widest weights admission allows (B=55 at Q=24, T=8: a 64-bit
    accumulator) overflow int64 over a 64-cycle session; the session
    total, its mean and the fleet energy stay exact."""
    q, bits = 24, 55
    qm = QuantizedModel(
        proxies=np.arange(q, dtype=np.int64),
        int_weights=np.full(q, (1 << 54) - 1, dtype=np.int64),
        int_intercept=0,
        step=0.01,
        bits=bits,
    )
    assert qm.accumulator_bits(8) == 64
    reg = ModelRegistry()
    reg.publish("v1", qm, activate=True)
    gw = Gateway(reg, n_shards=1, t=8)
    client = InprocClient(gw)
    name = client.open("core0")
    stim = np.ones((64, q), dtype=np.uint8)
    client.push(name, stim, last=True)
    gw.drain()

    meter = reg.meter("v1", 8)
    np.testing.assert_array_equal(client.windows(name), meter.read(stim))
    exact = sum(int(v) for v in meter.per_cycle(stim).tolist())
    assert exact > (1 << 63)
    handle = gw.handles[name]
    assert handle.attributed_sum_int == exact
    assert handle.mean_mw == exact * qm.step / 64
    assert build_report(gw).total_energy_mwc == exact * qm.step


def test_gateway_rejects_misuse():
    reg = _registry()
    gw = Gateway(reg, n_shards=1)
    with pytest.raises(ServeError, match="unknown session"):
        gw.push("nope", _toggles(6, 4))
    src_handle = gw.open_session(
        "c0",
        source=[  # a plain iterable source is fine
        ],
    )
    with pytest.raises(ServeError, match="source-backed"):
        gw.push(src_handle, _toggles(6, 4))
    with pytest.raises(ServeError):
        Gateway(reg, n_shards=0)
    with pytest.raises(ServeError):
        gw.open_session("c1", version="v9")


def test_hot_swap_pins_in_flight_sessions():
    reg = _registry(q=4)
    gw = Gateway(reg, n_shards=2, t=4)
    client = InprocClient(gw)
    old = client.open("c0")
    gw.swap_model("v2")
    new = client.open("c1")
    assert gw.handles[old].version == "v1"
    assert gw.handles[new].version == "v2"
    stim = _toggles(4, 16, seed=2)
    for n in (old, new):
        client.push(n, stim, last=True)
    gw.drain()
    np.testing.assert_array_equal(
        client.windows(old), reg.meter("v1", 4).read(stim)
    )
    np.testing.assert_array_equal(
        client.windows(new), reg.meter("v2", 4).read(stim)
    )


# --------------------------------------------------------------------- #
# The acceptance property: sharded + hot swap + shard death + pool ==
# single-process StreamService, bit for bit, on every engine.
# --------------------------------------------------------------------- #
def _offline_windows(nl, qmodel, stim, t):
    res = Simulator(nl, engine="uint8").run(
        stim, RecordSpec(columns=qmodel.proxies)
    )
    return OpmMeter(qmodel, t=t).read(res.columns[0])


@pytest.mark.parametrize("engine", SIM_PATHS, indirect=True)
def test_gateway_bit_identical_through_swap_and_shard_death(engine):
    nl = random_netlist(11, n_gates=50)
    reg = ModelRegistry()
    reg.publish("v1", _qmodel(q=5, seed=11, nl=nl), activate=True)
    reg.publish("v2", _qmodel(q=5, seed=12, nl=nl))
    t = 4
    gw = Gateway(reg, n_shards=3, t=t)

    rng = np.random.default_rng(13)
    stims = [
        rng.integers(0, 2, size=(57 + 7 * i, len(nl.input_ids)),
                     dtype=np.uint8)
        for i in range(4)
    ]
    handles = []
    for i, stim in enumerate(stims):
        if i == 2:
            gw.swap_model("v2")  # sessions 2,3 pin v2
        version = reg.resolve(None)
        source = SimulatorSource(
            nl, reg.get(version).proxies, stim,
            chunk_cycles=16, engine=engine,
        )
        handles.append(gw.open_session(f"core{i}", source=source))

    ticks = 0
    alive = True
    while alive:
        if ticks == 1:
            gw.kill_shard(0)  # mid-flight death; respawns next tick
        alive = gw.tick()
        ticks += 1
        assert ticks < 1000

    assert gw.shards[0].respawns == 1
    snap = gw.snapshot()
    assert snap["counters"]["serve.shard.respawns"] == 1
    for i, (handle, stim) in enumerate(zip(handles, stims)):
        qmodel = reg.get(handle.version)
        expected = _offline_windows(nl, qmodel, stim, t)
        got = handle.pop_windows()
        np.testing.assert_array_equal(
            got.view(np.uint8), expected.view(np.uint8)
        )
        assert handle.session.cycles_processed == stim.shape[0]
        assert handle.version == ("v1" if i < 2 else "v2")


def _pool_fleet(pool):
    reg = _registry(q=4, seed=3)
    stim = _toggles(4, 96, seed=8)
    gw = Gateway(reg, n_shards=2, t=4, pool=pool)
    client = InprocClient(gw)
    names = [client.open(f"c{i}") for i in range(4)]
    for n in names:
        client.push(n, stim, last=True)
    gw.drain()
    return np.concatenate([client.windows(n) for n in names])


def test_gateway_pool_inference_bit_identical():
    from repro.parallel import WorkerPool

    inline = _pool_fleet(None)
    with WorkerPool(workers=2, transport="shm") as pool:
        pooled = _pool_fleet(pool)
        assert pool.plane.requests.ticks > 0  # units were staged
    np.testing.assert_array_equal(
        inline.view(np.uint8), pooled.view(np.uint8)
    )


def test_gateway_on_pool_without_shm_plane_serves_inline():
    """Placement rule: a pool without a shared-memory plane never
    receives a tick's GEMV, and the readings match ``pool=None``."""
    from repro.parallel import WorkerPool

    inline = _pool_fleet(None)
    calls = []

    def refuse(*args, **kw):
        calls.append(args)
        raise RuntimeError("a pickle pool must not serve ticks")

    with WorkerPool(workers=2, transport="pickle") as pool:
        pool.map = refuse
        pooled = _pool_fleet(pool)
    assert calls == []
    np.testing.assert_array_equal(
        inline.view(np.uint8), pooled.view(np.uint8)
    )


def test_postmortem_dump_on_injected_shard_death(tmp_path):
    """Killing a shard must leave a readable post-mortem on disk.

    The flight recorder's rings (recent window readings, finished
    spans, the health transition itself) land atomically in
    ``postmortem-shard-0-failed.json``; a later death with the same
    reason must not overwrite the first capture.
    """
    from repro.obs import FlightRecorder, Tracer, load_postmortem

    reg = _registry(q=4, seed=3)
    recorder = FlightRecorder(capacity=64)
    gw = Gateway(
        reg, n_shards=2, t=4, tracer=Tracer(),
        flight_recorder=recorder, postmortem_dir=tmp_path,
    )
    client = InprocClient(gw)
    names = [client.open(f"c{i}") for i in range(4)]
    stim = _toggles(4, 32, seed=5)
    for n in names:
        client.push(n, stim, last=True)
    gw.drain()

    gw.kill_shard(0, "injected crash")
    pm = tmp_path / "postmortem-shard-0-failed.json"
    assert pm.exists()
    doc = load_postmortem(pm)
    assert "shard-0" in doc["reason"]
    assert "injected crash" in doc["reason"]
    # the shard's own lane holds its ok -> failed transition
    shard_events = doc["lanes"]["shard-0"]
    assert any(
        e["kind"] == "health" and e["new"] == "failed"
        for e in shard_events
    )
    # window readings streamed before the death are in the evidence
    all_events = [e for lane in doc["lanes"].values() for e in lane]
    windows = [e for e in all_events if e["kind"] == "windows"]
    assert windows and all(e["windows"] for e in windows)
    # traced gateway spans made it into the rings too
    assert any(e["kind"] == "span" for e in all_events)
    assert gw.metrics.counters["serve.postmortems"].value == 1

    # respawn, then die again for the same reason: evidence is kept
    gw.tick()
    assert not gw.shards[0].health.failed
    gw.kill_shard(0, "injected crash")
    assert load_postmortem(pm)["reason"] == doc["reason"]
    assert gw.metrics.counters["serve.postmortems"].value == 1
    assert gw.metrics.counters["serve.health.demotions"].value == 2


def test_all_shards_failed_cannot_accept():
    reg = _registry()
    gw = Gateway(reg, n_shards=2)
    gw.kill_shard(0)
    gw.kill_shard(1)
    with pytest.raises(ServeError, match="every shard is failed"):
        gw.open_session("c0")
    # but the next tick respawns them and service resumes
    gw.tick()
    gw.open_session("c0")


def test_router_slot_is_stable_and_drains_past_failed():
    reg = _registry()
    gw = Gateway(reg, n_shards=4)
    slot = ShardRouter.slot("c7", "v1", 4)
    assert slot == ShardRouter.slot("c7", "v1", 4)  # process-stable
    gw.shards[slot].kill("test")
    shard = gw.router.shard_for("c7", "v1")
    assert shard.index == (slot + 1) % 4  # ring probe past the corpse


def test_router_drain_wraps_past_end_of_ring():
    """Home + successors dead: the probe wraps modulo the fleet size."""
    gw = Gateway(_registry(), n_shards=4)
    slot = ShardRouter.slot("c7", "v1", 4)
    for k in range(3):  # kill the home shard and the next two in ring
        gw.shards[(slot + k) % 4].kill("test")
    shard = gw.router.shard_for("c7", "v1")
    assert shard.index == (slot + 3) % 4
    assert shard.accepting


def test_router_all_failed_is_hard_error():
    gw = Gateway(_registry(), n_shards=3)
    for shard in gw.shards:
        shard.kill("test")
    with pytest.raises(ServeError, match="every shard is failed"):
        gw.router.shard_for("c7", "v1")
    # respawn brings the fleet back and routing resumes at the home slot
    assert gw.router.respawn_dead() == 3
    shard = gw.router.shard_for("c7", "v1")
    assert shard.index == ShardRouter.slot("c7", "v1", 3)


# --------------------------------------------------------------------- #
# Load generator
# --------------------------------------------------------------------- #
def test_loadgen_plan_is_seed_stable():
    cfg = LoadGenConfig(n_sessions=3, cycles=40, chunk_cycles=16, seed=9)
    a, b = plan(cfg, q=5), plan(cfg, q=5)
    assert [p.core_id for p in a] == [p.core_id for p in b]
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.stimulus, pb.stimulus)
    c = plan(LoadGenConfig(
        n_sessions=3, cycles=40, chunk_cycles=16, seed=10), q=5)
    assert not all(
        np.array_equal(pa.stimulus, pc.stimulus) for pa, pc in zip(a, c)
    )


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_loadgen_readings_are_seed_stable_end_to_end(mode):
    cfg = LoadGenConfig(
        n_sessions=4, cycles=64, chunk_cycles=16, seed=21, mode=mode
    )

    def once():
        gw = Gateway(_registry(q=5, seed=2), n_shards=2, t=8)
        return run_load(gw, cfg)

    r1, r2 = once(), once()
    assert r1.cycles_total == r2.cycles_total == 4 * 64
    assert r1.dropped_blocks == 0
    assert sorted(r1.readings) == sorted(r2.readings)
    for name in r1.readings:
        np.testing.assert_array_equal(
            r1.readings[name].view(np.uint8),
            r2.readings[name].view(np.uint8),
        )
    assert r1.sessions_per_sec > 0
    d = r1.to_dict()
    assert d["mode"] == mode and d["windows_total"] == r1.windows_total


def test_loadgen_validates_config():
    with pytest.raises(ServeError):
        LoadGenConfig(n_sessions=0)
    with pytest.raises(ServeError):
        LoadGenConfig(mode="sideways")
    with pytest.raises(ServeError):
        LoadGenConfig(density=1.5)


# --------------------------------------------------------------------- #
# Fleet report
# --------------------------------------------------------------------- #
def _served_fleet():
    reg = _registry(q=4, seed=5)
    gw = Gateway(reg, n_shards=2, t=4)
    run_load(gw, LoadGenConfig(
        n_sessions=3, cycles=48, chunk_cycles=16, seed=4))
    gw.swap_model("v2")
    run_load(gw, LoadGenConfig(
        n_sessions=2, cycles=48, chunk_cycles=16, seed=5))
    return reg, gw


def test_fleet_report_totals_are_exact():
    reg, gw = _served_fleet()
    fleet = build_report(gw)
    assert fleet.n_sessions == 5
    assert fleet.total_cycles == 5 * 48
    assert fleet.model_swaps == 1
    # exact: report total == sum of per-session integer sums x step
    expected = sum(
        h.attributed_sum_int * h.qmodel.step
        for h in gw.handles.values()
    )
    assert fleet.total_energy_mwc == expected
    by_version = fleet.by_version()
    assert by_version["v1"]["sessions"] == 3
    assert by_version["v2"]["sessions"] == 2


def test_session_window_counts_match_popped_and_offline():
    reg = _registry(q=4, seed=3)
    gw = Gateway(reg, n_shards=2, t=4)
    client = InprocClient(gw)
    stims = {
        client.open(f"core{k}"): _toggles(4, 30 + 7 * k, seed=k)
        for k in range(3)
    }
    popped = dict.fromkeys(stims, 0)
    for name, stim in stims.items():
        for i in range(0, len(stim), 8):
            client.push(name, stim[i:i + 8])
        client.close(name)
    gw.tick()
    gw.kill_shard(0)
    for _ in range(2):
        gw.tick()
        for name in stims:
            popped[name] += client.windows(name).size
    gw.drain()
    for name in stims:
        popped[name] += client.windows(name).size
        assert client.stats(name)["windows"] == popped[name] > 0
    meter = OpmMeter(reg.get("v1"), t=4)
    assert build_report(gw).total_windows == sum(
        meter.read(stim).size for stim in stims.values()
    )


def test_fleet_report_ranking_and_units():
    _reg, gw = _served_fleet()
    fleet = build_report(gw)
    ranked = fleet.ranked("energy")
    energies = [r["attributed_sum_int"] * r["step"] for r in ranked]
    assert energies == sorted(energies, reverse=True)
    with pytest.raises(ServeError):
        fleet.ranked("vibes")
    units = fleet.by_unit()
    assert "(intercept)" in units
    # unit rollup conserves energy exactly (same int x step terms)
    assert abs(sum(units.values()) - fleet.total_energy_mwc) < 1e-9
    labels = {v: [f"u{j % 2}" for j in range(4)] for v in ("v1", "v2")}
    named = fleet.by_unit(labels)
    assert set(named) == {"u0", "u1", "(intercept)"}


def test_fleet_report_round_trips_and_renders():
    _reg, gw = _served_fleet()
    fleet = build_report(gw)
    data = json.loads(json.dumps(fleet.to_dict()))
    back = FleetReport.from_dict(data)
    assert back.n_sessions == fleet.n_sessions
    assert back.total_energy_mwc == fleet.total_energy_mwc
    md = back.render_markdown(k=3)
    assert "# Fleet power report" in md
    assert "| session |" in md and "v2" in md
    with pytest.raises(ServeError, match="not a fleet report"):
        FleetReport.from_dict({"schema": "nope"})


# --------------------------------------------------------------------- #
# Health and metrics surfacing
# --------------------------------------------------------------------- #
def test_shard_health_gauges_in_snapshot():
    reg = _registry()
    gw = Gateway(reg, n_shards=2)
    gw.kill_shard(1)
    snap = gw.snapshot()
    assert snap["gauges"]["serve.shard.health.0"] == 0
    assert snap["gauges"]["serve.shard.health.1"] == 2
    assert snap["gauges"]["serve.shard.health"] == 2  # worst wins
    gw.tick()  # respawn
    snap = gw.snapshot()
    assert snap["gauges"]["serve.shard.health"] == 0
    assert snap["shards"][1]["respawns"] == 1


def test_stream_service_session_health_gauges():
    """Per-session health + drop accounting in the service snapshot."""
    reg = _registry(q=4)
    gw = Gateway(reg, n_shards=1, t=4)
    client = InprocClient(gw)
    name = client.open("c0")
    client.push(name, _toggles(4, 8), last=True)
    gw.drain()
    snap = gw.shards[0].service.snapshot()
    assert snap["gauges"][f"stream.session.health.{name}"] == 0
    assert snap["gauges"][f"stream.session.dropped_blocks.{name}"] == 0
    assert snap["gauges"]["stream.service.health"] == 0


def test_worker_pool_health_gauge():
    from repro.parallel import WorkerPool

    with WorkerPool(workers=1) as pool:
        snap = pool.metrics.snapshot()
        assert snap["gauges"]["parallel.pool.health"] == 0


def test_health_state_numeric_code():
    from repro.resilience import HealthState

    h = HealthState()
    assert h.code == 0
    h.degrade("x")
    assert h.code == 1
    h.fail("y")
    assert h.code == 2


# --------------------------------------------------------------------- #
# asyncio transport
# --------------------------------------------------------------------- #
def test_tcp_gateway_end_to_end():
    reg = _registry(q=4, seed=7)
    gw = Gateway(reg, n_shards=2, t=4)
    stim = _toggles(4, 40, seed=9)

    async def scenario():
        server = GatewayServer(gw)
        await server.start()
        try:
            client = await AsyncTelemetryClient.connect(
                "127.0.0.1", server.port
            )
            session = await client.open("tcp-core")
            for i in range(0, 40, 16):
                await client.send(
                    session, stim[i:i + 16], last=i + 16 >= 40
                )
            windows, stats = await client.collect(session)
            await client.aclose()
            return windows, stats
        finally:
            await server.close()

    windows, stats = asyncio.run(scenario())
    np.testing.assert_array_equal(
        windows.view(np.uint8),
        reg.meter("v1", 4).read(stim).view(np.uint8),
    )
    assert stats["cycles"] == 40 and stats["done"]


def test_tcp_gateway_rejects_unknown_version():
    reg = _registry()
    gw = Gateway(reg, n_shards=1)

    async def scenario():
        server = GatewayServer(gw)
        await server.start()
        try:
            client = await AsyncTelemetryClient.connect(
                "127.0.0.1", server.port
            )
            with pytest.raises(ServeError, match="unknown model version"):
                await client.open("c0", version="v9")
            await client.aclose()
        finally:
            await server.close()

    asyncio.run(scenario())


def test_tcp_gateway_rejects_hostile_length_prefix():
    # A 4 GiB header-length prefix is refused before any body is read:
    # the sender gets an error frame and a closed connection, while a
    # well-behaved client of the same server keeps being served.
    reg = _registry(q=4, seed=7)
    gw = Gateway(reg, n_shards=2, t=4)
    stim = _toggles(4, 40, seed=9)

    async def scenario():
        server = GatewayServer(gw)
        await server.start()
        try:
            client = await AsyncTelemetryClient.connect(
                "127.0.0.1", server.port
            )
            session = await client.open("good-core")
            await client.send(session, stim[:16])
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"\xff\xff\xff\xff")
            await writer.drain()
            header, _payload = await asyncio.wait_for(
                read_frame(reader), timeout=10
            )
            assert header["op"] == "error"
            assert "exceeds bound" in header["message"]
            # ... and the server hung up on the offender.
            assert await asyncio.wait_for(reader.read(), timeout=10) == b""
            writer.close()
            await client.send(session, stim[16:], last=True)
            windows, stats = await client.collect(session)
            await client.aclose()
            return windows, stats
        finally:
            await server.close()

    windows, stats = asyncio.run(scenario())
    np.testing.assert_array_equal(
        windows.view(np.uint8),
        reg.meter("v1", 4).read(stim).view(np.uint8),
    )
    assert stats["cycles"] == 40 and stats["done"]


def test_metrics_port_refuses_an_unbounded_request_head():
    # The metrics side port shares the event loop with the tick pump:
    # a head that never reaches its blank line gets a 4xx (or a closed
    # connection) after a bounded read, and the next scrape is served.
    gw = Gateway(_registry(q=4, seed=7), n_shards=1, t=4)

    async def scenario():
        server = GatewayServer(gw, metrics_port=0)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            pad = b"a" * (64 << 10)  # no blank line, ever
            writer.write(b"GET /metrics HTTP/1.0\r\nX-Pad: " + pad)
            try:
                await writer.drain()
                refused = await asyncio.wait_for(reader.read(), timeout=2)
            except ConnectionError:
                refused = b""
            writer.close()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            scraped = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return refused, scraped
        finally:
            await server.close()

    refused, scraped = asyncio.run(scenario())
    assert refused == b"" or refused.startswith(b"HTTP/1.0 4")
    assert scraped.startswith(b"HTTP/1.0 200")


def test_tcp_gateway_answers_malformed_data_and_keeps_serving():
    # A data frame with a non-binary toggle, and one whose shape's int64
    # element product wraps, each get an error frame; the connection
    # then serves the session's real data.
    reg = _registry(q=4, seed=7)
    gw = Gateway(reg, n_shards=2, t=4)
    stim = _toggles(4, 40, seed=9)
    bad = stim[:16].copy()
    bad[3, 1] = 2

    async def scenario():
        server = GatewayServer(gw)
        await server.start()
        try:
            client = await AsyncTelemetryClient.connect(
                "127.0.0.1", server.port
            )
            session = await client.open("c0")
            for fields, payload in (
                encode_array(bad),
                ({"dtype": "uint8", "shape": [2 ** 62, 4]}, b""),
            ):
                client.writer.write(encode_frame(
                    {"op": "data", "session": session, **fields}, payload
                ))
                await client.writer.drain()
                header, _payload = await asyncio.wait_for(
                    read_frame(client.reader), timeout=10
                )
                assert header["op"] == "error"
            for i in range(0, 40, 16):
                await client.send(
                    session, stim[i:i + 16], last=i + 16 >= 40
                )
            windows, stats = await client.collect(session)
            await client.aclose()
            return windows, stats
        finally:
            await server.close()

    windows, stats = asyncio.run(scenario())
    np.testing.assert_array_equal(
        windows.view(np.uint8),
        reg.meter("v1", 4).read(stim).view(np.uint8),
    )
    assert stats["cycles"] == 40 and stats["done"]


_BAD_HEADERS = [
    {"op": "open", "core": "c", "t": 3},
    {"op": "open", "core": "c", "t": 0},
    {"op": "open", "core": "c", "t": "x"},
    {"op": "open", "core": "c", "t": [1]},
    {"op": "open", "core": "c", "t": 1e300},
    {"op": "open", "core": "c", "t": True},
    {"op": "open", "core": "c", "t": 1.5},
    {"op": "open", "core": "c", "t": 2 ** 2000},
    {"op": "open", "core": "c", "version": [1]},
    {"op": "open", "core": "c", "deadline_ticks": "x"},
    {"op": "open", "core": "c", "deadline_ticks": -1},
    {"op": "open", "core": "c", "priority": "bogus"},
    {"op": "close", "session": [1]},
    {"op": "ping", "session": {"a": 1}},
    {"op": "stats", "session": ["x"]},
]


@pytest.mark.parametrize(
    "bad", _BAD_HEADERS,
    ids=lambda h: f"{h['op']}-" + "-".join(
        f"{k}={v!r:.12}" for k, v in h.items() if k not in ("op", "core")
    ),
)
def test_tcp_gateway_answers_bad_header_and_keeps_serving(bad):
    # Each unusable open field or session name gets an error frame; the
    # same connection then opens a session and is served bit-exactly.
    reg = _registry(q=4, seed=7)
    gw = Gateway(reg, n_shards=2, t=4)
    stim = _toggles(4, 40, seed=9)

    async def scenario():
        server = GatewayServer(gw)
        await server.start()
        try:
            client = await AsyncTelemetryClient.connect(
                "127.0.0.1", server.port
            )
            client.writer.write(encode_frame(bad))
            await client.writer.drain()
            header, _payload = await asyncio.wait_for(
                read_frame(client.reader), timeout=10
            )
            assert header["op"] == "error"
            session = await client.open("c0")
            await client.send(session, stim, last=True)
            windows, stats = await asyncio.wait_for(
                client.collect(session), timeout=10
            )
            await client.aclose()
            return windows, stats
        finally:
            await server.close()

    windows, stats = asyncio.run(scenario())
    np.testing.assert_array_equal(
        windows.view(np.uint8),
        reg.meter("v1", 4).read(stim).view(np.uint8),
    )
    assert stats["cycles"] == 40 and stats["done"]


def test_tcp_hostile_window_size_leaves_other_clients_served():
    # A T=2**2000 session overflows the window accumulator: served, its
    # first data frame would crash the shared tick and so every
    # client's pump.  Its open is refused instead.
    reg = _registry(q=4, seed=7)
    gw = Gateway(reg, n_shards=2, t=4)
    stim = _toggles(4, 40, seed=9)

    async def scenario():
        server = GatewayServer(gw)
        await server.start()
        try:
            honest = await AsyncTelemetryClient.connect(
                "127.0.0.1", server.port
            )
            session = await honest.open("honest")
            await honest.send(session, stim[:16])
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_frame(
                {"op": "open", "core": "hostile", "t": 2 ** 2000}
            ))
            await writer.drain()
            reply, _payload = await asyncio.wait_for(
                read_frame(reader), timeout=10
            )
            fields, payload = encode_array(stim[:16])
            writer.write(encode_frame(
                {"op": "data", "session": reply.get("session", "none"),
                 **fields},
                payload,
            ))
            await writer.drain()
            await honest.send(session, stim[16:], last=True)
            windows, stats = await asyncio.wait_for(
                honest.collect(session), timeout=10
            )
            writer.close()
            await honest.aclose()
            return reply, windows, stats
        finally:
            await server.close()

    reply, windows, stats = asyncio.run(scenario())
    np.testing.assert_array_equal(
        windows.view(np.uint8),
        reg.meter("v1", 4).read(stim).view(np.uint8),
    )
    assert stats["cycles"] == 40 and stats["done"]
    assert reply["op"] == "error" and "accumulator" in reply["message"]


# --------------------------------------------------------------------- #
# Property: random push chunking never breaks bit-identity
# --------------------------------------------------------------------- #
@given(
    seed=st.integers(0, 5_000),
    cycles=st.integers(8, 96),  # >= max T so the offline read is legal
    t=st.sampled_from([1, 2, 4, 8]),
    n_shards=st.integers(1, 4),
)
@settings(max_examples=20, deadline=None)
def test_push_gateway_matches_offline_meter(seed, cycles, t, n_shards):
    reg = ModelRegistry()
    reg.publish("v1", _qmodel(q=4, seed=seed), activate=True)
    gw = Gateway(reg, n_shards=n_shards, t=t)
    client = InprocClient(gw)
    name = client.open(f"core{seed}")
    stim = _toggles(4, cycles, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    i = 0
    while i < cycles:
        step = int(rng.integers(1, 17))
        client.push(name, stim[i:i + step])
        i += step
        if rng.random() < 0.5:
            gw.tick()  # interleave pumping with pushing
    client.close(name)
    gw.drain()
    np.testing.assert_array_equal(
        client.windows(name).view(np.uint8),
        OpmMeter(reg.get("v1"), t=t).read(stim).view(np.uint8),
    )

"""Repository benchmark: the APOLLO training pipeline and the serving fleet.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``train`` trains a power model end to
end per op and deploys it; ``fleet-gateway`` and ``fleet-shm`` serve a
seeded fleet per op through a fresh gateway, in process and on a
shared-memory worker pool.

One run sets up, makes the seeded inputs, runs one untimed warm-up op,
then runs ops for ``--seconds`` seconds (at least ``MIN_OPS``), timing
further set-ups at evenly spaced points of that window (the workload's
``setup_repeats`` in all).  Every op's outputs are checked against an
independent oracle outside the timed region.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics:

* ``best_op_ms`` -- for each of the run's inputs the fastest op on it,
  averaged over the inputs.  On a shared 2-vCPU VM, fixed work was
  measured running up to 2x slower for stretches of tens of seconds;
  the fastest of many short ops tracks the program's own cost, where a
  median tracks the neighbours' load.
* ``setup_s`` -- the median of the run's set-up times.

``--trace 1`` records a span around every call into a layer and reports
per-layer busy time (median over ops, or over set-ups for layers that
only run there) plus work counts, and writes the trace to
``.perfbench/<workload>.trace.json``.

Everything the run writes stays under ``.perfbench/`` in the checkout.
BLAS and OpenMP are pinned to one thread so runs on a shared host stay
comparable.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

MIN_OPS = 6


def parse_args(argv, workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout, and pin
    native thread pools (must happen before NumPy is imported)."""
    STATE_DIR.mkdir(exist_ok=True)
    os.environ["REPRO_ARTIFACTS_DIR"] = str(STATE_DIR / "artifacts")
    os.environ["REPRO_CC_CACHE"] = str(STATE_DIR / "cc")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def layer_metrics(roots, layers, counts) -> dict:
    """Per-layer busy time and work counts from the traced run.

    For each ``setup``/``op`` root span, a layer's value is the summed
    self time of its spans under that root (self time = duration minus
    the part covered by child spans); a count is the summed span
    attribute.  The reported value is the median over the roots where
    the layer ran.
    """
    busy: dict[str, list[float]] = {name: [] for name in layers}
    tally: dict[str, list[float]] = {name: [] for name in counts}
    for root in roots:
        if root.name not in ("setup", "op"):
            continue
        root_busy: dict[str, float] = {}
        root_tally: dict[str, float] = {}
        stack = list(root.children)
        while stack:
            span = stack.pop()
            stack.extend(span.children)
            self_time = span.duration - sum(c.duration for c in span.children)
            root_busy[span.name] = root_busy.get(span.name, 0.0) + self_time
            for key in counts:
                if key in span.attrs:
                    root_tally[key] = root_tally.get(key, 0) + span.attrs[key]
        for name, value in root_busy.items():
            if name in busy:
                busy[name].append(value)
        for key, value in root_tally.items():
            tally[key].append(value)
    missing = [n for n, v in {**busy, **tally}.items() if not v]
    if missing:
        raise RuntimeError(f"layers never measured: {missing}")
    out = {
        f"{name}_ms": {"value": statistics.median(v) * 1e3, "unit": "ms"}
        for name, v in busy.items()
    }
    out.update({
        key: {"value": statistics.median(v), "unit": "count"}
        for key, v in tally.items()
    })
    return out


def _stop_helpers() -> None:
    """Wait for every helper process the run started: pool workers are
    joined by their pool; shared-memory use also starts the
    multiprocessing resource tracker, which is stopped here."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from "
            "a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    _prepare_environment()

    from repro.obs.trace import NULL_TRACER, Tracer

    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NULL_TRACER

    def timed_setup() -> dict:
        gc.collect()
        with tracer.span("setup"):
            t0 = time.perf_counter()
            made = wl.setup(args.seed, tracer)
            setup_s.append(time.perf_counter() - t0)
        return made

    setup_s: list[float] = []
    state = timed_setup()
    wl.prepare(state)

    attempted = failed = 0
    best: dict[int, float] = {}

    def attempt(k: int, root: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        i = k % wl.n_inputs
        gc.collect()
        with tracer.span(root):
            t0 = time.perf_counter()
            outputs = wl.op(state, i, tracer)
            elapsed = time.perf_counter() - t0
        try:
            wl.check(state, outputs)
        except workloads.CheckError as exc:
            failed += 1
            print(f"perfbench: op {k} failed its check: {exc}",
                  file=sys.stderr)
            return
        if root == "op":
            best[i] = min(elapsed, best.get(i, elapsed))

    try:
        attempt(0, "warmup")
        # Set-up is repeated at evenly spaced points of the run (each
        # extra one is torn down at once), so its median does not hang
        # on the host's speed at one moment.
        repeats = wl.setup_repeats
        start = time.perf_counter()
        k = 1
        while (
            k <= MIN_OPS
            or len(setup_s) < repeats
            or time.perf_counter() - start < args.seconds
        ):
            due = (time.perf_counter() - start) * repeats / args.seconds
            if len(setup_s) < repeats and len(setup_s) <= due:
                wl.teardown(timed_setup())
            else:
                attempt(k, "op")
                k += 1
    finally:
        wl.teardown(state)
        _stop_helpers()

    if args.trace:
        metrics = layer_metrics(
            tracer.roots,
            workloads.PIPELINE_LAYERS + workloads.SERVE_LAYERS,
            workloads.COUNTS,
        )
        tracer.to_chrome(STATE_DIR / f"{args.workload}.trace.json")
    elif best:
        metrics = {
            "best_op_ms": {
                "value": statistics.mean(best.values()) * 1e3, "unit": "ms",
            },
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    else:
        metrics = {}
    print(
        f"perfbench: {args.workload} seed={args.seed}: {attempted} ops, "
        f"{failed} failed, set-ups "
        f"{' '.join(f'{x:.3f}' for x in setup_s)} s",
        file=sys.stderr,
    )
    correct = failed == 0 and len(best) == wl.n_inputs
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

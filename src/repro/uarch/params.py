"""Core parameter presets.

Two presets mirror the paper's two validation targets:

* ``N1_LIKE`` — a server-class out-of-order core (the Neoverse-N1 role);
* ``A77_LIKE`` — a wider mobile-class core with a bigger vector engine and
  larger queues (the Cortex-A77 role, ~2x the RTL signal count).

The absolute sizes are scaled to what a NumPy gate-level simulation can
sweep in minutes; the *relative* relationship (A77-like is wider and
larger) is what Fig. 12 needs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

from repro.errors import ReproError

__all__ = ["ThrottleScheme", "CoreParams", "N1_LIKE", "A77_LIKE", "M0_LIKE"]


def _check(params, name: str, low: int) -> None:
    """Raise unless the field ``name`` is an integer ``>= low``."""
    v = getattr(params, name)
    if not isinstance(v, numbers.Integral) or v < low:
        raise ReproError(
            f"{type(params).__name__}.{name} must be an integer >= {low}, "
            f"got {v!r}"
        )


@dataclass(frozen=True)
class ThrottleScheme:
    """An issue-throttling scheme (Table 4's throttling_{1,2,3}).

    ``max_issue`` caps total issue width while active; ``period`` and
    ``duty`` define a deterministic on/off pattern (active for
    ``duty * period`` cycles of every ``period``); ``block_vector`` stalls
    vector issue entirely while active.
    """

    max_issue: int | None = None
    period: int = 1
    duty: float = 1.0
    block_vector: bool = False

    def __post_init__(self) -> None:
        if self.max_issue is not None:
            _check(self, "max_issue", 1)
        _check(self, "period", 1)
        if not 0 <= self.duty <= 1:
            raise ReproError(
                f"ThrottleScheme.duty must be in [0, 1], got {self.duty!r}"
            )

    def active(self, cycle: int) -> bool:
        if self.period <= 1:
            return True
        return (cycle % self.period) < self.duty * self.period


@dataclass(frozen=True)
class CoreParams:
    """Parameters of the synthetic out-of-order core."""

    name: str = "n1-like"
    # Widths.
    fetch_width: int = 4
    issue_width: int = 4
    retire_width: int = 4
    # Execution resources.
    n_alu: int = 2
    n_mul: int = 1
    n_vec: int = 1
    vec_lanes: int = 4
    lsu_ports: int = 1
    # Window sizes.
    iq_size: int = 16
    rob_size: int = 32
    fetch_buffer: int = 8
    # Latencies (cycles).
    alu_latency: int = 1
    mul_latency: int = 3
    vec_latency: int = 2
    vmul_latency: int = 4
    l1_hit_latency: int = 2
    l2_hit_latency: int = 8
    mem_latency: int = 24
    # Caches (word-granular geometry).
    l1i_sets: int = 16
    l1i_assoc: int = 2
    l1i_line: int = 8
    l1d_sets: int = 16
    l1d_assoc: int = 4
    l1d_line: int = 8
    l2_sets: int = 64
    l2_assoc: int = 8
    l2_line: int = 8
    # Branch prediction.
    bp_entries: int = 64
    mispredict_penalty: int = 6
    # Miss handling.
    max_outstanding_misses: int = 4
    # Clock gating hysteresis: a unit's clock stays enabled this many
    # cycles after its last activity.
    gate_hysteresis: int = 1
    # Optional issue throttling (None = unthrottled).
    throttle: ThrottleScheme | None = None

    def __post_init__(self) -> None:
        for name in _AT_LEAST_ONE:
            _check(self, name, 1)
        for name in ("mispredict_penalty", "gate_hysteresis"):
            _check(self, name, 0)
        # decode/valid carries one bit per instruction dispatched in a
        # cycle, in a channel of at most 64 bits.
        if self.issue_width > 64:
            raise ReproError(
                f"CoreParams.issue_width must be <= 64, "
                f"got {self.issue_width!r}"
            )
        for cache in ("l1i", "l1d", "l2"):
            for geometry in ("sets", "line"):
                name = f"{cache}_{geometry}"
                n = getattr(self, name)
                if n & (n - 1):
                    raise ReproError(
                        f"CoreParams.{name} must be a power of two, got {n!r}"
                    )

    def with_throttle(self, scheme: ThrottleScheme | None) -> "CoreParams":
        return replace(self, throttle=scheme)

    @property
    def unit_names(self) -> list[str]:
        """Functional unit tags, shared with the design generator."""
        units = ["fetch", "decode", "rename", "issue", "rob"]
        units += [f"alu{i}" for i in range(self.n_alu)]
        units += [f"mul{i}" for i in range(self.n_mul)]
        units += [f"vec{i}" for i in range(self.n_vec)]
        units += [f"lsu{i}" for i in range(self.lsu_ports)]
        units += ["l2ctl"]
        return units


#: Fields that count something every cycle needs at least one of:
#: widths, units, lanes, window sizes, latencies, cache geometry,
#: predictor entries and miss slots.
_AT_LEAST_ONE = (
    "fetch_width", "issue_width", "retire_width",
    "n_alu", "n_mul", "n_vec", "vec_lanes", "lsu_ports",
    "iq_size", "rob_size", "fetch_buffer",
    "alu_latency", "mul_latency", "vec_latency", "vmul_latency",
    "l1_hit_latency", "l2_hit_latency", "mem_latency",
    "l1i_sets", "l1i_assoc", "l1i_line",
    "l1d_sets", "l1d_assoc", "l1d_line",
    "l2_sets", "l2_assoc", "l2_line",
    "bp_entries", "max_outstanding_misses",
)


N1_LIKE = CoreParams(
    name="n1-like",
)

#: A little, narrow, in-order-ish embedded core (the "diverse compute
#: units" retargeting demo: same generator, same automated APOLLO
#: pipeline, radically different design point).
M0_LIKE = CoreParams(
    name="m0-like",
    fetch_width=1,
    issue_width=1,
    retire_width=1,
    n_alu=1,
    n_mul=1,
    n_vec=1,
    vec_lanes=2,
    lsu_ports=1,
    iq_size=2,
    rob_size=4,
    fetch_buffer=2,
    l1i_sets=8,
    l1i_assoc=1,
    l1d_sets=8,
    l1d_assoc=2,
    l2_sets=32,
    l2_assoc=4,
    bp_entries=16,
    mispredict_penalty=3,
    max_outstanding_misses=1,
)

A77_LIKE = CoreParams(
    name="a77-like",
    fetch_width=6,
    issue_width=6,
    retire_width=6,
    n_alu=3,
    n_mul=2,
    n_vec=2,
    vec_lanes=6,
    lsu_ports=2,
    iq_size=24,
    rob_size=48,
    fetch_buffer=12,
    l1d_sets=32,
    l2_sets=128,
    bp_entries=128,
)

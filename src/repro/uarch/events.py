"""Activity traces and the stimulus channel schema.

The pipeline model and the gate-level design generator are decoupled by a
*schema*: an ordered list of named channels (with bit widths) derived
purely from :class:`~repro.uarch.params.CoreParams`.  The pipeline fills
per-cycle channel values; :func:`ActivityTrace.encode_stimulus` flattens
them (LSB first, schema order) into the bit matrix the RTL simulator
consumes.  The design generator creates its input buses in the same order,
so the two sides always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import StimulusError
from repro.uarch.params import CoreParams

__all__ = ["stimulus_schema", "ActivityTrace"]

#: Cycles unpacked at a time by :meth:`ActivityTrace.encode_stimulus`.
_ENCODE_BLOCK = 4096


def _bits_for(n: int) -> int:
    """Bits needed to represent values 0..n inclusive."""
    return max(1, math.ceil(math.log2(n + 1)))


def stimulus_schema(params: CoreParams) -> list[tuple[str, int]]:
    """Ordered (channel, width) list for a core configuration."""
    p = params
    schema: list[tuple[str, int]] = [
        ("fetch/clk_en", 1),
        ("fetch/valid", 1),
        ("fetch/pc", 12),
    ]
    schema += [(f"fetch/inst{k}", 32) for k in range(p.fetch_width)]
    schema += [
        ("decode/clk_en", 1),
        ("decode/valid", p.fetch_width),
        ("rename/clk_en", 1),
        ("rename/count", _bits_for(p.issue_width)),
        ("issue/clk_en", 1),
        ("issue/occ", _bits_for(p.iq_size)),
        ("rob/clk_en", 1),
        ("rob/occ", _bits_for(p.rob_size)),
        ("rob/retire", _bits_for(p.retire_width)),
    ]
    for i in range(p.n_alu):
        schema += [
            (f"alu{i}/clk_en", 1),
            (f"alu{i}/valid", 1),
            (f"alu{i}/op", 3),
            (f"alu{i}/a", 16),
            (f"alu{i}/b", 16),
        ]
    for i in range(p.n_mul):
        schema += [
            (f"mul{i}/clk_en", 1),
            (f"mul{i}/valid", 1),
            (f"mul{i}/a", 16),
            (f"mul{i}/b", 16),
            (f"mul{i}/acc", 16),
        ]
    for i in range(p.n_vec):
        schema += [
            (f"vec{i}/clk_en", 1),
            (f"vec{i}/valid", 1),
            (f"vec{i}/op", 2),
        ]
        for lane in range(p.vec_lanes):
            schema += [
                (f"vec{i}/a{lane}", 16),
                (f"vec{i}/b{lane}", 16),
            ]
    for i in range(p.lsu_ports):
        schema += [
            (f"lsu{i}/clk_en", 1),
            (f"lsu{i}/valid", 1),
            (f"lsu{i}/is_store", 1),
            (f"lsu{i}/addr", 16),
            (f"lsu{i}/wdata", 16),
            (f"lsu{i}/hit", 1),
        ]
    schema += [
        ("l2ctl/clk_en", 1),
        ("l2ctl/req", 1),
        ("l2ctl/addr", 16),
        ("l2ctl/hit", 1),
    ]
    return schema


@dataclass
class ActivityTrace:
    """Per-cycle channel values produced by the pipeline model."""

    schema: list[tuple[str, int]]
    n_cycles: int
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [n for n, _ in self.schema]
        if len(set(names)) != len(names):
            raise StimulusError("duplicate channel names in schema")
        if any(not 0 <= w <= 64 for _n, w in self.schema):
            raise StimulusError("channel widths must be 0..64 bits")
        for name, _w in self.schema:
            if name not in self.channels:
                self.channels[name] = np.zeros(self.n_cycles, dtype=np.uint64)

    def set(self, name: str, cycle: int, value: int) -> None:
        self.channels[name][cycle] = value

    def get(self, name: str) -> np.ndarray:
        return self.channels[name]

    @property
    def total_bits(self) -> int:
        return sum(w for _n, w in self.schema)

    def encode_stimulus(self) -> np.ndarray:
        """Flatten to a (n_cycles, total_bits) uint8 stimulus matrix."""
        names = [n for n, _ in self.schema]
        widths = [w for _n, w in self.schema]
        # Each block of cycles stacks the channels, unpacks their
        # little-endian bytes LSB first (bit b of channel k lands in
        # column 64 k + b) and gathers the schema's bits in order.
        # Blocks bound the 64 unpacked bytes per channel-cycle.
        chan = np.repeat(np.arange(len(widths)), widths)
        starts = np.cumsum(widths) - widths
        cols = 64 * chan + np.arange(chan.size) - starts[chan]
        out = np.empty((self.n_cycles, chan.size), dtype=np.uint8)
        peaks = np.zeros(len(names), dtype=np.uint64)
        for c0 in range(0, self.n_cycles if names else 0, _ENCODE_BLOCK):
            block = slice(c0, c0 + _ENCODE_BLOCK)
            vals = np.stack([self.channels[n][block] for n in names], axis=1)
            np.maximum(peaks, vals.max(axis=0), out=peaks)
            bits = np.unpackbits(
                vals.astype("<u8", copy=False).view(np.uint8),
                axis=1,
                bitorder="little",
            )
            out[block] = bits[:, cols]
        limits = np.array([(1 << w) - 1 for w in widths], dtype=np.uint64)
        over = np.flatnonzero(peaks > limits)
        if over.size:
            k = int(over[0])
            raise StimulusError(
                f"channel {names[k]!r} value {int(peaks[k])} exceeds "
                f"{widths[k]}-bit width"
            )
        return out

    def duty_cycle(self, name: str) -> float:
        """Fraction of cycles a 1-bit channel is high."""
        return float(self.channels[name].astype(bool).mean())

"""Pluggable simulation backends.

Importing this package registers the two built-in engines with the
registry in :mod:`repro.rtl.backends.base`: ``"packed"`` (default; 64
lanes per uint64 word, run by the C kernel in
:mod:`repro.rtl.backends.cc` wherever it loads, else by a NumPy loop)
and ``"uint8"`` (the one-lane-per-byte reference).  Both are
bit-identical by contract; they differ only in throughput.
"""

from repro.rtl.backends.base import (
    Backend,
    acc_reduce,
    backend_names,
    eval_comb,
    get_backend,
    initial_values,
    register_backend,
)

# Importing the engine modules registers them (order defines the public
# ENGINES order: packed first, as it is the default).
from repro.rtl.backends.packed import PackedBackend
from repro.rtl.backends.uint8 import Uint8Backend

__all__ = [
    "Backend",
    "PackedBackend",
    "Uint8Backend",
    "acc_reduce",
    "backend_names",
    "eval_comb",
    "get_backend",
    "initial_values",
    "register_backend",
]

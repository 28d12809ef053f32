"""Micro-op and trace model: the instruction stream the core consumes.

A :class:`Trace` stores seven per-µop columns (:class:`TraceColumns`);
:class:`MicroOp` is the readable per-µop view built from them on demand.
"""

from repro.isa.uop import MicroOp, OpKind, OP_LATENCIES
from repro.isa.trace import Trace, TraceColumns, TraceStats
from repro.isa.serialize import load_trace, save_trace

__all__ = [
    "MicroOp",
    "OpKind",
    "OP_LATENCIES",
    "Trace",
    "TraceColumns",
    "TraceStats",
    "load_trace",
    "save_trace",
]

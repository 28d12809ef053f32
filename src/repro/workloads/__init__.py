"""Synthetic workload generation calibrated to the paper's characterisation.

The paper runs SPEC CPU 2017 and PARSEC under gem5.  We cannot run those
binaries here, so each named application is generated as a deterministic
micro-op trace built from kernels (memcpy/memset/clear_page bursts, strided
and sparse stores, load streams, pointer chases, compute, branches) whose mix
is calibrated so the baseline SB-stall profile matches Figures 1 and 3.

Generators write the trace's per-µop columns directly
(:class:`repro.isa.trace.TraceColumns`): kernels append to a
:class:`KernelBuilder`'s columns, :func:`build_trace` concatenates them and
:func:`parsec` relocates each thread's private addresses with one pass over
the kind and address columns.  No :class:`~repro.isa.uop.MicroOp` is built.
"""

from repro.workloads.kernels import (
    KernelBuilder,
    memcpy_kernel,
    memset_kernel,
    clear_page_kernel,
    strided_store_kernel,
    sparse_store_kernel,
    load_stream_kernel,
    pointer_chase_kernel,
    compute_kernel,
    branchy_kernel,
)
from repro.workloads.generator import PhaseSpec, WorkloadSpec, build_trace
from repro.workloads.spec import SPEC_APPS, SB_BOUND_SPEC, spec2017, spec2017_names
from repro.workloads.parsec import PARSEC_APPS, SB_BOUND_PARSEC, parsec, parsec_names

__all__ = [
    "KernelBuilder",
    "memcpy_kernel",
    "memset_kernel",
    "clear_page_kernel",
    "strided_store_kernel",
    "sparse_store_kernel",
    "load_stream_kernel",
    "pointer_chase_kernel",
    "compute_kernel",
    "branchy_kernel",
    "PhaseSpec",
    "WorkloadSpec",
    "build_trace",
    "SPEC_APPS",
    "SB_BOUND_SPEC",
    "spec2017",
    "spec2017_names",
    "PARSEC_APPS",
    "SB_BOUND_PARSEC",
    "parsec",
    "parsec_names",
]

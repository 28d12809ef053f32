"""SPEC CPU 2017-like application definitions.

Each named application is a weighted phase mixture calibrated against the
paper's own characterisation:

* Figure 1 — which applications are SB-bound (>2% SB-induced stalls on the
  56-entry at-commit baseline): bwaves, cactuBSSN, x264, blender, cam4,
  deepsjeng, fotonik3d, roms.
* Figure 3 — where the stall-causing stores live: library calls (memcpy,
  memset, calloc) or the OS (clear_page) for most, application code for
  deepsjeng and roms.

Data-movement phases rotate over a bounded buffer pool, so after warm-up the
copied buffers live in L2 or L3 the way reused frame/grid buffers do; the
``clear_page`` phase always touches fresh pages (the OS zeroes memory the
application never saw), so it is DRAM-cold by construction.  The remaining
(non-SB-bound) applications are modelled with compute, load and
pointer-chase mixes so the ALL geometric mean includes realistic unaffected
benchmarks.
"""

from __future__ import annotations

from repro.isa.trace import Trace
from repro.workloads.generator import PhaseSpec, WorkloadSpec, build_trace
from repro.workloads.phases import (
    memcpy as _memcpy,
    memset as _memset,
    clear_page as _clear_page,
    app_copy as _app_copy,
    shuffled as _shuffled,
    strided as _strided,
    sparse as _sparse,
    loads as _loads,
    chase as _chase,
    compute as _compute,
    branchy as _branchy,
)

_KIB = 1024

def _spec(name: str, description: str, *phases: PhaseSpec) -> WorkloadSpec:
    return WorkloadSpec(name=name, phases=tuple(phases), description=description)


#: The SB-bound subset per the paper's Figure 1 criterion.
SB_BOUND_SPEC: tuple[str, ...] = (
    "bwaves", "cactuBSSN", "x264", "blender", "cam4",
    "deepsjeng", "fotonik3d", "roms",
)

SPEC_APPS: dict[str, WorkloadSpec] = {
    # ---- SB-bound applications (Figures 1 and 3) ----
    "bwaves": _spec(
        "bwaves", "FP blast solver: heavy memcpy between grid arrays",
        _memcpy(0.14, nbytes=4 * _KIB),
        _loads(0.38), _compute(0.43, fp=0.9), _branchy(0.08, mispredict=0.01),
    ),
    "cactuBSSN": _spec(
        "cactuBSSN", "numerical relativity: page clears and memset on grids",
        _clear_page(0.02, pages=1), _memset(0.03, nbytes=4 * _KIB),
        _loads(0.40), _compute(0.47, fp=0.9), _branchy(0.08, mispredict=0.01),
    ),
    "x264": _spec(
        "x264", "video encoder: frame copies plus branchy search",
        _memcpy(0.10, nbytes=4 * _KIB),
        _memset(0.03, nbytes=4 * _KIB),
        _loads(0.29), _compute(0.30, fp=0.3), _branchy(0.30, mispredict=0.05),
    ),
    "blender": _spec(
        "blender", "renderer: calloc-backed allocations and scene copies",
        _memset(0.03, nbytes=4 * _KIB, region="calloc"),
        _memcpy(0.02, nbytes=4 * _KIB),
        _loads(0.33), _compute(0.47, fp=0.7), _branchy(0.15, mispredict=0.03),
    ),
    "cam4": _spec(
        "cam4", "climate model: memset-dominated buffer resets",
        _memset(0.05, nbytes=4 * _KIB),
        _loads(0.40), _compute(0.46, fp=0.9), _branchy(0.10, mispredict=0.02),
    ),
    "deepsjeng": _spec(
        "deepsjeng", "chess engine: manual board copies in app code",
        _app_copy(0.05, nbytes=2 * _KIB),
        _loads(0.23), _compute(0.36, fp=0.1), _branchy(0.37, mispredict=0.06),
    ),
    "fotonik3d": _spec(
        "fotonik3d", "FDTD solver: page clears plus regular FP sweeps",
        _clear_page(0.03, pages=1), _memset(0.02, nbytes=4 * _KIB),
        _loads(0.43), _compute(0.44, fp=0.9), _branchy(0.08, mispredict=0.01),
    ),
    "roms": _spec(
        "roms", "ocean model: unroll-shuffled store sweeps in app code",
        _shuffled(0.12, nbytes=4 * _KIB),
        _loads(0.39), _compute(0.43, fp=0.9), _branchy(0.08, mispredict=0.01),
    ),
    # ---- Not SB-bound: compute / load / branch dominated mixes ----
    "perlbench": _spec(
        "perlbench", "interpreter: branchy, pointer-heavy, small stores",
        _branchy(0.30, mispredict=0.05), _chase(0.20), _loads(0.25),
        _compute(0.20, fp=0.05), _sparse(0.05),
    ),
    "gcc": _spec(
        "gcc", "compiler: irregular loads and branches, modest data movement",
        _branchy(0.25, mispredict=0.05), _chase(0.20), _loads(0.25),
        _compute(0.24, fp=0.05), _memcpy(0.06, nbytes=2 * _KIB, fresh_every=0),
    ),
    "mcf": _spec(
        "mcf", "network simplex: pointer chasing over a huge working set",
        _chase(0.55, working_set=64 << 20), _loads(0.20), _compute(0.15, fp=0.05),
        _branchy(0.10, mispredict=0.06),
    ),
    "omnetpp": _spec(
        "omnetpp", "discrete-event sim: chasing and branchy event handling",
        _chase(0.35), _branchy(0.25, mispredict=0.05), _loads(0.20),
        _compute(0.15, fp=0.05), _sparse(0.05),
    ),
    "xalancbmk": _spec(
        "xalancbmk", "XML transform: loads and branches over trees",
        _loads(0.35), _branchy(0.25, mispredict=0.04), _chase(0.20),
        _compute(0.20, fp=0.05),
    ),
    "exchange2": _spec(
        "exchange2", "puzzle solver: almost pure integer compute",
        _compute(0.60, fp=0.0), _branchy(0.30, mispredict=0.03), _loads(0.10),
    ),
    "leela": _spec(
        "leela", "go engine: branchy tree search with warm loads",
        _branchy(0.35, mispredict=0.06), _compute(0.30, fp=0.2), _loads(0.25),
        _chase(0.10),
    ),
    "xz": _spec(
        "xz", "compressor: warm loads with match-dependent branches",
        _loads(0.40, warm_key=977), _branchy(0.25, mispredict=0.05),
        _compute(0.33, fp=0.0),
        _sparse(0.02, count=100, span=128 * _KIB, warm_key=977, chunk=600),
    ),
    "lbm": _spec(
        "lbm", "lattice Boltzmann: streaming loads, strided stores",
        _loads(0.47, warm=False), _strided(0.04, count=200, stride=192),
        _compute(0.42, fp=0.9), _branchy(0.05, mispredict=0.01),
    ),
    "wrf": _spec(
        "wrf", "weather model: FP sweeps with regular loads",
        _loads(0.42), _compute(0.45, fp=0.9), _branchy(0.08, mispredict=0.02),
        _memset(0.02, nbytes=2 * _KIB, pool_kib=2, fresh_every=0),
    ),
    "nab": _spec(
        "nab", "molecular dynamics: FP compute-bound",
        _compute(0.60, fp=0.9), _loads(0.30), _branchy(0.10, mispredict=0.02),
    ),
    "povray": _spec(
        "povray", "ray tracer: FP compute with branchy shading",
        _compute(0.50, fp=0.8), _branchy(0.25, mispredict=0.04), _loads(0.25),
    ),
    "imagick": _spec(
        "imagick", "image transforms: warm loads and FP kernels",
        _loads(0.37), _compute(0.48, fp=0.7), _branchy(0.10, mispredict=0.03),
        _strided(0.025, count=200),
    ),
}


def spec2017_names(sb_bound_only: bool = False) -> list[str]:
    """Names of the modelled SPEC CPU 2017 applications."""
    if sb_bound_only:
        return list(SB_BOUND_SPEC)
    return list(SPEC_APPS)


def spec2017(name: str, length: int = 200_000, seed: int = 1) -> Trace:
    """Build the trace for one SPEC CPU 2017-like application."""
    try:
        spec = SPEC_APPS[name]
    except KeyError:
        known = ", ".join(sorted(SPEC_APPS))
        raise ValueError(f"unknown SPEC app {name!r}; known: {known}")
    return build_trace(spec, length=length, seed=seed)

"""Out-of-order core configuration (paper Tables I and II)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class CoreConfig:
    """Back-end resources of one out-of-order core.

    Defaults match the Skylake-X-like baseline of Table I: 4-wide front end,
    224-entry ROB, 97-entry issue queue, 72-entry load queue and a 56-entry
    store buffer.  ``smt_threads`` statically partitions the store buffer,
    matching the rMCA partitioning described in the paper's introduction.
    """

    name: str = "SKL"
    width: int = 4
    rob_entries: int = 224
    issue_queue_entries: int = 97
    load_queue_entries: int = 72
    store_buffer_entries: int = 56
    int_registers: int = 180
    fp_registers: int = 180
    smt_threads: int = 1
    branch_mispredict_penalty: int = 14
    frequency_ghz: float = 2.0
    # Non-speculative same-block coalescing at the SB tail (Ros & Kaxiras,
    # ISCA 2018) — the related-work alternative for stretching SB capacity.
    sb_coalescing: bool = False
    # Branch direction predictor: "trace" reads the workload's pre-annotated
    # mispredict flags (the calibrated default); "bimodal", "gshare" and
    # "tage" predict the trace's actual directions (Table I lists L-TAGE).
    branch_predictor: str = "trace"

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("pipeline width must be positive")
        if self.smt_threads not in (1, 2, 4):
            raise ValueError("smt_threads must be 1, 2 or 4")
        for field_name in (
            "rob_entries",
            "issue_queue_entries",
            "load_queue_entries",
            "store_buffer_entries",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    @property
    def store_buffer_per_thread(self) -> int:
        """Effective SB entries per hardware thread (static partitioning)."""
        return max(1, self.store_buffer_entries // self.smt_threads)

    def with_store_buffer(self, entries: int) -> "CoreConfig":
        """Return a copy with a different store-buffer capacity."""
        return replace(self, store_buffer_entries=entries)

    def with_smt(self, threads: int) -> "CoreConfig":
        """Return a copy running ``threads`` SMT threads."""
        return replace(self, smt_threads=threads)


def _preset(name: str, rob: int, iq: int, lq: int, sq: int, width: int) -> CoreConfig:
    return CoreConfig(
        name=name,
        width=width,
        rob_entries=rob,
        issue_queue_entries=iq,
        load_queue_entries=lq,
        store_buffer_entries=sq,
    )


#: Table II of the paper: sensitivity-analysis core configurations.
CORE_PRESETS: Dict[str, CoreConfig] = {
    "SLM": _preset("SLM", rob=32, iq=15, lq=10, sq=16, width=4),
    "NHL": _preset("NHL", rob=128, iq=32, lq=48, sq=36, width=4),
    "HSW": _preset("HSW", rob=192, iq=60, lq=72, sq=42, width=8),
    "SKL": _preset("SKL", rob=224, iq=97, lq=72, sq=56, width=8),
    "SNC": _preset("SNC", rob=352, iq=128, lq=128, sq=72, width=8),
}


def core_preset(name: str) -> CoreConfig:
    """Look up a Table II preset by name (SLM, NHL, HSW, SKL, SNC)."""
    try:
        return CORE_PRESETS[name.upper()]
    except KeyError:
        known = ", ".join(sorted(CORE_PRESETS))
        raise ValueError(f"unknown core preset {name!r}; known presets: {known}")
